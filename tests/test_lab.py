import math

import numpy as np
import pytest

from carnotlab.carnot import (
    GaugeBall,
    GaugeBump,
    HomogeneousPolynomial,
    HorizontalDerivativeMagnitude,
    TranslatedFunction,
    DilatedArgument,
    random_bump,
)
from carnotlab.errors import ConditioningError, DomainError, HypothesisError, ValidationError
from carnotlab.lab import (
    affine_infimum,
    best_polynomial,
    campanato_norm,
    counterexample_family,
    counterexample_report,
    evaluate_candidate,
    fit_scaling_slope,
    leibniz_test,
    morrey_norm,
    affine_distance_floor,
    phi,
    phi_prime,
    poincare_test,
    representation_check,
    sobolev_sublaplacian_test,
    sobolev_test,
)
from carnotlab.lab import inequalities, spaces
from carnotlab.lab.bestpoly import _weighted_lstsq
from carnotlab.operators import derivative_tuples, jet_rows
from carnotlab.quad import QuadratureScheme
from carnotlab.rng import stream
from carnotlab.weights import BallSampler, ExponentSystem, Weight

W1 = Weight.one


# -- best_polynomial -----------------------------------------------------------


def test_best_poly_recovers_polynomial(e1, h1):
    for group, k in ((e1, 2), (h1, 2), (h1, 3)):
        rng = stream(1, f"recover/{group.ident}/{k}")
        from carnotlab.carnot import random_polynomial

        target = random_polynomial(group, rng, k)
        ball = GaugeBall(rng.uniform(-0.5, 0.5, group.n), 1.2)
        poly, value = best_polynomial(
            group, target, W1(group), 2.0, ball, k, QuadratureScheme(samples=4000, seed=3)
        )
        assert value.value < 1e-8
        for alpha, c in target.terms.items():
            assert poly.terms.get(alpha, 0.0) == pytest.approx(c, abs=1e-8)


def test_best_poly_constant_q2(e1):
    # best constant for F = x on (-1, 1) in L^2 is 0 with value sqrt(2/3)
    F = HomogeneousPolynomial(e1, {(1,): 1.0})
    ball = GaugeBall([0.0], 1.0)
    poly, value = best_polynomial(
        e1, F, W1(e1), 2.0, ball, 1, QuadratureScheme(samples=120000, seed=5)
    )
    assert abs(poly.terms.get((0,), 0.0)) < 0.02
    assert value.value == pytest.approx(math.sqrt(2.0 / 3.0), rel=0.01)


def test_best_poly_constant_q1_median(e1):
    # L^1 best constant is the median 0 and the value is int |x| dx = 1
    F = HomogeneousPolynomial(e1, {(1,): 1.0})
    ball = GaugeBall([0.0], 1.0)
    poly, value = best_polynomial(
        e1, F, W1(e1), 1.0, ball, 1, QuadratureScheme(samples=120000, seed=7)
    )
    assert abs(poly.terms.get((0,), 0.0)) < 0.02
    assert value.value == pytest.approx(1.0, rel=0.01)
    assert value.note == "irls-stationary"


@pytest.mark.parametrize("q", [1.0, 2.0])
def test_best_poly_grid_brute_force_equivalence(e1, q):
    from bruteforce_helpers import grid_brute_force

    rng = stream(2, f"brute/{q}")
    scheme = QuadratureScheme(samples=2000, seed=13)
    for case in range(4):
        k = 1 + case % 2
        ball = GaugeBall([float(rng.uniform(-1, 1))], float(rng.uniform(0.5, 1.5)))
        bump = random_bump(e1, rng, center_box=1.0, radius_range=(0.5, 2.0))
        op_id = f"brute/{q}/{case}"
        _, value = best_polynomial(e1, bump, W1(e1), q, ball, k, scheme, op_id=op_id)
        brute = grid_brute_force(e1, bump, W1(e1), q, ball, k, scheme, op_id)
        assert value.value == pytest.approx(brute, rel=1e-3, abs=1e-9)


def test_best_poly_optimality_probes(e1):
    # no random perturbation of the minimizer may do better (q >= 1)
    rng = stream(3, "probes")
    bump = GaugeBump(e1, [0.2], 1.5)
    ball = GaugeBall([0.0], 1.0)
    scheme = QuadratureScheme(samples=4000, seed=17)
    for q in (1.0, 2.0):
        poly, value = best_polynomial(e1, bump, W1(e1), q, ball, 2, scheme, op_id=f"probe{q}")
        for _ in range(100):
            delta = HomogeneousPolynomial(
                e1, {(0,): rng.normal() * 0.1, (1,): rng.normal() * 0.1}
            )
            probe = evaluate_candidate(
                e1, bump, W1(e1), q, ball, scheme, poly + delta, op_id=f"probe{q}"
            )
            assert probe >= value.value - 3.0 * value.std_error - 1e-12


def test_best_poly_q_below_one_upper_bound(e1):
    # q < 1: simplex result labeled and no probe beats it after re-descent
    from scipy.optimize import minimize_scalar

    bump = GaugeBump(e1, [0.1], 1.4)
    ball = GaugeBall([0.0], 1.0)
    scheme = QuadratureScheme(samples=2000, seed=19)
    q = 0.5
    poly, value = best_polynomial(e1, bump, W1(e1), q, ball, 1, scheme, op_id="qlow")
    assert value.note == "upper-bound"
    rng = stream(5, "qlow-probes")
    for _ in range(10):
        delta = HomogeneousPolynomial(e1, {(0,): rng.normal() * 0.05})
        shifted = poly + delta
        probe = evaluate_candidate(e1, bump, W1(e1), q, ball, scheme, shifted, op_id="qlow")
        if probe < value.value:
            # re-descend from the probe and require no real improvement
            c0 = shifted.terms.get((0,), 0.0)
            res = minimize_scalar(
                lambda c: evaluate_candidate(
                    e1, bump, W1(e1), q, ball, scheme,
                    HomogeneousPolynomial(e1, {(0,): c}), op_id="qlow",
                ),
                bracket=(c0 - 0.1, c0, c0 + 0.1),
            )
            assert res.fun >= value.value - 3.0 * value.std_error - 1e-10


def test_weighted_lstsq_rank_deficiency():
    A = np.column_stack([np.ones(50), np.ones(50)])  # duplicated column
    with pytest.raises(ConditioningError):
        _weighted_lstsq(A, np.ones(50), np.ones(50))


def test_best_poly_validation(e1):
    with pytest.raises(DomainError):
        best_polynomial(
            e1, lambda p: p[:, 0], W1(e1), 2.0, GaugeBall([0.0], 1.0), 0,
            QuadratureScheme(samples=2000),
        )


def test_best_poly_rejects_oversized_grid(h1):
    # 272^3 = 2.01e7 nodes: refused before the grid is formed, as in integrate_ball
    with pytest.raises(DomainError, match="tensor grid too large"):
        best_polynomial(
            h1, lambda p: p[:, 0], W1(h1), 2.0, GaugeBall([0.0, 0.0, 0.0], 1.0), 2,
            QuadratureScheme(kind="grid", points_per_axis=272),
        )


# -- poincare_test ---------------------------------------------------------------


def test_poincare_polynomial_product_zero_lhs(e1, small_scheme):
    # deg_G(f1 f2) < k: the polynomial subtraction is exact
    f1 = HomogeneousPolynomial(e1, {(0,): 1.0, (1,): 0.5})
    f2 = HomogeneousPolynomial(e1, {(0,): 2.0})
    sys = ExponentSystem(m=2, p_list=(2.0, 2.0), q=1.0, k=2)
    report = poincare_test(
        e1, [f1, f2], W1(e1), [W1(e1), W1(e1)], sys, GaugeBall([0.0], 1.0), small_scheme
    )
    assert report.lhs.value < 1e-8
    assert report.ratio < 1e-6
    assert not report.flags


def test_poincare_derived_oracle(e1):
    # m=2, k=1, f1=f2=x on B=(0,1), q=1, p=2:
    #   lhs = inf_c int_0^1 |x^2 - c| = 1/4 (median c* = 1/4)
    #   rhs = 2 ||1||_2 ||x||_2 = 2/sqrt(3)
    f = HomogeneousPolynomial(e1, {(1,): 1.0})
    sys = ExponentSystem(m=2, p_list=(2.0, 2.0), q=1.0, k=1)
    scheme = QuadratureScheme(samples=120000, seed=23)
    report = poincare_test(
        e1, [f, f], W1(e1), [W1(e1), W1(e1)], sys, GaugeBall([0.5], 0.5), scheme
    )
    assert report.lhs.value == pytest.approx(0.25, rel=0.01)
    assert report.rhs.value == pytest.approx(2.0 / math.sqrt(3.0), rel=0.01)
    assert report.ratio == pytest.approx(0.25 * math.sqrt(3.0) / 2.0, rel=0.02)


def test_poincare_sweep_small(h1):
    from carnotlab.lab.sweeps import poincare_sweep, sweep_summary

    sys = ExponentSystem(m=2, p_list=(4.0 / 3.0, 4.0 / 3.0), q=1.0, k=2)
    scheme = QuadratureScheme(samples=2048, seed=29)
    reports = poincare_sweep(
        h1, sys, W1(h1), [W1(h1), W1(h1)], scheme, trials=6, seed=31,
        weight_check={"verdict": "finite-at-sampled-scales", "witness_t": 2.0, "exponent": 0.0},
    )
    summary = sweep_summary(reports)
    assert summary["finite_ratios"] == 6
    assert not summary["flags"]
    assert all(r.config["weight_verdict"] == "finite-at-sampled-scales" for r in reports)


def test_poincare_translation_covariance(h1):
    # left-translating inputs and ball leaves both sides invariant (3 sigma)
    rng = stream(6, "translation")
    fs = [random_bump(h1, rng), random_bump(h1, rng)]
    sys = ExponentSystem(m=2, p_list=(2.0, 2.0), q=1.0, k=1)
    ball = GaugeBall([0.1, -0.2, 0.05], 1.0)
    scheme = QuadratureScheme(samples=20000, seed=37)
    base = poincare_test(h1, fs, W1(h1), [W1(h1), W1(h1)], sys, ball, scheme)
    g = np.array([0.6, -0.4, 0.3])
    shifted_fs = [TranslatedFunction(h1, g, f) for f in fs]
    shifted_ball = GaugeBall(h1.compose(g, ball.center), ball.radius)
    moved = poincare_test(
        h1, shifted_fs, W1(h1), [W1(h1), W1(h1)], sys, shifted_ball, scheme
    )
    for a, b in ((base.lhs, moved.lhs), (base.rhs, moved.rhs)):
        assert abs(a.value - b.value) <= 3.0 * math.hypot(a.std_error, b.std_error) + 1e-9


# -- sobolev tests -----------------------------------------------------------------


def test_sobolev_zero_slot(e1, small_scheme):
    bump = GaugeBump(e1, [0.0], 1.0)

    class ZeroBump:
        support = bump.support
        jet_order = 0
        smoothness = math.inf

        def __call__(self, p):
            return np.zeros(np.atleast_2d(p).shape[0])

    sys = ExponentSystem(m=2, p_list=(4.0 / 3.0, 4.0 / 3.0), q=1.0, k=1)
    report = sobolev_test(e1, [bump, ZeroBump()], W1(e1), [W1(e1), W1(e1)], sys, small_scheme)
    assert report.lhs.value == 0.0
    assert not report.flags


def test_sobolev_single_bump_vs_quadrature_oracle(e1):
    # m = 1, k = 1: lhs/rhs against dense 1-D quadrature of the same integrals
    bump = GaugeBump(e1, [0.0], 1.0)
    sys = ExponentSystem(m=1, p_list=(2.0,), q=2.0, k=1)
    scheme = QuadratureScheme(samples=120000, seed=41)
    report = sobolev_test(e1, [bump], W1(e1), [W1(e1)], sys, scheme)
    xs = np.linspace(-1.0, 1.0, 200001)[:, None]
    vals = bump(xs)
    lhs_oracle = math.sqrt(np.trapezoid(vals**2, xs[:, 0]))
    grads = bump.jets(xs, 1)[1][:, 0]
    rhs_oracle = math.sqrt(np.trapezoid(grads**2, xs[:, 0]))
    assert report.lhs.value == pytest.approx(lhs_oracle, rel=0.01)
    assert report.rhs.value == pytest.approx(rhs_oracle, rel=0.01)


def test_sobolev_dilation_invariance_at_critical_exponents(e1):
    # m=2, k=1, p=(4/3,4/3) (p=2/3), q=2 on R^1: exponent k+Q(1/q-1/p)=0,
    # so the ratio is invariant under f -> f o delta_lam
    sys = ExponentSystem(m=2, p_list=(4.0 / 3.0, 4.0 / 3.0), q=2.0, k=1)
    rng = stream(7, "dilation-sweep")
    fs = [random_bump(e1, rng), random_bump(e1, rng)]
    scheme = QuadratureScheme(samples=60000, seed=43)
    base = sobolev_test(e1, fs, W1(e1), [W1(e1), W1(e1)], sys, scheme)
    for lam in (0.5, 2.0):
        gs = [DilatedArgument(e1, lam, f) for f in fs]
        moved = sobolev_test(e1, gs, W1(e1), [W1(e1), W1(e1)], sys, scheme)
        assert moved.ratio == pytest.approx(base.ratio, rel=0.05)


def test_sublaplacian_zero_slot(e2, small_scheme):
    bump = GaugeBump(e2, [0.0, 0.0], 1.0)

    class ZeroBump:
        support = bump.support

        def __call__(self, p):
            return np.zeros(np.atleast_2d(p).shape[0])

    sys = ExponentSystem(m=2, p_list=(4.0 / 3.0, 4.0 / 3.0), q=1.0, k=2)
    report = sobolev_sublaplacian_test(
        e2, [bump, ZeroBump()], W1(e2), [W1(e2), W1(e2)], sys, small_scheme
    )
    assert report.lhs.value == 0.0


def test_sublaplacian_hypothesis_errors(e1, e2, small_scheme):
    bump = GaugeBump(e1, [0.0], 1.0)
    sys1 = ExponentSystem(m=1, p_list=(2.0,), q=2.0, k=2)
    with pytest.raises(HypothesisError):
        # m*Q = 1 <= 2
        sobolev_sublaplacian_test(e1, [bump], W1(e1), [W1(e1)], sys1, small_scheme)
    sys_bad_k = ExponentSystem(m=2, p_list=(2.0, 2.0), q=1.0, k=1)
    bump2 = GaugeBump(e2, [0.0, 0.0], 1.0)
    with pytest.raises(HypothesisError):
        sobolev_sublaplacian_test(
            e2, [bump2, bump2], W1(e2), [W1(e2), W1(e2)], sys_bad_k, small_scheme
        )


def test_sublaplacian_h1_single_slot(h1):
    # m = 1 on H^1: Q = 4 > 2, valid; ratio recorded and finite
    bump = GaugeBump(h1, [0.0, 0.0, 0.0], 1.0)
    sys = ExponentSystem(m=1, p_list=(2.0,), q=2.0, k=2)
    scheme = QuadratureScheme(samples=20000, seed=47)
    report = sobolev_sublaplacian_test(h1, [bump], W1(h1), [W1(h1)], sys, scheme)
    assert math.isfinite(report.ratio) and report.ratio > 0


def test_sublaplacian_bilinear_e2(e2):
    bump1 = GaugeBump(e2, [0.1, 0.0], 0.9)
    bump2 = GaugeBump(e2, [-0.1, 0.1], 1.1)
    sys = ExponentSystem(m=2, p_list=(2.0, 2.0), q=1.0, k=2)
    scheme = QuadratureScheme(samples=20000, seed=53)
    report = sobolev_sublaplacian_test(
        e2, [bump1, bump2], W1(e2), [W1(e2), W1(e2)], sys, scheme
    )
    assert math.isfinite(report.ratio) and report.ratio > 0
    assert len(report.terms) == 2


# -- representation check -----------------------------------------------------------


def test_representation_polynomial_zero(e1, small_scheme):
    f1 = HomogeneousPolynomial(e1, {(1,): 1.0})
    f2 = HomogeneousPolynomial(e1, {(0,): 1.0})
    ball = GaugeBall([0.0], 1.0)
    records, summary = representation_check(e1, [f1, f2], ball, 2, 20, small_scheme)
    assert all(rec["lhs"] < 1e-7 for rec in records)


def test_representation_classical_1d(e1):
    # m=1, k=1, f=x^2 on B=(0,1): lhs and rhs computed directly
    f = HomogeneousPolynomial(e1, {(2,): 1.0})
    ball = GaugeBall([0.5], 0.5)
    scheme = QuadratureScheme(samples=40000, seed=59)
    records, summary = representation_check(e1, [f], ball, 1, 25, scheme)
    assert math.isfinite(summary["max_ratio"])
    for rec in records:
        x = rec["point"][0]
        # rhs = int_0^1 |f'(y)| / |x-y|^0 ... for k=Q=1 the kernel power is 0
        assert rec["rhs"] == pytest.approx(1.0, rel=0.05)  # int_0^1 |2y| dy = 1
    # lhs <= C rhs uniformly: C estimated below 1 here
    assert summary["max_ratio"] < 1.0


def test_representation_h1_bounded(h1):
    rng = stream(8, "rep-h1")
    fs = [random_bump(h1, rng, center_box=0.2, radius_range=(0.9, 1.3)) for _ in range(2)]
    ball = GaugeBall([0.0, 0.0, 0.0], 1.0)
    scheme = QuadratureScheme(kind="annuli", samples=12000, levels=12, seed=61)
    records, summary = representation_check(h1, fs, ball, 2, 10, scheme)
    assert math.isfinite(summary["max_ratio"])


def test_representation_one_mfi_call_per_tuple(e1, small_scheme, count_calls):
    calls = count_calls(
        inequalities, "multilinear_fractional_integral",
        lambda group, fs, tau, x, scheme, *, op_id="mfi": (np.shape(x), op_id),
    )
    fs = [GaugeBump(e1, [0.1], 1.0), GaugeBump(e1, [-0.2], 1.2)]
    records, _ = representation_check(
        e1, fs, GaugeBall([0.0], 1.0), 2, 30, small_scheme, op_id="rep"
    )
    tuples = derivative_tuples(2, 2, e1.n1)
    assert len(calls) == len(tuples) == 3
    assert calls == [((30, 1), f"rep/t{t}") for t in range(len(tuples))]
    assert len(records) == 30


def test_representation_hypothesis(e1, small_scheme):
    f = HomogeneousPolynomial(e1, {(2,): 1.0})
    with pytest.raises(HypothesisError):
        representation_check(e1, [f], GaugeBall([0.0], 1.0), 2, 5, small_scheme)


# -- counterexample ------------------------------------------------------------------


def test_profile_constraints():
    assert phi(-1.0) == pytest.approx(0.0, abs=1e-14)
    assert phi(1.0) == pytest.approx(1.0, rel=1e-14)
    assert phi_prime(-1.0) == pytest.approx(0.0, abs=1e-14)
    assert phi_prime(1.0) == pytest.approx(0.0, abs=1e-14)
    x = np.polynomial.legendre.leggauss(200)
    nodes, weights = x
    assert np.dot(weights, phi(nodes)) == pytest.approx(1.0, abs=1e-10)
    grid = np.linspace(-1, 1, 4001)
    vals = phi(grid)
    assert vals.min() >= -1e-14 and vals.max() <= 1.0 + 1e-14


def test_family_construction_and_linearity():
    fam = counterexample_family(0.25)
    xs = np.array([0.25, 0.3, 0.9, 1.0])
    assert np.allclose(fam.value(xs), xs)  # f_eps(x) = x for x >= eps
    xs = np.linspace(0.3, 1.0, 101)
    assert np.array_equal(counterexample_family(0.3).value(xs), xs)  # exactly, any eps
    assert np.allclose(fam.value(-xs), 0.0)
    assert np.allclose(fam.first(xs), 1.0)
    assert np.allclose(fam.second(xs), 0.0)
    with pytest.raises(DomainError):
        counterexample_family(0.5)
    with pytest.raises(DomainError):
        counterexample_family(0.0)


def test_family_derivative_consistency():
    # finite differences of f_eps match the analytic first/second derivatives
    fam = counterexample_family(0.25)
    xs = np.linspace(-0.24, 0.24, 41)
    h = 1e-6
    fd1 = (fam.value(xs + h) - fam.value(xs - h)) / (2 * h)
    assert np.allclose(fd1, fam.first(xs), atol=1e-8)
    fd2 = (fam.value(xs + h) - 2 * fam.value(xs) + fam.value(xs - h)) / h**2
    assert np.allclose(fd2, fam.second(xs), atol=1e-3)


def test_scaling_constant_across_eps():
    # R(eps) / eps^(1-p) is constant within 2%
    rows = counterexample_report(0.5, 1.0, [2.0**-e for e in range(2, 9)])
    consts = [row["R"] / row["eps"] ** 0.5 for row in rows]
    assert max(consts) / min(consts) < 1.02
    slope = fit_scaling_slope(rows)
    assert slope == pytest.approx(0.5, rel=0.02)


def test_lower_bound_chain():
    # L(eps) stays above the domain-splitting floor inf_b int_{1/2}^1 |x-2b|^q dx
    bound = affine_distance_floor(1.0)
    assert bound == pytest.approx(1.0 / 16.0, rel=1e-4)
    rows = counterexample_report(0.5, 1.0, [2.0**-e for e in range(2, 9)])
    lows = [row["L"] for row in rows]
    assert all(L > bound for L in lows)
    assert max(lows) / min(lows) < 1.05  # varies by < 5%
    assert all(row["converged"] for row in rows)


def test_ratio_growth():
    rows = counterexample_report(0.5, 1.0, [2.0**-2, 2.0**-4, 2.0**-6])
    ratios = [row["ratio"] for row in rows]
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] / ratios[0] > 4.0


def test_report_validation():
    with pytest.raises(DomainError):
        counterexample_report(1.5, 1.0, [0.25])
    with pytest.raises(DomainError):
        counterexample_report(0.5, 0.0, [0.25])


def test_affine_infimum_limit_value():
    # as eps -> 0 the best-affine L^1 distance of the ramp tends to 1/4
    fam = counterexample_family(2.0**-8)
    out = affine_infimum(fam, 1.0)
    assert out["value"] == pytest.approx(0.25, rel=0.005)
    assert out["a"] == pytest.approx(0.5, abs=0.01)


def _three_piece_nodes(eps, n):
    # the affine_infimum node set, built here independently
    t, w = np.polynomial.legendre.leggauss(n)
    pieces = [(-1.0, -eps), (-eps, eps), (eps, 1.0)]
    x = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * t for a, b in pieces])
    return x, np.concatenate([0.5 * (b - a) * w for a, b in pieces])


def test_affine_infimum_q2_is_weighted_least_squares():
    fam = counterexample_family(0.25)
    x, w = _three_piece_nodes(0.25, 400)
    f = fam.value(x)
    design = np.stack([x, np.ones_like(x)], axis=1) * np.sqrt(w)[:, None]
    (a, b), *_ = np.linalg.lstsq(design, f * np.sqrt(w), rcond=None)
    value = float(np.dot(w, (f - a * x - b) ** 2))
    out = affine_infimum(fam, 2.0)
    assert out["method"] == "symmetric-convex" and out["converged"]
    assert out["a"] == 0.5 and a == pytest.approx(0.5, abs=1e-12)
    assert out["b"] == pytest.approx(b, abs=1e-12)
    assert out["value"] == pytest.approx(value, rel=1e-12)


def test_affine_infimum_q1_matches_lp():
    # min sum_i w_i t_i over (a, b, t) subject to -t_i <= f_i - a x_i - b <= t_i
    from scipy.optimize import linprog

    rule = np.polynomial.legendre.leggauss(60)
    for eps in (0.25, 2.0**-5):
        fam = counterexample_family(eps)
        x, w = _three_piece_nodes(eps, 60)
        f = fam.value(x)
        eye = np.eye(x.size)
        ab = np.stack([x, np.ones_like(x)], axis=1)
        a_ub = np.block([[-ab, -eye], [ab, -eye]])
        res = linprog(
            np.concatenate([[0.0, 0.0], w]), A_ub=a_ub, b_ub=np.concatenate([-f, f]),
            bounds=[(None, None)] * 2 + [(0.0, None)] * x.size, method="highs",
        )
        assert res.status == 0
        out = affine_infimum(fam, 1.0, nodes=rule)
        assert out["value"] <= res.fun * (1.0 + 1e-9)
        assert out["value"] == pytest.approx(res.fun, rel=1e-7)


def _all_lines_brute_force(fam, q, n):
    # the least F over the line through every pair of nodes
    x, w = _three_piece_nodes(fam.eps, n)
    f = fam.value(x)
    i, j = np.triu_indices(x.size, k=1)
    a = (f[i] - f[j]) / (x[i] - x[j])
    b = f[i] - a * x[i]
    resid = f - a[:, None] * x - b[:, None]
    resid[np.arange(i.size), i] = 0.0
    resid[np.arange(i.size), j] = 0.0
    return float((np.abs(resid) ** q @ w).min())


@pytest.mark.parametrize("q", [0.5, 0.1, 0.9])
def test_affine_infimum_below_one_is_best_line_through_two_nodes(q):
    # 25 nodes per piece: the middle one is its own mirror image
    rule = np.polynomial.legendre.leggauss(25)
    for eps in (0.25, 0.3, 2.0**-4):
        fam = counterexample_family(eps)
        out = affine_infimum(fam, q, nodes=rule)
        assert out["method"] == "vertex-bnb" and out["converged"]
        assert out["value"] == pytest.approx(_all_lines_brute_force(fam, q, 25), rel=1e-12)
        x, w = _three_piece_nodes(eps, 25)
        resid = fam.value(x) - out["a"] * x - out["b"]
        assert float(np.dot(w, np.abs(resid) ** q)) == pytest.approx(out["value"], rel=1e-6)


def test_affine_infimum_below_one_is_not_above_known_line():
    # at eps = 1/4 the line a = 1/2 through two mirror-image nodes gives
    # 0.65973279; the earlier grid search reported 0.659793
    out = affine_infimum(counterexample_family(0.25), 0.5)
    assert out["value"] <= 0.6597328 + 1e-9


def test_counterexample_rows_are_certified():
    eps = [2.0**-e for e in range(2, 9)]
    for q, method in ((0.5, "vertex-bnb"), (1.0, "symmetric-convex")):
        rows = counterexample_report(0.5, q, eps)
        assert all(row["converged"] and row["method"] == method for row in rows)


def test_affine_distance_floor_closed_form():
    from scipy.integrate import quad as integrate

    assert affine_distance_floor(2.0) == pytest.approx(1.0 / 96.0, rel=1e-15)
    for q in (0.5, 0.75, 1.0, 2.0):
        at = [integrate(lambda x: abs(x - c) ** q, 0.5, 1.0, points=[c])[0]
              for c in (0.7, 0.75, 0.8)]
        assert at[1] == pytest.approx(affine_distance_floor(q), rel=1e-9)
        assert at[1] < min(at[0], at[2])


def test_ramp_testfunction_jets_and_smoothness(e2):
    from carnotlab.carnot import horizontal_derivative
    from carnotlab.errors import CapabilityError
    from carnotlab.lab import RampFunction

    ramp = RampFunction(e2, 0.25)
    pts = np.column_stack([np.linspace(-0.2, 0.2, 9), np.full(9, 0.3)])
    an = horizontal_derivative(e2, ramp, (2, 0), pts)
    fd = horizontal_derivative(e2, ramp, (2, 0), pts, force_fd=True)
    assert np.allclose(an, fd, atol=1e-5)
    assert np.allclose(horizontal_derivative(e2, ramp, (0, 1), pts), 0.0)
    with pytest.raises(CapabilityError):
        horizontal_derivative(e2, ramp, (3, 0), pts)


# -- Morrey / Campanato ---------------------------------------------------------------


def test_morrey_constant_function(e2, small_scheme):
    # f = w = 1, lambda = n: every ball gives exactly 1
    sampler = BallSampler(dim=2, count=12, r_min=0.25, r_max=4.0)
    est, details = morrey_norm(
        e2, lambda p: np.ones(p.shape[0]), W1(e2), 2.0, 2.0, sampler, small_scheme
    )
    assert est.value == pytest.approx(1.0, rel=1e-9)
    assert all(abs(d["value"] - 1.0) < 1e-9 for d in details)


def test_morrey_lambda_below_n_slope(e2, small_scheme):
    # f = w = 1, lambda < n: per-ball value is |B|^((1-lambda/n)/p); the
    # log-log slope in r equals (Q/p)(1 - lambda/n)
    lam, p = 1.0, 2.0
    sampler = BallSampler(dim=2, count=24, r_min=2.0**-4, r_max=2.0**4)
    est, details = morrey_norm(
        e2, lambda p_: np.ones(p_.shape[0]), W1(e2), p, lam, sampler, small_scheme
    )
    radii = np.array([d["radius"] for d in details])
    vals = np.array([d["value"] for d in details])
    slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
    expected = (e2.homogeneous_dimension / p) * (1.0 - lam / e2.n)
    assert slope == pytest.approx(expected, rel=1e-6)


def test_morrey_bump_finite(e1, small_scheme):
    bump = GaugeBump(e1, [0.0], 1.0)
    sampler = BallSampler(dim=1, count=24, r_min=0.25, r_max=8.0)
    est, _ = morrey_norm(e1, bump, W1(e1), 2.0, 1.0, sampler, small_scheme)
    assert math.isfinite(est.value) and est.value > 0
    assert "lower estimate" in est.note


def test_morrey_homogeneous_normalization(h1, small_scheme):
    # the Q-normalization switch: lambda = Q makes constant weights flat
    sampler = BallSampler(dim=3, count=8, r_min=0.5, r_max=2.0)
    est, _ = morrey_norm(
        h1, lambda p: np.ones(p.shape[0]), W1(h1), 2.0, 4.0, sampler, small_scheme,
        normalization="homogeneous",
    )
    assert est.value == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("gid", ["e1", "h1"])
def test_morrey_rows_match_single_key_calls(gid, request, small_scheme):
    # a row integrand takes every key's norm per ball from one node set; each
    # row's sup, per-ball values and note are the single-key call's, bit for bit
    group = request.getfixturevalue(gid)
    rng = stream(21, f"morrey-rows/{gid}")
    bump = random_bump(group, rng, center_box=0.3, radius_range=(0.8, 1.2))
    keys = [(0,) * group.n1, (1,) + (0,) * (group.n1 - 1), (2,) + (0,) * (group.n1 - 1)]
    sampler = BallSampler(dim=group.n, count=6, r_min=0.25, r_max=2.0)
    sups, details = morrey_norm(
        group, jet_rows(group, bump, keys), W1(group), 2.0, 1.0, sampler, small_scheme,
        op_id="rows",
    )
    assert len(sups) == len(keys) and len(details) == 6
    for a, key in enumerate(keys):
        single, single_details = morrey_norm(
            group, HorizontalDerivativeMagnitude(group, bump, key), W1(group), 2.0, 1.0,
            sampler, small_scheme, op_id="rows",
        )
        assert sups[a].to_dict() == single.to_dict()
        assert sups[a].note == single.note
        assert [d["value"][a] for d in details] == [d["value"] for d in single_details]
        assert [d["radius"] for d in details] == [d["radius"] for d in single_details]


def test_campanato_polynomial_zero(e1, small_scheme):
    f = HomogeneousPolynomial(e1, {(0,): 1.0, (1,): -2.0})
    sampler = BallSampler(dim=1, count=8, r_min=0.5, r_max=2.0)
    est, _ = campanato_norm(e1, f, W1(e1), 2.0, 1.0, 2, sampler, small_scheme)
    assert est.value < 1e-8


def test_campanato_below_morrey(e1, small_scheme):
    bump = GaugeBump(e1, [0.0], 1.0)
    sampler = BallSampler(dim=1, count=12, r_min=0.5, r_max=2.0)
    cam, _ = campanato_norm(e1, bump, W1(e1), 2.0, 1.0, 1, sampler, small_scheme)
    mor, _ = morrey_norm(e1, bump, W1(e1), 2.0, 1.0, sampler, small_scheme)
    assert cam.value <= mor.value + 1e-9


def test_campanato_x_squared_closed_form(e1):
    # per ball (c - r, c + r): residual of x^2 to affine is r^2(u^2 - 1/3),
    # value = sqrt(8/45) r^(5/2), scaled by |B|^(-lambda/(n p)) = (2r)^(-1/2)
    f = HomogeneousPolynomial(e1, {(2,): 1.0})
    sampler = BallSampler(dim=1, count=10, r_min=0.5, r_max=2.0)
    scheme = QuadratureScheme(samples=60000, seed=67)
    est, details = campanato_norm(e1, f, W1(e1), 2.0, 1.0, 2, sampler, scheme)
    for d in details:
        r = d["radius"]
        expected = math.sqrt(8.0 / 45.0) * r**2.5 / math.sqrt(2.0 * r)
        assert d["value"] == pytest.approx(expected, rel=0.02)


def test_campanato_shift_invariance(e1, small_scheme):
    # adding a polynomial of degree < k cannot change the norm (same nodes)
    bump = GaugeBump(e1, [0.0], 1.0)
    shift = HomogeneousPolynomial(e1, {(0,): 0.7, (1,): -0.4})

    class Shifted:
        def __call__(self, p):
            return bump(p) + shift(p)

    sampler = BallSampler(dim=1, count=8, r_min=0.5, r_max=2.0)
    a, _ = campanato_norm(e1, bump, W1(e1), 2.0, 1.0, 2, sampler, small_scheme)
    b, _ = campanato_norm(e1, Shifted(), W1(e1), 2.0, 1.0, 2, sampler, small_scheme)
    assert b.value == pytest.approx(a.value, rel=1e-8, abs=1e-12)


# -- Leibniz ---------------------------------------------------------------------------


def _leibniz_system():
    return ExponentSystem(m=2, p_list=(2.0, 2.0), q=1.0, k=2)


def test_leibniz_zero_when_product_low_degree(e1, small_scheme):
    f = HomogeneousPolynomial(e1, {(0,): 1.0, (1,): 0.5})
    g = HomogeneousPolynomial(e1, {(0,): 2.0})
    sampler = BallSampler(dim=1, count=8, r_min=0.5, r_max=2.0)
    report = leibniz_test(
        e1, f, g, W1(e1), W1(e1), W1(e1), _leibniz_system(), 1.0, 1.0, 1.0,
        sampler, small_scheme,
    )
    assert report.lhs.value < 1e-8
    assert report.ratio < 1e-6


def test_leibniz_zero_function(e1, small_scheme):
    zero = HomogeneousPolynomial.zero(e1)
    g = GaugeBump(e1, [0.0], 1.0)
    sampler = BallSampler(dim=1, count=8, r_min=0.5, r_max=2.0)
    report = leibniz_test(
        e1, zero, g, W1(e1), W1(e1), W1(e1), _leibniz_system(), 1.0, 1.0, 1.0,
        sampler, small_scheme,
    )
    assert report.lhs.value < 1e-10


def test_leibniz_scaling_relation_validated(e1, small_scheme):
    f = GaugeBump(e1, [0.0], 1.0)
    sampler = BallSampler(dim=1, count=4)
    with pytest.raises(ValidationError):
        leibniz_test(
            e1, f, f, W1(e1), W1(e1), W1(e1), _leibniz_system(), 2.0, 1.0, 1.0,
            sampler, small_scheme,
        )


def test_leibniz_bump_pair_finite(e1, small_scheme):
    rng = stream(9, "leibniz")
    f, g = random_bump(e1, rng), random_bump(e1, rng)
    sampler = BallSampler(dim=1, count=12, r_min=0.25, r_max=4.0)
    report = leibniz_test(
        e1, f, g, W1(e1), W1(e1), W1(e1), _leibniz_system(), 1.0, 1.0, 1.0,
        sampler, small_scheme,
    )
    assert math.isfinite(report.ratio)
    assert len(report.terms) == 3


def test_leibniz_one_morrey_call_per_slot(e1, small_scheme, count_calls):
    # k = 2 on R^1: 3 tuples, but one Campanato call and one Morrey call per
    # slot, and one lp_norm_ball call per (slot, ball)
    op_id = lambda *args, **kw: kw["op_id"]
    calls = {
        "campanato": count_calls(spaces, "campanato_norm", op_id),
        "morrey": count_calls(spaces, "morrey_norm", op_id),
        "lp": count_calls(spaces, "lp_norm_ball"),
    }
    rng = stream(9, "leibniz")
    f, g = random_bump(e1, rng), random_bump(e1, rng)
    sampler = BallSampler(dim=1, count=5, r_min=0.25, r_max=4.0)
    report = leibniz_test(
        e1, f, g, W1(e1), W1(e1), W1(e1), _leibniz_system(), 1.0, 1.0, 1.0,
        sampler, small_scheme, op_id="lz",
    )
    assert calls["campanato"] == ["lz/lhs"]
    assert calls["morrey"] == ["lz/f", "lz/g"]
    assert len(calls["lp"]) == 2 * sampler.count
    assert len(report.terms) == 3


def test_leibniz_rhs_error_is_sum_of_term_errors(e1, small_scheme):
    # the terms share each slot's nodes, so the rhs error is the triangle-
    # inequality bound: the sum of the terms' errors, never below their RSS
    rng = stream(9, "leibniz")
    f, g = random_bump(e1, rng), random_bump(e1, rng)
    sampler = BallSampler(dim=1, count=6, r_min=0.25, r_max=4.0)
    report = leibniz_test(
        e1, f, g, W1(e1), W1(e1), W1(e1), _leibniz_system(), 1.0, 1.0, 1.0,
        sampler, small_scheme,
    )
    errors = [t["std_error"] for t in report.terms]
    assert report.rhs.std_error == sum(errors)
    assert report.rhs.std_error >= math.sqrt(sum(e**2 for e in errors))
    assert report.rhs.value == sum(t["value"] for t in report.terms)
    assert "upper bound" in report.rhs.note

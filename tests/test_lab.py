import math
import tracemalloc

import numpy as np
import pytest

from bruteforce_helpers import (
    DEAD_BALL_GROUPS,
    ListedBalls,
    Spiky,
    all_lines_brute_force,
    best_value_system,
    dilated_bump,
    exact_l1_value,
    gauss_second_derivative_lp,
    holder_lower_bound,
    mpmath_ramp_integrals,
    newton_dual_lower_bound,
    support_mix,
    three_piece_nodes,
)
from carnotlab import quad
from carnotlab.carnot import (
    GaugeBall,
    GaugeBump,
    HomogeneousPolynomial,
    ProductFunction,
    ball_box,
    ball_volume,
    horizontal_derivative,
    monomial_basis,
    random_bump,
)
from carnotlab.errors import (
    ConditioningError,
    DomainError,
    HypothesisError,
    IntegrationError,
    ValidationError,
)
from carnotlab.lab import (
    BallPolynomial,
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
from carnotlab.lab import bestpoly, counterexample, inequalities, spaces, sweeps
from carnotlab.lab.bestpoly import (
    _l1_descent,
    _newton,
    _objective,
    _support_objective,
    _weighted_lstsq,
)
from carnotlab.lab.reports import VIOLATION_FLAG, trial_report
from carnotlab.lab.sweeps import leibniz_sweep
from carnotlab.operators import derivative_tuples, jet_rows, multilinear_fractional_integral
from carnotlab.quad import Estimate, QuadratureScheme, sample_ball
from carnotlab.rng import stream
from carnotlab.weights import BallSampler, ExponentSystem, Weight

W1 = Weight.one


# -- best_polynomial -----------------------------------------------------------


def test_best_poly_recovers_polynomial(e1, h1):
    for group, k in ((e1, 2), (h1, 2), (h1, 3)):
        rng = stream(1, f"recover/{group.ident}/{k}")
        target = HomogeneousPolynomial(
            group, {alpha: rng.normal() for alpha in monomial_basis(group, k)}
        )
        ball = GaugeBall(rng.uniform(-0.5, 0.5, group.n), 1.2)
        poly, value = best_polynomial(
            group, target, W1(group), 2.0, ball, k, QuadratureScheme(samples=4000, seed=3)
        )
        assert value.value < 1e-8
        pts = sample_ball(group, ball, 256, stream(2, f"recover/{group.ident}/{k}"))
        np.testing.assert_allclose(poly(pts), target(pts), rtol=0.0, atol=1e-8)


def test_best_poly_constant_q2(e1):
    # best constant for F = x on (-1, 1) in L^2 is 0 with value sqrt(2/3)
    F = HomogeneousPolynomial(e1, {(1,): 1.0})
    ball = GaugeBall([0.0], 1.0)
    poly, value = best_polynomial(
        e1, F, W1(e1), 2.0, ball, 1, QuadratureScheme(samples=120000, seed=5)
    )
    assert abs(poly.coeffs[0]) < 0.02
    assert value.value == pytest.approx(math.sqrt(2.0 / 3.0), rel=0.01)


def test_best_poly_constant_q1_median(e1):
    # L^1 best constant is the median 0 and the value is int |x| dx = 1
    F = HomogeneousPolynomial(e1, {(1,): 1.0})
    ball = GaugeBall([0.0], 1.0)
    poly, value = best_polynomial(
        e1, F, W1(e1), 1.0, ball, 1, QuadratureScheme(samples=120000, seed=7)
    )
    assert abs(poly.coeffs[0]) < 0.02
    assert value.value == pytest.approx(1.0, rel=0.01)
    assert value.note == "l1-vertex-certified"


@pytest.mark.parametrize("q", [1.0, 2.0])
def test_best_poly_brute_force_equivalence(e1, q):
    # the solver against the exact optimum on the same nodes
    from bruteforce_helpers import exact_best_value

    rng = stream(2, f"brute/{q}")
    scheme = QuadratureScheme(samples=2000, seed=13)
    for case in range(4):
        k = 1 + case % 2
        ball = GaugeBall([float(rng.uniform(-1, 1))], float(rng.uniform(0.5, 1.5)))
        bump = random_bump(e1, rng, center_box=1.0, radius_range=(0.5, 2.0))
        op_id = f"brute/{q}/{case}"
        _, value = best_polynomial(e1, bump, W1(e1), q, ball, k, scheme, op_id=op_id)
        exact = exact_best_value(e1, bump, W1(e1), q, ball, k, scheme, op_id)
        assert value.value == pytest.approx(exact, rel=1e-3, abs=1e-9)


def _shifted(poly, delta):
    """The fit with `delta` added to its centred coefficients."""
    return BallPolynomial(poly.group, poly.ball, poly.basis, poly.coeffs + delta)


def test_best_poly_optimality_probes(e1):
    # no random perturbation of the minimizer may do better (q >= 1)
    rng = stream(3, "probes")
    bump = GaugeBump(e1, [0.2], 1.5)
    ball = GaugeBall([0.0], 1.0)
    scheme = QuadratureScheme(samples=4000, seed=17)
    for q in (1.0, 2.0):
        poly, value = best_polynomial(e1, bump, W1(e1), q, ball, 2, scheme, op_id=f"probe{q}")
        for _ in range(100):
            probe = evaluate_candidate(
                e1, bump, W1(e1), q, ball, scheme, _shifted(poly, rng.normal(size=2) * 0.1),
                op_id=f"probe{q}",
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
        shifted = _shifted(poly, rng.normal() * 0.05)
        probe = evaluate_candidate(e1, bump, W1(e1), q, ball, scheme, shifted, op_id="qlow")
        if probe < value.value:
            # re-descend from the probe and require no real improvement
            c0 = shifted.coeffs[0]
            res = minimize_scalar(
                lambda c: evaluate_candidate(
                    e1, bump, W1(e1), q, ball, scheme,
                    BallPolynomial(e1, ball, poly.basis, np.array([c])), op_id="qlow",
                ),
                bracket=(c0 - 0.1, c0, c0 + 0.1),
            )
            assert res.fun >= value.value - 3.0 * value.std_error - 1e-10


def test_weighted_lstsq_rank_deficiency():
    A = np.column_stack([np.ones(50), np.ones(50)])  # duplicated column
    with pytest.raises(ConditioningError):
        _weighted_lstsq(A[None], np.ones((1, 50)), np.ones((1, 50)))
    # one deficient ball in a stack fails the stack
    x = np.linspace(-1.0, 1.0, 50)
    stack = np.array([np.column_stack([np.ones(50), x]), A, np.column_stack([np.ones(50), x**2])])
    with pytest.raises(ConditioningError, match="rank 1 < 2"):
        _weighted_lstsq(stack, np.ones((3, 50)), np.ones((3, 50)))


def _one_ball_lstsq(A, y, lam):
    """The column-scaled weighted least squares of one (N, d) ball, with
    numpy's per-matrix column norms: the reference that the stacked solver
    matches bit for bit."""
    sq = np.sqrt(lam)
    scaled = A * sq[:, None]
    col = np.linalg.norm(scaled, axis=0)
    col[col == 0.0] = 1.0
    return np.linalg.lstsq(scaled / col, y * sq, rcond=None)[0] / col


@pytest.mark.parametrize("n", [50, 2048, 4096, 12000])
@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_weighted_lstsq_stack_matches_one_ball_calls_bit_for_bit(d, n):
    # the column norms, the scaling and the solution of a (B, N, d) stack
    # equal the one-ball computation on each ball, over 30 random stacks
    # with columns of wildly different scales and a zero column
    rng = stream(6, f"lstsq-stack/{d}/{n}")
    for _ in range(30):
        B = int(rng.integers(1, 6))
        A = rng.standard_normal((B, n, d)) * np.exp(rng.uniform(-20.0, 20.0, (B, 1, d)))
        lam = rng.uniform(0.0, 2.0, (B, n)) * np.exp(rng.uniform(-10.0, 10.0, (B, 1)))
        y = rng.standard_normal((B, n))
        scaled = A * np.sqrt(lam)[..., None]
        norms = bestpoly._column_norms(np.ascontiguousarray(scaled.transpose(1, 0, 2)))
        assert norms.tobytes() == np.array([np.linalg.norm(s, axis=0) for s in scaled]).tobytes()
        if d > 1:
            A[0, :, -1] = 0.0  # a zero column scales by 1, and is then rank-deficient
            with pytest.raises(ConditioningError):
                _weighted_lstsq(A, y, lam)
            A[0, :, -1] = rng.standard_normal(n)
        want = np.array([_one_ball_lstsq(*ball) for ball in zip(A, y, lam)])
        assert _weighted_lstsq(A, y, lam).tobytes() == want.tobytes()


@pytest.mark.parametrize("q", [2.0, 1.0, 1.5, 0.8])
@pytest.mark.parametrize("gid", sorted(DEAD_BALL_GROUPS))
def test_best_polynomial_dead_balls_match_the_full_path(gid, q, count_calls):
    # a ball whose box misses the product's (the intersection of its
    # factors' boxes) draws no nodes and makes no L^2 start; every ball's
    # Estimate and fit values equal the full path's through a plain callable
    # that declares no support, whose solver gives a dead ball the zero
    # polynomial and its regime's note
    group = DEAD_BALL_GROUPS[gid]
    _, product, balls, _, dead = support_mix(group)
    scheme = QuadratureScheme(samples=1024, seed=31)
    u = Weight.power(group, 0.25)
    solves = count_calls(np.linalg, "lstsq")
    drawn = count_calls(quad, "stream", lambda seed, op_id, index=0: op_id)
    got = best_polynomial(group, product, u, q, balls, 2, scheme, op_id="dead")
    assert sorted(set(drawn)) == [f"dead/b{b}" for b in range(len(balls)) if b not in dead]
    assert len(solves) == len(balls) - len(dead)
    want = best_polynomial(group, lambda p: product(p), u, q, balls, 2, scheme, op_id="dead")
    note = {2.0: "least-squares", 1.0: "l1-vertex-certified", 1.5: "newton-certified",
            0.8: "upper-bound"}[q]
    for b, ((fit, est), (fit_full, est_full)) in enumerate(zip(got, want, strict=True)):
        assert est.to_dict() == est_full.to_dict()
        pts = sample_ball(group, balls[b], 64, stream(3, f"dead-fit/{b}"))
        assert np.array_equal(fit(pts), fit_full(pts))
        if b in dead:
            assert est.value == 0.0 and est.note == note and not np.any(fit.coeffs)
    drawn.clear()
    fit, est = best_polynomial(group, product, u, q, balls[0], 2, scheme, op_id="dead/b0")
    assert drawn == [] and est.to_dict() == want[0][1].to_dict()


def test_best_polynomial_dead_ball_ignores_an_infinite_weight(e1):
    # u = inf everywhere: a dead ball evaluates neither F nor u, 0 * inf = 0;
    # a live ball still refuses it
    F = GaugeBump(e1, [0.0], 1.0)
    u = lambda p: np.full(p.shape[0], np.inf)
    scheme = QuadratureScheme(samples=1024, seed=3)
    _, est = best_polynomial(e1, F, u, 1.0, GaugeBall([3.0], 1.0), 2, scheme)
    assert est.value == 0.0 and est.samples == 1024
    with pytest.raises(IntegrationError, match="non-finite integrand value inf"):
        best_polynomial(e1, F, u, 1.0, [GaugeBall([3.0], 1.0), GaugeBall([0.5], 1.0)], 2, scheme)


@pytest.mark.parametrize("gid", sorted(DEAD_BALL_GROUPS))
def test_best_polynomial_nan_on_a_live_ball_raises_at_its_node(gid):
    group = DEAD_BALL_GROUPS[gid]
    bump, _, balls, _, _ = support_mix(group)
    spiky = Spiky(bump)
    scheme = QuadratureScheme(samples=1024, seed=29)
    with pytest.raises(IntegrationError) as declared:
        best_polynomial(group, spiky, W1(group), 1.0, balls, 2, scheme)
    with pytest.raises(IntegrationError) as plain:
        best_polynomial(group, lambda p: spiky(p), W1(group), 1.0, balls, 2, scheme)
    assert np.array_equal(declared.value.point, plain.value.point)
    assert balls[3].contains(group, declared.value.point[None])[0]


def test_best_poly_validation(e1):
    with pytest.raises(DomainError):
        best_polynomial(
            e1, lambda p: p[:, 0], W1(e1), 2.0, GaugeBall([0.0], 1.0), 0,
            QuadratureScheme(samples=2000),
        )


def test_an_empty_ball_list_gives_an_empty_result(e1):
    # the list estimators and best_polynomial return [] for no balls
    scheme = QuadratureScheme(samples=1024, seed=3)
    F = GaugeBump(e1, [0.0], 1.0)
    assert sample_ball(e1, [], 16, []).shape == (0, 1)
    assert quad.integrate_ball(e1, F, [], scheme) == []
    assert quad.lp_norm_ball(e1, F, W1(e1), 2.0, [], scheme) == []
    assert best_polynomial(e1, F, W1(e1), 2.0, [], 2, scheme) == []


@pytest.mark.parametrize("gid", ["e1", "h1"])
def test_best_poly_fit_stays_accurate_far_from_the_origin(request, gid):
    # F = P0(zeta(y)) in the centred coordinates of B(c, r): on fresh points
    # the q = 2 fit matches F to 1e-13 of max |F| up to |c| / r = 3000, where
    # a fit expanded into raw coordinates in y loses up to 1e-9 to cancellation
    group = request.getfixturevalue(gid)
    rng = stream(7, f"centred-fit/{gid}")
    target = HomogeneousPolynomial(group, {a: rng.normal() for a in monomial_basis(group, 3)})

    def centred(ball):
        inv = group.inverse(ball.center)
        return lambda y: target(group.dilate(1.0 / ball.radius, group.compose(inv, y)))

    for ratio in (1.0, 30.0, 3000.0):
        direction = rng.normal(size=group.n)
        center = group.dilate(0.5 * ratio / group.gauge_norm(direction), direction)
        ball = GaugeBall(center, 0.5)
        F = centred(ball)
        poly, _ = best_polynomial(
            group, F, W1(group), 2.0, ball, 3, QuadratureScheme(samples=2048, seed=5),
            op_id=f"centred/{ratio}",
        )
        pts = sample_ball(group, ball, 512, stream(8, f"centred-fit/{gid}/{ratio}"))
        want = F(pts)
        np.testing.assert_allclose(poly(pts), want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))
        assert np.ndim(poly(pts[0])) == 0 and poly(pts[0]) == pytest.approx(poly(pts)[0])


@pytest.mark.parametrize("q", [1.0, 2.0])
def test_best_poly_expands_no_polynomial(h1, count_calls, q):
    # the fits stay in their balls' centred coordinates: no symbolic algebra
    balls = BallSampler(dim=h1.n, count=4, r_min=0.4, r_max=1.5).generate(7)
    made = count_calls(HomogeneousPolynomial, "__init__")
    fits = best_polynomial(
        h1, lambda p: np.cos(p[:, 0]) * np.exp(p[:, 2]), W1(h1), q, balls, 3,
        QuadratureScheme(samples=1024, seed=3),
    )
    assert len(fits) == len(balls) and made == []


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_best_poly_non_finite_values_raise(e1, q, bad):
    # every exponent regime refuses a non-finite F or u before any solve
    def spike(p):
        return np.where(p[:, 0] > 0.5, bad, 1.0)

    scheme = QuadratureScheme(samples=1024, seed=3)
    for F, u in ((spike, W1(e1)), (lambda p: p[:, 0], spike)):
        with pytest.raises(IntegrationError, match="non-finite integrand value") as info:
            best_polynomial(e1, F, u, q, GaugeBall([0.0], 1.0), 2, scheme)
        assert info.value.point[0] > 0.5


def test_evaluate_candidate_refuses_an_overflowing_weight(e1):
    # u = d^-400 is inf near the centre; best_polynomial refuses the same nodes
    args = (GaugeBump(e1, [0.0], 1.0), Weight.power(e1, -400.0), 2.0, GaugeBall([0.0], 1.0))
    scheme = QuadratureScheme(samples=1024, seed=3)
    with pytest.raises(IntegrationError, match="non-finite integrand value inf"):
        evaluate_candidate(e1, *args, scheme, HomogeneousPolynomial.zero(e1))
    with pytest.raises(IntegrationError, match="non-finite integrand value inf"):
        best_polynomial(e1, *args, 2, scheme)


def test_evaluate_candidate_refuses_nan_on_part_of_the_ball(e1):
    def F(p):
        return np.where(p[:, 0] > 0.5, np.nan, 1.0)

    with pytest.raises(IntegrationError, match="non-finite integrand value nan") as info:
        evaluate_candidate(
            e1, F, W1(e1), 1.0, GaugeBall([0.0], 1.0), QuadratureScheme(samples=1024, seed=3),
            HomogeneousPolynomial.constant(e1, 1.0),
        )
    assert info.value.point[0] > 0.5


def test_evaluate_candidate_draws_a_ball_off_the_support(e1):
    # no dead-ball rule applies to a candidate: F is 0 on B((5), 1), so the
    # value is ||2||_{L^2(B)} = 2 sqrt(|B|) = 2 sqrt(2)
    value = evaluate_candidate(
        e1, GaugeBump(e1, [0.0], 0.5), W1(e1), 2.0, GaugeBall([5.0], 1.0),
        QuadratureScheme(samples=2048, seed=0), HomogeneousPolynomial.constant(e1, 2.0),
    )
    assert abs(value - 2.0 * math.sqrt(2.0)) <= 1e-14


@pytest.mark.parametrize(
    "group_name, q, k",
    [("e1", 1.2, 2), ("h1", 1.5, 2), ("e1", 3.0, 1), ("h1", 20.0, 2), ("e1", 25.0, 2)],
)
def test_newton_value_meets_an_independent_dual_bound(request, group_name, q, k):
    # the value is within 1e-9 of a lower bound on the minimum (up to its
    # rounding), built here from the returned polynomial's residuals alone
    group = request.getfixturevalue(group_name)
    args = (group, GaugeBump(group, np.full(group.n, 0.1), 1.2), Weight.power(group, 0.5), q,
            GaugeBall(np.full(group.n, 0.3), 0.8), k, QuadratureScheme(samples=2048, seed=1234))
    poly, est = best_polynomial(*args, op_id="dual")
    assert (est.note, est.flagged) == ("newton-certified", False)
    assert est.to_dict()["note"] == est.note
    lower = holder_lower_bound(*args, "dual", poly)
    assert -1e-12 * est.value <= est.value - lower <= 1e-9 * est.value


@pytest.mark.parametrize("gid, bump, center", [
    ("e1", [0.1], [0.3]),
    ("h1", [0.1, 0.0, 0.0], [0.3, 0.1, 0.0]),
])
def test_newton_certifies_a_near_exact_fit_by_its_step_dual_point(request, gid, bump, center):
    # at r = 0.01 and q = 25 the fit is near exact: the orthogonally projected
    # dual point leaves a gap above 1e-9 at rounding level, and the halved
    # step fails; the dual point of that step's normal equations closes it
    group = request.getfixturevalue(gid)
    args = (group, GaugeBump(group, bump, 1.2), Weight.power(group, 0.5), 25.0,
            GaugeBall(center, 0.01), 2, QuadratureScheme(samples=2048, seed=0))
    poly, est = best_polynomial(*args, op_id="near-exact")
    assert (est.note, est.flagged) == ("newton-certified", False)
    assert est.value - holder_lower_bound(*args, "near-exact", poly) > 1e-9 * est.value
    lower = newton_dual_lower_bound(*args, "near-exact", poly)
    assert -1e-12 * est.value <= est.value - lower <= 1e-9 * est.value


@pytest.mark.parametrize("q", [1.5, 20.0])
def test_newton_ends_on_a_stall_without_a_certificate(e1, monkeypatch, q):
    # with no gap small enough, every ball ends once a halved step no longer
    # lowers its objective strictly: the loop needs no iteration cap
    monkeypatch.setattr(bestpoly, "_GAP_TOL", 0.0)
    balls = BallSampler(dim=1, count=4, r_min=0.3, r_max=2.0).generate(5)
    fits = best_polynomial(
        e1, GaugeBump(e1, [0.1], 1.2), W1(e1), q, balls, 2, QuadratureScheme(samples=2048, seed=1)
    )
    assert [(est.note, est.flagged) for _, est in fits] == [("newton-stalled", True)] * len(balls)


def _assert_same_fit(got, want):
    (poly, est), (poly_1, est_1) = got, want
    assert est.value == pytest.approx(est_1.value, rel=1e-12, abs=1e-300)
    assert est.std_error == pytest.approx(est_1.std_error, rel=1e-12, abs=1e-300)
    assert (est.note, est.samples) == (est_1.note, est_1.samples)
    np.testing.assert_allclose(poly.coeffs, poly_1.coeffs, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "scheme",
    [QuadratureScheme(samples=1024, seed=31)],
    ids=["uniform"],
)
@pytest.mark.parametrize("q", [0.8, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("group_name", ["e1", "h1"])
def test_best_poly_ball_list_matches_single_balls(request, group_name, q, scheme):
    # ball b of a list call is the single-ball call under f"{op_id}/b{b}"
    group = request.getfixturevalue(group_name)
    bump = GaugeBump(group, np.full(group.n, 0.1), 1.2)
    u = Weight.power(group, 0.5)
    balls = BallSampler(dim=group.n, count=4, r_min=0.4, r_max=1.5).generate(7)
    fits = best_polynomial(group, bump, u, q, balls, 2, scheme, op_id="list")
    assert len(fits) == len(balls)
    for b, ball in enumerate(balls):
        single = best_polynomial(group, bump, u, q, ball, 2, scheme, op_id=f"list/b{b}")
        _assert_same_fit(fits[b], single)


@pytest.mark.parametrize("c", [1.0, 1.7])
@pytest.mark.parametrize("q", [2.0, 1.0, 1.5, 0.8])
def test_best_polynomial_constant_weight_matches_the_general_path(e1, count_calls, q, c):
    # a constant Weight is the number c and is never called; the fits,
    # their Estimates and evaluate_candidate equal those of the same
    # constant as a plain callable, evaluated node by node, bit for bit
    scheme = QuadratureScheme(samples=2048, seed=45)
    bump = GaugeBump(e1, [0.2], 0.8, height=1.3)
    # two live balls and one that misses the bump's support
    balls = [GaugeBall([0.0], 1.0), GaugeBall([3.0], 0.5), GaugeBall([0.5], 0.6)]
    weighed = count_calls(Weight, "power_rows")
    u, plain = Weight.const(e1, c), lambda pts: np.full(len(pts), c)
    fast = best_polynomial(e1, bump, u, q, balls, 2, scheme, op_id="const")
    general = best_polynomial(e1, bump, plain, q, balls, 2, scheme, op_id="const")
    for (poly, est), (poly_1, est_1) in zip(fast, general):
        np.testing.assert_array_equal(poly.coeffs, poly_1.coeffs)
        assert est.to_dict() == est_1.to_dict()
    shifted = BallPolynomial(e1, balls[2], fast[2][0].basis, fast[2][0].coeffs + 0.1)
    probes = [
        evaluate_candidate(e1, bump, w, q, balls[2], scheme, shifted, op_id="const/b2")
        for w in (u, plain)
    ]
    assert probes[0] == probes[1] >= fast[2][1].value
    assert weighed == []


# best_polynomial on one 4-ball uniform list, bit for bit: per ball the
# value, its standard error and the centred coefficients in basis order
_BEST_POLY_PINS = {
    ("e1", 0.8): [
        ("0x1.9db00e6eda736p-2", "0x1.7c8b1b4ba0907p-7",
         "0x1.726ce99963d93p-1", "-0x1.37c16b402c277p-2"),
        ("0x1.00c444897b77ep-5", "0x1.69aafe745a34dp-11",
         "0x1.72461b3e8f8dep-1", "0x1.1ebd0569a0a44p-1"),
        ("0x1.e8f8c86b13b71p-4", "0x1.ed2290bc0d0c3p-9",
         "0x1.800342965b1b9p-2", "0x1.44760c247b65cp-1"),
        ("0x1.35d6b964af65cp-4", "0x1.ef8aefbfdf0dep-10",
         "0x1.4982acdbff64ep-1", "0x1.879e239613242p-1"),
    ],
    ("e1", 1.0): [
        ("0x1.6da0843ca99ebp-2", "0x1.1a574ba3ab55cp-7",
         "0x1.53af6e2a3d686p-1", "-0x1.3ce7ea1702858p-2"),
        ("0x1.0dba9bb1bcf63p-5", "0x1.213676a79fa9ep-11",
         "0x1.6f8d21ba3344fp-1", "0x1.2a8a5489edceep-1"),
        ("0x1.f1d7e2df49568p-4", "0x1.bc0aeb6cfecf9p-9",
         "0x1.784fe51eb4445p-2", "0x1.3c113e88f1e9bp-1"),
        ("0x1.2c5488b9584d6p-4", "0x1.cb1611aa0a229p-10",
         "0x1.46c3e1cdbe474p-1", "0x1.87062c4a6249bp-1"),
    ],
    ("e1", 1.5): [
        ("0x1.3e1ed44ede64cp-2", "0x1.8a72ad56ad207p-8",
         "0x1.34aec41c183bbp-1", "-0x1.2caa6933f6bb3p-2"),
        ("0x1.24f2f98ce2935p-5", "0x1.01ed99f93f03fp-11",
         "0x1.6e0a488232007p-1", "0x1.2cbd42bec5057p-1"),
        ("0x1.027632083601ap-3", "0x1.487ae1304b19fp-9",
         "0x1.5efa3166625e2p-2", "0x1.1c80ae0d818eap-1"),
        ("0x1.2c2ef020b78e1p-4", "0x1.9912d76ab3aecp-10",
         "0x1.403cfa286881ep-1", "0x1.806c87f22878fp-1"),
    ],
    ("e1", 2.0): [
        ("0x1.2e028429b16ffp-2", "0x1.3e99eca92b053p-8",
         "0x1.22f03fc222276p-1", "-0x1.1784304b27506p-2"),
        ("0x1.356d2041c5215p-5", "0x1.ce42dc9279813p-12",
         "0x1.6cdbd8170c68ap-1", "0x1.2ddd4a71868b7p-1"),
        ("0x1.084ac4eb0e05ep-3", "0x1.09eeaa9ffb7b5p-9",
         "0x1.4f15ad24b0e07p-2", "0x1.0985ec16edbb1p-1"),
        ("0x1.34b055f51d32ap-4", "0x1.717bab22125c4p-10",
         "0x1.3a6e84d45c29bp-1", "0x1.795e6f6a38a5dp-1"),
    ],
    ("h1", 0.8): [
        ("0x1.6a00c762f4ab6p-7", "0x1.0372e81cad7e1p-12",
         "0x1.86666c3730bebp-1", "-0x1.ddb187268430dp-4", "-0x1.c432c81ee4fdep-4"),
        ("0x1.854fc3e4850f5p-3", "0x1.255b8b65d982ep-8",
         "0x1.65426b3c65b2cp-3", "0x1.84f65c9ddc5eap-2", "0x1.f91fa2538dda8p-5"),
        ("0x1.238aa44b8285bp-2", "0x1.6481e3c67654ep-8",
         "0x1.bcb0b12a7af6dp-2", "-0x1.3509a7b7dc12dp-3", "0x1.390de040b9836p-4"),
        ("0x1.8577636dc6fb5p-7", "0x1.13c9edf3ad8afp-12",
         "0x1.3e0c3fbc22e96p-1", "-0x1.22e3b262dd314p-1", "0x1.f8498116c85a5p-5"),
    ],
    ("h1", 1.0): [
        ("0x1.0aefb5c952488p-6", "0x1.667b4c9a318aap-12",
         "0x1.84c81aad976f0p-1", "-0x1.cf98d93d6be0ap-4", "-0x1.c123ea38b1c0cp-4"),
        ("0x1.80b078b01752ap-3", "0x1.0106eed085ae4p-8",
         "0x1.8a7354378dc34p-3", "0x1.afed356445b42p-2", "0x1.0f6b4b3f4db44p-4"),
        ("0x1.20f7002841d35p-2", "0x1.43f25d1c3c023p-8",
         "0x1.b328ea0ecf3f4p-2", "-0x1.2b40a4d0e7728p-3", "0x1.9181d3985f530p-4"),
        ("0x1.2c69c8a786c5bp-6", "0x1.8f37a4940b853p-12",
         "0x1.3d7bdb68d98e2p-1", "-0x1.2731afbcf5731p-1", "0x1.0e083255947cap-4"),
    ],
    ("h1", 1.5): [
        ("0x1.cfad293ec4b1ap-6", "0x1.17664727d803ap-11",
         "0x1.82e8f989fc504p-1", "-0x1.ca808f018aa74p-4", "-0x1.b750a520a1f56p-4"),
        ("0x1.85edddf0c6512p-3", "0x1.c362a36858ec4p-9",
         "0x1.a06e8ab3c5e4dp-3", "0x1.c9330a60a2130p-2", "0x1.0ac4fa07515a4p-4"),
        ("0x1.23f43bcbc4e39p-2", "0x1.125b7b7cf3141p-8",
         "0x1.a2e9b8ec00255p-2", "-0x1.f9e1334e1dcc3p-4", "0x1.66d8f6d14ecb8p-4"),
        ("0x1.14ec0d0355e06p-5", "0x1.47ead68c795acp-11",
         "0x1.3bdae4e923c5cp-1", "-0x1.2843b87d527adp-1", "0x1.f07fb3e99e8cap-5"),
    ],
    ("h1", 2.0): [
        ("0x1.3a0f5e3e5f3bbp-5", "0x1.6061d40d1ba0cp-11",
         "0x1.81a3bb4c5cde9p-1", "-0x1.cc9f53d456df8p-4", "-0x1.b6fd3199ec5f1p-4"),
        ("0x1.925c7a74cbcdap-3", "0x1.a8d9e0dc2efb5p-9",
         "0x1.aa5edf9e4375fp-3", "0x1.d26a154a0901dp-2", "0x1.02433cfe19f36p-4"),
        ("0x1.2a4521255b7fdp-2", "0x1.ea34029fdc188p-9",
         "0x1.98f28d9c55af4p-2", "-0x1.b6346dc10db2ap-4", "0x1.4ea85154d906fp-4"),
        ("0x1.823c4f421c740p-5", "0x1.a69c6d7ed4ee5p-11",
         "0x1.3b4c634174167p-1", "-0x1.27ab0ffa558e4p-1", "0x1.cfcef62fa2bf0p-5"),
    ],
}


@pytest.mark.parametrize("group_id, q", sorted(_BEST_POLY_PINS))
def test_best_poly_ball_list_pinned(request, group_id, q):
    group = request.getfixturevalue(group_id)
    bump = GaugeBump(group, np.full(group.n, 0.1), 1.2)
    balls = BallSampler(dim=group.n, count=4, r_min=0.4, r_max=1.5).generate(7)
    scheme = QuadratureScheme(samples=1024, seed=31)
    fits = best_polynomial(
        group, bump, Weight.power(group, 0.5), q, balls, 2, scheme, op_id="pin"
    )
    got = [
        (est.value.hex(), est.std_error.hex(), *(c.hex() for c in poly.coeffs))
        for poly, est in fits
    ]
    assert got == _BEST_POLY_PINS[group_id, q]


def _stack_with_dead_rows(systems, rng):
    """Systems (A, y, w, start) of unequal length in one stack, each ball's
    rows scattered among zero rows of weight 0, as the degenerate-vertex
    sub-problem's rows off the zero set sit between its zero nodes."""
    width = max(len(y) for _, y, _, _ in systems) + 200
    A = np.zeros((len(systems), width, systems[0][0].shape[1]))
    y, w = np.zeros((2, len(systems), width))
    for b, (A_b, y_b, w_b, _) in enumerate(systems):
        rows = np.sort(rng.choice(width, len(y_b), replace=False))
        A[b, rows], y[b, rows], w[b, rows] = A_b, y_b, w_b
    return A, y, w, np.array([start for *_, start in systems])


@pytest.mark.parametrize("q", [1.5])
def test_newton_ignores_zero_rows_between_live_rows(q):
    # zero rows of weight 0 (as _degenerate_directions hands the L^1
    # descent) between and after a ball's rows change neither its
    # coefficients nor its note
    rng = stream(4, "newton-dead-rows")
    systems = []
    for n in (300, 517, 1024):
        x = rng.uniform(-1.0, 1.0, n)
        A = np.column_stack([np.ones(n), x])
        y = np.cos(3.0 * x) + 0.1 * rng.normal(size=n)
        wq = np.full(n, 2.0 / n)
        systems.append((A, y, wq, _weighted_lstsq(A[None], y[None], wq[None])[0]))
    together, notes = _newton(*_stack_with_dead_rows(systems, rng), q)
    for (A, y, wq, start), c, note in zip(systems, together, notes):
        alone, (note_1,) = _newton(A[None], y[None], wq[None], start[None], q)
        np.testing.assert_allclose(c, alone[0], rtol=1e-12, atol=1e-14)
        assert note == note_1 == "newton-certified"


@pytest.mark.parametrize("q", [1.0, 1.5])
@pytest.mark.parametrize(
    "scheme",
    [QuadratureScheme(samples=1024, seed=5)],
    ids=["uniform"],
)
def test_best_poly_node_pass_bound_does_not_change_values(e1, monkeypatch, scheme, q):
    # the balls' nodes drawn, fitted and estimated one ball per pass or all
    # in one pass: the same numbers, bit for bit
    bump = GaugeBump(e1, [0.0], 1.0)
    balls = BallSampler(dim=1, count=5, r_min=0.25, r_max=4.0).generate(3)
    out = []
    for bound in (1, 1 << 40):
        monkeypatch.setattr(quad, "_PASS", bound)
        fits = best_polynomial(e1, bump, W1(e1), q, balls, 2, scheme, op_id="pass")
        out.append([(est.to_dict(), poly.coeffs.tolist()) for poly, est in fits])
    assert out[0] == out[1]
    note = {1.0: "l1-vertex-certified", 1.5: "newton-certified"}[q]
    assert {est["note"] for est, _ in out[0]} == {note}


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
def test_best_poly_peak_memory_is_one_pass(h1, monkeypatch, q):
    # with passes of 4 balls' nodes, 64 balls peak (tracemalloc) at no more
    # than twice what 4 balls do: one pass is live at a time
    scheme = QuadratureScheme(samples=1024, seed=3)
    monkeypatch.setattr(quad, "_PASS", 4 * scheme.samples)
    bump = GaugeBump(h1, np.zeros(3), 4.0)
    balls = BallSampler(dim=3, count=64, r_min=0.25, r_max=1.0).generate(5)
    best_polynomial(h1, bump, W1(h1), q, balls[:4], 2, scheme, op_id="warm")
    peaks = []
    for count in (4, 64):
        tracemalloc.start()
        try:
            best_polynomial(h1, bump, W1(h1), q, balls[:count], 2, scheme, op_id="peak")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.0 * peaks[0], peaks


# q = 1 cases: (group, k, F on the unit ball about the origin)
_VANISHING = {"e1": (0.5, 0.35), "h1": (0.3, 0.7)}  # bump (center, radius): F = 0 on >= 60%


def _q1_function(group, gid, k, case):
    if case == "polynomial":
        rng = stream(6, f"q1-poly/{gid}/{k}")
        return HomogeneousPolynomial(group, {a: rng.normal() for a in monomial_basis(group, k)})
    if case == "vanishing":
        center, radius = _VANISHING[gid]
        return GaugeBump(group, np.full(group.n, center), radius)
    return GaugeBump(group, np.full(group.n, 0.3), 1.2, 1.5)


@pytest.mark.parametrize("case", ["bump", "vanishing", "polynomial", "ball-list"])
@pytest.mark.parametrize("gid,k", [("e1", 1), ("e1", 2), ("h1", 2)])
def test_best_poly_q1_is_the_exact_minimum(request, gid, k, case):
    # every q = 1 solve is certified and equals the LP optimum on its nodes
    group = request.getfixturevalue(gid)
    F = _q1_function(group, gid, k, case)
    scheme = QuadratureScheme(samples=2048, seed=41)
    if case == "ball-list":
        balls = BallSampler(dim=group.n, count=4, r_min=0.4, r_max=1.5).generate(9)
        fits = best_polynomial(group, F, W1(group), 1.0, balls, k, scheme, op_id="q1")
        ids = [f"q1/b{b}" for b in range(len(balls))]
    else:
        balls = [GaugeBall(np.zeros(group.n), 1.0)]
        fits = [best_polynomial(group, F, W1(group), 1.0, balls[0], k, scheme, op_id="q1")]
        ids = ["q1"]
    for ball, (_, est), op_id in zip(balls, fits, ids):
        A, y, w = best_value_system(group, F, W1(group), 1.0, ball, k, scheme, op_id)
        if case == "vanishing":
            assert np.mean(y == 0.0) >= 0.6
        assert est.note == "l1-vertex-certified" and not est.flagged
        exact = exact_l1_value(A, y, w)
        assert est.value == pytest.approx(exact, rel=1e-12, abs=1e-13 * np.sum(w * np.abs(y)))
        if case == "polynomial":
            assert exact <= 1e-13 * np.sum(w * np.abs(y))


@pytest.mark.parametrize("c", [1e-10, 1e10])
@pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0])
def test_best_poly_scale_covariance(e1, q, c):
    # F -> cF scales the value by c in every exponent regime
    bump = GaugeBump(e1, [0.2], 1.3, 1.5)
    ball, scheme = GaugeBall([0.0], 1.0), QuadratureScheme(samples=1024, seed=23)
    _, base = best_polynomial(e1, bump, W1(e1), q, ball, 2, scheme, op_id="scale")
    _, scaled = best_polynomial(
        e1, lambda p: c * bump(p), W1(e1), q, ball, 2, scheme, op_id="scale"
    )
    assert scaled.value == pytest.approx(c * base.value, rel=1e-9, abs=0.0)
    if q >= 1.0:  # Nelder-Mead's success depends on its path, not on its value
        assert scaled.note == base.note


def test_nelder_mead_failure_is_labelled_and_flagged(e1, monkeypatch):
    # q < 1: a descent that reports no success is an unconverged upper bound;
    # the solver looks scipy.optimize.minimize up when it runs
    import scipy.optimize

    real = scipy.optimize.minimize

    def short(*args, **kwargs):
        return real(*args, **{**kwargs, "options": {**kwargs["options"], "maxiter": 2}})

    monkeypatch.setattr(scipy.optimize, "minimize", short)
    _, est = best_polynomial(
        e1, GaugeBump(e1, [0.1], 1.4), W1(e1), 0.5, GaugeBall([0.0], 1.0), 2,
        QuadratureScheme(samples=1024, seed=3),
    )
    assert est.note == "upper-bound-unconverged"
    assert est.flagged


def _zero_heavy_systems(d):
    """Seeded (A, y, node_w, q) with y = 0 on 50-95% of the nodes, as F = fg
    is on most nodes of a Poincare ball; A is the constant column for d = 1,
    else the constant and linear columns of x."""
    rng = stream(9, f"zero-heavy/{d}")
    for n in (50, 517, 4096):
        for frac in (0.5, 0.8, 0.95):
            x = rng.uniform(-1.0, 1.0, n)
            y = np.where(rng.random(n) < frac, 0.0, rng.normal(size=n) * np.exp(rng.normal(size=n)))
            A = np.column_stack([x**j for j in range(d)])
            yield A, y, np.full(n, rng.uniform(0.1, 5.0) / n), rng.uniform(0.2, 0.95)


@pytest.mark.parametrize("d, weight", [(1, "const"), (1, "rows"), (2, "const")])
def test_support_objective_is_the_reference_bit_for_bit(d, weight):
    # with k = 1 and a constant u the q-th power is taken on y's non-zero
    # nodes and one zero node only; at c = 0, at c = several y_j and at 200
    # random c, every case equals _objective bit for bit
    rng = stream(10, f"support-objective/{d}/{weight}")
    for A, y, node_w, q in _zero_heavy_systems(d):
        u = np.array([1.7]) if weight == "const" else rng.uniform(0.5, 2.0, len(y))
        objective = _support_objective(A, y, u, node_w, q)
        picks = y[rng.integers(0, len(y), 6)]
        cs = [np.zeros(d), *(np.full(d, v) for v in picks), *rng.normal(size=(200, d))]
        for c in cs:
            assert objective(c) == _objective(y - A @ c, u, node_w, q)


def test_q_below_one_k1_fit_on_an_h1_product_is_pinned(h1, count_calls, monkeypatch):
    # q = 0.8, k = 1 on a product of two H^1 bumps, which vanishes on 3-95%
    # of each ball's nodes: the coefficients, the Estimates and the number
    # of objective calls Nelder-Mead makes are those of the full objective,
    # and _objective itself is never called
    import scipy.optimize

    real, evaluations = scipy.optimize.minimize, []

    def counted(fun, x0, **kwargs):
        return real(lambda c: evaluations.append(1) or fun(c), x0, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", counted)
    reference = count_calls(bestpoly, "_objective")
    product = ProductFunction(
        h1, [GaugeBump(h1, [0.3, 0.0, 0.1], 0.9), GaugeBump(h1, [-0.2, 0.2, 0.0], 0.8)]
    )
    balls = [
        GaugeBall([0.0, 0.0, 0.0], 1.2),
        GaugeBall([0.4, -0.2, 0.1], 0.7),
        GaugeBall([-0.5, 0.5, 0.3], 1.5),
        GaugeBall([0.05, 0.1, 0.05], 0.6),
    ]
    fits = best_polynomial(
        h1, product, Weight.one(h1), 0.8, balls, 1, QuadratureScheme(samples=4096, seed=17),
        op_id="sparse",
    )
    got = [
        (poly.coeffs[0].hex(), est.value.hex(), est.std_error.hex(), est.note)
        for poly, est in fits
    ]
    assert got == [
        ("0x0.0p+0", "0x1.46222630bebc1p-2", "0x1.8071a2c6e1357p-6", "upper-bound"),
        ("0x0.0p+0", "0x1.53b0f12ee8845p-3", "0x1.473027173d564p-8", "upper-bound"),
        ("0x0.0p+0", "0x1.46796274d1b38p-2", "0x1.30193d25b1c3cp-5", "upper-bound"),
        ("0x1.036818e3c30eap-1", "0x1.ed1e316b4f02fp-4", "0x1.5ecc75cf92a42p-10", "upper-bound"),
    ]
    assert len(evaluations) == 300
    assert reference == []


def test_l1_vertex_ignores_zero_rows_between_live_rows():
    # rows of weight 0, as the degenerate-vertex sub-problem gives every node
    # off the zero set, between and after a ball's rows change neither the
    # vertex nor its certificate; y = 0 on part of each system makes some
    # vertices degenerate, so the sub-problem runs too
    rng = stream(4, "l1-dead-rows")
    systems = []
    for n in (300, 517, 1024):
        x = rng.uniform(-1.0, 1.0, n)
        A = np.column_stack([np.ones(n), x, x**2])
        y = np.where(x > 0.2, np.cos(3.0 * x) + 0.1 * rng.normal(size=n), 0.0)
        w = np.full(n, 2.0 / n)
        systems.append((A, y, w, _weighted_lstsq(A[None], y[None], w[None])[0]))
    together, notes, _ = _l1_descent(*_stack_with_dead_rows(systems, rng))
    for (A, y, w, start), c, note in zip(systems, together, notes):
        alone, (note_1,), _ = _l1_descent(A[None], y[None], w[None], start[None])
        np.testing.assert_allclose(c, alone[0], rtol=1e-12, atol=1e-14)
        assert note == note_1 == "l1-vertex-certified"
        value = np.sum(w * np.abs(y - A @ c))
        assert value == pytest.approx(exact_l1_value(A, y, w), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_colmax_is_numpys_column_max_bit_for_bit(d):
    # the one-column-at-a-time max equals np.max(np.abs(A), axis=-2) on a
    # stack, on slices of it, and on one ball's (N, d) matrix as Newton's
    # and Nelder-Mead's callers pass it
    rng = stream(5, f"colmax/{d}")
    A = rng.standard_normal((7, 1000, d)) * np.exp(rng.uniform(-30.0, 30.0, (7, 1, d)))
    A[2, :, 0] = 0.0
    A[3, 17, 0] = -np.inf
    for part in (A, A[slice(0, 3)], A[slice(3, 7)], A[5]):
        assert bestpoly._colmax(part).tobytes() == np.max(np.abs(part), axis=-2).tobytes()


def _line_search_oracle(r, w, v):
    """Brute force along r - t v: the objective at t = 0 and at every
    breakpoint t_i = r_i / v_i > 0, and the least breakpoint at which it is
    minimal (None when there is none)."""
    f0 = np.sum(w * np.abs(r))
    crossing = np.sign(r) * v > 0.0
    ts = np.sort(r[crossing] / v[crossing])
    if ts.size == 0:
        return f0, None, None
    fs = np.array([np.sum(w * np.abs(r - t * v)) for t in ts])
    best = fs.min()
    return f0, best, ts[np.argmax(fs <= best + 1e-12 * f0)]


def test_line_search_matches_a_brute_force_breakpoint_oracle():
    # the entering node is the least minimizer of the objective along the
    # direction, among all its breakpoints; rows with tied breakpoints, with
    # no crossing node, with zero residuals on part or all of their nodes
    rng = stream(7, "line-search-oracle")
    n, d = 400, 2
    A = rng.standard_normal((8, n, d))
    direction = rng.standard_normal((8, d))
    v = (A @ direction[..., None])[..., 0]
    r = rng.standard_normal((8, n))
    r[1, :120] = 0.5 * v[1, :120]  # 120 tied breakpoints at t = 1/2 ...
    r[1, 120:160] = 0.25 * v[1, 120:160]  # ... and 40 at t = 1/4
    r[2] = -np.abs(r[2]) * np.sign(v[2])  # no node crosses 0 for t > 0
    r[3] = 0.0  # every node at a zero residual
    r[4, rng.permutation(n)[:300]] = 0.0  # a degenerate vertex's zero set
    r[5, :380] = 0.0
    r[6] = 2.0 * v[6]  # every breakpoint at t = 2
    w = rng.uniform(0.5, 1.5, (8, n)) / n
    zero, sign = r == 0.0, np.sign(r)
    enter, descends = bestpoly._line_search(A, r, w, zero, sign, direction)
    for b in range(len(r)):
        f0, best, t_min = _line_search_oracle(r[b], w[b], v[b])
        assert descends[b] == (best is not None and best < f0 - 1e-12 * f0), b
        if descends[b]:
            assert r[b, enter[b]] / v[b, enter[b]] == t_min, b
    assert not descends[2] and not descends[3]
    assert descends[0] and descends[1] and descends[6]


@pytest.mark.parametrize("d", [2, 3, 6])
def test_snap_on_keys_mostly_zero_goes_through_the_zero_polynomial(d):
    # y = 0 on 80% of each row: the d smallest |y| are d independent rows
    # where y vanishes, even where the first zero rows repeat one row, and the
    # vertex through them is the zero polynomial
    rng = stream(8, f"snap-zero-keys/{d}")
    n = 500
    A = rng.standard_normal((4, n, d))
    y = rng.standard_normal((4, n))
    y[:, rng.permutation(n)[: 4 * n // 5]] = 0.0
    first_zeros = np.flatnonzero(y[1] == 0.0)[: d + 1]
    A[1, first_zeros] = A[1, first_zeros[0]]  # d + 1 copies of one row
    basis = bestpoly._snap(A, np.abs(y))
    rows = np.arange(4)[:, None]
    assert np.all(y[rows, basis] == 0.0)
    for b in range(4):
        assert len(set(basis[b])) == d
        assert np.linalg.matrix_rank(A[b, basis[b]]) == d
    c, _ = bestpoly._vertex(A, y, basis)
    assert np.all(c == 0.0)


@pytest.mark.parametrize("fraction", [0.0, 0.6, 0.95, 1.0])
@pytest.mark.parametrize("gid", ["e1", "h1"])
def test_l1_vertex_is_exact_on_zero_heavy_stacks(request, gid, fraction):
    # 16 balls in one stack, F = 0 on the given share of each ball's nodes:
    # every ball certified at the LP optimum on its nodes
    group = request.getfixturevalue(gid)
    balls = BallSampler(dim=group.n, count=16, r_min=0.25, r_max=4.0).generate(12)
    scheme = QuadratureScheme(samples=2048, seed=47)
    F = lambda p: 2.5 + np.cos(2.0 * p[:, 0]) + np.exp(0.3 * p[:, -1])
    A, y, w = (
        np.array(x)
        for x in zip(*(
            best_value_system(group, F, W1(group), 1.0, ball, 2, scheme, f"zero-heavy/b{b}")
            for b, ball in enumerate(balls)
        ))
    )
    rng = stream(12, f"zero-heavy/{gid}/{fraction}")
    n = y.shape[1]
    for row in y:
        row[rng.permutation(n)[: round(fraction * n)]] = 0.0
    start = _weighted_lstsq(A, y, w)
    coeffs, notes, _ = _l1_descent(A, y, w, start)
    assert list(notes) == ["l1-vertex-certified"] * len(balls)
    for A_b, y_b, w_b, c in zip(A, y, w, coeffs):
        value = np.sum(w_b * np.abs(y_b - A_b @ c))
        assert value == pytest.approx(exact_l1_value(A_b, y_b, w_b), rel=1e-12, abs=0.0)


# ball-rounds that reached _line_search on _l1_work_stacks() before each ball
# started at the lower of its L^2 vertex and its smallest-|F| vertex
_L1_WORK_BEFORE_TWO_VERTEX_START = 1354


def test_l1_vertex_two_vertex_start_saves_pivots(e1, count_calls):
    # 48 seeded 16-ball stacks shaped like the leibniz lhs (R^1, k = 2, 2048
    # nodes, a product of two bumps, balls of radius 1/4 to 4), every ball
    # solved (no sup scales, so nothing is pruned): the two-vertex start
    # reaches the line search on at most 70% of the ball-rounds it took from
    # the L^2 vertex alone.  One stack's share ranges from 0 to over 90%.
    rounds = count_calls(bestpoly, "_line_search", lambda A, *rest: A.shape[0])
    sampler = BallSampler(dim=1, count=16, r_min=0.25, r_max=4.0)
    rng = stream(27, "l1-work")

    def bump():
        center = [rng.uniform(-1.0, 1.0)]
        radius = math.exp(rng.uniform(math.log(0.4), math.log(1.5)))
        return GaugeBump(e1, center, radius, rng.uniform(0.5, 2.0))

    for i in range(48):
        F = ProductFunction(e1, [bump(), bump()])
        fits = best_polynomial(
            e1, F, W1(e1), 1.0, sampler.generate(i, label=f"l1-work/{i}-balls"), 2,
            QuadratureScheme(samples=2048, seed=i), op_id=f"l1-work/{i}",
        )
        assert {est.note for _, est in fits} == {"l1-vertex-certified"}
    assert sum(rounds) <= 0.7 * _L1_WORK_BEFORE_TWO_VERTEX_START


def _assert_certified_or_pruned(sup, details):
    """The ball that attains the sup is certified; every other ball is
    certified, or pruned with a value below the sup."""
    values = [d["value"] for d in details]
    top = values.index(max(values))
    assert values[top] == sup.value and details[top]["note"] == "l1-vertex-certified"
    for d in details:
        assert d["note"] == "l1-vertex-certified" or (
            d["note"] == "upper-bound-pruned" and d["value"] < sup.value
        )


def test_campanato_details_keep_each_ball_solver_note(e1, small_scheme):
    # the sup is labelled as a sup; each ball keeps its own note: its
    # solver's, or that it was pruned at an upper bound below the sup
    sampler = BallSampler(dim=1, count=5, r_min=0.25, r_max=4.0)
    est, details = campanato_norm(
        e1, GaugeBump(e1, [0.0], 1.0), W1(e1), 1.0, 1.0, 2, sampler, small_scheme
    )
    assert est.note == spaces._SUP_NOTE
    assert len(details) == sampler.count
    _assert_certified_or_pruned(est, details)


def test_campanato_one_best_polynomial_call(e1, small_scheme, count_calls):
    # all balls in one call; one lstsq per ball for the L^2 start, and the
    # vertex descent runs on the stacked balls
    calls = count_calls(spaces, "best_polynomial", lambda *args, **kw: kw["op_id"])
    solves = count_calls(np.linalg, "lstsq")
    sampler = BallSampler(dim=1, count=6, r_min=0.25, r_max=4.0)
    campanato_norm(e1, GaugeBump(e1, [0.0], 1.0), W1(e1), 1.0, 1.0, 2, sampler, small_scheme)
    assert calls == ["campanato"]
    assert len(solves) == sampler.count


def _unpruned_sup(group, F, q, lam, k, balls, scheme, op_id):
    """The Campanato sup built from every ball's full solve: best_polynomial
    without sup scales, each value scaled by |B|^(-lam/(n q)).  Returns the
    scaled per-ball Estimates and the index of the first largest."""
    fits = best_polynomial(group, F, W1(group), q, balls, k, scheme, op_id=op_id)
    scaled = [
        est.scaled(ball_volume(group, ball.radius) ** (-lam / (group.n * q)))
        for ball, (_, est) in zip(balls, fits)
    ]
    values = [e.value for e in scaled]
    return scaled, values.index(max(values))


@pytest.mark.parametrize(("q", "k"), [(1.0, 2), (1.5, 2), (1.0, 1)])
@pytest.mark.parametrize("gid", ["e1", "h1"])
def test_campanato_pruning_keeps_the_sup_bit_for_bit(request, gid, q, k):
    # per seed, a product of two bumps on 12 balls: the pruned sup's value,
    # standard error, ball and flag equal those of the sup over every ball's
    # full solve, each solved ball's value equals its full solve's, and each
    # pruned ball reports a value between its minimum and the sup
    group = request.getfixturevalue(gid)
    sampler = BallSampler(dim=group.n, count=12, r_min=0.25, r_max=4.0)
    pruned = 0
    for seed in range(8):
        rng = stream(seed, f"prune/{gid}/{q}")
        F = ProductFunction(group, [random_bump(group, rng, center_box=0.5) for _ in range(2)])
        scheme = QuadratureScheme(samples=1024, seed=seed)
        sup, details = campanato_norm(
            group, F, W1(group), q, 1.0, k, sampler, scheme, op_id=f"prune/{seed}"
        )
        balls = sampler.generate(seed, label=f"prune/{seed}-balls")
        ref, top = _unpruned_sup(group, F, q, 1.0, k, balls, scheme, f"prune/{seed}")
        values = [d["value"] for d in details]
        assert values.index(max(values)) == top
        assert (sup.value, sup.std_error, sup.flagged) == (
            ref[top].value, ref[top].std_error, ref[top].flagged,
        )
        for d, est in zip(details, ref):
            if d["note"] == "upper-bound-pruned":
                pruned += 1
                assert est.value <= d["value"] < sup.value
            else:
                assert (d["value"], d["note"]) == (est.value, est.note)
    assert pruned > 0


def test_campanato_pruned_sup_left_translation_covariance(h1):
    # left-translating f, g and the balls by g0 moves every node exactly, so
    # the pruned q = 1 sup, an exact vertex minimum, moves only by rounding:
    # at most 1e-12 relative.  (A Newton sup, q = 1.5, stops anywhere within
    # its certified gap, and moved by 2.9e-12 on one of these ball lists.)
    g0 = np.array([0.6, -0.4, 0.3])
    fs = [GaugeBump(h1, [0.1, 0.0, 0.1], 0.8, 1.3), GaugeBump(h1, [-0.1, -0.3, 0.0], 0.9, 0.7)]
    moved_fs = [
        GaugeBump(h1, h1.compose(g0, f.support.center), f.support.radius, f.height) for f in fs
    ]
    sampler = BallSampler(dim=3, count=12, r_min=0.25, r_max=4.0)
    for seed in range(6):
        balls = sampler.generate(seed, label="prune-translation-balls")
        moved_balls = [GaugeBall(h1.compose(g0, b.center), b.radius) for b in balls]
        scheme = QuadratureScheme(samples=1024, seed=seed)
        base, details = campanato_norm(
            h1, ProductFunction(h1, fs), W1(h1), 1.0, 1.0, 2, ListedBalls(balls), scheme
        )
        moved, _ = campanato_norm(
            h1, ProductFunction(h1, moved_fs), W1(h1), 1.0, 1.0, 2, ListedBalls(moved_balls),
            scheme,
        )
        assert "upper-bound-pruned" in {d["note"] for d in details}
        assert abs(moved.value - base.value) <= 1e-12 * base.value


def _misses(group, ball, supports):
    """Whether ball's box misses the intersection of the supports' boxes."""
    [lo], [hi] = ball_box(group, [ball])
    for sup in supports:
        [sup_lo], [sup_hi] = ball_box(group, [sup])
        lo, hi = np.maximum(lo, sup_lo), np.minimum(hi, sup_hi)
    return bool(np.any(lo >= hi))


def test_leibniz_draws_and_solves_only_the_live_balls(e1, count_calls):
    # work-count guard on one seeded config shaped like the benchmark's
    # Leibniz workload (R^1, k = 2, q = 1, p = (2, 2), 16 balls with r in
    # [1/4, 4], 2048 samples): the lhs and both Morrey slots share one ball
    # list and one node set per ball, so the nodes drawn are N per ball live
    # for f or for g (none for a ball dead for both), the L^2 starts one per
    # ball live for fg, and the unit weights are never evaluated
    rng = stream(4, "leibniz-live-balls")
    f, g = random_bump(e1, rng), random_bump(e1, rng)
    sampler = BallSampler(dim=1, count=16, r_min=0.25, r_max=4.0)
    scheme = QuadratureScheme(samples=2048, seed=17)
    one = W1(e1)
    nodes = count_calls(quad, "sample_ball", lambda group, balls, count, rngs: count * len(balls))
    solves = count_calls(np.linalg, "lstsq")
    weighed = count_calls(Weight, "power_rows")
    leibniz_test(
        e1, f, g, one, one, one, ExponentSystem(m=2, p_list=(2.0, 2.0), q=1.0, k=2),
        1.0, 1.0, 1.0, sampler, scheme, op_id="live",
    )
    balls = sampler.generate(scheme.seed, label="live-balls")
    live_f, live_g = ([not _misses(e1, ball, [h.support]) for ball in balls] for h in (f, g))
    live_fg = sum(not _misses(e1, ball, [f.support, g.support]) for ball in balls)
    either = sum(a or b for a, b in zip(live_f, live_g))
    assert 0 < live_fg < either < sampler.count
    assert sum(nodes) == scheme.samples * either
    assert len(solves) == live_fg
    assert weighed == []


def test_leibniz_draws_each_live_ball_once_and_keeps_each_norms_bits(h1, count_calls, monkeypatch):
    # the lhs and both Morrey slots take one ball list that carries each
    # ball's unit node set: on H^1 one leibniz_test draws N nodes once for
    # each ball live for f or for g and none for a ball dead for both, and
    # each of its three norms equals the standalone call with the same op_id
    # and ball list, which draws its own nodes, bit for bit
    _, product, balls, _, _ = support_mix(h1)
    f, g = product.factors
    live = [not (_misses(h1, ball, [f.support]) and _misses(h1, ball, [g.support])) for ball in balls]
    f_only = [not _misses(h1, ball, [f.support]) and _misses(h1, ball, [g.support]) for ball in balls]
    assert 0 < sum(f_only) < sum(live) < len(balls)
    scheme = QuadratureScheme(samples=1024, seed=5)
    norms = []
    for name in ("campanato_norm", "morrey_norm"):

        def recorded(*args, norm=getattr(spaces, name), **kwargs):
            out = norm(*args, **kwargs)
            norms.append((norm, args, kwargs, out))
            return out

        monkeypatch.setattr(spaces, name, recorded)
    nodes = count_calls(quad, "sample_ball", lambda group, balls, count, rngs: count * len(balls))
    streams = count_calls(quad, "stream", lambda seed, op_id, index=0: op_id)
    one = W1(h1)
    report = leibniz_test(
        h1, f, g, one, one, one, ExponentSystem(m=2, p_list=(2.0, 2.0), q=1.0, k=2),
        1.0, 1.0, 1.0, ListedBalls(balls), scheme, op_id="once",
    )
    assert sum(nodes) == scheme.samples * sum(live)
    assert sorted(streams) == sorted(f"once/b{b}" for b, on in enumerate(live) if on)
    assert [norm.__name__ for norm, *_ in norms] == ["campanato_norm", "morrey_norm", "morrey_norm"]
    assert report.lhs == norms[0][3][0] and report.lhs.value > 0.0
    for norm, args, kwargs, out in norms:
        plain = [ListedBalls(balls) if isinstance(a, quad.UnitNodeBalls) else a for a in args]
        assert plain != list(args)
        assert norm(*plain, **kwargs) == out
    # under another op_id the list draws as a plain list does
    [shared] = [a for a in norms[0][1] if isinstance(a, quad.UnitNodeBalls)]
    other = [quad.lp_norm_ball(h1, f, one, 2.0, bs, scheme, op_id="other") for bs in (shared, balls)]
    assert other[0] == other[1]


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
        weight_verdict="finite-at-sampled-scales",
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
    # f(g^-1 o x) is the bump on B(g o c, R)
    shifted_fs = [
        GaugeBump(h1, h1.compose(g, f.support.center), f.support.radius, f.height) for f in fs
    ]
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
        gs = [dilated_bump(f, lam) for f in fs]
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


def test_representation_zero_over_zero_is_0_and_positive_over_zero_inf(e1, small_scheme, monkeypatch):
    fs = [GaugeBump(e1, [0.0], 0.5), GaugeBump(e1, [0.1], 0.5)]
    # the bumps vanish on B(5, 1): every point reads 0 over 0
    records, summary = representation_check(e1, fs, GaugeBall([5.0], 1.0), 2, 8, small_scheme)
    assert [(r["lhs"], r["rhs"], r["ratio"]) for r in records] == [(0.0, 0.0, 0.0)] * 8
    assert summary["max_ratio"] == 0.0

    # on B(0, 1) with an rhs forced to 0, an lhs > 0 is an infinite ratio
    def zero_rhs(group, slots, k, pts, scheme, op_id):
        return [Estimate(0.0, 0.0, 0)] * len(pts)

    monkeypatch.setattr(inequalities, "multilinear_fractional_integral", zero_rhs)
    records, _ = representation_check(e1, fs, GaugeBall([0.0], 1.0), 2, 8, small_scheme)
    assert all(r["lhs"] > 0.0 for r in records)
    assert all(r["ratio"] == math.inf for r in records)


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


def test_representation_one_mfi_call_per_pair(e1, small_scheme, count_calls):
    # the sum over the 3 derivative tuples is one integral of one summed integrand
    calls = count_calls(
        inequalities, "multilinear_fractional_integral",
        lambda group, fs, tau, x, scheme, *, op_id="mfi": (np.shape(x), op_id),
    )
    fs = [GaugeBump(e1, [0.1], 1.0), GaugeBump(e1, [-0.2], 1.2)]
    records, _ = representation_check(
        e1, fs, GaugeBall([0.0], 1.0), 2, 30, small_scheme, op_id="rep"
    )
    assert len(derivative_tuples(2, 2, e1.n1)) == 3
    assert calls == [((30, 1), "rep/rhs")]
    assert len(records) == 30


@pytest.mark.parametrize(
    "gid, tau, scheme",
    [
        ("e1", 1.0, QuadratureScheme(samples=2048, seed=3)),
        ("e1", 1.0, QuadratureScheme(kind="annuli", samples=2048, levels=8, seed=3)),
        ("h1", 2.0, QuadratureScheme(samples=2048, seed=3)),
    ],
)
def test_mfi_of_row_slots_is_the_sum_of_one_row_calls(gid, tau, scheme, request):
    # I_tau is linear: slots of T rows give, at every point, the sum of the T
    # one-row calls on the same nodes; tau < mQ puts the kernel in play
    group = request.getfixturevalue(gid)
    rng = stream(31, f"mfi-rows/{gid}")
    fs = [random_bump(group, rng, center_box=0.3, radius_range=(0.8, 1.2)) for _ in range(2)]
    ball = GaugeBall(np.zeros(group.n), 1.0)
    tuples = derivative_tuples(2, 2, group.n1)
    assert tau < 2 * group.homogeneous_dimension
    xs = sample_ball(group, ball, 5, stream(32, f"mfi-rows/{gid}/points"))

    def slots(keys_of):
        # slot i's rows over the ball, as representation_check builds them
        out = [jet_rows(group, f, keys_of(i)) for i, f in enumerate(fs)]
        for slot in out:
            slot.support = ball
        return out

    summed = multilinear_fractional_integral(
        group, slots(lambda i: [t[i] for t in tuples]), tau, xs, scheme, op_id="rows"
    )
    parts = [
        multilinear_fractional_integral(
            group, slots(lambda i, t=t: [t[i]]), tau, xs, scheme, op_id="rows"
        )
        for t in tuples
    ]
    for p, est in enumerate(summed):
        assert est.value > 0.0
        assert est.value == pytest.approx(sum(part[p].value for part in parts), rel=1e-12)


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
    out = affine_infimum(fam, 1.0, np.polynomial.legendre.leggauss(400))
    assert out["value"] == pytest.approx(0.25, rel=0.005)
    assert out["a"] == pytest.approx(0.5, abs=0.01)


def test_affine_infimum_q2_is_weighted_least_squares():
    fam = counterexample_family(0.25)
    x, w = three_piece_nodes(0.25, 400)
    f = fam.value(x)
    design = np.stack([x, np.ones_like(x)], axis=1) * np.sqrt(w)[:, None]
    (a, b), *_ = np.linalg.lstsq(design, f * np.sqrt(w), rcond=None)
    value = float(np.dot(w, (f - a * x - b) ** 2))
    out = affine_infimum(fam, 2.0, np.polynomial.legendre.leggauss(400))
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
        x, w = three_piece_nodes(eps, 60)
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


@pytest.mark.parametrize("q", [0.5, 0.1, 0.9, 0.05])
def test_affine_infimum_below_one_is_best_line_through_two_nodes(q):
    # 25 nodes per piece: the middle one is its own mirror image
    rule = np.polynomial.legendre.leggauss(25)
    for eps in (0.25, 0.3, 2.0**-4):
        fam = counterexample_family(eps)
        out = affine_infimum(fam, q, nodes=rule)
        assert out["method"] == "vertex-bnb" and out["converged"]
        value, (i, j) = all_lines_brute_force(fam, q, 25)
        assert out["value"] == pytest.approx(value, rel=1e-12)
        x, w = three_piece_nodes(eps, 25)
        resid = fam.value(x) - out["a"] * x - out["b"]
        assert float(np.dot(w, np.abs(resid) ** q)) == pytest.approx(out["value"], rel=1e-6)
        if (q, eps) == (0.5, 2.0**-4):
            # the oracle covers the closed form: the best line joins the outer pieces
            assert i < 25 and j >= 50
            assert set(np.argsort(np.abs(resid))[:2]) in ({i, j}, {74 - i, 74 - j})


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
def test_left_right_lines_sum_the_outer_pieces_in_closed_form(q):
    # (1/2 - c)^q S(j) + (1/2 + c)^q S(i') plus the middle sum, against the
    # sum over all nodes, on random left x right lines of the search
    n, rule, middle = 400, np.polynomial.legendre.leggauss(400), slice(400, 800)
    for eps in (2.0**-2, 2.0**-6):
        x, g, w = counterexample._piecewise_nodes(counterexample_family(eps), rule)
        assert np.array_equal(g[2 * n :], 0.5 * x[2 * n :])
        assert np.array_equal(g[:n], -0.5 * x[:n])
        # with no incumbent every left x right tile gets its lines
        blocks = counterexample._candidate_blocks(x, g, w, q, n, [math.inf])
        blocks = [b for b in blocks if b[0] == middle]
        lines, pairs, outer = (np.concatenate([b[k] for b in blocks]) for k in (1, 2, 3))
        assert np.all(pairs[:, 0] < n) and np.all(pairs[:, 1] >= 2 * n)
        pick = stream(11, f"closed-form/{q}/{eps}").choice(lines.shape[0], 1000, replace=False)
        lines, pairs, outer = lines[pick], pairs[pick], outer[pick]
        split = outer + counterexample._line_values(
            x[middle], g[middle], w[middle], q, lines, pairs - n
        )
        direct = counterexample._line_values(x, g, w, q, lines, pairs)
        np.testing.assert_allclose(split, direct, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("block, tile, leaf", [(1 << 10, 8, 4), (1 << 18, 64, 128)])
def test_vertex_bnb_is_bit_identical_across_block_sizes(monkeypatch, block, tile, leaf):
    rule = np.polynomial.legendre.leggauss(60)
    cases = [(q, eps) for q in (0.3, 0.7) for eps in (0.25, 2.0**-5)]

    def minima():
        outs = [affine_infimum(counterexample_family(eps), q, rule) for q, eps in cases]
        return [(out["value"], out["a"], out["b"]) for out in outs]

    want = minima()
    monkeypatch.setattr(counterexample, "_BLOCK", block)
    monkeypatch.setattr(counterexample, "_TILE", tile)
    monkeypatch.setattr(counterexample, "_LEAF", leaf)
    assert minima() == want


@pytest.mark.parametrize("q", [0.3, 0.5])
def test_vertex_bnb_reports_the_value_of_its_own_line(q):
    # near c = 1/2 the computed line through a middle and a right node
    # misses the right node by rounding; a closed form on such lines would
    # report a value that the returned line does not have
    rule = np.polynomial.legendre.leggauss(400)
    for eps in (2.0**-5, 2.0**-6, 2.0**-7):
        fam = counterexample_family(eps)
        out = affine_infimum(fam, q, rule)
        x, w = three_piece_nodes(eps, 400)
        resid = fam.value(x) - out["a"] * x - out["b"]
        resid[np.argsort(np.abs(resid))[:2]] = 0.0  # the line's own two nodes
        assert out["value"] == pytest.approx(float(np.abs(resid) ** q @ w), rel=1e-12)


# (L, a, b) of the (0.5 x 0.5)-table search at 400 nodes, eps = 2^-2 .. 2^-8,
# as the search that formed and sorted every node pair returned them
_VERTEX_PINS = {
    0.1: [
        ("0x1.0ecc6b2055564p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x1.f4f9ec8932c7ep-1", "0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x1.e206a8d7635acp-1", "0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x1.d92f76f38c1bap-1", "0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x1.d50fa59bbf3aap-1", "0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x1.d323172bd7bf6p-1", "0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x1.d23d4e094c116p-1", "0x1.0000000000000p+0", "0x0.0p+0"),
    ],
    0.5: [
        ("0x1.51c87f0c649aap-1", "0x1.0000000000000p-1", "0x1.fcaa13f9e78fbp-3"),
        ("0x1.54706c27ad7d4p-1", "0x1.0000000000000p-1", "0x1.ff37285c5303ep-3"),
        ("0x1.550ff4608c43cp-1", "0x1.0000000000000p-1", "0x1.00027ebf3bcd1p-2"),
        ("0x1.5536a272f9421p-1", "0x1.0000000000000p-1", "0x1.fe7ed5a6762d0p-3"),
        ("0x1.553ff5a387290p-1", "0x1.00fcf18fb493bp-1", "0x1.000afc93b06e4p-2"),
        ("0x1.554227876dbeep-1", "0x1.00ff0379d4c7ep-1", "0x1.0000f51dd097ep-2"),
        ("0x1.554250580af34p-1", "0x1.0000000000000p-1", "0x1.ffffef1278f59p-3"),
    ],
    0.9: [
        ("0x1.2ece516128fa4p-2", "0x1.0000000000000p-1", "0x1.ff7fb6e899383p-3"),
        ("0x1.33df2ecdc47dep-2", "0x1.0000000000000p-1", "0x1.ff37285c5303ep-3"),
        ("0x1.351f9f55ca3b4p-2", "0x1.0000000000000p-1", "0x1.00027ebf3bcd1p-2"),
        ("0x1.356fe279dbbbep-2", "0x1.0000000000000p-1", "0x1.fe7ed5a6762d0p-3"),
        ("0x1.3584127ec60acp-2", "0x1.0000000000000p-1", "0x1.fe1df2544a346p-3"),
        ("0x1.3589135afeecap-2", "0x1.00ff0379d4c7ep-1", "0x1.0000f51dd097ep-2"),
        ("0x1.35895569a200ep-2", "0x1.0000000000000p-1", "0x1.ffffef1278f59p-3"),
    ],
}


@pytest.mark.parametrize("q", sorted(_VERTEX_PINS))
def test_vertex_bnb_returns_the_pinned_lines(q):
    rule = np.polynomial.legendre.leggauss(400)
    for e, want in zip(range(2, 9), _VERTEX_PINS[q]):
        out = affine_infimum(counterexample_family(2.0**-e), q, rule)
        assert tuple(float(out[key]).hex() for key in ("value", "a", "b")) == want


@pytest.mark.parametrize("nodes", [25, 60, 400])
def test_tile_boxes_hold_every_line_of_their_tile(nodes):
    # the boxes come from the tiles' corner pairs alone; every line with
    # c > 0 through a pair, formed densely, lies in the box of its tile
    rule, n, tile = np.polynomial.legendre.leggauss(nodes), nodes, counterexample._TILE
    left, mid, right = (np.arange(k * n, (k + 1) * n) for k in range(3))
    for e in range(2, 9):
        x, g, _ = counterexample._piecewise_nodes(counterexample_family(2.0**-e), rule)
        for rows, cols in ((left, mid), (mid, right), (left, right), (mid, mid)):
            lo, hi, live = counterexample._tile_boxes(x, g, rows, cols, rows is cols)
            if rows is left and cols is mid:
                assert not np.any(live)  # every such chord falls
            i, j = (a.ravel() for a in np.meshgrid(rows, cols, indexing="ij"))
            i, j = i[i < j], j[i < j]
            c = (g[i] - g[j]) / (x[i] - x[j])
            i, j, c = i[c > 0.0], j[c > 0.0], c[c > 0.0]
            lines = np.stack([c, g[i] - c * x[i]], axis=1)
            at = ((i - rows[0]) // tile, (j - cols[0]) // tile)
            assert np.all(live[at])
            assert np.all(lo[at] <= lines) and np.all(lines <= hi[at])


def test_interval_bound_never_exceeds_the_corner_bound():
    # random boxes about lines through two nodes, from wide to 1e-14 across,
    # so that many residuals change sign or come within the sign margin
    rng = stream(13, "interval-bound")
    rule = np.polynomial.legendre.leggauss(60)
    for eps in (2.0**-2, 2.0**-5):
        x, g, w = counterexample._piecewise_nodes(counterexample_family(eps), rule)
        i, j = rng.choice(x.shape[0], size=(2, 600))
        i, j = i[i != j], j[i != j]
        c = (g[i] - g[j]) / (x[i] - x[j])
        lines = np.stack([c, g[i] - c * x[i]], axis=1)
        width = rng.uniform(size=lines.shape) * 10.0 ** rng.integers(-14, 0, size=(c.shape[0], 1))
        share = rng.uniform(size=lines.shape)
        lo, hi = lines - share * width, lines + (1.0 - share) * width
        for nodes in (slice(0, 180), slice(60, 120)):
            for q in (0.05, 0.5, 0.95):
                args = (x[nodes], g[nodes], w[nodes], q, lo, hi)
                interval = counterexample._interval_bounds(*args)
                assert np.all(interval <= counterexample._corner_bounds(*args))
                assert np.any(interval > 0.0)


def test_vertex_bnb_node_terms_on_the_half_half_table(monkeypatch):
    # the node terms one (p, q) = (0.5, 0.5) table at 400 nodes spends on
    # corner bounds (four per box and node) and on line values; the search
    # that formed and sorted every node pair spent 12.7 M and 6.9 M
    terms = {"corner": 0, "lines": 0}
    corner_bounds, line_values = counterexample._corner_bounds, counterexample._line_values

    def counted_corner_bounds(x, g, w, q, lo, hi):
        terms["corner"] += 4 * lo.shape[0] * x.shape[0]
        return corner_bounds(x, g, w, q, lo, hi)

    def counted_line_values(x, g, w, q, lines, own):
        terms["lines"] += lines.shape[0] * x.shape[0]
        return line_values(x, g, w, q, lines, own)

    monkeypatch.setattr(counterexample, "_corner_bounds", counted_corner_bounds)
    monkeypatch.setattr(counterexample, "_line_values", counted_line_values)
    counterexample_report(0.5, 0.5, [2.0**-e for e in range(2, 9)])
    assert terms["corner"] <= 6_400_000
    assert terms["lines"] <= 6_946_400


def test_vertex_bnb_memory_peak():
    # tracemalloc peak of one search per eps at 400 nodes, against the
    # search that formed and sorted every node pair: 3.77 MB at eps = 2^-2,
    # 3.37 MB at 2^-3 and 3.12 MB below
    rule = np.polynomial.legendre.leggauss(400)
    limits = (3.77e6, 3.37e6) + (3.12e6,) * 5
    for e, limit in zip(range(2, 9), limits):
        tracemalloc.start()
        try:
            affine_infimum(counterexample_family(2.0**-e), 0.5, rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit, (e, peak)


def test_affine_infimum_below_one_is_not_above_known_line():
    # at eps = 1/4 the line a = 1/2 through two mirror-image nodes gives
    # 0.65973279; the earlier grid search reported 0.659793
    out = affine_infimum(counterexample_family(0.25), 0.5, np.polynomial.legendre.leggauss(400))
    assert out["value"] <= 0.6597328 + 1e-9


def test_affine_infimum_bisects_the_offset_to_adjacent_floats():
    # q = 1.5: the derivative in b of sum_i w_i |g_i - b|^q changes sign
    # between the floats next to the returned b; L is not above the values
    # the bisection to a 1e-6 tolerance reported
    rule = np.polynomial.legendre.leggauss(400)
    for eps, tolerance_l in ((0.25, 0.09569557333759872), (0.125, 0.09887530553978505),
                             (0.0625, 0.09971285970311408)):
        out = affine_infimum(counterexample_family(eps), 1.5, rule)
        assert out["method"] == "symmetric-convex" and out["a"] == 0.5
        x, w = three_piece_nodes(eps, 400)
        g = counterexample_family(eps).value(x) - 0.5 * x
        g = 0.5 * (g + g[::-1])

        def slope(b):
            return np.dot(w, np.sign(b - g) * np.abs(b - g) ** 0.5)

        assert slope(np.nextafter(out["b"], -np.inf)) <= 0.0
        assert slope(np.nextafter(out["b"], np.inf)) >= 0.0
        assert out["value"] <= tolerance_l


def test_counterexample_rows_are_certified():
    eps = [2.0**-e for e in range(2, 9)]
    for q, method in ((0.5, "vertex-bnb"), (1.0, "closed-form"), (1.5, "symmetric-convex")):
        rows = counterexample_report(0.5, q, eps)
        assert all(row["converged"] and row["method"] == method for row in rows)


@pytest.mark.parametrize("p, q", [(0.5, 1.0), (0.75, 2.0), (0.5, 0.5), (0.25, 1.5)])
def test_ratio_lower_is_below_the_ratio_and_scales_exactly(p, q):
    # ratio_lower = floor^(1/q) / R^(1/p), R = eps^(1-p) C: consecutive rows
    # eps, eps/2 differ by the factor 2^((1-p)/p)
    rows = counterexample_report(p, q, [2.0**-e for e in range(2, 9)])
    assert all(0.0 < row["ratio_lower"] <= row["ratio"] for row in rows)
    for row, nxt in zip(rows, rows[1:]):
        growth = nxt["ratio_lower"] / row["ratio_lower"]
        assert growth == pytest.approx(2.0 ** ((1.0 - p) / p), rel=1e-12)


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 0.9])
def test_closed_form_r_matches_the_gauss_rule(p):
    # the 400-node Gauss R the report took before: off by 9.6e-8 (p = 0.25)
    # down to 3.3e-11 (p = 0.9) relative, the same at every eps
    eps = [2.0**-e for e in range(2, 9)]
    for row in counterexample_report(p, 1.0, eps):
        gauss = gauss_second_derivative_lp(counterexample_family(row["eps"]), p, 400)
        assert row["R"] == pytest.approx(gauss, rel=1e-6)


@pytest.mark.parametrize("eps", [2.0**-2, 2.0**-6, 2.0**-8])
def test_closed_forms_match_mpmath(eps):
    pytest.importorskip("mpmath")
    for p in (0.25, 0.5, 0.9):
        r, by_q = mpmath_ramp_integrals(eps, p)
        for q, (value, b) in by_q.items():
            (row,) = counterexample_report(p, q, [eps])
            assert row["method"] == "closed-form" and row["a"] == 0.5
            assert row["R"] == pytest.approx(r, rel=1e-14)
            assert row["L"] == pytest.approx(value, rel=1e-14)
            assert row["b"] == pytest.approx(b, rel=1e-14)


def test_only_tables_without_a_closed_form_build_the_gauss_rule(monkeypatch):
    eps = [2.0**-e for e in range(2, 9)]
    leggauss, calls = np.polynomial.legendre.leggauss, []

    def refuse(n):
        raise AssertionError("leggauss called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    for q in (1.0, 2.0):
        counterexample_report(0.5, q, eps)

    def counted(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    counterexample_report(0.5, 0.5, eps)
    assert calls == [counterexample._GL_NODES]


def test_affine_distance_floor_closed_form():
    from scipy.integrate import quad as integrate

    assert affine_distance_floor(2.0) == pytest.approx(1.0 / 96.0, rel=1e-15)
    for q in (0.5, 0.75, 1.0, 2.0):
        at = [integrate(lambda x: abs(x - c) ** q, 0.5, 1.0, points=[c])[0]
              for c in (0.7, 0.75, 0.8)]
        assert at[1] == pytest.approx(affine_distance_floor(q), rel=1e-9)
        assert at[1] < min(at[0], at[2])


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


def test_morrey_and_campanato_reject_bad_exponents(e1, small_scheme):
    bump, sampler = GaugeBump(e1, [0.0], 1.0), BallSampler(dim=1, count=2)
    for p, lam in [(0.0, 1.0), (2.0, 0.0)]:
        with pytest.raises(DomainError, match="Morrey"):
            morrey_norm(e1, bump, W1(e1), p, lam, sampler, small_scheme)
        with pytest.raises(DomainError, match="Campanato norms"):
            campanato_norm(e1, bump, W1(e1), p, lam, 1, sampler, small_scheme)
    with pytest.raises(DomainError, match="Campanato order"):
        campanato_norm(e1, bump, W1(e1), 2.0, 1.0, 0, sampler, small_scheme)


def test_trial_report_flags():
    # a flagged estimate is named; an lhs above its noise over a zero rhs is
    # an infinite ratio, flagged as a violation candidate
    lhs, zero = Estimate(1.0, 0.01, 100, 0), Estimate(0.0, 0.0, 100, 0)
    report = trial_report(lhs, zero, {}, [])
    assert report.ratio == math.inf and report.flags == [VIOLATION_FLAG]
    flagged = Estimate(2.0, 0.01, 100, 0, flagged=True)
    report = trial_report(lhs, flagged, {}, [])
    assert report.ratio == 0.5 and report.flags == ["flagged-estimate"]
    assert trial_report(zero, zero, {}, []).ratio == 0.0


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
            group, lambda pts: np.abs(horizontal_derivative(group, bump, key, pts)), W1(group),
            2.0, 1.0, sampler, small_scheme, op_id="rows",
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
    # the relation holds, but k = 3 exceeds 2Q = 2 on R^1
    with pytest.raises(HypothesisError, match="2Q"):
        leibniz_test(
            e1, f, f, W1(e1), W1(e1), W1(e1), ExponentSystem(m=2, p_list=(2.0, 2.0), q=1.0, k=3),
            1.0, 1.0, 1.0, sampler, small_scheme,
        )


@pytest.mark.parametrize(
    "p_list, q, named",
    [
        ((0.0, 2.0), 1.0, ["p_1 = 0.0"]),
        ((-1.0, 2.0), 1.0, ["p_1 = -1.0"]),
        ((2.0, -1.0), -1.0, ["q = -1.0", "p_2 = -1.0"]),
        ((-1.0, 0.0), 1.0, ["p_1 = -1.0", "p_2 = 0.0"]),
    ],
)
def test_leibniz_refuses_each_non_positive_exponent(e1, small_scheme, p_list, q, named):
    f = GaugeBump(e1, [0.0], 1.0)
    system = ExponentSystem(m=2, p_list=p_list, q=q, k=2)
    with pytest.raises(ValidationError) as exc:
        leibniz_test(
            e1, f, f, W1(e1), W1(e1), W1(e1), system, 1.0, 1.0, 1.0,
            BallSampler(dim=1, count=4), small_scheme,
        )
    assert [v.split(" must")[0] for v in exc.value.violations] == named


@pytest.mark.parametrize(
    "q, scheme, message",
    [
        (0.0, QuadratureScheme(samples=1024), "norm exponent must be positive"),
        (-1.0, QuadratureScheme(samples=1024), "norm exponent must be positive"),
        (2.0, QuadratureScheme(kind="annuli", samples=1024), "ball stacks need a uniform scheme"),
    ],
)
def test_best_polynomial_input_checks(e1, q, scheme, message):
    with pytest.raises(DomainError, match=message):
        best_polynomial(e1, GaugeBump(e1, [0.0], 1.0), W1(e1), q, GaugeBall([0.0], 1.0), 2, scheme)


@pytest.mark.parametrize("norm, extra", [(morrey_norm, ()), (campanato_norm, (2,))])
def test_sup_norm_refuses_an_unknown_normalization(e1, small_scheme, norm, extra):
    f = GaugeBump(e1, [0.0], 1.0)
    with pytest.raises(DomainError, match="unknown normalization 'bogus'"):
        norm(e1, f, W1(e1), 2.0, 1.0, *extra, BallSampler(dim=1, count=2), small_scheme,
             normalization="bogus")


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
    # the lhs is a sup over balls; the report keeps each ball's note
    per_ball = report.to_dict()["lhs_per_ball"]
    assert len(per_ball) == sampler.count
    _assert_certified_or_pruned(report.lhs, per_ball)


def test_leibniz_one_morrey_call_per_slot(e1, small_scheme, count_calls):
    # k = 2 on R^1: 3 tuples, but one Campanato call and one Morrey call per
    # slot, and one lp_norm_ball call per slot, on all its balls at once;
    # all three norms take the test's op_id, so they share balls and nodes
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
    assert calls["campanato"] == ["lz"]
    assert calls["morrey"] == ["lz", "lz"]
    assert len(calls["lp"]) == 2
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


def test_leibniz_term_error_is_the_first_order_bound(e1, small_scheme):
    # both slots' sups come from the same nodes, so each term's error is
    # M_g sigma_f + M_f sigma_g, valid under any correlation of the slots;
    # the sups equal separate Morrey calls on the same op_id bit for bit,
    # so the shared draws move no node
    rng = stream(9, "leibniz")
    f, g = random_bump(e1, rng), random_bump(e1, rng)
    sampler = BallSampler(dim=1, count=6, r_min=0.25, r_max=4.0)
    report = leibniz_test(
        e1, f, g, W1(e1), W1(e1), W1(e1), _leibniz_system(), 1.0, 1.0, 1.0,
        sampler, small_scheme, op_id="bound",
    )
    tuples = derivative_tuples(2, 2, 1)
    sups = [
        dict(zip(keys, morrey_norm(e1, jet_rows(e1, h, keys), W1(e1), 2.0, 1.0, sampler,
                                   small_scheme, op_id="bound")[0]))
        for h, keys in ((f, [t[0] for t in tuples]), (g, [t[1] for t in tuples]))
    ]
    assert len(report.terms) == len(tuples) == 3
    for term, (a, b) in zip(report.terms, tuples):
        mf, mg = sups[0][a], sups[1][b]
        assert mf.value > 0.0 and mg.value > 0.0
        assert term["value"] == mf.value * mg.value
        assert term["std_error"] == mg.value * mf.std_error + mf.value * mg.std_error


def test_leibniz_rhs_samples_count_each_shared_node_once(e1, small_scheme):
    # the rhs samples are the N nodes per ball that both slots share,
    # however many tuples (3 for k = 2 on R^1) use them
    rng = stream(9, "leibniz")
    f, g = random_bump(e1, rng), random_bump(e1, rng)
    sampler = BallSampler(dim=1, count=4, r_min=0.25, r_max=4.0)
    report = leibniz_test(
        e1, f, g, W1(e1), W1(e1), W1(e1), _leibniz_system(), 1.0, 1.0, 1.0,
        sampler, small_scheme,
    )
    assert len(report.terms) == 3
    assert report.rhs.samples == small_scheme.samples


@pytest.mark.parametrize("name", ["e1", "h1", "h2"])
def test_leibniz_sweep_pairs_overlap(name, request, monkeypatch):
    # g's centre is drawn in the ball about f's centre of half f's radius,
    # where u < 1/4 and f >= its height times e^(-1/3), so fg is well away
    # from 0 near g's centre; the trials are recorded, not run
    group = request.getfixturevalue(name)
    pairs = []
    monkeypatch.setattr(sweeps, "leibniz_test", lambda group, f, g, *a, **kw: pairs.append((f, g)))
    one = W1(group)
    for seed in range(8):
        leibniz_sweep(
            group, _leibniz_system(), one, one, one, 1.0, 1.0, 1.0, BallSampler(dim=group.n),
            QuadratureScheme(), configs=200, seed=seed,
        )
    assert len(pairs) == 8 * 200
    for f, g in pairs:
        centre = g.support.center
        assert group.distance(centre, f.support.center) < 0.5 * f.support.radius
        assert f(centre[None])[0] >= f.height * math.exp(-1.0 / 3.0)
        assert f(centre[None])[0] * g(centre[None])[0] > 0.0

import itertools
import math

import numpy as np
import pytest

from bruteforce_helpers import dilated_bump, gauge_bump_jets_longdouble, radial_bump_integral
from carnotlab.carnot import (
    GaugeBall,
    GaugeBump,
    HomogeneousPolynomial,
    euclidean_group,
    heisenberg_group,
    random_bump,
)
from carnotlab.carnot import derivatives
from carnotlab.errors import DomainError
from carnotlab.operators import (
    derivative_tuples,
    multilinear_fractional_integral,
    poincare_rhs,
    sobolev_rhs,
    sobolev_sublaplacian_rhs,
)
from carnotlab.quad import QuadratureScheme
from carnotlab.rng import stream
from carnotlab.weights import Weight


def indicator(e1):
    sup = GaugeBall([0.5], 0.5)

    class Chi:
        support = sup

        def __call__(self, p):
            x = np.atleast_2d(p)[:, 0]
            return ((x >= 0.0) & (x <= 1.0)).astype(float)

    return Chi()


# -- derivative tuples -----------------------------------------------------------


def test_tuples_bilinear_second_order():
    tuples = derivative_tuples(2, 2, 1)
    assert tuples == [((2,), (0,)), ((1,), (1,)), ((0,), (2,))]


def test_tuples_single_slot():
    for k in (1, 2, 5):
        tuples = derivative_tuples(1, k, 1)
        assert tuples == [((k,),)]


def test_tuples_two_generators():
    tuples = derivative_tuples(2, 1, 2)
    assert tuples == [
        ((1, 0), (0, 0)),
        ((0, 1), (0, 0)),
        ((0, 0), (1, 0)),
        ((0, 0), (0, 1)),
    ]


def _brute_force_count(m, k, n1):
    # concatenated multi-index over m*n1 variables with |alpha| = k
    count = 0
    for combo in itertools.product(range(k + 1), repeat=m * n1):
        if sum(combo) == k:
            count += 1
    return count


@pytest.mark.parametrize("m,k,n1", [(1, 3, 1), (2, 2, 1), (2, 1, 2), (2, 2, 2), (3, 2, 1), (2, 3, 2)])
def test_tuple_completeness(m, k, n1):
    tuples = derivative_tuples(m, k, n1)
    assert len(set(tuples)) == len(tuples)  # duplicate-free
    assert all(sum(sum(a) for a in t) == k for t in tuples)
    stars_and_bars = math.comb(k + m * n1 - 1, m * n1 - 1)
    assert len(tuples) == stars_and_bars
    assert len(tuples) == _brute_force_count(m, k, n1)


def test_tuples_validation():
    with pytest.raises(DomainError):
        derivative_tuples(0, 1, 1)
    with pytest.raises(DomainError):
        derivative_tuples(1, 0, 1)


# -- multilinear fractional integral ----------------------------------------------


def test_mfi_factorizes_at_full_order(e1):
    # m = 2, tau = mQ = 2: the kernel is constant 1, so the value is
    # prod_i int f_i = 1 for unit indicators
    chi = indicator(e1)
    scheme = QuadratureScheme(kind="annuli", samples=120000, levels=24, seed=5)
    est = multilinear_fractional_integral(e1, [chi, chi], 2.0, np.array([0.2]), scheme)
    assert abs(est.value - 1.0) <= 3.0 * max(est.std_error, 1e-12)


def test_mfi_multilinearity_same_seed(e1):
    chi = indicator(e1)

    class Scaled:
        support = chi.support

        def __init__(self, c):
            self.c = c

        def __call__(self, p):
            return self.c * chi(p)

    scheme = QuadratureScheme(kind="annuli", samples=24000, levels=24, seed=3)
    x = np.array([0.0])
    base = multilinear_fractional_integral(e1, [chi, chi], 1.0, x, scheme)
    doubled = multilinear_fractional_integral(e1, [Scaled(2.0), chi], 1.0, x, scheme)
    assert doubled.value == pytest.approx(2.0 * base.value, rel=0, abs=1e-13)


def test_mfi_requires_support(e1):
    class NoSupport:
        def __call__(self, p):
            return np.ones(np.atleast_2d(p).shape[0])

    with pytest.raises(DomainError):
        multilinear_fractional_integral(
            e1, [NoSupport()], 0.5, np.array([0.0]), QuadratureScheme(kind="annuli", samples=4000)
        )


def test_mfi_h1_bump_vs_radial_oracle(h1):
    # at its centre the bump is radial about the kernel point, and by left
    # invariance the integral is that of the same bump centred at 0
    bump = GaugeBump(h1, [0.1, -0.1, 0.0], 1.0)
    exact = radial_bump_integral(h1, bump, 2.0)
    mc = multilinear_fractional_integral(
        h1, [bump], 2.0, bump.support.center,
        QuadratureScheme(kind="annuli", samples=80000, levels=24, seed=17),
    )
    assert abs(mc.value - exact) <= 3.0 * max(mc.std_error, 0.02 * exact)


def test_mfi_monotone_on_dominated_pair(e1):
    chi = indicator(e1)

    class Half:
        support = chi.support

        def __call__(self, p):
            return 0.5 * chi(p)

    scheme = QuadratureScheme(kind="annuli", samples=24000, levels=24, seed=9)
    x = np.array([0.3])
    big = multilinear_fractional_integral(e1, [chi, chi], 1.0, x, scheme)
    small = multilinear_fractional_integral(e1, [Half(), Half()], 1.0, x, scheme)
    assert big.value > small.value >= 0.0


def test_dilation_covariance_bilinear(e1):
    # I(f_vec o delta_lam)(x) = lam^-tau I(f_vec)(delta_lam x), m=2, tau=1
    rng = stream(40, "dilation-cov")
    f1 = GaugeBump(e1, [0.4], 0.9)
    f2 = GaugeBump(e1, [-0.3], 1.1)
    scheme = QuadratureScheme(kind="annuli", samples=60000, levels=24, seed=41)
    tau = 1.0
    for trial in range(5):
        lam = float(rng.uniform(0.5, 2.0))
        x = np.array([float(rng.uniform(-1.0, 1.0))])
        gs = [dilated_bump(f1, lam), dilated_bump(f2, lam)]
        left = multilinear_fractional_integral(e1, gs, tau, x, scheme, op_id=f"cov-l{trial}")
        right = multilinear_fractional_integral(
            e1, [f1, f2], tau, e1.dilate(lam, x), scheme, op_id=f"cov-r{trial}"
        )
        combined = math.hypot(left.std_error, lam**-tau * right.std_error)
        assert abs(left.value - lam**-tau * right.value) <= 3.0 * combined


# -- inequality right-hand sides ---------------------------------------------------


def test_poincare_rhs_linear(e1, mc_scheme):
    # m = 1, k = 1, f = 3x: the only tuple gives |slope| |B|^(1/p)
    f = HomogeneousPolynomial(e1, {(1,): 3.0})
    w = Weight.one(e1)
    ball = GaugeBall([0.2], 1.0)
    for p in (1.5, 2.0):
        est, _ = poincare_rhs(e1, [f], [w], [p], ball, 1, mc_scheme)
        assert est.value == pytest.approx(3.0 * 2.0 ** (1.0 / p), rel=1e-10)
    with pytest.raises(DomainError, match="one weight and one exponent per function slot"):
        poincare_rhs(e1, [f], [w, w], [2.0], ball, 1, mc_scheme)


def test_poincare_rhs_zero_slot(e1, mc_scheme):
    zero = HomogeneousPolynomial.zero(e1)
    f = HomogeneousPolynomial(e1, {(2,): 1.0})
    w = Weight.one(e1)
    ball = GaugeBall([0.0], 1.0)
    est, _ = poincare_rhs(e1, [f, zero], [w, w], [2.0, 2.0], ball, 1, mc_scheme)
    assert est.value == 0.0


def test_poincare_rhs_quadratic_closed_forms(e1):
    # m = 2, k = 2, f1 = f2 = x^2 on B = (0, 1), p1 = p2 = 2:
    #   ||f''||_2 = 2, ||f'||_2 = 2/sqrt(3), ||f||_2 = 1/sqrt(5)
    # terms: 2/sqrt(5) + 4/3 + 2/sqrt(5)
    f = HomogeneousPolynomial(e1, {(2,): 1.0})
    w = Weight.one(e1)
    ball = GaugeBall([0.5], 0.5)
    scheme = QuadratureScheme(samples=200000, seed=23)
    est, terms = poincare_rhs(e1, [f, f], [w, w], [2.0, 2.0], ball, 2, scheme)
    expected = 4.0 / math.sqrt(5.0) + 4.0 / 3.0
    assert est.value == pytest.approx(expected, rel=5e-3)
    assert len(terms) == 3
    assert terms[0]["value"] == pytest.approx(2.0 / math.sqrt(5.0), rel=5e-3)
    assert terms[1]["value"] == pytest.approx(4.0 / 3.0, rel=5e-3)


def test_sobolev_rhs_uses_supports(e1, mc_scheme):
    bump = GaugeBump(e1, [0.0], 1.0)
    w = Weight.one(e1)
    est, _ = sobolev_rhs(e1, [bump], [w], [2.0], 1, mc_scheme)
    assert est.value > 0.0


def test_sublaplacian_rhs_single_slot(e1, mc_scheme):
    # m = 1: reduces to ||L f||_p over the support
    bump = GaugeBump(e1, [0.0], 1.0)
    w = Weight.one(e1)
    est, _ = sobolev_sublaplacian_rhs(e1, [bump], [w], [2.0], mc_scheme)
    from carnotlab.carnot import sub_laplacian
    from carnotlab.quad import lp_norm_ball

    direct = lp_norm_ball(
        e1, lambda p: sub_laplacian(e1, bump, p), w, 2.0, bump.support, mc_scheme,
        op_id="sublap-rhs/f0",
    )
    assert est.value == pytest.approx(direct.value, rel=1e-12)


class _WithSupport:
    """Adapter attaching an integration support ball to an evaluable."""

    def __init__(self, f, support):
        self._f = f
        self.support = support

    def __call__(self, p):
        return self._f(p)


def test_sublaplacian_rhs_harmonic_and_zero(e2, mc_scheme):
    # harmonic slot (L f = 0) with all other slots zero -> 0
    ball = GaugeBall([0.0, 0.0], 1.0)
    harmonic = _WithSupport(HomogeneousPolynomial(e2, {(1, 0): 1.0}), ball)  # L x = 0
    zero = _WithSupport(HomogeneousPolynomial.zero(e2), ball)
    w = Weight.one(e2)
    est, _ = sobolev_sublaplacian_rhs(e2, [harmonic, zero], [w, w], [2.0, 2.0], mc_scheme)
    assert est.value == pytest.approx(0.0, abs=1e-6)


def test_sublaplacian_rhs_bilinear_vs_term_oracle(e1):
    # term-by-term oracle on a bump pair: on R^1 each L^2 norm of f and of
    # L f = f'' is a 1-D integral over the bump's support interval, taken by
    # a Gauss-Legendre rule on longdouble jets
    f1 = GaugeBump(e1, [0.1], 0.8)
    f2 = GaugeBump(e1, [-0.2], 1.0)
    w = Weight.one(e1)
    x, wts = np.polynomial.legendre.leggauss(200)

    def norms(f):
        c, r = f.support.center[0], f.support.radius
        value, _, hess = gauge_bump_jets_longdouble(e1, f, (c + r * x)[:, None])
        return [math.sqrt(r * float(np.sum(wts * g**2))) for g in (value, hess[:, 0, 0])]

    (n1, l1), (n2, l2) = norms(f1), norms(f2)
    est, _ = sobolev_sublaplacian_rhs(
        e1, [f1, f2], [w, w], [2.0, 2.0], QuadratureScheme(samples=120000, seed=29)
    )
    assert est.value == pytest.approx(l1 * n2 + n1 * l2, rel=0.02)


def test_rhs_monotone_under_domination(e1, mc_scheme):
    big = GaugeBump(e1, [0.0], 1.0, height=2.0)
    small = GaugeBump(e1, [0.0], 1.0, height=1.0)
    w = Weight.one(e1)
    ball = GaugeBall([0.0], 1.0)
    a, _ = poincare_rhs(e1, [big], [w], [2.0], ball, 1, mc_scheme)
    b, _ = poincare_rhs(e1, [small], [w], [2.0], ball, 1, mc_scheme)
    assert a.value == pytest.approx(2.0 * b.value, rel=1e-12)
    assert a.value > b.value


def test_rhs_zero_slot_standard_error_finite(e1, e2, mc_scheme):
    # a slot whose norms are all 0 has an infinite d norm / d raw at 0; its
    # delta-method weight is 0, so the total's standard error stays finite
    zero = HomogeneousPolynomial.zero(e1)
    f = HomogeneousPolynomial(e1, {(2,): 1.0})
    w = Weight.one(e1)
    ball = GaugeBall([0.0], 1.0)
    for k in (1, 2):
        est, terms = poincare_rhs(e1, [f, zero], [w, w], [2.0, 2.0], ball, k, mc_scheme)
        assert est.value == 0.0 and math.isfinite(est.std_error)
        assert all(math.isfinite(t["std_error"]) for t in terms)
    bump = GaugeBump(e2, [0.0, 0.0], 1.0)
    zero2 = _WithSupport(HomogeneousPolynomial.zero(e2), bump.support)
    w2 = Weight.one(e2)
    est, _ = sobolev_sublaplacian_rhs(
        e2, [bump, zero2], [w2, w2], [4.0 / 3.0, 4.0 / 3.0], mc_scheme
    )
    assert est.value == 0.0 and est.std_error == 0.0


def _calibration(call, seeds=120):
    values, reported, independent = [], [], []
    for seed in range(seeds):
        est, terms = call(QuadratureScheme(samples=2048, seed=seed))
        values.append(est.value)
        reported.append(est.std_error)
        independent.append(math.sqrt(sum(t["std_error"] ** 2 for t in terms)))
    spread = float(np.std(values, ddof=1))
    return float(np.mean(reported)) / spread, float(np.mean(independent)) / spread


_H1 = heisenberg_group(1)
_E2 = euclidean_group(2)


@pytest.mark.parametrize(
    "call",
    [
        lambda scheme: poincare_rhs(
            _H1,
            [GaugeBump(_H1, [0.1, -0.1, 0.0], 1.0), GaugeBump(_H1, [-0.2, 0.1, 0.05], 0.8, 1.5)],
            [Weight.power(_H1, 0.25)] * 2,
            [4.0 / 3.0, 4.0 / 3.0],
            GaugeBall([0.0, 0.0, 0.0], 1.0),
            2,
            scheme,
        ),
        lambda scheme: sobolev_sublaplacian_rhs(
            _E2,
            [GaugeBump(_E2, [0.1, -0.1], 1.0), GaugeBump(_E2, [-0.2, 0.1], 0.8, 1.5)],
            [Weight.one(_E2)] * 2,
            [4.0 / 3.0, 4.0 / 3.0],
            scheme,
        ),
    ],
    ids=["poincare-h1-k2", "sublaplacian-e2"],
)
def test_rhs_standard_error_calibrated(call):
    # the terms share each slot's nodes: the delta-method standard error matches
    # the spread over seeds, while treating the terms as independent does not
    delta, independent = _calibration(call)
    assert abs(delta - 1.0) <= 0.25
    assert abs(independent - 1.0) > 0.25


def test_poincare_rhs_jets_reach_only_the_live_nodes(h1, count_calls):
    # Work count on one poincare-h1-shaped trial: H^1, m = 2, k = 2, 4,096
    # nodes, bumps and ball drawn from that workload's ranges.  Each slot's 5
    # keys of order 1 and 2 are read from the jets on the bump's live nodes
    # only; a dense evaluation sends every node with every key.
    rng = stream(23, "rhs-live-work")
    fs = [random_bump(h1, rng, center_box=1.0, radius_range=(0.4, 1.5)) for _ in range(2)]
    radius = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    ball = GaugeBall(rng.uniform(-0.5, 0.5, size=3), radius)
    scheme = QuadratureScheme(kind="uniform", samples=4096, seed=23)
    vs = [Weight.power(h1, 0.25)] * 2
    record = lambda jets, *rest: len(jets[0])
    first = count_calls(derivatives, "_first_order_jet", record)
    second = count_calls(derivatives, "_second_order_jet", record)
    poincare_rhs(h1, fs, vs, [4.0 / 3.0] * 2, ball, 2, scheme)
    reached = first + second
    keys = {alpha for tup in derivative_tuples(2, 2, 2) for alpha in tup if sum(alpha) > 0}
    assert len(keys) == 5 and len(reached) == 2 * len(keys)
    assert 0 < sum(reached) <= 0.4 * 2 * scheme.samples * len(keys)

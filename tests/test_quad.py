import logging
import math
import re

import numpy as np
import pytest

from carnotlab.carnot import GaugeBall, GaugeBump, ball_volume
from carnotlab import quad
from carnotlab.errors import DomainError, HypothesisError, IntegrationError, StructureError
from carnotlab.quad import (
    Estimate,
    QuadratureScheme,
    estimate_product,
    estimate_sum,
    integrate_ball,
    integrate_singular_product,
    lp_norm_ball,
    product_integrand,
    quadrature_nodes,
    sample_ball,
)
from carnotlab.rng import stream
from carnotlab.weights import Weight

ONE = lambda p: np.ones(p.shape[0])


def indicator_01(e1):
    sup = GaugeBall([0.5], 0.5)

    class Chi:
        support = sup

        def __call__(self, p):
            x = np.atleast_2d(p)[:, 0]
            return ((x >= 0.0) & (x <= 1.0)).astype(float)

    return Chi()


# -- scheme invariants --------------------------------------------------------


def test_scheme_validation():
    with pytest.raises(DomainError):
        QuadratureScheme(kind="uniform", samples=100).validate()
    with pytest.raises(DomainError):
        QuadratureScheme(kind="annuli", samples=5000, levels=2).validate()
    with pytest.raises(DomainError):
        QuadratureScheme(kind="nonsense").validate()
    QuadratureScheme(kind="uniform", samples=1000).validate()


# -- integrate_ball -----------------------------------------------------------


def test_constant_integrand_gives_volume(e2, h1, mc_scheme):
    for group in (e2, h1):
        ball = GaugeBall(np.zeros(group.n), 1.3)
        est = integrate_ball(group, ONE, ball, mc_scheme)
        assert est.value == pytest.approx(ball_volume(group, 1.3), rel=1e-12)


def test_odd_function_integrates_to_zero(e1, mc_scheme):
    ball = GaugeBall([0.0], 1.0)
    est = integrate_ball(e1, lambda p: p[:, 0], ball, mc_scheme)
    assert abs(est.value) <= 3.0 * est.std_error


def test_x_squared_on_unit_disk(e2, mc_scheme):
    ball = GaugeBall([0.0, 0.0], 1.0)
    est = integrate_ball(e2, lambda p: p[:, 0] ** 2, ball, mc_scheme)
    assert abs(est.value - math.pi / 4.0) <= 3.0 * est.std_error


def test_grid_has_zero_std_error(e2):
    ball = GaugeBall([0.0, 0.0], 1.0)
    scheme = QuadratureScheme(kind="grid", points_per_axis=400)
    est = integrate_ball(e2, lambda p: p[:, 0] ** 2, ball, scheme)
    assert est.std_error == 0.0
    assert est.value == pytest.approx(math.pi / 4.0, rel=1e-3)


def test_seed_determinism_bit_identical(e2, mc_scheme):
    ball = GaugeBall([0.1, -0.2], 0.8)
    f = lambda p: np.cos(p[:, 0]) * p[:, 1] ** 2
    a = integrate_ball(e2, f, ball, mc_scheme)
    b = integrate_ball(e2, f, ball, mc_scheme)
    assert a.value == b.value and a.std_error == b.std_error
    c = integrate_ball(e2, f, ball, mc_scheme.with_(seed=999))
    assert c.value != a.value


def test_non_finite_integrand_raises(e1, mc_scheme):
    ball = GaugeBall([0.0], 1.0)
    with pytest.raises(IntegrationError) as err:
        integrate_ball(e1, lambda p: np.where(p[:, 0] > 0, np.inf, 1.0), ball, mc_scheme)
    assert err.value.point is not None


def test_positivity(e2, h1, mc_scheme, annuli_scheme):
    for group in (e2, h1):
        ball = GaugeBall(np.zeros(group.n), 1.0)
        f = lambda p: np.abs(p[:, 0]) + 0.1
        est_u = integrate_ball(group, f, ball, mc_scheme)
        est_a = integrate_ball(group, f, ball, annuli_scheme)
        assert est_u.value >= 0.0 and est_a.value >= 0.0


def test_annuli_agrees_with_uniform_on_smooth(e2, h1):
    for group, seed in ((e2, 21), (h1, 22)):
        ball = GaugeBall(np.zeros(group.n), 1.0)
        f = lambda p: np.exp(-np.sum(p * p, axis=1))
        u = integrate_ball(group, f, ball, QuadratureScheme(samples=40000, seed=seed))
        a = integrate_ball(
            group, f, ball, QuadratureScheme(kind="annuli", samples=40000, levels=12, seed=seed)
        )
        combined = math.hypot(u.std_error, a.std_error)
        assert abs(u.value - a.value) <= 3.0 * combined


def test_error_shrinks_with_samples(e2):
    ball = GaugeBall([0.0, 0.0], 1.0)
    f = lambda p: p[:, 0] ** 2
    exact = math.pi / 4.0
    errs = []
    stds = []
    for n in (4000, 64000):
        est = integrate_ball(e2, f, ball, QuadratureScheme(samples=n, seed=3))
        errs.append(abs(est.value - exact))
        stds.append(est.std_error)
    assert errs[1] < errs[0]
    # sigma ~ N^(-1/2) within a factor 2: ratio should be near 4
    assert 2.0 <= stds[0] / stds[1] <= 8.0


def test_sample_ball_inside_and_uniform(h1):
    ball = GaugeBall([0.5, -0.3, 0.2], 0.7)
    pts = sample_ball(h1, ball, 5000, stream(2, "sample-ball"))
    assert np.all(ball.contains(h1, pts))
    # halving the radius splits mass by the volume law
    inner = GaugeBall(ball.center, 0.7 / 2.0)
    frac = float(np.mean(inner.contains(h1, pts)))
    assert abs(frac - 2.0**-h1.homogeneous_dimension) < 0.02


def _drawn_and_accepted(caplog):
    match = re.search(r"sample_ball: (\d+)/(\d+) drawn points accepted", caplog.text)
    return int(match.group(2)), int(match.group(1))


def test_sample_ball_logs_accepted_draws(h1, caplog):
    # replay the draws the log reports: that many rows of the stream hold
    # the reported number of points that pass the gauge test
    ball = GaugeBall([0.5, -0.3, 0.2], 0.7)
    with caplog.at_level(logging.DEBUG, logger="carnotlab.quad"):
        pts = sample_ball(h1, ball, 100, stream(4, "sample-ball-log"))
    drawn, accepted = _drawn_and_accepted(caplog)
    u = (stream(4, "sample-ball-log").random((drawn, 3)) * 2.0 - 1.0) * 0.7**h1.weights
    keep = u[h1.gauge_norm(u) < 0.7]
    assert keep.shape[0] == accepted >= 100
    assert np.array_equal(pts, h1.compose(ball.center, keep[:100]))


@pytest.mark.parametrize("group_id", ["e1", "h1"])
def test_sample_ball_is_prefix_of_one_long_draw(group_id, request, caplog):
    # the nodes are the first `count` accepted rows of one long draw, whatever
    # the chunks; on R^1, where the box is the ball, few draws are thrown away
    group = request.getfixturevalue(group_id)
    ball = GaugeBall(np.full(group.n, 0.2), 0.8)
    ext = 0.8**group.weights
    for count in (100, 1000, 4096):
        with caplog.at_level(logging.DEBUG, logger="carnotlab.quad"):
            caplog.clear()
            pts = sample_ball(group, ball, count, stream(6, f"prefix/{count}"))
        u = (stream(6, f"prefix/{count}").random((8 * count, group.n)) * 2.0 - 1.0) * ext
        keep = u[group.gauge_norm(u) < 0.8][:count]
        assert np.array_equal(pts, group.compose(ball.center, keep))
        drawn, _ = _drawn_and_accepted(caplog)
        if group_id == "e1" and count >= 1000:
            assert drawn <= 1.25 * count


def test_quadrature_nodes_reproducible(e2, mc_scheme):
    ball = GaugeBall([0.0, 0.0], 1.0)
    a = quadrature_nodes(e2, ball, mc_scheme, "shared")
    b = quadrature_nodes(e2, ball, mc_scheme, "shared")
    assert np.array_equal(a, b)


# -- lp norms -----------------------------------------------------------------


def test_lp_norm_constant(e1, mc_scheme):
    ball = GaugeBall([0.0], 1.0)
    w = Weight.one(e1)
    for p in (0.5, 1.0, 2.0, 3.0):
        est = lp_norm_ball(e1, ONE, w, p, ball, mc_scheme)
        assert est.value == pytest.approx(2.0 ** (1.0 / p), rel=1e-10)


def test_lp_norm_closed_form(e1, mc_scheme):
    ball = GaugeBall([0.0], 1.0)
    w = Weight.one(e1)
    est = lp_norm_ball(e1, lambda p: p[:, 0], w, 2.0, ball, mc_scheme)
    assert abs(est.value - math.sqrt(2.0 / 3.0)) <= 3.0 * max(est.std_error, 1e-4)


def test_lp_quasinorm_indicator(e1, mc_scheme):
    # p = 1/2 of a half-ball indicator: (|B|/2)^(1/p) = (|B|/2)^2
    ball = GaugeBall([0.0], 1.0)
    w = Weight.one(e1)
    f = lambda p: (p[:, 0] > 0).astype(float)
    est = lp_norm_ball(e1, f, w, 0.5, ball, mc_scheme)
    assert est.value == pytest.approx(1.0, rel=0.02)


def test_lp_norm_monotone_on_dominated_pair(e2, mc_scheme):
    ball = GaugeBall([0.0, 0.0], 1.0)
    w = Weight.one(e2)
    big = lambda p: np.abs(p[:, 0]) + 0.5
    small = lambda p: np.abs(p[:, 0])
    for p in (0.5, 1.0, 2.0):
        a = lp_norm_ball(e2, big, w, p, ball, mc_scheme, op_id="shared-pair")
        b = lp_norm_ball(e2, small, w, p, ball, mc_scheme, op_id="shared-pair")
        assert a.value > b.value


def test_lp_norm_zero_times_infinite_weight(e1, mc_scheme, recwarn):
    # d^-400 overflows to inf for |x| below about 0.17, where f vanishes: 0 * inf = 0.
    # Off the hole, f w = (2|x|)^-400 <= 1, so int_B f w = (1 - 2^-399) / 399.
    ball = GaugeBall([0.0], 1.0)
    w = Weight.power(e1, -400.0)
    f = lambda p: np.where(np.abs(p[:, 0]) >= 0.5, 2.0**-400, 0.0)
    assert np.isinf(w(np.array([[0.1]])))[0]
    mc = lp_norm_ball(e1, f, w, 1.0, ball, mc_scheme)
    assert math.isfinite(mc.value) and math.isfinite(mc.std_error)
    grid = lp_norm_ball(
        e1, f, w, 1.0, ball, QuadratureScheme(kind="grid", points_per_axis=200_000)
    )
    assert grid.value == pytest.approx((1.0 - 2.0**-399) / 399.0, rel=1e-3)
    assert not [r for r in recwarn if issubclass(r.category, RuntimeWarning)]


_BATCH_SCHEMES = {
    "uniform": QuadratureScheme(kind="uniform", samples=4096, seed=31),
    "grid": QuadratureScheme(kind="grid", points_per_axis=24),
    "annuli": QuadratureScheme(kind="annuli", samples=6000, levels=12, seed=31),
}


@pytest.mark.parametrize("kind", sorted(_BATCH_SCHEMES))
def test_lp_norm_batch_rows_match_single_calls(h1, kind):
    # A rows on one node set: each row is the single-function call with the same
    # op_id bit for bit, and the covariance diagonal is each row's raw variance
    scheme = _BATCH_SCHEMES[kind]
    ball = GaugeBall([0.1, -0.2, 0.05], 0.9)
    bump = GaugeBump(h1, [0.2, 0.0, 0.1], 0.8, height=1.5)
    fs = [bump, lambda p: p[:, 0] * bump(p), lambda p: np.zeros(p.shape[0])]
    w = Weight.power(h1, 0.25)
    p = 4.0 / 3.0
    norms, cov = lp_norm_ball(
        h1, lambda pts: np.stack([f(pts) for f in fs]), w, p, ball, scheme, op_id="batch"
    )
    assert len(norms) == len(fs) and cov.shape == (len(fs), len(fs))
    for a, f in enumerate(fs):
        single = lp_norm_ball(h1, f, w, p, ball, scheme, op_id="batch")
        assert norms[a].to_dict() == single.to_dict()
        assert norms[a].note == single.note
        raw = integrate_ball(
            h1, lambda pts, f=f: (np.abs(f(pts)) * w(pts)) ** p, ball, scheme, op_id="batch"
        )
        assert cov[a, a] == pytest.approx(raw.std_error**2, rel=1e-12, abs=0.0)
    if kind == "grid":
        assert not np.any(cov)
    else:
        assert cov[0, 1] > 0.0  # the rows share nodes


def test_integrate_ball_single_row_shape_kept(e1, mc_scheme):
    # an integrand returning one (N,) row still gives one Estimate
    assert isinstance(integrate_ball(e1, ONE, GaugeBall([0.0], 1.0), mc_scheme), Estimate)
    ests, cov = integrate_ball(
        e1, lambda p: ONE(p)[None], GaugeBall([0.0], 1.0), mc_scheme
    )
    assert len(ests) == 1 and cov.shape == (1, 1)


def test_lp_norm_invalid_exponent(e1, mc_scheme):
    with pytest.raises(DomainError):
        lp_norm_ball(e1, ONE, Weight.one(e1), 0.0, GaugeBall([0.0], 1.0), mc_scheme)


# -- singular product-domain integrals -----------------------------------------


def test_kernel_exponent_zero(e1):
    chi = indicator_01(e1)
    scheme = QuadratureScheme(kind="annuli", samples=120000, levels=24, seed=1234)
    for x in (0.0, 3.0, -1.7):
        est = integrate_singular_product(
            e1, 1, lambda Y: chi(Y[:, 0, :]), np.array([x]), 1.0, [chi.support], scheme
        )
        assert abs(est.value - 1.0) <= 3.0 * max(est.std_error, 1e-12)


def test_inverse_sqrt_closed_form(e1):
    chi = indicator_01(e1)
    scheme = QuadratureScheme(kind="annuli", samples=120000, levels=24, seed=1234)
    est = integrate_singular_product(
        e1, 1, lambda Y: chi(Y[:, 0, :]), np.array([0.0]), 0.5, [chi.support], scheme
    )
    assert abs(est.value - 2.0) <= 3.0 * est.std_error


def test_bilinear_kernel_vs_grid_oracle(e1):
    chi = indicator_01(e1)
    integrand = product_integrand([chi, chi])
    supports = [chi.support, chi.support]
    x = np.array([0.0])
    grid = integrate_singular_product(
        e1, 2, integrand, x, 1.0, supports, QuadratureScheme(kind="grid", points_per_axis=1500)
    )
    assert grid.value == pytest.approx(2.0 * math.log(2.0), rel=2e-3)
    mc = integrate_singular_product(
        e1, 2, integrand, x, 1.0, supports,
        QuadratureScheme(kind="annuli", samples=60000, levels=24, seed=8),
    )
    assert abs(mc.value - grid.value) <= 3.0 * mc.std_error


def test_uniform_vs_annuli_product_nonsingular(e1):
    # x outside the supports: the kernel is smooth, both schemes agree
    chi = indicator_01(e1)
    integrand = product_integrand([chi, chi])
    supports = [chi.support, chi.support]
    x = np.array([-2.0])
    u = integrate_singular_product(
        e1, 2, integrand, x, 1.0, supports, QuadratureScheme(samples=40000, seed=77)
    )
    a = integrate_singular_product(
        e1, 2, integrand, x, 1.0, supports,
        QuadratureScheme(kind="annuli", samples=40000, levels=12, seed=77),
    )
    assert abs(u.value - a.value) <= 3.0 * math.hypot(u.std_error, a.std_error)


def test_hypothesis_violations(e1, annuli_scheme):
    chi = indicator_01(e1)
    with pytest.raises(HypothesisError):
        integrate_singular_product(
            e1, 1, lambda Y: ONE(Y), np.array([0.0]), 1.5, [chi.support], annuli_scheme
        )
    with pytest.raises(DomainError):
        integrate_singular_product(
            e1, 1, lambda Y: ONE(Y), np.array([0.0]), 0.0, [chi.support], annuli_scheme
        )


def test_singular_h1_bump_vs_grid(h1):
    bump = GaugeBump(h1, [0.0, 0.0, 0.0], 1.0)
    integrand = product_integrand([bump])
    x = np.array([0.0, 0.0, 0.0])
    grid = integrate_singular_product(
        h1, 1, integrand, x, 2.0, [bump.support],
        QuadratureScheme(kind="grid", points_per_axis=120),
    )
    mc = integrate_singular_product(
        h1, 1, integrand, x, 2.0, [bump.support],
        QuadratureScheme(kind="annuli", samples=60000, levels=24, seed=12),
    )
    assert abs(mc.value - grid.value) <= 3.0 * max(mc.std_error, 0.02 * grid.value)


@pytest.mark.parametrize("kind", ["uniform", "grid"])
def test_singular_product_batch_rows_match_single_points(e1, h1, kind):
    cases = [
        (e1, [GaugeBump(e1, [0.2], 0.9), GaugeBump(e1, [-0.3], 1.1)], 1.5, 40),
        (h1, [GaugeBump(h1, [0.1, -0.1, 0.0], 1.0)], 2.0, 24),
        # tau = mQ: the kernel is the constant 1
        (e1, [GaugeBump(e1, [0.2], 0.9), GaugeBump(e1, [-0.3], 1.1)], 2.0, 40),
    ]
    for group, fs, tau, pp in cases:
        scheme = QuadratureScheme(kind=kind, samples=3000, points_per_axis=pp, seed=21)
        supports = [f.support for f in fs]
        xs = stream(22, "batch-rows").uniform(-0.8, 0.8, size=(7, group.n))
        batch = integrate_singular_product(
            group, len(fs), product_integrand(fs), xs, tau, supports, scheme, op_id="rows"
        )
        assert isinstance(batch, list) and len(batch) == len(xs)
        for x, row in zip(xs, batch):
            one = integrate_singular_product(
                group, len(fs), product_integrand(fs), x, tau, supports, scheme, op_id="rows"
            )
            assert isinstance(one, Estimate)
            assert one.to_dict() == row.to_dict() and one.note == row.note


@pytest.mark.parametrize("kind", ["uniform", "grid"])
def test_singular_product_row_blocks_do_not_change_values(e1, monkeypatch, kind):
    fs = [GaugeBump(e1, [0.2], 0.9), GaugeBump(e1, [-0.3], 1.1)]
    supports = [f.support for f in fs]
    scheme = QuadratureScheme(kind=kind, samples=3000, points_per_axis=60, seed=23)
    xs = np.linspace(-1.0, 1.0, 50)[:, None]  # several row blocks at the default size

    def run():
        est = integrate_singular_product(
            e1, 2, product_integrand(fs), xs, 1.0, supports, scheme, op_id="blocks"
        )
        return [e.to_dict() for e in est]

    default = run()
    for block in (1, 1 << 40):
        monkeypatch.setattr(quad, "_KERNEL_BLOCK", block)
        assert run() == default


def test_singular_product_annuli_batch_is_per_point_loop(e1):
    fs = [GaugeBump(e1, [0.2], 0.9), GaugeBump(e1, [-0.3], 1.1)]
    supports = [f.support for f in fs]
    scheme = QuadratureScheme(kind="annuli", samples=6000, levels=8, seed=25)
    xs = np.array([[-0.5], [0.0], [0.4]])
    batch = integrate_singular_product(
        e1, 2, product_integrand(fs), xs, 1.0, supports, scheme, op_id="ann"
    )
    loop = [
        integrate_singular_product(
            e1, 2, product_integrand(fs), x, 1.0, supports, scheme, op_id="ann"
        )
        for x in xs
    ]
    assert [e.to_dict() for e in batch] == [e.to_dict() for e in loop]


@pytest.mark.parametrize("kind", sorted(_BATCH_SCHEMES))
def test_ball_integral_is_singular_product_with_one_slot(e1, h1, kind):
    # a ball integral is the m = 1, tau = Q case of the product integral:
    # the two public paths run the same engine and agree bit for bit
    scheme = _BATCH_SCHEMES[kind]
    for group in (e1, h1):
        ball = GaugeBall(np.full(group.n, 0.1), 0.9)
        f = GaugeBump(group, np.full(group.n, 0.2), 0.8, height=1.5)
        for x in (np.full(group.n, 0.15), np.full(group.n, 2.5)):  # inside, outside
            ball_est = integrate_ball(group, f, ball, scheme, op_id="one", singularity=x)
            mfi = integrate_singular_product(
                group, 1, lambda Y: f(Y[:, 0, :]), x, group.homogeneous_dimension, [ball],
                scheme, op_id="one",
            )
            assert mfi.to_dict() == ball_est.to_dict() and mfi.note == ball_est.note


def test_singular_product_rejects_wrong_point_shape(h1, mc_scheme):
    bump = GaugeBump(h1, [0.0, 0.0, 0.0], 1.0)
    with pytest.raises(StructureError):
        integrate_singular_product(
            h1, 1, product_integrand([bump]), np.zeros((4, 2)), 2.0, [bump.support], mc_scheme
        )


# -- estimate algebra -----------------------------------------------------------


def test_estimate_algebra():
    a = Estimate(2.0, 0.1, 100)
    b = Estimate(3.0, 0.2, 100)
    s = estimate_sum([a, b])
    assert s.value == 5.0 and s.std_error == pytest.approx(math.hypot(0.1, 0.2))
    p = estimate_product([a, b])
    assert p.value == 6.0
    assert p.std_error == pytest.approx(math.hypot(0.1 * 3.0, 0.2 * 2.0))
    z = estimate_product([a, Estimate(0.0, 0.2, 100)])
    assert z.value == 0.0 and z.std_error == pytest.approx(0.2 * 2.0)
    r = a.powered(0.5)
    assert r.value == pytest.approx(math.sqrt(2.0))
    assert r.std_error == pytest.approx(0.5 * 2.0**-0.5 * 0.1)


def test_estimate_serialization():
    est = Estimate(1.5, 0.01, 1000, seed=7)
    d = est.to_dict()
    assert d == {"value": 1.5, "std_error": 0.01, "samples": 1000, "seed": 7, "flagged": False}

import dataclasses
import hashlib
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
    integrate_ball,
    integrate_singular_product,
    lp_norm_ball,
    product_integrand,
    sample_ball,
)
from carnotlab.operators import jet_rows
from carnotlab.rng import stream
from carnotlab.weights import Weight

from bruteforce_helpers import (
    DEAD_BALL_GROUPS,
    Spiky,
    quadrature_nodes,
    radial_bump_integral,
    support_mix,
)

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
    for kind in ("nonsense", "grid"):
        with pytest.raises(DomainError, match="unknown quadrature kind"):
            QuadratureScheme(kind=kind).validate()
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


def test_seed_determinism_bit_identical(e2, mc_scheme):
    ball = GaugeBall([0.1, -0.2], 0.8)
    f = lambda p: np.cos(p[:, 0]) * p[:, 1] ** 2
    a = integrate_ball(e2, f, ball, mc_scheme)
    b = integrate_ball(e2, f, ball, mc_scheme)
    assert a.value == b.value and a.std_error == b.std_error
    c = integrate_ball(e2, f, ball, dataclasses.replace(mc_scheme, seed=999))
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


def test_sample_ball_second_pass_is_prefix_of_one_long_draw(h1, caplog):
    # seed 12013 is one of the rare seeds whose first chunk accepts fewer
    # than the 2 nodes asked for, so a second pass draws more; the nodes
    # are still the first accepted rows of one long draw, alone or in a list
    ball, other = GaugeBall([0.2, 0.2, 0.2], 0.8), GaugeBall([-0.4, 0.1, 0.3], 1.3)
    ext = 0.8**h1.weights
    accept = ball_volume(h1, 0.8) / np.prod(2.0 * ext)
    first = math.ceil((2 + 4.0 * math.sqrt(2 * (1.0 - accept))) / accept)
    with caplog.at_level(logging.DEBUG, logger="carnotlab.quad"):
        pts = sample_ball(h1, ball, 2, stream(12013, "second-pass/2"))
    drawn, accepted = _drawn_and_accepted(caplog)
    assert drawn > first
    u = (stream(12013, "second-pass/2").random((drawn, 3)) * 2.0 - 1.0) * ext
    keep = u[h1.gauge_norm(u) < 0.8]
    assert keep.shape[0] == accepted >= 2
    assert np.array_equal(pts, h1.compose(ball.center, keep[:2]))
    rngs = [stream(12013, "second-pass/2"), stream(5, "second-pass/other")]
    both = sample_ball(h1, [ball, other], 2, rngs)
    assert np.array_equal(both[:2], pts)
    assert np.array_equal(both[2:], sample_ball(h1, other, 2, stream(5, "second-pass/other")))


@pytest.mark.parametrize("gid", ["e1", "e2", "h1", "h2", "step2:3x2"])
def test_ball_nodes_are_unit_ball_nodes_mapped_by_c_delta_r(gid, request):
    # a stream gives one unit node set V, and B(c, r) gets c o delta_r(V) bit
    # for bit: the rejection test never sees the ball
    group = DEAD_BALL_GROUPS[gid] if gid in DEAD_BALL_GROUPS else request.getfixturevalue(gid)
    rng = np.random.default_rng(18)
    unit_ball = GaugeBall(np.zeros(group.n), 1.0)
    for j in range(16):
        center = rng.uniform(-2.0, 2.0, group.n)
        radius = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
        pts = sample_ball(group, GaugeBall(center, radius), 4096, stream(18, f"unit/{j}"))
        unit = sample_ball(group, unit_ball, 4096, stream(18, f"unit/{j}"))
        assert np.array_equal(pts, group.compose(center, group.dilate(radius, unit)))


def test_sample_ball_zero_count_is_empty(e1, h1):
    # the debug log's acceptance percentage once divided by zero draws
    assert sample_ball(e1, GaugeBall([0.0], 1.0), 0, stream(0, "z")).shape == (0, 1)
    assert sample_ball(h1, GaugeBall([0.0, 0.0, 0.0], 1.0), 0, stream(0, "z")).shape == (0, 3)


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
    assert abs(mc.value - (1.0 - 2.0**-399) / 399.0) <= 3.0 * mc.std_error
    assert not [r for r in recwarn if issubclass(r.category, RuntimeWarning)]


def _recording(fn, seen):
    def call(pts):
        seen.append(np.array(pts))
        return fn(pts)

    return call


@pytest.mark.parametrize("rows", [False, True])
def test_lp_norm_calls_the_weight_only_where_f_is_nonzero(h1, rows):
    # w and the p-th power only on the nodes where some row of |f| is non-zero;
    # the norms and their covariance equal a dense evaluation bit for bit
    scheme = QuadratureScheme(kind="uniform", samples=4096, seed=41)
    ball = GaugeBall([0.1, -0.2, 0.05], 0.9)
    bump = GaugeBump(h1, [0.6, 0.3, -0.2], 0.5, height=1.5)
    f = jet_rows(h1, bump, [(0, 0), (1, 0), (0, 2)]) if rows else bump
    w, p = Weight.power(h1, 0.25), 4.0 / 3.0
    nodes, weighed = [], []
    out = lp_norm_ball(
        h1, _recording(f, nodes), _recording(w, weighed), p, ball, scheme, op_id="live"
    )
    [pts], [seen] = nodes, weighed
    on = np.any(np.atleast_2d(f(pts)) != 0.0, axis=0)
    assert 0 < on.sum() < 0.5 * len(pts)
    np.testing.assert_array_equal(seen, pts[on])

    def dense(pts):
        vals = np.abs(f(pts))
        with np.errstate(invalid="ignore", over="ignore"):
            return np.where(vals == 0.0, 0.0, (vals * w(pts)) ** p)

    raw = integrate_ball(h1, dense, ball, scheme, op_id="live")
    if rows:
        (norms, cov), (raws, raw_cov) = out, raw
        assert [n.to_dict() for n in norms] == [r.powered(1.0 / p).to_dict() for r in raws]
        np.testing.assert_array_equal(cov(), raw_cov())
    else:
        assert out.to_dict() == raw.powered(1.0 / p).to_dict()


@pytest.mark.parametrize("c", [1.0, 1.7])
@pytest.mark.parametrize("shape", ["one-ball", "ball-list", "jet-rows"])
def test_lp_norm_constant_weight_matches_the_general_path(h1, count_calls, shape, c):
    # a constant Weight is the number c and is never called; the norms and
    # covariances equal those of the same constant as a plain callable,
    # which takes the gather-and-scatter path, bit for bit
    scheme = QuadratureScheme(kind="uniform", samples=4096, seed=43)
    bump = GaugeBump(h1, [0.6, 0.3, -0.2], 0.5, height=1.5)
    f = jet_rows(h1, bump, [(0, 0), (1, 0), (0, 2)]) if shape == "jet-rows" else bump
    ball = GaugeBall([0.1, -0.2, 0.05], 0.9)
    if shape == "ball-list":  # the second ball misses the bump's support box
        ball = [ball, GaugeBall([3.0, 0.0, 0.0], 0.5), GaugeBall([0.5, 0.2, 0.0], 0.4)]
    weighed = count_calls(Weight, "power_rows")
    for p in (4.0 / 3.0, 2.0, 0.5):
        fast = lp_norm_ball(h1, f, Weight.const(h1, c), p, ball, scheme, op_id="const")
        general = lp_norm_ball(
            h1, f, lambda pts: np.full(len(pts), c), p, ball, scheme, op_id="const"
        )
        pairs = zip(fast, general) if shape == "ball-list" else [(fast, general)]
        assert all(_same_outputs(a, b) for a, b in pairs)
    assert weighed == []


@pytest.mark.parametrize("c", [1.0, 1.7])
def test_lp_norm_constant_weight_overflow_still_raises(e1, c):
    # (|f| c)^p overflows to inf on the nodes near the peak: IntegrationError
    # at the node the general path reports
    scheme = QuadratureScheme(kind="uniform", samples=2048, seed=44)
    huge = GaugeBump(e1, [0.0], 1.0, height=1e200)
    points = []
    for w in (Weight.const(e1, c), lambda pts: np.full(len(pts), c)):
        with pytest.raises(IntegrationError) as err:
            lp_norm_ball(e1, huge, w, 2.0, GaugeBall([0.0], 1.0), scheme)
        points.append(err.value.point)
    np.testing.assert_array_equal(*points)


def test_lp_norm_non_finite_values_still_raise_at_their_node(h1):
    # a NaN in f, or a non-finite w where f != 0, raises at that node
    scheme = QuadratureScheme(kind="uniform", samples=2048, seed=42)
    ball = GaugeBall([0.0, 0.0, 0.0], 1.0)
    bump = GaugeBump(h1, [0.5, 0.0, 0.0], 0.6)
    w = Weight.power(h1, 0.25)
    nodes = []

    def nan_at_first_node(pts):
        vals = bump(pts)
        vals[0] = np.nan
        return vals

    with pytest.raises(IntegrationError) as err:
        lp_norm_ball(h1, _recording(nan_at_first_node, nodes), w, 1.5, ball, scheme)
    np.testing.assert_array_equal(err.value.point, nodes[0][0])

    def inf_at_third(pts):
        out = w(pts)
        out[2] = np.inf
        return out

    nodes.clear()
    with pytest.raises(IntegrationError) as err:
        lp_norm_ball(h1, _recording(bump, nodes), inf_at_third, 1.5, ball, scheme)
    on = np.flatnonzero(bump(nodes[0]))
    np.testing.assert_array_equal(err.value.point, nodes[0][on[2]])


_BATCH_SCHEMES = {
    "uniform": QuadratureScheme(kind="uniform", samples=4096, seed=31),
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
    norms, covariance = lp_norm_ball(
        h1, lambda pts: np.stack([f(pts) for f in fs]), w, p, ball, scheme, op_id="batch"
    )
    cov = covariance()
    assert len(norms) == len(fs) and cov.shape == (len(fs), len(fs))
    for a, f in enumerate(fs):
        single = lp_norm_ball(h1, f, w, p, ball, scheme, op_id="batch")
        assert norms[a].to_dict() == single.to_dict()
        assert norms[a].note == single.note
        raw = integrate_ball(
            h1, lambda pts, f=f: (np.abs(f(pts)) * w(pts)) ** p, ball, scheme, op_id="batch"
        )
        assert cov[a, a] == pytest.approx(raw.std_error**2, rel=1e-12, abs=0.0)
    assert cov[0, 1] > 0.0  # the rows share nodes


def test_integrate_ball_single_row_shape_kept(e1, mc_scheme):
    # an integrand returning one (N,) row still gives one Estimate
    assert isinstance(integrate_ball(e1, ONE, GaugeBall([0.0], 1.0), mc_scheme), Estimate)
    ests, cov = integrate_ball(
        e1, lambda p: ONE(p)[None], GaugeBall([0.0], 1.0), mc_scheme
    )
    assert len(ests) == 1 and cov().shape == (1, 1)


def test_lp_norm_invalid_exponent(e1, mc_scheme):
    with pytest.raises(DomainError):
        lp_norm_ball(e1, ONE, Weight.one(e1), 0.0, GaugeBall([0.0], 1.0), mc_scheme)


# -- ball lists -----------------------------------------------------------------

_LIST_SCHEMES = {
    "uniform": QuadratureScheme(kind="uniform", samples=1024, seed=41),
    "annuli": QuadratureScheme(kind="annuli", samples=2600, levels=8, seed=41),
}
_NODES_PER_BALL = {"uniform": 1024, "annuli": 9 * 288}


def _ball_list(group):
    # five disjoint balls over three octaves of radius
    return [GaugeBall(np.full(group.n, 3.0 * b - 4.0), 0.4 * 2.0 ** (b / 2.0)) for b in range(5)]


def _list_integrand(group, rows):
    bump = GaugeBump(group, np.zeros(group.n), 6.0, height=1.5)
    keys = [(0,) * group.n1, (1,) + (0,) * (group.n1 - 1), (2,) + (0,) * (group.n1 - 1)]
    return jet_rows(group, bump, keys) if rows else bump


def _same_outputs(a, b):
    if isinstance(a, Estimate):
        return a.to_dict() == b.to_dict()
    (ests_a, cov_a), (ests_b, cov_b) = a, b
    return [e.to_dict() for e in ests_a] == [e.to_dict() for e in ests_b] and np.array_equal(
        cov_a(), cov_b()
    )


class _Stingy:
    """Draws from `rng`, except that its first draw puts every other row in
    a corner of the box, outside the ball: the sampler needs a second
    rejection round."""

    def __init__(self, rng):
        self.rng, self.first = rng, True

    def random(self, *args, **kwargs):
        u = self.rng.random(*args, **kwargs)
        if self.first:
            u[::2], self.first = 1.0, False
        return u


@pytest.mark.parametrize("group_id", ["e1", "h1"])
def test_sample_ball_list_stacks_the_one_ball_draws(group_id, request, count_calls):
    # ball b draws from its own stream and the nodes come ball-major, each
    # ball's block equal to its one-ball call, also when the odd balls need
    # a second rejection round and the others do not; each round makes one
    # gauge test over all the balls that still need nodes
    group = request.getfixturevalue(group_id)
    balls = _ball_list(group)

    def rngs():
        return [
            _Stingy(stream(8, f"list/b{b}")) if b % 2 else stream(8, f"list/b{b}")
            for b in range(len(balls))
        ]

    tests = count_calls(type(group), "gauge_norm")
    pts = sample_ball(group, balls, 300, rngs())
    assert len(tests) == 2
    single = [sample_ball(group, ball, 300, rng) for ball, rng in zip(balls, rngs())]
    assert np.array_equal(pts, np.concatenate(single))
    assert sample_ball(group, balls, 0, rngs()).shape == (0, group.n)


@pytest.mark.parametrize("balls_per_pass", [None, 1, 2])
@pytest.mark.parametrize("rows", [False, True], ids=["one-row", "jet-rows"])
@pytest.mark.parametrize("kind", sorted(_LIST_SCHEMES))
@pytest.mark.parametrize("group_id", ["e1", "h1"])
def test_ball_list_matches_single_balls(group_id, kind, rows, balls_per_pass, request,
                                        monkeypatch):
    # integrate_ball and lp_norm_ball on a list: ball b is the one-ball call
    # under f"{op_id}/b{b}" bit for bit, however the list is split into
    # passes, and the integrand is called once per pass
    group = request.getfixturevalue(group_id)
    scheme = _LIST_SCHEMES[kind]
    if balls_per_pass is not None:
        monkeypatch.setattr(quad, "_PASS", balls_per_pass * _NODES_PER_BALL[kind])
    balls = _ball_list(group)
    f = _list_integrand(group, rows)
    w = Weight.power(group, 0.25)
    calls = []

    def counted(pts):
        calls.append(pts.shape[0])
        return f(pts)

    integrals = integrate_ball(group, counted, balls, scheme, op_id="list")
    passes = len(calls)
    norms = lp_norm_ball(group, f, w, 1.5, balls, scheme, op_id="list")
    assert passes == (1 if balls_per_pass is None else -(-len(balls) // balls_per_pass))
    assert len(integrals) == len(norms) == len(balls)
    for b, ball in enumerate(balls):
        op_id = f"list/b{b}"
        assert _same_outputs(integrals[b], integrate_ball(group, f, ball, scheme, op_id=op_id))
        assert _same_outputs(norms[b], lp_norm_ball(group, f, w, 1.5, ball, scheme, op_id=op_id))


@pytest.mark.parametrize("rows", [False, True], ids=["one-row", "jet-rows"])
@pytest.mark.parametrize("kind", sorted(_LIST_SCHEMES))
def test_ball_list_non_finite_value_raises_where_the_loop_does(h1, kind, rows):
    # NaN on part of ball 2 and everywhere on ball 3: the list call reports
    # the point that the first failing one-ball call reports.  With rows,
    # only the last row fails on ball 2 and only row 0 on ball 3, so a
    # search in row order over all balls would report ball 3
    balls = _ball_list(h1)
    f = _list_integrand(h1, rows)

    def bad(pts):
        vals = np.array(f(pts), dtype=float)
        part = balls[2].contains(h1, pts) & (pts[:, 0] > balls[2].center[0])
        whole = balls[3].contains(h1, pts)
        if rows:
            vals[-1, part] = vals[0, whole] = np.nan
        else:
            vals[part | whole] = np.nan
        return vals

    scheme = _LIST_SCHEMES[kind]
    with pytest.raises(IntegrationError) as listed:
        integrate_ball(h1, bad, balls, scheme, op_id="nan")
    with pytest.raises(IntegrationError) as looped:
        for b, ball in enumerate(balls):
            integrate_ball(h1, bad, ball, scheme, op_id=f"nan/b{b}")
    assert np.array_equal(listed.value.point, looped.value.point)
    assert str(listed.value) == str(looped.value)
    assert balls[2].contains(h1, listed.value.point[None])[0]


# -- dead balls -------------------------------------------------------------------


@pytest.mark.parametrize("gid", sorted(DEAD_BALL_GROUPS))
def test_dead_balls_are_exact_zeros_bit_for_bit(gid, count_calls):
    # a uniform ball whose box misses the box of the integrand's declared
    # support draws no stream and evaluates nothing, the live balls keep
    # their index-based streams, and every field of every result equals the
    # full path's, taken through a plain callable that declares no support:
    # a bump, a product and jet rows built from the bump, for
    # integrate_ball and lp_norm_ball, on a list, on single balls and on a
    # list of dead balls only.  Both bound the product by the intersection
    # of its factors' boxes
    group = DEAD_BALL_GROUPS[gid]
    scheme = QuadratureScheme(samples=1024, seed=29)
    bump, product, balls, dead_bump, dead_product = support_mix(group)
    keys = [(0,) * group.n1, (1,) + (0,) * (group.n1 - 1), (2,) + (0,) * (group.n1 - 1)]
    rows = jet_rows(group, bump, keys)
    w = Weight.power(group, 0.25)
    drawn = count_calls(quad, "stream", lambda seed, op_id, index=0: op_id)
    for f, dead in ((bump, dead_bump), (product, dead_product), (rows, dead_bump)):
        plain = lambda pts, f=f: f(pts)
        for integral in (
            lambda g, ball, op_id: integrate_ball(group, g, ball, scheme, op_id=op_id),
            lambda g, ball, op_id: lp_norm_ball(group, g, w, 1.5, ball, scheme, op_id=op_id),
        ):
            drawn.clear()
            got = integral(f, balls, "dead")
            assert sorted(set(drawn)) == [f"dead/b{b}" for b in range(len(balls)) if b not in dead]
            want = integral(plain, balls, "dead")
            assert all(_same_outputs(a, b) for a, b in zip(got, want, strict=True))
            for b in sorted(dead):
                assert _same_outputs(integral(f, balls[b], f"dead/b{b}"), want[b])
            drawn.clear()
            only_dead = [balls[b] for b in sorted(dead)]
            got = integral(f, only_dead, "all-dead")
            assert drawn == []
            want = integral(plain, only_dead, "all-dead")
            assert all(_same_outputs(a, b) for a, b in zip(got, want, strict=True))
            assert {e.value for out in got for e in (out[0] if f is rows else [out])} == {0.0}


def test_dead_balls_leave_the_annuli_scheme_alone(h1, count_calls):
    # an annuli Estimate's samples and note depend on the shell geometry, so
    # dead balls are still drawn there
    bump, _, balls, dead, _ = support_mix(h1)
    scheme = _LIST_SCHEMES["annuli"]
    drawn = count_calls(quad, "stream", lambda seed, op_id, index=0: op_id)
    integrate_ball(h1, bump, [balls[b] for b in sorted(dead)], scheme, op_id="annuli-dead")
    assert sorted(set(drawn)) == ["annuli-dead/b0", "annuli-dead/b1"]


@pytest.mark.parametrize("gid", sorted(DEAD_BALL_GROUPS))
def test_nan_on_a_live_ball_still_raises_at_its_node(gid):
    # dead balls ahead of it in the list change nothing: the point is the
    # one the full path reports
    group = DEAD_BALL_GROUPS[gid]
    bump, _, balls, _, _ = support_mix(group)
    spiky = Spiky(bump)
    scheme = QuadratureScheme(samples=1024, seed=29)
    with pytest.raises(IntegrationError) as declared:
        integrate_ball(group, spiky, balls, scheme, op_id="spiky")
    with pytest.raises(IntegrationError) as plain:
        integrate_ball(group, lambda pts: spiky(pts), balls, scheme, op_id="spiky")
    assert np.array_equal(declared.value.point, plain.value.point)
    assert str(declared.value) == str(plain.value)
    assert balls[3].contains(group, declared.value.point[None])[0]


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


def test_bilinear_kernel_vs_exact(e1):
    # int_[0,1]^2 dy1 dy2 / (y1 + y2) = 2 ln 2
    chi = indicator_01(e1)
    integrand = product_integrand([chi, chi])
    supports = [chi.support, chi.support]
    mc = integrate_singular_product(
        e1, 2, integrand, np.array([0.0]), 1.0, supports,
        QuadratureScheme(kind="annuli", samples=60000, levels=24, seed=8),
    )
    assert abs(mc.value - 2.0 * math.log(2.0)) <= 3.0 * mc.std_error


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
    with pytest.raises(DomainError, match="one support ball per slot"):
        integrate_singular_product(
            e1, 2, lambda Y: ONE(Y), np.array([0.0]), 1.0, [chi.support], annuli_scheme
        )


def test_singular_h1_bump_vs_radial_oracle(h1):
    # the bump is radial about the kernel point: a 1-D integral in the gauge norm
    bump = GaugeBump(h1, [0.0, 0.0, 0.0], 1.0)
    exact = radial_bump_integral(h1, bump, 2.0)
    mc = integrate_singular_product(
        h1, 1, product_integrand([bump]), np.array([0.0, 0.0, 0.0]), 2.0, [bump.support],
        QuadratureScheme(kind="annuli", samples=60000, levels=24, seed=12),
    )
    assert abs(mc.value - exact) <= 3.0 * max(mc.std_error, 0.02 * exact)


@pytest.mark.parametrize("kind", ["uniform"])
def test_singular_product_batch_rows_match_single_points(e1, h1, kind):
    cases = [
        (e1, [GaugeBump(e1, [0.2], 0.9), GaugeBump(e1, [-0.3], 1.1)], 1.5),
        (h1, [GaugeBump(h1, [0.1, -0.1, 0.0], 1.0)], 2.0),
        # tau = mQ: the kernel is the constant 1
        (e1, [GaugeBump(e1, [0.2], 0.9), GaugeBump(e1, [-0.3], 1.1)], 2.0),
    ]
    for group, fs, tau in cases:
        scheme = QuadratureScheme(kind=kind, samples=3000, seed=21)
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


@pytest.mark.parametrize("kind", ["uniform"])
def test_singular_product_row_blocks_do_not_change_values(e1, monkeypatch, kind):
    fs = [GaugeBump(e1, [0.2], 0.9), GaugeBump(e1, [-0.3], 1.1)]
    supports = [f.support for f in fs]
    scheme = QuadratureScheme(kind=kind, samples=3000, seed=23)
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


def test_singular_product_annuli_reuses_shell_distances(h1, count_calls):
    # the distances d(x, y_vec) of all strata come from one product_distance
    # call per point; they pick the live nodes and then form the kernel
    fs = [GaugeBump(h1, [0.1, 0.0, 0.0], 0.9), GaugeBump(h1, [-0.2, 0.1, 0.0], 1.1)]
    supports = [f.support for f in fs]
    scheme = QuadratureScheme(kind="annuli", samples=24000, levels=24, seed=1234)
    xs = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.1], [-0.4, 0.2, 0.05], [0.2, 0.5, -0.3]])
    calls = {name: count_calls(type(h1), name) for name in ("compose", "gauge_norm")}
    est = integrate_singular_product(
        h1, 2, product_integrand(fs), xs, 2.0, supports, scheme, op_id="ann"
    )
    calls = {name: len(made) for name, made in calls.items()}
    # per point and slot: r0, the one distance pass and the shell membership;
    # per point, one sample_ball for the top stratum of both slots
    assert calls == {"compose": 28, "gauge_norm": 28}
    expected = [
        ("0x1.40f61921c5820p+0", "0x1.06955f2c509bap-2"),
        ("0x1.160235cb023b2p+0", "0x1.1b768b141452cp-2"),
        ("0x1.dd6727b212a86p-1", "0x1.a9c54499c407fp-3"),
        ("0x1.2ee0046fc9771p-1", "0x1.e7e04b9abcfe0p-4"),
    ]
    assert [(e.value.hex(), e.std_error.hex()) for e in est] == expected


_ANNULI_PINS = {
    # (group, singularity): value, std_error, samples of the one-row
    # integral; sha256 prefix of the three rows' values, errors and covariance
    ("e1", "center"): ("0x1.ef8e0a4c7a729p+1", "0x1.42c5f27adebfdp-4", 5993, "7c1af6c522338d58"),
    ("e1", "far"): ("0x1.ab9d495d6135dp-1", "0x1.dbc913ff10e63p-6", 922, "f49f7c7ead090a13"),
    ("h1", "center"): ("0x1.f004e4753cc0cp+0", "0x1.25e345da33786p-3", 5993, "3c7f3379ce7afc4d"),
    ("h1", "far"): ("0x1.4cbefb8b802e7p-1", "0x1.dd2ef4419e95ap-5", 1383, "ee4ddea6420f005f"),
}


@pytest.mark.parametrize("group_id, where", sorted(_ANNULI_PINS))
def test_integrate_ball_annuli_pinned(group_id, where, request):
    # values of the per-stratum estimator, bit for bit; a singularity far
    # from the ball skips every shell whose reach misses it (2 or 3 of the
    # 13 strata of 461 nodes remain)
    group = request.getfixturevalue(group_id)
    scheme = QuadratureScheme(kind="annuli", samples=6000, levels=12, seed=31)
    ball = GaugeBall(np.full(group.n, 0.1), 0.9)
    bump = GaugeBump(group, np.full(group.n, 0.2), 0.8, height=1.5)
    sing = None if where == "center" else np.full(group.n, 3.0)
    pole = ball.center if sing is None else sing

    def f(p):
        return bump(p) * group.distance(pole, p) ** -0.5

    value, std_error, samples, digest = _ANNULI_PINS[group_id, where]
    est = integrate_ball(group, f, ball, scheme, op_id="pin", singularity=sing)
    assert (est.value.hex(), est.std_error.hex(), est.samples) == (value, std_error, samples)
    ests, cov = integrate_ball(
        group, lambda p: np.stack([f(p), p[:, 0] * bump(p), np.ones(p.shape[0])]), ball,
        scheme, op_id="pin", singularity=sing,
    )
    bits = np.array([[e.value, e.std_error] for e in ests]).tobytes() + cov().tobytes()
    assert hashlib.sha256(bits).hexdigest()[:16] == digest
    assert ests[0].to_dict() == est.to_dict()


def test_annuli_integrals_call_the_integrand_once(h1, count_calls):
    # one call on the live nodes of all strata, per ball integral and per
    # target point of a product integral
    scheme = QuadratureScheme(kind="annuli", samples=6000, levels=12, seed=31)
    ball = GaugeBall([0.1, 0.1, 0.1], 0.9)
    bump = GaugeBump(h1, [0.2, 0.2, 0.2], 0.8)
    calls = []

    def f(p):
        calls.append(p.shape[0])
        return bump(p)

    est = integrate_ball(h1, f, ball, scheme)
    assert len(calls) == 1 and 0 < calls[0] < est.samples
    calls.clear()
    integrate_ball(h1, lambda p: np.stack([f(p), f(p)]), ball, scheme)
    assert len(calls) == 2  # the two rows, each from one call
    calls.clear()
    xs = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.1]])
    integrate_singular_product(
        h1, 2, lambda Y: f(Y[:, 0]) * bump(Y[:, 1]), xs, 2.0, [ball, ball], scheme
    )
    assert len(calls) == len(xs)


@pytest.mark.parametrize(
    "group_id, rows, point",
    [
        ("e1", False, ["0x1.a5916ce89e7a0p-4"]),
        ("e1", True, ["0x1.b832016b64038p-4"]),
        ("h1", False, ["0x1.931145a44986bp-4", "0x1.a24c49b8224fep-4", "0x1.9a5a38e3b6ca9p-4"]),
        ("h1", True, ["0x1.99546e5cb5141p-4", "0x1.9f0ca2140b196p-4", "0x1.993d9c897a348p-4"]),
    ],
)
def test_annuli_nan_in_a_deep_shell_reports_its_point(group_id, rows, point, request):
    # row 0 is NaN in shells 8 and 9 only, row 1 in shell 6 only: the error
    # names the first NaN of the first stratum that has one (row 1's, in
    # shell 6, when both rows are integrated), as the per-stratum loop did
    group = request.getfixturevalue(group_id)
    scheme = QuadratureScheme(kind="annuli", samples=6000, levels=12, seed=31)
    ball = GaugeBall(np.full(group.n, 0.1), 0.9)

    def bad(p):
        d = group.distance(ball.center, p) / ball.radius
        return np.stack([
            np.where((d >= 2.0**-10) & (d < 2.0**-8), np.nan, 1.0),
            np.where((d >= 2.0**-7) & (d < 2.0**-6), np.nan, 1.0),
        ])

    with pytest.raises(IntegrationError) as err:
        integrate_ball(group, bad if rows else (lambda p: bad(p)[0]), ball, scheme, op_id="pin")
    assert [v.hex() for v in err.value.point] == point


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



@pytest.mark.parametrize("kind", ["uniform", "annuli"])
def test_singular_product_of_an_empty_batch_is_empty(h1, e1, kind):
    # (0, n) target points give no estimates, with a kernel (tau < mQ) or without
    scheme = QuadratureScheme(kind=kind, samples=2048, levels=8, seed=26)
    for group, tau in ((h1, 2.0), (h1, h1.homogeneous_dimension), (e1, 1.0)):
        bump = GaugeBump(group, np.zeros(group.n), 1.0)
        est = integrate_singular_product(
            group, 1, product_integrand([bump]), np.zeros((0, group.n)), tau, [bump.support],
            scheme,
        )
        assert est == []

# -- estimate algebra -----------------------------------------------------------


def test_estimate_algebra():
    a = Estimate(2.0, 0.1, 100)
    b = Estimate(3.0, 0.2, 100)
    p = estimate_product([a, b])
    assert p.value == 6.0
    assert p.std_error == pytest.approx(math.hypot(0.1 * 3.0, 0.2 * 2.0))
    z = estimate_product([a, Estimate(0.0, 0.2, 100)])
    assert z.value == 0.0 and z.std_error == pytest.approx(0.2 * 2.0)
    r = a.powered(0.5)
    assert r.value == pytest.approx(math.sqrt(2.0))
    assert r.std_error == pytest.approx(0.5 * 2.0**-0.5 * 0.1)


@pytest.mark.parametrize("value", [2.0, 0.0], ids=["positive", "zero"])
def test_estimate_powered_and_scaled_keep_every_other_field(value):
    # every field but value and std_error carries through, new ones included
    est = Estimate(value, 0.1, 100, seed=7, flagged=True, note="newton-certified")
    names = [f.name for f in dataclasses.fields(Estimate) if f.name not in ("value", "std_error")]
    for out in (est.powered(1.5), est.scaled(-3.0)):
        assert [getattr(out, k) for k in names] == [getattr(est, k) for k in names]
    assert est.scaled(-3.0).value == -3.0 * value
    assert est.scaled(-3.0).std_error == 3.0 * 0.1


def test_estimate_serialization():
    est = Estimate(1.5, 0.01, 1000, seed=7, note="newton-certified")
    d = est.to_dict()
    assert d == {
        "value": 1.5, "std_error": 0.01, "samples": 1000, "seed": 7, "flagged": False,
        "note": "newton-certified",
    }

import math

import numpy as np
import pytest

from carnotlab import quad, weights
from carnotlab.carnot import GaugeBall
from carnotlab.errors import DomainError, ValidationError
from carnotlab.lab.sweeps import check_weight_condition
from carnotlab.quad import Estimate, QuadratureScheme
from carnotlab.weights import (
    BallSampler,
    ExponentSystem,
    Weight,
    _average_powers,
    ball_term,
    exponent_violations,
    holder_conjugate,
    scaling_exponent,
    validate_exponents,
    weight_condition_sup,
)

ONE_SYS = ExponentSystem(m=2, p_list=(2.0, 2.0), q=1.0, k=1)


# -- Hoelder conjugates -----------------------------------------------------------


def test_holder_conjugate_values():
    assert holder_conjugate(2.0) == pytest.approx(2.0)
    assert holder_conjugate(4.0) == pytest.approx(4.0 / 3.0)
    assert holder_conjugate(1.5) == pytest.approx(3.0)


def test_holder_conjugate_domain():
    with pytest.raises(DomainError):
        holder_conjugate(1.0)
    with pytest.raises(DomainError):
        holder_conjugate(0.5)


# -- exponent systems --------------------------------------------------------------


def test_validate_basic(e1):
    sys = validate_exponents(ONE_SYS, e1)
    assert sys.p == pytest.approx(1.0)


def test_validate_q_below_p(e1):
    bad = ExponentSystem(m=2, p_list=(2.0, 2.0), q=0.5, k=1)
    with pytest.raises(ValidationError) as err:
        validate_exponents(bad, e1)
    assert any("q" in v for v in err.value.violations)


def test_validate_sub_one_p_regime(e1):
    # p = 2/3 lies in (1/2, 1]: admissible for q >= 2/3
    sys = ExponentSystem(m=2, p_list=(4.0 / 3.0, 4.0 / 3.0), q=0.7, k=1)
    assert sys.p == pytest.approx(2.0 / 3.0)
    validate_exponents(sys, e1)
    bad = ExponentSystem(m=2, p_list=(4.0 / 3.0, 4.0 / 3.0), q=0.6, k=1)
    with pytest.raises(ValidationError):
        validate_exponents(bad, e1)


def test_validate_k_range(h1):
    with pytest.raises(ValidationError) as err:
        validate_exponents(ExponentSystem(m=1, p_list=(2.0,), q=2.0, k=5), h1)
    assert any("m*Q" in v for v in err.value.violations)
    validate_exponents(ExponentSystem(m=1, p_list=(2.0,), q=2.0, k=4), h1)


def test_validate_reports_each_violation(e1):
    bad = ExponentSystem(m=2, p_list=(0.5, 2.0), q=2.0, k=0, t=0.5)
    violations = exponent_violations(bad, e1)
    assert len(violations) >= 2


def test_validate_t_range(e1):
    with pytest.raises(ValidationError):
        validate_exponents(ExponentSystem(m=1, p_list=(2.0,), q=2.0, k=1, t=1.0), e1)


# -- weights ------------------------------------------------------------------------


def test_weight_constant_and_power(h1):
    w = Weight.const(h1, 2.5)
    pts = np.zeros((3, 3))
    assert np.allclose(w(pts), 2.5)
    pw = Weight.power(h1, -1.0)
    vals = pw(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 4.0]]))
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == pytest.approx(0.5)  # gauge((0,0,4)) = (4^2)^(1/4) = 2
    assert pw.is_singular()
    assert pw.powered(2.0).factors[0][1] == pytest.approx(-2.0)


def test_weight_positive_constant_required(e1):
    with pytest.raises(DomainError):
        Weight.const(e1, 0.0)


def test_weight_product_of_powers(e1):
    w = Weight(e1, constant=2.0, factors=[([0.0], 1.0), ([3.0], -1.0)])
    val = w(np.array([[1.0]]))[0]
    assert val == pytest.approx(2.0 * 1.0 / 2.0)  # 2 * d(0,1)^1 * d(3,1)^-1
    assert w.is_singular()
    d = w.to_dict()
    assert d["constant"] == 2.0 and len(d["factors"]) == 2


# -- ball_term ----------------------------------------------------------------------


def test_ball_term_constant_weights_exact_power(e1, small_scheme):
    w = Weight.one(e1)
    sys = ONE_SYS
    E = scaling_exponent(sys, e1)
    for r in (0.25, 1.0, 3.0):
        for center in (-1.0, 0.0, 2.0):
            term = ball_term(e1, w, [w, w], sys, GaugeBall([center], r), small_scheme)
            assert term.value == pytest.approx(r**E, rel=1e-10)


def test_ball_term_sobolev_critical(e3, small_scheme):
    # Q = 3, m = 1, k = 1, p = 2, q = 6: exponent k + Q(1/q - 1/p) = 0
    sys = ExponentSystem(m=1, p_list=(2.0,), q=6.0, k=1)
    w = Weight.one(e3)
    assert scaling_exponent(sys, e3) == pytest.approx(0.0)
    for r in (0.5, 2.0, 8.0):
        term = ball_term(e3, w, [w], sys, GaugeBall([0.0, 0.0, 0.0], r), small_scheme)
        assert term.value == pytest.approx(1.0, rel=1e-10)


def test_ball_term_branch_continuity_at_q1(e1, small_scheme):
    # constant weights: both branches give r^E with E continuous at q = 1
    w = Weight.one(e1)
    ball = GaugeBall([0.3], 2.0)
    lo = ball_term(
        e1, w, [w, w],
        ExponentSystem(m=2, p_list=(4.0 / 3.0, 4.0 / 3.0), q=1.0 - 1e-9, k=1, t=1.0001),
        ball, small_scheme,
    )
    hi = ball_term(
        e1, w, [w, w],
        ExponentSystem(m=2, p_list=(4.0 / 3.0, 4.0 / 3.0), q=1.0 + 1e-9, k=1, t=1.0001),
        ball, small_scheme,
    )
    assert lo.value == pytest.approx(hi.value, rel=1e-6)


def test_ball_term_power_weights_vs_grid_oracle(h1):
    # u = v = |x|_G^beta on H^1: annuli-MC against a tensor-grid oracle
    sys = ExponentSystem(m=1, p_list=(2.0,), q=2.0, k=1, t=1.25)
    ball = GaugeBall([0.0, 0.0, 0.0], 1.0)
    values = []
    for beta in (0.5, 0.25):
        w = Weight.power(h1, beta)
        mc = ball_term(
            h1, w, [w], sys, ball,
            QuadratureScheme(kind="annuli", samples=60000, levels=20, seed=5),
        )
        grid = ball_term(
            h1, w, [w], sys, ball, QuadratureScheme(kind="grid", points_per_axis=100)
        )
        assert mc.value == pytest.approx(grid.value, rel=0.05)
        values.append(mc.value)
    # monotone-in-r trend for the larger beta
    w = Weight.power(h1, 0.5)
    r_terms = [
        ball_term(
            h1, w, [w], sys, GaugeBall([0.0, 0.0, 0.0], r),
            QuadratureScheme(kind="annuli", samples=30000, levels=16, seed=6),
            op_id=f"trend/{r}",
        ).value
        for r in (0.5, 1.0, 2.0)
    ]
    assert r_terms[0] < r_terms[1] < r_terms[2]


def test_ball_term_flags_overflowing_weight(e1):
    # v^(-t p') has exponent -t p' beta ~ -672 near the pole: sampled values
    # overflow to inf and the estimate comes back flagged instead of raising
    sys = ExponentSystem(m=1, p_list=(1.05,), q=4.0, k=1, t=4.0)
    w = Weight.power(e1, 8.0)
    term = ball_term(
        e1, Weight.one(e1), [w], sys, GaugeBall([0.0], 1.0),
        QuadratureScheme(kind="annuli", samples=8000, levels=24, seed=2),
    )
    assert term.flagged


_T_GRID_SCHEMES = {
    "uniform": QuadratureScheme(kind="uniform", samples=2048, seed=7),
    "annuli": QuadratureScheme(kind="annuli", samples=6000, levels=12, seed=7),
    "grid": QuadratureScheme(kind="grid", points_per_axis=24),
}

# single-t values of the per-(t, ball, weight) node sets, which the t grid keeps
_SINGLE_T_HEX = {
    ("e1", "uniform", 0.8, 1.1): ("0x1.7e30eb136504cp-1", "0x1.d766b62f69bcbp-8"),
    ("h1", "annuli", 2.0, 2.0): ("0x1.98a4b6a2301e5p-1", "0x1.6f3e321ae7d44p-7"),
}


@pytest.mark.parametrize("kind", sorted(_T_GRID_SCHEMES))
def test_ball_term_t_grid_rows_match_single_t(e1, h1, kind):
    # one node set per weight serves the whole grid: row j is the single-t
    # call with the same op_id bit for bit, for singular (annuli around the
    # pole) and non-singular powers alike
    scheme = _T_GRID_SCHEMES[kind]
    ts = (1.1, 2.0, 4.0)
    for name, group in (("e1", e1), ("h1", h1)):
        ball = GaugeBall([0.1] * group.n, 0.9)
        u = Weight.power(group, 0.5, pole=[0.05] * group.n)
        vs = [Weight.power(group, 0.25), Weight(group, 1.5, factors=[([0.2] * group.n, -0.3)])]
        for q in (2.0, 0.8):
            sys = ExponentSystem(m=2, p_list=(4.0 / 3.0, 4.0 / 3.0), q=q, k=1)
            rows = ball_term(group, u, vs, sys, ball, scheme, op_id="bt", t_grid=ts)
            assert len(rows) == len(ts)
            for t, row in zip(ts, rows):
                single = ball_term(
                    group, u, vs, ExponentSystem(2, sys.p_list, q, 1, t), ball, scheme,
                    op_id="bt",
                )
                assert row.to_dict() == single.to_dict()
                pinned = _SINGLE_T_HEX.get((name, kind, q, t))
                if pinned:
                    assert (single.value.hex(), single.std_error.hex()) == pinned


def test_ball_term_t_grid_flags_each_t_on_its_own(e1):
    # v^(-t p') = d^(-21 t): finite but huge at t = 1.1, overflowing to inf
    # near the pole at t = 4.  Only the t = 4 row is flagged, and t = 1.1
    # keeps its single-t value (no covariance of the huge rows is formed)
    sys = ExponentSystem(m=1, p_list=(1.05,), q=4.0, k=1, t=1.1)
    v = Weight.power(e1, 1.0)
    scheme = QuadratureScheme(kind="annuli", samples=8000, levels=24, seed=2)
    ball = GaugeBall([0.0], 1.0)
    low, high = ball_term(e1, Weight.one(e1), [v], sys, ball, scheme, t_grid=(1.1, 4.0))
    assert low.to_dict() == ball_term(e1, Weight.one(e1), [v], sys, ball, scheme).to_dict()
    assert not low.flagged and math.isfinite(low.value)
    assert high.flagged and math.isnan(high.value)
    sampler = BallSampler(dim=1, count=8, r_min=0.25, r_max=4.0)
    report = weight_condition_sup(
        e1, Weight.one(e1), [v], sys, sampler, scheme, t_grid=(1.1, 4.0)
    )
    assert [row["balls_used"] for row in report.per_t] == [8, 2]
    assert report.flagged_count == 6


def test_constant_weight_average_is_exact(e1, small_scheme, count_calls):
    # a constant weight's average is c^gamma, with no nodes drawn
    drawn = count_calls(quad, "sample_ball")
    integrals = count_calls(weights, "integrate_ball")
    ball = GaugeBall([0.3], 2.0)
    avgs = _average_powers(e1, Weight.const(e1, 2.5), [2.0, -3.0], ball, small_scheme, "c")
    assert [(a.value, a.std_error) for a in avgs] == [(2.5**2.0, 0.0), (2.5**-3.0, 0.0)]
    assert all(a.note == Estimate.exact(1.0).note for a in avgs)
    terms = ball_term(
        e1, Weight.const(e1, 2.5), [Weight.const(e1, 0.5)] * 2, ONE_SYS, ball, small_scheme,
        t_grid=(1.1, 2.0),
    )
    r_e = 2.0 ** scaling_exponent(ONE_SYS, e1)
    for term in terms:
        assert term.value == pytest.approx(r_e * 2.5 / 0.5**2, rel=1e-12)
        assert term.std_error == 0.0
    assert len(integrals) == 0 and len(drawn) == 0


def test_weight_check_one_integral_per_ball_and_weight(h1, count_calls):
    # the poincare-h1 check (u = 1, v_i = d^(1/4), 24 balls, 5 t's): u is
    # exact and each v_i makes one call per ball, 48 in all (360 with one
    # node set per (t, ball, weight))
    terms = count_calls(weights, "ball_term", lambda *args, **kw: kw["op_id"])
    integrals = count_calls(weights, "integrate_ball", lambda *args, **kw: kw["op_id"])
    vs = [Weight.power(h1, 0.25)] * 2
    sys = ExponentSystem(2, (4.0 / 3.0, 4.0 / 3.0), 1.0, 2)
    scheme = QuadratureScheme(kind="uniform", samples=1000, seed=3)
    check_weight_condition(h1, Weight.one(h1), vs, sys, scheme)
    assert terms == [f"weight-sup/b{b}" for b in range(24)]
    assert integrals == [f"weight-sup/b{b}/v{i}" for b in range(24) for i in range(2)]


# -- ball sampler -------------------------------------------------------------------


def test_sampler_prefix_property():
    a = BallSampler(dim=3, count=8).generate(42)
    b = BallSampler(dim=3, count=32).generate(42)
    for x, y in zip(a, b[:8]):
        assert np.array_equal(x.center, y.center) and x.radius == y.radius


def test_sampler_radius_range():
    balls = BallSampler(dim=2, r_min=0.25, r_max=4.0, count=64).generate(3)
    radii = np.array([b.radius for b in balls])
    assert radii.min() >= 0.25 and radii.max() <= 4.0
    with pytest.raises(DomainError):
        BallSampler(dim=2, r_min=2.0, r_max=1.0)


# -- weight_condition_sup --------------------------------------------------------------


def _sup_values(report):
    return [row["sup"] for row in report.per_t]


def test_weight_sup_critical_flat(e3, small_scheme):
    sys = ExponentSystem(m=1, p_list=(2.0,), q=6.0, k=1)
    sampler = BallSampler(dim=3, count=16)
    report = weight_condition_sup(e3, Weight.one(e3), [Weight.one(e3)], sys, sampler, small_scheme)
    for row in report.per_t:
        assert row["verdict"] == "finite-at-sampled-scales"
        assert abs(row["slope"]) < 0.02
        assert row["sup"] == pytest.approx(1.0, rel=1e-9)


def test_weight_sup_positive_exponent_diverges_large_r(e1, small_scheme):
    sys = ExponentSystem(m=1, p_list=(2.0,), q=2.0, k=1)  # E = 1
    sampler = BallSampler(dim=1, count=24)
    report = weight_condition_sup(e1, Weight.one(e1), [Weight.one(e1)], sys, sampler, small_scheme)
    assert report.exponent == pytest.approx(1.0)
    for row in report.per_t:
        assert row["verdict"] == "diverges-large-r"
        assert row["slope"] == pytest.approx(report.exponent, rel=0.05)


def test_weight_sup_negative_exponent_diverges_small_r(e2, small_scheme):
    sys = ExponentSystem(m=1, p_list=(4.0 / 3.0,), q=8.0, k=1)  # E = 1 + 2(1/8 - 3/4) = -0.25
    sampler = BallSampler(dim=2, count=24)
    report = weight_condition_sup(e2, Weight.one(e2), [Weight.one(e2)], sys, sampler, small_scheme)
    assert report.exponent == pytest.approx(-0.25)
    for row in report.per_t:
        assert row["verdict"] == "diverges-small-r"
        assert row["slope"] == pytest.approx(report.exponent, rel=0.05)


def test_weight_sup_monotone_in_ball_count(e1, small_scheme):
    sys = ExponentSystem(m=1, p_list=(2.0,), q=2.0, k=1)
    sups = []
    for count in (4, 16, 64):
        sampler = BallSampler(dim=1, count=count)
        report = weight_condition_sup(
            e1, Weight.one(e1), [Weight.one(e1)], sys, sampler, small_scheme
        )
        sups.append(max(_sup_values(report)))
    assert sups[0] <= sups[1] <= sups[2]


def test_weight_sup_t_grid_validation(e1, small_scheme):
    sys = ExponentSystem(m=1, p_list=(2.0,), q=2.0, k=1)
    sampler = BallSampler(dim=1, count=4)
    with pytest.raises(DomainError):
        weight_condition_sup(
            e1, Weight.one(e1), [Weight.one(e1)], sys, sampler, small_scheme, t_grid=(0.9, 2.0)
        )


def test_weight_sup_report_serializes(e1, small_scheme):
    sys = ExponentSystem(m=1, p_list=(2.0,), q=2.0, k=1)
    sampler = BallSampler(dim=1, count=4)
    report = weight_condition_sup(
        e1, Weight.one(e1), [Weight.one(e1)], sys, sampler, small_scheme, t_grid=(1.5,)
    )
    d = report.to_dict()
    assert set(d) == {"exponent", "per_t", "flagged_count", "sampler", "note"}
    assert d["per_t"][0]["verdict"] in (
        "finite-at-sampled-scales",
        "diverges-large-r",
        "diverges-small-r",
    )

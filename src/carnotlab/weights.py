"""Weight catalog, Hoelder exponent bookkeeping, and sup-estimation of the
two-weight admissibility conditions.

The admissibility term for one ball B of radius r is

    r^(k + Q(1/q - 1/p)) * (avg_B u^e)^(1/e) * prod_i (avg_B v_i^(-t p_i'))^(1/(t p_i'))

with e = q t for q > 1 and e = q for q <= 1, and avg_B the ball average
|B|^-1 int_B.  The sup over balls is estimated from a random ball sampler
and is always a lower estimate of the true sup; divergence in the ball
radius is detected by a power-law fit of term vs r.

The condition is existential in t, so every ball is scored on a grid of
t.  A constant weight's average is the exact c^e.  Each other weight
draws one node set per ball, under f"{op_id}/b{b}/u" or
f"{op_id}/b{b}/v{i}", and its distances are computed once there for every
t: the rows of the t grid share nodes (common random numbers), so they are
correlated across t, and a t whose samples overflow is flagged on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .carnot.constants import ball_volume
from .carnot.group import GaugeBall
from .errors import DomainError, ValidationError
from .quad import Estimate, estimate_product, integrate_ball
from .rng import stream

VERDICT_FINITE = "finite-at-sampled-scales"
VERDICT_LARGE_R = "diverges-large-r"
VERDICT_SMALL_R = "diverges-small-r"

DEFAULT_T_GRID = (1.1, 1.25, 1.5, 2.0, 4.0)

# |fitted slope| above this reads as a divergence trend across the sampled scales
SLOPE_TREND_THRESHOLD = 0.1


class Weight:
    """Weight of the form c * prod_j d(pole_j, x)^(beta_j).

    Closed under powers, which is what the admissibility term needs:
    (c prod d^beta)^g = c^g prod d^(beta g).
    """

    def __init__(self, group, constant=1.0, factors=()):
        if constant <= 0:
            raise DomainError("weight constant must be positive")
        self.group = group
        self.constant = float(constant)
        self.factors = tuple(
            (np.asarray(pole, dtype=float).reshape(-1), float(beta)) for pole, beta in factors
        )

    @classmethod
    def one(cls, group):
        return cls(group)

    @classmethod
    def const(cls, group, c):
        return cls(group, constant=c)

    @classmethod
    def power(cls, group, beta, pole=None):
        pole = pole if pole is not None else group.identity()
        return cls(group, factors=[(pole, beta)])

    def __call__(self, pts):
        return self.power_rows(pts, (1.0,))[0]

    def power_rows(self, pts, gammas):
        """w^gamma at pts, one row per gamma, shape (len(gammas), N).

        Each factor's distance is computed once for all rows, and row j
        equals self.powered(gammas[j])(pts) bit for bit.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        dists = []
        for pole, _ in self.factors:
            dist = self.group.distance(pole, pts)
            dists.append(np.where(dist > 0.0, dist, 0.0))
        rows = []
        for gamma in gammas:
            out = np.full(pts.shape[0], self.constant**gamma)
            for dist, (_, beta) in zip(dists, self.factors):
                # overflow to inf is deliberate: callers flag non-integrable samples
                with np.errstate(divide="ignore", over="ignore"):
                    out = out * dist ** (beta * gamma)
            rows.append(out)
        return np.stack(rows)

    def powered(self, gamma):
        return Weight(
            self.group,
            constant=self.constant**gamma,
            factors=[(pole, beta * gamma) for pole, beta in self.factors],
        )

    def is_singular(self):
        return any(beta < 0 for _, beta in self.factors)

    def singular_pole(self):
        for pole, beta in self.factors:
            if beta < 0:
                return pole
        return None

    def to_dict(self):
        return {
            "constant": self.constant,
            "factors": [{"pole": p.tolist(), "beta": b} for p, b in self.factors],
        }


def holder_conjugate(p):
    """p' with 1/p + 1/p' = 1; requires p > 1."""
    if not p > 1:
        raise DomainError(f"Hoelder conjugate needs p > 1, got {p}")
    return p / (p - 1.0)


@dataclass(frozen=True)
class ExponentSystem:
    """(m, p_1..p_m, q, k, t) with 1/p = sum 1/p_i as the derived p."""

    m: int
    p_list: tuple
    q: float
    k: int
    t: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "p_list", tuple(float(p) for p in self.p_list))

    @property
    def p(self):
        return 1.0 / sum(1.0 / p for p in self.p_list)

    def conjugates(self):
        return tuple(holder_conjugate(p) for p in self.p_list)

    def to_dict(self):
        return {
            "m": self.m,
            "p_list": list(self.p_list),
            "p": self.p,
            "q": self.q,
            "k": self.k,
            "t": self.t,
        }


def exponent_violations(system, group):
    """All violated relations, one message per relation."""
    v = []
    if system.m < 1:
        v.append(f"m = {system.m} must be a positive integer")
    if len(system.p_list) != system.m:
        v.append(f"expected {system.m} integrability exponents, got {len(system.p_list)}")
    for i, p in enumerate(system.p_list):
        if not (1.0 < p < math.inf):
            v.append(f"p_{i + 1} = {p} must lie in (1, inf)")
    if not (isinstance(system.k, int) and system.k >= 1):
        v.append(f"k = {system.k} must be a positive integer")
    else:
        mq = system.m * group.homogeneous_dimension
        if system.k > mq:
            v.append(f"k = {system.k} exceeds m*Q = {mq}")
    if not system.t > 1.0:
        v.append(f"t = {system.t} must exceed 1")
    if all(1.0 < p for p in system.p_list) and system.p_list:
        # p = (sum 1/p_i)^-1 is only defined once every p_i is admissible
        p = system.p
        if not p > 1.0 / system.m:
            v.append(f"p = {p:g} must exceed 1/m = {1.0 / system.m:g}")
        if not (p <= system.q < math.inf):
            v.append(f"need p <= q < inf, got p = {p:g}, q = {system.q:g}")
    return v


def validate_exponents(system, group):
    """Return the system if every relation holds, else raise ValidationError."""
    violations = exponent_violations(system, group)
    if violations:
        raise ValidationError(violations)
    return system


def scaling_exponent(system, group):
    """k + Q(1/q - 1/p): the power of r in the admissibility term."""
    Q = group.homogeneous_dimension
    return system.k + Q * (1.0 / system.q - 1.0 / system.p)


def _average_powers(group, w, gammas, ball, scheme, op_id):
    """The ball averages |B|^-1 int_B w^gamma, one Estimate per gamma.

    A constant weight c gives the closed form c^gamma and draws no nodes.
    Otherwise every gamma is one row of one integrand on one node set,
    stratified around the pole of w^gamma when that is singular (the
    gammas share a sign, so they share the pole).  A row with a
    non-finite value comes back flagged with value NaN, and is zeroed from
    then on so that it disturbs no other row.
    """
    if not w.factors:
        return [Estimate.exact(w.constant**gamma) for gamma in gammas]
    singularity = w.powered(gammas[0]).singular_pole()
    use = scheme
    if singularity is not None and use.kind == "uniform":
        # integrable point singularity: stratify around the pole
        use = scheme.with_(kind="annuli")
    finite = np.ones(len(gammas), dtype=bool)

    def rows(pts):
        vals = w.power_rows(pts, gammas)
        finite[:] &= np.isfinite(vals).all(axis=1)
        vals[~finite] = 0.0
        return vals

    ests, _ = integrate_ball(group, rows, ball, use, op_id=op_id, singularity=singularity)
    volume = ball_volume(group, ball.radius)
    return [
        e.scaled(1.0 / volume) if ok
        else Estimate(value=math.nan, std_error=math.inf, samples=0, seed=scheme.seed, flagged=True)
        for e, ok in zip(ests, finite)
    ]


def ball_term(group, u, vs, system, ball, scheme, *, op_id="ball-term", t_grid=None):
    """The admissibility quantity for one ball, as an Estimate.

    For q > 1, u is raised to q*t; for q <= 1, to q.  Ball averages are
    |B|^-1 int_B (the scaling criterion r^(k+Q(1/q-1/p)) then holds
    exactly for constant weights).
    u draws its nodes under f"{op_id}/u" and v_i under f"{op_id}/v{i}";
    a constant weight's average is the exact c^gamma.

    With `t_grid`, the result is one Estimate per t of the grid (system.t
    is not used): each non-constant weight takes the averages of all its
    powers from one node set, so the rows are correlated across t, and
    row j equals the call without `t_grid` at t = t_grid[j] bit for bit.
    A row whose samples overflow comes back flagged on its own.
    """
    system = validate_exponents(system, group)
    ts = (system.t,) if t_grid is None else tuple(t_grid)
    if any(not t > 1 for t in ts):
        raise DomainError("every t in the grid must exceed 1")
    u_exps = [system.q * t if system.q > 1.0 else system.q for t in ts]
    u_avgs = _average_powers(group, u, u_exps, ball, scheme, f"{op_id}/u")
    factors = [[a.powered(1.0 / e) for a, e in zip(u_avgs, u_exps)]]
    for i, (v, pc) in enumerate(zip(vs, system.conjugates())):
        avgs = _average_powers(group, v, [-t * pc for t in ts], ball, scheme, f"{op_id}/v{i}")
        factors.append([a.powered(1.0 / (t * pc)) for a, t in zip(avgs, ts)])
    scale = ball.radius ** scaling_exponent(system, group)
    terms = [estimate_product(row).scaled(scale) for row in zip(*factors)]
    return terms[0] if t_grid is None else terms


@dataclass(frozen=True)
class BallSampler:
    """Random gauge balls: centers uniform in a box, radii log-uniform.

    Ball lists have the prefix property: the first n balls for a given
    seed do not depend on `count`, so sup estimates are monotone in the
    number of sampled balls.
    """

    dim: int
    center_box: float = 1.0
    r_min: float = 2.0**-6
    r_max: float = 2.0**6
    count: int = 64

    def __post_init__(self):
        if not (0 < self.r_min < self.r_max):
            raise DomainError("need 0 < r_min < r_max")
        if self.count < 1:
            raise DomainError("sampler count must be >= 1")

    def generate(self, seed, label="ball-sampler"):
        rng = stream(seed, label)
        u = rng.random((self.count, self.dim + 1))
        centers = (u[:, : self.dim] * 2.0 - 1.0) * self.center_box
        radii = np.exp(
            math.log(self.r_min) + u[:, self.dim] * (math.log(self.r_max) - math.log(self.r_min))
        )
        return [GaugeBall(centers[i], radii[i]) for i in range(self.count)]

    def to_dict(self):
        return {
            "dim": self.dim,
            "center_box": self.center_box,
            "r_min": self.r_min,
            "r_max": self.r_max,
            "count": self.count,
        }


def _fit_slope(radii, values):
    """Least-squares slope of log(value) against log(r)."""
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    keep = (v > 0) & np.isfinite(v)
    if np.count_nonzero(keep) < 2:
        return 0.0
    x = np.log(r[keep])
    y = np.log(v[keep])
    x = x - x.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        return 0.0
    return float(np.dot(x, y - y.mean()) / denom)


def _verdict(slope, threshold=SLOPE_TREND_THRESHOLD):
    if slope > threshold:
        return VERDICT_LARGE_R
    if slope < -threshold:
        return VERDICT_SMALL_R
    return VERDICT_FINITE


@dataclass
class WeightConditionReport:
    exponent: float
    per_t: list
    flagged_count: int
    sampler: dict
    note: str = "sup over sampled balls is a lower estimate of the true sup"

    def verdicts(self):
        return [row["verdict"] for row in self.per_t]

    def to_dict(self):
        return {
            "exponent": self.exponent,
            "per_t": self.per_t,
            "flagged_count": self.flagged_count,
            "sampler": self.sampler,
            "note": self.note,
        }


def weight_condition_sup(group, u, vs, system, sampler, scheme, *, t_grid=None, op_id="weight-sup"):
    """For each t in the grid, the max of ball_term over sampled balls.

    The condition is existential in t, so per-t results are reported
    without interpolation.  The verdict per t comes from the sign of the
    fitted slope of term vs radius.  Ball b is scored at every t by one
    ball_term call under f"{op_id}/b{b}", so the t's share its nodes.
    """
    system = validate_exponents(system, group)
    t_grid = tuple(t_grid) if t_grid is not None else DEFAULT_T_GRID
    scored = [[] for _ in t_grid]  # per t: (ball, term) for each finite term
    flagged = 0
    for b_idx, ball in enumerate(sampler.generate(scheme.seed)):
        terms = ball_term(
            group, u, vs, system, ball, scheme, op_id=f"{op_id}/b{b_idx}", t_grid=t_grid
        )
        for found, term in zip(scored, terms):
            if term.flagged or not np.isfinite(term.value):
                flagged += 1
            else:
                found.append((ball, term))
    per_t = []
    for t, found in zip(t_grid, scored):
        slope = _fit_slope([ball.radius for ball, _ in found], [term.value for _, term in found])
        best_ball, best = max(found, key=lambda pair: pair[1].value, default=(None, None))
        per_t.append(
            {
                "t": t,
                "sup": best.value if best is not None else math.nan,
                "sup_std_error": best.std_error if best is not None else math.nan,
                "argmax_ball": best_ball.to_dict() if best_ball is not None else None,
                "slope": slope,
                "verdict": _verdict(slope),
                "balls_used": len(found),
            }
        )
    return WeightConditionReport(
        exponent=scaling_exponent(system, group),
        per_t=per_t,
        flagged_count=flagged,
        sampler=sampler.to_dict(),
    )

"""Integration on gauge balls and on products of them, by one engine.

Every integral here is one formula over the product of m support balls,

    int g(y_vec) / d(x, y_vec)^(mQ - tau) dy_vec,   d(x, y_vec) = sum_i d(x, y_i).

The multilinear fractional integral is the general case; a ball integral
int_B f dx is the m = 1 case without a kernel.  Both run through two
private pieces:

* `_strata` builds a scheme's node sets as strata (nodes of shape
  (N, m, n), live mask or None, volume):
    uniform  one stratum of uniform samples, slot i drawn by `sample_ball`
             under stream(seed, op_id, index=i);
    grid     one stratum: the product midpoint grid on the slots' centered
             boxes, live where every slot lies in its ball;
    annuli   dyadic shells d(pole, y_vec) in [2^-(j+1), 2^-j) * r0, shell j
             drawn under index j from the slot boxes cut to the shell's
             reach, then the top stratum d >= r0 of uniform samples with
             slot i under index levels + i.  The region below
             2^-levels * r0 is dropped.
* `_estimate` evaluates the integrand once per stratum on its live nodes,
  zero-fills the rest, applies the (points x nodes) kernel in row blocks
  when there is one, and sums volume * mean over the strata.

All Monte Carlo paths are unbiased, deterministic given (seed, op_id), and
carry a standard error.  Uniform ball samples are drawn by rejection from
the centered coordinate box (layer i extent r^i) and left-translated to
the center, which preserves Lebesgue measure.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .carnot.constants import ball_volume
from .carnot.group import GaugeBall, ball_box, centered_box_extents
from .errors import DomainError, HypothesisError, IntegrationError, StructureError
from .rng import stream

log = logging.getLogger(__name__)

_MC_KINDS = ("uniform", "annuli")
_KINDS = _MC_KINDS + ("grid",)


@dataclass(frozen=True)
class QuadratureScheme:
    """How to integrate: Monte Carlo (uniform or annuli-stratified) or grid."""

    kind: str = "uniform"
    samples: int = 4096
    levels: int = 24
    points_per_axis: int = 64
    seed: int = 0

    def validate(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown quadrature kind {self.kind!r}")
        if self.kind in _MC_KINDS and self.samples < 1000:
            raise DomainError("Monte Carlo schemes need samples >= 1e3")
        if self.kind == "annuli" and self.levels < 4:
            raise DomainError("annuli schemes need levels >= 4")
        if self.kind == "grid" and self.points_per_axis < 2:
            raise DomainError("grids need at least 2 points per axis")
        return self

    def with_(self, **kw):
        return replace(self, **kw)

    def to_dict(self):
        return {
            "kind": self.kind,
            "samples": self.samples,
            "levels": self.levels,
            "points_per_axis": self.points_per_axis,
            "seed": self.seed,
        }


@dataclass
class Estimate:
    """A numeric estimate with its Monte Carlo standard error."""

    value: float
    std_error: float
    samples: int
    seed: int | None = None
    flagged: bool = False
    note: str = ""

    @classmethod
    def exact(cls, value, note="closed-form"):
        return cls(value=float(value), std_error=0.0, samples=0, note=note)

    def powered(self, gamma):
        """First-order error propagation through v -> v^gamma."""
        v = self.value
        if v <= 0.0:
            return Estimate(0.0, 0.0, self.samples, self.seed, self.flagged, self.note)
        return Estimate(
            value=v**gamma,
            std_error=abs(gamma) * v ** (gamma - 1.0) * self.std_error,
            samples=self.samples,
            seed=self.seed,
            flagged=self.flagged,
            note=self.note,
        )

    def scaled(self, c):
        return Estimate(
            value=c * self.value,
            std_error=abs(c) * self.std_error,
            samples=self.samples,
            seed=self.seed,
            flagged=self.flagged,
            note=self.note,
        )

    def to_dict(self):
        return {
            "value": self.value,
            "std_error": self.std_error,
            "samples": self.samples,
            "seed": self.seed,
            "flagged": self.flagged,
        }


def estimate_product(estimates):
    """Product with first-order variance propagation (handles zero factors)."""
    ests = list(estimates)
    value = math.prod(e.value for e in ests)
    var = 0.0
    for i, e in enumerate(ests):
        rest = math.prod(x.value for j, x in enumerate(ests) if j != i)
        var += (e.std_error * rest) ** 2
    return Estimate(
        value=value,
        std_error=math.sqrt(var),
        samples=max((e.samples for e in ests), default=0),
        seed=next((e.seed for e in ests if e.seed is not None), None),
        flagged=any(e.flagged for e in ests),
    )


def estimate_sum(estimates):
    ests = list(estimates)
    return Estimate(
        value=sum(e.value for e in ests),
        std_error=math.sqrt(sum(e.std_error**2 for e in ests)),
        samples=sum(e.samples for e in ests),
        seed=next((e.seed for e in ests if e.seed is not None), None),
        flagged=any(e.flagged for e in ests),
    )


# -- sampling ----------------------------------------------------------------


def sample_ball(group, ball, count, rng):
    """`count` uniform points in a gauge ball, by centered-box rejection.

    The result is the first `count` accepted rows of one long draw from
    `rng`: Philox draws concatenate, so splitting the draw into chunks does
    not move the nodes.  Each chunk is sized from the closed-form acceptance
    ratio |B(0, r)| / box = c_d / 2^n, plus a margin of 4 sqrt(need) for
    the binomial spread, so one chunk nearly always suffices and few draws
    are thrown away.
    """
    ext = centered_box_extents(group, ball.radius)
    accept = ball_volume(group, ball.radius) / float(np.prod(2.0 * ext))
    out = np.empty((count, group.n))
    filled = 0
    drawn = 0
    accepted = 0
    while filled < count:
        need = count - filled
        chunk = math.ceil((need + 4.0 * math.sqrt(need)) / accept)
        u = (rng.random((chunk, group.n)) * 2.0 - 1.0) * ext
        drawn += chunk
        keep = u[group.gauge_norm(u) < ball.radius]
        accepted += keep.shape[0]
        take = min(need, keep.shape[0])
        out[filled : filled + take] = keep[:take]
        filled += take
    log.debug(
        "sample_ball: %d/%d drawn points accepted (%.1f%%), %d kept",
        accepted, drawn, 100.0 * accepted / drawn, count,
    )
    return group.compose(ball.center, out)


def quadrature_nodes(group, ball, scheme, op_id):
    """Uniform MC nodes on a ball for a given scheme; reproducible by op_id."""
    scheme.validate()
    rng = stream(scheme.seed, op_id)
    return sample_ball(group, ball, scheme.samples, rng)


def mc_ball_volume(group, r, samples, seed, op_id="mc-ball-volume"):
    """Independent MC volume of B(0, r) by box rejection (no volume law used)."""
    if not r > 0:
        raise DomainError("radius must be positive")
    rng = stream(seed, f"{op_id}/{r!r}")
    ext = centered_box_extents(group, r)
    box_volume = float(np.prod(2.0 * ext))
    accepted = 0
    remaining = int(samples)
    while remaining > 0:
        take = min(1_000_000, remaining)
        pts = (rng.random((take, group.n)) * 2.0 - 1.0) * ext
        accepted += int(np.count_nonzero(group.gauge_norm(pts) < r))
        remaining -= take
    phat = accepted / samples
    return Estimate(
        value=box_volume * phat,
        std_error=box_volume * math.sqrt(max(phat * (1.0 - phat), 0.0) / samples),
        samples=int(samples),
        seed=seed,
    )


# -- the engine: strata and one estimator --------------------------------------


# Kernel entries per row block of the (points x nodes) matrix; bounds the
# peak memory whatever the number of points.
_KERNEL_BLOCK = 1 << 16


def _slot_samples(group, balls, count, seed, op_id, first):
    """Uniform samples on every ball, slot i under stream index first + i,
    as nodes of shape (count, m, n), and the product volume."""
    slots = [
        sample_ball(group, ball, count, stream(seed, op_id, index=first + i))
        for i, ball in enumerate(balls)
    ]
    pts = slots[0][:, None] if len(slots) == 1 else np.stack(slots, axis=1)
    return pts, math.prod(ball_volume(group, ball.radius) for ball in balls)


def _box_intersection(lo1, hi1, lo2, hi2):
    lo = np.maximum(lo1, lo2)
    hi = np.minimum(hi1, hi2)
    if np.any(hi <= lo):
        return None
    return lo, hi


def _strata(group, balls, scheme, op_id, pole=None):
    """Yield the scheme's strata on the product of `balls` (one per slot):
    (nodes of shape (N, m, n), live mask or None, volume).  The annuli
    shells are centred at `pole`; see the module docstring."""
    m = len(balls)
    if scheme.kind == "uniform":
        pts, volume = _slot_samples(group, balls, scheme.samples, scheme.seed, op_id, 0)
        yield pts, None, volume
        return
    if scheme.kind == "grid":
        pp = scheme.points_per_axis
        if pp ** (m * group.n) > 20_000_000:
            raise DomainError("tensor grid too large; reduce points_per_axis")
        exts = [centered_box_extents(group, ball.radius) for ball in balls]
        axes = [(np.arange(pp) + 0.5) / pp * 2.0 * e - e for ext in exts for e in ext]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=-1).reshape(-1, m, group.n)
        live = np.ones(pts.shape[0], dtype=bool)
        for i, ball in enumerate(balls):
            live &= group.gauge_norm(pts[:, i]) < ball.radius
            pts[:, i] = group.compose(ball.center, pts[:, i])
        yield pts, live, math.prod(float(np.prod(2.0 * ext)) for ext in exts)
        return
    levels = scheme.levels
    per = max(scheme.samples // (levels + 1), 256)
    pole = np.asarray(pole, dtype=float).reshape(-1)
    r0 = sum(float(group.distance(pole, ball.center)) + ball.radius for ball in balls)
    boxes = [ball_box(group, ball) for ball in balls]
    for j in range(levels):
        outer = r0 * 2.0 ** (-j)
        reach = ball_box(group, GaugeBall(pole, outer))
        cut = [_box_intersection(*box, *reach) for box in boxes]
        if any(c is None for c in cut):
            continue
        lo = np.stack([c[0] for c in cut])
        hi = np.stack([c[1] for c in cut])
        u = stream(scheme.seed, op_id, index=j).random((per, m, group.n))
        pts = lo[None] + u * (hi - lo)[None]
        dist = product_distance(group, pole, pts)
        live = (dist >= outer / 2.0) & (dist < outer)
        for i, ball in enumerate(balls):
            live &= ball.contains(group, pts[:, i])
        yield pts, live, float(np.prod(hi - lo))
    # top stratum d(pole, y_vec) >= r0 (the quasi-triangle constant can push
    # a sliver of the supports beyond r0)
    pts, volume = _slot_samples(group, balls, per, scheme.seed, op_id, levels)
    yield pts, product_distance(group, pole, pts) >= r0, volume


def product_distance(group, x, pts):
    """d(x, y_vec) = sum_i d(x, y_i) for pts of shape (N, m, n).

    x of shape (n,) gives shape (N,); a batch of shape (P, n) gives (P, N).
    """
    xinv = group.inverse(x)[..., None, :]
    dist = group.gauge_norm(group.compose(xinv, pts[:, 0, :]))
    for i in range(1, pts.shape[1]):
        dist = dist + group.gauge_norm(group.compose(xinv, pts[:, i, :]))
    return dist


def _kernel_rows(group, kernel, pts, vals, width):
    """Yield row blocks of the (points x nodes) matrix vals / d(x_p, y_vec)^exponent,
    0 where d = 0, for kernel = (points, exponent); without a kernel, the rows
    of vals as one block.  Zero-filled to `width` nodes, a block holds at most
    _KERNEL_BLOCK entries."""
    if kernel is None:
        yield vals
        return
    xs, exponent = kernel
    rows = max(1, _KERNEL_BLOCK // width)
    for start in range(0, xs.shape[0], rows):
        dist = product_distance(group, xs[start : start + rows], pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            kern = np.where(dist > 0.0, dist, np.inf) ** (-exponent)
            block = np.where(dist > 0.0, vals * kern, 0.0)
        yield block


def _check_finite(vals, pts):
    """Raise IntegrationError at the first non-finite value of a (nodes,) or
    (rows, nodes) array; `pts` holds the nodes, and the point is reported
    flattened."""
    rows = np.atleast_2d(vals)
    bad = ~np.isfinite(rows)
    if np.any(bad):
        row, idx = divmod(int(np.argmax(bad)), rows.shape[1])
        raise IntegrationError(
            f"non-finite integrand value {float(rows[row, idx])!r} at a sampled point",
            point=pts[idx].reshape(-1).copy(),
        )


def _eval_rows(f, pts):
    """f on a node set as a (rows, nodes) array, and whether f returned rows."""
    vals = np.asarray(f(pts), dtype=float)
    if vals.ndim == 2:
        return vals, True
    return vals.reshape(1, pts.shape[0]), False


def _row_estimates(rows, volume, seed):
    """One `volume * mean` Estimate per row of a (rows, nodes) array."""
    n = rows.shape[1]
    values = volume * np.mean(rows, axis=1)
    # near-overflow integrand values may push the variance to inf; report it
    with np.errstate(over="ignore"):
        if n > 1:
            stds = volume * np.std(rows, axis=1, ddof=1) / math.sqrt(n)
        else:
            stds = np.zeros(rows.shape[0])
    return [
        Estimate(value=float(v), std_error=float(e), samples=n, seed=seed)
        for v, e in zip(values, stds)
    ]


def _row_covariance(rows, volume):
    """Covariance of the `volume * mean` estimates of a (rows, nodes) array."""
    n = rows.shape[1]
    if n < 2:
        return np.zeros((rows.shape[0], rows.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        return volume**2 * np.atleast_2d(np.cov(rows)) / n


def _estimate(group, strata, f, scheme, kernel=None):
    """Sum over strata of volume * mean(f * kernel), one Estimate per row.

    `f` maps live nodes (N, m, n) to N values or to A rows (A, N).  Without
    a kernel there is one Estimate per row of f; with kernel = (points,
    exponent) f gives one row and there is one Estimate per point.  Returns
    the Estimates and, when f gave rows, their covariance summed over the
    strata (0 for the grid), else None.
    """
    parts = []  # per stratum: one Estimate per row
    cov = 0.0
    for pts, live, volume in strata:
        nodes = pts if live is None else pts[live]
        vals, batch = _eval_rows(f, nodes)
        _check_finite(vals, nodes)
        ests = []
        for block in _kernel_rows(group, kernel, nodes, vals, pts.shape[0]):
            if live is not None:
                full = np.zeros((block.shape[0], pts.shape[0]))
                full[:, live] = block
                block = full
            ests.extend(_row_estimates(block, volume, scheme.seed))
        if batch:  # rows come without a kernel, so as one block
            cov = cov + _row_covariance(block, volume)
        parts.append(ests)
    if scheme.kind == "grid":
        ests = [replace(e, std_error=0.0, note="tensor-grid") for e in parts[0]]
        cov = np.zeros((len(ests), len(ests)))
    elif scheme.kind == "annuli":
        note = f"annuli truncated below 2^-{scheme.levels} * r0"
        ests = [replace(estimate_sum(row), seed=scheme.seed, note=note) for row in zip(*parts)]
    else:
        ests = parts[0]
    return ests, (cov if batch else None)


# -- ball integrals ----------------------------------------------------------


def integrate_ball(group, f, ball, scheme, *, op_id="integrate-ball", singularity=None):
    """Estimate of int_B f dx.

    uniform: |B| * mean(f) over uniform ball samples (unbiased).
    grid:    midpoint rule on the centered box with membership masking
             (std_error 0).
    annuli:  stratified over dyadic gauge shells around `singularity`
             (default: the ball center); controls integrable point
             singularities of f.

    `f` maps an (N, n) node set to N values, and the result is one
    Estimate.  It may instead return A rows, shape (A, N): every row is
    integrated on the same nodes, and the result is a list of A Estimates
    with the A x A covariance of those estimates (0 for the grid, summed
    over strata for annuli).  Each row equals the single-function result
    bit for bit.  `f` is called on every node set the scheme forms, also
    on one with no nodes.
    """
    scheme.validate()
    pole = ball.center if singularity is None else singularity
    strata = _strata(group, [ball], scheme, op_id, pole)
    ests, cov = _estimate(group, strata, lambda pts: f(pts[:, 0]), scheme)
    return ests[0] if cov is None else (ests, cov)


# -- weighted norms ----------------------------------------------------------


def lp_norm_ball(group, f, w, p, ball, scheme, *, op_id="lp-norm", singularity=None):
    """(int_B (|f| w)^p dx)^(1/p); a quasi-norm is allowed for p < 1.

    The integrand is 0 wherever f = 0, even where w is infinite (the
    measure-theory convention 0 * inf = 0); any other non-finite value
    still raises IntegrationError.

    If `f` returns A rows, shape (A, N), all A norms are taken on one node
    set: the result is a list of A norm Estimates and the A x A covariance
    of the raw integrals int_B (|f_a| w)^p (see `integrate_ball`).  Each
    row equals the single-function call with the same op_id bit for bit.
    """
    if not p > 0:
        raise DomainError(f"norm exponent must be positive, got {p}")

    def integrand(pts):
        vals = np.abs(np.asarray(f(pts), dtype=float))
        if vals.ndim != 2:
            vals = vals.reshape(pts.shape[0])
        wv = np.asarray(w(pts), dtype=float).reshape(pts.shape[0])
        with np.errstate(invalid="ignore", over="ignore"):
            return np.where(vals == 0.0, 0.0, (vals * wv) ** p)

    out = integrate_ball(group, integrand, ball, scheme, op_id=op_id, singularity=singularity)
    if isinstance(out, Estimate):
        return _lp_root(out, p)
    raws, cov = out
    return [_lp_root(raw, p) for raw in raws], cov


def _lp_root(raw, p):
    raw.value = max(raw.value, 0.0)
    return raw.powered(1.0 / p)


# -- singular product-domain integrals ----------------------------------------


def integrate_singular_product(
    group, m, integrand, x, tau, supports, scheme, *, op_id="singular-product"
):
    """Estimate of int f(y_vec) / d(x, y_vec)^(mQ - tau) over product supports.

    `x` is one target point of shape (n,), which returns an Estimate, or a
    batch of shape (P, n), which returns a list of P Estimates.

    The uniform and grid schemes build one product node set for the whole
    batch and evaluate the integrand on it once; the kernel then acts as a
    (points x nodes) matrix, formed in row blocks of at most 2^16 entries.
    At tau = mQ the kernel is the constant 1: no distance is formed, and
    one kernel-free estimate serves every point.  Row p equals the
    single-point result at x[p] bit for bit.  Every point's standard error
    is valid on its own, but the points share nodes, so their errors are
    correlated.

    The annuli scheme stratifies the product domain by dyadic shells
    d(x, y_vec) in [2^-(j+1), 2^-j) * r0 and samples each shell uniformly
    from the intersection of the per-slot support boxes with the shell's
    bounding box; the inner region below 2^-levels * r0 is dropped (its
    contribution decays geometrically since the kernel exponent is < mQ).
    Its shells are centred at x, so it integrates one point at a time.
    """
    scheme.validate()
    Q = group.homogeneous_dimension
    if not tau > 0:
        raise DomainError(f"order tau must be positive, got {tau}")
    if tau > m * Q + 1e-12:
        raise HypothesisError(f"tau = {tau} exceeds m*Q = {m * Q}")
    supports = list(supports)
    if len(supports) != m:
        raise DomainError("need one support ball per slot")
    single = np.ndim(x) < 2
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    if xs.ndim != 2 or xs.shape[1] != group.n:
        raise StructureError(
            f"target points need shape (n,) or (P, n) with n = {group.n}, got {np.shape(x)}"
        )
    exponent = m * Q - tau

    def f(pts):
        return np.asarray(integrand(pts), dtype=float).reshape(pts.shape[0])

    def estimate(points, pole=None):
        kernel = None if exponent == 0.0 else (points, exponent)
        ests, _ = _estimate(group, _strata(group, supports, scheme, op_id, pole), f, scheme, kernel)
        # without a kernel the one estimate serves every point
        return ests if len(ests) == len(points) else [replace(ests[0]) for _ in points]

    if scheme.kind == "annuli":
        out = [estimate(xp[None], xp)[0] for xp in xs]
    else:
        out = estimate(xs)
    return out[0] if single else out


def product_integrand(fs):
    """Build the integrand prod_i f_i(y_i) on (N, m, n) batches."""

    def integrand(pts):
        out = np.ones(pts.shape[0])
        for i, f in enumerate(fs):
            out = out * np.asarray(f(pts[:, i, :]), dtype=float).reshape(pts.shape[0])
        return out

    return integrand

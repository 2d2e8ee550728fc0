"""Integration engines: seeded Monte Carlo on gauge balls, dyadic-annuli
importance sampling for singular kernels on product domains, tensor grids
for low-dimensional oracles, and weighted L^p (quasi-)norms.

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

    The chunk size is fixed up front so the accepted prefix is a
    deterministic function of the generator stream alone.
    """
    ext = centered_box_extents(group, ball.radius)
    out = np.empty((count, group.n))
    filled = 0
    drawn = 0
    accepted = 0
    chunk = max(2048, 2 * count)
    while filled < count:
        u = (rng.random((chunk, group.n)) * 2.0 - 1.0) * ext
        drawn += chunk
        keep = u[group.gauge_norm(u) < ball.radius]
        accepted += keep.shape[0]
        take = min(count - filled, keep.shape[0])
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


# -- ball integrals ----------------------------------------------------------


def _check_finite(vals, pts):
    """Raise IntegrationError at the first non-finite value of a (nodes,) or
    (rows, nodes) array; `pts` holds the nodes."""
    rows = np.atleast_2d(vals)
    bad = ~np.isfinite(rows)
    if np.any(bad):
        row, idx = divmod(int(np.argmax(bad)), rows.shape[1])
        raise IntegrationError(
            f"non-finite integrand value {float(rows[row, idx])!r} at a sampled point",
            point=pts[idx].copy(),
        )


def _mean_estimate(vals, volume, seed):
    return _row_estimates(vals[None], volume, seed)[0]


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


def _eval_rows(f, pts):
    """f on a node set as a (rows, nodes) array, and whether f returned rows."""
    vals = np.asarray(f(pts), dtype=float)
    if vals.ndim == 2:
        return vals, True
    return vals.reshape(1, pts.shape[0]), False


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
    if scheme.kind == "uniform":
        pts = sample_ball(group, ball, scheme.samples, stream(scheme.seed, op_id))
        rows, batch = _eval_rows(f, pts)
        _check_finite(rows, pts)
        volume = ball_volume(group, ball.radius)
        ests = _row_estimates(rows, volume, scheme.seed)
        cov = _row_covariance(rows, volume) if batch else None
    elif scheme.kind == "grid":
        ests, cov, batch = _integrate_ball_grid(group, f, ball, scheme)
    else:
        ests, cov, batch = _integrate_ball_annuli(group, f, ball, scheme, op_id, singularity)
    return (ests, cov) if batch else ests[0]


def _integrate_ball_grid(group, f, ball, scheme):
    pp = scheme.points_per_axis
    if pp**group.n > 20_000_000:
        raise DomainError("tensor grid too large; reduce points_per_axis")
    ext = centered_box_extents(group, ball.radius)
    axes = [(np.arange(pp) + 0.5) / pp * 2.0 * e - e for e in ext]
    mesh = np.meshgrid(*axes, indexing="ij")
    u = np.stack([m.ravel() for m in mesh], axis=-1)
    inside = group.gauge_norm(u) < ball.radius
    pts = group.compose(ball.center, u)
    inner, batch = _eval_rows(f, pts[inside])
    _check_finite(inner, pts[inside])
    rows = np.zeros((inner.shape[0], pts.shape[0]))
    rows[:, inside] = inner
    box_volume = float(np.prod(2.0 * ext))
    ests = [
        Estimate(
            value=box_volume * float(mean),
            std_error=0.0,
            samples=int(pts.shape[0]),
            seed=scheme.seed,
            note="tensor-grid",
        )
        for mean in np.mean(rows, axis=1)
    ]
    return ests, np.zeros((len(ests), len(ests))), batch


def _box_intersection(lo1, hi1, lo2, hi2):
    lo = np.maximum(lo1, lo2)
    hi = np.minimum(hi1, hi2)
    if np.any(hi <= lo):
        return None
    return lo, hi


def _integrate_ball_annuli(group, f, ball, scheme, op_id, singularity):
    pole = np.asarray(
        singularity if singularity is not None else ball.center, dtype=float
    ).reshape(-1)
    r0 = float(group.distance(pole, ball.center)) + ball.radius
    levels = scheme.levels
    per = max(scheme.samples // (levels + 1), 256)
    lo_b, hi_b = ball_box(group, ball)
    parts = []  # per stratum: one Estimate per row
    cov = 0.0
    batch = False

    def stratum(pts, mask, volume):
        nonlocal cov, batch
        inner, batch = _eval_rows(f, pts[mask])
        _check_finite(inner, pts[mask])
        rows = np.zeros((inner.shape[0], per))
        rows[:, mask] = inner
        parts.append(_row_estimates(rows, volume, scheme.seed))
        if batch:
            cov = cov + _row_covariance(rows, volume)

    for j in range(levels):
        b = r0 * 2.0 ** (-j)
        a = b / 2.0
        shell_box = _box_intersection(lo_b, hi_b, *ball_box(group, GaugeBall(pole, b)))
        if shell_box is None:
            continue
        lo, hi = shell_box
        rng = stream(scheme.seed, op_id, index=j)
        pts = lo + rng.random((per, group.n)) * (hi - lo)
        dist = group.distance(pole, pts)
        mask = (ball.contains(group, pts)) & (dist >= a) & (dist < b)
        stratum(pts, mask, float(np.prod(hi - lo)))
    # top stratum d >= r0 (nonempty only if the quasi-triangle constant bites)
    rng = stream(scheme.seed, op_id, index=levels)
    pts = sample_ball(group, ball, per, rng)
    stratum(pts, group.distance(pole, pts) >= r0, ball_volume(group, ball.radius))
    ests = []
    for row_parts in zip(*parts):
        out = estimate_sum(row_parts)
        out.seed = scheme.seed
        out.note = f"annuli truncated below 2^-{levels} * r0"
        ests.append(out)
    return ests, (cov if batch else None), batch


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


# Kernel entries per row block of the (points x nodes) matrix in the uniform
# and grid paths; bounds the peak memory whatever the number of points.
_KERNEL_BLOCK = 1 << 16


def product_distance(group, x, pts):
    """d(x, y_vec) = sum_i d(x, y_i) for pts of shape (N, m, n).

    x of shape (n,) gives shape (N,); a batch of shape (P, n) gives (P, N).
    """
    xinv = group.inverse(x)[..., None, :]
    dist = group.gauge_norm(group.compose(xinv, pts[:, 0, :]))
    for i in range(1, pts.shape[1]):
        dist = dist + group.gauge_norm(group.compose(xinv, pts[:, i, :]))
    return dist


def _kernel(dist, exponent):
    if exponent == 0.0:
        return np.ones_like(dist)
    with np.errstate(divide="ignore"):
        out = np.where(dist > 0.0, dist, np.inf) ** (-exponent)
    return out


def integrate_singular_product(
    group, m, integrand, x, tau, supports, scheme, *, op_id="singular-product"
):
    """Estimate of int f(y_vec) / d(x, y_vec)^(mQ - tau) over product supports.

    `x` is one target point of shape (n,), which returns an Estimate, or a
    batch of shape (P, n), which returns a list of P Estimates.

    The uniform and grid schemes build one product node set for the whole
    batch and evaluate the integrand on it once; the kernel then acts as a
    (points x nodes) matrix, formed in row blocks of at most 2^16 entries.
    Row p equals the single-point result at x[p] bit for bit.
    Every point's standard error is valid on its own, but the points share
    nodes, so their errors are correlated.

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

    if scheme.kind == "grid":
        out = _singular_product_grid(group, m, integrand, xs, exponent, supports, scheme)
    elif scheme.kind == "uniform":
        out = _singular_product_uniform(
            group, m, integrand, xs, exponent, supports, scheme, op_id
        )
    else:
        out = [
            _singular_product_annuli(group, m, integrand, xp, exponent, supports, scheme, op_id)
            for xp in xs
        ]
    return out[0] if single else out


def _eval_product_integrand(integrand, pts):
    vals = np.asarray(integrand(pts), dtype=float).reshape(pts.shape[0])
    return vals


def _kernel_rows(group, xs, pts, vals, exponent):
    """Yield row blocks of the (points x nodes) matrix vals / d(x_p, y_vec)^exponent,
    with the entries at d = 0 set to 0."""
    rows = max(1, _KERNEL_BLOCK // pts.shape[0])
    for start in range(0, xs.shape[0], rows):
        dist = product_distance(group, xs[start : start + rows], pts)
        with np.errstate(invalid="ignore"):
            yield np.where(dist > 0.0, vals * _kernel(dist, exponent), 0.0)


def _singular_product_uniform(group, m, integrand, xs, exponent, supports, scheme, op_id):
    count = scheme.samples
    slots = [
        sample_ball(group, supports[i], count, stream(scheme.seed, op_id, index=i))
        for i in range(m)
    ]
    pts = np.stack(slots, axis=1)  # (N, m, n)
    vals = _eval_product_integrand(integrand, pts)
    _check_finite(vals, pts.reshape(count, -1))
    volume = math.prod(ball_volume(group, b.radius) for b in supports)
    out = []
    for block in _kernel_rows(group, xs, pts, vals, exponent):
        out.extend(_row_estimates(block, volume, scheme.seed))
    return out


def _singular_product_annuli(group, m, integrand, x, exponent, supports, scheme, op_id):
    r0 = sum(float(group.distance(x, b.center)) + b.radius for b in supports)
    levels = scheme.levels
    per = max(scheme.samples // (levels + 1), 256)
    slot_boxes = [ball_box(group, b) for b in supports]
    parts = []
    for j in range(levels):
        b_out = r0 * 2.0 ** (-j)
        a_in = b_out / 2.0
        reach = ball_box(group, GaugeBall(x, b_out))
        boxes = []
        empty = False
        for lo_s, hi_s in slot_boxes:
            inter = _box_intersection(lo_s, hi_s, *reach)
            if inter is None:
                empty = True
                break
            boxes.append(inter)
        if empty:
            continue
        rng = stream(scheme.seed, op_id, index=j)
        u = rng.random((per, m, group.n))
        lo = np.stack([bx[0] for bx in boxes])
        hi = np.stack([bx[1] for bx in boxes])
        pts = lo[None] + u * (hi - lo)[None]
        dist = product_distance(group, x, pts)
        in_balls = np.ones(per, dtype=bool)
        for i, ball in enumerate(supports):
            in_balls &= ball.contains(group, pts[:, i, :])
        mask = in_balls & (dist >= a_in) & (dist < b_out)
        vals = np.zeros(per)
        if np.any(mask):
            inner = _eval_product_integrand(integrand, pts[mask])
            _check_finite(inner, pts[mask].reshape(inner.shape[0], -1))
            vals[mask] = inner * _kernel(dist[mask], exponent)
        volume = float(np.prod(hi - lo))
        parts.append(_mean_estimate(vals, volume, scheme.seed))
    # top stratum: d(x, y_vec) >= r0 (the quasi-triangle constant can push
    # a sliver of the product supports beyond r0)
    slots = [
        sample_ball(group, supports[i], per, stream(scheme.seed, op_id, index=levels + 1 + i))
        for i in range(m)
    ]
    pts = np.stack(slots, axis=1)
    dist = product_distance(group, x, pts)
    mask = dist >= r0
    vals = np.zeros(per)
    if np.any(mask):
        inner = _eval_product_integrand(integrand, pts[mask])
        _check_finite(inner, pts[mask].reshape(inner.shape[0], -1))
        vals[mask] = inner * _kernel(dist[mask], exponent)
    volume = math.prod(ball_volume(group, b.radius) for b in supports)
    parts.append(_mean_estimate(vals, volume, scheme.seed))
    out = estimate_sum(parts)
    out.seed = scheme.seed
    out.note = f"annuli truncated below 2^-{levels} * r0"
    return out


def _singular_product_grid(group, m, integrand, xs, exponent, supports, scheme):
    pp = scheme.points_per_axis
    dims = m * group.n
    if pp**dims > 20_000_000:
        raise DomainError("tensor grid too large for the product domain")
    axes = []
    exts = []
    for ball in supports:
        ext = centered_box_extents(group, ball.radius)
        exts.append(ext)
        for e in ext:
            axes.append((np.arange(pp) + 0.5) / pp * 2.0 * e - e)
    mesh = np.meshgrid(*axes, indexing="ij")
    u = np.stack([mm.ravel() for mm in mesh], axis=-1).reshape(-1, m, group.n)
    total = u.shape[0]
    pts = np.empty_like(u)
    inside = np.ones(total, dtype=bool)
    for i, ball in enumerate(supports):
        inside &= group.gauge_norm(u[:, i, :]) < ball.radius
        pts[:, i, :] = group.compose(ball.center, u[:, i, :])
    pts = pts[inside]
    vals = _eval_product_integrand(integrand, pts)
    _check_finite(vals, pts.reshape(pts.shape[0], -1))
    box_volume = math.prod(float(np.prod(2.0 * e)) for e in exts)
    out = []
    for block in _kernel_rows(group, xs, pts, vals, exponent):
        out.extend(
            Estimate(
                value=box_volume * float(s / total),
                std_error=0.0,
                samples=int(total),
                seed=scheme.seed,
                note="tensor-grid",
            )
            for s in np.sum(block, axis=1)
        )
    return out


def product_integrand(fs):
    """Build the integrand prod_i f_i(y_i) on (N, m, n) batches."""

    def integrand(pts):
        out = np.ones(pts.shape[0])
        for i, f in enumerate(fs):
            out = out * np.asarray(f(pts[:, i, :]), dtype=float).reshape(pts.shape[0])
        return out

    return integrand

"""Integration on gauge balls and on products of them, by one engine.

Every integral here is one formula over the product of m support balls,

    int g(y_vec) / d(x, y_vec)^(mQ - tau) dy_vec,   d(x, y_vec) = sum_i d(x, y_i).

The multilinear fractional integral is the general case; a ball integral
int_B f dx is the m = 1 case without a kernel.  Both run through two
private pieces:

* `_strata` builds a scheme's node sets on a family of such products,
  each under its own op_id (one product for a product integral, one
  one-slot product per ball for a ball list), as S stacked strata of N
  nodes, each product's strata in a row (nodes (S, N, m, n), live mask
  (S, N) or None, volumes (S,), distances d(pole, y_vec) of shape (S, N)
  or None, and each product's number of strata):
    uniform  one stratum of uniform samples per product, slot i drawn
             under stream(seed, op_id, index=i), every node live;
    annuli   dyadic shells d(pole, y_vec) in [2^-(j+1), 2^-j) * r0, shell j
             drawn under index j from the slot boxes cut to the shell's
             reach, then the top stratum d >= r0 of uniform samples with
             slot i under index levels + i.  The region below
             2^-levels * r0 is dropped.  All strata of a product get their
             pole distances from one pass, which chooses the live nodes.
  The uniform nodes of every slot of every product come from one
  `sample_ball` call on the list of their balls, or from the unit node
  sets that a `UnitNodeBalls` list carries.
* `_estimate` evaluates the integrand once, on the live nodes of all
  strata, zero-fills the rest, applies the (points x nodes) kernel in row
  blocks when there is one (from the pole distances when the pole is the
  one kernel point), and per product sums volume * mean over its strata
  in order.

This module alone decides the nodes of a ball.  `sample_ball` draws the
unit-ball nodes V of a stream, by rejection from (-1, 1)^n with the one
acceptance ratio c_d / 2^n, and gives B(c, r) the nodes c o delta_r(V);
left translation and dilation preserve uniformity, and V does not depend
on the ball.  A `UnitNodeBalls` list keeps each ball's V, so estimators
that take it share each ball's nodes, every one mapping the same V by
c o delta_r.  `_live_passes` owns the rest: ball b of a list draws under
f"{op_id}/b{b}" (its own stream) and one ball under op_id; under the
uniform scheme a ball whose box misses the box of the integrand's
declared support (`support_box`) is dead and draws no nodes; and the
live balls go in passes of at most _PASS nodes (or one ball), which
moves no value.  `integrate_ball` and `lp_norm_ball` take each pass from
it, each ball's result equal to its one-ball call bit for bit and a dead
ball's the exact zero that the full path gives there; `ball_stacks` hands
the passes out as (B, N, n) node stacks with the functions evaluated on
them, for the best-polynomial fits.  In `lp_norm_ball` a constant weight
(`weight_number`) is the number c: it is never called, and its norm's
integrand is (|f| c)^p.

Both schemes are Monte Carlo, deterministic given (seed, op_id), and every
value carries a standard error; uniform sampling is unbiased, annuli only
up to its truncation.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from .carnot.constants import ball_volume
from .carnot.functions import support_box
from .carnot.group import GaugeBall, ball_box
from .errors import DomainError, HypothesisError, IntegrationError, StructureError
from .rng import stream

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class QuadratureScheme:
    """How to integrate: Monte Carlo, uniform or annuli-stratified."""

    kind: str = "uniform"
    samples: int = 4096
    levels: int = 24
    seed: int = 0

    def validate(self):
        if self.kind not in ("uniform", "annuli"):
            raise DomainError(f"unknown quadrature kind {self.kind!r}")
        if self.samples < 1000:
            raise DomainError("Monte Carlo schemes need samples >= 1e3")
        if self.kind == "annuli" and self.levels < 4:
            raise DomainError("annuli schemes need levels >= 4")
        return self

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class Estimate:
    """A numeric estimate with its Monte Carlo standard error."""

    value: float
    std_error: float
    samples: int
    seed: int | None = None
    flagged: bool = False
    note: str = ""

    @classmethod
    def exact(cls, value):
        return cls(value=float(value), std_error=0.0, samples=0, note="closed-form")

    def powered(self, gamma):
        """First-order error propagation through v -> v^gamma."""
        v = self.value
        if v <= 0.0:
            return self._with(0.0, 0.0)
        return self._with(v**gamma, abs(gamma) * v ** (gamma - 1.0) * self.std_error)

    def scaled(self, c):
        return self._with(c * self.value, abs(c) * self.std_error)

    def _with(self, value, std_error):
        """This estimate with a new value and std_error, built directly:
        `dataclasses.replace` takes about twice as long per call."""
        return Estimate(value, std_error, self.samples, self.seed, self.flagged, self.note)

    def to_dict(self):
        return asdict(self)


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


# -- sampling ----------------------------------------------------------------


def sample_ball(group, ball, count, rng):
    """`count` uniform points in a gauge ball B(c, r): c o delta_r(V), where
    V is the first `count` rows of one long draw from `rng` on the box
    (-1, 1)^n that fall in B(0, 1), so V does not depend on (c, r).

    Philox draws concatenate, so splitting the draw into chunks does not
    move the nodes.  Each chunk is sized from the one acceptance ratio
    a = |B(0, 1)| / 2^n = c_d / 2^n: n rows accept a binomial count of mean
    n a and sd sqrt(n a (1 - a)), so (need + 4 sqrt(need (1 - a))) / a rows
    nearly always suffice in one chunk, and few draws are thrown away (at
    a = 1, as on R^n, the chunk is the need itself).

    `ball` may be a list of B balls with `rng` a list of B generators: ball
    b draws from rng[b], and the nodes come stacked ball-major as
    (B * count, n), each ball's equal to its one-ball call bit for bit.
    The rejection test and the left translation run once over all balls.
    """
    single = isinstance(ball, GaugeBall)
    balls, rngs = ([ball], [rng]) if single else (list(ball), list(rng))
    if count == 0 or not balls:
        return np.empty((0, group.n))
    accept = ball_volume(group, 1.0) / 2.0**group.n
    reject = max(1.0 - accept, 0.0)  # a may round above 1 on R^1
    out = np.empty((len(balls), count, group.n))
    filled = [0] * len(balls)
    drawn = 0
    accepted = 0
    todo = range(len(balls))
    while todo:
        # one buffer holds this round's draws of every ball still short
        needs = [count - filled[b] for b in todo]
        ends = list(itertools.accumulate(
            math.ceil((need + 4.0 * math.sqrt(need * reject)) / accept) for need in needs
        ))
        spans = list(zip(todo, [0] + ends, ends))
        u = np.empty((ends[-1], group.n))
        for b, lo, hi in spans:
            rngs[b].random(out=u[lo:hi])
        u *= 2.0
        u -= 1.0
        inside = group.gauge_norm(u) < 1.0
        drawn += ends[-1]
        for b, lo, hi in spans:
            # the first accepted rows that the ball still needs, copied by one
            # take straight into out (mode "clip": "raise" buffers the copy)
            keep = np.flatnonzero(inside[lo:hi])
            accepted += keep.size
            take = keep[: count - filled[b]]
            dest = out[b, filled[b] : filled[b] + take.size]
            np.take(u[lo:hi], take, axis=0, out=dest, mode="clip")
            filled[b] += take.size
        todo = [b for b in todo if filled[b] < count]
    log.debug(
        "sample_ball: %d/%d drawn points accepted (%.1f%%), %d kept",
        accepted, drawn, 100.0 * accepted / drawn, out.shape[0] * count,
    )
    return _place(group, balls, out)


def _place(group, balls, units):
    """c o delta_r(V) on each ball B(c, r) of `balls`, V its unit nodes, a
    (count, n) array in `units`: the nodes stacked ball-major, (B * count, n)."""
    nodes = np.array([group.dilate(b.radius, v) for b, v in zip(balls, units)])
    return group.compose(np.array([b.center for b in balls])[:, None], nodes).reshape(-1, group.n)


class UnitNodeBalls(list):
    """A ball list whose ball b carries its unit node set V_b: the N =
    scheme.samples nodes that `sample_ball` draws on B(0, 1) from
    stream(scheme.seed, f"{op_id}/b{b}"), drawn the first time an estimator
    needs ball b live.  Every estimator that takes the list on `group`
    under a uniform scheme with this seed and N and under this op_id (its
    `key`) maps V_b onto the ball by c o delta_r as `sample_ball` does, so
    its nodes are a plain list's bit for bit; any other request draws as
    for a plain list.  It stands in for its sampler: `generate` returns it."""

    def __init__(self, group, balls, scheme, op_id):
        super().__init__(balls)
        self.key, self._units = (group, op_id, scheme.seed, scheme.samples), {}

    def generate(self, seed, label=None):
        return self

    def unit_nodes(self, indices):
        """V_b for each b in `indices`, the new ones from one `sample_ball` call."""
        group, op_id, seed, count = self.key
        new = [b for b in indices if b not in self._units]
        if new:
            rngs = [stream(seed, f"{op_id}/b{b}") for b in new]
            drawn = sample_ball(group, [GaugeBall(np.zeros(group.n), 1.0)] * len(new), count, rngs)
            self._units.update(zip(new, drawn.reshape(len(new), count, group.n)))
        return [self._units[b] for b in indices]


# -- the engine: strata and one estimator --------------------------------------


# Kernel entries per row block of the (points x nodes) matrix; bounds the
# peak memory whatever the number of points.
_KERNEL_BLOCK = 1 << 16
# Nodes drawn per pass over a ball list (at least one ball a pass); bounds
# the peak memory whatever the number of balls.
_PASS = 1 << 16


def _slot_samples(group, family, count, seed, op_ids, first, units=None):
    """Uniform samples on every slot ball of every product in `family` (B
    lists of m balls), slot i of product b under stream(seed, op_ids[b],
    index=first + i), from one `sample_ball` call or from their unit nodes
    `units`: nodes of shape (B, count, m, n) and the product volumes (B,)."""
    m = len(family[0])
    flat = [ball for balls in family for ball in balls]
    if units is None:
        rngs = [stream(seed, op_id, first + i) for op_id in op_ids for i in range(m)]
        pts = sample_ball(group, flat, count, rngs)
    else:
        pts = _place(group, flat, units)
    pts = pts.reshape(len(family), m, count, group.n).swapaxes(1, 2)
    volumes = [math.prod(ball_volume(group, ball.radius) for ball in balls) for balls in family]
    return np.ascontiguousarray(pts), np.array(volumes)


def _per_stratum(scheme):
    """Nodes per annuli stratum."""
    return max(scheme.samples // (scheme.levels + 1), 256)


def _strata(group, family, scheme, op_ids, poles, units=None):
    """The scheme's strata on each product of balls in `family` (B lists of
    m slot balls, product b drawn under op_ids[b]), stacked product by
    product: nodes (S, N, m, n), live mask (S, N) or None, volumes (S,),
    the distances d(pole, y_vec) of shape (S, N) or None, and the number of
    strata of each product.  Product b's annuli shells are centred at
    poles[b]; see the module docstring.  Uniform nodes may come from the
    slot balls' unit nodes `units` (see `_slot_samples`)."""
    if scheme.kind == "uniform":
        pts, volumes = _slot_samples(group, family, scheme.samples, scheme.seed, op_ids, 0, units)
        return pts, None, volumes, None, [1] * len(family)
    tops, top_volumes = _slot_samples(
        group, family, _per_stratum(scheme), scheme.seed, op_ids, scheme.levels
    )
    parts = [
        _annuli(group, *args, scheme)
        for args in zip(family, op_ids, poles, tops, top_volumes.tolist())
    ]
    pts, live, vols, dist = (np.concatenate(arrays) for arrays in zip(*parts))
    return pts, live, vols, dist, [part[2].shape[0] for part in parts]


def _annuli(group, balls, op_id, pole, top, top_volume, scheme):
    """One product's annuli strata around `pole`, the top stratum's uniform
    nodes `top` given: nodes, live mask, volumes and pole distances."""
    m = len(balls)
    levels = scheme.levels
    per = _per_stratum(scheme)
    pole = np.asarray(pole, dtype=float).reshape(-1)
    r0 = sum(float(group.distance(pole, ball.center)) + ball.radius for ball in balls)
    # shell j reaches ball_box(group, [GaugeBall(pole, outer[j])]), all j at once
    outer = r0 * 0.5 ** np.arange(levels)
    ext = outer[:, None] ** group.weights
    ext[:, group.n1 :] += np.linalg.norm(group.translation_rows(pole), axis=-1) * outer[:, None]
    box_lo, box_hi = ball_box(group, balls)  # (m, n) each
    lo = np.maximum(box_lo, (pole - ext)[:, None])
    hi = np.minimum(box_hi, (pole + ext)[:, None])
    kept = np.flatnonzero(~np.any(hi <= lo, axis=(1, 2)))  # shells that meet every slot box
    lo, hi, outer = lo[kept], hi[kept], outer[kept, None]
    u = [stream(scheme.seed, op_id, index=j).random((per, m, group.n)) for j in kept]
    u = np.array(u).reshape(len(kept), per, m, group.n)  # the shape holds with no shell too
    shells = lo[:, None] + u * (hi - lo)[:, None]
    # top stratum d(pole, y_vec) >= r0 (the quasi-triangle constant can push
    # a sliver of the supports beyond r0)
    pts = np.concatenate([shells, top[None]])
    dist = product_distance(group, pole, pts.reshape(-1, m, group.n)).reshape(-1, per)
    live = dist >= r0
    live[:-1] = (dist[:-1] >= outer / 2.0) & (dist[:-1] < outer)
    for i, ball in enumerate(balls):
        live[:-1] &= ball.contains(group, shells[:, :, i])
    vols = [float(np.prod(h - l)) for l, h in zip(lo, hi)] + [top_volume]
    return pts, live, np.array(vols), dist


def _live_passes(group, ball, scheme, op_id, support_of=None, singularity=None):
    """Yield (indices, strata) per pass over the live balls of `ball`, one
    ball (drawn under op_id) or a list (ball b under f"{op_id}/b{b}"), with
    annuli shells around `singularity` or else each ball's center.  Under
    the uniform scheme a ball whose box misses the box of `support_of`'s
    declared support (`support_box`) is dead and left out.  A pass draws
    at most _PASS nodes, or one ball; a `UnitNodeBalls` list whose key is
    the request's maps each live ball's unit node set."""
    single = isinstance(ball, GaugeBall)
    balls = [ball] if single else ball
    shared = isinstance(ball, UnitNodeBalls) and scheme.kind == "uniform"
    shared = shared and ball.key == (group, op_id, scheme.seed, scheme.samples)
    ids = [op_id] if single else [f"{op_id}/b{b}" for b in range(len(balls))]
    live = np.arange(len(balls))
    box = None if support_of is None or scheme.kind != "uniform" else support_box(group, support_of)
    if box is not None and balls:
        lo, hi = ball_box(group, balls)
        live = np.flatnonzero(~(np.maximum(lo, box[0]) >= np.minimum(hi, box[1])).any(axis=1))
    per = scheme.samples if scheme.kind == "uniform" else (scheme.levels + 1) * _per_stratum(scheme)
    step = max(1, _PASS // per)
    for start in range(0, len(live), step):
        part = live[start : start + step]
        family = [[balls[b]] for b in part]
        poles = [balls[b].center if singularity is None else singularity for b in part]
        units = ball.unit_nodes(part) if shared else None
        yield part, _strata(group, family, scheme, [ids[b] for b in part], poles, units)


def ball_stacks(group, ball, scheme, fns, *, op_id, support_of=None):
    """Per pass of `_live_passes` (every ball is live without `support_of`),
    its balls' indices, nodes (B, N, n), quadrature weights |B| / N (B, N)
    and the functions `fns` on the nodes, each evaluated once, in order:
    shape (len(fns), B, N).  The first non-finite value raises
    IntegrationError.  The scheme must be uniform, which is checked at the
    call; the passes are drawn as they are read."""
    scheme.validate()
    if scheme.kind != "uniform":
        raise DomainError("ball stacks need a uniform scheme")
    return (
        _stack(group, live, strata, fns)
        for live, strata in _live_passes(group, ball, scheme, op_id, support_of)
    )


def _stack(group, live, strata, fns):
    pts, _, vols, _, _ = strata
    nodes = pts[:, :, 0]
    flat = nodes.reshape(-1, group.n)
    vals = np.empty((len(fns), flat.shape[0]))
    for f, out in zip(fns, vals):
        out[:] = np.asarray(f(flat), dtype=float).reshape(flat.shape[0])
        _check_finite(out, flat)
    weights = np.repeat(vols[:, None] / nodes.shape[1], nodes.shape[1], axis=1)
    return live, nodes, weights, vals.reshape(len(fns), *nodes.shape[:2])


def product_distance(group, x, pts):
    """d(x, y_vec) = sum_i d(x, y_i) for pts of shape (N, m, n).

    x of shape (n,) gives shape (N,); a batch of shape (P, n) gives (P, N).
    """
    xinv = group.inverse(x)[..., None, :]
    dist = group.gauge_norm(group.compose(xinv, pts[:, 0, :]))
    for i in range(1, pts.shape[1]):
        dist = dist + group.gauge_norm(group.compose(xinv, pts[:, i, :]))
    return dist


def _kernel_rows(group, kernel, pts, vals, width, near=None):
    """Yield row blocks of the (points x nodes) matrix vals / d(x_p, y_vec)^exponent,
    0 where d = 0, for kernel = (points, exponent); without a kernel, the rows
    of vals as one block.  Zero-filled to `width` nodes, a block holds at most
    _KERNEL_BLOCK entries.  `near`, if given, is the (1, nodes) distance row
    of a kernel with one point."""
    if kernel is None:
        yield vals
        return
    xs, exponent = kernel
    rows = max(1, _KERNEL_BLOCK // width)
    for start in range(0, xs.shape[0], rows):
        dist = product_distance(group, xs[start : start + rows], pts) if near is None else near
        with np.errstate(divide="ignore", invalid="ignore"):
            kern = np.where(dist > 0.0, dist, np.inf) ** (-exponent)
            block = np.where(dist > 0.0, vals * kern, 0.0)
        yield block


def _check_finite(vals, pts, ends=None):
    """Raise IntegrationError at the first non-finite value of a (nodes,) or
    (rows, nodes) array; `pts` holds the nodes, and the point is reported
    flattened.  If the nodes are strata ending at the offsets `ends`, the
    search stays in the first stratum with a non-finite value."""
    rows = np.atleast_2d(vals)
    bad = ~np.isfinite(rows)
    if np.any(bad):
        if ends is not None:
            s = int(np.searchsorted(ends, np.argmax(np.any(bad, axis=0)), side="right"))
            start, stop = (ends[s - 1] if s else 0), ends[s]
            rows, bad, pts = rows[:, start:stop], bad[:, start:stop], pts[start:stop]
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


def _row_covariance(rows, volume):
    """Covariance of the `volume * mean` estimates of a (rows, nodes) array."""
    n = rows.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        centred = rows - (np.add.reduce(rows, axis=1) / n)[:, None]
        return volume**2 * (np.dot(centred, centred.T) * np.true_divide(1, n - 1)) / n


def _estimate(group, strata, f, scheme, kernel=None):
    """Per product of the strata's family, the sum over its strata of
    volume * mean(f * kernel), one Estimate per row.

    `f` maps live nodes (N, m, n) to N values or to A rows (A, N); it is
    called once, on the live nodes of all strata in stratum order.  Without
    a kernel there is one Estimate per row of f; with kernel = (points,
    exponent) the family is one product, f gives one row and there is one
    Estimate per point.  Returns one (Estimates, covariance) pair per
    product, where covariance, when f gave rows, is a function that forms
    their covariance summed over the product's strata when called, else
    None.  Strata that carry pole distances (annuli) come
    with a kernel whose one point is the pole.
    """
    pts, live, vols, dist, counts = strata
    S, N = pts.shape[:2]
    nodes = pts.reshape(S * N, *pts.shape[2:]) if live is None else pts[live]
    vals, batch = _eval_rows(f, nodes)
    ends = N * np.arange(1, S + 1) if live is None else np.cumsum(np.sum(live, axis=1))
    _check_finite(vals, nodes, ends)
    near = None if dist is None else dist[live][None]
    values, stds = [], []
    for block in _kernel_rows(group, kernel, nodes, vals, N, near):
        if live is None:
            full = block.reshape(block.shape[0], S, N)
        else:
            full = np.zeros((block.shape[0], S, N))
            full[:, live] = block
        mean = np.add.reduce(full, axis=-1) / N
        values.append(vols * mean)
        # the ddof-1 standard deviation from that mean; near-overflow integrand
        # values may push the variance to inf: report it (every valid scheme
        # has N >= 2)
        with np.errstate(over="ignore"):
            dev = full - mean[..., None]
            dev *= dev
            stds.append(vols * np.sqrt(np.add.reduce(dev, axis=-1) / (N - 1)) / math.sqrt(N))
    values, stds = np.concatenate(values).tolist(), np.concatenate(stds).tolist()
    volumes = vols.tolist()

    def covariance(own):  # rows come without a kernel, so `full` is their one block
        return sum((_row_covariance(full[:, s], volumes[s]) for s in own), 0.0)

    out = []
    for first, count in zip(itertools.accumulate([0] + counts), counts):
        own = range(first, first + count)
        if scheme.kind == "annuli":
            # strata summed left to right
            note = f"annuli truncated below 2^-{scheme.levels} * r0"
            ests = [
                Estimate(
                    sum(v[first : first + count]),
                    math.sqrt(sum(e**2 for e in es[first : first + count])),
                    count * N, scheme.seed, note=note,
                )
                for v, es in zip(values, stds)
            ]
        else:
            ests = [Estimate(v[first], e[first], N, scheme.seed) for v, e in zip(values, stds)]
        out.append((ests, (lambda own=own: covariance(own)) if batch else None))
    return out


# -- ball integrals ----------------------------------------------------------


def integrate_ball(group, f, ball, scheme, *, op_id="integrate-ball", singularity=None):
    """Estimate of int_B f dx.

    uniform: |B| * mean(f) over uniform ball samples (unbiased).
    annuli:  stratified over dyadic gauge shells around `singularity`
             (default: the ball center); controls integrable point
             singularities of f.

    `f` maps an (N, n) node set to N values, and the result is one
    Estimate.  It may instead return A rows, shape (A, N): every row is
    integrated on the same nodes, and the result is a list of A Estimates
    with a function that forms the A x A covariance of those estimates
    when called (summed over strata for annuli); callers
    that do not need it never form it.  Each row equals the
    single-function result bit for bit.  `f` is called once, on the live
    nodes of all strata, also when there are none.

    `ball` may be a list of balls, ball b integrated under f"{op_id}/b{b}"
    (around `singularity`, or else its own center): the result is the list
    of the one-ball results, bit for bit.  The balls are sampled together
    and `f` is called once on the live nodes of all of them, in passes of
    at most _PASS nodes (or one ball).

    A uniform ball is dead when its box misses the box of f's declared
    `support` (`support_box`; a product's is the intersection of its
    factors' boxes).  It draws no nodes and f is not evaluated there: its
    result is the one an all-zero integrand gives, value and std_error 0
    with `samples` N, the scheme's seed and a zero covariance.  If every
    ball is dead, f is called once on no nodes, to tell whether it gives
    rows.  Annuli balls are always drawn, since their `samples` and note
    depend on the shell geometry.
    """
    scheme.validate()
    single = isinstance(ball, GaugeBall)
    out = [None] * (1 if single else len(ball))
    for live, strata in _live_passes(group, ball, scheme, op_id, f, singularity):
        for b, result in zip(live, _estimate(group, strata, lambda pts: f(pts[:, 0]), scheme)):
            out[b] = result
    if None in out:
        drawn = next((result for result in out if result is not None), None)
        if drawn is not None:
            rows, batch = len(drawn[0]), drawn[1] is not None
        else:
            vals, batch = _eval_rows(f, np.empty((0, group.n)))
            rows = vals.shape[0]
        zero = Estimate(0.0, 0.0, scheme.samples, scheme.seed)
        dead = ([zero] * rows, (lambda: np.zeros((rows, rows))) if batch else None)
        out = [dead if result is None else result for result in out]
    out = [ests[0] if cov is None else (ests, cov) for ests, cov in out]
    return out[0] if single else out


# -- weighted norms ----------------------------------------------------------


def weight_number(w):
    """w as a number: the constant c of a `Weight` without factors (see
    `Weight.as_number`), else None, as for a plain callable."""
    as_number = getattr(w, "as_number", None)
    return None if as_number is None else as_number()


def lp_norm_ball(group, f, w, p, ball, scheme, *, op_id="lp-norm"):
    """(int_B (|f| w)^p dx)^(1/p); a quasi-norm is allowed for p < 1.

    A constant weight c (`weight_number`, always finite) is never called:
    the integrand is (|f| c)^p, formed in place on |f|, with no multiply
    when c = 1, and 0 wherever f = 0 since 0 * c = 0.

    Any other weight may be infinite where f = 0, and the integrand is 0
    there too (the measure-theory convention 0 * inf = 0); any other
    non-finite value still raises IntegrationError.  So such a w is
    called, and (|f| w)^p formed, only on the nodes where f (some row of
    f) is non-zero.

    If `f` returns A rows, shape (A, N), all A norms are taken on one node
    set: the result is a list of A norm Estimates and a function that
    forms the A x A covariance of the raw integrals int_B (|f_a| w)^p when
    called (see `integrate_ball`).  Each row equals the single-function
    call with the same op_id bit for bit.

    A list of balls gives the list of the one-ball results, ball b under
    f"{op_id}/b{b}", from one `integrate_ball` call: f, and w unless it is
    constant, are called once on the nodes of all the balls (per pass).
    The integrand names f as its `vanishes_with`, so a uniform ball whose
    box misses f's support box (`support_box`; a product's is the
    intersection of its factors' boxes) draws no nodes and its norm is an
    exact 0 (see `integrate_ball`).
    """
    if not p > 0:
        raise DomainError(f"norm exponent must be positive, got {p}")

    c = weight_number(w)

    def integrand(pts):
        vals = np.abs(np.asarray(f(pts), dtype=float))
        if vals.ndim != 2:
            vals = vals.reshape(pts.shape[0])
        if c is not None:
            with np.errstate(invalid="ignore", over="ignore"):
                if c != 1.0:
                    vals *= c
                vals **= p
            return vals
        on = np.flatnonzero(vals if vals.ndim == 1 else np.any(vals, axis=0))
        live = vals[..., on]
        wv = np.asarray(w(pts[on]), dtype=float).reshape(len(on))
        out = np.zeros(vals.shape)
        with np.errstate(invalid="ignore", over="ignore"):
            out[..., on] = np.where(live == 0.0, 0.0, (live * wv) ** p)
        return out

    integrand.vanishes_with = f

    def root(out):
        if isinstance(out, Estimate):
            return out.powered(1.0 / p)
        raws, cov = out
        return [raw.powered(1.0 / p) for raw in raws], cov

    out = integrate_ball(group, integrand, ball, scheme, op_id=op_id)
    return root(out) if isinstance(ball, GaugeBall) else [root(o) for o in out]


# -- singular product-domain integrals ----------------------------------------


def integrate_singular_product(
    group, m, integrand, x, tau, supports, scheme, *, op_id="singular-product"
):
    """Estimate of int f(y_vec) / d(x, y_vec)^(mQ - tau) over product supports.

    `x` is one target point of shape (n,), which returns an Estimate, or a
    batch of shape (P, n), which returns a list of P Estimates (none for
    P = 0).

    The uniform scheme builds one product node set for the whole batch
    and evaluates the integrand on it once; the kernel then acts as a
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
    if not len(xs):
        return []
    exponent = m * Q - tau

    def f(pts):
        return np.asarray(integrand(pts), dtype=float).reshape(pts.shape[0])

    def estimate(points, pole=None):
        kernel = None if exponent == 0.0 else (points, exponent)
        strata = _strata(group, [supports], scheme, [op_id], [pole])
        [(ests, _)] = _estimate(group, strata, f, scheme, kernel)
        # without a kernel the one estimate serves every point
        return ests if len(ests) == len(points) else ests * len(points)

    if scheme.kind == "annuli":
        out = [estimate(xp[None], xp)[0] for xp in xs]
    else:
        out = estimate(xs)
    return out[0] if single else out


def product_integrand(fs):
    """Build the integrand prod_i f_i(y_i) on (N, m, n) batches.

    A slot may return T rows, shape (T, N), instead of N values: the
    integrand is then sum_t prod_i f_i(y_i)[t], every slot giving T rows or
    one, and one integral of it is the sum of the T one-row integrals."""

    def integrand(pts):
        out = np.ones(pts.shape[0])
        for i, f in enumerate(fs):
            out = out * np.asarray(f(pts[:, i, :]), dtype=float).reshape(-1, pts.shape[0])
        return out.sum(axis=0)

    return integrand

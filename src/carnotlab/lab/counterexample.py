"""The smoothed-ramp family showing second-order Poincare fails for p < 1.

The ramp profile is built from the C^1 transition

    phi(t) = (t + 1)^2 (2 - t) / 4   on [-1, 1],

which satisfies phi(-1) = 0, phi(1) = 1, phi'(-1) = phi'(1) = 0,
int_{-1}^1 phi = 1, and 0 <= phi <= 1.  Its antiderivative

    Psi(t) = (t + 1)^3 / 4 - (t + 1)^4 / 16

defines psi (0 for t <= -1, Psi on [-1, 1], t for t >= 1) and the family
f_eps(x) = eps * psi(x / eps).  Then R(eps) = int |f_eps''|^p =
eps^(1-p) int |phi'|^p shrinks to 0 for p < 1 while the best-affine L^q
distance L(eps) of f_eps on [-1, 1] stays above affine_distance_floor(q).

R is a Beta integral, as phi'(t) = 3 (1 - t^2) / 4:
R(eps) = eps^(1-p) (3/4)^p sqrt(pi) Gamma(p+1) / Gamma(p+3/2).  As
phi(t) + phi(-t) = 1, g = f_eps(x) - x/2 is even, so the best slope is
a = 1/2; g is |x|/2 off [-eps, eps] and increases on [0, 1].  So for
q = 1 the offset b is the median g(1/2) = 1/4 and L = 1/4 - eps^2/10
(int_{-1}^1 Psi = 3/5); for q = 2 it is the mean 1/4 + eps^2/20 and L the
variance 1/24 - eps^2/20 + 2 eps^3/63 - eps^4/200.  The report takes
these closed forms (method "closed-form"), and ratio_lower =
affine_distance_floor(q)^(1/q) / R^(1/p), a certified lower bound on the
ratio L^(1/q) / R^(1/p).

For other q, L(eps) = min over (a, b) of F(a, b) = sum_i w_i
|f_i - a x_i - b|^q on a Gauss rule over [-1, -eps], [-eps, eps] and
[eps, 1] is found exactly (affine_infimum, for any q > 0).  The nodes are
mirror-symmetric, so F(a, b) = F(1 - a, b).
* q >= 1, "symmetric-convex": F is convex, so a = 1/2, and b is found
  by bisection on the derivative down to adjacent floats, for every
  q >= 1 (at q = 2 it finds the weighted mean of g, at q = 1 a weighted
  median).
* q < 1, "vertex-bnb": F is concave on each cell of the arrangement of
  the lines a x_i + b = f_i, so its minimum is at a vertex, a line through
  two nodes (Rockafellar, Convex Analysis, section 32).  By the symmetry
  the lines with a >= 1/2 suffice; box branch-and-bound prunes them.
  The search starts from the best line a = 1/2 through a node and its
  mirror image, tried at every _TILE-th node, so no group is summed only
  because nothing has been found yet.
  A box of lines (c, b), c = a - 1/2, is bounded in two steps.  First,
  each node's least |residual| over the box, less a sign margin, to the
  power q: one power per node.  Then, on the boxes that bound leaves
  below the incumbent, the corner bound: the nodes whose residual keeps
  its sign are concave in (c, b), so their sum is least at a corner.
  The first never exceeds the second, so the boxes kept are the same.
  The pairs of two pieces are grouped in tiles of _TILE x _TILE nodes, and
  a tile is bounded before any of its lines is formed.  g is convex on
  [-1, 1] (psi'' = phi' >= 0, and the mirror average keeps it so), and the
  nodes increase, so by the three-chord lemma the slope c(i, j) of the
  chord through nodes i < j grows with i and with j.  A tile's slopes
  then lie between those of its first and last corner pairs (on a
  diagonal tile of the middle piece, c(i0, i0 + 1) and c(j1 - 1, j1)),
  widened by the ulps by which computed slopes break that order, and its
  intercepts between g_i - c x_i at those two ends over its rows i.
  Only the tiles whose bound is below the incumbent get their lines.
  On the outer pieces g = |x|/2 bit for bit, so a line through a left
  node i and a right node j, c in (-1/2, 1/2), has residuals
  (1/2 - c)(x_k - x_j) on the right and (1/2 + c)(x_i - x_k) on the left.
  With i' the mirror image of i and S(k) = sum over the right nodes m of
  w_m |x_m - x_k|^q, its value is
      F = (1/2 - c)^q S(j) + (1/2 + c)^q S(i') + (its sum over the middle),
  so the search sums 1/3 of the nodes directly for these lines, and
  bounds a group of them by its least outer part plus a box bound on the
  middle.  Every other line is summed over all nodes: near c = 1/2 the
  computed line through a middle and a right node misses the right node by
  rounding, and |rounding|^q is not negligible for small q, so a closed
  form there would not be the value of the line searched.  The reported L
  is the winning line's own sum over all nodes, whichever path found it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError
from ..weights import fit_slope

_GL_NODES = 400
_BLOCK = 1 << 15  # array entries per block of residuals; bounds the memory
_LEAF = 32  # branch-and-bound groups of at most this many lines are evaluated
_TILE = 32  # the first groups are tiles of _TILE x _TILE node pairs
_SIGN_MARGIN = 1e-12  # a residual this close to 0 counts as changing sign


def phi(t):
    t = np.asarray(t, dtype=float)
    return (t + 1.0) ** 2 * (2.0 - t) / 4.0


def phi_prime(t):
    t = np.asarray(t, dtype=float)
    return 3.0 * (t + 1.0) * (1.0 - t) / 4.0


def _psi_inner(t):
    return (t + 1.0) ** 3 / 4.0 - (t + 1.0) ** 4 / 16.0


def psi(t):
    t = np.asarray(t, dtype=float)
    return np.where(t <= -1.0, 0.0, np.where(t >= 1.0, t, _psi_inner(np.clip(t, -1.0, 1.0))))


def _gauss_nodes(a, b, rule):
    """The Gauss rule (x, w) on [-1, 1] moved to [a, b]."""
    x, w = rule
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


@dataclass
class CounterexampleFamily:
    """f_eps with analytic first and second derivatives."""

    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < 0.5:
            raise DomainError(f"eps must lie in (0, 1/2), got {self.eps}")

    def value(self, x):
        # exactly x on [eps, inf), which eps * (x / eps) can miss by an ulp
        x = np.asarray(x, dtype=float)
        return np.where(x >= self.eps, x, self.eps * psi(x / self.eps))

    def first(self, x):
        t = np.asarray(x, dtype=float) / self.eps
        return np.where(t <= -1.0, 0.0, np.where(t >= 1.0, 1.0, phi(np.clip(t, -1.0, 1.0))))

    def second(self, x):
        t = np.asarray(x, dtype=float) / self.eps
        inner = (t > -1.0) & (t < 1.0)
        out = np.zeros_like(t)
        out[inner] = phi_prime(t[inner]) / self.eps
        return out

    __call__ = value


def counterexample_family(eps):
    return CounterexampleFamily(float(eps))


def _r_closed_form(p, eps):
    """R(eps) = int_{-1}^1 |f_eps''|^p dx = eps^(1-p) int_{-1}^1 |phi'|^p,
    a Beta integral (module docstring)."""
    beta = math.sqrt(math.pi) * math.gamma(p + 1.0) / math.gamma(p + 1.5)
    return eps ** (1.0 - p) * 0.75**p * beta


def _closed_form_infimum(eps, q):
    """L(eps) for q in {1, 2} in the form affine_infimum returns (module
    docstring)."""
    if q == 1.0:
        value, b = 0.25 - eps**2 / 10.0, 0.25
    else:
        value = 1.0 / 24.0 - eps**2 / 20.0 + 2.0 * eps**3 / 63.0 - eps**4 / 200.0
        b = 0.25 + eps**2 / 20.0
    return {"value": value, "a": 0.5, "b": b, "converged": True, "method": "closed-form"}


def _piecewise_nodes(family, rule):
    """(x, g, w): the rule on [-1, -eps], [-eps, eps] and [eps, 1],
    concatenated, and g = f_eps(x) - x/2.  Since leggauss is symmetric,
    x[::-1] == -x and w[::-1] == w bit for bit; g is even in exact
    arithmetic and made so bit for bit, and g = |x|/2 on the outer pieces."""
    eps = family.eps
    pieces = [_gauss_nodes(a, b, rule) for a, b in ((-1.0, -eps), (-eps, eps), (eps, 1.0))]
    x, w = np.concatenate([x for x, _ in pieces]), np.concatenate([w for _, w in pieces])
    g = family.value(x) - 0.5 * x
    return x, 0.5 * (g + g[::-1]), w


def _best_offset(g, w, q):
    """The least sum_i w_i |g_i - b|^q over b, for q >= 1, as (b, value):
    bisection on the derivative in b, which increases, to adjacent floats."""
    lo, hi = g.min(), g.max()
    b = 0.5 * (lo + hi)
    while lo < b < hi:
        slope = np.dot(w, np.sign(b - g) * np.abs(b - g) ** (q - 1.0))
        lo, hi = (b, hi) if slope < 0.0 else (lo, b)
        b = 0.5 * (lo + hi)
    return float(b), float(np.abs(g - b) ** q @ w)


def _line_values(x, g, w, q, lines, own):
    """Sum_k w_k |g_k - c x_k - b|^q at the lines (c, b), line k through
    the nodes own[k] (indices into x; one outside it names a node not
    summed).  Those residuals are set to their exact value 0, not (1e-17)^q."""
    out = np.empty(lines.shape[0])
    step = max(1, _BLOCK // x.shape[0])
    for s in range(0, lines.shape[0], step):
        resid = g - lines[s : s + step, :1] * x - lines[s : s + step, 1:]
        own_s = own[s : s + step]
        k, e = np.nonzero((own_s >= 0) & (own_s < x.shape[0]))
        resid[k, own_s[k, e]] = 0.0
        out[s : s + step] = np.abs(resid) ** q @ w
    return out


def _corner_bounds(x, g, w, q, lo, hi):
    """Lower bounds on F over the boxes lo[k] <= (c, b) <= hi[k].  A term
    whose residual keeps its sign on a box is concave there, so the sum of
    those terms is least at a corner; the other terms are >= 0."""
    out = np.empty(lo.shape[0])
    step = max(1, _BLOCK // (4 * x.shape[0]))
    for s in range(0, lo.shape[0], step):
        box = np.stack([lo[s : s + step], hi[s : s + step]])[..., None]
        resid = g - box[:, None, :, 0] * x - box[None, :, :, 1]  # (c corner, b corner, box, node)
        keep = (resid.min(axis=(0, 1)) > _SIGN_MARGIN) | (resid.max(axis=(0, 1)) < -_SIGN_MARGIN)
        out[s : s + step] = (np.abs(resid * keep) ** q @ w).min(axis=(0, 1))
    return out


def _interval_bounds(x, g, w, q, lo, hi):
    """Lower bounds on F over the same boxes, one power per node: its least
    |residual| on the box, less _SIGN_MARGIN.  Never above _corner_bounds:
    a node that keeps its sign has its least residual at a corner, computed
    alike there, and a node within _SIGN_MARGIN of a sign change gives 0."""
    out = np.empty(lo.shape[0])
    step = max(1, _BLOCK // x.shape[0])
    for s in range(0, lo.shape[0], step):
        low, high = lo[s : s + step, :, None], hi[s : s + step, :, None]
        cx_low, cx_high = low[:, 0] * x, high[:, 0] * x
        least = g - np.maximum(cx_low, cx_high) - high[:, 1]
        most = g - np.minimum(cx_low, cx_high) - low[:, 1]
        out[s : s + step] = np.maximum(np.maximum(least, -most) - _SIGN_MARGIN, 0.0) ** q @ w
    return out


def _bounds(x, g, w, q, lo, hi, outer, best):
    """Lower bounds on F over the boxes lo[k] <= (c, b) <= hi[k], outer[k]
    being the least part of F summed in closed form there.  The interval
    bound goes first; the corner bound, never below it, replaces it on the
    boxes it leaves below `best`, so the boxes below best are the corner
    bound's alone."""
    bound = outer + _interval_bounds(x, g, w, q, lo, hi)
    low = bound < best
    bound[low] = outer[low] + _corner_bounds(x, g, w, q, lo[low], hi[low])
    return bound


def _branch_and_bound(x, g, w, q, block, best):
    """Lower `best` = [value, c, b, i, j], in place, to the least F over the
    lines of `block` = (nodes, lines, pairs, outer, sizes).  Line k,
    lines[k] = (c, b), passes through the nodes pairs[k]; F there is
    outer[k], a part summed in closed form, plus the sum over the slice
    x[nodes].  The lines come in contiguous groups of the given sizes.
    Each round drops the groups whose bound, their least outer part plus a
    box bound on the summed part, is >= best; evaluates those of at most
    _LEAF lines; and halves the others across the wider side of their box."""
    nodes, lines, pairs, outer, sizes = block
    x, g, w = x[nodes], g[nodes], w[nodes]
    while lines.shape[0]:
        starts = np.cumsum(sizes) - sizes
        lo, hi = np.minimum.reduceat(lines, starts), np.maximum.reduceat(lines, starts)
        live = _bounds(x, g, w, q, lo, hi, np.minimum.reduceat(outer, starts), best[0]) < best[0]
        leaf = np.repeat(live & (sizes <= _LEAF), sizes)
        if np.any(leaf):
            vals = outer[leaf] + _line_values(x, g, w, q, lines[leaf], pairs[leaf] - nodes.start)
            k = int(np.argmin(vals))
            if vals[k] < best[0]:
                best[:] = [float(vals[k]), *map(float, lines[leaf][k]), *map(int, pairs[leaf][k])]
        split = live & (sizes > _LEAF)
        member = np.repeat(split, sizes)
        lines, pairs, outer, sizes = lines[member], pairs[member], outer[member], sizes[split]
        group = np.repeat(np.arange(sizes.shape[0]), sizes)
        axis = np.argmax(hi - lo, axis=1)[split][group]
        order = np.lexsort((lines[np.arange(lines.shape[0]), axis], group))
        lines, pairs, outer = lines[order], pairs[order], outer[order]
        sizes = np.stack([sizes // 2, sizes - sizes // 2], axis=1).ravel()


def _right_sums(x, w, q, n):
    """S[j] = sum_k w_k |x_k - x_j|^q over the right piece, for its nodes j
    (S[0] at node 2 n), in row chunks of at most _BLOCK entries."""
    x, w = x[2 * n :], w[2 * n :]
    out = np.empty(n)
    step = max(1, _BLOCK // n)
    for s in range(0, n, step):
        out[s : s + step] = np.abs(x - x[s : s + step, None]) ** q @ w
    return out


def _slopes(x, g, i, j):
    return (g[i] - g[j]) / (x[i] - x[j])


def _outer_parts(c, i, j, sums, q, n):
    """The outer part of F on the lines of slope c through the left nodes i
    and the right nodes j; node n - 1 - i of the right piece is the mirror
    image of i, and `sums` is _right_sums (module docstring)."""
    return (0.5 - c) ** q * sums[j - 2 * n] + (0.5 + c) ** q * sums[n - 1 - i]


def _tile_boxes(x, g, rows, cols, diagonal):
    """Boxes lo <= (c, b) <= hi, shape (row tiles, column tiles, 2), each
    holding the lines with c > 0 through the node pairs (i, j) of one tile
    of _TILE x _TILE pairs of rows x cols (runs of node indices), and
    whether the tile may hold such a line; with `diagonal`, rows is cols
    and only the pairs i < j count.  The slope c(i, j) grows with i and
    with j (module docstring), so on a tile it runs from its first corner
    pair to its last, or on a diagonal tile from c(i0, i0 + 1) to
    c(j1 - 1, j1), widened by the ulps that computed slopes fall out of
    that order by.  b = g_i - c x_i and its rounding are monotone in c: on
    a tile b runs between the values of its rows at the two ends."""
    i0, j0 = np.meshgrid(rows[::_TILE], cols[::_TILE], indexing="ij")
    i1, j1 = np.minimum(i0 + _TILE - 1, rows[-1]), np.minimum(j0 + _TILE - 1, cols[-1])
    live = i0 < j1
    if diagonal:
        on = i0 == j0
        j0, i1 = np.where(on, i0 + 1, j0), np.where(on, j1 - 1, i1)
    ulps = 4.0 * np.finfo(float).eps
    c_lo = np.maximum(_slopes(x, g, i0, j0) - ulps, 0.0)
    c_hi = _slopes(x, g, i1, j1) + ulps
    live &= c_hi > 0.0
    tile = (rows - rows[0]) // _TILE
    b_lo, b_hi = (g[rows, None] - c[tile] * x[rows, None] for c in (c_lo, c_hi))
    starts = np.arange(0, rows.shape[0], _TILE)
    b_lo, b_hi = (
        np.minimum.reduceat(np.minimum(b_lo, b_hi), starts),
        np.maximum.reduceat(np.maximum(b_lo, b_hi), starts),
    )
    return np.stack([c_lo, b_lo], axis=-1), np.stack([c_hi, b_hi], axis=-1), live


def _least_outer_parts(x, g, q, n, sums):
    """The least outer part of the left x right lines with c > 0 on each
    tile, inf on a tile without one; in row chunks of at most _BLOCK
    entries."""
    left, right = np.arange(n), np.arange(2 * n, 3 * n)
    chunk = _TILE * max(1, _BLOCK // (_TILE * n))
    least = []
    for s in range(0, n, chunk):
        i = left[s : s + chunk, None]
        c = _slopes(x, g, i, right)
        outer = np.where(c > 0.0, _outer_parts(c, i, right, sums, q, n), np.inf)
        least.append(np.minimum.reduceat(outer, np.arange(0, i.shape[0], _TILE), axis=0))
    return np.minimum.reduceat(np.concatenate(least), np.arange(0, n, _TILE), axis=1)


def _tile_lines(x, g, rows, cols, live):
    """(i, j, c, sizes): the node pairs i < j with slopes c > 0 of the live
    tiles of rows x cols, tile by tile in row-major order and row-major
    within a tile, and how many each tile with some holds."""
    r, t = np.nonzero(live)
    span = np.arange(_TILE)
    i = (rows[0] + _TILE * r[:, None] + span)[:, :, None]
    j = (cols[0] + _TILE * t[:, None] + span)[:, None, :]
    keep = (i <= rows[-1]) & (j <= cols[-1]) & (i < j)
    i, j = np.broadcast_to(i, keep.shape)[keep], np.broadcast_to(j, keep.shape)[keep]
    c = _slopes(x, g, i, j)
    keep[keep] = c > 0.0
    sizes = np.count_nonzero(keep, axis=(1, 2))
    return i[c > 0.0], j[c > 0.0], c[c > 0.0], sizes[sizes > 0]


def _candidate_blocks(x, g, w, q, n, best):
    """Blocks (nodes, lines (c, b), node pairs, outer parts, group sizes) of
    the lines through two nodes to try; the pieces are the nodes
    [k n, (k+1) n), k = 0, 1, 2.  First the slice c = 0 (a node and its
    mirror image, b = g_j) and the line c = 1/2, b = 0 of every pair in the
    right piece (in the left, its mirror image).  Then the other pairs'
    lines with c > 0 (a line with c < 0 is the mirror image of one), in
    tiles of node pairs, one block per chunk of rows.  Each kind of pair
    first bounds all its tiles, by their least outer part plus a bound on
    their boxes (_tile_boxes); a chunk then gets the lines of its tiles
    whose bound is below the incumbent best[0], as it stands then.  Every
    block sums all nodes directly, with outer part 0, except the left x
    right lines: they sum the middle piece, and the outer pieces in closed
    form (module docstring)."""
    every, middle = slice(0, 3 * n), slice(n, 2 * n)
    j = np.arange(3 * n // 2, 3 * n)
    lines = np.concatenate([np.stack([0.0 * j, g[j]], axis=1), [[0.5, 0.0]]])
    pairs = np.concatenate([np.stack([j, 3 * n - 1 - j], axis=1), [[2 * n, 2 * n + 1]]])
    yield every, lines, pairs, np.zeros(lines.shape[0]), np.array([lines.shape[0]])
    sums = _right_sums(x, w, q, n)
    left, mid, right = (np.arange(k * n, (k + 1) * n) for k in range(3))
    rows = _TILE * max(1, _BLOCK // (_TILE * n))
    for first, second in ((left, mid), (mid, right), (left, right), (mid, mid)):
        closed = first is left and second is right
        nodes = middle if closed else every
        lo, hi, live = _tile_boxes(x, g, first, second, first is second)
        least = _least_outer_parts(x, g, q, n, sums) if closed else np.zeros(live.shape)
        bound = np.full(live.shape, np.inf)
        bound[live] = _bounds(
            x[nodes], g[nodes], w[nodes], q, lo[live], hi[live], least[live], best[0]
        )
        for s in range(0, n, rows):
            live = bound[s // _TILE : (s + rows) // _TILE] < best[0]
            i, j, c, sizes = _tile_lines(x, g, first[s : s + rows], second, live)
            if sizes.shape[0]:
                outer = _outer_parts(c, i, j, sums, q, n) if closed else np.zeros(c.shape[0])
                lines = np.stack([c, g[i] - c * x[i]], axis=1)
                yield nodes, lines, np.stack([i, j], axis=1), outer, sizes


def affine_infimum(family, q, nodes):
    """L(eps) = inf over (a, b) of int_{-1}^1 |f_eps(x) - (a x + b)|^q dx,
    exactly on the three-piece node set of the Gauss rule `nodes` on
    [-1, 1]; see the module docstring.

    Returns {"value", "a", "b", "converged", "method"}: method is
    "symmetric-convex" (q >= 1; b bisected to adjacent floats) or
    "vertex-bnb" (q < 1), and `converged` says the method certified the
    minimum, as both do whenever they return.
    """
    x, g, w = _piecewise_nodes(family, nodes)
    if q >= 1.0:
        b, value = _best_offset(g, w, q)
        return {"value": value, "a": 0.5, "b": b, "converged": True, "method": "symmetric-convex"}
    n = x.shape[0] // 3
    # the incumbent: the best line c = 0 through a node and its mirror
    # image, at every _TILE-th node of the right half
    j = np.arange(3 * n // 2, 3 * n, _TILE)
    pairs = np.stack([j, 3 * n - 1 - j], axis=1)
    seed = _line_values(x, g, w, q, np.stack([0.0 * j, g[j]], axis=1), pairs)
    k = int(np.argmin(seed))
    best = [float(seed[k]), 0.0, float(g[j[k]]), *map(int, pairs[k])]
    for block in _candidate_blocks(x, g, w, q, n, best):
        _branch_and_bound(x, g, w, q, block, best)
    _, c, b, i, j = best
    # the winner alone over all nodes, so L does not depend on the search path
    value = float(_line_values(x, g, w, q, np.array([[c, b]]), np.array([[i, j]]))[0])
    return {"value": value, "a": 0.5 + c, "b": b, "converged": True, "method": "vertex-bnb"}


def affine_distance_floor(q):
    """A positive floor for L(eps), uniform in eps.

    On [1/2, 1] the ramp equals x and on [-1, -1/2] it vanishes, which
    reduces the best-affine distance to inf_c int_{1/2}^1 |x - c|^q dx > 0
    (c = 2b).  That integral is convex and symmetric in c about 3/4, so
    it is least at c = 3/4: 2 int_0^{1/4} t^q dt = 2 (1/4)^(q+1) / (q+1).
    """
    return 2.0 * 0.25 ** (q + 1.0) / (q + 1.0)


def counterexample_report(p, q, eps_list):
    """Per-eps table: R(eps), L(eps) with its best (a, b), the ratio
    L^(1/q) / R^(1/p) and its certified lower bound ratio_lower.  R, and L
    for q in {1, 2}, are closed forms; for other q the table builds one
    Gauss rule for affine_infimum (module docstring)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"the failure regime needs 0 < p < 1, got p = {p}")
    if not q > 0.0:
        raise DomainError(f"q must be positive, got {q}")
    rule = None if q in (1.0, 2.0) else np.polynomial.legendre.leggauss(_GL_NODES)
    floor = affine_distance_floor(q) ** (1.0 / q)
    rows = []
    for eps in eps_list:
        family = counterexample_family(eps)
        r_val = _r_closed_form(p, family.eps)
        if rule is None:
            opt = _closed_form_infimum(family.eps, q)
        else:
            opt = affine_infimum(family, q, rule)
        scale = r_val ** (1.0 / p)
        rows.append(
            {
                "eps": family.eps,
                "R": r_val,
                "L": opt["value"],
                "a": opt["a"],
                "b": opt["b"],
                "ratio": opt["value"] ** (1.0 / q) / scale if scale > 0 else math.inf,
                "ratio_lower": floor / scale if scale > 0 else math.inf,
                "converged": opt["converged"],
                "method": opt["method"],
            }
        )
    return rows


def fit_scaling_slope(rows):
    """Slope of log R vs log eps across the table (see weights.fit_slope);
    should be 1 - p."""
    return fit_slope([row["eps"] for row in rows], [row["R"] for row in rows])

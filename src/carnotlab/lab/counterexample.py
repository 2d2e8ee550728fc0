"""The smoothed-ramp family showing second-order Poincare fails for p < 1.

The ramp profile is built from the C^1 transition

    phi(t) = (t + 1)^2 (2 - t) / 4   on [-1, 1],

which satisfies phi(-1) = 0, phi(1) = 1, phi'(-1) = phi'(1) = 0,
int_{-1}^1 phi = 1, and 0 <= phi <= 1.  Its antiderivative

    Psi(t) = (t + 1)^3 / 4 - (t + 1)^4 / 16

defines psi (0 for t <= -1, Psi on [-1, 1], t for t >= 1) and the family
f_eps(x) = eps * psi(x / eps).  Then int |f_eps''|^p = eps^(1-p) int |phi'|^p
shrinks to 0 for p < 1 while the best-affine L^q distance of f_eps on
[-1, 1] stays bounded below.

That distance, L(eps) = min over (a, b) of F(a, b) = sum_i w_i
|f_i - a x_i - b|^q on a Gauss rule over [-1, -eps], [-eps, eps] and
[eps, 1], is found exactly.  As phi(t) + phi(-t) = 1, g = f_eps(x) - x/2
is even; the nodes are mirror-symmetric, so F(a, b) = F(1 - a, b).
* q >= 1, "symmetric-convex": F is convex, so a = 1/2, and b is the
  weighted mean of g (q = 2), its weighted median (q = 1), or found by
  bisection on the derivative.
* q < 1, "vertex-bnb": F is concave on each cell of the arrangement of
  the lines a x_i + b = f_i, so its minimum is at a vertex, a line through
  two nodes (Rockafellar, Convex Analysis, section 32).  By the symmetry
  the lines with a >= 1/2 suffice; box branch-and-bound prunes them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..carnot.functions import TestFunction
from ..errors import DomainError

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


def _gauss_nodes(a, b, rule=None):
    """A Gauss rule (x, w) on [-1, 1], by default the 400-point one, moved to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(_GL_NODES) if rule is None else rule
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


@dataclass
class CounterexampleFamily:
    """f_eps with analytic first and second derivatives."""

    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < 0.5:
            raise DomainError(f"eps must lie in (0, 1/2), got {self.eps}")
        _verify_profile()

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


@functools.cache
def _verify_profile(tol=1e-10):
    """Checks on phi, once per process; raises if the profile is wrong."""
    checks = {
        "phi(-1) = 0": abs(float(phi(-1.0))),
        "phi(1) = 1": abs(float(phi(1.0)) - 1.0),
        "phi'(-1) = 0": abs(float(phi_prime(-1.0))),
        "phi'(1) = 0": abs(float(phi_prime(1.0))),
    }
    # phi is a cubic, which the 2-point Gauss rule integrates exactly
    x, w = np.polynomial.legendre.leggauss(2)
    checks["int phi = 1"] = abs(float(np.dot(w, phi(x))) - 1.0)
    grid = np.linspace(-1.0, 1.0, 2001)
    vals = phi(grid)
    checks["range in [0,1]"] = max(0.0, float(-vals.min()), float(vals.max() - 1.0))
    bad = {name: err for name, err in checks.items() if err > tol}
    if bad:
        raise DomainError(f"ramp profile constraints violated: {bad}")


def counterexample_family(eps):
    return CounterexampleFamily(float(eps))


class RampFunction(TestFunction):
    """The family lifted to a Euclidean group: g_eps(x) = f_eps(x_1).

    C^2 but not C^3 (the profile's second derivative has corner points),
    so derivative requests beyond order 2 raise a capability error.
    """

    smoothness = 2
    jet_order = 2

    def __init__(self, group, eps):
        if group.step != 1:
            raise DomainError("the ramp family lives on Euclidean groups")
        self.group = group
        self.family = CounterexampleFamily(float(eps))

    def jets(self, pts, order):
        x = pts[:, 0]
        out = [self.family.value(x)]
        if order >= 1:
            grad = np.zeros_like(pts)
            grad[:, 0] = self.family.first(x)
            out.append(grad)
        if order >= 2:
            hess = np.zeros((pts.shape[0], self.group.n, self.group.n))
            hess[:, 0, 0] = self.family.second(x)
            out.append(hess)
        return out


def phi_prime_lp(p, nodes=None):
    """int_{-1}^1 |phi'|^p dt on the Gauss rule `nodes` (default 400 points)."""
    x, w = _gauss_nodes(-1.0, 1.0, nodes)
    return float(np.dot(w, np.abs(phi_prime(x)) ** p))


def second_derivative_lp(family, p, nodes=None):
    """R(eps) = int_{-1}^1 |f_eps''|^p dx (the integrand lives on [-eps, eps])."""
    x, w = _gauss_nodes(-family.eps, family.eps, nodes)
    return float(np.dot(w, np.abs(family.second(x)) ** p))


def _piecewise_nodes(eps, rule):
    """The rule on [-1, -eps], [-eps, eps] and [eps, 1], concatenated; since
    leggauss is symmetric, x[::-1] == -x and w[::-1] == w bit for bit."""
    rule = _gauss_nodes(-1.0, 1.0, rule)  # the default rule, once, for None
    pieces = [_gauss_nodes(a, b, rule) for a, b in ((-1.0, -eps), (-eps, eps), (eps, 1.0))]
    return np.concatenate([x for x, _ in pieces]), np.concatenate([w for _, w in pieces])


def _best_offset(g, w, q, tol):
    """The least sum_i w_i |g_i - b|^q over b, for q >= 1, as (b, value)."""
    if q == 2.0:
        b = np.dot(w, g) / w.sum()
    elif q == 1.0:
        order = np.argsort(g)
        cum = np.cumsum(w[order])
        b = g[order[np.searchsorted(cum, 0.5 * cum[-1])]]
    else:  # bisection on the derivative in b, which increases
        lo, hi = g.min(), g.max()
        for _ in range(math.ceil(math.log2(max((hi - lo) / tol, 1.0)))):
            mid = 0.5 * (lo + hi)
            slope = np.dot(w, np.sign(mid - g) * np.abs(mid - g) ** (q - 1.0))
            lo, hi = (mid, hi) if slope < 0.0 else (lo, mid)
        b = 0.5 * (lo + hi)
    return float(b), float(np.abs(g - b) ** q @ w)


def _line_values(x, g, w, q, lines, pairs):
    """F at the lines (c, b), c = a - 1/2, line k through the nodes pairs[k].
    Those two residuals are set to their exact value 0, not (1e-17)^q."""
    out = np.empty(lines.shape[0])
    step = max(1, _BLOCK // x.shape[0])
    for s in range(0, lines.shape[0], step):
        resid = g - lines[s : s + step, :1] * x - lines[s : s + step, 1:]
        np.put_along_axis(resid, pairs[s : s + step], 0.0, axis=1)
        out[s : s + step] = np.abs(resid) ** q @ w
    return out


def _box_bounds(x, g, w, q, lo, hi):
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


def _branch_and_bound(x, g, w, q, lines, pairs, sizes, best):
    """Lower `best` = [value, c, b] to the least F over `lines` (line k
    through the nodes pairs[k]), which come in contiguous groups of the
    given sizes.  Each round drops the groups whose box bound is >= best,
    evaluates those of at most _LEAF lines, and halves the others across
    the wider side of their box."""
    while lines.shape[0]:
        starts = np.cumsum(sizes) - sizes
        lo, hi = np.minimum.reduceat(lines, starts), np.maximum.reduceat(lines, starts)
        live = _box_bounds(x, g, w, q, lo, hi) < best[0]
        leaf = np.repeat(live & (sizes <= _LEAF), sizes)
        if np.any(leaf):
            vals = _line_values(x, g, w, q, lines[leaf], pairs[leaf])
            k = int(np.argmin(vals))
            if vals[k] < best[0]:
                best = [float(vals[k]), *map(float, lines[leaf][k])]
        split = live & (sizes > _LEAF)
        member = np.repeat(split, sizes)
        lines, pairs, sizes = lines[member], pairs[member], sizes[split]
        group = np.repeat(np.arange(sizes.shape[0]), sizes)
        axis = np.argmax(hi - lo, axis=1)[split][group]
        order = np.lexsort((lines[np.arange(lines.shape[0]), axis], group))
        lines, pairs = lines[order], pairs[order]
        sizes = np.stack([sizes // 2, sizes - sizes // 2], axis=1).ravel()
    return best


def _candidate_blocks(x, g, n):
    """Blocks (lines (c, b), node pairs, group sizes) of the lines through
    two nodes to try; the pieces are the nodes [k n, (k+1) n), k = 0, 1, 2.
    First the slice c = 0 (a node and its mirror image, b = g_j) and the
    line c = 1/2, b = 0 of every pair in the right piece (in the left, its
    mirror image).  Then the other pairs' lines with c > 0 (a line with
    c < 0 is the mirror image of one), grouped by tiles of node pairs."""
    j = np.arange(3 * n // 2, 3 * n)
    lines = np.concatenate([np.stack([0.0 * j, g[j]], axis=1), [[0.5, 0.0]]])
    pairs = np.concatenate([np.stack([j, 3 * n - 1 - j], axis=1), [[2 * n, 2 * n + 1]]])
    yield lines, pairs, np.array([lines.shape[0]])
    left, mid, right = (np.arange(k * n, (k + 1) * n) for k in range(3))
    rows = _TILE * max(1, _BLOCK // (_TILE * n))
    for first, second in ((left, mid), (mid, right), (left, right), (mid, mid)):
        for s in range(0, n, rows):
            i, j = (a.ravel() for a in np.meshgrid(first[s : s + rows], second, indexing="ij"))
            if first is second:
                i, j = i[i < j], j[i < j]
            c = (g[i] - g[j]) / (x[i] - x[j])
            i, j, c = i[c > 0.0], j[c > 0.0], c[c > 0.0]
            tile = (i - first[s]) // _TILE * n + (j - second[0]) // _TILE
            order = np.argsort(tile, kind="stable")
            i, j, c, sizes = i[order], j[order], c[order], np.bincount(tile)
            yield np.stack([c, g[i] - c * x[i]], axis=1), np.stack([i, j], axis=1), sizes[sizes > 0]


def affine_infimum(family, q, *, tol=1e-6, nodes=None):
    """L(eps) = inf over (a, b) of int_{-1}^1 |f_eps(x) - (a x + b)|^q dx,
    exactly on the three-piece node set of the Gauss rule `nodes` on
    [-1, 1] (default 400 points); see the module docstring.

    Returns {"value", "a", "b", "converged", "method"}: method is
    "symmetric-convex" (q >= 1; b to `tol` unless q is 1 or 2) or
    "vertex-bnb" (q < 1), and `converged` says the method certified the
    minimum, as both do whenever they return.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    x, w = _piecewise_nodes(family.eps, nodes)
    g = family.value(x) - 0.5 * x
    g = 0.5 * (g + g[::-1])  # even in exact arithmetic; now bit for bit too
    if q >= 1.0:
        b, value = _best_offset(g, w, q, tol)
        return {"value": value, "a": 0.5, "b": b, "converged": True, "method": "symmetric-convex"}
    best = [math.inf, 0.0, 0.0]
    for block in _candidate_blocks(x, g, x.shape[0] // 3):
        best = _branch_and_bound(x, g, w, q, *block, best)
    value, c, b = best
    return {"value": value, "a": 0.5 + c, "b": b, "converged": True, "method": "vertex-bnb"}


def affine_distance_floor(q):
    """A positive floor for L(eps), uniform in eps.

    On [1/2, 1] the ramp equals x and on [-1, -1/2] it vanishes, which
    reduces the best-affine distance to inf_c int_{1/2}^1 |x - c|^q dx > 0
    (c = 2b).  That integral is convex and symmetric in c about 3/4, so
    it is least at c = 3/4: 2 int_0^{1/4} t^q dt = 2 (1/4)^(q+1) / (q+1).
    """
    return 2.0 * 0.25 ** (q + 1.0) / (q + 1.0)


def counterexample_report(p, q, eps_list, *, tol=1e-6):
    """Per-eps table: R(eps), its predicted scaling, L(eps), and the ratio
    L^(1/q) / R^(1/p).  One Gauss rule serves every integral of the table."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"the failure regime needs 0 < p < 1, got p = {p}")
    if not q > 0.0:
        raise DomainError(f"q must be positive, got {q}")
    rule = np.polynomial.legendre.leggauss(_GL_NODES)
    profile_mass = phi_prime_lp(p, rule)
    rows = []
    for eps in eps_list:
        family = counterexample_family(eps)
        r_val = second_derivative_lp(family, p, rule)
        opt = affine_infimum(family, q, tol=tol, nodes=rule)
        ratio = opt["value"] ** (1.0 / q) / r_val ** (1.0 / p) if r_val > 0 else math.inf
        rows.append(
            {
                "eps": float(eps),
                "R": r_val,
                "R_predicted": float(eps) ** (1.0 - p) * profile_mass,
                "L": opt["value"],
                "a": opt["a"],
                "b": opt["b"],
                "ratio": ratio,
                "converged": opt["converged"],
                "method": opt["method"],
            }
        )
    return rows


def fit_scaling_slope(rows):
    """Slope of log R vs log eps across the table; should be 1 - p."""
    if len(rows) < 2:
        return math.nan
    eps = np.log([row["eps"] for row in rows])
    rv = np.log([row["R"] for row in rows])
    eps = eps - eps.mean()
    return float(np.dot(eps, rv - rv.mean()) / np.dot(eps, eps))

"""Best L^q polynomial approximation on gauge balls.

Minimizes ||(F - P) u||_{L^q(B)} over polynomials of homogeneous degree
less than k, on the ball's quadrature nodes.  The basis is evaluated in
centered, dilation-scaled coordinates zeta = delta_{1/r}(c^-1 o y) for
conditioning; left translations and dilations preserve the span of
{deg_G < k}, so the fit stays in them: a `BallPolynomial` evaluates
P(zeta(y)) by the same map and Vandermonde as the solver.

`best_polynomial` takes one ball or a list of balls, and its nodes, as
every ball estimator's, come from quad (`quad.ball_stacks`): their
streams, the dead balls (a box that misses the box of F's declared
support; such a ball draws no nodes and fits the zero polynomial
exactly) and the passes of at most _PASS nodes (or one ball).  A pass
stays one (B, N, n) stack from the sampler to the estimates: F, and u
only when it has factors, are evaluated once on its nodes, a non-finite
value raising IntegrationError before its solves, and the Vandermonde
stack (B, N, d) comes from one pass over them.  A constant u = c
(`weight_number`) enters every weighted sum as the number c.

Solvers by exponent, all from the weighted L^2 start; for q != 2 each
ball's F values are divided by their max |F| before the solve and the
coefficients multiplied back, so every regime is covariant under F -> cF:
  q = 2       weighted least squares: one column-scaled lstsq per ball,
              whose SVD rank check guards the basis;
  q = 1       exact discrete-L^1 minimum by vertex descent (a simplex in
              the manner of Barrodale and Roberts).  A vertex is a
              polynomial through d nodes (the basis); each ball starts at
              the lower of two vertices, through the d independent nodes
              of smallest L^2 residual or through those of smallest |F|
              (the zero polynomial where F vanishes on d independent nodes,
              as on most balls of a product of bumps).  Its dual point is
              lam_i = sign(r_i) off the zero-residual set Z, 0 on Z minus
              the basis, and on the basis the solution of
              sum_i lam_i w_i A_i = 0; the vertex is optimal once
              max |lam| <= 1.  Otherwise the basis node of largest |lam|
              leaves and an exact line search picks the entering node; a
              degenerate vertex (|Z| > d, where F vanishes on part of the
              ball) is decided exactly by its steepest descent direction
              (see _degenerate_directions).  Every pivot lowers the
              objective, so no vertex repeats.  Note "l1-vertex-certified",
              or "l1-vertex-stalled" (flagged) if rounding leaves a pivot
              without descent;
  1 < q != 2  damped Newton.  With Hessian weights w |r|^(q-2) (|r| kept
              off 0), the Newton step is the reweighted least-squares step
              over q - 1: one batched QR of the reweighted [A | y] and one
              batched (d x d) solve.  The step is halved until the objective
              falls strictly and by the Armijo margin.  By Hoelder, lam . D y
              is at most the minimum for D = diag(w^(1/q)) and lam = sign(r)
              |D r|^(q-1) projected onto null((D A)^T), of unit q'-norm; a
              value within _GAP_TOL of it (or 0 to rounding) is
              "newton-certified".  A ball whose halved step no longer moves
              a residual ends "newton-stalled" (flagged), unless the dual
              point of that step's normal equations certifies it.  Both
              iterative solvers end a ball on a certificate or a failed
              descent, never on a count;
  q < 1       Nelder-Mead descent (scipy.optimize.minimize, looked up when
              it runs, so scipy loads with the first such solve), per ball,
              stopped once the simplex's values differ by no more than the
              objective's rounding floor at a vertex; then the vertex
              through the d independent nodes of smallest |residual|
              replaces the descent's point when it is no higher.  The
              result is an upper bound on the infimum, labeled
              "upper-bound", or "upper-bound-unconverged" (flagged) when the
              descent reports no success.  With k = 1 and a constant u,
              the zeros of F share one term, so each evaluation takes the
              q-th power on F's non-zero nodes and one zero node only
              (_support_objective), bit for bit the full sum, and the
              descent takes the same path.
The L^2 start is prepared once for a pass's stack and solved by one lstsq
per ball, Nelder-Mead runs per ball on its row of the stack, and the
q >= 1 solvers and the estimates on the whole stack.

With `sup_scales` (`campanato_norm` passes |B|^(-lambda/(dim p)) per ball)
only the sup over the balls of scale * value needs an exact minimum, and
the q >= 1 solvers prune, as in branch and bound (Land and Doig 1960).
Each pass scales every ball's start value: its lower start vertex at
q = 1 (which the descent then starts from), its L^2 start otherwise.  The
ball of largest scaled start value is solved alone; then, in one stack,
every other ball whose scaled start value, times 1 + _GAP_TOL, still
reaches the incumbent, the largest scaled value solved so far in any
pass.  No solver ends above its start, so the rest cannot attain the
sup: each keeps its start, an upper bound noted "upper-bound-pruned" (not
flagged).  The sup, its Estimate and its ball are those of solving every
ball, bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..carnot.group import GaugeBall
from ..carnot.polynomials import monomial_basis, vandermonde
from ..errors import ConditioningError, DomainError
from ..quad import Estimate, ball_stacks, weight_number

# Relative optimality gap of a certified value: the L^1 dual point may pass 1
# by this much (rounding in lam is far below it unless the basis is nearly
# singular), and a Newton value its Hoelder lower bound by this fraction.
_GAP_TOL = 1e-9
_ARMIJO = 1e-4  # a Newton step's least decrease, as a fraction of the slope's
# A residual within this multiple of eps * (max |y| + |A_i| |c|) is zero, at
# the rounding level of the ball's largest value: a node where F underflows
# to 1e-70 beside a zero of F is a zero too, or every such node would cost a
# pivot that lowers the objective by nothing representable
_ZERO = 16.0 * np.finfo(float).eps
_RANK_TOL = 1e-10

_FLAGGED_NOTES = ("l1-vertex-stalled", "newton-stalled", "upper-bound-unconverged")


def _centred_vandermonde(group, basis, balls, pts):
    """The basis at zeta = delta_{1/r}(c^-1 o y) for points y of shape
    (B, N, n), row b on balls[b]: shape (B, N, d)."""
    inv_centers = group.inverse(np.array([b.center for b in balls]))[:, None]
    scales = (1.0 / np.array([b.radius for b in balls]))[:, None, None] ** group.weights
    zeta = group.compose(inv_centers, pts) * scales
    return vandermonde(group, basis, zeta.reshape(-1, group.n)).reshape(*pts.shape[:2], len(basis))


class BallPolynomial:
    """A best polynomial on its ball B(c, r): y -> P(zeta(y)), the sum of
    coeffs[j] zeta^basis[j] at zeta = delta_{1/r}(c^-1 o y), basis the
    monomial_basis(group, k).  A point (n,) maps to a scalar, a batch (N, n)
    to (N,)."""

    __slots__ = ("group", "ball", "basis", "coeffs")

    def __init__(self, group, ball, basis, coeffs):
        self.group, self.ball, self.basis, self.coeffs = group, ball, basis, coeffs

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        A = _centred_vandermonde(self.group, self.basis, [self.ball], y.reshape(1, -1, y.shape[-1]))
        vals = A[0] @ self.coeffs
        return vals[0] if y.ndim == 1 else vals


def _objective(resid, wvals, node_w, q):
    return float(np.sum(node_w * (np.abs(resid) * wvals) ** q))


def _weighted_lstsq(A, y, lam):
    """Per ball of the (B, N, d) stack, the c minimizing sum_i lam_i (y_i -
    A_i c)^2: one lstsq per ball on its column-scaled system, whose SVD
    rank check guards the basis.  The scaling is formed once for the
    stack, node-major (N, B, d), where each product, the column norms and
    the division run along rows of all the balls' columns."""
    nb, n, d = A.shape
    sq = np.sqrt(lam)
    scaled = np.empty((n, nb, d))
    for j in range(d):
        np.multiply(A[..., j].T, sq.T, out=scaled[..., j])
    col = _column_norms(scaled)
    col[col == 0.0] = 1.0
    scaled /= col
    out = np.empty((nb, d))
    for b, rhs in enumerate(y * sq):
        out[b], _, rank, _ = np.linalg.lstsq(scaled[:, b], rhs, rcond=None)
        if rank < d:
            raise ConditioningError(f"rank-deficient polynomial basis: rank {rank} < {d} columns")
    return out / col


def _column_norms(scaled):
    """The column norms (B, d) of a node-major (N, B, d) stack, equal to
    np.linalg.norm(axis=0) on each ball's (N, d) matrix bit for bit.  For
    d > 1 numpy sums each column's squares down the nodes in order, which
    the node-major sum does with one inner loop over every ball's columns
    instead of d entries; a single column it sums pairwise, as a
    contiguous row."""
    if scaled.shape[2] == 1:
        rows = np.ascontiguousarray(scaled[..., 0].T)
        return np.sqrt(np.add.reduce(rows * rows, axis=1))[:, None]
    return np.sqrt(np.add.reduce(scaled * scaled, axis=0))


def _newton(A, y, wq, c, q):
    """Damped Newton for a stack of (A, y, node_w * u^q, L^2 start)."""
    D = wq ** (1.0 / q)
    Q = np.linalg.qr(D[..., None] * A)[0]  # an orthonormal basis of range(D A)
    r = y - (A @ c[..., None])[..., 0]
    obj = np.sum(wq * np.abs(r) ** q, axis=1)
    ymax, colmax, mass = np.max(np.abs(y), axis=1), _colmax(A), np.sum(wq, axis=1)
    coeffs, notes = c.copy(), np.full(len(c), "newton-certified", dtype=object)
    active, ended = np.arange(len(c)), np.zeros(len(c), dtype=bool)
    while True:
        Dr = D * r
        lam = np.sign(r) * np.abs(Dr / _peak(Dr)) ** (q - 1.0)
        value = obj ** (1.0 / q)
        noise = _ZERO * (ymax + np.sum(colmax * np.abs(c), axis=1)) * mass ** (1.0 / q)
        coeffs[active] = c
        keep = (value - _holder_bound(lam, Dr, Q, q) > _GAP_TOL * value) & (value > noise) & ~ended
        if not np.any(keep):
            return list(coeffs), list(notes)
        active, A, y, wq, D, Q, c, r, obj, ymax, colmax, mass = (
            x[keep] for x in (active, A, y, wq, D, Q, c, r, obj, ymax, colmax, mass)
        )
        # the step: the IRLS solution less c, over q - 1; the R factor of the
        # reweighted [A | y] carries Q^T y in its last column
        a = np.abs(r) + 1e-12 * (ymax[:, None] + 1.0)
        h = (a / np.max(a, axis=1, keepdims=True)) ** (q - 2.0)
        sw = np.sqrt(wq * h)
        R = np.linalg.qr(np.concatenate([A, y[..., None]], axis=2) * sw[..., None], mode="r")
        try:
            step = (np.linalg.solve(R[:, :-1, :-1], R[:, :-1, -1:])[..., 0] - c) / (q - 1.0)
        except np.linalg.LinAlgError as exc:
            raise ConditioningError(f"reweighted least-squares system: {exc}") from exc
        if not np.all(np.isfinite(step)):
            raise ConditioningError("non-finite reweighted least-squares solution")
        v = (A @ step[..., None])[..., 0]
        slope = -q * np.sum(wq * np.sign(r) * np.abs(r) ** (q - 1.0) * v, axis=1)
        vmax, rmax = np.max(np.abs(v), axis=1), np.max(np.abs(r), axis=1)
        t = np.ones(len(c))
        while True:
            f = np.sum(wq * np.abs(r - t[:, None] * v) ** q, axis=1)
            halve = (t > 0.0) & ~((f < obj) & (f <= obj + _ARMIJO * t * slope))
            if not np.any(halve):
                break
            t[halve] *= 0.5
            # a step that moves no residual beyond rounding has failed
            t[halve & (t * vmax <= _ZERO * rmax)] = 0.0
        ended = t == 0.0
        if np.any(ended):
            # a failed step still certifies its point when the dual point of
            # its normal equations, A^T (wq h) (r - (q - 1) v) = 0, closes the
            # gap: D^(q-1) h (r - (q - 1) v) lies in null((D A)^T) up to
            # rounding, and its gap is second order in the step
            value = obj[ended] ** (1.0 / q)
            lam = D[ended] ** (q - 1.0) * h[ended] * (r[ended] - (q - 1.0) * v[ended])
            gap = value - _holder_bound(lam, (D * r)[ended], Q[ended], q)
            notes[active[ended][gap > _GAP_TOL * value]] = "newton-stalled"
        c, r, obj = c + t[:, None] * step, r - t[:, None] * v, np.where(ended, obj, f)


def _holder_bound(lam, Dr, Q, q):
    """Hoelder's lower bound lam . D y / ||lam||_q' on each ball's minimum,
    for lam projected onto null((D A)^T) by the orthonormal basis Q of
    range(D A).  lam . D y = lam . D r, less the rounding of that sum; the
    q'-norm is >= 1 once lam is scaled by its max, unless lam = 0."""
    lam = lam - (Q @ (Q.transpose(0, 2, 1) @ lam[..., None]))[..., 0]
    lam /= _peak(lam)
    qn = np.maximum(np.sum(np.abs(lam) ** (q / (q - 1.0)), axis=1), 1.0) ** (1.0 - 1.0 / q)
    return (np.sum(lam * Dr, axis=1) - _ZERO * np.sum(np.abs(lam * Dr), axis=1)) / qn


def _peak(x):
    """Each row's max |x|, kept off 0 so that a zero row divides to zero."""
    return np.maximum(np.max(np.abs(x), axis=1, keepdims=True), np.finfo(float).tiny)


def _colmax(A):
    """max |A| over the rows (axis -2) of each column, as np.max(np.abs(A),
    axis=-2), taken one column at a time: numpy reduces a long axis beside a
    short last one on a slow path."""
    return np.stack([np.max(np.abs(A[..., j]), axis=-1) for j in range(A.shape[-1])], axis=-1)


def _snap(A, key):
    """Per ball, the d rows of smallest key that are linearly independent:
    the first d unless they are (nearly) dependent.  A key of inf marks a
    row of weight 0, which the degenerate-vertex sub-problem gives every
    node off the zero set (see _degenerate_directions).  The d smallest come
    from d argmin passes, the lowest index first among ties; argpartition is
    far slower on keys that mostly tie at 0."""
    d = A.shape[2]
    rest, rows = key.copy(), np.arange(len(key))
    basis = np.empty((len(key), d), dtype=int)
    for j in range(d):
        basis[:, j] = np.argmin(rest, axis=1)
        rest[rows, basis[:, j]] = np.inf
    s = np.linalg.svd(A[rows[:, None], basis], compute_uv=False)
    for b in np.flatnonzero(s[:, -1] <= _RANK_TOL * s[:, 0]):
        chosen = []
        for i in np.argsort(key[b]):
            rows = A[b, chosen + [i]]
            if np.linalg.matrix_rank(rows, tol=_RANK_TOL * np.abs(rows).max()) > len(chosen):
                chosen.append(i)
                if len(chosen) == d:
                    break
        basis[b] = chosen
    return basis


def _l1_descent(A, y, w, start):
    """Vertex descent for min_c sum_i w_i |y_i - (A c)_i| on a stack of
    shape (B, N, d), rows of weight 0 dead (the degenerate-vertex
    sub-problem weighs only the zero nodes), from the start vertices of
    `_l1_start`.  Returns the coefficients (B, d), the notes and the final
    bases (the rows each vertex goes through)."""
    if A.shape[2] == 1:
        c, node = _weighted_median(A, y, w)
        return c, np.full(len(c), "l1-vertex-certified", dtype=object), node
    return _l1_pivots(A, y, w, *_l1_start(A, y, w, start))


def _l1_start(A, y, w, start):
    """Per ball (d > 1), the lower of two vertices: through the d
    independent rows of smallest residual at `start` (B, d), and through
    those of smallest |y|, which is the zero polynomial where y vanishes on
    d independent rows.  Returns its coefficients (B, d), residuals (B, N)
    and basis (B, d)."""
    live = w > 0.0
    resid = np.abs(y - (A @ start[..., None])[..., 0])
    l2, small_y = (_snap(A, np.where(live, key, np.inf)) for key in (resid, np.abs(y)))
    (l2_c, l2_r), (small_c, small_r) = (_vertex(A, y, b) for b in (l2, small_y))
    lower = np.sum(w * np.abs(small_r), axis=1) < np.sum(w * np.abs(l2_r), axis=1)
    return (
        np.where(lower[:, None], small_c, l2_c),
        np.where(lower[:, None], small_r, l2_r),
        np.where(lower[:, None], small_y, l2),
    )


def _l1_pivots(A, y, w, c, r, basis):
    """The pivots of `_l1_descent` from the vertex (c, r, basis) of each
    ball, d > 1."""
    nb, _, d = A.shape
    coeffs = np.zeros((nb, d))
    final = basis.copy()
    notes = np.full(nb, "l1-vertex-certified", dtype=object)
    visited = [{tuple(sorted(row))} for row in basis.tolist()]
    # the rounding bound of any residual y_i - A_i c is eps (max|y| + colmax . |c|)
    ymax, colmax = np.max(np.abs(y), axis=1), _colmax(A)
    total_w = np.sum(w, axis=1)
    best = np.full(nb, np.inf)
    active = np.arange(nb)
    rows = np.arange(nb)[:, None]
    while True:
        try:
            inv = np.linalg.inv(A[rows, basis])
        except np.linalg.LinAlgError as exc:
            raise ConditioningError(f"L^1 vertex basis: {exc}") from exc
        obj = np.sum(w * np.abs(r), axis=1)
        noise = _ZERO * (ymax + np.sum(colmax * np.abs(c), axis=1))
        # a pivot whose gain rounding turned into a loss: keep the previous vertex
        rose = obj > best + noise * total_w
        zero = (w > 0.0) & (np.abs(r) <= noise[:, None])
        zero[rows, basis] = True
        sign = np.where(zero, 0.0, np.sign(r))
        g = ((w * sign)[:, None, :] @ A)[:, 0]
        lam = -(g[:, None, :] @ inv)[:, 0] / w[rows, basis]
        leave = np.argmax(np.abs(lam), axis=1)
        done = (np.abs(lam[rows[:, 0], leave]) <= 1.0 + _GAP_TOL) | (obj <= noise * total_w)
        keep = ~(done | rose)
        keep_idx = np.flatnonzero(keep)
        # per pivoting ball: the descent direction and the d - 1 nodes it keeps
        direction = np.empty((keep_idx.size, d))
        kept = np.empty((keep_idx.size, d - 1), dtype=int)
        simple = zero[keep_idx].sum(axis=1) == d
        j = leave[keep_idx[simple]]
        direction[simple] = -np.sign(lam[keep_idx[simple], j])[:, None] * inv[
            keep_idx[simple], :, j
        ]
        kept[simple] = basis[keep_idx[simple]][np.arange(d) != j[:, None]].reshape(j.size, d - 1)
        degenerate = keep_idx[~simple]
        if degenerate.size:
            sub_dir, sub_kept, optimal = _degenerate_directions(
                A[degenerate], w[degenerate], zero[degenerate], g[degenerate]
            )
            direction[~simple], kept[~simple] = sub_dir, sub_kept
            keep[degenerate[optimal]] = False
            direction, kept = direction[keep[keep_idx]], kept[keep[keep_idx]]
            keep_idx = np.flatnonzero(keep)
        enter, descends = np.empty(0, dtype=int), np.empty(0, dtype=bool)
        if keep_idx.size:
            enter, descends = _line_search(
                A[keep_idx], r[keep_idx], w[keep_idx], zero[keep_idx], sign[keep_idx], direction
            )
        moved = keep_idx[descends]
        new = np.concatenate([kept[descends], enter[descends][:, None]], axis=1)
        # rounding can only fake a descent; a basis seen before ends the ball
        fresh = np.array(
            [_first_visit(visited[b], row) for b, row in zip(active[moved], new.tolist())],
            dtype=bool,
        )
        stalled = rose.copy()
        stalled[keep_idx[~descends]] = True
        stalled[moved[~fresh]] = True
        coeffs[active[~rose]] = c[~rose]
        final[active[~rose]] = basis[~rose]
        notes[active[stalled]] = "l1-vertex-stalled"
        best = np.minimum(best, obj)
        basis[moved[fresh]] = new[fresh]
        go_on = moved[fresh]
        if go_on.size == 0:
            return coeffs, notes, final
        if go_on.size < active.size:
            active, A, y, w, basis, best, ymax, colmax, total_w = (
                x[go_on] for x in (active, A, y, w, basis, best, ymax, colmax, total_w)
            )
            rows = rows[: go_on.size]
        c, r = _vertex(A, y, basis)


def _vertex(A, y, basis):
    """Per ball, the coefficients (B, d) of the polynomial through its basis
    rows (B, d), and the residuals y - A c (B, N)."""
    rows = np.arange(len(basis))[:, None]
    try:
        c = np.linalg.solve(A[rows, basis], y[rows, basis][..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"L^1 vertex basis: {exc}") from exc
    return c, y - (A @ c[..., None])[..., 0]


def _first_visit(seen, row):
    key = tuple(sorted(row))
    if key in seen:
        return False
    seen.add(key)
    return True


def _degenerate_directions(A, w, zero, g):
    """At vertices with more than d zero residuals: whether the vertex is
    optimal, and if not the steepest descent direction e and the d - 1 zero
    nodes it keeps at zero.  The vertex is optimal iff some lam_Z in
    [-1, 1]^Z has sum_{i in Z} lam_i w_i A_i = -g; the minimum-norm lam_Z
    settles most balls.  Otherwise e, normalized by g . e = 1, minimizes
    m = sum_{i in Z} w_i |A_i . e|; the slope along e is m - 1, so the
    vertex is optimal iff m >= 1."""
    w_zero = np.where(zero, w, 0.0)
    M = w_zero[:, None, :] * A.transpose(0, 2, 1)  # columns w_i A_i, i in Z
    # the minimum-norm solution of M lam = -g
    lam = (M.transpose(0, 2, 1) @ np.linalg.solve(M @ M.transpose(0, 2, 1), -g[..., None]))[..., 0]
    optimal = np.max(np.abs(lam), axis=1) <= 1.0 + _GAP_TOL
    d = g.shape[1]
    direction = np.zeros_like(g)
    kept = np.zeros((len(g), d - 1), dtype=int)
    todo = np.flatnonzero(~optimal)
    if todo.size:
        A, w_zero, g = A[todo], w_zero[todo], g[todo]
        base = g / np.sum(g * g, axis=1)[:, None]
        # e = base + N eta, N an orthonormal basis of g's complement: a
        # discrete L^1 fit in d - 1 unknowns on the zero nodes (the others
        # weigh 0), from its weighted L^2 fit
        perp = np.linalg.qr(g[..., None], mode="complete")[0][..., 1:]
        sub_A, sub_y = A @ perp, -(A @ base[..., None])[..., 0]
        wA_t = (w_zero[..., None] * sub_A).transpose(0, 2, 1)
        start = np.linalg.solve(wA_t @ sub_A, wA_t @ sub_y[..., None])[..., 0]
        eta, _, kept[todo] = _l1_descent(sub_A, sub_y, w_zero, start)
        direction[todo] = base + (perp @ eta[..., None])[..., 0]
        slope = np.sum(w_zero * np.abs(A @ direction[todo][..., None])[..., 0], axis=1)
        optimal[todo] = slope >= 1.0 - _GAP_TOL
    return direction, kept, optimal


def _weighted_median(A, y, w):
    """The one-coefficient case: c minimizes sum_i w_i |A_i| |y_i / A_i - c|,
    so it is a weighted median of the y_i / A_i.  Returns (c, node) per ball."""
    a = A[..., 0]
    live = (w > 0.0) & (a != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(live, y / a, np.inf)
    order = np.argsort(t, axis=1)
    mass = np.cumsum(_take_rows(np.where(live, w * np.abs(a), 0.0), order), axis=1)
    pos = np.argmax(mass >= 0.5 * mass[:, -1:], axis=1)
    rows = np.arange(len(t))
    node = order[rows, pos]
    return t[rows, node][:, None], node[:, None]


def _take_rows(x, order):
    """x[b, order[b]] for each row b of a (B, N) array, by one flat np.take,
    which numpy runs far faster than np.take_along_axis."""
    return np.take(x, order + (np.arange(len(x)) * x.shape[1])[:, None])


def _line_search(A, r, w, zero, sign, direction):
    """Exact minimizing step along r - t v, v = A direction: the first
    breakpoint r_i / v_i > 0 at which the slope of sum_i w_i |r_i - t v_i|,
    negative at t = 0+, turns non-negative.  Returns the entering node per
    ball and whether the direction descends at all."""
    v = (A @ direction[..., None])[..., 0]
    wv = w * v
    slope0 = np.sum(np.where(zero, np.abs(wv), -sign * wv), axis=1)
    crossing = sign * v > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(crossing, r / v, np.inf)
    order = np.argsort(t, axis=1)
    jumps = _take_rows(np.where(crossing, np.abs(wv), 0.0), order)
    turned = slope0[:, None] + 2.0 * np.cumsum(jumps, axis=1) >= 0.0
    pos = np.argmax(turned, axis=1)
    rows = np.arange(A.shape[0])
    return order[rows, pos], (slope0 < 0.0) & turned[rows, pos]


def _nelder_mead(A, y, wvals, node_w, start, q):
    """Nelder-Mead from the L^2 start, then the vertex through the d
    independent nodes of smallest |residual| when its objective is no
    higher.

    The objective's rounding floor sets fatol: d residuals at the rounding
    level of 0, eps (max|y| + colmax . |c|), add up to d max(w u^q) times
    its q-th power, which for q < 1 dwarfs the objective's own rounding."""
    from scipy.optimize import minimize

    d = A.shape[1]
    wq = node_w * wvals**q
    noise = _ZERO * (np.max(np.abs(y)) + _colmax(A) @ np.abs(start))
    fatol = max(1e-14, d * float(np.max(wq)) * noise**q)
    objective = _support_objective(A, y, wvals, node_w, q)
    res = minimize(
        objective,
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": fatol, "maxiter": 4000, "adaptive": True},
    )
    basis = _snap(A[None], np.abs(y - A @ res.x)[None])[0]
    vertex = np.linalg.solve(A[basis], y[basis])
    best = vertex if objective(vertex) <= res.fun else res.x
    return best, "upper-bound" if res.success else "upper-bound-unconverged"


def _support_objective(A, y, wvals, node_w, q):
    """c -> _objective(y - A c, wvals, node_w, q), bit for bit.  With one
    coefficient (k = 1, the constant monomial, a column of equal entries)
    and a constant u, every zero of y has the same term, so the q-th power
    is taken on y's non-zero nodes and one zero node, in one call; the
    (N,) terms are then written out and summed in node order as in
    _objective."""
    zeros = np.flatnonzero(y == 0.0)
    if A.shape[1] != 1 or wvals.size != 1 or zeros.size < 2:
        return lambda c: _objective(y - A @ c, wvals, node_w, q)
    nonzero = np.flatnonzero(y)
    at = np.append(nonzero, zeros[0])
    A_at, y_at = A[at], y[at]
    powers = np.empty(y.size)

    def objective(c):
        p = (np.abs(y_at - A_at @ c) * wvals) ** q
        powers.fill(p[-1])
        powers[nonzero] = p[:-1]
        return float(np.sum(node_w * powers))

    return objective


def _estimates(resid, wvals, node_w, q, scheme, notes):
    """One Estimate per ball of the (B, N) stack, on its N samples."""
    powers = node_w * (np.abs(resid) * wvals) ** q
    n = powers.shape[1]
    dev = powers * n  # minus its mean, for the ddof-1 standard deviation
    dev -= (np.add.reduce(dev, axis=1) / n)[:, None]
    std = np.sqrt(np.add.reduce(dev * dev, axis=1) / (n - 1)) / np.sqrt(n)
    return [
        Estimate(
            value=float(v), std_error=float(e), samples=n, seed=scheme.seed,
            flagged=note in _FLAGGED_NOTES, note=note,
        ).powered(1.0 / q)
        for v, e, note in zip(np.sum(powers, axis=1), std, notes)
    ]


def best_polynomial(group, F, u, q, ball, k, scheme, *, op_id="best-poly", sup_scales=None):
    """Return (BallPolynomial, value Estimate) for one ball, or a list of
    them for a list of balls, ball b on the nodes drawn under
    f"{op_id}/b{b}".

    With `sup_scales`, one positive number per ball, only the sup over the
    balls of sup_scales[b] * value is needed exactly: a q >= 1 iterative
    solve skips each ball that cannot attain it and reports its start,
    noted "upper-bound-pruned" (see `_prune`).  The sup, its ball and its
    Estimate are those of the call without it.

    A ball is dead when its box misses the box of F's declared support
    (see quad.integrate_ball): F is 0 on all its nodes, where the zero
    polynomial fits exactly.  It draws no nodes and evaluates neither F
    nor u, so a non-finite u there raises nothing (the 0 * inf = 0 rule of
    lp_norm_ball).  Its fit has zero coefficients, and its Estimate is
    value and std_error 0 on N samples, with the note that its regime's
    solver gives an all-zero F (`_dead_note`)."""
    if k < 1:
        raise DomainError("polynomial degree bound k must be >= 1")
    if not q > 0:
        raise DomainError(f"norm exponent must be positive, got {q}")
    single = isinstance(ball, GaugeBall)
    balls = [ball] if single else list(ball)
    c = weight_number(u)
    fns = (F,) if c is not None else (F, u)
    passes = ball_stacks(group, ball, scheme, fns, op_id=op_id, support_of=F)
    if not balls:
        return []
    basis = monomial_basis(group, k)
    coeffs = np.zeros((len(balls), len(basis)))
    ests = [Estimate(0.0, 0.0, scheme.samples, scheme.seed, note=_dead_note(q))] * len(balls)
    scales = None if sup_scales is None else np.asarray(sup_scales, dtype=float).reshape(-1)
    incumbent = 0.0
    for live, nodes, node_w, vals in passes:
        w = np.array([[c]]) if c is not None else vals[1]  # a constant broadcasts
        coeffs[live], found, incumbent = _fit(
            group, q, [balls[b] for b in live], basis, scheme, nodes, node_w, vals[0], w,
            None if scales is None else scales[live], incumbent,
        )
        for b, est in zip(live, found):
            ests[b] = est
    fits = [BallPolynomial(group, b, basis, cb) for b, cb in zip(balls, coeffs)]
    out = list(zip(fits, ests))
    return out[0] if single else out


def _dead_note(q):
    """The note each regime's solver gives a ball where F is 0 at every node."""
    if q == 2.0:
        return "least-squares"
    if q == 1.0:
        return "l1-vertex-certified"
    return "newton-certified" if q > 1.0 else "upper-bound"


def _fit(group, q, balls, basis, scheme, nodes, node_w, y, w, scales, incumbent):
    """The coefficients (B, d) and value Estimates of one pass's balls, from
    its `quad.ball_stacks` nodes and weights, F values y and u values w, and
    the sup's incumbent after them (see `_prune`)."""
    A = _centred_vandermonde(group, basis, balls, nodes)
    wb = np.broadcast_to(w, (len(balls), w.shape[1]))
    coeffs = _weighted_lstsq(A, y, node_w * w**2)
    notes = ["least-squares"] * len(balls)
    if q != 2.0:
        peaks = np.max(np.abs(y), axis=1)
        peaks[peaks == 0.0] = 1.0
        ys, starts = y / peaks[:, None], coeffs / peaks[:, None]
        if q < 1.0:
            rows = zip(A, ys, wb, node_w, starts)
            coeffs, notes = zip(*(_nelder_mead(*row, q) for row in rows))
        else:
            wq = node_w * w**q
            if q != 1.0:
                solve = lambda b: _newton(A[b], ys[b], wq[b], starts[b], q)
            elif A.shape[2] > 1:
                starts, r0, bases = _l1_start(A, ys, wq, starts)
                solve = lambda b: _l1_pivots(A[b], ys[b], wq[b], starts[b], r0[b], bases[b])[:2]
            else:
                solve = lambda b: _l1_descent(A[b], ys[b], wq[b], starts[b])[:2]

            def sup_values(b, c):  # the scaled values, to rounding those of the estimates
                resid = y[b] - (A[b] @ (c * peaks[b, None])[..., None])[..., 0]
                powers = node_w[b] * (np.abs(resid) * wb[b]) ** q
                return scales[b] * np.sum(powers, axis=1) ** (1.0 / q)

            coeffs, notes, incumbent = _prune(
                solve, starts, None if scales is None else sup_values, incumbent
            )
        coeffs = np.array(coeffs) * peaks[:, None]

    resid = np.array([f - a @ c for a, f, c in zip(A, y, coeffs)])
    return coeffs, _estimates(resid, w, node_w, q, scheme, notes), incumbent


def _prune(solve, starts, sup_values, incumbent):
    """Solve the balls of one pass that can attain the sup, from their
    starts (B, d): `solve(rows)` returns the coefficients and notes of
    those balls, and `sup_values(rows, coeffs)` their scaled values.  No
    solver ends above its start (beyond rounding, far inside the margin
    _GAP_TOL), so a ball whose scaled start value, times 1 + _GAP_TOL, is
    below the incumbent (the largest scaled value solved so far, over every
    pass) cannot attain the sup: it keeps its start, noted
    "upper-bound-pruned".  The ball of largest start value is solved
    first and alone, then every other ball that still reaches the
    incumbent in one stack.  Without `sup_values` every ball is solved.
    Returns the coefficients, the notes and the incumbent."""
    if sup_values is None:
        return *solve(slice(None)), incumbent
    every = np.arange(len(starts))
    coeffs, notes = starts.copy(), np.full(len(starts), "upper-bound-pruned", dtype=object)
    bound = sup_values(every, starts)
    top = np.argmax(bound)
    for rows in (every[top : top + 1], np.delete(every, top)):
        rows = rows[bound[rows] * (1.0 + _GAP_TOL) >= incumbent]
        if rows.size:
            coeffs[rows], notes[rows] = solve(rows)
            incumbent = max(incumbent, float(np.max(sup_values(rows, coeffs[rows]))))
    return coeffs, notes, incumbent


def evaluate_candidate(group, F, u, q, ball, scheme, poly, *, op_id="best-poly"):
    """||(F - poly) u||_{L^q(B)} on the same nodes best_polynomial uses.  No
    ball is dead here: the nodes are drawn wherever F's support lies."""
    c = weight_number(u)
    fns = (F, poly) if c is not None else (F, u, poly)
    [(_, _, [node_w], vals)] = ball_stacks(group, ball, scheme, fns, op_id=op_id)
    wvals = np.array([c]) if c is not None else vals[1, 0]
    return _objective(vals[0, 0] - vals[-1, 0], wvals, node_w, q) ** (1.0 / q)

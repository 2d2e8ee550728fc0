"""Best L^q polynomial approximation on gauge balls.

Minimizes ||(F - P) u||_{L^q(B)} over polynomials of homogeneous degree
less than k, on the ball's quadrature nodes.  The basis is evaluated in
centered, dilation-scaled coordinates zeta = delta_{1/r}(c^-1 o y) for
conditioning; left translations and dilations preserve the span of
{deg_G < k}, so the solution is mapped back to raw coordinates exactly.

`best_polynomial` takes one ball or a list of balls; ball b of a list
draws its nodes under f"{op_id}/b{b}".  F and u are evaluated once on the
nodes of all balls together, and a non-finite value raises IntegrationError
before any solve.  The Vandermonde matrix is per ball.

Solvers by exponent:
  q = 2       weighted least squares: one column-scaled lstsq per ball,
              whose SVD rank check guards the basis;
  1 <= q != 2 iteratively reweighted least squares (IRLS) from that L^2
              start.  An iteration solves every unconverged ball at once:
              the R factor of the stacked, reweighted augmented matrices
              [A | y] of shape (B, N, d + 1) carries Q^T y in its last
              column, so one batched QR and one batched (d x d) solve give
              all B coefficient vectors.  Short balls are padded with zero
              rows, which change neither R nor the objective.  A ball stops
              once its objective moves by at most _IRLS_TOL relative (note
              "irls-stationary") or after _IRLS_MAX_ITER iterations (note
              "irls-iteration-cap");
  q < 1       the L^2 start + Nelder-Mead descent, per ball; the result is
              an upper bound on the infimum and is labeled as such.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from ..carnot.group import GaugeBall
from ..carnot.polynomials import (
    HomogeneousPolynomial,
    left_translation_polys,
    monomial_basis,
    vandermonde,
)
from ..errors import ConditioningError, DomainError
from ..quad import Estimate, _check_finite, _strata

_IRLS_TOL = 1e-8
_IRLS_MAX_ITER = 200

# Entries B * N * (d + 1) of one stacked IRLS system; balls beyond it go in
# further stacks, which bounds the peak memory whatever the number of balls.
_IRLS_STACK = 1 << 20


def _nodes_and_weights(group, ball, scheme, op_id):
    """The ball's nodes and quadrature weights: the one stratum of a uniform
    or grid scheme, restricted to its live nodes."""
    scheme.validate()
    if scheme.kind == "annuli":
        raise DomainError("best_polynomial needs a uniform or grid scheme")
    pts, live, vols, _ = _strata(group, [ball], scheme, op_id)
    nodes = pts[0, :, 0] if live is None else pts[0, live[0], 0]
    return nodes, np.full(nodes.shape[0], vols[0] / pts.shape[1])


def _objective(resid, wvals, node_w, q):
    return float(np.sum(node_w * (np.abs(resid) * wvals) ** q))


def _weighted_lstsq(A, y, lam):
    sq = np.sqrt(lam)
    scaled = A * sq[:, None]
    col = np.linalg.norm(scaled, axis=0)
    col[col == 0.0] = 1.0
    sol, _, rank, _ = np.linalg.lstsq(scaled / col, y * sq, rcond=None)
    if rank < A.shape[1]:
        raise ConditioningError(
            f"rank-deficient polynomial basis: rank {rank} < {A.shape[1]} columns"
        )
    return sol / col


def _irls(systems, q):
    """IRLS for every ball's (A, y, node_w * u^q, L^2 start): returns the
    coefficient vectors and each ball's note, in stacks of at most
    _IRLS_STACK entries, every stack padded to the longest ball."""
    width = max(A.shape[0] for A, *_ in systems)
    per_stack = max(1, _IRLS_STACK // (width * (systems[0][0].shape[1] + 1)))
    coeffs, notes = [], []
    for start in range(0, len(systems), per_stack):
        c, n = _irls_stack(systems[start : start + per_stack], q, width)
        coeffs.extend(c)
        notes.extend(n)
    return coeffs, notes


def _irls_stack(systems, q, width):
    d = systems[0][0].shape[1]
    # [A | y] per ball, stored transposed so the reweighting runs along nodes
    M = np.zeros((len(systems), d + 1, width))
    wq = np.zeros((len(systems), width))
    for b, (A, y, w, _) in enumerate(systems):
        M[b, :d, : len(y)] = A.T
        M[b, d, : len(y)] = y
        wq[b, : len(y)] = w
    coeffs = np.array([c for *_, c in systems])
    delta = 1e-12 * (np.max(np.abs(M[:, d]), axis=1) + 1.0)
    resid = np.abs(M[:, d] - (coeffs[:, None, :] @ M[:, :d])[:, 0])
    obj = np.sum(wq * resid**q, axis=1)
    notes = np.full(len(systems), "irls-iteration-cap", dtype=object)
    active = np.arange(len(systems))
    for _ in range(_IRLS_MAX_ITER):
        lam = wq * (resid + delta[:, None]) ** (q - 2.0)
        R = np.linalg.qr((M * np.sqrt(lam)[:, None, :]).transpose(0, 2, 1), mode="r")
        try:
            c = np.linalg.solve(R[:, :d, :d], R[:, :d, d:])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise ConditioningError(f"reweighted least-squares system: {exc}") from exc
        if not np.all(np.isfinite(c)):
            raise ConditioningError("non-finite reweighted least-squares solution")
        coeffs[active] = c
        resid = np.abs(M[:, d] - (c[:, None, :] @ M[:, :d])[:, 0])
        new_obj = np.sum(wq * resid**q, axis=1)
        done = np.abs(new_obj - obj) <= _IRLS_TOL * np.maximum(obj, 1e-300)
        obj = new_obj
        if np.any(done):
            notes[active[done]] = "irls-stationary"
            keep = ~done
            if not np.any(keep):
                break
            active, M, wq, resid, delta, obj = (
                x[keep] for x in (active, M, wq, resid, delta, obj)
            )
    return list(coeffs), list(notes)


def _nelder_mead(A, y, wvals, node_w, q, start):
    res = minimize(
        lambda c: _objective(y - A @ c, wvals, node_w, q),
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000, "adaptive": True},
    )
    return res.x


def _estimate(resid, wvals, node_w, q, scheme, note):
    powers = node_w * (np.abs(resid) * wvals) ** q
    value_q = float(np.sum(powers))
    n = powers.shape[0]
    if scheme.kind == "uniform" and n > 1:
        std_q = float(np.std(powers * n, ddof=1)) / np.sqrt(n)
    else:
        std_q = 0.0
    est = Estimate(value=value_q, std_error=std_q, samples=n, seed=scheme.seed, note=note)
    return est.powered(1.0 / q)


def best_polynomial(group, F, u, q, ball, k, scheme, *, op_id="best-poly"):
    """Return (minimizer polynomial in raw coordinates, value Estimate) for
    one ball, or a list of them for a list of balls, ball b on the nodes
    drawn under f"{op_id}/b{b}"."""
    if k < 1:
        raise DomainError("polynomial degree bound k must be >= 1")
    if not q > 0:
        raise DomainError(f"norm exponent must be positive, got {q}")
    single = isinstance(ball, GaugeBall)
    balls = [ball] if single else list(ball)
    ids = [op_id] if single else [f"{op_id}/b{b}" for b in range(len(balls))]
    basis = monomial_basis(group, k)
    node_sets = [_nodes_and_weights(group, b, scheme, b_id) for b, b_id in zip(balls, ids)]
    nodes = np.concatenate([x for x, _ in node_sets])
    ys = np.asarray(F(nodes), dtype=float).reshape(nodes.shape[0])
    ws = np.asarray(u(nodes), dtype=float).reshape(nodes.shape[0])
    _check_finite(ys, nodes)
    _check_finite(ws, nodes)
    splits = np.cumsum([x.shape[0] for x, _ in node_sets])[:-1]
    systems = []  # per ball: (Vandermonde A, F values, u values, quadrature weights)
    for b, (x, node_w), y, w in zip(balls, node_sets, np.split(ys, splits), np.split(ws, splits)):
        zeta = group.dilate(1.0 / b.radius, group.compose(group.inverse(b.center), x))
        systems.append((vandermonde(group, basis, zeta), y, w, node_w))

    coeffs = [_weighted_lstsq(A, y, node_w * w**2) for A, y, w, node_w in systems]
    notes = ["least-squares"] * len(balls)
    if q != 2.0 and q >= 1.0:
        coeffs, notes = _irls(
            [(A, y, node_w * w**q, c) for (A, y, w, node_w), c in zip(systems, coeffs)], q
        )
    elif q < 1.0:
        coeffs = [_nelder_mead(*system, q, c) for system, c in zip(systems, coeffs)]
        notes = ["upper-bound"] * len(balls)

    out = [
        (_to_raw_coordinates(group, basis, c, b), _estimate(y - A @ c, w, node_w, q, scheme, note))
        for b, (A, y, w, node_w), c, note in zip(balls, systems, coeffs, notes)
    ]
    return out[0] if single else out


def _to_raw_coordinates(group, basis, coeffs, ball):
    """Expand P(zeta(y)) back into a polynomial in y."""
    zeta_polys = []
    trans = left_translation_polys(group, group.inverse(ball.center))
    for i in range(group.n):
        zeta_polys.append(trans[i] * float(ball.radius ** -group.weights[i]))
    in_zeta = HomogeneousPolynomial(group, dict(zip(basis, coeffs)))
    return in_zeta.substitute(zeta_polys)


def evaluate_candidate(group, F, u, q, ball, scheme, poly, *, op_id="best-poly"):
    """||(F - poly) u||_{L^q(B)} on the same nodes best_polynomial uses."""
    nodes, node_w = _nodes_and_weights(group, ball, scheme, op_id)
    y, wvals, pvals = (
        np.asarray(f(nodes), dtype=float).reshape(nodes.shape[0]) for f in (F, u, poly)
    )
    for vals in (y, wvals, pvals):
        _check_finite(vals, nodes)
    return _objective(y - pvals, wvals, node_w, q) ** (1.0 / q)

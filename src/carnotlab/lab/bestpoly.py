"""Best L^q polynomial approximation on a gauge ball.

Minimizes ||(F - P) u||_{L^q(B)} over polynomials of homogeneous degree
less than k, on the ball's quadrature nodes.  The basis is evaluated in
centered, dilation-scaled coordinates zeta = delta_{1/r}(c^-1 o y) for
conditioning; left translations and dilations preserve the span of
{deg_G < k}, so the solution is mapped back to raw coordinates exactly.

Solvers by exponent:
  q = 2       weighted least squares (column-scaled lstsq);
  1 <= q != 2 iteratively reweighted least squares to stationarity;
  q < 1       L^2 initializer + Nelder-Mead descent; the result is an
              upper bound on the infimum and is labeled as such.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from ..carnot.polynomials import (
    HomogeneousPolynomial,
    left_translation_polys,
    monomial_basis,
    vandermonde,
)
from ..errors import ConditioningError, DomainError
from ..quad import Estimate, _strata

_IRLS_TOL = 1e-8
_IRLS_MAX_ITER = 200


def _nodes_and_weights(group, ball, scheme, op_id):
    """The ball's nodes and quadrature weights: the one stratum of a uniform
    or grid scheme, restricted to its live nodes."""
    scheme.validate()
    if scheme.kind == "annuli":
        raise DomainError("best_polynomial needs a uniform or grid scheme")
    ((pts, live, volume),) = _strata(group, [ball], scheme, op_id)
    nodes = pts[:, 0] if live is None else pts[:, 0][live]
    return nodes, np.full(nodes.shape[0], volume / pts.shape[0])


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


def best_polynomial(group, F, u, q, ball, k, scheme, *, op_id="best-poly"):
    """Return (minimizer polynomial in raw coordinates, value Estimate)."""
    if k < 1:
        raise DomainError("polynomial degree bound k must be >= 1")
    if not q > 0:
        raise DomainError(f"norm exponent must be positive, got {q}")
    basis = monomial_basis(group, k)
    nodes, node_w = _nodes_and_weights(group, ball, scheme, op_id)
    zeta = group.dilate(1.0 / ball.radius, group.compose(group.inverse(ball.center), nodes))
    A = vandermonde(group, basis, zeta)
    y = np.asarray(F(nodes), dtype=float).reshape(nodes.shape[0])
    wvals = np.asarray(u(nodes), dtype=float).reshape(nodes.shape[0])

    coeffs = _weighted_lstsq(A, y, node_w * wvals**2)
    note = "least-squares"
    if q != 2.0 and q >= 1.0:
        delta = 1e-12 * (float(np.max(np.abs(y))) + 1.0)
        obj = _objective(y - A @ coeffs, wvals, node_w, q)
        for _ in range(_IRLS_MAX_ITER):
            resid = y - A @ coeffs
            lam = node_w * wvals**q * (np.abs(resid) + delta) ** (q - 2.0)
            coeffs = _weighted_lstsq(A, y, lam)
            new_obj = _objective(y - A @ coeffs, wvals, node_w, q)
            if abs(new_obj - obj) <= _IRLS_TOL * max(obj, 1e-300):
                obj = new_obj
                break
            obj = new_obj
        note = "irls-stationary"
    elif q < 1.0:

        def objective(c):
            return _objective(y - A @ c, wvals, node_w, q)

        res = minimize(
            objective,
            coeffs,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000, "adaptive": True},
        )
        coeffs = res.x
        note = "upper-bound"

    resid = y - A @ coeffs
    powers = node_w * (np.abs(resid) * wvals) ** q
    value_q = float(np.sum(powers))
    n = powers.shape[0]
    if scheme.kind == "uniform" and n > 1:
        std_q = float(np.std(powers * n, ddof=1)) / np.sqrt(n)
    else:
        std_q = 0.0
    est = Estimate(value=value_q, std_error=std_q, samples=n, seed=scheme.seed, note=note)
    est = est.powered(1.0 / q)
    est.note = note

    poly = _to_raw_coordinates(group, basis, coeffs, ball)
    return poly, est


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
    y = np.asarray(F(nodes), dtype=float).reshape(nodes.shape[0])
    wvals = np.asarray(u(nodes), dtype=float).reshape(nodes.shape[0])
    resid = y - np.asarray(poly(nodes), dtype=float).reshape(nodes.shape[0])
    return _objective(resid, wvals, node_w, q) ** (1.0 / q)

"""Test-only oracles shared by the unit tests and the acceptance suite:

* `grid_brute_force`: dense-grid brute force for the best-polynomial value.
  Searches coefficient space on the same quadrature nodes the solver uses,
  with three zoom stages.
* `mc_ball_volume`: an independent Monte Carlo ball volume by box rejection.
* `quadrature_nodes`: the uniform nodes a scheme draws on one ball.
* `poly_eval_by_powers` and `vandermonde_by_powers`: monomials by one array
  power per term and coordinate, the reference for the power-table kernels.
"""

import math

import numpy as np

from carnotlab.carnot import monomial_basis, vandermonde
from carnotlab.carnot.constants import ball_volume
from carnotlab.carnot.group import centered_box_extents
from carnotlab.errors import DomainError
from carnotlab.quad import Estimate, sample_ball
from carnotlab.rng import stream


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


def poly_eval_by_powers(poly, pts):
    """sum_alpha c * prod_i x_i ** a_i on an (N, n) batch, one array power per
    term and coordinate, and sum_alpha |c * x^alpha| for the error scale."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.zeros(pts.shape[0])
    scale = np.zeros(pts.shape[0])
    for alpha, c in poly.terms.items():
        mono = np.full(pts.shape[0], c)
        for i, a in enumerate(alpha):
            if a:
                mono *= pts[:, i] ** a
        out += mono
        scale += np.abs(mono)
    return out, scale


def vandermonde_by_powers(basis, pts):
    """Design matrix with column x^alpha = prod_i x_i ** a_i."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    cols = []
    for alpha in basis:
        col = np.ones(pts.shape[0])
        for i, a in enumerate(alpha):
            if a:
                col = col * pts[:, i] ** a
        cols.append(col)
    return np.column_stack(cols)


def grid_brute_force(group, F, u, q, ball, k, scheme, op_id):
    basis = monomial_basis(group, k)
    nodes = quadrature_nodes(group, ball, scheme, op_id)
    zeta = group.dilate(1.0 / ball.radius, group.compose(group.inverse(ball.center), nodes))
    A = vandermonde(group, basis, zeta)
    y = np.asarray(F(nodes), dtype=float).reshape(-1)
    wv = np.asarray(u(nodes), dtype=float).reshape(-1)
    node_w = ball_volume(group, ball.radius) / nodes.shape[0]
    center = np.linalg.lstsq(A, y, rcond=None)[0]
    spread = max(float(np.max(np.abs(y - A @ center))), 1e-3)
    best = math.inf
    pts_per_axis = 241 if len(basis) == 1 else 101
    grids = [np.linspace(c - 2 * spread, c + 2 * spread, pts_per_axis) for c in center]
    for _ in range(3):  # zoom stages
        if len(basis) == 1:
            combos = grids[0][:, None]
        else:
            aa, bb = np.meshgrid(grids[0], grids[1], indexing="ij")
            combos = np.column_stack([aa.ravel(), bb.ravel()])
        vals = np.empty(combos.shape[0])
        for lo in range(0, combos.shape[0], 2000):  # bounded memory
            chunk = combos[lo : lo + 2000]
            resid = y[None, :] - chunk @ A.T
            vals[lo : lo + 2000] = np.sum(node_w * (np.abs(resid) * wv[None, :]) ** q, axis=1)
        j = int(np.argmin(vals))
        best = vals[j] ** (1.0 / q)
        centers = combos[j]
        widths = [(g[1] - g[0]) * 6 for g in grids]
        grids = [np.linspace(c - w, c + w, pts_per_axis) for c, w in zip(centers, widths)]
    return best

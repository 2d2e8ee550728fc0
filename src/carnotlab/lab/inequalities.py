"""Inequality experiments: Poincare and Sobolev ratio estimation and the
pointwise representation-formula bound check.

Each trial reports lhs, rhs, and their ratio, which estimates the
inequality constant for that configuration.  Ratios are gauge-relative
empirical quantities, never the theorems' constants.  The subtracted
polynomial is the L^q minimizer, which can only decrease the lhs, so a
bounded ratio here is implied by the inequalities themselves.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..carnot.functions import HorizontalDerivativeMagnitude, ProductFunction
from ..errors import HypothesisError
from ..operators import (
    derivative_tuples,
    multilinear_fractional_integral,
    poincare_rhs,
    sobolev_rhs,
    sobolev_sublaplacian_rhs,
)
from ..quad import estimate_sum, lp_norm_ball, sample_ball
from ..rng import stream
from ..weights import validate_exponents
from .bestpoly import best_polynomial
from .reports import InequalityReport

VIOLATION_FLAG = "inequality-violation-candidate"

# below this absolute level an lhs is solver roundoff, not a violation
_ZERO_TOL = 1e-9


def _base_config(group, system, u, vs, scheme, **extra):
    cfg = {
        "group": group.ident,
        "gauge": "layered",
        "system": system.to_dict(),
        "u": u.to_dict(),
        "v": [v.to_dict() for v in vs],
        "scheme": scheme.to_dict(),
    }
    cfg.update(extra)
    return cfg


def _finish(lhs, rhs, config, terms):
    flags = []
    if lhs.flagged or rhs.flagged:
        flags.append("flagged-estimate")
    lhs_is_zero = lhs.value <= max(3.0 * lhs.std_error, _ZERO_TOL)
    if rhs.value > 0.0:
        ratio = lhs.value / rhs.value
    elif lhs_is_zero:
        ratio = 0.0
    else:
        ratio = float("inf")
        flags.append(VIOLATION_FLAG)
    return InequalityReport(lhs=lhs, rhs=rhs, ratio=ratio, config=config, terms=terms, flags=flags)


def poincare_test(
    group, fs, u, vs, system, ball, scheme, *, k=None, weight_verdict=None, op_id="poincare"
):
    """Local inequality trial on one ball.

    lhs: best-polynomial L^q distance of prod f_i under weight u;
    rhs: sum over derivative tuples of products of weighted L^p norms.
    """
    if k is not None and k != system.k:
        system = dataclasses.replace(system, k=k)
    system = validate_exponents(system, group)
    product = ProductFunction(group, fs)
    _, lhs = best_polynomial(
        group, product, u, system.q, ball, system.k, scheme, op_id=f"{op_id}/lhs"
    )
    rhs, terms = poincare_rhs(
        group, fs, vs, system.p_list, ball, system.k, scheme, op_id=f"{op_id}/rhs"
    )
    config = _base_config(
        group,
        system,
        u,
        vs,
        scheme,
        ball=ball.to_dict(),
        weight_verdict=weight_verdict,
        kind="poincare",
    )
    return _finish(lhs, rhs, config, terms)


def sobolev_test(group, fs, u, vs, system, scheme, *, weight_verdict=None, op_id="sobolev"):
    """Global inequality trial; no polynomial subtraction on the lhs."""
    system = validate_exponents(system, group)
    product = ProductFunction(group, fs)
    lhs = lp_norm_ball(
        group, product, u, system.q, product.support, scheme, op_id=f"{op_id}/lhs"
    )
    rhs, terms = sobolev_rhs(
        group, fs, vs, system.p_list, system.k, scheme, op_id=f"{op_id}/rhs"
    )
    config = _base_config(
        group, system, u, vs, scheme, weight_verdict=weight_verdict, kind="sobolev"
    )
    return _finish(lhs, rhs, config, terms)


def sobolev_sublaplacian_test(
    group, fs, u, vs, system, scheme, *, weight_verdict=None, op_id="sublap"
):
    """Second-order global trial with the sub-Laplacian right-hand side (k = 2)."""
    if system.k != 2:
        raise HypothesisError("the sub-Laplacian inequality is a k = 2 statement")
    mq = system.m * group.homogeneous_dimension
    if not mq > 2:
        raise HypothesisError(f"needs m*Q > 2, got m*Q = {mq}")
    system = validate_exponents(system, group)
    product = ProductFunction(group, fs)
    lhs = lp_norm_ball(
        group, product, u, system.q, product.support, scheme, op_id=f"{op_id}/lhs"
    )
    rhs, terms = sobolev_sublaplacian_rhs(
        group, fs, vs, system.p_list, scheme, op_id=f"{op_id}/rhs"
    )
    config = _base_config(
        group, system, u, vs, scheme, weight_verdict=weight_verdict, kind="sobolev-sublaplacian"
    )
    return _finish(lhs, rhs, config, terms)


def representation_check(group, fs, ball, k, num_points, scheme, *, op_id="repformula"):
    """Pointwise bound |prod f_i(x) - P(x)| <= C * sum I_k(|X^a f| chi_B)(x).

    P is the L^2-minimizing polynomial on the ball (a stand-in that can
    only decrease the lhs).  Each derivative tuple makes one MFI call over
    all `num_points` target points, under op_id f"{op_id}/t{t_idx}": the
    points share that tuple's product node set, so their standard errors
    are correlated, while different tuples draw independent node sets and
    the per-point sum over tuples is a sum of independent terms.  Returns
    per-point records and the max ratio.
    """
    m = len(fs)
    mq = m * group.homogeneous_dimension
    if k > mq:
        raise HypothesisError(f"needs k <= m*Q, got k = {k}, m*Q = {mq}")
    product = ProductFunction(group, fs)
    one = _ConstantWeight()
    # the kernel integrals may need annuli stratification; the polynomial
    # stage always fits on uniform ball nodes
    poly_scheme = scheme if scheme.kind in ("uniform", "grid") else scheme.with_(kind="uniform")
    poly, _ = best_polynomial(group, product, one, 2.0, ball, k, poly_scheme, op_id=f"{op_id}/poly")
    pts = sample_ball(group, ball, num_points, stream(scheme.seed, f"{op_id}/points"))
    lhs = np.abs(product(pts) - poly(pts))
    per_tuple = []
    for t_idx, tup in enumerate(derivative_tuples(m, k, group.n1)):
        slot_fns = [
            HorizontalDerivativeMagnitude(group, fs[i], alpha, restrict_to=ball)
            for i, alpha in enumerate(tup)
        ]
        per_tuple.append(
            multilinear_fractional_integral(
                group, slot_fns, k, pts, scheme, op_id=f"{op_id}/t{t_idx}"
            )
        )
    records = []
    for idx in range(num_points):
        rhs = estimate_sum(parts[idx] for parts in per_tuple)
        ratio = lhs[idx] / rhs.value if rhs.value > 0 else float("inf")
        records.append(
            {
                "point": pts[idx].tolist(),
                "lhs": float(lhs[idx]),
                "rhs": rhs.value,
                "rhs_std_error": rhs.std_error,
                "ratio": float(ratio),
            }
        )
    finite = [r["ratio"] for r in records if np.isfinite(r["ratio"])]
    summary = {
        "max_ratio": max(finite) if finite else float("nan"),
        "points": num_points,
        "k": k,
        "group": group.ident,
        "ball": ball.to_dict(),
    }
    return records, summary


class _ConstantWeight:
    def __call__(self, pts):
        pts = np.atleast_2d(pts)
        return np.ones(pts.shape[0])

    def to_dict(self):
        return {"constant": 1.0, "factors": []}

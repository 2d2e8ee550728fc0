"""Inequality experiments: Poincare and Sobolev ratio estimation and the
pointwise representation-formula bound check.

Each trial reports lhs, rhs, and their ratio, which estimates the
inequality constant for that configuration.  Ratios are gauge-relative
empirical quantities, never the theorems' constants.  The subtracted
polynomial is the L^q minimizer, which can only decrease the lhs, so a
bounded ratio here is implied by the inequalities themselves.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..carnot.functions import ProductFunction
from ..errors import DomainError, HypothesisError
from ..operators import (
    derivative_tuples,
    jet_rows,
    multilinear_fractional_integral,
    poincare_rhs,
    sobolev_rhs,
    sobolev_sublaplacian_rhs,
)
from ..quad import lp_norm_ball, sample_ball
from ..rng import stream
from ..weights import Weight, validate_exponents
from .bestpoly import best_polynomial
from .reports import trial_config, trial_report


def poincare_test(group, fs, u, vs, system, ball, scheme, *, weight_verdict=None, op_id="poincare"):
    """Local inequality trial on one ball.

    lhs: best-polynomial L^q distance of prod f_i under weight u;
    rhs: sum over derivative tuples of products of weighted L^p norms.
    """
    system = validate_exponents(system, group)
    product = ProductFunction(group, fs)
    _, lhs = best_polynomial(
        group, product, u, system.q, ball, system.k, scheme, op_id=f"{op_id}/lhs"
    )
    rhs, terms = poincare_rhs(
        group, fs, vs, system.p_list, ball, system.k, scheme, op_id=f"{op_id}/rhs"
    )
    config = trial_config(
        group,
        system,
        u,
        vs,
        scheme,
        ball=ball.to_dict(),
        weight_verdict=weight_verdict,
        kind="poincare",
    )
    return trial_report(lhs, rhs, config, terms)


def _global_trial(group, fs, u, vs, system, scheme, weight_verdict, kind, op_id, rhs, *extra):
    """A global trial: lhs the L^q norm of prod f_i under u over its support
    (no polynomial subtraction), against rhs(group, fs, vs, p_list, *extra,
    scheme), which returns the rhs total and its terms."""
    system = validate_exponents(system, group)
    product = ProductFunction(group, fs)
    lhs = lp_norm_ball(
        group, product, u, system.q, product.support, scheme, op_id=f"{op_id}/lhs"
    )
    total, terms = rhs(group, fs, vs, system.p_list, *extra, scheme, op_id=f"{op_id}/rhs")
    config = trial_config(group, system, u, vs, scheme, weight_verdict=weight_verdict, kind=kind)
    return trial_report(lhs, total, config, terms)


def sobolev_test(group, fs, u, vs, system, scheme, *, weight_verdict=None, op_id="sobolev"):
    """Global inequality trial; no polynomial subtraction on the lhs."""
    return _global_trial(
        group, fs, u, vs, system, scheme, weight_verdict, "sobolev", op_id, sobolev_rhs, system.k
    )


def check_sublaplacian_hypotheses(group, system):
    """Raise HypothesisError unless k = 2 and m*Q > 2."""
    if system.k != 2:
        raise HypothesisError(
            f"the sub-Laplacian inequality is a k = 2 statement, got k = {system.k}"
        )
    mq = system.m * group.homogeneous_dimension
    if not mq > 2:
        raise HypothesisError(f"needs m*Q > 2, got m*Q = {mq}")


def sobolev_sublaplacian_test(
    group, fs, u, vs, system, scheme, *, weight_verdict=None, op_id="sublap"
):
    """Second-order global trial with the sub-Laplacian right-hand side (k = 2)."""
    check_sublaplacian_hypotheses(group, system)
    return _global_trial(
        group, fs, u, vs, system, scheme, weight_verdict, "sobolev-sublaplacian", op_id,
        sobolev_sublaplacian_rhs,
    )


def representation_check(group, fs, ball, k, num_points, scheme, *, op_id="repformula"):
    """Pointwise bound |prod f_i(x) - P(x)| <= C * sum I_k(|X^a f| chi_B)(x).

    P is the L^2-minimizing polynomial on the ball (a stand-in that can
    only decrease the lhs), a `BallPolynomial` evaluated at the points in
    the ball's centred coordinates.  I_k is linear and every tuple's term has the
    same order and supports, so the sum over tuples is one MFI call over
    all `num_points` target points, under op_id f"{op_id}/rhs": slot i
    gives one row |X^(t_i) f_i| per tuple t from one jet pass, and the
    integrand is the sum over tuples of the rows' products.  Each point's
    rhs is one estimate; the points share the node set, so their standard
    errors are correlated.  A point with lhs and rhs both 0 has ratio 0;
    an lhs > 0 over an rhs of 0 has ratio inf.  Returns per-point records
    and the max finite ratio.
    """
    if num_points < 0:
        raise DomainError(f"the number of points must be >= 0, got {num_points}")
    m = len(fs)
    mq = m * group.homogeneous_dimension
    if k > mq:
        raise HypothesisError(f"needs k <= m*Q, got k = {k}, m*Q = {mq}")
    product = ProductFunction(group, fs)
    one = Weight.one(group)
    # the kernel integrals may need annuli stratification; the polynomial
    # stage always fits on uniform ball nodes
    poly_scheme = replace(scheme, kind="uniform")
    poly, _ = best_polynomial(group, product, one, 2.0, ball, k, poly_scheme, op_id=f"{op_id}/poly")
    pts = sample_ball(group, ball, num_points, stream(scheme.seed, f"{op_id}/points"))
    lhs = np.abs(product(pts) - poly(pts))
    tuples = derivative_tuples(m, k, group.n1)
    slots = [jet_rows(group, f, [t[i] for t in tuples]) for i, f in enumerate(fs)]
    for slot in slots:
        slot.support = ball  # the MFI integrates each slot over the ball
    rhs = multilinear_fractional_integral(group, slots, k, pts, scheme, op_id=f"{op_id}/rhs")
    records = []
    for idx, est in enumerate(rhs):
        if est.value > 0:
            ratio = lhs[idx] / est.value
        else:  # zero over zero reads 0, as in trial_report
            ratio = 0.0 if lhs[idx] == 0.0 else float("inf")
        records.append(
            {
                "point": pts[idx].tolist(),
                "lhs": float(lhs[idx]),
                "rhs": est.value,
                "rhs_std_error": est.std_error,
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

"""The multilinear fractional integral, derivative-tuple enumeration, and
the right-hand sides of the Poincare/Sobolev inequalities.

The operator of order tau acts on an m-tuple of functions by

    I_tau(f_vec)(x) = int  prod_i f_i(y_i) / d(x, y_vec)^(mQ - tau)  dy_vec,

with d(x, y_vec) = sum_i d(x, y_i).  Compact supports make every integral
finite-domain: each slot integrates over its declared support ball.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .carnot.functions import (
    HorizontalDerivativeMagnitude,
    SubLaplacianMagnitude,
)
from .errors import DomainError
from .quad import (
    estimate_product,
    estimate_sum,
    integrate_singular_product,
    lp_norm_ball,
    product_integrand,
)


@dataclass(frozen=True)
class DerivativeTuple:
    """One term of the sum over |alpha_1| + ... + |alpha_m| = k."""

    alphas: tuple

    def __iter__(self):
        return iter(self.alphas)

    def total_order(self):
        return sum(sum(a) for a in self.alphas)


def _compositions(k, m):
    """Ordered compositions of k into m nonnegative parts, first part largest."""
    if m == 1:
        yield (k,)
        return
    for first in range(k, -1, -1):
        for rest in _compositions(k - first, m - 1):
            yield (first,) + rest


def _multiindices_of_order(order, n1):
    """Multi-indices over n1 variables with |alpha| = order, grlex order."""
    out = []
    for comp in _compositions(order, n1):
        out.append(comp)
    return out


def derivative_tuples(m, k, n1):
    """Complete, duplicate-free enumeration of derivative tuples.

    Tuples are ordered by the composition (k_1, ..., k_m) of k with the
    first slot largest, then per-slot graded-lex on the multi-indices.
    """
    if m < 1 or k < 1 or n1 < 1:
        raise DomainError("derivative tuples need m, k, n1 >= 1")
    tuples = []
    for comp in _compositions(k, m):
        slot_lists = [_multiindices_of_order(order, n1) for order in comp]
        idx = [0] * m
        while True:
            tuples.append(DerivativeTuple(tuple(slot_lists[i][idx[i]] for i in range(m))))
            for pos in range(m - 1, -1, -1):
                idx[pos] += 1
                if idx[pos] < len(slot_lists[pos]):
                    break
                idx[pos] = 0
            else:
                break
    return tuples


def multilinear_fractional_integral(group, fs, tau, x, scheme, *, op_id="mfi"):
    """I_tau(f_vec)(x) with each slot restricted to its declared support ball.

    `x` is one point of shape (n,), which returns an Estimate, or a batch
    of shape (P, n), which returns a list of P Estimates.  Under the
    uniform and grid schemes a batch shares one product node set and one
    evaluation of the slot functions; see `integrate_singular_product`.
    """
    supports = []
    for i, f in enumerate(fs):
        sup = getattr(f, "support", None)
        if sup is None:
            raise DomainError(
                f"slot {i} has no declared support ball; restrict it to one first"
            )
        supports.append(sup)
    return integrate_singular_product(
        group,
        len(fs),
        product_integrand(fs),
        x,
        tau,
        supports,
        scheme,
        op_id=op_id,
    )


def poincare_rhs(group, fs, vs, ps, ball, k, scheme, *, op_id="poincare-rhs", return_terms=False):
    """RHS of the local inequality: sum over tuples of products of
    weighted L^p norms of horizontal derivatives over the ball."""
    m = len(fs)
    if not (len(vs) == len(ps) == m):
        raise DomainError("need one weight and one exponent per function slot")
    terms = []
    breakdown = []
    for t_idx, tup in enumerate(derivative_tuples(m, k, group.n1)):
        factors = []
        for i, alpha in enumerate(tup):
            g = HorizontalDerivativeMagnitude(group, fs[i], alpha)
            factors.append(
                lp_norm_ball(
                    group, g, vs[i], ps[i], ball, scheme, op_id=f"{op_id}/t{t_idx}/f{i}"
                )
            )
        term = estimate_product(factors)
        terms.append(term)
        breakdown.append(
            {"alphas": [list(a) for a in tup], "value": term.value, "std_error": term.std_error}
        )
    total = estimate_sum(terms)
    if return_terms:
        return total, breakdown
    return total


def sobolev_rhs(group, fs, vs, ps, k, scheme, *, op_id="sobolev-rhs", return_terms=False):
    """Global analog: each factor integrates over its own support ball."""
    m = len(fs)
    supports = [_require_support(f, i) for i, f in enumerate(fs)]
    terms = []
    breakdown = []
    for t_idx, tup in enumerate(derivative_tuples(m, k, group.n1)):
        factors = []
        for i, alpha in enumerate(tup):
            g = HorizontalDerivativeMagnitude(group, fs[i], alpha)
            factors.append(
                lp_norm_ball(
                    group, g, vs[i], ps[i], supports[i], scheme, op_id=f"{op_id}/t{t_idx}/f{i}"
                )
            )
        term = estimate_product(factors)
        terms.append(term)
        breakdown.append(
            {"alphas": [list(a) for a in tup], "value": term.value, "std_error": term.std_error}
        )
    total = estimate_sum(terms)
    if return_terms:
        return total, breakdown
    return total


def sobolev_sublaplacian_rhs(
    group, fs, vs, ps, scheme, *, op_id="sublap-rhs", return_terms=False
):
    """sum_i ||L f_i v_i||_{p_i} prod_{j != i} ||f_j v_j||_{p_j} over supports."""
    m = len(fs)
    supports = [_require_support(f, i) for i, f in enumerate(fs)]
    terms = []
    breakdown = []
    for i in range(m):
        factors = []
        for j in range(m):
            if j == i:
                g = SubLaplacianMagnitude(group, fs[j])
            else:
                g = _AbsFunction(fs[j])
            factors.append(
                lp_norm_ball(
                    group, g, vs[j], ps[j], supports[j], scheme, op_id=f"{op_id}/i{i}/f{j}"
                )
            )
        term = estimate_product(factors)
        terms.append(term)
        breakdown.append({"laplacian_slot": i, "value": term.value, "std_error": term.std_error})
    total = estimate_sum(terms)
    if return_terms:
        return total, breakdown
    return total


def _require_support(f, i):
    sup = getattr(f, "support", None)
    if sup is None:
        raise DomainError(f"slot {i} needs a declared support ball for a global integral")
    return sup


class _AbsFunction:
    def __init__(self, f):
        self._f = f
        self.support = getattr(f, "support", None)

    def __call__(self, pts):
        return np.abs(np.asarray(self._f(pts), dtype=float))

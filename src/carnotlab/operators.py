"""The multilinear fractional integral, derivative-tuple enumeration, and
the right-hand sides of the Poincare/Sobolev inequalities.

The operator of order tau acts on an m-tuple of functions by

    I_tau(f_vec)(x) = int  prod_i f_i(y_i) / d(x, y_vec)^(mQ - tau)  dy_vec,

with d(x, y_vec) = sum_i d(x, y_i).  Compact supports make every integral
finite-domain: each slot integrates over its declared support ball.

The three right-hand sides (local Poincare, global Sobolev, sub-Laplacian)
are thin wrappers over one builder.  Each slot draws one node set under
op_id f"{op_id}/f{i}", evaluates its jets once, and takes every norm the
terms need from it in one batched `lp_norm_ball` call.  The terms share
those nodes, so the total's standard error comes from the delta method
over each slot's covariance of the raw integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .carnot.derivatives import JetTable
from .errors import DomainError
from .quad import (
    Estimate,
    estimate_product,
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


def jet_rows(group, f, keys):
    """Integrand giving |K f| for each key as one row (len(keys), N): one
    `JetTable` per node set, at the highest order of the keys, serves every
    key (a multi-index alpha for X^alpha, or "L" for the sub-Laplacian)."""
    order = max(2 if key == "L" else sum(key) for key in keys)

    def rows(pts):
        table = JetTable(group, f, pts, order)
        return np.stack([np.abs(table[key]) for key in keys])

    return rows


def _rhs(group, fs, vs, ps, domains, terms, scheme, op_id):
    """sum_t prod_i ||K_{t,i} f_i * v_i||_{L^p_i(domains[i])} and its terms.

    `terms` lists one key per slot for each term: a multi-index alpha for
    |X^alpha f_i|, or "L" for |L f_i|.  Slot i draws one node set on
    domains[i] under op_id f"{op_id}/f{i}", evaluates its jets once
    (`JetTable`) and takes the norms of every key it needs in one batched
    `lp_norm_ball` call; each term is a product of those memoised norms.
    Slots draw independent node sets, so each term's product error is
    valid.  The terms share each slot's nodes, so the total's standard
    error is the delta method over each slot's covariance of the raw
    integrals, not a sum of independent term variances.
    """
    m = len(fs)
    if not (len(vs) == len(ps) == len(domains) == m):
        raise DomainError("need one weight and one exponent per function slot")
    norms = []  # per slot: key -> norm Estimate
    covs = []
    samples = 0
    for i in range(m):
        keys = list(dict.fromkeys(term[i] for term in terms))
        ests, cov = lp_norm_ball(
            group, jet_rows(group, fs[i], keys), vs[i], ps[i], domains[i], scheme,
            op_id=f"{op_id}/f{i}",
        )
        norms.append(dict(zip(keys, ests)))
        covs.append(cov())
        samples += ests[0].samples
    products = [estimate_product(norms[i][key] for i, key in enumerate(term)) for term in terms]
    var = 0.0
    for i, (slot, cov) in enumerate(zip(norms, covs)):
        grad = dict.fromkeys(slot, 0.0)  # d total / d norm
        for term in terms:
            grad[term[i]] += math.prod(norms[j][key].value for j, key in enumerate(term) if j != i)
        # chain through norm = raw^(1/p): d norm / d raw = norm^(1-p) / p, 0 at norm 0
        h = np.array(
            [g * slot[key].value ** (1.0 - ps[i]) / ps[i] if slot[key].value > 0.0 else 0.0
             for key, g in grad.items()]
        )
        live = h != 0.0
        var += float(h[live] @ cov[np.ix_(live, live)] @ h[live])
    total = Estimate(
        value=sum(t.value for t in products),
        std_error=math.sqrt(max(var, 0.0)),
        samples=samples,
        seed=scheme.seed,
        flagged=any(t.flagged for t in products),
    )
    return total, products


def poincare_rhs(group, fs, vs, ps, ball, k, scheme, *, op_id="poincare-rhs"):
    """RHS of the local inequality: sum over tuples of products of
    weighted L^p norms of horizontal derivatives over the ball.  Returns
    the total and its per-tuple breakdown."""
    tuples = derivative_tuples(len(fs), k, group.n1)
    total, products = _rhs(
        group, fs, vs, ps, [ball] * len(fs), [t.alphas for t in tuples], scheme, op_id
    )
    return _with_breakdown(total, products, tuples)


def sobolev_rhs(group, fs, vs, ps, k, scheme, *, op_id="sobolev-rhs"):
    """Global analog: each factor integrates over its own support ball.
    Returns the total and its per-tuple breakdown."""
    supports = [_require_support(f, i) for i, f in enumerate(fs)]
    tuples = derivative_tuples(len(fs), k, group.n1)
    total, products = _rhs(
        group, fs, vs, ps, supports, [t.alphas for t in tuples], scheme, op_id
    )
    return _with_breakdown(total, products, tuples)


def sobolev_sublaplacian_rhs(group, fs, vs, ps, scheme, *, op_id="sublap-rhs"):
    """sum_i ||L f_i v_i||_{p_i} prod_{j != i} ||f_j v_j||_{p_j} over supports.
    Returns the total and its per-slot breakdown."""
    m = len(fs)
    supports = [_require_support(f, i) for i, f in enumerate(fs)]
    value = (0,) * group.n1
    terms = [tuple("L" if j == i else value for j in range(m)) for i in range(m)]
    total, products = _rhs(group, fs, vs, ps, supports, terms, scheme, op_id)
    breakdown = [
        {"laplacian_slot": i, "value": t.value, "std_error": t.std_error}
        for i, t in enumerate(products)
    ]
    return total, breakdown


def _with_breakdown(total, products, tuples):
    breakdown = [
        {"alphas": [list(a) for a in tup], "value": t.value, "std_error": t.std_error}
        for tup, t in zip(tuples, products)
    ]
    return total, breakdown


def _require_support(f, i):
    sup = getattr(f, "support", None)
    if sup is None:
        raise DomainError(f"slot {i} needs a declared support ball for a global integral")
    return sup

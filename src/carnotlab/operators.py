"""The multilinear fractional integral, derivative-tuple enumeration, and
the right-hand sides of the Poincare/Sobolev inequalities.

The operator of order tau acts on an m-tuple of functions by

    I_tau(f_vec)(x) = int  prod_i f_i(y_i) / d(x, y_vec)^(mQ - tau)  dy_vec,

with d(x, y_vec) = sum_i d(x, y_i).  Compact supports make every integral
finite-domain: each slot integrates over its declared support ball.

Every right-hand side (local Poincare, global Sobolev, sub-Laplacian and
Leibniz) is one builder, `_rhs`, given a per-slot norm.  Each slot
evaluates its jets once, on the nodes where the function is live, and
takes every norm the terms need in one call: one batched `lp_norm_ball`
under op_id f"{op_id}/f{i}" for the inequalities, whose total error is
the delta method over each slot's covariance of the raw integrals, or
Morrey sups for Leibniz, whose slots share one node set: each term's
error is then the first-order bound that holds under any correlation,
and the total's the sum of the terms' errors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

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

_SUM_NOTE = (
    "slots share one node set: each term's std_error is its first-order bound "
    "sum_i sigma_i prod_(j != i) N_j and the total's the sum of the terms' errors, "
    "an upper bound under any correlation"
)


def _compositions(k, m):
    """Ordered compositions of k into m nonnegative parts, first part largest."""
    if m == 1:
        yield (k,)
        return
    for first in range(k, -1, -1):
        for rest in _compositions(k - first, m - 1):
            yield (first,) + rest


def derivative_tuples(m, k, n1):
    """Complete, duplicate-free enumeration of the m-tuples of multi-indices
    over the n1 generators with |alpha_1| + ... + |alpha_m| = k.

    Tuples are ordered by the composition (k_1, ..., k_m) of k with the
    first slot largest, then per-slot graded-lex on the multi-indices.
    """
    if m < 1 or k < 1 or n1 < 1:
        raise DomainError("derivative tuples need m, k, n1 >= 1")
    return [
        tup
        for comp in _compositions(k, m)
        for tup in itertools.product(*(_compositions(order, n1) for order in comp))
    ]


def multilinear_fractional_integral(group, fs, tau, x, scheme, *, op_id="mfi"):
    """I_tau(f_vec)(x) with each slot restricted to its declared support ball.

    `x` is one point of shape (n,), which returns an Estimate, or a batch
    of shape (P, n), which returns a list of P Estimates.  Under the
    uniform scheme a batch shares one product node set and one evaluation
    of the slot functions; see `integrate_singular_product`.

    Slots may return T rows (T, N) each: the result is then I_tau of the
    sum over t of the rows' products, one Estimate per point, equal to the
    sum of the T one-row calls with the same op_id up to rounding (the
    nodes are the same); see `product_integrand`.
    """
    supports = [_require_support(f, i) for i, f in enumerate(fs)]
    return integrate_singular_product(
        group, len(fs), product_integrand(fs), x, tau, supports, scheme, op_id=op_id
    )


def jet_rows(group, f, keys):
    """Integrand giving |K f| for each key as one row (len(keys), N): one
    `JetTable` per node set, at the highest order of the keys, serves every
    key (a multi-index alpha for X^alpha, or "L" for the sub-Laplacian).
    It evaluates f's jets once, on the nodes where f is live, and writes
    every key's values there into one array of zeros.  The integrand
    names f as its `vanishes_with` (see `support_box`): every row is 0
    outside f's support."""
    order = max(2 if key == "L" else sum(key) for key in keys)

    def rows(pts):
        out = JetTable(group, f, pts, order).rows(keys)
        return np.abs(out, out=out)

    rows.vanishes_with = f
    return rows


def _rhs(group, fs, ps, terms, labels, norms, seed):
    """sum_t prod_i N_i(K_{t,i} f_i) and its breakdown, entry t being
    labels[t] with term t's value and std_error.

    `terms` lists one key per slot for each term: a multi-index alpha for
    |X^alpha f_i|, or "L" for |L f_i|.  `norms(i, rows)` takes slot i's
    norms of `rows`, one row per distinct key of the slot from one jet
    evaluation (`jet_rows`), and returns their Estimates and either a
    function forming the covariance of their raw integrals
    int (|K f_i| w_i)^(p_i), the slots drawing independent nodes, or None,
    the slots sharing one node set.  Each term is a product of those
    memoised norms.  Independent slots give each term the product's
    error, and the total the delta method over the slots' covariances;
    `samples` sums one norm's samples per slot.  Shared slots give each
    term the first-order bound sum_i sigma_i prod_(j != i) N_j and the
    total the sum of the terms' errors, both upper bounds under any
    correlation; `samples` counts the shared nodes once.
    """
    slots = []  # per slot: key -> norm Estimate
    covs = []
    samples = []
    for i, f in enumerate(fs):
        keys = list(dict.fromkeys(term[i] for term in terms))
        ests, cov = norms(i, jet_rows(group, f, keys))
        slots.append(dict(zip(keys, ests)))
        covs.append(None if cov is None else cov())
        samples.append(ests[0].samples)
    factors = [[slots[i][key] for i, key in enumerate(term)] for term in terms]
    products = [estimate_product(ests) for ests in factors]
    if any(cov is None for cov in covs):
        products = [
            replace(t, std_error=_first_order_bound(ests)) for t, ests in zip(products, factors)
        ]
        std_error, note, samples = sum(t.std_error for t in products), _SUM_NOTE, max(samples)
    else:
        var = 0.0
        for i, (slot, cov) in enumerate(zip(slots, covs)):
            grad = dict.fromkeys(slot, 0.0)  # d total / d norm
            for term in terms:
                grad[term[i]] += math.prod(
                    slots[j][key].value for j, key in enumerate(term) if j != i
                )
            # chain through norm = raw^(1/p): d norm / d raw = norm^(1-p) / p, 0 at norm 0
            h = np.array(
                [g * slot[key].value ** (1.0 - ps[i]) / ps[i] if slot[key].value > 0.0 else 0.0
                 for key, g in grad.items()]
            )
            live = h != 0.0
            var += float(h[live] @ cov[np.ix_(live, live)] @ h[live])
        std_error, note, samples = math.sqrt(max(var, 0.0)), "", sum(samples)
    total = Estimate(
        value=sum(t.value for t in products),
        std_error=std_error,
        samples=samples,
        seed=seed,
        flagged=any(t.flagged for t in products),
        note=note,
    )
    breakdown = [
        {**label, "value": t.value, "std_error": t.std_error} for label, t in zip(labels, products)
    ]
    return total, breakdown


def _first_order_bound(factors):
    """sum_i sigma_i prod_(j != i) |v_j|: the first-order error of a product
    of estimates, a bound under any correlation between them."""
    return sum(
        e.std_error * math.prod(abs(x.value) for j, x in enumerate(factors) if j != i)
        for i, e in enumerate(factors)
    )


def _lp_norms(group, fs, vs, ps, ball, scheme, op_id):
    """`_rhs`'s slot norms as weighted L^p norms: slot i takes ||K f_i *
    v_i||_{L^p_i} over `ball`, or if it is None over f_i's support ball,
    for all its keys in one batched `lp_norm_ball` call under op_id
    f"{op_id}/f{i}", with their covariance."""
    domains = [_require_support(f, i) if ball is None else ball for i, f in enumerate(fs)]
    if not (len(vs) == len(ps) == len(fs)):
        raise DomainError("need one weight and one exponent per function slot")

    def norms(i, rows):
        return lp_norm_ball(group, rows, vs[i], ps[i], domains[i], scheme, op_id=f"{op_id}/f{i}")

    return norms


def tuple_rhs(group, fs, ps, k, norms, seed):
    """sum over the derivative tuples of order k of products of per-slot
    norms of |X^(alpha_i) f_i|, from `_rhs` with `norms(i, rows)` (see
    there).  Returns the total and its per-tuple breakdown."""
    tuples = derivative_tuples(len(fs), k, group.n1)
    labels = [{"alphas": [list(a) for a in tup]} for tup in tuples]
    return _rhs(group, fs, ps, tuples, labels, norms, seed)


def poincare_rhs(group, fs, vs, ps, ball, k, scheme, *, op_id="poincare-rhs"):
    """RHS of the local inequality: sum over tuples of products of
    weighted L^p norms of horizontal derivatives over the ball.  Returns
    the total and its per-tuple breakdown."""
    norms = _lp_norms(group, fs, vs, ps, ball, scheme, op_id)
    return tuple_rhs(group, fs, ps, k, norms, scheme.seed)


def sobolev_rhs(group, fs, vs, ps, k, scheme, *, op_id="sobolev-rhs"):
    """Global analog: each factor integrates over its own support ball.
    Returns the total and its per-tuple breakdown."""
    norms = _lp_norms(group, fs, vs, ps, None, scheme, op_id)
    return tuple_rhs(group, fs, ps, k, norms, scheme.seed)


def sobolev_sublaplacian_rhs(group, fs, vs, ps, scheme, *, op_id="sublap-rhs"):
    """sum_i ||L f_i v_i||_{p_i} prod_{j != i} ||f_j v_j||_{p_j} over supports.
    Returns the total and its per-slot breakdown."""
    m = len(fs)
    value = (0,) * group.n1
    terms = [tuple("L" if j == i else value for j in range(m)) for i in range(m)]
    labels = [{"laplacian_slot": i} for i in range(m)]
    norms = _lp_norms(group, fs, vs, ps, None, scheme, op_id)
    return _rhs(group, fs, ps, terms, labels, norms, scheme.seed)


def _require_support(f, i):
    sup = getattr(f, "support", None)
    if sup is None:
        raise DomainError(f"slot {i} needs a declared support ball for a global integral")
    return sup

"""Polynomials graded by homogeneous degree.

A monomial x^alpha has homogeneous degree |alpha|_G = sum_i sigma_i alpha_i
where sigma_i is the layer index of coordinate i; the degree of a polynomial
is the maximum over its nonzero terms.  Monomial bases of degree < k are
ordered graded-lexicographically with x_1 > x_2 > ... .

Polynomials and design matrices are evaluated by one monomial evaluator,
`_monomials`: per call it builds a power table [x_i, x_i^2, ..., x_i^top_i]
for each coordinate by repeated multiplication, then forms each term
c * x_i^a_i * x_j^a_j * ... from table entries in coordinate order.  No
array power runs, and x^a carries a relative error of at most (a - 1) u
(x^2 is x * x, exactly as numpy computes it).
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, StructureError


def weighted_degree(group, alpha):
    """Homogeneous degree |alpha|_G of a multi-index."""
    return int(sum(int(s) * a for s, a in zip(group.weights, alpha)))


class HomogeneousPolynomial:
    """Sparse polynomial on a group: map multi-index -> coefficient."""

    __slots__ = ("group", "terms")

    def __init__(self, group, terms=None):
        self.group = group
        self.terms = {}
        for alpha, c in (terms or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != group.n:
                raise StructureError(f"multi-index length {len(alpha)} != {group.n}")
            if any(a < 0 for a in alpha):
                raise StructureError("multi-index entries must be nonnegative")
            c = float(c)
            if c != 0.0:
                self.terms[alpha] = self.terms.get(alpha, 0.0) + c
        self.terms = {a: c for a, c in self.terms.items() if c != 0.0}

    @classmethod
    def zero(cls, group):
        return cls(group, {})

    @classmethod
    def constant(cls, group, c):
        return cls(group, {(0,) * group.n: c})

    @classmethod
    def coordinate(cls, group, i):
        alpha = [0] * group.n
        alpha[i] = 1
        return cls(group, {tuple(alpha): 1.0})

    def __call__(self, x):
        """Value at a point (n,), a scalar, or on a batch (N, n): the sum of
        the terms c * x^alpha in term order, each formed from this call's
        per-coordinate power tables."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.shape[-1] != self.group.n:
            raise StructureError("point dimension mismatch")
        out = np.zeros(pts.shape[0])
        for mono in _monomials(pts, self.terms.items()):
            out += mono
        return out[0] if single else out

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for a, c in other.terms.items():
            terms[a] = terms.get(a, 0.0) + c
        return HomogeneousPolynomial(self.group, terms)

    def __mul__(self, other):
        other = self._coerce(other)
        terms = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                key = tuple(x + y for x, y in zip(a1, a2))
                terms[key] = terms.get(key, 0.0) + c1 * c2
        return HomogeneousPolynomial(self.group, terms)

    def _coerce(self, other):
        if isinstance(other, HomogeneousPolynomial):
            if other.group != self.group:
                raise StructureError("polynomials live on different groups")
            return other
        raise TypeError(f"cannot combine polynomial with {type(other)!r}")

    def partial(self, i):
        """Partial derivative d/dx_i."""
        terms = {}
        for alpha, c in self.terms.items():
            if alpha[i] == 0:
                continue
            new = list(alpha)
            new[i] -= 1
            key = tuple(new)
            terms[key] = terms.get(key, 0.0) + c * alpha[i]
        return HomogeneousPolynomial(self.group, terms)

    def power(self, m):
        if m < 0:
            raise DomainError("polynomial powers must be nonnegative")
        out = HomogeneousPolynomial.constant(self.group, 1.0)
        for _ in range(int(m)):
            out = out * self
        return out


def grlex_key(group, alpha):
    """Sort key: graded (by |alpha|_G) lexicographic with x_1 > x_2 > ..."""
    return (weighted_degree(group, alpha), tuple(-a for a in alpha))


def monomial_basis(group, k):
    """All multi-indices alpha with |alpha|_G < k, in graded-lex order."""
    if k < 1:
        raise DomainError("polynomial degree bound k must be >= 1")
    sigma = [int(s) for s in group.weights]
    alphas = []
    stack = [((), 0)]
    while stack:
        prefix, deg = stack.pop()
        i = len(prefix)
        if i == group.n:
            alphas.append(prefix)
            continue
        a = 0
        while deg + a * sigma[i] < k:
            stack.append((prefix + (a,), deg + a * sigma[i]))
            a += 1
    return sorted(alphas, key=lambda a: grlex_key(group, a))


def vandermonde(group, basis, pts):
    """Design matrix of monomials at points: (N, len(basis))."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.empty((pts.shape[0], len(basis)))
    for j, mono in enumerate(_monomials(pts, [(alpha, 1.0) for alpha in basis])):
        out[:, j] = mono
    return out


def _monomials(pts, terms):
    """Yield c * x^alpha on an (N, n) batch for each (alpha, c) of `terms`
    (read twice): the scalar c for alpha = 0, else c times the power-table
    entries of the coordinates with a_i > 0, multiplied in coordinate order."""
    tables = []
    for i, top in enumerate(map(max, zip(*(alpha for alpha, _ in terms)))):
        powers = [np.ascontiguousarray(pts[:, i])] if top else []
        while len(powers) < top:
            powers.append(powers[-1] * powers[0])
        tables.append(powers)
    for alpha, c in terms:
        factors = [tables[i][a - 1] for i, a in enumerate(alpha) if a]
        if not factors:
            yield c
            continue
        mono = c * factors[0]
        for factor in factors[1:]:
            mono *= factor
        yield mono

"""Catalog of smooth test functions with analytic jets where available.

Every catalog function evaluates its jets through one method,
`jets(pts, order)`, which returns [value, gradient, Hessian][: order + 1]
from a single pass; `jet_order` says how many it has (0, 1 or 2).

The workhorse is the gauge bump: a smooth compactly supported function
built from the polynomial u(y) = ||c^-1 o y||^(2s!) / R^(2s!), whose
support is exactly the gauge ball B(c, R).  Because u is a polynomial,
gradients and Hessians are exact, which feeds the analytic path of the
horizontal derivatives up to order 2; higher orders fall back to nested
finite differences.  A left translate x -> f(g^-1 o x) of the bump on
B(c, R) is the bump on B(g o c, R), and a dilate x -> f(delta_lam x) is
the bump on B(delta_{1/lam} c, R / lam).  Any other plain callable carries
its value only and takes the finite-difference path.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError, StructureError
from .group import GaugeBall
from .polynomials import HomogeneousPolynomial


class TestFunction:
    """Base class: a function with analytic jets up to order `jet_order`.

    A subclass implements `jets(pts, order)` on an (N, n) batch for
    order <= jet_order: it returns [value, gradient, Hessian][: order + 1]
    from one pass.  Calling the function evaluates jets(pts, 0)[0] on one
    point (n,) or a batch (N, n).
    """

    support = None
    jet_order = 0

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[-1] != self.group.n:
            raise StructureError("point dimension mismatch")
        out = self.jets(pts, 0)[0]
        return out[0] if single else out

    def jets(self, pts, order):
        raise NotImplementedError


def _polynomial_hessian(hess_polys, pts):
    """The symmetric (N, n, n) matrix of polynomials hess_polys[i][j] (i <= j used)."""
    n = len(hess_polys)
    out = np.empty((pts.shape[0], n, n))
    for i in range(n):
        for j in range(i, n):
            out[:, i, j] = out[:, j, i] = hess_polys[i][j](pts)
    return out


class GaugeBump(TestFunction):
    """Smooth bump exp(-u/(1-u)) on the gauge ball B(center, radius).

    Takes the value `height` at the center and vanishes to infinite order
    on the boundary.
    """

    jet_order = 2

    def __init__(self, group, center, radius, height=1.0):
        if radius <= 0:
            raise DomainError("bump radius must be positive")
        center = np.asarray(center, dtype=float)
        if center.shape != (group.n,):
            raise StructureError(f"bump center of shape {center.shape}, expected ({group.n},)")
        self.group = group
        self.height = float(height)
        self.support = GaugeBall(center, float(radius))
        self._u = _gauge_power_polynomial(group, center, radius)
        self._grad_u = self._u.gradient_polys()
        self._hess_u = [[g.partial(j) for j in range(group.n)] for g in self._grad_u]

    def jets(self, pts, order):
        # u, grad u and hess u are each evaluated once.  exp(-u/(1-u))
        # underflows to exact 0 well before 1-u does, so the derivative
        # quotients are computed only where 1-u > 1e-3
        u = self._u(pts)
        live = u < 1.0 - 1e-3
        g = np.zeros_like(u)
        np.exp(np.divide(-u, 1.0 - u, out=np.zeros_like(u), where=live), out=g, where=live)
        out = [self.height * g]
        if order >= 1:
            om = np.ones_like(u)
            om[live] = 1.0 - u[live]
            dpro = np.where(live, -g / om**2, 0.0)
            grad_u = np.stack([p(pts) for p in self._grad_u], axis=-1)
            out.append(self.height * dpro[:, None] * grad_u)
        if order >= 2:
            # height * (d2pro grad u grad u^T + dpro hess u), formed in place
            d2pro = np.where(live, g / om**4 - 2.0 * g / om**3, 0.0)
            hess = np.einsum("ni,nj->nij", grad_u, grad_u)
            hess *= d2pro[:, None, None]
            second = _polynomial_hessian(self._hess_u, pts)
            second *= dpro[:, None, None]
            hess += second
            hess *= self.height
            out.append(hess)
        return out


def _gauge_power_polynomial(group, center, radius):
    """||center^-1 o y||^(2s!) / radius^(2s!) as a polynomial in y."""
    from .polynomials import left_translation_polys

    comps = left_translation_polys(group, -np.asarray(center, dtype=float))
    order = group.gauge_order
    total = HomogeneousPolynomial.zero(group)
    for i in range(1, group.step + 1):
        sl = group.layer_slice(i)
        sq = HomogeneousPolynomial.zero(group)
        for b in range(sl.start, sl.stop):
            sq = sq + comps[b] * comps[b]
        total = total + sq.power(order // (2 * i))
    return total * (1.0 / radius**order)


class ProductFunction(TestFunction):
    """Pointwise product of several functions (used for inequality LHS).

    The declared support is the smallest factor support: the product
    vanishes outside the intersection, so integrating over that ball is
    exact for compactly supported factors.
    """

    def __init__(self, group, factors):
        self.group = group
        self.factors = list(factors)
        supports = [
            sup for sup in (getattr(f, "support", None) for f in self.factors) if sup is not None
        ]
        self.support = min(supports, key=lambda b: b.radius) if supports else None

    def jets(self, pts, order):
        out = np.ones(pts.shape[0])
        for f in self.factors:
            out = out * np.asarray(f(pts), dtype=float).reshape(pts.shape[0])
        return [out]


def random_bump(group, rng, center_box=1.0, radius_range=(0.4, 1.5)):
    """Random gauge bump with center in a box, log-uniform radius and
    height uniform in [0.5, 2]."""
    center = rng.uniform(-center_box, center_box, size=group.n)
    lo, hi = radius_range
    radius = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    height = rng.uniform(0.5, 2.0)
    return GaugeBump(group, center, radius, height)

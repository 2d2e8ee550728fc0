"""Catalog of smooth test functions with analytic jets where available.

Every catalog function evaluates its jets through one method,
`jets(pts, order)`, which returns [value, gradient, Hessian][: order + 1]
from a single pass; `jet_order` says how many it has (0, 1 or 2).

The workhorse is the gauge bump: a smooth compactly supported function
built from the polynomial u(y) = ||c^-1 o y||^(2s!) / R^(2s!), whose
support is exactly the gauge ball B(c, R).  Because u is a polynomial,
gradients and Hessians are exact, which feeds the analytic path of the
horizontal derivatives up to order 2; higher orders fall back to nested
finite differences.  Translates and dilates chain the jets of the
function they wrap; wrapped callables carry the value only.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError, StructureError
from .derivatives import evaluate_jets, horizontal_derivative, sub_laplacian
from .group import GaugeBall
from .polynomials import HomogeneousPolynomial


class TestFunction:
    """Base class: a function with analytic jets up to order `jet_order`.

    A subclass implements `jets(pts, order)` on an (N, n) batch for
    order <= jet_order: it returns [value, gradient, Hessian][: order + 1]
    from one pass.  Calling the function evaluates jets(pts, 0)[0] on one
    point (n,) or a batch (N, n).  `smoothness` bounds the derivative order
    the catalog guarantees.
    """

    support = None
    smoothness = math.inf
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
        self.group = group
        center = np.asarray(center, dtype=float).reshape(-1)
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
            d2pro = np.where(live, g / om**4 - 2.0 * g / om**3, 0.0)
            out.append(self.height * (
                d2pro[:, None, None] * np.einsum("ni,nj->nij", grad_u, grad_u)
                + dpro[:, None, None] * _polynomial_hessian(self._hess_u, pts)
            ))
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


class PolynomialBump(TestFunction):
    """Product of a polynomial with a gauge bump; exact jets via product rule."""

    jet_order = 2

    def __init__(self, poly, bump):
        if poly.group != bump.group:
            raise StructureError("polynomial and bump live on different groups")
        self.group = bump.group
        self.poly = poly
        self.bump = bump
        self.support = bump.support
        self._grad_p = poly.gradient_polys()
        self._hess_p = [[g.partial(j) for j in range(self.group.n)] for g in self._grad_p]

    def jets(self, pts, order):
        b = self.bump.jets(pts, order)
        p = self.poly(pts)
        out = [p * b[0]]
        if order >= 1:
            gp = np.stack([q(pts) for q in self._grad_p], axis=-1)
            out.append(p[:, None] * b[1] + b[0][:, None] * gp)
        if order >= 2:
            cross = np.einsum("ni,nj->nij", gp, b[1])
            out.append(
                p[:, None, None] * b[2]
                + b[0][:, None, None] * _polynomial_hessian(self._hess_p, pts)
                + cross
                + np.transpose(cross, (0, 2, 1))
            )
        return out


class CustomFunction(TestFunction):
    """Wrap a plain callable on (N, n) batches (value only)."""

    def __init__(self, group, fun, support=None, smoothness=math.inf):
        self.group = group
        self._fun = fun
        self.support = support
        self.smoothness = smoothness

    def jets(self, pts, order):
        return [np.asarray(self._fun(pts), dtype=float).reshape(pts.shape[0])]


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


class HorizontalDerivativeMagnitude(TestFunction):
    """|X^alpha f| as an evaluable, optionally restricted to a ball."""

    def __init__(self, group, f, alpha, restrict_to=None):
        self.group = group
        self.f = f
        self.alpha = tuple(int(a) for a in alpha)
        self.restrict_to = restrict_to
        self.support = restrict_to if restrict_to is not None else getattr(f, "support", None)

    def jets(self, pts, order):
        vals = np.abs(horizontal_derivative(self.group, self.f, self.alpha, pts))
        if self.restrict_to is not None:
            vals = vals * self.restrict_to.contains(self.group, pts)
        return [vals]


class SubLaplacianMagnitude(TestFunction):
    """|L f| as an evaluable."""

    def __init__(self, group, f):
        self.group = group
        self.f = f
        self.support = getattr(f, "support", None)

    def jets(self, pts, order):
        return [np.abs(sub_laplacian(self.group, self.f, pts))]


class TranslatedFunction(TestFunction):
    """Left translate: x -> f(g^-1 o x), with exact jets (the map is affine)."""

    def __init__(self, group, g, f):
        self.group = group
        self.shift = np.asarray(g, dtype=float).reshape(-1)
        self.f = f
        self.smoothness = getattr(f, "smoothness", math.inf)
        self.jet_order = getattr(f, "jet_order", 0)
        sup = getattr(f, "support", None)
        if sup is not None:
            self.support = GaugeBall(group.compose(self.shift, sup.center), sup.radius)
        self._inverse = group.inverse(self.shift)
        self._jac = _left_translation_jacobian(group, self._inverse)

    def jets(self, pts, order):
        # chain rule through the constant Jacobian of x -> g^-1 o x
        out = evaluate_jets(self.f, self.group.compose(self._inverse, pts), order)
        if order >= 1:
            out[1] = np.einsum("ui,nu->ni", self._jac, out[1])
        if order >= 2:
            out[2] = np.einsum("ui,nuv,vj->nij", self._jac, out[2], self._jac)
        return out


def _left_translation_jacobian(group, g):
    """Constant Jacobian of x -> g o x (the law is affine in x)."""
    n = group.n
    jac = np.eye(n)
    if group.step == 2:
        for j in range(group.n2):
            jac[group.n1 + j, : group.n1] += 0.5 * np.einsum(
                "a,ab->b", g[: group.n1], group.forms[j]
            )
    return jac


class DilatedArgument(TestFunction):
    """x -> f(delta_lam x); support shrinks to delta_{1/lam}(support)."""

    def __init__(self, group, lam, f):
        if lam <= 0:
            raise DomainError("dilation parameter must be positive")
        self.group = group
        self.lam = float(lam)
        self.f = f
        self.smoothness = getattr(f, "smoothness", math.inf)
        self.jet_order = getattr(f, "jet_order", 0)
        sup = getattr(f, "support", None)
        if sup is not None:
            self.support = GaugeBall(group.dilate(1.0 / lam, sup.center), sup.radius / lam)
        self._scale = lam**group.weights

    def jets(self, pts, order):
        # chain rule through the diagonal dilation delta_lam
        out = evaluate_jets(self.f, pts * self._scale, order)
        if order >= 1:
            out[1] = out[1] * self._scale
        if order >= 2:
            out[2] = out[2] * self._scale[None, :, None] * self._scale[None, None, :]
        return out


def random_bump(group, rng, center_box=1.0, radius_range=(0.4, 1.5), height_range=(0.5, 2.0)):
    """Random gauge bump with center in a box and log-uniform radius."""
    center = rng.uniform(-center_box, center_box, size=group.n)
    lo, hi = radius_range
    radius = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    height = rng.uniform(*height_range)
    return GaugeBump(group, center, radius, height)


def random_polynomial(group, rng, k, coeff_scale=1.0):
    """Random polynomial with homogeneous degree < k."""
    from .polynomials import monomial_basis

    terms = {}
    for alpha in monomial_basis(group, k):
        terms[alpha] = coeff_scale * rng.normal()
    return HomogeneousPolynomial(group, terms)

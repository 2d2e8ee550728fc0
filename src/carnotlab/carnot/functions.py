"""Catalog of smooth test functions with analytic jets where available.

A catalog function gives its jets [f, Xf, XXf][: order + 1] from one pass:
the value, the horizontal gradient Xf[:, a] = X_a f and the horizontal
Hessian XXf[:, a, b] = X_a X_b f (X_a applied last), by `jets(pts, order)`
on every node or `live_jets(pts, order)` on the nodes where it may be
non-zero; `jet_order` says how many (0, 1, 2).

The workhorse is the gauge bump: a smooth compactly supported function
exp(-u/(1-u)) of u(y) = u0(w) / R^(2s!) at w = c^-1 o y, where u0(w) =
sum_i |w^(i)|^(2s!/i); its support is exactly the gauge ball B(c, R).  The
generators are left-invariant, so X_B u(y) = (X_B u0)(w) / R^(2s!): u0,
X_a u0 and X_a X_b u0 are polynomials built once per group and shared by
all its bumps, and the bump's horizontal jets up to order 2 are exact;
higher orders fall back to nested finite differences.  The bump's one
pass (`live_jets`) forms u on every node and everything else only on its
live nodes, u < 1 - 1e-3: on the others the profile has underflowed to 0.
`jets` scatters the live jets into zeros.  A left translate
x -> f(g^-1 o x) of the bump on B(c, R) is the bump on B(g o c, R), and a
dilate x -> f(delta_lam x) is the bump on B(delta_{1/lam} c, R / lam).  Any
other plain callable carries its value only and takes the
finite-difference path.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..errors import DomainError, StructureError
from .derivatives import apply_generator_to_polynomial
from .group import GaugeBall, ball_box
from .polynomials import HomogeneousPolynomial


class TestFunction:
    """Base class: a function with analytic jets up to order `jet_order`.

    A subclass implements `jets(pts, order)` on an (N, n) batch for
    order <= jet_order: it returns [f, Xf, XXf][: order + 1] from one pass,
    the value (N,), X_a f as Xf[:, a] (N, n1) and X_a X_b f as XXf[:, a, b]
    (N, n1, n1).  Calling the function evaluates jets(pts, 0)[0] on one
    point (n,) or a batch (N, n).

    A declared `support` ball means that f and every jet vanish outside
    it; the ball integrals in quad and `best_polynomial` read it (through
    `support_box`) and take a uniform ball whose box misses it as an exact
    0, drawing no nodes there.  `live_jets(pts, order)` returns (index,
    jets): the jets on the nodes pts[index] only, every other node's jets
    being 0.  A subclass with jet_order >= 1 implements it (the gauge bump
    leaves out the nodes where it vanishes); `JetTable` reads a function
    without it by its value only.
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


@functools.cache
def _unit_gauge(group):
    """u0(w) = sum_i |w^(i)|^(2s!/i), X_a u0 for each a and X_a X_b u0 at
    position a n1 + b, as polynomials in w.  Built once per group and
    shared by all its bumps."""
    order = group.gauge_order
    u0 = HomogeneousPolynomial.zero(group)
    for i in range(1, group.step + 1):
        sl = group.layer_slice(i)
        sq = HomogeneousPolynomial.zero(group)
        for b in range(sl.start, sl.stop):
            x = HomogeneousPolynomial.coordinate(group, b)
            sq = sq + x * x
        u0 = u0 + sq.power(order // (2 * i))
    first = [apply_generator_to_polynomial(u0, a) for a in range(group.n1)]
    second = [apply_generator_to_polynomial(p, a) for a in range(group.n1) for p in first]
    return u0, first, second


class GaugeBump(TestFunction):
    """Smooth bump exp(-u/(1-u)) on the gauge ball B(center, radius).

    Takes the value `height` at the center and vanishes to infinite order
    on the boundary.  u(y) = u0(w) / radius^(2s!) at w = center^-1 o y, u0
    the group's unit gauge polynomial, so by left invariance X_a u and
    X_a X_b u are X_a u0 and X_a X_b u0 at w over radius^(2s!).
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
        self._unit = _unit_gauge(group)
        self._rows = group.translation_rows(-center)
        self._scale = float(radius) ** -group.gauge_order

    def _unit_point(self, pts):
        """w = center^-1 o y, as the transpose of an (n, N) array whose rows
        the polynomials read without copies.  T (y - center)^(1) equals
        T y^(1), because T center^(1) = 0 for skew forms, but it is small
        where y is near the center: w^(2) = y^(2) - center^(2) + T y^(1)
        would cancel two large terms there."""
        n1 = self.group.n1
        w = np.subtract(pts.T, self.support.center[:, None], out=np.empty(pts.shape[::-1]))
        for j, row in enumerate(self._rows):
            cross = row[0] * w[0]
            for b in range(1, n1):
                cross += row[b] * w[b]
            w[n1 + j] += cross
        return w.T

    def live_jets(self, pts, order):
        # u is formed on every node; the profile and its derivatives, X u0
        # and X X u0 (each polynomial evaluated once) only on the live nodes,
        # 1-u > 1e-3.  exp(-u/(1-u)) underflows to exact 0 well before 1-u
        # does, so every jet is 0 on the other nodes
        u0, first, second = self._unit
        w = self._unit_point(pts)
        u = u0(w)
        u *= self._scale
        live = u < 1.0 - 1e-3
        index = slice(None) if live.all() else np.flatnonzero(live)
        u, w = u[index], w.T[:, index].T
        om = 1.0 - u
        # the profile, in u's buffer
        value = np.divide(u, om, out=u)
        np.negative(value, out=value)
        np.exp(value, out=value)
        value *= self.height
        out = [value]
        if order >= 1:
            # height times the profile's derivatives, each times radius^-(2s!)
            om2 = om * om
            np.negative(om2, out=om2)
            dpro = value / om2
            dpro *= self._scale
            xu = np.stack([p(w) for p in first], axis=-1)
            out.append(dpro[:, None] * xu)
        if order >= 2:
            # d2pro = value (1 - 2 (1-u)) / (1-u)^4, formed in om
            om *= -2.0
            om += 1.0
            om *= value
            d2pro = np.divide(om, np.square(om2, out=om2), out=om)
            d2pro *= self._scale * self._scale
            # d2pro Xu0 Xu0^T + dpro XXu0, formed in place
            n1 = self.group.n1
            xxu = np.stack([p(w) for p in second], axis=-1).reshape(-1, n1, n1)
            outer = xu[:, :, None] * xu[:, None, :]
            outer *= d2pro[:, None, None]
            xxu *= dpro[:, None, None]
            xxu += outer
            out.append(xxu)
        return index, out

    def jets(self, pts, order):
        # the live jets scattered into zeros
        index, live = self.live_jets(pts, order)
        if isinstance(index, slice):
            return live
        out = [np.zeros((len(pts),) + jet.shape[1:]) for jet in live]
        for full, jet in zip(out, live):
            full[index] = jet
        return out


class ProductFunction(TestFunction):
    """Pointwise product of several functions (used for inequality LHS).

    A product vanishes outside every factor's support.  The declared
    support is the smallest factor support, so integrating over that ball
    is exact for compactly supported factors; `support_box` bounds the
    product by the intersection of all its factors' boxes.
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


def support_box(group, f):
    """(lo, hi), a coordinate box outside which f vanishes, or None when f
    declares no support: the box of f's declared `support` ball (see
    TestFunction), and for a `ProductFunction` the intersection of its
    factors' boxes, since the product vanishes outside every factor's
    support.  An integrand built from a function h, and 0 wherever h is,
    names h as its `vanishes_with` (lp_norm_ball's and jet_rows' do) and
    takes h's box."""
    if hasattr(f, "vanishes_with"):
        return support_box(group, f.vanishes_with)
    factors = f.factors if isinstance(f, ProductFunction) else [f]
    supports = [sup for sup in (getattr(h, "support", None) for h in factors) if sup is not None]
    if not supports:
        return None
    lo, hi = ball_box(group, supports)
    return lo.max(axis=0), hi.min(axis=0)


def random_bump(group, rng, center_box=1.0, radius_range=(0.4, 1.5)):
    """Random gauge bump with center in a box, log-uniform radius and
    height uniform in [0.5, 2]."""
    center = rng.uniform(-center_box, center_box, size=group.n)
    lo, hi = radius_range
    radius = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    height = rng.uniform(0.5, 2.0)
    return GaugeBump(group, center, radius, height)

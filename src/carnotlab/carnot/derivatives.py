"""Horizontal derivatives X^alpha f along the generator vector fields.

The generators of a step-2 group with forms B_j are

    X_a = d/dx_a + (1/2) sum_j (B_j^T x^(1))_a d/dz_j ,

left-invariant fields with affine coefficients.  X^alpha applies the
generators in the order X_1^{a_1}(X_2^{a_2}(... X_l^{a_l} f)), innermost
last generator first.

`JetTable` holds one function's jets on one node set and serves every
X^alpha f and L f from them; `horizontal_derivative` and `sub_laplacian`
are one-key lookups into a table.  Three evaluation paths, chosen per
function:
  * polynomials: exact symbolic application (generators map polynomials
    to polynomials);
  * analytic jets: for |alpha| <= f.jet_order (at most 2), the derivative
    is assembled exactly from the affine field coefficients and the value,
    gradient and Hessian of one `f.jets` call;
  * nested finite differences along the group curves s -> x o (s e_a),
    4th-order central stencils with one Richardson extrapolation step,
    step size eps^(1/(order+3)) scaled by the point magnitude.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..errors import CapabilityError, StructureError
from .polynomials import HomogeneousPolynomial

_EPS = float(np.finfo(float).eps)


def generator_coefficients(group, pts):
    """Coefficients c^a_u(x) of the generators at each point: (N, n1, n)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n, n1 = group.n, group.n1
    coef = np.zeros((pts.shape[0], n1, n))
    coef[:, np.arange(n1), np.arange(n1)] = 1.0
    if group.step == 2:
        btx = np.einsum("na,jab->njb", pts[:, :n1], group.forms)  # (N, n2, n1)
        coef[:, :, n1:] = 0.5 * np.transpose(btx, (0, 2, 1))
    return coef


def coefficient_jacobian(group):
    """Constant Jacobian J[a, u, v] = d c^a_u / d x_v of the field coefficients."""
    n, n1 = group.n, group.n1
    jac = np.zeros((n1, n, n))
    if group.step == 2:
        for j in range(group.n2):
            jac[:, n1 + j, :n1] = 0.5 * group.forms[j].T
    return jac


def apply_generator_to_polynomial(poly, a):
    """X_a P as a polynomial."""
    group = poly.group
    out = poly.partial(a)
    if group.step == 2:
        for j in range(group.n2):
            dz = poly.partial(group.n1 + j)
            if dz.terms:
                lin = HomogeneousPolynomial(
                    group,
                    {
                        tuple(1 if i == b else 0 for i in range(group.n)): 0.5 * group.forms[j][b, a]
                        for b in range(group.n1)
                        if group.forms[j][b, a] != 0.0
                    },
                )
                out = out + lin * dz
    return out


def polynomial_horizontal_derivative(poly, alpha):
    """X^alpha P symbolically; alpha is a multi-index over the generators."""
    _check_alpha(poly.group, alpha)
    out = poly
    # innermost operator is the last generator with nonzero exponent
    for a in range(len(alpha) - 1, -1, -1):
        for _ in range(alpha[a]):
            out = apply_generator_to_polynomial(out, a)
    return out


def _check_alpha(group, alpha):
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != group.n1:
        raise StructureError(f"generator multi-index length {len(alpha)} != n1 = {group.n1}")
    if any(a < 0 for a in alpha):
        raise StructureError("multi-index entries must be nonnegative")
    return alpha


def _expand_sequence(alpha):
    """Application sequence outer-to-inner: X_1 first, X_l last."""
    seq = []
    for a, count in enumerate(alpha):
        seq.extend([a] * count)
    return seq


def evaluate_jets(f, pts, order):
    """[value, gradient, Hessian][: order + 1] of f on an (N, n) batch from
    one `f.jets` call; order 0 takes the value of any callable."""
    if order == 0:
        return [np.asarray(f(pts), dtype=float).reshape(pts.shape[0])]
    return f.jets(pts, order)


def _first_order_jet(coef, grad, a):
    """X_a f from the cached generator coefficients and gradient."""
    return np.einsum("nu,nu->n", coef[:, a, :], grad)


def _second_order_jet(coef, jac, grad, hess, a, b):
    """X_a X_b f from the cached coefficients, their Jacobian, gradient and Hessian."""
    first = np.einsum("nv,uv,nu->n", coef[:, a, :], jac[b], grad)
    second = np.einsum("nv,nu,nvu->n", coef[:, a, :], coef[:, b, :], hess)
    return first + second


def _fd_along_generator(group, evaluate, a, pts, total_order):
    """Directional derivative along s -> x o (s e_a) by Richardson-extrapolated
    4th-order central differences."""
    scale = np.maximum(1.0, group.gauge_norm(pts))
    h = _EPS ** (1.0 / (total_order + 3)) * scale

    def shifted(step):
        inc = np.zeros_like(pts)
        inc[:, a] = step
        return evaluate(group.compose(pts, inc))

    def stencil(hh):
        return (-shifted(2 * hh) + 8 * shifted(hh) - 8 * shifted(-hh) + shifted(-2 * hh)) / (
            12 * hh
        )

    return (16.0 * stencil(h / 2) - stencil(h)) / 15.0


class JetTable:
    """X^alpha f and L f for one function on one (N, n) node set.

    `order` is the highest derivative order the table's keys need ("L"
    needs 2).  On first use the table calls `f.jets` once, at that order
    capped at `f.jet_order`, and serves every key from those jets and the
    generator coefficients: a multi-index alpha, or "L" for the
    sub-Laplacian.  Polynomials take the symbolic path.  A key of higher
    order than the jets (|alpha| > 2, or a function with fewer jets) goes
    by finite differences along the outermost generator, each shifted node
    set getting its own table.
    """

    def __init__(self, group, f, pts, order):
        self.group = group
        self.f = f
        self.pts = pts
        self.order = min(order, getattr(f, "jet_order", 0))

    @cached_property
    def _jets(self):
        return evaluate_jets(self.f, self.pts, self.order)

    @cached_property
    def _coef(self):
        return generator_coefficients(self.group, self.pts)

    @cached_property
    def _jac(self):
        return coefficient_jacobian(self.group)

    def __getitem__(self, key):
        if isinstance(key, str) and key == "L":
            return self._laplacian()
        return self._derivative(_check_alpha(self.group, key))

    def _laplacian(self):
        n1 = self.group.n1
        total = np.zeros(self.pts.shape[0])
        for a in range(n1):
            total += self[tuple(2 if i == a else 0 for i in range(n1))]
        return total

    def _derivative(self, alpha):
        if isinstance(self.f, HomogeneousPolynomial):
            return np.atleast_1d(polynomial_horizontal_derivative(self.f, alpha)(self.pts))
        order = sum(alpha)
        smoothness = getattr(self.f, "smoothness", np.inf)
        if order > smoothness:
            raise CapabilityError(
                f"derivative order {order} exceeds declared smoothness {smoothness}"
            )
        return self._sequence(_expand_sequence(alpha), order)

    def _sequence(self, seq, total_order):
        if not seq:
            return self._jets[0]
        if len(seq) == 1 and self.order >= 1:
            return _first_order_jet(self._coef, self._jets[1], seq[0])
        if len(seq) == 2 and self.order >= 2:
            return _second_order_jet(
                self._coef, self._jac, self._jets[1], self._jets[2], seq[0], seq[1]
            )
        a, rest = seq[0], seq[1:]

        def inner(xs):
            return JetTable(self.group, self.f, xs, len(rest))._sequence(rest, total_order)

        return _fd_along_generator(self.group, inner, a, self.pts, total_order)


def _points(group, x):
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if pts.shape[-1] != group.n:
        raise StructureError("point dimension mismatch")
    return pts, x.ndim == 1


def horizontal_derivative(group, f, alpha, x, *, force_fd=False):
    """Evaluate X^alpha f at x (a point or an (N, n) batch)."""
    alpha = _check_alpha(group, alpha)
    pts, single = _points(group, x)
    out = JetTable(group, _Bare(f) if force_fd else f, pts, sum(alpha))[alpha]
    return out[0] if single else out


class _Bare:
    """Wrapper hiding analytic jets (and the polynomial path), forcing
    finite differences."""

    jet_order = 0

    def __init__(self, f):
        self._f = f
        self.smoothness = getattr(f, "smoothness", np.inf)

    def __call__(self, pts):
        return self._f(pts)


def sub_laplacian(group, f, x, *, force_fd=False):
    """Sum of squares of the generators: L f = sum_a X_a^2 f."""
    pts, single = _points(group, x)
    out = JetTable(group, _Bare(f) if force_fd else f, pts, 2)["L"]
    return out[0] if single else out

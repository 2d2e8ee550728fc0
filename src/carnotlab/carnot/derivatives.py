"""Horizontal derivatives X^alpha f along the generator vector fields.

The generators of a step-2 group with forms B_j are

    X_a = d/dx_a + (1/2) sum_j (B_j^T x^(1))_a d/dz_j ,

left-invariant fields with affine coefficients.  X^alpha applies the
generators in the order X_1^{a_1}(X_2^{a_2}(... X_l^{a_l} f)), innermost
last generator first.

`JetTable` holds one function's jets on one node set and serves every
X^alpha f and L f from them; `horizontal_derivative` and `sub_laplacian`
are one-key lookups into a table.  Three evaluation paths, chosen by what
the function carries:
  * polynomials: exact symbolic application (generators map polynomials
    to polynomials);
  * analytic jets: for |alpha| <= f.jet_order (at most 2), the derivative
    is read from the horizontal jets [f, Xf, XXf] of one `f.live_jets`
    call, on the nodes that call returns as live only; every other node
    gets 0, as f and its jets vanish there;
  * nested finite differences along the group curves s -> x o (s e_a),
    4th-order central stencils with one Richardson extrapolation step,
    step size eps^(1/(order+3)) scaled by the point magnitude.  A function
    with value only, such as a plain callable on (N, n) batches, takes this
    path for every order.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..errors import StructureError
from .polynomials import HomogeneousPolynomial

_EPS = float(np.finfo(float).eps)


def coefficient_jacobian(group):
    """Constant Jacobian J[a, u, v] = d c^a_u / d x_v of the field coefficients.

    The coefficients are linear in x^(1): c^a_{n1+j}(x) = R(x)[j, a], so
    J[a, n1 + j, v] = R(e_v)[j, a] for v < n1 and zero elsewhere.
    """
    n, n1 = group.n, group.n1
    jac = np.zeros((n1, n, n))
    jac[:, n1:, :n1] = np.transpose(group.translation_rows(np.eye(n1, n)), (2, 1, 0))
    return jac


def apply_generator_to_polynomial(poly, a):
    """X_a P = d_a P + sum_j c^a_{n1+j} d_{n1+j} P as a polynomial."""
    group = poly.group
    jac = coefficient_jacobian(group)[a]
    units = [tuple(int(i == b) for i in range(group.n)) for b in range(group.n1)]
    out = poly.partial(a)
    for j in range(group.n2):
        dz = poly.partial(group.n1 + j)
        if dz.terms:
            lin = HomogeneousPolynomial(group, dict(zip(units, jac[group.n1 + j])))
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


# two functions, not inline reads: the benchmark tracer wraps them to count jet points
def _first_order_jet(jets, a):
    """X_a f from the horizontal jets."""
    return jets[1][:, a]


def _second_order_jet(jets, a, b):
    """X_a X_b f from the horizontal jets."""
    return jets[2][:, a, b]


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
    needs 2).  On first use the table calls `f.live_jets` once, at that
    order capped at `f.jet_order`, and serves every key from those jets,
    on the live nodes only: a multi-index alpha, or "L" for the
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
        # (index, jets on pts[index]); order 0 takes the value of any callable
        live_jets = getattr(self.f, "live_jets", None)
        if live_jets is None:
            return slice(None), [np.asarray(self.f(self.pts), dtype=float).reshape(len(self.pts))]
        return live_jets(self.pts, self.order)

    def __getitem__(self, key):
        return self.rows([key])[0]

    def rows(self, keys):
        """K f for each key as one row of a (len(keys), N) array, written
        into zeros on the nodes where it may be non-zero."""
        out = np.zeros((len(keys), len(self.pts)))
        for row, key in zip(out, keys):
            index, values = self._live(key)
            row[index] = values
        return out

    def _live(self, key):
        """K f as (index, its values on pts[index]); 0 on every other node."""
        if isinstance(key, str) and key == "L":
            # every X_a^2 f takes the same path, so one index serves them all
            parts = [
                self._live(tuple(2 if i == a else 0 for i in range(self.group.n1)))
                for a in range(self.group.n1)
            ]
            total = np.zeros(len(parts[0][1]))
            for _, values in parts:
                total += values
            return parts[0][0], total
        alpha = _check_alpha(self.group, key)
        if isinstance(self.f, HomogeneousPolynomial):
            return slice(None), polynomial_horizontal_derivative(self.f, alpha)(self.pts)
        return self._sequence(_expand_sequence(alpha), sum(alpha))

    def _sequence(self, seq, total_order):
        # (index, values) as in _live: the jets' live nodes on the analytic
        # path, every node on the finite-difference path
        if not seq:
            index, jets = self._jets
            return index, jets[0]
        if len(seq) == 1 and self.order >= 1:
            index, jets = self._jets
            return index, _first_order_jet(jets, seq[0])
        if len(seq) == 2 and self.order >= 2:
            index, jets = self._jets
            return index, _second_order_jet(jets, *seq)
        a, rest = seq[0], seq[1:]

        def inner(xs):
            # the shifted nodes' values on every node, 0 off their table's live set
            table = JetTable(self.group, self.f, xs, len(rest))
            index, values = table._sequence(rest, total_order)
            out = np.zeros(len(xs))
            out[index] = values
            return out

        return slice(None), _fd_along_generator(self.group, inner, a, self.pts, total_order)


def _points(group, x):
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if pts.shape[-1] != group.n:
        raise StructureError("point dimension mismatch")
    return pts, x.ndim == 1


def horizontal_derivative(group, f, alpha, x):
    """Evaluate X^alpha f at x (a point or an (N, n) batch)."""
    alpha = _check_alpha(group, alpha)
    pts, single = _points(group, x)
    out = JetTable(group, f, pts, sum(alpha))[alpha]
    return out[0] if single else out


def sub_laplacian(group, f, x):
    """Sum of squares of the generators: L f = sum_a X_a^2 f."""
    pts, single = _points(group, x)
    out = JetTable(group, f, pts, 2)["L"]
    return out[0] if single else out

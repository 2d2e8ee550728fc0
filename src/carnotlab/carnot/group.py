"""Group law, anisotropic dilations, and the homogeneous gauge quasi-metric.

Supported groups: Euclidean R^n (step 1), Heisenberg H^k, and a general
step-2 family parameterized by skew-symmetric forms.  Points live in
exponential coordinates, so the identity is the origin and the inverse of
x is -x.  The Carnot-Caratheodory metric is replaced throughout by the
equivalent homogeneous gauge distance d(x, y) = ||x^-1 o y|| with the
layered gauge

    ||x|| = (sum_i |x^(i)|_2^(2s!/i))^(1/(2s!)),

which reduces to the Euclidean norm for step 1 and to the Koranyi-type
gauge ((x^2+y^2)^2 + t^2)^(1/4) on H^1.  Gauge balls then satisfy the
volume identity |B(x, r)| = c_d r^Q exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, StructureError


class CarnotGroup:
    """Homogeneous group of step 1 or 2 on R^n in exponential coordinates.

    For step-2 groups the product is determined by a family of
    skew-symmetric forms B_j, one per second-layer coordinate:

        (x, z) o (x', z')  =  (x + x', z_j + z'_j + (1/2) x . B_j x').

    Step-1 groups are Euclidean and the product is vector addition.
    """

    def __init__(self, ident, layers, forms=None):
        layers = tuple(int(m) for m in layers)
        if not layers or any(m < 1 for m in layers):
            raise StructureError(f"layer dimensions must be positive, got {layers}")
        if len(layers) > 2:
            raise StructureError("only groups of step 1 and 2 are supported")
        self.ident = str(ident)
        self.layers = layers
        self.step = len(layers)
        self.n = sum(layers)
        self.n1 = layers[0]
        self.n2 = layers[1] if self.step == 2 else 0
        if self.step == 2:
            forms = np.asarray(forms, dtype=float)
            if forms.shape != (self.n2, self.n1, self.n1):
                raise StructureError(
                    f"need {self.n2} forms of shape ({self.n1}, {self.n1}), got {forms.shape}"
                )
            if not np.allclose(forms, -np.transpose(forms, (0, 2, 1)), atol=1e-12):
                raise StructureError("second-layer forms must be skew-symmetric")
            self.forms = forms
        else:
            if forms is not None:
                raise StructureError("step-1 groups take no forms")
            self.forms = None
        # per-coordinate layer weight sigma_i (1 on the first layer, 2 on the second)
        self.weights = np.repeat(np.arange(1, self.step + 1, dtype=float), layers)
        self.homogeneous_dimension = int(sum((i + 1) * m for i, m in enumerate(layers)))
        self.gauge_order = 2 * math.factorial(self.step)

    def __repr__(self):
        return f"CarnotGroup({self.ident!r}, layers={self.layers})"

    # Identity is the structure, layers and forms; `ident` only labels reports.
    def __eq__(self, other):
        if other is self:
            return True
        return (
            isinstance(other, CarnotGroup)
            and other.layers == self.layers
            and (self.forms is None or np.array_equal(other.forms, self.forms))
        )

    def __hash__(self):
        return hash(self.layers)

    # -- coordinates ---------------------------------------------------------

    def identity(self):
        return np.zeros(self.n)

    def layer_slice(self, i):
        """Slice of coordinates in layer i (1-based)."""
        start = sum(self.layers[: i - 1])
        return slice(start, start + self.layers[i - 1])

    def _check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n:
            raise StructureError(f"point dimension {x.shape[-1]} != group dimension {self.n}")
        return x

    # -- group operations ----------------------------------------------------

    def translation_rows(self, g):
        """Rows R[..., j, b] = (1/2) (g^(1) . B_j)_b of left translation by g.

        The law is affine in h: the second layer of g o h is
        g^(2) + h^(2) + R(g) h^(1), so R holds the generator coefficients,
        the cross terms of g o y as polynomials in y, and the reach of
        g o B(0, r) in the second layer.  Shape (..., n2, n1); empty in
        step 1.
        """
        g1 = self._check_point(g)[..., : self.n1]
        if self.step == 1:
            return np.zeros(g1.shape[:-1] + (0, self.n1))
        return np.einsum("...a,jab->...jb", g1, 0.5 * self.forms)

    def compose(self, g, h):
        """Group product g o h, broadcasting over leading axes."""
        g = self._check_point(g)
        h = self._check_point(h)
        rows = self.translation_rows(g)
        # R(g) h^(1) column by column: faster than einsum, most of all on
        # the empty rows of step 1
        cross = rows[..., 0] * h[..., :1]
        for b in range(1, self.n1):
            cross += rows[..., b] * h[..., b : b + 1]
        if g.ndim + h.ndim == 3:
            # one point and an (N, n) batch: numpy's broadcast loop would run
            # over rows of length n, column order runs down the N rows
            out = np.add(g, h, out=np.empty(max(g, h, key=np.ndim).shape), order="F")
        else:
            out = g + h
        out[..., self.n1 :] += cross
        return out

    def inverse(self, g):
        return -self._check_point(g)

    def dilate(self, lam, x):
        """Anisotropic dilation: layer i scales by lam^i."""
        if not lam > 0:
            raise DomainError(f"dilation parameter must be positive, got {lam}")
        return self._check_point(x) * lam ** self.weights

    def gauge_norm(self, x):
        """Homogeneous gauge norm; exactly 1-homogeneous under dilations."""
        x = self._check_point(x)
        order = self.gauge_order
        total = 0.0
        for i in range(1, self.step + 1):
            # the layer's squares column by column, as compose forms its cross term
            layer = self.layer_slice(i)
            sq = x[..., layer.start] * x[..., layer.start]
            for a in range(layer.start + 1, layer.stop):
                sq += x[..., a] * x[..., a]
            power = order / (2.0 * i)
            total = total + (sq if power == 1.0 else sq**power)
        return total ** (1.0 / order)

    def distance(self, x, y):
        """Gauge quasi-distance ||x^-1 o y||; left-invariant and symmetric."""
        return self.gauge_norm(self.compose(self.inverse(x), y))


@dataclass(frozen=True, eq=False)
class GaugeBall:
    """Ball under the gauge quasi-metric: {y : d(center, y) < radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).reshape(-1))
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0:
            raise DomainError(f"ball radius must be positive, got {self.radius}")

    def contains(self, group, pts):
        return group.distance(self.center, pts) < self.radius

    def to_dict(self):
        return {"center": self.center.tolist(), "radius": self.radius}


def centered_box_extents(group, r):
    """Half-widths of the coordinate box containing the centered ball B(0, r).

    The gauge bounds each layer: |x^(i)|_2 < r^i, so each coordinate of
    layer i lies in (-r^i, r^i).
    """
    return r ** group.weights


def ball_box(group, balls):
    """Axis-aligned boxes containing a list of B gauge balls: the (B, n)
    arrays lo and hi, from one array expression.

    B(c, r) = c o B(0, r), and the left translation is affine; the
    second-layer coordinates pick up the cross term R(c) u^(1) with
    |u^(1)|_2 < r, bounded row by row by |R_j(c)|_2 r.
    """
    c = np.array([b.center for b in balls])
    r = np.array([b.radius for b in balls])[:, None]
    ext = centered_box_extents(group, r)
    ext[:, group.n1 :] += np.linalg.norm(group.translation_rows(c), axis=-1) * r
    return c - ext, c + ext


# -- standard groups ---------------------------------------------------------


def euclidean_group(n):
    """Abelian group R^n with Euclidean gauge."""
    if n < 1:
        raise StructureError("dimension must be >= 1")
    return CarnotGroup(f"euclidean:{n}", (n,))


def heisenberg_group(k=1):
    """Heisenberg group H^k in coordinates (x_1..x_k, y_1..y_k, t).

    The product uses the 1/2-commutator law, matched to the generators
    X_i = d/dx_i - (y_i/2) d/dt and X_{k+i} = d/dy_i + (x_i/2) d/dt so that
    left invariance holds exactly.
    """
    if k < 1:
        raise StructureError("H^k requires k >= 1")
    form = np.zeros((1, 2 * k, 2 * k))
    form[0, :k, k:] = np.eye(k)
    form[0, k:, :k] = -np.eye(k)
    return CarnotGroup(f"heisenberg:{k}", (2 * k, 1), form)


def step_two_group(forms, ident=None):
    """General step-2 group from skew-symmetric forms of shape (n2, n1, n1)."""
    forms = np.asarray(forms, dtype=float)
    if forms.ndim != 3:
        raise StructureError("forms must have shape (n2, n1, n1)")
    n2, n1 = forms.shape[0], forms.shape[1]
    if ident is None:
        ident = f"step2:{n1}x{n2}"
    return CarnotGroup(ident, (n1, n2), forms)


def step_two_from_file(path):
    """Load a step-2 group from a JSON file with a "forms" array; a file
    that cannot be read, or holds no numeric "forms" array, raises
    StructureError naming the path."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise StructureError(f"cannot read step-2 group file {path!r}: {exc}") from None
    try:
        forms = np.asarray(data["forms"], dtype=float)
    except (KeyError, TypeError, ValueError):
        raise StructureError(f'step-2 group file {path!r} needs a numeric "forms" array') from None
    return step_two_group(forms, ident=f"step2:{path}")


def group_from_id(ident):
    """Resolve a group from its string id.

    Accepted forms: "euclidean:<n>", "heisenberg:<k>", "step2:<json-file>".
    """
    kind, _, arg = str(ident).partition(":")
    if kind == "step2":
        return step_two_from_file(arg)
    if kind in ("euclidean", "heisenberg"):
        try:
            size = int(arg)
        except ValueError:
            raise StructureError(f"group id {ident!r} needs an integer size") from None
        return euclidean_group(size) if kind == "euclidean" else heisenberg_group(size)
    raise StructureError(f"unknown group id {ident!r}")

"""Carnot group structure: group law, dilations, gauge metric, polynomials,
horizontal derivatives, test-function catalog, and volume constants."""

from .constants import ball_volume, volume_constant
from .derivatives import (
    JetTable,
    horizontal_derivative,
    polynomial_horizontal_derivative,
    sub_laplacian,
)
from .functions import (
    GaugeBump,
    ProductFunction,
    TestFunction,
    random_bump,
)
from .group import (
    CarnotGroup,
    GaugeBall,
    ball_box,
    centered_box_extents,
    euclidean_group,
    group_from_id,
    heisenberg_group,
    step_two_from_file,
    step_two_group,
)
from .polynomials import HomogeneousPolynomial, monomial_basis, vandermonde, weighted_degree

__all__ = [
    "CarnotGroup",
    "GaugeBall",
    "ball_box",
    "centered_box_extents",
    "euclidean_group",
    "group_from_id",
    "heisenberg_group",
    "step_two_from_file",
    "step_two_group",
    "HomogeneousPolynomial",
    "monomial_basis",
    "vandermonde",
    "weighted_degree",
    "JetTable",
    "horizontal_derivative",
    "polynomial_horizontal_derivative",
    "sub_laplacian",
    "TestFunction",
    "GaugeBump",
    "ProductFunction",
    "random_bump",
    "ball_volume",
    "volume_constant",
]

"""Inequality experiments: ratio estimation, best-polynomial approximation,
representation-formula checks, the p < 1 counterexample, and Morrey /
Campanato / Leibniz tests."""

from .bestpoly import BallPolynomial, best_polynomial, evaluate_candidate
from .counterexample import (
    CounterexampleFamily,
    affine_infimum,
    counterexample_family,
    counterexample_report,
    fit_scaling_slope,
    affine_distance_floor,
    phi,
    phi_prime,
    psi,
)
from .inequalities import (
    poincare_test,
    representation_check,
    sobolev_sublaplacian_test,
    sobolev_test,
)
from .reports import InequalityReport, dump_json, jsonify, write_csv
from .spaces import campanato_norm, leibniz_test, morrey_norm

__all__ = [
    "BallPolynomial",
    "best_polynomial",
    "evaluate_candidate",
    "CounterexampleFamily",
    "affine_infimum",
    "counterexample_family",
    "counterexample_report",
    "fit_scaling_slope",
    "affine_distance_floor",
    "phi",
    "phi_prime",
    "psi",
    "InequalityReport",
    "poincare_test",
    "representation_check",
    "sobolev_sublaplacian_test",
    "sobolev_test",
    "dump_json",
    "jsonify",
    "write_csv",
    "campanato_norm",
    "leibniz_test",
    "morrey_norm",
]

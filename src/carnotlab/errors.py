"""Exception types shared across the package."""


class CarnotLabError(Exception):
    """Base class for all package errors."""


class StructureError(CarnotLabError, ValueError):
    """Incompatible shapes, layers, or mismatched groups."""


class DomainError(CarnotLabError, ValueError):
    """A parameter lies outside its mathematical domain."""


class HypothesisError(CarnotLabError, ValueError):
    """A hypothesis of the underlying theorem is violated (exponent ranges)."""


class ValidationError(CarnotLabError, ValueError):
    """One or more exponent-system relations fail; lists every violation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class IntegrationError(CarnotLabError, RuntimeError):
    """Non-finite integrand value at a sampled point; carries the point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class ConditioningError(CarnotLabError, RuntimeError):
    """Rank-deficient basis on a degenerate node set."""

"""Exception types shared across the package."""

from __future__ import annotations


class QsdeElimError(Exception):
    """Base class for all package errors."""


class InvalidArgument(QsdeElimError, ValueError):
    """An input violates a documented precondition: a shape, a non-finite
    entry, a projector or ground vector that is not one, a model parameter
    out of range, or a coupling or horizon that overflows float64."""


class SingularRestriction(QsdeElimError, ArithmeticError):
    """The restriction of an operator to a subspace is numerically singular.

    Carries the offending singular value in ``sigma``.
    """

    def __init__(self, message: str, sigma: float = 0.0):
        super().__init__(message)
        self.sigma = float(sigma)


class NumericalFailure(QsdeElimError, ArithmeticError):
    """A float64 result came out unusable, for example by overflow.

    A failure of the arithmetic, not a fault in the input.
    """


class ClampExceeded(NumericalFailure):
    """A squared distance came out negative beyond roundoff, or not finite."""


class ResourceLimit(QsdeElimError):
    """An array would exceed the package's memory budget; refused before allocation."""

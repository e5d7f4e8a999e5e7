"""Exception types shared across the package."""

from __future__ import annotations


class QsdeElimError(Exception):
    """Base class for all package errors."""


class InvalidOperator(QsdeElimError, ValueError):
    """An operator has non-finite entries or is otherwise unusable."""


class DimensionMismatch(QsdeElimError, ValueError):
    """Operator shapes are inconsistent with each other or not square."""


class InvalidProjector(QsdeElimError, ValueError):
    """A matrix supplied as an orthogonal projector fails P = P† = P²."""


class SingularRestriction(QsdeElimError, ArithmeticError):
    """The restriction of an operator to a subspace is numerically singular.

    Carries the offending singular value in ``sigma``.
    """

    def __init__(self, message: str, sigma: float = 0.0):
        super().__init__(message)
        self.sigma = float(sigma)


class InvalidGroundVector(QsdeElimError, ValueError):
    """A state vector is not (numerically) a unit vector in the ground space."""


class InvalidParameters(QsdeElimError, ValueError):
    """Model parameters violate a documented constraint."""


class InvalidArgument(QsdeElimError, ValueError):
    """An argument violates a documented precondition."""


class NumericalFailure(QsdeElimError, ArithmeticError):
    """A float64 result came out unusable, for example by overflow.

    A failure of the arithmetic, not a fault in the input.
    """


class ClampExceeded(NumericalFailure):
    """A squared distance came out negative beyond roundoff, or not finite."""

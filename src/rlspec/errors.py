"""Exception types shared across the package."""

__all__ = ["ValidationError", "DimensionMismatch", "NumericalFailure", "NotPositiveDefinite"]


class ValidationError(ValueError):
    """Input fails a structural precondition (shapes, formats, parameter ranges)."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible dimensions."""


class NumericalFailure(RuntimeError):
    """A numerical routine could not reach the requested accuracy."""


class NotPositiveDefinite(ValidationError):
    """A matrix required to be positive definite is not."""

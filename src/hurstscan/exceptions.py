"""Exception types shared across the package."""

__all__ = ["InputError", "NumericalError"]


class InputError(ValueError):
    """Invalid input data or configuration (bad file, bad parameters, violated precondition)."""


class NumericalError(RuntimeError):
    """A numerical computation failed (overflow, non-finite intermediate, impossible fit)."""

"""Exception types with distinct CLI exit-code semantics."""

from __future__ import annotations

__all__ = [
    "LinrelError",
    "DimensionMismatch",
    "PreconditionViolated",
    "SpectrumError",
    "InputFormatError",
]


class LinrelError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(LinrelError, ValueError):
    """Octants of an operation do not live in compatible spaces."""


class PreconditionViolated(LinrelError, ValueError):
    """A mathematical precondition of an operation does not hold.

    Examples: a boundary parameter that is not selfadjoint, a Friedrichs
    construction requested outside the zero-form case.  The CLI maps this
    to exit code 3.
    """


class SpectrumError(LinrelError, ArithmeticError):
    """Resolvent or Weyl evaluation requested at a spectral point."""


class InputFormatError(LinrelError, ValueError):
    """Malformed input file or schema violation.  CLI exit code 2."""

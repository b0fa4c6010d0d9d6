"""Exception hierarchy for the ccsl package.

Everything raised on purpose derives from CcslError so callers (and the CLI)
can tell usage problems apart from numerical failures.
"""

import math


class CcslError(Exception):
    """Base class for all ccsl errors."""


class NonPositiveRc(CcslError, ValueError):
    """Noise correlation length rc must be strictly positive and finite."""


class NegativeLambda(CcslError, ValueError):
    """Collapse rate must be >= 0 and finite."""


class WhiteKernelNotPointwise(CcslError, ValueError):
    """The white-noise time kernel is a delta function; it has no pointwise value."""


class NonPositiveFrequency(CcslError, ValueError):
    """Operation has a 1/omega pole; omega must be > 0."""


class QuadratureNotConverged(CcslError, ArithmeticError):
    """Adaptive quadrature exhausted its panel budget above the tolerance."""

    def __init__(self, message: str, estimate: float | None = None,
                 tol: float | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.tol = tol


class WashedOut(CcslError, ArithmeticError):
    """Colored suppression renders the experiment insensitive: no finite bound."""


class EmptyInput(CcslError, ValueError):
    """Operation requires at least one element."""


class CompositeCrossTermUnsupported(CcslError, ValueError):
    """Interference term between two composite parts has no supported
    evaluation route and cannot be proven negligible."""


class ParseError(CcslError, ValueError):
    """Config file syntax error with source position."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message

    def __reduce__(self):  # args holds only the formatted text
        return type(self), (self.line, self.column, self.message)


class ValidationError(CcslError, ValueError):
    """A config field violated a constraint."""

    def __init__(self, field: str, constraint: str):
        super().__init__(f"{field}: {constraint}")
        self.field = field
        self.constraint = constraint

    def __reduce__(self):  # args holds only the formatted text
        return type(self), (self.field, self.constraint)


def require_positive(field: str, v) -> None:
    """Raise ValidationError(field) unless v is a finite number > 0."""
    if not (v > 0 and math.isfinite(v)):
        raise ValidationError(field, "must be > 0")

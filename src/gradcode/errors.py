"""Exception hierarchy shared by all gradcode modules.

Every error raised by this package derives from GradientCodingError, so
callers can catch one type, and from exactly one of three families, each
a CLI exit code: ValidationError (3: bad arguments, violated
preconditions, sizes numpy cannot index), NumericalError (4: span
failures, exhausted draws, overflow, starved rounds) and ParseError (5:
unreadable or malformed scheme, plan and config files).
"""

from __future__ import annotations


class GradientCodingError(Exception):
    """Base class for all errors raised by gradcode."""


class ValidationError(GradientCodingError):
    """An argument or configuration violates a precondition."""


class NumericalError(GradientCodingError):
    """A computation failed: it lost the span, diverged or overflowed."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible shapes for the requested operation."""


class NonFinite(NumericalError):
    """An input, an iterate or a simulated time is NaN or infinite."""


class DivisibilityError(ValidationError):
    """A construction needs (s + 1) to divide n and it does not."""


class RetryExhausted(NumericalError):
    """A bounded resampling loop ran out of attempts."""


class SpanFailure(NumericalError):
    """The all-ones row is not in the span of the surviving code rows."""

    def __init__(self, message: str, survivors: tuple[int, ...] = (), residual: float = float("nan")):
        super().__init__(message)
        self.survivors = survivors
        self.residual = residual


class BudgetExceeded(ValidationError):
    """An exhaustive enumeration would exceed the configured budget."""


class ParseError(GradientCodingError):
    """A scheme, plan or config file is unreadable, malformed or invalid."""


class IndexOutOfRange(ValidationError):
    """A worker or partition index is outside the valid range."""


class InvalidAlpha(ValidationError):
    """A partial-straggler slowdown factor must be strictly greater than 1."""


class DegenerateLabels(ValidationError):
    """A label vector has only one class, so ranking metrics are undefined."""


class StarvedIteration(NumericalError):
    """Too few workers can ever finish for the strategy to complete a round."""


class MismatchedConfigs(ValidationError):
    """Runs being compared are none, repeat a label, or differ in their data."""


class ConfigError(ValidationError):
    """A run configuration is malformed (unknown fields, bad values)."""


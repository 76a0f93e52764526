"""Exception hierarchy shared by all gradcode modules.

Every error raised by this package derives from GradientCodingError so
callers can catch one type. The CLI maps subfamilies to exit codes:
validation problems (bad arguments, violated preconditions), numerical
failures (span failures, exhausted construction draws, divergence), and
I/O or format problems (unreadable or malformed scheme files).
"""

from __future__ import annotations


class GradientCodingError(Exception):
    """Base class for all errors raised by gradcode."""


class DimensionMismatch(GradientCodingError):
    """Operands have incompatible shapes for the requested operation."""


class NonFinite(GradientCodingError):
    """An input, an iterate or a simulated compute time is NaN or infinite."""


class DivisibilityError(GradientCodingError):
    """A construction needs (s + 1) to divide n and it does not."""


class RetryExhausted(GradientCodingError):
    """A bounded resampling loop ran out of attempts."""


class SpanFailure(GradientCodingError):
    """The all-ones row is not in the span of the surviving code rows."""

    def __init__(self, message: str, survivors: tuple[int, ...] = (), residual: float = float("nan")):
        super().__init__(message)
        self.survivors = survivors
        self.residual = residual


class BudgetExceeded(GradientCodingError):
    """An exhaustive enumeration would exceed the configured budget."""


class ParseError(GradientCodingError):
    """A scheme or plan file is malformed or violates its invariants."""


class IndexOutOfRange(GradientCodingError):
    """A worker or partition index is outside the valid range."""


class InvalidAlpha(GradientCodingError):
    """A partial-straggler slowdown factor must be strictly greater than 1."""


class DegenerateLabels(GradientCodingError):
    """A label vector has only one class, so ranking metrics are undefined."""


class StarvedIteration(GradientCodingError):
    """Too few workers can ever finish for the strategy to complete a round."""


class MismatchedConfigs(GradientCodingError):
    """Runs being compared do not share the data they were trained on."""


class ConfigError(GradientCodingError):
    """A run configuration is malformed (unknown fields, bad values)."""


# Families used by the CLI to pick exit codes.
VALIDATION_ERRORS = (
    DimensionMismatch,
    DivisibilityError,
    BudgetExceeded,
    IndexOutOfRange,
    InvalidAlpha,
    DegenerateLabels,
    MismatchedConfigs,
    ConfigError,
)

NUMERICAL_ERRORS = (
    NonFinite,
    RetryExhausted,
    SpanFailure,
    StarvedIteration,
)

IO_ERRORS = (ParseError,)

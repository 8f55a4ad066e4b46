"""Exception hierarchy shared across the package.

Two top-level branches matter to callers: `InputError` means the request
itself is malformed (bad dimensions, bad parameters, bad config), while
`NumericalRefusal` means the request is well formed but cannot be answered
at the requested level of rigor (missing envelope, singular integrand, an
input not square-integrable, vanishing denominator). The CLI maps the former
to exit code 1 and the latter to exit code 2.
"""

import math

# The longest repr of an offending value that an input error quotes; a longer
# one is named by its type and size (`_shown`).
_SHOWN = 60


class TFCertError(Exception):
    """Base class for all package errors."""


class InputError(TFCertError, ValueError):
    """Malformed arguments: dimension mismatch, invalid parameters, bad config."""


class NumericalRefusal(TFCertError, RuntimeError):
    """The computation was refused rather than silently degraded: for example
    a quadrature of an input not flagged square-integrable, whose truncation
    error nothing bounds, or a nonfinite value at a required point."""


class NotCertifiableError(NumericalRefusal):
    """No radius within the search horizon satisfies the required strict bound."""


class SingularityHitError(NumericalRefusal):
    """A required evaluation point is not clear of a singularity (`tfops._clear_of`)."""


class NearOrthogonalError(NumericalRefusal):
    """A denominator inner product is numerically indistinguishable from zero."""


def _shown(value) -> str:
    """repr(value) for an input error, or its type and size when that is
    longer than _SHOWN characters: "an int of 401 digits"."""
    try:
        text = repr(value)
    except ValueError:  # an int beyond the digits Python writes as text
        return f"an int of {value.bit_length()} bits"
    if len(text) <= _SHOWN:
        return text
    if isinstance(value, int):
        return f"an int of {len(text.lstrip('-'))} digits"
    return f"a {type(value).__name__} of {len(text)} characters"


def convert(kind, value, what: str):
    """`kind(value)` for a value read from a config; a missing (None) or
    malformed value raises InputError naming `what` and quoting the value
    (`_shown`). Booleans are malformed for every kind, and so is a
    non-integral float for int, which `int` would truncate; numeric strings
    are converted."""
    if value is None:
        raise InputError(f"{what} is required")
    try:
        if isinstance(value, bool) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be {kind.__name__}, got {_shown(value)}") from exc


def finite(value, what: str) -> float:
    """`convert(float, value, what)` that also refuses NaN and infinities."""
    v = convert(float, value, what)
    if not math.isfinite(v):
        raise InputError(f"{what} must be finite, got {_shown(value)}")
    return v

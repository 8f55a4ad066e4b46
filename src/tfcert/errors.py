"""Exception hierarchy shared across the package.

Two top-level branches matter to callers: `InputError` means the request
itself is malformed (bad dimensions, bad parameters, bad config), while
`NumericalRefusal` means the request is well formed but cannot be answered
at the requested level of rigor (missing envelope, singular integrand,
vanishing denominator). The CLI maps the former to exit code 1 and the
latter to exit code 2.
"""


class TFCertError(Exception):
    """Base class for all package errors."""


class InputError(TFCertError, ValueError):
    """Malformed arguments: dimension mismatch, invalid parameters, bad config."""


class NumericalRefusal(TFCertError, RuntimeError):
    """The computation was refused rather than silently degraded."""


class NotCertifiableError(NumericalRefusal):
    """No radius within the search horizon satisfies the required strict bound."""


class SingularityHitError(NumericalRefusal):
    """A required evaluation point coincides with a singularity."""


class NearOrthogonalError(NumericalRefusal):
    """A denominator inner product is numerically indistinguishable from zero."""


def convert(kind, value, what: str):
    """`kind(value)` for a value read from a config; a missing (None) or
    malformed value raises InputError naming `what`."""
    if value is None:
        raise InputError(f"{what} is required")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be {kind.__name__}, got {value!r}") from exc

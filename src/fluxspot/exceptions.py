"""Exception hierarchy shared across the library and the command-line tool."""

import math


class FluxspotError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(FluxspotError, ValueError):
    """Raised for physically or numerically inadmissible input parameters."""


class TruncationError(FluxspotError, RuntimeError):
    """Raised when a basis/harmonic truncation is too small for the request."""


class DegenerateGapError(FluxspotError, RuntimeError):
    """Raised when the two central quasienergies coincide and branch labels
    are undefined."""


class IntegrationError(FluxspotError, RuntimeError):
    """Raised when a time integration fails its step-refinement check."""


class TomographyError(FluxspotError, RuntimeError):
    """Raised when a channel is not trace preserving or its process matrix
    is unphysical."""


class EmptyInputError(FluxspotError, ValueError):
    """Raised when an aggregation receives no input."""


class ConfigError(FluxspotError, ValueError):
    """Raised for malformed or schema-violating run configurations."""


class DependencyError(FluxspotError, RuntimeError):
    """Raised when a command requires an artifact a prior command produces."""


def check_finite(**values: float) -> None:
    """Raise :class:`InvalidParameterError` naming the first of ``values``
    that is NaN or infinite, which would pass every range comparison."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value}")

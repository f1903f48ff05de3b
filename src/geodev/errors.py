"""Exception types shared across the package."""


class GeodevError(Exception):
    """Base class for all errors raised by this package."""


class EvaluationError(GeodevError):
    """A geometric quantity could not be evaluated (non-finite data,
    mismatched base points, degenerate inputs).  Carries the offending
    point in ``point`` when one is known."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class DomainError(GeodevError):
    """A curve or surface parameter lies outside its declared domain."""


class NullVectorError(GeodevError):
    """The causal sign of a vector is undefined because its scalar square
    is within tolerance of zero."""


class TransportError(GeodevError):
    """Transport ODE integration failed or exhausted its step budget."""


class ConfigError(GeodevError):
    """Invalid scenario specification or run configuration."""

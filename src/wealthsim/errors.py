"""Exception types shared across the package."""

__all__ = [
    "WealthsimError",
    "DomainError",
    "ConfigError",
    "NetworkBuildError",
    "RegimeMismatchError",
    "NoStationaryStateError",
    "KnifeEdgeError",
    "DegenerateDynamicsError",
    "DegenerateDiscriminantError",
    "PriceUndefinedError",
    "NonFiniteError",
    "InsufficientDataError",
    "DegenerateTailError",
]


class WealthsimError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(WealthsimError, ValueError):
    """An input is outside the mathematical domain of an operation."""


class ConfigError(WealthsimError):
    """A run configuration is malformed or internally inconsistent."""


class NetworkBuildError(WealthsimError):
    """An allocation network with the requested shape cannot be built."""


class RegimeMismatchError(WealthsimError):
    """An operation was applied outside the regime in which it is defined."""


class NoStationaryStateError(WealthsimError):
    """Aggregate consumption exceeds production at every wealth level."""


class KnifeEdgeError(WealthsimError):
    """The economy sits exactly on the growth/stationarity boundary."""


class DegenerateDynamicsError(WealthsimError):
    """The requested dynamics have no stationary relative distribution."""


class DegenerateDiscriminantError(WealthsimError):
    """The noise-variance polynomial has a real root; the stationary
    density is not in the supported family."""


class PriceUndefinedError(WealthsimError):
    """Mean wealth became non-positive, so factor prices are undefined."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class NonFiniteError(WealthsimError):
    """A simulated state stopped being finite."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class InsufficientDataError(WealthsimError, ValueError):
    """Too few usable observations for the requested estimate."""


class DegenerateTailError(WealthsimError, ValueError):
    """The tail observations carry no spread, so the estimate diverges."""

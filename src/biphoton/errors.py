"""Exception types shared across the package."""


class BiphotonError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BiphotonError, ValueError):
    """An argument is outside the physically meaningful domain, or violates a
    documented precondition of the operation (such as unsorted TAC inputs)."""


class ConfigError(BiphotonError):
    """Invalid or inconsistent configuration (CLI exit code 2)."""


class FitError(BiphotonError, RuntimeError):
    """A fringe scan that no visibility can be fitted to."""

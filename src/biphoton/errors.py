"""Exception types shared across the package."""

import math


class BiphotonError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BiphotonError, ValueError):
    """An argument is outside the physically meaningful domain, or violates a
    documented precondition of the operation (such as unsorted TAC inputs)."""


class ConfigError(BiphotonError):
    """Invalid or inconsistent configuration (CLI exit code 2)."""


class FitError(BiphotonError, RuntimeError):
    """A fringe scan that no visibility can be fitted to."""


def require_finite(**values) -> None:
    """Reject NaN and infinite parameters, which every comparison lets through."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")

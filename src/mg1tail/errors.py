"""Exception types shared across the package, and the argument checks that
every module runs: each fails on NaN, since NaN fails every comparison."""

import math


class Mg1TailError(Exception):
    """Base class for package-specific errors."""


class UnsupportedModelError(Mg1TailError):
    """Raised when an operation is not defined for the given model variant,
    e.g. a tail-index threshold for an exponential model or a CLT-corrected
    approximation for an infinite-variance model."""


class ResourceBudgetError(Mg1TailError):
    """Raised when a convolution would exceed the configured memory/work
    budget; the message states the required size."""


class NoCrossingError(Mg1TailError):
    """Raised when the exponential and power-law tail curves cross only
    beyond x = 1e9 mu."""


def check_nonnegative(name: str, value) -> None:
    if not value >= 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def check_positive(name: str, value) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


def check_finite(name: str, value) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def check_integer(name: str, value) -> int:
    """value as an int: an int, or a float with no fractional part."""
    if not value % 1 == 0:
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)

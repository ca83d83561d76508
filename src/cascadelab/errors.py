"""Exception hierarchy shared across the package, and its integer check.

The CLI maps these onto exit codes: config errors -> 2, assumption
failures -> 3, numeric failures -> 4, resource limits -> 5.
"""

import numpy as np


class CascadeLabError(Exception):
    """Base class for all package errors."""


class ConfigError(CascadeLabError):
    """Invalid model file, argument, or precondition violation."""


class AssumptionError(CascadeLabError):
    """A weight model fails one of the moment assumptions."""


class NumericError(CascadeLabError):
    """A numeric procedure could not produce a result."""


class NoRootError(NumericError):
    """Root scan exhausted its range without a sign change."""


class DivergenceError(NumericError):
    """An infinite moment (or zero tilted mass) blocked the computation."""


class DegenerateRangeError(NumericError):
    """Too few usable scales for a log-log regression."""


class ZeroOscillationError(NumericError):
    """A zero oscillation makes a logarithm or negative power undefined."""


class ResourceError(CascadeLabError):
    """A memory or size budget would be exceeded."""


def as_integer(value, what: str) -> int:
    """``value`` as an int: a Python or numpy integer, never a bool; else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)

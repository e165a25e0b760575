"""Exception types shared across the toolkit, and the one check of every scalar argument."""

import math
from numbers import Integral, Real


class QslError(Exception):
    """Base class for every error raised by this package."""


class NonHermitian(QslError):
    """Matrix failed the Hermitian symmetry check."""


class DimensionMismatch(QslError):
    """Operands act on spaces of different dimension."""


class DomainError(QslError):
    """Argument outside its allowed range: a bad scalar, or a non-finite matrix or state entry."""


class StepTooLarge(QslError):
    """Integrator norm drift exceeded the allowed tolerance before renormalization."""


class NotReached(QslError):
    """Target fidelity not attained within the scanned time window."""


class InsufficientLevels(QslError):
    """State occupies fewer distinct energy levels than the construction needs."""


class ConfigError(QslError):
    """Invalid, incomplete, or unknown experiment configuration."""


# The rules a scalar argument can be held to: the phrase its message gives, and the test.
_POSITIVE = ("be positive and finite", lambda x: 0.0 < x < math.inf)
_NONNEGATIVE = ("be nonnegative and finite", lambda x: 0.0 <= x < math.inf)
_UNIT_INTERVAL = ("lie in [0, 1]", lambda x: 0.0 <= x <= 1.0)
_BELOW_ONE = ("lie in [0, 1)", lambda x: 0.0 <= x < 1.0)
_INSIDE_PI = ("lie strictly inside (0, pi)", lambda x: 0.0 < x < math.pi)
_FINITE = ("be finite", math.isfinite)


def _check_real(value, name: str, rule: tuple) -> float:
    """value as a float, or DomainError unless a real number (not a bool) whose float passes the rule's test."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    phrase, test = rule
    try:
        number = float(value)
    except OverflowError:
        raise DomainError(f"{name} must {phrase}, got a number beyond the float range") from None
    if not test(number):
        raise DomainError(f"{name} must {phrase}, got {number!r}")
    return number


def _check_count(value, minimum: int, message: str) -> int:
    """value as an int, or DomainError(message.format(value)) unless an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise DomainError(message.format(value))
    return int(value)

"""Exception types shared across the toolkit."""


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

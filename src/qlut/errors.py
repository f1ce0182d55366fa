"""Exception hierarchy shared by all qlut modules."""


class QlutError(Exception):
    """Base class for all qlut errors."""


class NonPowerOfTwoError(QlutError):
    """A size parameter that must be a power of two is not."""


class OrderingViolationError(QlutError):
    """Parameter ordering constraint violated (gamma > lambda, lambda > N, ...)."""


class InvalidParamsError(QlutError):
    """Architecture parameters inconsistent with the requested operation."""


class KOutOfRangeError(QlutError):
    """Long-range budget k outside [0, n - d]."""


class PlacementOverflowError(QlutError):
    """Internal layout inconsistency: two qubits assigned the same grid point."""


class DegenerateInputError(QlutError):
    """Not enough data (or non-positive values) for an exponent fit."""


class ConfigError(QlutError):
    """CLI configuration file missing, unparsable, or malformed."""

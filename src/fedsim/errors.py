"""Exception types shared across the package."""


class FedsimError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(FedsimError, ValueError):
    """An argument violates a documented precondition."""


class IncompatibleShape(FedsimError, ValueError):
    """Parameter vectors with mismatched shapes were combined."""


class NumericError(FedsimError, ArithmeticError):
    """A numeric operation produced NaN or Inf."""


class PartitionError(FedsimError, RuntimeError):
    """A partitioning mechanism could not satisfy its constraints."""


class IdxFormatError(FedsimError, ValueError):
    """An IDX file has a bad magic number or malformed header."""


class InconsistentPairError(IdxFormatError):
    """Image and label IDX files disagree on the sample count."""


class IdxIoError(FedsimError, OSError):
    """An IDX file is truncated or unreadable."""


class ConfigError(FedsimError, ValueError):
    """An experiment config file is invalid."""

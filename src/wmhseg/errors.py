"""Exception types shared across the package.

The CLI maps these onto exit codes: usage problems -> 1, data/format
problems -> 2, numerical failures -> 3.
"""


class WmhsegError(Exception):
    """Base class for package-specific errors."""


class ShapeError(WmhsegError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class ConfigError(WmhsegError, ValueError):
    """A configuration value violates its documented constraints; ``key``
    names the setting that the check is about, if it is about one."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class ValidationError(WmhsegError, ValueError):
    """Input data violates a documented precondition."""


class DataFormatError(WmhsegError):
    """A file does not conform to its binary format contract."""


class UnsupportedDataTypeError(DataFormatError):
    """A NIfTI datatype code outside the supported set."""


class NumericsError(WmhsegError, ArithmeticError):
    """A computation produced NaN/Inf or otherwise failed numerically."""


class UsageError(WmhsegError, RuntimeError):
    """An API was called in a way its contract forbids."""

"""Exception types shared across the package."""


class CdglError(Exception):
    """Base class for all package-specific errors."""


class ParseError(CdglError):
    """Malformed input file: ragged CSV, non-numeric cell, bad manifest or checkpoint."""


class ShapeError(CdglError):
    """Array shape violates an operation's contract."""


class NumericsError(CdglError):
    """A computation produced NaN/Inf or an otherwise unusable value.

    ``index`` is the position of the first non-finite element in the
    offending array and ``shape`` that array's shape, when they are known.
    """

    def __init__(self, message, index=None, shape=None):
        super().__init__(message)
        self.index = index
        self.shape = shape


class StratificationError(CdglError):
    """A class has too few members for the requested split."""


class StateError(CdglError):
    """Optimizer or model state used out of order (e.g. step before backward)."""


class WindowBudgetError(CdglError):
    """A subject yields too few sliding windows for the configured training run."""


class SpecError(CdglError):
    """Invalid synthetic-dataset parameters."""


class ConfigError(CdglError):
    """Invalid or unknown training-configuration key/value."""

"""Exception types shared across the package."""


class EgoBatchError(Exception):
    """Base class for every error raised by this package."""


class FormatError(EgoBatchError):
    """A binary file is malformed: bad magic, bad header, truncated payload."""


class DataError(EgoBatchError):
    """Content violates a data invariant (label range, non-finite values, ...)."""


class ShapeError(EgoBatchError):
    """Array dimensions are inconsistent with the declared architecture."""


class NumericError(EgoBatchError):
    """A computation produced a non-finite value."""


class SequencingError(EgoBatchError):
    """A step was requested before the one it builds on (phase 2 of the
    overlap architecture without a phase-1 checkpoint to start from)."""


class ConfigError(EgoBatchError):
    """Invalid configuration (overlap >= batch size, k > bin count, ...)."""


class PackingError(EgoBatchError):
    """An item does not fit into any bin of the given capacity."""

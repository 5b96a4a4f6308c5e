"""Exception hierarchy.

Every error raised by this package derives from :class:`SeqLPDError`; the
class name doubles as the machine-readable code the CLI prints as
``E:<code>:<detail>``.
"""


class SeqLPDError(Exception):
    """Base class for all package errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class IoError(SeqLPDError):
    """File could not be read or written."""


class FormatError(SeqLPDError):
    """File content does not match the expected on-disk format."""


class ShapeError(SeqLPDError):
    """Tensor missing or its shape does not fit the configured architecture."""


class LengthMismatch(SeqLPDError):
    """Parallel sequences have different lengths."""


class EmptyInput(SeqLPDError):
    """Operation requires a non-empty input."""


class EmptyIndex(SeqLPDError):
    """Spatial index contains no points."""


class OrderError(SeqLPDError):
    """Frame ids must be strictly increasing."""


class NormError(SeqLPDError):
    """Descriptor is not unit-norm within tolerance."""


class DimensionError(SeqLPDError):
    """Vectors have unequal dimension."""


class InvalidK(SeqLPDError):
    """Cluster count outside [1, N]."""


class InvalidParams(SeqLPDError):
    """Parameter outside its documented bounds."""


class InvalidCluster(SeqLPDError):
    """Cluster id out of range."""


class EmptySuperKeyframes(SeqLPDError):
    """No super keyframes available for coarse matching."""


class OutOfMemory(SeqLPDError):
    """A size from the input asks for an array that cannot be allocated."""


class OutOfBounds(SeqLPDError):
    """Projected trajectory leaves the difference matrix."""


class WindowTooLarge(SeqLPDError):
    """Search window exceeds the number of query rows."""


class NoValidTrajectory(SeqLPDError):
    """No (reference end, velocity) candidate stays in bounds."""


class InsufficientHistory(SeqLPDError):
    """No candidate reference run long enough for sequence matching."""


class EmptyDatabase(SeqLPDError):
    """Retrieval database is empty."""


class RunLengthError(SeqLPDError):
    """Protocol run does not have the required number of frames."""

"""Exception types shared across the library."""


class MimicError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(MimicError, ValueError):
    """An array argument has a shape incompatible with the receiver."""


class NonFiniteError(MimicError, FloatingPointError):
    """A NaN or infinity showed up where training cannot continue."""


class UnknownEnvError(MimicError, ValueError):
    """Requested env_id is not registered."""


class EpisodeFinished(MimicError, RuntimeError):
    """step() was called on a state whose episode already ended."""


class ActionBoundsError(MimicError, ValueError):
    """An action outside [action_low, action_high] reached the environment."""


class DatasetFormatError(MimicError, ValueError):
    """A dataset file failed to parse or validate.

    ``line`` is the 1-based line number of the offending record, or None
    when the problem is not tied to a single line. ``index`` is the
    offending record's row in the columns ExpertDataset checks, so
    that ``load_dataset`` names its line, ``index + 2``.
    """

    def __init__(self, message, line=None, index=None):
        self.line = line
        self.index = index
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ExpertGenerationError(MimicError, RuntimeError):
    """Expert rollouts could not produce enough above-threshold trajectories."""

"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: configuration problems exit with 2,
schema/data problems with 3, and runtime failures with 4.
"""


class FlowMoeError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(FlowMoeError, ValueError):
    """Invalid configuration value or unknown option."""


class DimensionError(FlowMoeError, ValueError):
    """Tensor shapes do not satisfy an operation's contract."""


class DegenerateInputError(FlowMoeError, ValueError):
    """Input is degenerate for the requested operation (e.g. a softmax row
    that is entirely masked, or a batch-norm batch with one element)."""


class SchemaError(FlowMoeError, ValueError):
    """CSV columns or encoded feature widths do not match the flow schema."""


class LabelError(FlowMoeError, ValueError):
    """A class label is outside the known label set."""


class StratificationError(FlowMoeError, ValueError):
    """A class has too few samples to be split."""


class GraphReleasedError(FlowMoeError, RuntimeError):
    """A backward pass reached part of an autodiff graph that an earlier
    backward pass already consumed and released."""


class TrainingDivergedError(FlowMoeError, RuntimeError):
    """A loss component became non-finite during training."""


class CacheIntegrityError(FlowMoeError, RuntimeError):
    """Encoded-dataset cache is corrupt or truncated."""


class CheckpointIntegrityError(FlowMoeError, RuntimeError):
    """Checkpoint file is corrupt or truncated."""


class CheckpointVersionError(FlowMoeError, RuntimeError):
    """Checkpoint was written by an incompatible format version."""

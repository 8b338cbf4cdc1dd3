"""Single-file model checkpoints.

Byte layout (all integers little-endian):

    offset  size  field
    0       8     magic ``b"FLOWMOE\\0"``
    8       4     format version (uint32, currently 4)
    12      4     header length H (uint32)
    16      H     header: UTF-8 JSON with config (the run's TrainConfig),
                  pipeline_stats (nullable), metadata, and shapes (each
                  state_dict name's dims)
    16+H    ...   float64 tensors in sorted-name order, back to back
    end-32  32    SHA-256 of every preceding byte

Everything but the header's keys is the envelope and array body of
:mod:`flowmoe.container`, shared with the dataset cache.  A malformed file
raises ``CheckpointIntegrityError``, another format version
``CheckpointVersionError``.  So does a well-formed file whose values can
only give garbage: a non-finite array, or a negative batch-norm running
variance.

The tensors are the full ``state_dict`` (parameters and batch-norm running
statistics), so ``load(save(model))`` reproduces eval-mode outputs
bit-exactly.  Nothing time-dependent is written: two identically seeded runs
produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import container
from .errors import CheckpointIntegrityError, CheckpointVersionError, ConfigError
from .layers import Module
from .model import TrainConfig, build_model
from .pipeline import PipelineStats

MAGIC = b"FLOWMOE\x00"
FORMAT_VERSION = 4


@dataclass
class LoadedCheckpoint:
    model: Module
    config: TrainConfig
    pipeline_stats: PipelineStats | None
    metadata: dict


def save_checkpoint(path, model: Module, config: TrainConfig,
                    pipeline_stats: PipelineStats | None = None,
                    metadata: dict | None = None) -> None:
    """Write ``model`` with ``config``, which must be the one it was built from."""
    if config != model.config:
        raise ConfigError("the config to save differs from the one the model was built from")
    state = model.state_dict()
    names = sorted(state)
    header = {
        "config": config.to_dict(),
        "pipeline_stats": pipeline_stats.to_dict() if pipeline_stats else None,
        "metadata": metadata or {},
        "shapes": {name: list(state[name].shape) for name in names},
    }
    container.write(path, MAGIC, FORMAT_VERSION, header,
                    (np.ascontiguousarray(state[name], "<f8") for name in names))


def check_input_shape(path, config: TrainConfig, shape, source: str) -> None:
    """Raise ``CheckpointIntegrityError`` naming the checkpoint at ``path``
    unless its ``config.input_shape`` is the sample ``shape`` of ``source``."""
    if tuple(config.input_shape) != tuple(shape):
        raise CheckpointIntegrityError(
            f"{path}: config input_shape {list(config.input_shape)} differs from the "
            f"sample shape {list(shape)} of {source}")


def _check_values(path, names, tensors) -> None:
    """Raise ``CheckpointIntegrityError`` naming the first array that holds
    a non-finite value, or a running variance that holds a negative one."""
    for name, array in zip(names, tensors):
        if not np.isfinite(array).all():
            raise CheckpointIntegrityError(f"{path}: array {name!r} holds a non-finite value")
        if name.endswith("running_var") and (array < 0).any():
            raise CheckpointIntegrityError(
                f"{path}: array {name!r} holds a negative running variance")


def load_checkpoint(path) -> LoadedCheckpoint:
    header, body = container.read(path, MAGIC, FORMAT_VERSION,
                                  CheckpointIntegrityError, CheckpointVersionError)
    # ConfigError and DimensionError are ValueErrors: a header the config
    # rejects, or a state that does not fit the model it describes
    try:
        config = TrainConfig.from_dict(header["config"])
        stats = PipelineStats.from_dict(header["pipeline_stats"]) \
            if header["pipeline_stats"] else None
        metadata = header["metadata"]
        names = sorted(header["shapes"])
        tensors = container.arrays(
            body, [("<f8", header["shapes"][name]) for name in names],
            lambda message: CheckpointIntegrityError(f"{path}: {message}"))
        _check_values(path, names, tensors)
        model = build_model(config, None)
        model.load_state_dict(dict(zip(names, tensors)))
    except (LookupError, TypeError, ValueError) as exc:
        raise CheckpointIntegrityError(f"{path} is malformed: {exc!r}") from exc
    if stats is not None:
        check_input_shape(path, config, stats.schema.target_shape, "its pipeline statistics")
    model.eval()
    return LoadedCheckpoint(model=model, config=config, pipeline_stats=stats,
                            metadata=metadata)

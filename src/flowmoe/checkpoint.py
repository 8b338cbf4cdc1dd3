"""Single-file model checkpoints.

Byte layout (all integers little-endian):

    offset  size  field
    0       8     magic ``b"FLOWMOE\\0"``
    8       4     format version (uint32, currently 3)
    12      4     header length H (uint32)
    16      H     header: UTF-8 JSON with config (the run's TrainConfig),
                  pipeline_stats (nullable) and metadata
    16+H    4     tensor count T (uint32)
    ...           T blocks, each:
                      2  name length N (uint16)
                      N  name (UTF-8)
                      1  rank R (uint8)
                      4R dimensions (uint32 each)
                      8*prod(dims) float64 data
    end-32  32    SHA-256 of every preceding byte

Everything but the tensor blocks is the envelope of :mod:`flowmoe.container`,
shared with the dataset cache.  A malformed file raises
``CheckpointIntegrityError``, another format version ``CheckpointVersionError``.

The tensor blocks carry the full ``state_dict`` (parameters and batch-norm
running statistics), so ``load(save(model))`` reproduces eval-mode outputs
bit-exactly.  Nothing time-dependent is written: two identically seeded runs
produce byte-identical files.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import container
from .errors import CheckpointIntegrityError, CheckpointVersionError, ConfigError
from .layers import Module
from .model import TrainConfig, build_model
from .pipeline import PipelineStats
from .tensor import RngState

MAGIC = b"FLOWMOE\x00"
FORMAT_VERSION = 3


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
    header = {
        "config": config.to_dict(),
        "pipeline_stats": pipeline_stats.to_dict() if pipeline_stats else None,
        "metadata": metadata or {},
    }
    container.write(path, MAGIC, FORMAT_VERSION, header, _tensor_blocks(model.state_dict()))


def _tensor_blocks(state: dict[str, np.ndarray]):
    yield struct.pack("<I", len(state))
    for name in sorted(state):
        array = np.ascontiguousarray(state[name], dtype=np.float64)
        encoded = name.encode()
        yield struct.pack(f"<H{len(encoded)}sB{array.ndim}I",
                          len(encoded), encoded, array.ndim, *array.shape)
        yield array


def _read_tensor_blocks(body: memoryview) -> dict[str, np.ndarray]:
    offset = 0

    def take(size: int) -> memoryview:
        nonlocal offset
        if offset + size > len(body):
            raise CheckpointIntegrityError("checkpoint tensor blocks run past the file's end")
        offset += size
        return body[offset - size:offset]

    state: dict[str, np.ndarray] = {}
    for _ in range(*struct.unpack("<I", take(4))):
        name = bytes(take(*struct.unpack("<H", take(2)))).decode()
        rank, = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        state[name] = data.reshape(shape).copy()
    if offset != len(body):
        raise CheckpointIntegrityError(f"{len(body) - offset} bytes follow the last tensor")
    return state


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
        model = build_model(config, RngState(0))
        model.load_state_dict(_read_tensor_blocks(body))
    except (LookupError, TypeError, ValueError) as exc:
        raise CheckpointIntegrityError(f"{path} is malformed: {exc!r}") from exc
    model.eval()
    return LoadedCheckpoint(model=model, config=config, pipeline_stats=stats,
                            metadata=metadata)

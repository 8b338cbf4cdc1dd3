"""Single-file model checkpoints.

Byte layout (all integers little-endian):

    offset  size  field
    0       8     magic ``b"FLOWMOE\\0"``
    8       4     format version (uint32, currently 2)
    12      4     header length H (uint32)
    16      H     header: UTF-8 JSON with model_config, train_config,
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
from .errors import CheckpointIntegrityError, CheckpointVersionError
from .layers import Module
from .model import ModelConfig, build_model
from .pipeline import PipelineStats
from .tensor import RngState
from .training import TrainConfig

MAGIC = b"FLOWMOE\x00"
FORMAT_VERSION = 2


@dataclass
class LoadedCheckpoint:
    model: Module
    model_config: ModelConfig
    train_config: TrainConfig
    pipeline_stats: PipelineStats | None
    metadata: dict


def save_checkpoint(path, model: Module, train_config: TrainConfig,
                    pipeline_stats: PipelineStats | None = None,
                    metadata: dict | None = None) -> None:
    header = {
        "model_config": model.config.to_dict(),
        "train_config": train_config.to_dict(),
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
    try:
        state = _read_tensor_blocks(body)
        model_config = ModelConfig.from_dict(header["model_config"])
        train_config = TrainConfig.from_dict(header["train_config"])
        stats = PipelineStats.from_dict(header["pipeline_stats"]) \
            if header["pipeline_stats"] else None
        metadata = header["metadata"]
    except (KeyError, TypeError, UnicodeDecodeError) as exc:
        raise CheckpointIntegrityError(f"{path} is malformed: {exc!r}") from exc
    model = build_model(model_config, RngState(0))
    model.load_state_dict(state)
    model.eval()
    return LoadedCheckpoint(model=model, model_config=model_config,
                            train_config=train_config, pipeline_stats=stats, metadata=metadata)

"""The envelope shared by checkpoints and the dataset cache: an 8-byte magic,
the format version and header length H (little-endian uint32 each), H bytes
of UTF-8 JSON header with sorted keys, the body, and the SHA-256 of every
preceding byte.  The body is raw little-endian arrays back to back, whose
shapes the owning format's header declares."""

import hashlib
import itertools
import json
import math
import struct
from pathlib import Path

import numpy as np

_PREFIX = struct.Struct("<8sII")


def write(path, magic: bytes, version: int, header: dict, chunks) -> None:
    """Write the envelope around the bytes-like ``chunks``, hashing each one
    as it is written, so no copy of the whole body is built."""
    encoded = json.dumps(header, sort_keys=True).encode()
    digest = hashlib.sha256()
    with open(path, "wb") as out:
        for chunk in itertools.chain([_PREFIX.pack(magic, version, len(encoded)), encoded],
                                     chunks):
            digest.update(chunk)
            out.write(chunk)
        out.write(digest.digest())


def read(path, magic: bytes, version: int, corrupt_error, version_error):
    """``(header, body)`` of ``path`` after checking its length, magic,
    checksum, version and header; body is a memoryview of the file."""
    blob = memoryview(Path(path).read_bytes())
    payload = blob[:-32]
    if len(blob) < _PREFIX.size + 32 or blob[:len(magic)] != magic:
        raise corrupt_error(f"{path} is not a {magic.rstrip(bytes(1)).decode()} file")
    if blob[-32:] != hashlib.sha256(payload).digest():
        raise corrupt_error(f"checksum mismatch in {path}; the file is truncated or corrupt")
    _, found, header_len = _PREFIX.unpack_from(payload)
    if found != version:
        raise version_error(f"{path} has format version {found}; this build reads {version}")
    start = _PREFIX.size + header_len
    try:
        header = json.loads(bytes(payload[_PREFIX.size:start]).decode())
    except ValueError:
        header = None
    if start > len(payload) or not isinstance(header, dict):
        raise corrupt_error(f"{path}: the header is not a UTF-8 JSON object within the file")
    return header, payload[start:]


def arrays(body, specs, corrupt_error) -> list:
    """Read-only views of the arrays laid back to back in ``body``, one per
    ``(dtype, shape)`` of ``specs`` with dtype ``"<f8"`` or ``"<i8"``; they
    need not be aligned, so a caller that keeps one copies it.  Raises
    ``corrupt_error`` unless every shape is a list of non-negative ints and
    their sizes add up to ``len(body)`` exactly."""
    for _, shape in specs:
        if not (isinstance(shape, list) and all(type(dim) is int and dim >= 0
                                                for dim in shape)):
            raise corrupt_error(f"array shape {shape!r} is not a list of non-negative ints")
    # math.prod of Python ints cannot overflow, however large a hostile dim
    counts = [math.prod(shape) for _, shape in specs]
    if 8 * sum(counts) != len(body):
        raise corrupt_error(f"a {len(body)}-byte body does not hold arrays of shapes "
                            f"{[shape for _, shape in specs]}")
    out, offset = [], 0
    for (dtype, shape), count in zip(specs, counts):
        view = np.frombuffer(body, dtype, count, offset).reshape(shape)
        view.flags.writeable = False
        out.append(view)
        offset += 8 * count
    return out

"""The envelope shared by checkpoints and the dataset cache: an 8-byte magic,
the format version and header length H (little-endian uint32 each), H bytes
of UTF-8 JSON header with sorted keys, the body, and the SHA-256 of every
preceding byte.  The body is raw little-endian arrays back to back, whose
shapes the owning format's header declares.  ``decode`` turns the records a
header holds back into their dataclasses, and ``json_text`` writes the JSON
text files of a run."""

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import struct
import typing

import numpy as np

from .errors import ConfigError

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
    checksum, version and header.  The file is read once, into a writable
    buffer placed so that the body starts on an 8-byte boundary; body is a
    writable uint8 array over that buffer, which no one else holds."""
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        prefix = handle.read(_PREFIX.size)
        if size < _PREFIX.size + 32 or prefix[:len(magic)] != magic:
            raise corrupt_error(f"{path} is not a {magic.rstrip(bytes(1)).decode()} file")
        _, found, header_len = _PREFIX.unpack(prefix)
        # shift the file within its buffer so that byte 16 + H lands on a multiple of 8
        buffer = np.empty(size + 7, dtype=np.uint8)
        shift = -(buffer.ctypes.data + _PREFIX.size + header_len) % 8
        blob = buffer[shift:shift + size]
        handle.seek(0)
        if handle.readinto(blob) != size:
            raise corrupt_error(f"{path} changed while it was read")
    payload = blob[:-32]
    if blob[-32:].tobytes() != hashlib.sha256(payload).digest():
        raise corrupt_error(f"checksum mismatch in {path}; the file is truncated or corrupt")
    if found != version:
        raise version_error(f"{path} has format version {found}; this build reads {version}")
    start = _PREFIX.size + header_len
    try:
        header = json.loads(payload[_PREFIX.size:start].tobytes().decode())
    except ValueError:
        header = None
    if start > len(payload) or not isinstance(header, dict):
        raise corrupt_error(f"{path}: the header is not a UTF-8 JSON object within the file")
    return header, payload[start:]


def arrays(body, specs, corrupt_error, writable: bool = False) -> list:
    """Views of the arrays laid back to back in ``body``, one per
    ``(dtype, shape)`` of ``specs`` with dtype ``"<f8"`` or ``"<i8"``; they
    are aligned when the body starts on an 8-byte boundary, as that of
    :func:`read` does.  The views are read-only unless ``writable``, which
    needs a writable body.  Raises ``corrupt_error`` unless every shape is a
    list of non-negative ints and their sizes add up to ``len(body)``
    exactly."""
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
        view.flags.writeable = writable
        out.append(view)
        offset += 8 * count
    return out


def json_text(value) -> str:
    """``value`` in the format of a run's JSON text files: indented by 2,
    keys sorted."""
    return json.dumps(value, indent=2, sort_keys=True)


def decode(kind, value, name: str):
    """``value``, decoded from JSON, as a ``kind``: a dataclass from an object
    with exactly its fields, each decoded by its declared type; a tuple or
    list from an array (or a tuple), a ``dict[str, T]`` from an object, an
    ``np.ndarray`` from an array of numbers; an int for a float, but no bool
    for an int.  Else raises ``ConfigError`` naming the dotted path ``name``."""
    return _decoder(kind)(value, name)


@functools.cache
def _decoder(kind):
    """The function ``(value, name)`` that :func:`decode` applies for ``kind``,
    built once per type together with the decoders of the types it holds."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    label = getattr(kind, "__name__", kind)

    def other(value, name):
        if type(value) is kind:
            return value
        raise ConfigError(f"{name} must be {label}, got {value!r}")

    if dataclasses.is_dataclass(kind):
        hints = typing.get_type_hints(kind)
        fields = {f.name: _decoder(hints[f.name]) for f in dataclasses.fields(kind)}

        def record(value, name):
            if not isinstance(value, dict):
                return other(value, name)
            if value.keys() != fields.keys():
                raise ConfigError(f"{name} keys: missing {sorted(fields.keys() - value.keys())}, "
                                  f"unknown {sorted(value.keys() - fields.keys())}")
            return kind(**{key: item(value[key], f"{name}.{key}")
                           for key, item in fields.items()})
        return record
    if origin in (tuple, list):
        item = _decoder(args[0])

        def sequence(value, name):
            if not isinstance(value, (list, tuple)):
                return other(value, name)
            return origin([item(entry, f"{name}[{i}]") for i, entry in enumerate(value)])
        return sequence
    if origin is dict:
        item = _decoder(args[1])

        def mapping(value, name):
            if not isinstance(value, dict):
                return other(value, name)
            return {key: item(entry, f"{name}.{key}") for key, entry in value.items()}
        return mapping
    if kind is np.ndarray:
        def array(value, name):
            if isinstance(value, (list, tuple)):
                try:
                    result = np.asarray(value)
                except ValueError as exc:  # a ragged array
                    raise ConfigError(f"{name} is not an array of numbers") from exc
                if result.dtype.kind in "if":
                    return result
            return other(value, name)
        return array
    if kind is float:
        def number(value, name):
            return float(value) if type(value) is int else other(value, name)
        return number
    return other

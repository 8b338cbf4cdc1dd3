"""The checksummed envelope shared by checkpoints and the dataset cache.

Every damaged file except the truncated one carries a valid, recomputed
SHA-256 trailer, so the named error must come from the header and body
checks rather than from the checksum.
"""

import hashlib
import json
import struct

import numpy as np
import pytest

from flowmoe import container
from flowmoe.checkpoint import load_checkpoint, save_checkpoint
from flowmoe.cli import main
from flowmoe.errors import (
    CacheIntegrityError,
    CheckpointIntegrityError,
    CheckpointVersionError,
)
from flowmoe.model import build_model
from flowmoe.pipeline import load_dataset_cache, prepare_dataset, save_dataset_cache
from flowmoe.tensor import RngState, Tensor
from flowmoe.training import TrainConfig, model_config_for

from csv_fixture import fixture_rows, write_flow_csv


def _write_checkpoint(tmp_path):
    config = TrainConfig(n_experts=4, top_k=2, cnn_filters=(4, 4, 4, 8), expert_hidden=4)
    model = build_model(model_config_for(config), RngState(0))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, config)
    return path


def _write_cache(tmp_path):
    csv = write_flow_csv(tmp_path / "flows.csv", fixture_rows(120))
    path = tmp_path / "data.cache"
    save_dataset_cache(path, prepare_dataset(csv, seed=4), "fp")
    return path


# format -> (writer, loader, error for a corrupt file, error for another version)
FORMATS = {
    "checkpoint": (_write_checkpoint, load_checkpoint,
                   CheckpointIntegrityError, CheckpointVersionError),
    "cache": (_write_cache, load_dataset_cache, CacheIntegrityError, CacheIntegrityError),
}


def _split(blob):
    """(magic, version, header bytes, body) of an envelope, checksum dropped."""
    magic, version, header_len = struct.unpack_from("<8sII", blob)
    header = blob[16:16 + header_len]
    return magic, version, header, blob[16 + header_len:-32]


def _seal(magic, version, header, body, header_len=None):
    length = len(header) if header_len is None else header_len
    payload = struct.pack("<8sII", magic, version, length) + header + body
    return payload + hashlib.sha256(payload).digest()


def _truncated(blob):
    return blob[:-7]


def _bumped_version(blob):
    magic, version, header, body = _split(blob)
    return _seal(magic, version + 1, header, body)


def _non_json_header(blob):
    magic, version, header, body = _split(blob)
    return _seal(magic, version, b"\xff" + header[1:], body)


def _non_object_header(blob):
    magic, version, _, body = _split(blob)
    return _seal(magic, version, json.dumps([1, 2]).encode(), body)


def _header_past_payload(blob):
    magic, version, header, body = _split(blob)
    return _seal(magic, version, header, body, header_len=len(header) + len(body) + 1)


def _short_body(blob):
    magic, version, header, body = _split(blob)
    return _seal(magic, version, header, body[:-8])


def _long_body(blob):
    magic, version, header, body = _split(blob)
    return _seal(magic, version, header, body + bytes(8))


DAMAGE = {
    "truncated": _truncated,
    "bumped_version": _bumped_version,
    "non_json_header": _non_json_header,
    "non_object_header": _non_object_header,
    "header_past_payload": _header_past_payload,
    "body_shorter_than_declared": _short_body,
    "body_longer_than_declared": _long_body,
}


@pytest.mark.parametrize("damage", DAMAGE)
@pytest.mark.parametrize("fmt", FORMATS)
def test_damaged_file_raises_named_error(tmp_path, fmt, damage):
    write, load, corrupt_error, version_error = FORMATS[fmt]
    path = write(tmp_path)
    load(path)  # the undamaged file loads
    path.write_bytes(DAMAGE[damage](path.read_bytes()))
    expected = version_error if damage == "bumped_version" else corrupt_error
    with pytest.raises(expected):
        load(path)


@pytest.mark.parametrize("fmt", FORMATS)
def test_cli_exits_4_on_short_body(tmp_path, fmt):
    cache = _write_cache(tmp_path)
    checkpoint = _write_checkpoint(tmp_path)
    damaged = cache if fmt == "cache" else checkpoint
    damaged.write_bytes(_short_body(damaged.read_bytes()))
    code = main(["evaluate", "--checkpoint", str(checkpoint), "--cache", str(cache),
                 "--out", str(tmp_path / "eval")])
    assert code == 4


def _edit_header(path, edit):
    """Rewrite a file's header through ``edit`` and reseal it with a valid checksum."""
    magic, version, header, body = _split(path.read_bytes())
    fields = json.loads(header)
    edit(fields)
    path.write_bytes(_seal(magic, version, json.dumps(fields, sort_keys=True).encode(), body))


HEADER_EDITS = {
    "stats_missing": lambda h: h.pop("stats"),
    "stats_unparseable": lambda h: h.update(stats={"schema": 1}),
    "schema_hash_missing": lambda h: h.pop("schema_hash"),
    "schema_hash_not_a_string": lambda h: h.update(schema_hash=7),
    "fingerprint_missing": lambda h: h.pop("fingerprint"),
}


@pytest.mark.parametrize("edit", HEADER_EDITS)
def test_cache_header_keys_are_checked_on_load(tmp_path, edit):
    path = _write_cache(tmp_path)
    _edit_header(path, HEADER_EDITS[edit])
    with pytest.raises(CacheIntegrityError):
        load_dataset_cache(path)


def test_cli_train_exits_4_on_cache_without_stats(tmp_path):
    cache = _write_cache(tmp_path)
    _edit_header(cache, HEADER_EDITS["stats_missing"])
    code = main(["train", "--cache", str(cache), "--out", str(tmp_path / "runs"),
                 "--epochs", "1", "--experts", "4", "--top-k", "2", "--batch-size", "32"])
    assert code == 4


# Each leaves a checksummed checkpoint whose config cannot describe its model.
CONFIG_EDITS = {
    "n_experts_not_an_int": lambda c: c.update(n_experts="many"),
    "top_k_a_bool": lambda c: c.update(top_k=True),
    "bn_eps_null": lambda c: c.update(bn_eps=None),
    "top_k_above_n_experts": lambda c: c.update(top_k=c["n_experts"] + 1),
    "unknown_key": lambda c: c.update(variant="cnn_moe"),
    "missing_key": lambda c: c.pop("bn_momentum"),
    "learning_rate_nan": lambda c: c.update(learning_rate=float("nan")),
    "input_shape_too_short": lambda c: c.update(input_shape=[6]),
    "state_does_not_fit": lambda c: c.update(expert_hidden=c["expert_hidden"] + 1),
}


@pytest.mark.parametrize("edit", CONFIG_EDITS)
def test_checkpoint_config_is_checked_on_load(tmp_path, edit):
    path = _write_checkpoint(tmp_path)
    _edit_header(path, lambda h: CONFIG_EDITS[edit](h["config"]))
    with pytest.raises(CheckpointIntegrityError):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", ["n_experts_not_an_int", "top_k_above_n_experts"])
def test_cli_exits_4_on_checkpoint_config(tmp_path, edit):
    cache = _write_cache(tmp_path)
    checkpoint = _write_checkpoint(tmp_path)
    _edit_header(checkpoint, lambda h: CONFIG_EDITS[edit](h["config"]))
    code = main(["evaluate", "--checkpoint", str(checkpoint), "--cache", str(cache),
                 "--out", str(tmp_path / "eval")])
    assert code == 4


# Each leaves a checksummed checkpoint whose declared shapes do not describe
# its body or its model; every edit but the first keeps the declared byte count.
SHAPES_EDITS = {
    "shapes_missing": lambda h: h.pop("shapes"),
    "negative_dims": lambda h: h["shapes"].update({"head.experts.b1": [-4, -4]}),
    "bool_dim": lambda h: h["shapes"].update({"head.experts.b1": [4, 4, True]}),
    "name_the_model_lacks": lambda h: h["shapes"].update(
        {"head.experts.b3": h["shapes"].pop("head.experts.b1")}),
    "matrix_dims_swapped": lambda h: h["shapes"].update({"head.router.w_gate": [4, 8]}),
}


@pytest.mark.parametrize("edit", SHAPES_EDITS)
def test_checkpoint_shapes_are_checked_on_load(tmp_path, edit):
    path = _write_checkpoint(tmp_path)
    assert load_checkpoint(path).model.state_dict()["head.router.w_gate"].shape == (8, 4)
    _edit_header(path, SHAPES_EDITS[edit])
    with pytest.raises(CheckpointIntegrityError):
        load_checkpoint(path)


@pytest.mark.parametrize("shape, nbytes", [
    ([True], 8),          # a bool is not a dim, though Python counts it an int
    ((1,), 8),            # JSON decodes a shape to a list
    ([1.0], 8),
    ([-1, -1], 8),
    ([2**32, 2**32], 0),  # 8 * 2**64 bytes, which wraps to 0 in int64
], ids=repr)
def test_arrays_rejects_hostile_shapes(shape, nbytes):
    with pytest.raises(CacheIntegrityError):
        container.arrays(memoryview(bytes(nbytes)), [("<f8", shape)], CacheIntegrityError)


def test_arrays_splits_a_body_into_read_only_views():
    x = np.arange(6, dtype="<f8").reshape(2, 3)
    y = np.array([7, -1], dtype="<i8")
    raw = bytearray(x.tobytes() + y.tobytes())
    got_x, got_y = container.arrays(memoryview(raw), [("<f8", [2, 3]), ("<i8", [2])],
                                    CacheIntegrityError)
    np.testing.assert_array_equal(got_x, x)
    np.testing.assert_array_equal(got_y, y)
    # views of the body, not copies, and read-only even over a writable buffer
    raw[0:8] = np.float64(-5.0).tobytes()
    assert got_x[0, 0] == -5.0
    assert not got_x.flags.writeable and not got_y.flags.writeable


def _model_arrays(model):
    """Every parameter and buffer array the model holds."""
    arrays = (getattr(owner, attr) for owner, attr in model._named_slots().values())
    return [array.data if isinstance(array, Tensor) else array for array in arrays]


def test_loaded_checkpoint_owns_writable_parameters(tmp_path):
    # load_state_dict makes the one copy out of the file's read-only views
    loaded = load_checkpoint(_write_checkpoint(tmp_path))
    assert all(a.flags.owndata and a.flags.writeable for a in _model_arrays(loaded.model))


def test_loaded_cache_arrays_are_aligned_and_writable(tmp_path):
    # the body's views are unaligned within the file; the loader copies them
    train, test, _ = load_dataset_cache(_write_cache(tmp_path))
    for array in (train.x, train.y, test.x, test.y):
        assert array.flags.aligned and array.flags.writeable


def test_load_state_dict_does_not_alias_its_input():
    config = TrainConfig(n_experts=4, top_k=2, cnn_filters=(4, 4, 4, 8), expert_hidden=4)
    model = build_model(config, RngState(0))
    state = model.state_dict()
    before = {name: value.copy() for name, value in state.items()}
    model.load_state_dict(state)
    for array in _model_arrays(model):
        array += 1.0
    for name, value in state.items():
        np.testing.assert_array_equal(value, before[name])

"""The one run config: the values it refuses, its dict form, and the seeded
models built from it."""

import dataclasses
import hashlib

import numpy as np
import pytest

from flowmoe.ablation import NAMED_VARIANTS, ablation_config
from flowmoe.checkpoint import save_checkpoint
from flowmoe.errors import ConfigError
from flowmoe.model import build_model
from flowmoe.tensor import RngState
from flowmoe.training import TrainConfig, model_config_for

# SHA-256 over each (name, float64 bytes) of the initial state_dict, in sorted
# name order, at the default config with seed 0.  Pins the order of the
# initialisation draws.
INITIAL_STATE_SHA256 = {
    None: "dea2ebfbe1fa4bcfa3e81eb58e95f43eaa74b861c277f370088fe79177b537c4",
    "no_moe": "7b8febf1a376aac714886c5878a77a188c3bbbe14e164374581a5d016e20a030",
    "no_cnn": "2b293aa84e057cbafb58c4918d2a3fa3c5faa4b0aeb4394470c209f64d7d39f1",
}


@pytest.mark.parametrize("variant", INITIAL_STATE_SHA256)
def test_seeded_initial_state_is_pinned(variant):
    config = TrainConfig() if variant is None else ablation_config(TrainConfig(), variant)
    state = build_model(model_config_for(config), RngState(0)).state_dict()
    digest = hashlib.sha256()
    for name in sorted(state):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(state[name], dtype=np.float64).tobytes())
    assert digest.hexdigest() == INITIAL_STATE_SHA256[variant]


@pytest.mark.parametrize("variant", (None,) + NAMED_VARIANTS)
def test_dict_round_trip(variant):
    config = TrainConfig() if variant is None else ablation_config(TrainConfig(), variant)
    assert TrainConfig.from_dict(config.to_dict()) == config


@pytest.mark.parametrize("values", [
    {"learning_rate": -0.1},
    {"learning_rate": 0.0},
    {"learning_rate": float("nan")},
    {"learning_rate": float("inf")},
    {"alpha": -5.0},
    {"alpha": float("nan")},
    {"alpha": float("inf")},
    {"disable_cnn": True, "n_experts": 4, "top_k": 8},
    {"seed": -1},
    {"bn_eps": -1.0},
    {"bn_eps": 0.0},
    {"bn_eps": float("nan")},
    {"bn_eps": float("inf")},
    {"bn_momentum": -0.1},
    {"bn_momentum": 1.5},
    {"bn_momentum": float("nan")},
    {"expert_hidden": 0},
    {"n_classes": 1},
    {"cnn_filters": ()},
    {"cnn_filters": (16, 0, 64, 128)},
    {"input_shape": (6,)},
    {"input_shape": (6, 13, 1)},
    {"input_shape": (6, 0)},
], ids=str)
def test_unusable_values_rejected(values):
    with pytest.raises(ConfigError):
        TrainConfig(**values)


def test_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        TrainConfig().alpha = 0.5


FROM_DICT_EDITS = {
    "unknown_key": lambda d: d.update(variant="cnn_moe"),
    "missing_key": lambda d: d.pop("bn_eps"),
    "string_for_int": lambda d: d.update(n_experts="many"),
    "bool_for_int": lambda d: d.update(top_k=True),
    "float_for_int": lambda d: d.update(batch_size=64.0),
    "null_for_float": lambda d: d.update(bn_eps=None),
    "int_for_bool": lambda d: d.update(noise_enabled=1),
    "float_in_tuple": lambda d: d.update(cnn_filters=[4, 4, 4, 8.5]),
    "string_for_tuple": lambda d: d.update(input_shape="6x13"),
}


@pytest.mark.parametrize("edit", FROM_DICT_EDITS)
def test_from_dict_rejects_malformed_fields(edit):
    raw = TrainConfig().to_dict()
    FROM_DICT_EDITS[edit](raw)
    with pytest.raises(ConfigError):
        TrainConfig.from_dict(raw)


def test_from_dict_takes_an_int_for_a_float():
    raw = dict(TrainConfig().to_dict(), alpha=1, input_shape=[6, 13])
    config = TrainConfig.from_dict(raw)
    assert config == TrainConfig(alpha=1.0)
    assert isinstance(config.alpha, float)


def test_save_checkpoint_rejects_another_config(tmp_path):
    config = TrainConfig(n_experts=4, top_k=2, cnn_filters=(4, 4, 4, 8), expert_hidden=4)
    model = build_model(config, RngState(0))
    with pytest.raises(ConfigError):
        save_checkpoint(tmp_path / "model.ckpt", model, dataclasses.replace(config, seed=1))
    assert not (tmp_path / "model.ckpt").exists()

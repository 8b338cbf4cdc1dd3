"""The CLI's option table: every option means the same set by flag or by
config-file key, and the echoed effective configuration keeps its text."""

import re

import pytest

from flowmoe import cli
from flowmoe.cli import RunConfig, build_run_config, effective_config_text, make_parser
from flowmoe.model import TrainConfig

# A usable value for every option, each different from its default.
SAMPLES = {
    "dataset": "flows.csv",
    "cache": "data.cache",
    "checkpoint": "model.ckpt",
    "label_column": "Label",
    "out": "elsewhere",
    "imputation": "verbatim",
    "train_fraction": "0.7",
    "report_format": "json",
    "ablate": "no_moe",
    "expert_grid": "8:2",
    "batch_size": "64",
    "epochs": "3",
    "alpha": "0.5",
    "experts": "64",
    "top_k": "4",
    "learning_rate": "0.01",
    "seed": "5",
}


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("flows.csv", "data.cache", "model.ckpt"):
        (tmp_path / name).write_text("")
    return tmp_path


def config_of(argv):
    return build_run_config(make_parser().parse_args(argv))


def test_every_option_has_a_sample():
    assert SAMPLES.keys() == cli.OPTIONS.keys()


@pytest.mark.parametrize("command", ["preprocess", "train", "evaluate", "ablate",
                                     "gating-report"])
def test_every_subcommand_lists_every_flag(command, capsys):
    with pytest.raises(SystemExit) as stop:
        make_parser().parse_args([command, "--help"])
    assert stop.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--help", "--config"} | {"--" + name.replace("_", "-")
                                               for name in cli.OPTIONS}


def test_default_training_options_are_train_configs():
    assert RunConfig().train == TrainConfig()


@pytest.mark.parametrize("name", SAMPLES)
@pytest.mark.parametrize("key_of", [lambda name: name, lambda name: name.replace("_", "-")],
                         ids=["underscores", "dashes"])
def test_flag_and_config_key_set_the_same(inputs, name, key_of):
    value = SAMPLES[name]
    by_flag = config_of(["train", "--" + name.replace("_", "-"), value])
    cfg = inputs / "run.cfg"
    cfg.write_text(f"{key_of(name)} = {value}\n")
    by_file = config_of(["train", "--config", str(cfg)])
    assert by_flag == by_file != RunConfig()
    text = effective_config_text(by_flag)
    assert text == effective_config_text(by_file) != effective_config_text(RunConfig())
    assert f"{name} = {value}\n" in text


def test_effective_config_text_is_pinned(inputs):
    config = config_of(["train", "--dataset", "flows.csv", "--experts", "8", "--top-k", "2",
                        "--epochs", "3", "--alpha", "0.25", "--learning-rate", "1e-3",
                        "--imputation", "verbatim", "--expert-grid"])
    assert effective_config_text(config) == (
        "dataset = flows.csv\n"
        "cache = None\n"
        "checkpoint = None\n"
        "label_column = Attack Type\n"
        "out = runs\n"
        "imputation = verbatim\n"
        "train_fraction = 0.6\n"
        "report_format = both\n"
        "ablate = None\n"
        "expert_grid = default\n"
        "batch_size = 1024\n"
        "epochs = 3\n"
        "alpha = 0.25\n"
        "experts = 8\n"
        "top_k = 2\n"
        "learning_rate = 0.001\n"
        "seed = 0\n"
    )

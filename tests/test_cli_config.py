import pytest

from flowmoe.checkpoint import save_checkpoint
from flowmoe.cli import main
from flowmoe.model import TrainConfig, build_model
from flowmoe.pipeline import prepare_dataset, save_dataset_cache
from flowmoe.tensor import RngState

from csv_fixture import fixture_rows, write_flow_csv


@pytest.mark.parametrize("line", [
    "report_format = xml",
    "imputation = mean",
    "ablate = no_router",
])
def test_config_file_value_outside_choices_exits_2(tmp_path, line):
    """A config file is held to the same choices as the flags, and is
    rejected before any data is read."""
    csv = write_flow_csv(tmp_path / "flows.csv", fixture_rows(20))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    assert main(["preprocess", "--config", str(cfg), "--dataset", str(csv),
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--learning-rate", "-0.1"],
    ["--learning-rate", "nan"],
    ["--alpha", "-5"],
    ["--alpha", "inf"],
    ["--epochs", "0"],
    ["--ablate", "no_cnn", "--experts", "4", "--top-k", "8"],
    ["--expert-grid", "4:2,2:4"],
    ["--seed", "-1"],
    ["--train-fraction", "nan"],
], ids=" ".join)
def test_unusable_training_values_exit_2_before_any_file(tmp_path, flags):
    """Training values are checked before a run directory or cache is written."""
    csv = write_flow_csv(tmp_path / "flows.csv", fixture_rows(20))
    out = tmp_path / "out"
    assert main(["train", "--dataset", str(csv), "--out", str(out), "--epochs", "1",
                 "--batch-size", "32", "--experts", "4", "--top-k", "2", *flags]) == 2
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--seed", "-1"],
    ["--train-fraction", "1.5"],
    ["--train-fraction", "0"],
    ["--train-fraction", "nan"],
], ids=" ".join)
def test_unusable_preprocess_values_exit_2_before_any_file(tmp_path, flags):
    csv = write_flow_csv(tmp_path / "flows.csv", fixture_rows(20))
    out = tmp_path / "out"
    assert main(["preprocess", "--dataset", str(csv), "--out", str(out), *flags]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["preprocess", "--dataset", "missing.csv"],
    ["train", "--dataset", "missing.csv"],
    ["train", "--cache", "missing.cache"],
    ["evaluate", "--checkpoint", "missing.ckpt", "--dataset", "missing.csv"],
    ["gating-report", "--checkpoint", "."],
], ids=" ".join)
def test_missing_input_file_exits_2_before_any_file(tmp_path, monkeypatch, caplog, argv):
    """A path that is not a file is named, not met with a traceback."""
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert "is not a file" in caplog.text


@pytest.mark.parametrize("config_bytes", [None, b"seed = \xff\n"], ids=["missing", "not_utf8"])
def test_unreadable_config_file_exits_2(tmp_path, caplog, config_bytes):
    cfg = tmp_path / "run.cfg"
    if config_bytes is not None:
        cfg.write_bytes(config_bytes)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "cannot be read" in caplog.text


@pytest.mark.parametrize("command", [
    ["preprocess", "--dataset", "flows.csv"],
    ["train", "--cache", "data.cache"],
    ["evaluate", "--checkpoint", "model.ckpt", "--cache", "data.cache"],
    ["ablate", "--cache", "data.cache"],
    ["gating-report", "--checkpoint", "model.ckpt", "--cache", "data.cache"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_out_naming_a_file_exits_2_before_any_file(tmp_path, monkeypatch, command, out):
    monkeypatch.chdir(tmp_path)
    csv = write_flow_csv(tmp_path / "flows.csv", fixture_rows(120))
    save_dataset_cache(tmp_path / "data.cache", prepare_dataset(csv, seed=4))
    config = TrainConfig(n_experts=4, top_k=2, cnn_filters=(4, 4, 4, 8), expert_hidden=4)
    save_checkpoint(tmp_path / "model.ckpt", build_model(config, RngState(0)), config)
    (tmp_path / "taken").write_text("keep\n")
    before = sorted(tmp_path.iterdir())
    assert main([*command, "--out", out]) == 2
    assert sorted(tmp_path.iterdir()) == before
    assert (tmp_path / "taken").read_text() == "keep\n"


def test_preprocess_schema_error_leaves_no_out_directory(tmp_path):
    csv = write_flow_csv(tmp_path / "flows.csv", fixture_rows(20))
    out = tmp_path / "out"
    assert main(["preprocess", "--dataset", str(csv), "--out", str(out),
                 "--label-column", "nope"]) == 3
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train"],
    ["ablate", "--experts", "4", "--top-k", "2"],
], ids=" ".join)
def test_run_without_data_exits_2_before_any_file(tmp_path, argv):
    """A run directory is made only once its data has loaded."""
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_run_schema_error_leaves_no_out_directory(tmp_path, command):
    csv = write_flow_csv(tmp_path / "flows.csv", fixture_rows(20))
    out = tmp_path / "out"
    assert main([command, "--dataset", str(csv), "--out", str(out), "--label-column", "nope",
                 "--experts", "4", "--top-k", "2"]) == 3
    assert not out.exists()

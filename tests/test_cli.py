import csv
import json
import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import flowmoe
from flowmoe.cli import RunConfig, main, parse_config_file
from flowmoe.pipeline import CLASS_NAMES, FEATURE_ORDER, load_dataset_cache

from csv_fixture import LABEL_COLUMN, fixture_rows, write_flow_csv

TINY_TRAIN = ["--epochs", "1", "--batch-size", "32", "--experts", "4",
              "--top-k", "2"]


@pytest.fixture
def big_csv(tmp_path):
    return write_flow_csv(tmp_path / "flows.csv", fixture_rows(120))


def run_dirs(out):
    return sorted(p for p in out.iterdir() if p.is_dir() and p.name.startswith("run-"))


class TestDefaults:
    def test_full_scale_defaults(self):
        config = RunConfig()
        assert config.train.n_experts == 128
        assert config.train.top_k == 32
        assert config.train.alpha == 0.1
        assert config.train.batch_size == 1024
        assert config.train.max_epochs == 40
        assert config.imputation == "leak-free"

    def test_config_file_and_flag_precedence(self, tmp_path, big_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 7\nalpha = 0.25  # comment\nseed = 3\n")
        values = parse_config_file(cfg)
        assert values == {"epochs": 7, "alpha": 0.25, "seed": 3}
        out = tmp_path / "out"
        code = main(["train", "--config", str(cfg), "--dataset", str(big_csv),
                     "--out", str(out), "--epochs", "1", "--batch-size", "32",
                     "--experts", "4", "--top-k", "2"])
        assert code == 0
        text = (run_dirs(out)[0] / "effective_config.txt").read_text()
        assert "epochs = 1" in text        # flag beats config file
        assert "alpha = 0.25" in text      # config file beats default
        assert "seed = 3" in text
        assert "top_k = 2" in text

    def test_bad_config_file_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_option = 1\n")
        assert main(["train", "--config", str(cfg)]) == 2

    def test_bad_flag_value_exits_2(self, tmp_path):
        assert main(["train", "--epochs", "banana"]) == 2

    def test_missing_inputs_exit_2(self, tmp_path):
        assert main(["preprocess", "--out", str(tmp_path)]) == 2
        assert main(["train", "--out", str(tmp_path)]) == 2
        assert main(["evaluate", "--out", str(tmp_path)]) == 2


class TestPreprocess:
    def test_writes_cache_stats_summary(self, tmp_path, big_csv):
        out = tmp_path / "pre"
        assert main(["preprocess", "--dataset", str(big_csv), "--out", str(out),
                     "--seed", "4"]) == 0
        train, test, header = load_dataset_cache(out / "dataset.cache")
        assert train.x.shape[1:] == (1, 6, 13)[1:]
        assert len(train) + len(test) == 120
        stats = json.loads((out / "pipeline_stats.json").read_text())
        assert stats["fitted_on"] == len(train)
        summary = json.loads((out / "preprocess_summary.json").read_text())
        assert summary["rows_parsed"] == 120

    def test_missing_column_exits_3(self, tmp_path):
        rows = fixture_rows(20)
        columns = [c for c in FEATURE_ORDER if c != "Proto"] + [LABEL_COLUMN]
        path = write_flow_csv(tmp_path / "broken.csv", rows, columns=columns)
        code = main(["preprocess", "--dataset", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_range_wider_than_the_largest_float_exits_0(self, tmp_path):
        rows = fixture_rows(120)
        rows[0]["Dur"], rows[1]["Dur"] = "-1.7e308", "1.7e308"
        out = tmp_path / "pre"
        assert main(["preprocess", "--dataset", str(write_flow_csv(tmp_path / "wide.csv", rows)),
                     "--out", str(out), "--seed", "4"]) == 0
        train, _, _ = load_dataset_cache(out / "dataset.cache")
        assert train.x.min() >= 0.0 and train.x.max() <= 1.0

    def test_rerun_reuses_cache(self, tmp_path, big_csv, caplog):
        out = tmp_path / "pre"
        assert main(["preprocess", "--dataset", str(big_csv), "--out", str(out),
                     "--seed", "4"]) == 0
        first_bytes = (out / "dataset.cache").read_bytes()
        with caplog.at_level(logging.INFO, logger="flowmoe.cli"):
            assert main(["preprocess", "--dataset", str(big_csv), "--out", str(out),
                         "--seed", "4"]) == 0
        assert any("up to date" in message for message in caplog.messages)
        assert (out / "dataset.cache").read_bytes() == first_bytes

    def test_rerun_with_a_changed_option_re_encodes(self, tmp_path, big_csv, capsys):
        out = tmp_path / "pre"
        args = ["--dataset", str(big_csv), "--seed", "4"]
        assert main(["preprocess", *args, "--out", str(out)]) == 0
        first, _, first_header = load_dataset_cache(out / "dataset.cache")
        capsys.readouterr()
        args += ["--train-fraction", "0.7"]
        assert main(["preprocess", *args, "--out", str(out)]) == 0
        assert "cache up to date" not in capsys.readouterr().out
        train, _, header = load_dataset_cache(out / "dataset.cache")
        assert header["fingerprint"] != first_header["fingerprint"]
        assert len(train) > len(first)
        # a run from the CSV caches the fingerprint preprocess wrote
        runs = tmp_path / "runs"
        assert main(["train", *args, "--out", str(runs), *TINY_TRAIN]) == 0
        _, _, run_header = load_dataset_cache(run_dirs(runs)[0] / "dataset.cache")
        assert run_header["fingerprint"] == header["fingerprint"]


class TestTrain:
    def test_train_from_cache_writes_artifacts(self, tmp_path, big_csv):
        pre = tmp_path / "pre"
        assert main(["preprocess", "--dataset", str(big_csv), "--out", str(pre),
                     "--seed", "4"]) == 0
        out = tmp_path / "runs"
        code = main(["train", "--cache", str(pre / "dataset.cache"),
                     "--out", str(out), "--seed", "7", *TINY_TRAIN])
        assert code == 0
        run = run_dirs(out)[0]
        assert (run / "model.ckpt").exists()
        history = json.loads((run / "history.json").read_text())
        assert len(history["epochs"]) == 1
        text = (run / "effective_config.txt").read_text()
        assert "alpha = 0.1" in text         # untouched defaults echoed
        assert "imputation = leak-free" in text

    @pytest.mark.single_thread_blas
    def test_same_seed_identical_checkpoints(self, tmp_path, big_csv):
        pre = tmp_path / "pre"
        main(["preprocess", "--dataset", str(big_csv), "--out", str(pre),
              "--seed", "4"])
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["train", "--cache", str(pre / "dataset.cache"),
                         "--out", str(out), "--seed", "7", *TINY_TRAIN]) == 0
        ckpt_a = (run_dirs(out_a)[0] / "model.ckpt").read_bytes()
        ckpt_b = (run_dirs(out_b)[0] / "model.ckpt").read_bytes()
        assert ckpt_a == ckpt_b

    def test_ablate_flag_zeroes_balancing_losses(self, tmp_path, big_csv):
        out = tmp_path / "runs"
        code = main(["train", "--dataset", str(big_csv), "--out", str(out),
                     "--seed", "4", "--ablate", "no_moe", *TINY_TRAIN])
        assert code == 0
        history = json.loads((run_dirs(out)[0] / "history.json").read_text())
        assert all(epoch["importance"] == 0.0 for epoch in history["epochs"])
        assert all(epoch["load"] == 0.0 for epoch in history["epochs"])

    @pytest.mark.parametrize("command", [["train"], ["train", "--ablate", "no_moe"],
                                         ["train", "--expert-grid", "4:2"], ["ablate"]])
    def test_batch_size_one_with_a_conv_backbone_exits_2_writing_nothing(
            self, tmp_path, big_csv, command):
        out = tmp_path / "runs"
        code = main([*command, "--dataset", str(big_csv), "--out", str(out),
                     *TINY_TRAIN, "--batch-size", "1"])
        assert code == 2
        assert not out.exists()

    def test_batch_size_one_without_a_conv_backbone_trains(self, tmp_path, big_csv):
        out = tmp_path / "runs"
        code = main(["train", "--dataset", str(big_csv), "--out", str(out),
                     "--ablate", "no_cnn", *TINY_TRAIN, "--batch-size", "1"])
        assert code == 0
        assert (run_dirs(out)[0] / "model.ckpt").exists()

    @pytest.mark.parametrize("command, message", [
        (["ablate", "--expert-grid", "4:2, 2:1,04:2"], "repeats the pair 4:2"),
        (["train", "--ablate", "no_moe", "--expert-grid", "4:2"], "flowmoe ablate"),
    ])
    def test_expert_grid_conflicts_exit_2_writing_nothing(self, tmp_path, big_csv, caplog,
                                                         command, message):
        out = tmp_path / "runs"
        code = main([*command, "--dataset", str(big_csv), "--out", str(out), *TINY_TRAIN])
        assert code == 2
        assert message in caplog.text
        assert not out.exists()

    def test_expert_grid_runs_per_pair(self, tmp_path, big_csv):
        out = tmp_path / "runs"
        code = main(["train", "--dataset", str(big_csv), "--out", str(out),
                     "--seed", "4", "--expert-grid", "4:2,2:1", *TINY_TRAIN])
        assert code == 0
        run = run_dirs(out)[0]
        for name in ("experts_4_top2", "experts_2_top1"):
            assert (run / name / "report.json").exists()
            assert (run / name / "model.ckpt").exists()


class TestEvaluate:
    def _train(self, tmp_path, big_csv, seed="7"):
        pre = tmp_path / "pre"
        assert main(["preprocess", "--dataset", str(big_csv), "--out", str(pre),
                     "--seed", "4"]) == 0
        out = tmp_path / "runs"
        assert main(["train", "--cache", str(pre / "dataset.cache"),
                     "--out", str(out), "--seed", seed, *TINY_TRAIN]) == 0
        return pre / "dataset.cache", run_dirs(out)[0] / "model.ckpt"

    def test_report_lists_classes_in_order(self, tmp_path, big_csv, capsys):
        cache, ckpt = self._train(tmp_path, big_csv)
        out = tmp_path / "eval"
        code = main(["evaluate", "--checkpoint", str(ckpt), "--cache", str(cache),
                     "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        positions = [stdout.index(name) for name in CLASS_NAMES]
        assert positions == sorted(positions)
        assert CLASS_NAMES[0] == "Benign"

    def test_report_json_roundtrip_fixed_point(self, tmp_path, big_csv):
        cache, ckpt = self._train(tmp_path, big_csv)
        out = tmp_path / "eval"
        main(["evaluate", "--checkpoint", str(ckpt), "--cache", str(cache),
              "--out", str(out)])
        from flowmoe.metrics import EvalReport
        text = (out / "evaluation_report.json").read_text()
        assert EvalReport.from_json(text).to_json() == text

    def test_evaluate_raw_csv(self, tmp_path, big_csv):
        _, ckpt = self._train(tmp_path, big_csv)
        out = tmp_path / "eval_csv"
        code = main(["evaluate", "--checkpoint", str(ckpt),
                     "--dataset", str(big_csv), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "evaluation_report.json").read_text())
        assert sum(report["support"]) == 120  # every CSV row scored

    @pytest.mark.parametrize("command", ["evaluate", "gating-report"])
    def test_raw_csv_row_scaling_to_inf_exits_4(self, tmp_path, command):
        # Dur spans 0.119 in training, so a row of 1e308 scales past the
        # largest float
        rows = fixture_rows(120)
        for i, row in enumerate(rows):
            row["Dur"] = str(i / 1000)
        _, ckpt = self._train(tmp_path, write_flow_csv(tmp_path / "narrow.csv", rows))
        rows[17]["Dur"] = "1e308"
        out = tmp_path / "eval_csv"
        far = write_flow_csv(tmp_path / "far.csv", rows)
        # the inf is refused by row, so scaling to it warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([command, "--checkpoint", str(ckpt), "--out", str(out),
                         "--dataset", str(far)])
        assert code == 4
        assert not out.exists()

    def test_schema_hash_mismatch_exits_3(self, tmp_path, big_csv):
        _, ckpt = self._train(tmp_path, big_csv)
        rows = [dict(row) for row in fixture_rows(120)]
        for row in rows:
            row["Label"] = row.pop(LABEL_COLUMN)
        columns = list(FEATURE_ORDER) + ["Label"]
        other_csv = write_flow_csv(tmp_path / "other.csv", rows, columns=columns)
        other_pre = tmp_path / "other_pre"
        assert main(["preprocess", "--dataset", str(other_csv),
                     "--label-column", "Label", "--out", str(other_pre),
                     "--seed", "4"]) == 0
        code = main(["evaluate", "--checkpoint", str(ckpt),
                     "--cache", str(other_pre / "dataset.cache"),
                     "--out", str(tmp_path / "x")])
        assert code == 3


class TestGatingReport:
    def test_utilization_summary(self, tmp_path, big_csv, capsys):
        pre = tmp_path / "pre"
        main(["preprocess", "--dataset", str(big_csv), "--out", str(pre),
              "--seed", "4"])
        out = tmp_path / "runs"
        main(["train", "--cache", str(pre / "dataset.cache"), "--out", str(out),
              "--seed", "4", *TINY_TRAIN])
        ckpt = run_dirs(out)[0] / "model.ckpt"
        report_out = tmp_path / "gating"
        code = main(["gating-report", "--checkpoint", str(ckpt),
                     "--cache", str(pre / "dataset.cache"),
                     "--out", str(report_out)])
        assert code == 0
        summary = json.loads((report_out / "gating_report.json").read_text())
        assert sum(summary["selection_counts"]) == summary["top_k"] * summary["samples"]
        assert np.isfinite(summary["importance_cv_sq"])
        assert np.isfinite(summary["load_cv_sq"])
        stdout = capsys.readouterr().out
        assert "importance CV^2" in stdout


class TestAblateCommand:
    def test_named_variants_produce_reports(self, tmp_path, big_csv):
        out = tmp_path / "runs"
        code = main(["ablate", "--dataset", str(big_csv), "--out", str(out),
                     "--seed", "4", *TINY_TRAIN])
        assert code == 0
        run = run_dirs(out)[0]
        for name in ("zero_losses", "no_moe", "no_cnn"):
            report = json.loads((run / name / "report.json").read_text())
            assert report["confusion"] is not None


class TestHostileCsv:
    """A flow CSV the reader cannot take ends every command that parses one
    in a schema error (exit 3) naming the file and the line, before any
    --out directory is made."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("hostile")
        source = write_flow_csv(base / "flows.csv", fixture_rows(120))
        out = base / "runs"
        assert main(["train", "--dataset", str(source), "--out", str(out), *TINY_TRAIN]) == 0
        lines = source.read_bytes().split(b"\n")
        first_cell = lines[30].index(b",")
        not_utf8 = base / "not_utf8.csv"  # one byte of line 31 changed
        not_utf8.write_bytes(b"\n".join(lines[:30] + [b"\xff" + lines[30][1:]] + lines[31:]))
        overlong = base / "overlong.csv"  # line 31's first cell past the reader's limit
        cell = b'"' + b"9" * (csv.field_size_limit() + 1) + b'"'
        overlong.write_bytes(b"\n".join(lines[:30] + [cell + lines[30][first_cell:]]
                                        + lines[31:]))
        return run_dirs(out)[0] / "model.ckpt", {
            not_utf8: "line 31: not UTF-8 text",
            overlong: "line 31: field larger than field limit"}

    @pytest.mark.parametrize("command", ["preprocess", "train", "evaluate", "gating-report"])
    def test_exits_3_naming_the_line_writing_nothing(self, tmp_path, inputs, caplog, command):
        checkpoint, cases = inputs
        extra = {"train": TINY_TRAIN, "evaluate": ["--checkpoint", str(checkpoint)],
                 "gating-report": ["--checkpoint", str(checkpoint)]}.get(command, [])
        for path, message in cases.items():
            out = tmp_path / path.stem
            caplog.clear()
            assert main([command, "--dataset", str(path), "--out", str(out), *extra]) == 3
            assert f"schema error: {path}, {message}" in caplog.text
            assert not out.exists()


class TestCsvWithoutRows:
    """A flow CSV with a header and no rows left to encode ends preprocess,
    train and the reports over it in a schema error (exit 3) naming the file
    and the rows skipped, before any --out directory is made."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("rowless")
        rows = fixture_rows(120)
        out = base / "runs"
        assert main(["train", "--dataset", str(write_flow_csv(base / "flows.csv", rows)),
                     "--out", str(out), *TINY_TRAIN]) == 0
        for row in rows:
            row[LABEL_COLUMN] = "not a class"
        return run_dirs(out)[0] / "model.ckpt", {
            write_flow_csv(base / "header_only.csv", []): 0,
            write_flow_csv(base / "all_skipped.csv", rows): 120}

    @pytest.mark.parametrize("command", ["preprocess", "train", "evaluate", "gating-report"])
    def test_exits_3_naming_the_file_writing_nothing(self, tmp_path, inputs, caplog, command):
        checkpoint, cases = inputs
        report = ["--checkpoint", str(checkpoint)]
        extra = {"preprocess": [], "train": TINY_TRAIN, "evaluate": report,
                 "gating-report": report}[command]
        for path, skipped in cases.items():
            out = tmp_path / path.stem
            caplog.clear()
            assert main([command, "--dataset", str(path), "--out", str(out), *extra]) == 3
            assert f"schema error: {path}: no data rows ({skipped} skipped)" in caplog.text
            assert not out.exists()


@pytest.mark.parametrize("command", ["preprocess", "train"])
def test_train_fraction_leaving_no_training_row_exits_3_writing_nothing(
        tmp_path, caplog, command):
    # 400 rows over the fixture's classes hold at most 60 rows per class,
    # and floor(0.01 * 60) = 0
    source = write_flow_csv(tmp_path / "flows.csv", fixture_rows(400))
    out = tmp_path / "out"
    extra = TINY_TRAIN if command == "train" else []
    assert main([command, "--dataset", str(source), "--out", str(out),
                 "--train-fraction", "0.01", *extra]) == 3
    assert ("schema error: train fraction 0.01 gives no class a training row: "
            "the largest class has 60 rows") in caplog.text
    assert not out.exists()


# Runs in a fresh interpreter: other test modules import scipy as an oracle.
FOOTPRINT_SCRIPT = """
import json, sys
import flowmoe
loaded = {"import": "scipy" in sys.modules}
from flowmoe.cli import main
codes = {}
for name, argv in json.loads(sys.argv[1]):
    codes[name] = main(argv)
    loaded[name] = "scipy" in sys.modules
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_no_path_loads_scipy(tmp_path, big_csv):
    runs = tmp_path / "runs"
    assert main(["train", "--dataset", str(big_csv), "--out", str(runs), *TINY_TRAIN]) == 0
    ckpt = str(run_dirs(runs)[0] / "model.ckpt")
    commands = [
        ("preprocess", ["preprocess", "--dataset", str(big_csv),
                        "--out", str(tmp_path / "pre")]),
        ("train", ["train", "--dataset", str(big_csv), "--out", str(tmp_path / "train"),
                   *TINY_TRAIN]),
        ("evaluate", ["evaluate", "--checkpoint", ckpt, "--dataset", str(big_csv),
                      "--out", str(tmp_path / "eval")]),
        ("gating-report", ["gating-report", "--checkpoint", ckpt, "--dataset", str(big_csv),
                           "--out", str(tmp_path / "gate")]),
    ]
    src = str(Path(flowmoe.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT, json.dumps(commands)],
                            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                            text=True, timeout=120, check=True)
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == {"preprocess": 0, "train": 0, "evaluate": 0, "gating-report": 0}
    assert report["loaded"] == {"import": False, "preprocess": False, "train": False,
                                "evaluate": False, "gating-report": False}

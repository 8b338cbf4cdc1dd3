"""Command-line front door: preprocess | train | evaluate | ablate | gating-report.

Options come from built-in defaults, then an optional ``key = value`` config
file, then command-line flags (flags win).  Every run echoes its effective
configuration into the output directory.  Exit codes: 0 success, 2
configuration error, 3 schema/data error, 4 runtime failure.  Set the
FLOWMOE_LOG environment variable (debug/info/warning/error) to control
verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from . import container
from .ablation import DEFAULT_CLI_GRID, NAMED_VARIANTS, ablation_config, run_ablation
from .checkpoint import check_input_shape, load_checkpoint, save_checkpoint
from .errors import (
    CacheIntegrityError,
    ConfigError,
    FlowMoeError,
    LabelError,
    SchemaError,
    StratificationError,
)
from .model import check_batch_size
from .pipeline import (
    DEFAULT_LABEL_COLUMN,
    FlowSchema,
    IMPUTATION_PROTOCOLS,
    apply_imputers,
    dataset_fingerprint,
    encode,
    load_dataset_cache,
    parse_data_rows,
    prepare_dataset,
    save_dataset_cache,
)
from .training import (
    LOSS_TERMS,
    TrainConfig,
    evaluate,
    expert_utilization,
    fit,
    history_to_json,
)

log = logging.getLogger("flowmoe.cli")

CACHE_FILENAME = "dataset.cache"
STATS_FILENAME = "pipeline_stats.json"
SUMMARY_FILENAME = "preprocess_summary.json"


class Option(NamedTuple):
    """One run option.  ``name`` is the flag without its leading dashes and
    with ``_`` for ``-``; it is also the config-file key (spelt with either)
    and the ``effective_config.txt`` key."""

    name: str
    kind: type = str
    choices: tuple | None = None
    train_field: str | None = None  # the TrainConfig field set; else RunConfig's ``name``
    bare: str | None = None  # the value of the flag given without one
    help: str | None = None

    def value(self, config: "RunConfig"):
        if self.train_field:
            return getattr(config.train, self.train_field)
        return getattr(config, self.name)


# In effective_config.txt order.  Training options take TrainConfig's defaults.
OPTIONS = {option.name: option for option in (
    Option("dataset", help="flow CSV path"),
    Option("cache", help="encoded dataset cache from 'preprocess'"),
    Option("checkpoint", help="model checkpoint path"),
    Option("label_column"),
    Option("out", help="output directory"),
    Option("imputation", choices=IMPUTATION_PROTOCOLS),
    Option("train_fraction", float),
    Option("report_format", choices=("text", "json", "both")),
    Option("ablate", choices=NAMED_VARIANTS),
    Option("expert_grid", bare="default",
           help="comma-separated n:k pairs, or bare for the default sweep"),
    Option("batch_size", int, train_field="batch_size"),
    Option("epochs", int, train_field="max_epochs"),
    Option("alpha", float, train_field="alpha"),
    Option("experts", int, train_field="n_experts"),
    Option("top_k", int, train_field="top_k"),
    Option("learning_rate", float, train_field="learning_rate"),
    Option("seed", int, train_field="seed"),
)}


@dataclass
class RunConfig:
    """Everything a command needs: its inputs, outputs and data options, and
    the run's TrainConfig (full-scale by default)."""

    dataset: str | None = None
    cache: str | None = None
    checkpoint: str | None = None
    label_column: str = DEFAULT_LABEL_COLUMN
    out: str = "runs"
    imputation: str = "leak-free"
    train_fraction: float = 0.6
    report_format: str = "both"
    ablate: str | None = None
    expert_grid: str | None = None
    train: TrainConfig = field(default_factory=TrainConfig)


def parse_config_file(path) -> dict:
    """Parse ``key = value`` lines into option values; '#' starts a comment."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"--config {path} cannot be read: {exc}") from exc
    values = {}
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{i}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        option = OPTIONS.get(key.replace("-", "_"))
        if option is None:
            raise ConfigError(f"{path}:{i}: unknown option {key!r}")
        try:
            value = option.kind(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{i}: bad value for {option.name}: {exc}") from exc
        if option.choices and value not in option.choices:  # argparse checks the flags
            raise ConfigError(f"{path}:{i}: {option.name} must be one of "
                              f"{option.choices}, got {value!r}")
        values[option.name] = value
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of defaults, then the ``--config`` file, then flags;
    every value is checked before any command touches a file."""
    values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    for name in OPTIONS:
        if getattr(args, name, None) is not None:
            values[name] = getattr(args, name)
    train = {OPTIONS[name].train_field: value for name, value in values.items()
             if OPTIONS[name].train_field}
    run = {name: value for name, value in values.items() if not OPTIONS[name].train_field}
    config = RunConfig(**run, train=TrainConfig(**train))
    if not 0.0 < config.train_fraction < 1.0:  # NaN included
        raise ConfigError(f"train_fraction must be in (0, 1), got {config.train_fraction}")
    for name in ("dataset", "cache", "checkpoint"):
        path = getattr(config, name)
        if path and not Path(path).is_file():
            raise ConfigError(f"--{name} {path} is not a file")
    out = Path(config.out)
    nearest = next(path for path in (out, *out.parents) if path.exists())
    if not nearest.is_dir():
        raise ConfigError(f"--out {out} cannot be made: {nearest} is not a directory")
    return config


def effective_config_text(config: RunConfig) -> str:
    return "".join(f"{name} = {option.value(config)}\n" for name, option in OPTIONS.items())


def _make_run_dir(config: RunConfig) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = Path(config.out)
    run_dir = base / f"run-{stamp}-seed{config.train.seed}"
    suffix = 1
    while run_dir.exists():
        run_dir = base / f"run-{stamp}-seed{config.train.seed}.{suffix}"
        suffix += 1
    run_dir.mkdir(parents=True)
    (run_dir / "effective_config.txt").write_text(effective_config_text(config))
    return run_dir


def _parse_grid(text: str):
    if text == "default":
        return DEFAULT_CLI_GRID
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            n, k = chunk.split(":")
            pair = (int(n), int(k))
        except ValueError as exc:
            raise ConfigError(
                f"bad --expert-grid entry {chunk!r}; expected n:k pairs like 64:32"
            ) from exc
        if pair in pairs:  # each pair trains into a directory named after it
            raise ConfigError(f"--expert-grid repeats the pair {pair[0]}:{pair[1]}")
        pairs.append(pair)
    if not pairs:
        raise ConfigError("--expert-grid given but no pairs parsed")
    return tuple(pairs)


def _csv_inputs(config: RunConfig) -> tuple:
    """The inputs that fix a CSV's encoded splits, in the argument order that
    ``prepare_dataset`` and ``dataset_fingerprint`` share."""
    return (config.dataset, FlowSchema(label_column=config.label_column),
            config.imputation, config.train_fraction, config.train.seed)


def _start_run(config: RunConfig):
    """A new run directory and the encoded (train, test, stats) from a cache
    file, or from the CSV, whose cache is written into the run directory.
    The directory is made only once the data has loaded."""
    if config.cache:
        train, test, header = load_dataset_cache(config.cache)
        return _make_run_dir(config), train, test, header["stats"]
    if not config.dataset:
        raise ConfigError("either --cache or --dataset is required")
    inputs = _csv_inputs(config)
    prepared = prepare_dataset(*inputs)
    fingerprint = dataset_fingerprint(*inputs)
    run_dir = _make_run_dir(config)
    save_dataset_cache(run_dir / CACHE_FILENAME, prepared, fingerprint)
    return run_dir, prepared.train, prepared.test, prepared.stats


def _save_run(run_dir: Path, model, config: TrainConfig, history, stats) -> None:
    """Write one trained model's checkpoint and history into ``run_dir``."""
    final = history[-1] if history else {}
    metadata = {
        "epochs_run": len(history),
        "final_losses": {name: final.get(name) for name in LOSS_TERMS},
        "final_train_accuracy": final.get("accuracy"),
    }
    save_checkpoint(run_dir / "model.ckpt", model, config, stats, metadata)
    (run_dir / "history.json").write_text(history_to_json(history, config))


# -- commands ------------------------------------------------------------


def cmd_preprocess(config: RunConfig) -> int:
    if not config.dataset:
        raise ConfigError("preprocess requires --dataset")
    out = Path(config.out)
    inputs = _csv_inputs(config)
    fingerprint = dataset_fingerprint(*inputs)
    cache_path = out / CACHE_FILENAME
    if cache_path.exists():
        try:
            _, _, header = load_dataset_cache(cache_path)
        except CacheIntegrityError:
            header = {}
        if header.get("fingerprint") == fingerprint:
            log.info("cache %s is up to date (fingerprint match); skipping re-encode",
                     cache_path)
            print(f"cache up to date: {cache_path}")
            return 0
    prepared = prepare_dataset(*inputs)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset_cache(cache_path, prepared, fingerprint)
    (out / STATS_FILENAME).write_text(prepared.stats.to_json())
    (out / SUMMARY_FILENAME).write_text(container.json_text(prepared.summary))
    print(f"encoded {prepared.summary['rows_parsed']} rows "
          f"({prepared.summary['train_rows']} train / {prepared.summary['test_rows']} test) "
          f"into {cache_path}")
    for name, count in prepared.summary["rows_per_class"].items():
        print(f"  {name:<22} {count}")
    return 0


def _run_variants(config: RunConfig, variants) -> int:
    """Train and evaluate each variant into its own subdirectory of one run
    directory (checkpoint, history, report), printing one summary row each."""
    base = config.train
    # an impossible (n, k) pair or batch size fails before any file is written
    for variant in variants:
        effective = ablation_config(base, variant)
        check_batch_size(effective, effective.batch_size)
    run_dir, train_set, test_set, stats = _start_run(config)
    print(f"{'variant':<24} {'accuracy':>10} {'weighted F1':>12}")
    for variant in variants:
        result = run_ablation(base, variant, train_set, test_set)
        sub = run_dir / result.variant
        sub.mkdir()
        _save_run(sub, result.model, result.config, result.history, stats)
        (sub / "report.json").write_text(result.report.to_json())
        print(f"{result.variant:<24} {result.report.accuracy:>10.5f} "
              f"{result.report.weighted_f1:>12.5f}")
    return 0


def cmd_train(config: RunConfig) -> int:
    if config.expert_grid:
        if config.ablate:
            raise ConfigError("train takes --ablate or --expert-grid, not both; "
                              "`flowmoe ablate` runs a variant and a grid together")
        pairs = _parse_grid(config.expert_grid)
        log.info("running expert grid over %s", pairs)
        return _run_variants(config, pairs)
    base = ablation_config(config.train, config.ablate) if config.ablate else config.train
    check_batch_size(base, base.batch_size)  # before any file is written
    run_dir, train_set, _, stats = _start_run(config)
    model, history = fit(train_set, base)
    _save_run(run_dir, model, base, history, stats)
    print(f"trained {base.max_epochs} epoch(s); checkpoint at {run_dir / 'model.ckpt'}")
    return 0


def _evaluation_data(config: RunConfig):
    """Dataset for evaluate/gating-report: cache test split, or a CSV encoded
    with the checkpoint's frozen statistics (labels never consulted for
    imputation)."""
    if not config.checkpoint:
        raise ConfigError("--checkpoint is required")
    loaded = load_checkpoint(config.checkpoint)
    if config.cache:
        _, test, header = load_dataset_cache(config.cache)
        if loaded.pipeline_stats is not None:
            if loaded.pipeline_stats.schema_hash != header["schema_hash"]:
                raise SchemaError(
                    "schema hash mismatch between checkpoint "
                    f"({loaded.pipeline_stats.schema_hash[:12]}...) and cache "
                    f"({header['schema_hash'][:12]}...)"
                )
        else:
            log.warning("checkpoint carries no pipeline stats; skipping schema check")
        check_input_shape(config.checkpoint, loaded.config, header["sample_shape"],
                          f"the cache {config.cache}")
        return loaded, test
    if config.dataset:
        if loaded.pipeline_stats is None:
            raise ConfigError(
                "checkpoint has no pipeline statistics; cannot encode a raw CSV"
            )
        stats = loaded.pipeline_stats
        table = parse_data_rows(config.dataset, stats.schema).table
        apply_imputers(table, stats.imputation, stats.schema, use_labels=False)
        return loaded, encode(table, stats)
    raise ConfigError("--cache or --dataset is required")


def cmd_evaluate(config: RunConfig) -> int:
    loaded, data = _evaluation_data(config)
    report = evaluate(loaded.model, data, batch_size=config.train.batch_size)
    path = Path(config.out) / "evaluation_report.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if config.report_format in ("text", "both"):
        print("== evaluation ==")
        print(report.format_table())
    path.write_text(report.to_json())
    if config.report_format in ("json", "both"):
        print(f"report written to {path}")
    return 0


def cmd_ablate(config: RunConfig) -> int:
    variants: list = [config.ablate] if config.ablate else list(NAMED_VARIANTS)
    if config.expert_grid:
        variants.extend(_parse_grid(config.expert_grid))
    return _run_variants(config, variants)


def cmd_gating_report(config: RunConfig) -> int:
    loaded, data = _evaluation_data(config)
    summary = expert_utilization(loaded.model, data, batch_size=config.train.batch_size)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "gating_report.json").write_text(container.json_text(summary))
    print(f"experts: {summary['n_experts']}  top-k: {summary['top_k']}  "
          f"samples: {summary['samples']}")
    print(f"importance CV^2: {summary['importance_cv_sq']:.6f}  "
          f"load CV^2: {summary['load_cv_sq']:.6f}")
    print(f"{'expert':>6} {'importance':>12} {'selected':>10} {'load est.':>12}")
    for i in range(summary["n_experts"]):
        print(f"{i:>6} {summary['importance'][i]:>12.4f} "
              f"{summary['selection_counts'][i]:>10d} {summary['load_estimate'][i]:>12.4f}")
    return 0


# -- entry point ----------------------------------------------------------


def _common_flags() -> argparse.ArgumentParser:
    """``--config`` plus one flag per option, as a parent every subcommand shares."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file; flags override it")
    for option in OPTIONS.values():
        help_text = option.help
        if option.train_field:
            help_text = (f"TrainConfig.{option.train_field} "
                         f"(default {getattr(TrainConfig, option.train_field)})")
        common.add_argument("--" + option.name.replace("_", "-"), dest=option.name,
                            type=option.kind, choices=option.choices,
                            nargs="?" if option.bare else None, const=option.bare,
                            help=help_text)
    return common


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowmoe",
        description="Flow-based intrusion detection with a CNN + "
                    "mixture-of-experts classifier.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()
    for name, func, blurb in (
        ("preprocess", cmd_preprocess, "encode a flow CSV into a dataset cache"),
        ("train", cmd_train, "train a model (optionally an ablation variant or grid)"),
        ("evaluate", cmd_evaluate, "evaluate a checkpoint and print the report"),
        ("ablate", cmd_ablate, "run the ablation variants and/or expert grid"),
        ("gating-report", cmd_gating_report, "per-expert utilization of a checkpoint"),
    ):
        commands.add_parser(name, help=blurb, parents=[common]).set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("FLOWMOE_LOG", "info").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = build_run_config(args)
        return args.func(config)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return 2
    except (SchemaError, LabelError, StratificationError) as exc:
        log.error("schema error: %s", exc)
        return 3
    except FlowMoeError as exc:
        log.error("runtime failure: %s", exc)
        return 4


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()

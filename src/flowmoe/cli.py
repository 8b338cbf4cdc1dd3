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
import dataclasses
import functools
import json
import logging
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .ablation import DEFAULT_CLI_GRID, NAMED_VARIANTS, ablation_config, run_ablation
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import (
    CacheIntegrityError,
    ConfigError,
    FlowMoeError,
    LabelError,
    SchemaError,
    StratificationError,
)
from .pipeline import (
    DEFAULT_LABEL_COLUMN,
    FlowSchema,
    IMPUTATION_PROTOCOLS,
    PipelineStats,
    apply_imputers,
    dataset_fingerprint,
    encode,
    load_dataset_cache,
    parse_flow_csv,
    prepare_dataset,
    save_dataset_cache,
)
from .training import (
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

# Allowed values of the options that take one, whether set by flag or config file.
_CHOICES = {
    "imputation": IMPUTATION_PROTOCOLS,
    "report_format": ("text", "json", "both"),
    "ablate": NAMED_VARIANTS,
}


@dataclass
class RunConfig:
    """Everything a command needs; training fields default to the
    full-scale setup (128 experts, k=32, alpha 0.1, batch 1024, 40 epochs)."""

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
    batch_size: int = 1024
    epochs: int = 40
    alpha: float = 0.1
    experts: int = 128
    top_k: int = 32
    learning_rate: float = 1e-3
    seed: int = 0

    @functools.cached_property
    def train_config(self) -> TrainConfig:
        """The library config of the training fields, checked once by
        :func:`build_run_config` before any command runs."""
        return TrainConfig(
            batch_size=self.batch_size,
            max_epochs=self.epochs,
            alpha=self.alpha,
            n_experts=self.experts,
            top_k=self.top_k,
            learning_rate=self.learning_rate,
            seed=self.seed,
        )


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def parse_config_file(path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
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
        key = key.replace("-", "_")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{i}: unknown option {key!r}")
        try:
            values[key] = _coerce(key, raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{i}: bad value for {key}: {exc}") from exc
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    merged = {}
    if getattr(args, "config", None):
        merged.update(parse_config_file(args.config))
    for name in _FIELD_TYPES:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            merged[name] = flag_value
    config = RunConfig(**merged)
    for name, allowed in _CHOICES.items():
        value = getattr(config, name)
        if value is not None and value not in allowed:
            raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
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
    config.train_config  # built, and so checked, before any command touches a file
    return config


def effective_config_text(config: RunConfig) -> str:
    lines = [f"{field.name} = {getattr(config, field.name)}"
             for field in dataclasses.fields(RunConfig)]
    return "\n".join(lines) + "\n"


def _make_run_dir(config: RunConfig) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = Path(config.out)
    run_dir = base / f"run-{stamp}-seed{config.seed}"
    suffix = 1
    while run_dir.exists():
        run_dir = base / f"run-{stamp}-seed{config.seed}.{suffix}"
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
            pairs.append((int(n), int(k)))
        except ValueError as exc:
            raise ConfigError(
                f"bad --expert-grid entry {chunk!r}; expected n:k pairs like 64:32"
            ) from exc
    if not pairs:
        raise ConfigError("--expert-grid given but no pairs parsed")
    return tuple(pairs)


def _load_splits(config: RunConfig, run_dir: Path):
    """Encoded (train, test, stats) from a cache file, or from the CSV, whose
    cache is then written into ``run_dir``."""
    if config.cache:
        train, test, header = load_dataset_cache(config.cache)
        stats = PipelineStats.from_dict(header["stats"])
        return train, test, stats
    if not config.dataset:
        raise ConfigError("either --cache or --dataset is required")
    schema = FlowSchema(label_column=config.label_column)
    prepared = prepare_dataset(
        config.dataset, schema, protocol=config.imputation,
        train_fraction=config.train_fraction, seed=config.seed,
    )
    fingerprint = dataset_fingerprint(
        config.dataset, schema, config.imputation, config.train_fraction, config.seed)
    save_dataset_cache(run_dir / CACHE_FILENAME, prepared, fingerprint)
    return prepared.train, prepared.test, prepared.stats


def _save_run(run_dir: Path, model, config: TrainConfig, history, stats) -> None:
    """Write one trained model's checkpoint and history into ``run_dir``."""
    final = history[-1] if history else {}
    metadata = {
        "epochs_run": len(history),
        "final_losses": {k: final.get(k) for k in
                         ("total", "cross_entropy", "importance", "load")},
        "final_train_accuracy": final.get("accuracy"),
    }
    save_checkpoint(run_dir / "model.ckpt", model, config, stats, metadata)
    (run_dir / "history.json").write_text(history_to_json(history, config))


# -- commands ------------------------------------------------------------


def cmd_preprocess(config: RunConfig) -> int:
    if not config.dataset:
        raise ConfigError("preprocess requires --dataset")
    out = Path(config.out)
    schema = FlowSchema(label_column=config.label_column)
    fingerprint = dataset_fingerprint(
        config.dataset, schema, config.imputation, config.train_fraction, config.seed)
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
    prepared = prepare_dataset(
        config.dataset, schema, protocol=config.imputation,
        train_fraction=config.train_fraction, seed=config.seed,
    )
    out.mkdir(parents=True, exist_ok=True)
    save_dataset_cache(cache_path, prepared, fingerprint)
    (out / STATS_FILENAME).write_text(prepared.stats.to_json())
    (out / SUMMARY_FILENAME).write_text(json.dumps(prepared.summary, indent=2, sort_keys=True))
    print(f"encoded {prepared.summary['rows_parsed']} rows "
          f"({prepared.summary['train_rows']} train / {prepared.summary['test_rows']} test) "
          f"into {cache_path}")
    for name, count in prepared.summary["rows_per_class"].items():
        print(f"  {name:<22} {count}")
    return 0


def _run_variants(config: RunConfig, variants) -> int:
    """Train and evaluate each variant into its own subdirectory of one run
    directory (checkpoint, history, report), printing one summary row each."""
    base = config.train_config
    for variant in variants:  # an impossible (n, k) pair fails before any file is written
        ablation_config(base, variant)
    run_dir = _make_run_dir(config)
    train_set, test_set, stats = _load_splits(config, run_dir)
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
        pairs = _parse_grid(config.expert_grid)
        log.info("running expert grid over %s", pairs)
        return _run_variants(config, pairs)
    run_dir = _make_run_dir(config)
    train_set, _, stats = _load_splits(config, run_dir)
    base = config.train_config
    if config.ablate:
        base = ablation_config(base, config.ablate)
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
        return loaded, test
    if config.dataset:
        if loaded.pipeline_stats is None:
            raise ConfigError(
                "checkpoint has no pipeline statistics; cannot encode a raw CSV"
            )
        stats = loaded.pipeline_stats
        parsed = parse_flow_csv(config.dataset, stats.schema)
        table = apply_imputers(parsed.table, stats.imputation, stats.schema,
                               use_labels=False)
        return loaded, encode(table, stats)
    raise ConfigError("--cache or --dataset is required")


def cmd_evaluate(config: RunConfig) -> int:
    loaded, data = _evaluation_data(config)
    report = evaluate(loaded.model, data, batch_size=config.batch_size)
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
    summary = expert_utilization(loaded.model, data, batch_size=config.batch_size)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "gating_report.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
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


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value config file; flags override it")
    sub.add_argument("--dataset", help="flow CSV path")
    sub.add_argument("--cache", help="encoded dataset cache from 'preprocess'")
    sub.add_argument("--label-column", dest="label_column")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--imputation", choices=_CHOICES["imputation"])
    sub.add_argument("--train-fraction", dest="train_fraction", type=float)
    sub.add_argument("--report-format", dest="report_format",
                     choices=_CHOICES["report_format"])
    sub.add_argument("--seed", type=int)
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--experts", type=int)
    sub.add_argument("--top-k", dest="top_k", type=int)
    sub.add_argument("--learning-rate", dest="learning_rate", type=float)
    sub.add_argument("--ablate", choices=_CHOICES["ablate"])
    sub.add_argument("--expert-grid", dest="expert_grid", nargs="?", const="default",
                     help="comma-separated n:k pairs, or bare for the default sweep")
    sub.add_argument("--checkpoint", help="model checkpoint path")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowmoe",
        description="Flow-based intrusion detection with a CNN + "
                    "mixture-of-experts classifier.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, func, blurb in (
        ("preprocess", cmd_preprocess, "encode a flow CSV into a dataset cache"),
        ("train", cmd_train, "train a model (optionally an ablation variant or grid)"),
        ("evaluate", cmd_evaluate, "evaluate a checkpoint and print the report"),
        ("ablate", cmd_ablate, "run the ablation variants and/or expert grid"),
        ("gating-report", cmd_gating_report, "per-expert utilization of a checkpoint"),
    ):
        sub = commands.add_parser(name, help=blurb)
        _add_common_flags(sub)
        sub.set_defaults(func=func)
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

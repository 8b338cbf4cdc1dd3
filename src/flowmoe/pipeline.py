"""Flow-record preprocessing: CSV parsing, imputation, scaling, encoding.

The schema mirrors the 5G-NIDD combined flow CSV: 43 numeric features and 5
categorical features whose drop-first one-hot encodings bring the total to
exactly 78 values per record, reshaped row-major into a 6x13 matrix.

All statistics (min/max ranges, category vocabularies, imputation values)
are fitted on training rows only and frozen; encoding held-out data never
mutates them.  Imputation follows the per-class rule (numeric features get
the class mean, categorical the class mode), with label-free global
fallbacks for data whose labels must not be consulted.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import container
from .errors import CacheIntegrityError, ConfigError, SchemaError, StratificationError
from .tensor import RngState

log = logging.getLogger("flowmoe.pipeline")

NUMERIC_FEATURES = (
    "Seq", "Dur", "RunTime", "Mean", "Sum", "Min", "Max", "sTos", "dTos",
    "sTtl", "dTtl", "sHops", "dHops", "TotPkts", "SrcPkts", "DstPkts",
    "TotBytes", "SrcBytes", "DstBytes", "Offset", "sMeanPktSz", "dMeanPktSz",
    "Load", "SrcLoad", "DstLoad", "Loss", "SrcLoss", "DstLoss", "pLoss",
    "SrcGap", "DstGap", "Rate", "SrcRate", "DstRate", "SrcWin", "DstWin",
    "sVid", "dVid", "SrcTCPBase", "DstTCPBase", "TcpRtt", "SynAck", "AckDat",
)

# Post-encoding widths of the categorical features (vocabulary size minus
# the dropped first level).
CATEGORICAL_WIDTHS = {"Proto": 7, "sDSb": 11, "dDSb": 5, "Cause": 2, "State": 10}

# Column order of the flow CSV.
FEATURE_ORDER = (
    "Seq", "Dur", "RunTime", "Mean", "Sum", "Min", "Max", "Proto", "sTos",
    "dTos", "sDSb", "dDSb", "sTtl", "dTtl", "sHops", "dHops", "Cause",
    "TotPkts", "SrcPkts", "DstPkts", "TotBytes", "SrcBytes", "DstBytes",
    "Offset", "sMeanPktSz", "dMeanPktSz", "Load", "SrcLoad", "DstLoad",
    "Loss", "SrcLoss", "DstLoss", "pLoss", "SrcGap", "DstGap", "Rate",
    "SrcRate", "DstRate", "State", "SrcWin", "DstWin", "sVid", "dVid",
    "SrcTCPBase", "DstTCPBase", "TcpRtt", "SynAck", "AckDat",
)

CLASS_NAMES = (
    "Benign", "SYN Scan", "TCP Connect Scan", "UDP Scan", "ICPM flood",
    "UDP flood", "SYN flood", "HTTP flood", "Slow rate DoS",
)

DEFAULT_LABEL_COLUMN = "Attack Type"

# Published copies of the dataset spell some labels differently from the
# class list used in reports; both spellings resolve to the same class.
_LABEL_ALIASES = {"icmpflood": "icpmflood"}

_MISSING_MARKERS = {"", "nan", "na", "null", "none", "-"}

IMPUTATION_PROTOCOLS = ("leak-free", "verbatim")


def _canon(label: str) -> str:
    key = "".join(ch for ch in label.lower() if ch.isalnum())
    return _LABEL_ALIASES.get(key, key)


@dataclass(frozen=True)
class FlowSchema:
    """Feature layout of the flow CSV and its encoded form."""

    numeric_features: tuple = NUMERIC_FEATURES
    categorical_widths: dict = field(default_factory=lambda: dict(CATEGORICAL_WIDTHS))
    feature_order: tuple = FEATURE_ORDER
    label_column: str = DEFAULT_LABEL_COLUMN
    class_names: tuple = CLASS_NAMES
    target_shape: tuple = (6, 13)

    def __post_init__(self):
        expected = self.target_shape[0] * self.target_shape[1]
        if self.total_width != expected:
            raise SchemaError(
                f"schema encodes to {self.total_width} values but the target "
                f"matrix holds {expected}"
            )

    @property
    def total_width(self) -> int:
        return len(self.numeric_features) + sum(self.categorical_widths.values())

    @property
    def categorical_features(self) -> tuple:
        return tuple(f for f in self.feature_order if f in self.categorical_widths)

    @functools.cached_property
    def _class_of(self) -> dict:
        """Canonical class name -> index; the first of duplicate names wins."""
        index: dict = {}
        for i, name in enumerate(self.class_names):
            index.setdefault(_canon(name), i)
        return index

    def label_index(self, raw: str) -> int | None:
        return self._class_of.get(_canon(raw))

    def to_dict(self) -> dict:
        return {
            "numeric_features": list(self.numeric_features),
            "categorical_widths": dict(self.categorical_widths),
            "feature_order": list(self.feature_order),
            "label_column": self.label_column,
            "class_names": list(self.class_names),
            "target_shape": list(self.target_shape),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "FlowSchema":
        return cls(
            numeric_features=tuple(raw["numeric_features"]),
            categorical_widths=dict(raw["categorical_widths"]),
            feature_order=tuple(raw["feature_order"]),
            label_column=raw["label_column"],
            class_names=tuple(raw["class_names"]),
            target_shape=tuple(raw["target_shape"]),
        )

    def schema_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class FlowRecord:
    """One typed flow row: feature name -> float, str, or None (missing)."""

    values: dict
    label: int | None = None


@dataclass
class ParseResult:
    records: list
    skipped: list  # (line number, reason) pairs


def parse_flow_csv(path, schema: FlowSchema) -> ParseResult:
    """Read and type a flow CSV.

    Unknown columns are ignored; a missing schema column is a hard error.
    Rows with an unparseable or infinite numeric cell (``inf``, or a value
    such as ``1e400`` that overflows) or an unknown label are skipped with a
    logged warning and show up in the result's skipped list.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        required = list(schema.feature_order) + [schema.label_column]
        for column in required:
            if column not in header:
                raise SchemaError(f"CSV is missing required column {column!r}")
        records: list[FlowRecord] = []
        skipped: list[tuple[int, str]] = []
        numeric = set(schema.numeric_features)
        label_of: dict = {}  # raw label -> class index (or None), memoised
        for row in reader:
            line = reader.line_num
            values: dict = {}
            problem = None
            for feature in schema.feature_order:
                cell = (row[feature] or "").strip()
                if cell.lower() in _MISSING_MARKERS:
                    values[feature] = None
                elif feature in numeric:
                    try:
                        value = float(cell)
                    except ValueError:
                        problem = f"unparseable numeric cell {feature}={cell!r}"
                        break
                    if math.isinf(value):
                        problem = f"non-finite numeric cell {feature}={cell!r}"
                        break
                    # any spelling of NaN (e.g. "-nan") is a missing cell
                    values[feature] = None if math.isnan(value) else value
                else:
                    values[feature] = cell
            if problem is None:
                raw_label = (row[schema.label_column] or "").strip()
                if raw_label not in label_of:
                    label_of[raw_label] = schema.label_index(raw_label)
                label = label_of[raw_label]
                if label is None:
                    problem = f"unknown class label {raw_label!r}"
            if problem is not None:
                skipped.append((line, problem))
                log.warning("skipping line %d: %s", line, problem)
                continue
            records.append(FlowRecord(values=values, label=label))
    if skipped:
        log.warning("skipped %d of %d rows while parsing %s",
                    len(skipped), len(skipped) + len(records), path)
    return ParseResult(records=records, skipped=skipped)


@dataclass
class ImputationTable:
    """Per-class means/modes with label-free global fallbacks."""

    class_numeric_mean: dict
    class_categorical_mode: dict
    global_numeric_mean: dict
    global_categorical_mode: dict

    def to_dict(self) -> dict:
        return {
            "class_numeric_mean": self.class_numeric_mean,
            "class_categorical_mode": self.class_categorical_mode,
            "global_numeric_mean": self.global_numeric_mean,
            "global_categorical_mode": self.global_categorical_mode,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ImputationTable":
        return cls(**raw)


def _mode(values: list) -> str:
    """Most frequent value; ties broken by the lexicographically smallest."""
    counts: dict[str, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    top = max(counts.values())
    return min(v for v, c in counts.items() if c == top)


def fit_imputers(records, schema: FlowSchema) -> ImputationTable:
    """Fit the per-class imputation rule on (training) records.

    Numeric features impute with the class mean, categorical ones with the
    class mode.  A (class, feature) pair with no observed values falls back
    to the global statistic with a warning.
    """
    numeric = schema.numeric_features
    categorical = schema.categorical_features
    by_class: dict[int, list[FlowRecord]] = {}
    for rec in records:
        by_class.setdefault(rec.label, []).append(rec)

    global_numeric: dict[str, float] = {}
    for feat in numeric:
        observed = [r.values[feat] for r in records if r.values[feat] is not None]
        if observed:
            global_numeric[feat] = float(np.mean(observed))
        else:
            log.warning("feature %s has no observed values at all; imputing 0.0", feat)
            global_numeric[feat] = 0.0
    global_categorical: dict[str, str] = {}
    for feat in categorical:
        observed = [r.values[feat] for r in records if r.values[feat] is not None]
        if observed:
            global_categorical[feat] = _mode(observed)
        else:
            log.warning("feature %s has no observed values at all; imputing ''", feat)
            global_categorical[feat] = ""

    class_numeric: dict[str, dict] = {}
    class_categorical: dict[str, dict] = {}
    for label, recs in sorted(by_class.items()):
        name = schema.class_names[label]
        class_numeric[name] = {}
        class_categorical[name] = {}
        for feat in numeric:
            observed = [r.values[feat] for r in recs if r.values[feat] is not None]
            if observed:
                class_numeric[name][feat] = float(np.mean(observed))
            else:
                log.warning("class %s has no observed %s; using global mean", name, feat)
                class_numeric[name][feat] = global_numeric[feat]
        for feat in categorical:
            observed = [r.values[feat] for r in recs if r.values[feat] is not None]
            if observed:
                class_categorical[name][feat] = _mode(observed)
            else:
                log.warning("class %s has no observed %s; using global mode", name, feat)
                class_categorical[name][feat] = global_categorical[feat]

    return ImputationTable(
        class_numeric_mean=class_numeric,
        class_categorical_mode=class_categorical,
        global_numeric_mean=global_numeric,
        global_categorical_mode=global_categorical,
    )


def apply_imputers(records, table: ImputationTable, schema: FlowSchema,
                   use_labels: bool) -> list:
    """Fill missing values; returns new records, never mutates the input.

    With use_labels the per-class statistics are used (training data); without,
    the global fallbacks apply, so held-out labels are never consulted.
    """
    numeric = set(schema.numeric_features)
    out = []
    for rec in records:
        filled = dict(rec.values)
        class_name = None
        if use_labels and rec.label is not None:
            class_name = schema.class_names[rec.label]
        for feat, value in filled.items():
            if value is not None:
                continue
            if feat in numeric:
                if class_name is not None and class_name in table.class_numeric_mean:
                    filled[feat] = table.class_numeric_mean[class_name][feat]
                else:
                    filled[feat] = table.global_numeric_mean[feat]
            else:
                if class_name is not None and class_name in table.class_categorical_mode:
                    filled[feat] = table.class_categorical_mode[class_name][feat]
                else:
                    filled[feat] = table.global_categorical_mode[feat]
        out.append(FlowRecord(values=filled, label=rec.label))
    return out


@dataclass
class PipelineStats:
    """Everything needed to encode new rows exactly like the training split."""

    schema: FlowSchema
    numeric_min: dict
    numeric_max: dict
    vocab: dict  # feature -> categories in first-seen order; vocab[f][0] is dropped
    imputation: ImputationTable
    fitted_on: int

    @property
    def schema_hash(self) -> str:
        return self.schema.schema_hash()

    def encoded_widths(self) -> dict:
        widths = {feat: 1 for feat in self.schema.numeric_features}
        for feat in self.schema.categorical_features:
            widths[feat] = max(len(self.vocab.get(feat, [])) - 1, 0)
        return widths

    def to_dict(self) -> dict:
        return {
            "schema": self.schema.to_dict(),
            "schema_hash": self.schema_hash,
            "numeric_min": self.numeric_min,
            "numeric_max": self.numeric_max,
            "vocab": self.vocab,
            "imputation": self.imputation.to_dict(),
            "fitted_on": self.fitted_on,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineStats":
        return cls(
            schema=FlowSchema.from_dict(raw["schema"]),
            numeric_min=raw["numeric_min"],
            numeric_max=raw["numeric_max"],
            vocab=raw["vocab"],
            imputation=ImputationTable.from_dict(raw["imputation"]),
            fitted_on=raw["fitted_on"],
        )


def fit_pipeline_stats(records, schema: FlowSchema,
                       imputation: ImputationTable) -> PipelineStats:
    """Freeze min/max ranges and category vocabularies from training rows."""
    numeric_min: dict[str, float] = {}
    numeric_max: dict[str, float] = {}
    for feat in schema.numeric_features:
        observed = [r.values[feat] for r in records if r.values[feat] is not None]
        if not observed:
            numeric_min[feat] = 0.0
            numeric_max[feat] = 0.0
        else:
            numeric_min[feat] = float(min(observed))
            numeric_max[feat] = float(max(observed))
    vocab: dict[str, list] = {feat: [] for feat in schema.categorical_features}
    for rec in records:
        for feat in schema.categorical_features:
            value = rec.values[feat]
            if value is not None and value not in vocab[feat]:
                vocab[feat].append(value)
    return PipelineStats(
        schema=schema,
        numeric_min=numeric_min,
        numeric_max=numeric_max,
        vocab=vocab,
        imputation=imputation,
        fitted_on=len(records),
    )


@dataclass
class EncodedDataset:
    """Model-ready samples: 6x13 matrices with their class indices."""

    x: np.ndarray        # (n, 6, 13)
    y: np.ndarray        # (n,)
    class_names: tuple

    def __len__(self) -> int:
        return self.x.shape[0]


def encode(records, stats: PipelineStats) -> EncodedDataset:
    """Scale, one-hot, concatenate to 78 values, and reshape to 6x13.

    Numeric features map to (x - min) / (max - min) with zero-width training
    ranges collapsing to 0.  Categorical features use the frozen drop-first
    vocabulary; unseen (or still-missing) categories encode as all zeros.
    The total width is checked against the schema on every call and a drift
    fails loudly with the per-feature widths.
    """
    schema = stats.schema
    widths = stats.encoded_widths()
    total = sum(widths.values())
    if total != schema.total_width:
        raise SchemaError(
            f"encoded width {total} != schema width {schema.total_width}; "
            f"per-feature widths: {widths}"
        )
    numeric = set(schema.numeric_features)
    flat = np.zeros((len(records), total))
    cursor = 0
    for feat in schema.feature_order:
        column = [rec.values[feat] for rec in records]
        if feat in numeric:
            if None in column:
                raise SchemaError(
                    f"numeric feature {feat} is missing; run imputation before encode"
                )
            lo, hi = stats.numeric_min[feat], stats.numeric_max[feat]
            if hi != lo:
                flat[:, cursor] = (np.asarray(column, dtype=np.float64) - lo) / (hi - lo)
        else:
            # the first level is dropped, so vocab[i] sets slot i - 1
            slots = {value: i for i, value in enumerate(stats.vocab[feat][1:])}
            slot = np.asarray([slots.get(value, -1) for value in column], dtype=np.int64)
            hit = np.nonzero(slot >= 0)[0]
            flat[hit, cursor + slot[hit]] = 1.0
        cursor += widths[feat]
    return EncodedDataset(
        x=flat.reshape(len(records), *schema.target_shape),
        y=np.asarray([rec.label for rec in records], dtype=np.int64),
        class_names=tuple(schema.class_names),
    )


def stratified_split(items, train_fraction: float = 0.6, seed: int = 0):
    """Deterministic per-class split preserving class proportions.

    Each class contributes floor(fraction * count) items to the training
    side; the remainder goes to test.  Output order follows the input order
    within each side.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    items = list(items)
    labels = np.asarray([item.label for item in items])
    rng = RngState(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for cls in np.unique(labels):
        idx = np.nonzero(labels == cls)[0]
        if idx.size < 2:
            raise StratificationError(
                f"class {cls} has {idx.size} sample(s); need at least 2 to split"
            )
        shuffled = idx[rng.permutation(idx.size)]
        n_train = int(np.floor(train_fraction * idx.size))
        train_idx.extend(shuffled[:n_train].tolist())
        test_idx.extend(shuffled[n_train:].tolist())
    train_idx.sort()
    test_idx.sort()
    return [items[i] for i in train_idx], [items[i] for i in test_idx]


@dataclass
class PreparedData:
    train: EncodedDataset
    test: EncodedDataset
    stats: PipelineStats
    summary: dict


def prepare_dataset(csv_path, schema: FlowSchema | None = None,
                    protocol: str = "leak-free", train_fraction: float = 0.6,
                    seed: int = 0) -> PreparedData:
    """Full preprocessing: parse, impute, split, fit, encode.

    Protocols differ only in imputation.  "verbatim" imputes per class on
    the full dataset before splitting (the published protocol, which leaks
    label statistics into held-out features).  "leak-free" (default) splits
    first, fits imputers on the training rows, and fills held-out rows from
    the global fallbacks.  Scaling and vocabularies always come from the
    training split alone.
    """
    schema = schema or FlowSchema()
    if protocol not in IMPUTATION_PROTOCOLS:
        raise ConfigError(
            f"unknown imputation protocol {protocol!r}; expected one of {IMPUTATION_PROTOCOLS}"
        )
    parsed = parse_flow_csv(csv_path, schema)
    records = parsed.records
    if protocol == "verbatim":
        table = fit_imputers(records, schema)
        filled = apply_imputers(records, table, schema, use_labels=True)
        train_records, test_records = stratified_split(filled, train_fraction, seed)
    else:
        train_records, test_records = stratified_split(records, train_fraction, seed)
        table = fit_imputers(train_records, schema)
        train_records = apply_imputers(train_records, table, schema, use_labels=True)
        test_records = apply_imputers(test_records, table, schema, use_labels=False)
    stats = fit_pipeline_stats(train_records, schema, table)
    train = encode(train_records, stats)
    test = encode(test_records, stats)

    class_counts = {name: 0 for name in schema.class_names}
    for rec in records:
        class_counts[schema.class_names[rec.label]] += 1
    missing_counts = {feat: 0 for feat in schema.feature_order}
    for rec in records:
        for feat, value in rec.values.items():
            if value is None:
                missing_counts[feat] += 1
    summary = {
        "protocol": protocol,
        "train_fraction": train_fraction,
        "seed": seed,
        "rows_parsed": len(records),
        "rows_skipped": len(parsed.skipped),
        "rows_per_class": class_counts,
        "missing_values_per_feature": {k: v for k, v in missing_counts.items() if v},
        "train_rows": len(train),
        "test_rows": len(test),
    }
    return PreparedData(train=train, test=test, stats=stats, summary=summary)


# -- encoded-dataset cache ---------------------------------------------------

_CACHE_MAGIC = b"FMDCACHE"
_CACHE_VERSION = 1


def dataset_fingerprint(csv_path, schema: FlowSchema, protocol: str,
                        train_fraction: float, seed: int) -> str:
    """Hash of the inputs that determine the encoded dataset."""
    digest = hashlib.sha256()
    digest.update(Path(csv_path).read_bytes())
    meta = json.dumps(
        {"protocol": protocol, "train_fraction": train_fraction, "seed": seed,
         "schema": schema.schema_hash()},
        sort_keys=True,
    )
    digest.update(meta.encode())
    return digest.hexdigest()


def save_dataset_cache(path, prepared: PreparedData, fingerprint: str = "") -> None:
    """Versioned binary cache of the encoded train/test splits."""
    header = {
        "schema_hash": prepared.stats.schema_hash,
        "fingerprint": fingerprint,
        "class_names": list(prepared.stats.schema.class_names),
        "n_train": len(prepared.train),
        "n_test": len(prepared.test),
        "sample_shape": list(prepared.stats.schema.target_shape),
        "summary": prepared.summary,
        "stats": prepared.stats.to_dict(),
    }
    container.write(path, _CACHE_MAGIC, _CACHE_VERSION, header, (
        np.ascontiguousarray(array, dtype=dtype)
        for dataset in (prepared.train, prepared.test)
        for array, dtype in ((dataset.x, np.float64), (dataset.y, np.int64))))


def load_dataset_cache(path):
    """Load a cache file; returns (train, test, header dict).

    Besides the sizes, the header's ``stats`` must parse into PipelineStats
    and its ``schema_hash`` and ``fingerprint`` must be strings, so callers
    can read those keys unchecked.
    """
    header, body = container.read(path, _CACHE_MAGIC, _CACHE_VERSION,
                                  CacheIntegrityError, CacheIntegrityError)
    try:
        n_train, n_test = header["n_train"], header["n_test"]
        rows, cols = header["sample_shape"]
        class_names = tuple(header["class_names"])
        PipelineStats.from_dict(header["stats"])
    except (KeyError, TypeError, ValueError, SchemaError) as exc:
        raise CacheIntegrityError(f"{path}: malformed cache header ({exc!r})") from exc
    if not all(isinstance(header.get(key), str) for key in ("schema_hash", "fingerprint")):
        raise CacheIntegrityError(f"{path}: cache header lacks a string schema_hash "
                                  "or fingerprint")
    specs = [("<f8", [n_train, rows, cols]), ("<i8", [n_train]),
             ("<f8", [n_test, rows, cols]), ("<i8", [n_test])]
    train_x, train_y, test_x, test_y = container.arrays(
        body, specs, lambda message: CacheIntegrityError(f"{path}: {message}"))
    return (EncodedDataset(x=train_x, y=train_y, class_names=class_names),
            EncodedDataset(x=test_x, y=test_y, class_names=class_names), header)

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
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import container
from .errors import CacheIntegrityError, ConfigError, SchemaError, StratificationError
from .tensor import RngState

log = logging.getLogger("flowmoe.pipeline")

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

NUMERIC_FEATURES = tuple(f for f in FEATURE_ORDER if f not in CATEGORICAL_WIDTHS)

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
        return asdict(self)

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
class FlowTable:
    """Typed flow rows by column: ``numeric`` is (len(numeric_features), n)
    float64, each feature's row contiguous, NaN where missing;
    ``categorical`` maps a feature to an (n,) object array of strings, None
    where missing; ``labels`` holds the int64 class indices."""

    numeric: np.ndarray
    categorical: dict
    labels: np.ndarray

    def __len__(self) -> int:
        return self.labels.shape[0]

    def take(self, index) -> "FlowTable":
        """A copy holding the rows at the integer positions ``index``."""
        index = np.asarray(index, dtype=np.intp)
        return FlowTable(numeric=self.numeric[:, index],
                         categorical={f: col[index] for f, col in self.categorical.items()},
                         labels=self.labels[index])


@dataclass
class ParseResult:
    table: FlowTable
    skipped: list  # (line number, reason) pairs
    schema: FlowSchema

    @property
    def records(self) -> list:
        """The table as one FlowRecord per row, built anew on each access."""
        table, order = self.table, self.schema.feature_order
        columns = dict(zip(self.schema.numeric_features,
                           np.where(np.isnan(table.numeric), None, table.numeric)),
                       **table.categorical)
        rows = zip(*(columns[feat].tolist() for feat in order))
        return [FlowRecord(dict(zip(order, cells)), label)
                for cells, label in zip(rows, table.labels.tolist())]


# Rows typed per block, so that at most this many rows are held as strings.
_BLOCK_ROWS = 8192


def _parse_numeric(cells, feature: str, problems: dict) -> np.ndarray:
    """Floats of one numeric column, NaN where missing; the first problem of
    each bad row goes into ``problems``."""
    floats, rest = [], iter(cells)
    while True:
        try:
            # float() runs over the cells at C speed; a cell it rejects stops
            # the extend with the values before it already appended
            floats.extend(map(float, rest))
            break
        except ValueError:
            k = len(floats)
            floats.append(math.nan)
            text = cells[k].strip()
            if text.lower() not in _MISSING_MARKERS:
                problems.setdefault(k, f"unparseable numeric cell {feature}={text!r}")
    values = np.array(floats, dtype=np.float64)
    # any spelling of NaN (e.g. "-nan") is a missing cell; an infinity is not
    for k in np.flatnonzero(np.isinf(values)).tolist():
        problems.setdefault(k, f"non-finite numeric cell {feature}={cells[k].strip()!r}")
    return values


def _parse_block(rows: list, lines: list, schema: FlowSchema, position: dict,
                 skipped: list) -> FlowTable:
    """The well-formed rows of one block; the others go into ``skipped``."""
    # a short row reads as missing cells, as csv.DictReader's restval does
    width = max(position.values()) + 1
    if rows and min(map(len, rows)) < width:
        rows = [row + [""] * (width - len(row)) for row in rows]
    columns = list(zip(*rows)) or [()] * width
    problems: dict = {}  # row -> its first problem in feature order
    numeric_row = {feat: j for j, feat in enumerate(schema.numeric_features)}
    numeric = np.empty((len(numeric_row), len(rows)))
    categorical = {}
    for feat in schema.feature_order:
        cells = columns[position[feat]]
        if feat in numeric_row:
            numeric[numeric_row[feat]] = _parse_numeric(cells, feat, problems)
        else:
            typed = {cell: None if cell.strip().lower() in _MISSING_MARKERS else cell.strip()
                     for cell in set(cells)}
            categorical[feat] = np.array([typed[cell] for cell in cells], dtype=object)
    cells = columns[position[schema.label_column]]
    label_of = {cell: schema.label_index(cell) for cell in set(cells)}
    label_of = {cell: -1 if label is None else label for cell, label in label_of.items()}
    labels = np.array([label_of[cell] for cell in cells], dtype=np.int64)
    for k in np.flatnonzero(labels < 0).tolist():
        problems.setdefault(k, f"unknown class label {cells[k].strip()!r}")
    for k in sorted(problems):
        skipped.append((lines[k], problems[k]))
        log.warning("skipping line %d: %s", lines[k], problems[k])
    keep = np.ones(len(rows), dtype=bool)
    keep[list(problems)] = False
    return FlowTable(numeric=numeric[:, keep],
                     categorical={f: col[keep] for f, col in categorical.items()},
                     labels=labels[keep])


def parse_flow_csv(path, schema: FlowSchema) -> ParseResult:
    """Read and type a flow CSV into a FlowTable, a block of rows at a time.

    Unknown columns are ignored, a missing schema column is a hard error, and
    the last of repeated columns counts.  Rows with an unparseable or infinite
    numeric cell (``inf``, or a value such as ``1e400`` that overflows) or an
    unknown label are skipped with a logged warning and listed in the result;
    the reason names the first bad numeric cell in feature order, else the label.
    """
    blocks, skipped = [], []
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        required = list(schema.feature_order) + [schema.label_column]
        for column in required:
            if column not in header:
                raise SchemaError(f"CSV is missing required column {column!r}")
        position = {name: i for i, name in enumerate(header) if name in required}
        rows, lines, line = [], [], 0
        for row in reader:
            # csv.DictReader's numbering: a row after blank lines gets the first's
            line = line or reader.line_num
            if row:
                rows.append(row)
                lines.append(line)
                line = 0
            if len(rows) == _BLOCK_ROWS:
                blocks.append(_parse_block(rows, lines, schema, position, skipped))
                rows, lines = [], []
        blocks.append(_parse_block(rows, lines, schema, position, skipped))
    table = FlowTable(
        numeric=np.concatenate([b.numeric for b in blocks], axis=1),
        categorical={f: np.concatenate([b.categorical[f] for b in blocks])
                     for f in schema.categorical_features},
        labels=np.concatenate([b.labels for b in blocks]))
    if skipped:
        log.warning("skipped %d of %d rows while parsing %s",
                    len(skipped), len(skipped) + len(table), path)
    return ParseResult(table=table, skipped=skipped, schema=schema)


@dataclass
class ImputationTable:
    """Per-class means/modes with label-free global fallbacks."""

    class_numeric_mean: dict
    class_categorical_mode: dict
    global_numeric_mean: dict
    global_categorical_mode: dict


def fit_imputers(table: FlowTable, schema: FlowSchema) -> ImputationTable:
    """Fit the per-class imputation rule on (training) rows.

    Numeric features impute with the class mean, categorical ones with the
    class mode (ties broken by the lexicographically smallest).  A (class,
    feature) pair with no observed values falls back to the global statistic
    with a warning.
    """
    observed = ~np.isnan(table.numeric)
    # each categorical column as codes into its sorted levels, so that the
    # smallest code among the most frequent is the tie-break
    coded = {}
    for feat, column in table.categorical.items():
        present = np.not_equal(column, None)
        code = {level: i for i, level in enumerate(sorted(set(column[present])))}
        codes = np.array([code[v] for v in column[present]], dtype=np.intp)
        coded[feat] = list(code), codes, present

    def fit(rows, means: dict, modes: dict, warn) -> tuple:
        """Means and modes over ``rows``, in place of the given fallbacks;
        ``warn`` hears of each feature that keeps its fallback."""
        means, modes = dict(means), dict(modes)
        for j, feat in enumerate(schema.numeric_features):
            # np.mean of the gathered 1-D values sums pairwise in row order
            values = table.numeric[j][observed[j] & rows]
            if values.size:
                means[feat] = float(np.mean(values))
            else:
                warn(feat, "mean", means[feat])
        for feat, (levels, codes, present) in coded.items():
            counts = np.bincount(codes[rows[present]], minlength=len(levels))
            if counts.any():
                modes[feat] = levels[counts.argmax()]
            else:
                warn(feat, "mode", modes[feat])
        return means, modes

    global_numeric, global_categorical = fit(
        np.ones(len(table), dtype=bool), dict.fromkeys(schema.numeric_features, 0.0),
        dict.fromkeys(schema.categorical_features, ""),
        lambda feat, _, value: log.warning(
            "feature %s has no observed values at all; imputing %r", feat, value))
    class_numeric, class_categorical = {}, {}
    for label in np.unique(table.labels).tolist():
        name = schema.class_names[label]
        class_numeric[name], class_categorical[name] = fit(
            table.labels == label, global_numeric, global_categorical,
            lambda feat, kind, _: log.warning(
                "class %s has no observed %s; using global %s", name, feat, kind))
    return ImputationTable(class_numeric, class_categorical,
                           global_numeric, global_categorical)


def apply_imputers(table: FlowTable, imputation: ImputationTable, schema: FlowSchema,
                   use_labels: bool) -> FlowTable:
    """Fill missing values; returns a new table, never mutates the input.

    With use_labels the per-class statistics are used (training data); without,
    the global fallbacks apply, so held-out labels are never consulted.
    """
    def fill(column, missing, by_class: dict, fallback: dict, feat: str) -> np.ndarray:
        """A copy of ``column`` with each missing cell set to its class's value."""
        values = [by_class[name][feat] if use_labels and name in by_class else fallback[feat]
                  for name in schema.class_names]
        column = column.copy()
        column[missing] = np.array(values, dtype=column.dtype)[table.labels[missing]]
        return column

    numeric = np.array([fill(row, np.isnan(row), imputation.class_numeric_mean,
                             imputation.global_numeric_mean, feat)
                        for feat, row in zip(schema.numeric_features, table.numeric)])
    categorical = {
        feat: fill(column, np.equal(column, None), imputation.class_categorical_mode,
                   imputation.global_categorical_mode, feat)
        for feat, column in table.categorical.items()}
    return FlowTable(numeric=numeric.reshape(table.numeric.shape), categorical=categorical,
                     labels=table.labels.copy())


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
        return {**asdict(self), "schema_hash": self.schema_hash}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineStats":
        return cls(
            schema=FlowSchema.from_dict(raw["schema"]),
            numeric_min=raw["numeric_min"],
            numeric_max=raw["numeric_max"],
            vocab=raw["vocab"],
            imputation=ImputationTable(**raw["imputation"]),
            fitted_on=raw["fitted_on"],
        )


def fit_pipeline_stats(table: FlowTable, schema: FlowSchema,
                       imputation: ImputationTable) -> PipelineStats:
    """Freeze min/max ranges and category vocabularies from training rows."""
    observed = [row[~np.isnan(row)] for row in table.numeric]
    # the first of equal extremes, as Python's min and max keep: it fixes a zero's sign
    numeric_min = {feat: float(values[values.argmin()]) if values.size else 0.0
                   for feat, values in zip(schema.numeric_features, observed)}
    numeric_max = {feat: float(values[values.argmax()]) if values.size else 0.0
                   for feat, values in zip(schema.numeric_features, observed)}
    vocab = {feat: list(dict.fromkeys(column[np.not_equal(column, None)].tolist()))
             for feat, column in table.categorical.items()}
    return PipelineStats(schema=schema, numeric_min=numeric_min, numeric_max=numeric_max,
                         vocab=vocab, imputation=imputation, fitted_on=len(table))


@dataclass
class EncodedDataset:
    """Model-ready samples: 6x13 matrices with their class indices."""

    x: np.ndarray        # (n, 6, 13)
    y: np.ndarray        # (n,)
    class_names: tuple

    def __len__(self) -> int:
        return self.x.shape[0]


def encode(table: FlowTable, stats: PipelineStats) -> EncodedDataset:
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
        raise SchemaError(f"encoded width {total} != schema width {schema.total_width}; "
                          f"per-feature widths: {widths}")
    numeric_row = {feat: j for j, feat in enumerate(schema.numeric_features)}
    flat = np.zeros((len(table), total))
    cursor = 0
    for feat in schema.feature_order:
        if feat in numeric_row:
            column = table.numeric[numeric_row[feat]]
            if np.isnan(column).any():
                raise SchemaError(f"numeric feature {feat} is missing; "
                                  "run imputation before encode")
            lo, hi = stats.numeric_min[feat], stats.numeric_max[feat]
            if hi != lo:
                flat[:, cursor] = (column - lo) / (hi - lo)
        else:
            # the first level is dropped, so vocab[i] sets slot i - 1
            slots = {value: i for i, value in enumerate(stats.vocab[feat][1:])}
            slot = np.asarray([slots.get(value, -1) for value in table.categorical[feat]],
                              dtype=np.int64)
            hit = np.nonzero(slot >= 0)[0]
            flat[hit, cursor + slot[hit]] = 1.0
        cursor += widths[feat]
    return EncodedDataset(
        x=flat.reshape(len(table), *schema.target_shape),
        y=table.labels.astype(np.int64),
        class_names=tuple(schema.class_names),
    )


def stratified_split(table: FlowTable, train_fraction: float = 0.6, seed: int = 0):
    """Deterministic per-class split preserving class proportions.

    Each class contributes floor(fraction * count) rows to the training
    side; the remainder goes to test.  Output order follows the input order
    within each side.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = RngState(seed)
    train_idx, test_idx = [], []
    for cls in np.unique(table.labels):
        idx = np.nonzero(table.labels == cls)[0]
        if idx.size < 2:
            raise StratificationError(f"class {cls} has {idx.size} sample(s); "
                                      "need at least 2 to split")
        shuffled = idx[rng.permutation(idx.size)]
        n_train = int(np.floor(train_fraction * idx.size))
        train_idx.extend(shuffled[:n_train].tolist())
        test_idx.extend(shuffled[n_train:].tolist())
    return table.take(sorted(train_idx)), table.take(sorted(test_idx))


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
        raise ConfigError(f"unknown imputation protocol {protocol!r}; "
                          f"expected one of {IMPUTATION_PROTOCOLS}")
    parsed = parse_flow_csv(csv_path, schema)
    table = parsed.table
    if protocol == "verbatim":
        imputation = fit_imputers(table, schema)
        filled = apply_imputers(table, imputation, schema, use_labels=True)
        train_table, test_table = stratified_split(filled, train_fraction, seed)
    else:
        train_table, test_table = stratified_split(table, train_fraction, seed)
        imputation = fit_imputers(train_table, schema)
        train_table = apply_imputers(train_table, imputation, schema, use_labels=True)
        test_table = apply_imputers(test_table, imputation, schema, use_labels=False)
    stats = fit_pipeline_stats(train_table, schema, imputation)
    train = encode(train_table, stats)
    test = encode(test_table, stats)

    class_counts = dict.fromkeys(schema.class_names, 0)
    counts = np.bincount(table.labels, minlength=len(schema.class_names))
    for name, count in zip(schema.class_names, counts.tolist()):
        class_counts[name] += count  # a repeated class name sums its counts
    missing = dict(zip(schema.numeric_features, np.isnan(table.numeric).sum(axis=1).tolist()))
    missing.update((f, int(np.equal(col, None).sum())) for f, col in table.categorical.items())
    summary = {
        "protocol": protocol,
        "train_fraction": train_fraction,
        "seed": seed,
        "rows_parsed": len(table),
        "rows_skipped": len(parsed.skipped),
        "rows_per_class": class_counts,
        "missing_values_per_feature": {f: missing[f] for f in schema.feature_order
                                       if missing[f]},
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
    digest = hashlib.sha256(Path(csv_path).read_bytes())
    digest.update(json.dumps({"protocol": protocol, "train_fraction": train_fraction,
                              "seed": seed, "schema": schema.schema_hash()},
                             sort_keys=True).encode())
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
    # one copy each, as the views lie unaligned within the file's bytes
    train_x, train_y, test_x, test_y = (np.array(view) for view in container.arrays(
        body, specs, lambda message: CacheIntegrityError(f"{path}: {message}")))
    return (EncodedDataset(x=train_x, y=train_y, class_names=class_names),
            EncodedDataset(x=test_x, y=test_y, class_names=class_names), header)

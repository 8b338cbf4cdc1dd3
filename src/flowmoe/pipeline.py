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

    numeric_features: tuple[str, ...] = NUMERIC_FEATURES
    categorical_widths: dict[str, int] = field(default_factory=CATEGORICAL_WIDTHS.copy)
    feature_order: tuple[str, ...] = FEATURE_ORDER
    label_column: str = DEFAULT_LABEL_COLUMN
    class_names: tuple[str, ...] = CLASS_NAMES
    target_shape: tuple[int, ...] = (6, 13)

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

    def schema_hash(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True)
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
    ``categorical`` is (len(categorical_features), n) int32 codes, -1 where
    missing, and ``levels`` holds one dict per categorical feature from each
    stripped string to its code; ``labels`` holds the int64 class indices.

    Codes never change once given, so tables taken from one another share
    ``levels`` and a new string may be appended to it."""

    numeric: np.ndarray
    categorical: np.ndarray
    levels: list
    labels: np.ndarray

    def __len__(self) -> int:
        return self.labels.shape[0]

    def take(self, index) -> "FlowTable":
        """A copy holding the rows at the integer positions ``index``."""
        index = np.asarray(index, dtype=np.intp)
        return FlowTable(numeric=self.numeric[:, index], categorical=self.categorical[:, index],
                         levels=self.levels, labels=self.labels[index])


@dataclass
class ParseResult:
    table: FlowTable
    skipped: list  # (line number, reason) pairs
    schema: FlowSchema

    @property
    def records(self) -> list:
        """The table as one FlowRecord per row, built anew on each access."""
        table, schema = self.table, self.schema
        # each code's string, and a trailing None that code -1 picks
        strings = [np.array([*levels, None], dtype=object)[codes]
                   for levels, codes in zip(table.levels, table.categorical)]
        columns = dict(zip(schema.numeric_features,
                           np.where(np.isnan(table.numeric), None, table.numeric)),
                       **dict(zip(schema.categorical_features, strings)))
        rows = zip(*(columns[feat].tolist() for feat in schema.feature_order))
        return [FlowRecord(dict(zip(schema.feature_order, cells)), label)
                for cells, label in zip(rows, table.labels.tolist())]


# Rows typed per block, so that at most this many rows are held as strings.
_BLOCK_ROWS = 2048


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
                 levels: list, skipped: list) -> FlowTable:
    """The well-formed rows of one block; the others go into ``skipped``.
    A categorical string not yet in ``levels`` gets the next code there."""
    # a short row reads as missing cells, as csv.DictReader's restval does
    width = max(position.values()) + 1
    if rows and min(map(len, rows)) < width:
        rows = [row + [""] * (width - len(row)) for row in rows]
    columns = list(zip(*rows)) or [()] * width
    problems: dict = {}  # row -> its first problem in feature order
    numeric_row = {feat: j for j, feat in enumerate(schema.numeric_features)}
    numeric = np.empty((len(numeric_row), len(rows)))
    for feat in schema.feature_order:
        if feat in numeric_row:
            numeric[numeric_row[feat]] = _parse_numeric(columns[position[feat]], feat, problems)
    categorical = np.empty((len(levels), len(rows)), dtype=np.int32)
    for feat, codes, known in zip(schema.categorical_features, categorical, levels):
        cells = columns[position[feat]]
        # first-seen order, so that codes do not depend on string hashing
        code = {cell: -1 if cell.strip().lower() in _MISSING_MARKERS
                else known.setdefault(cell.strip(), len(known)) for cell in dict.fromkeys(cells)}
        codes[:] = np.fromiter(map(code.__getitem__, cells), np.int32, len(cells))
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
    return FlowTable(numeric=numeric[:, keep], categorical=categorical[:, keep],
                     levels=levels, labels=labels[keep])


def _first_non_utf8_line(path) -> int:
    """The number of the first line of ``path`` that is not UTF-8.  The
    decoder runs ahead of the CSV reader by a buffer, so the reader's line
    count can stop short of it."""
    with Path(path).open("rb") as handle:
        for number, line in enumerate(handle, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return 0


def parse_flow_csv(path, schema: FlowSchema) -> ParseResult:
    """Read and type a flow CSV into a FlowTable, a block of rows at a time.

    Unknown columns are ignored, a missing schema column is a hard error, and
    the last of repeated columns counts.  Rows with an unparseable or infinite
    numeric cell (``inf``, or a value such as ``1e400`` that overflows) or an
    unknown label are skipped with a logged warning and listed in the result
    under the physical line the row ends on; the reason names the first bad
    numeric cell in feature order, else the label.  A file that is not UTF-8
    text, or that the CSV reader refuses (a cell longer than
    ``csv.field_size_limit()``), raises :class:`SchemaError` naming the
    file and the line reached.
    """
    blocks, skipped = [], []
    levels = [{} for _ in schema.categorical_features]  # shared, so blocks join as they are
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            required = list(schema.feature_order) + [schema.label_column]
            for column in required:
                if column not in header:
                    raise SchemaError(f"CSV is missing required column {column!r}")
            position = {name: i for i, name in enumerate(header) if name in required}
            rows, lines = [], []
            for row in reader:
                if row:
                    rows.append(row)
                    lines.append(reader.line_num)
                if len(rows) == _BLOCK_ROWS:
                    blocks.append(_parse_block(rows, lines, schema, position, levels, skipped))
                    rows, lines = [], []
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}, line {_first_non_utf8_line(path)}: not UTF-8 text "
                              f"({exc.reason})") from None
        except csv.Error as exc:
            raise SchemaError(f"{path}, line {reader.line_num}: {exc}") from None
        blocks.append(_parse_block(rows, lines, schema, position, levels, skipped))
    table = FlowTable(numeric=np.concatenate([b.numeric for b in blocks], axis=1),
                      categorical=np.concatenate([b.categorical for b in blocks], axis=1),
                      levels=levels, labels=np.concatenate([b.labels for b in blocks]))
    if skipped:
        log.warning("skipped %d of %d rows while parsing %s",
                    len(skipped), len(skipped) + len(table), path)
    return ParseResult(table=table, skipped=skipped, schema=schema)


def parse_data_rows(path, schema: FlowSchema) -> ParseResult:
    """:func:`parse_flow_csv` for a CSV that must hold data: one with no
    rows left after parsing raises :class:`SchemaError` naming the file and
    the rows skipped."""
    parsed = parse_flow_csv(path, schema)
    if len(parsed.table) == 0:
        raise SchemaError(f"{path}: no data rows ({len(parsed.skipped)} skipped)")
    return parsed


@dataclass
class ImputationTable:
    """Per-class means/modes with label-free global fallbacks."""

    class_numeric_mean: dict[str, dict[str, float]]
    class_categorical_mode: dict[str, dict[str, str]]
    global_numeric_mean: dict[str, float]
    global_categorical_mode: dict[str, str]


def fit_imputers(table: FlowTable, schema: FlowSchema) -> ImputationTable:
    """Fit the per-class imputation rule on the rows of a (training) table.

    Numeric features impute with the class mean, categorical ones with the
    class mode (ties broken by the lexicographically smallest).  A (class,
    feature) pair with no observed values falls back to the global statistic
    with a warning.
    """
    classes = [(schema.class_names[label], table.labels == label)
               for label in np.unique(table.labels).tolist()]
    global_numeric, global_categorical = {}, {}
    class_numeric = {name: {} for name, _ in classes}
    class_categorical = {name: {} for name, _ in classes}

    def fit(feat, statistic, kind: str, fallback, overall: dict, by_class: dict) -> None:
        """``statistic(members)`` over all rows (members None), then over each
        class's; one with no observed value keeps the fallback, with a warning."""
        value = statistic(None)
        if value is None:
            value = fallback
            log.warning("feature %s has no observed values at all; imputing %r", feat, value)
        overall[feat] = value
        for name, members in classes:
            found = statistic(members)
            if found is None:
                log.warning("class %s has no observed %s; using global %s", name, feat, kind)
            by_class[name][feat] = value if found is None else found

    for feat, column in zip(schema.numeric_features, table.numeric):
        observed = ~np.isnan(column)

        def mean(members):
            # np.mean of the gathered 1-D values sums pairwise in row order
            values = column[observed if members is None else observed & members]
            return float(np.mean(values)) if values.size else None
        fit(feat, mean, "mean", 0.0, global_numeric, class_numeric)
    for feat, column, levels in zip(schema.categorical_features, table.categorical, table.levels):
        present = column >= 0
        # each code's rank among the sorted levels, so that the smallest rank
        # among the most frequent is the tie-break
        names = sorted(levels)
        rank = np.empty(len(names), dtype=np.intp)
        rank[[levels[name] for name in names]] = np.arange(len(names))
        ranks = rank[column[present]]

        def mode(members):
            counts = np.bincount(ranks if members is None else ranks[members[present]],
                                 minlength=len(names))
            return names[counts.argmax()] if counts.any() else None
        fit(feat, mode, "mode", "", global_categorical, class_categorical)
    return ImputationTable(class_numeric, class_categorical,
                           global_numeric, global_categorical)


def apply_imputers(table: FlowTable, imputation: ImputationTable, schema: FlowSchema,
                   use_labels: bool) -> None:
    """Fill the missing cells of the table in place.

    With use_labels the per-class statistics are used (training data); without,
    the global fallbacks apply, so held-out labels are never consulted.
    """
    def fill(column, is_missing, by_class: dict, fallback: dict, feat: str,
             code=lambda value: value) -> None:
        """Set each missing cell of ``column`` to the code of its class's value."""
        values = [code(by_class[name][feat] if use_labels and name in by_class
                       else fallback[feat]) for name in schema.class_names]
        missing = is_missing(column)
        column[missing] = np.array(values, dtype=column.dtype)[table.labels[missing]]

    for feat, column in zip(schema.numeric_features, table.numeric):
        fill(column, np.isnan, imputation.class_numeric_mean,
             imputation.global_numeric_mean, feat)
    for feat, column, levels in zip(schema.categorical_features, table.categorical, table.levels):
        # a value the table has not seen (as a mode frozen from other data may
        # be) becomes its next level
        fill(column, lambda codes: codes < 0, imputation.class_categorical_mode,
             imputation.global_categorical_mode, feat,
             lambda mode: levels.setdefault(mode, len(levels)))


@dataclass
class PipelineStats:
    """Everything needed to encode new rows exactly like the training split."""

    schema: FlowSchema
    numeric_min: dict[str, float]
    numeric_max: dict[str, float]
    vocab: dict[str, list[str]]  # categories in first-seen order; vocab[f][0] is dropped
    imputation: ImputationTable
    fitted_on: int

    def __post_init__(self):
        """Each table names exactly the schema's numeric or categorical features."""
        imp = self.imputation
        numeric = {"numeric_min": self.numeric_min, "numeric_max": self.numeric_max,
                   "global_numeric_mean": imp.global_numeric_mean, **imp.class_numeric_mean}
        categorical = {"vocab": self.vocab, "global_categorical_mode": imp.global_categorical_mode,
                       **imp.class_categorical_mode}  # a class's tables go by its name
        for features, tables in ((set(self.schema.numeric_features), numeric),
                                 (set(self.schema.categorical_features), categorical)):
            for name, table in tables.items():
                if table.keys() != features:
                    raise SchemaError(f"{name} statistics: missing features "
                                      f"{sorted(features - table.keys())}, "
                                      f"unknown {sorted(table.keys() - features)}")

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

    def to_json(self) -> str:
        return container.json_text(self.to_dict())

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineStats":
        """Inverse of :meth:`to_dict` for decoded JSON; the derived
        ``schema_hash`` is ignored."""
        if isinstance(raw, dict):
            raw = {key: value for key, value in raw.items() if key != "schema_hash"}
        return container.decode(cls, raw, "pipeline_stats")


def fit_pipeline_stats(table: FlowTable, schema: FlowSchema,
                       imputation: ImputationTable) -> PipelineStats:
    """Freeze min/max ranges and category vocabularies from a training table."""
    numeric_min, numeric_max = {}, {}
    for feat, values in zip(schema.numeric_features, table.numeric):
        values = values[~np.isnan(values)]
        # the first of equal extremes, as Python's min and max keep: it fixes a zero's sign
        numeric_min[feat] = float(values[values.argmin()]) if values.size else 0.0
        numeric_max[feat] = float(values[values.argmax()]) if values.size else 0.0
    vocab = {}
    for feat, column, levels in zip(schema.categorical_features, table.categorical, table.levels):
        # the present codes in the order of their first row
        found, first = np.unique(column, return_index=True)
        names = list(levels)
        vocab[feat] = [names[code] for code in found[np.argsort(first)].tolist() if code >= 0]
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
    """Scale, one-hot, concatenate to 78 values, and reshape each row to 6x13.

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
    n = len(table)
    x = np.zeros((n, *schema.target_shape))
    flat = x.reshape(n, total)  # a view: each feature is written straight into x
    cursor = 0
    for feat in schema.feature_order:
        if feat in numeric_row:
            column = table.numeric[numeric_row[feat]]
            if np.isnan(column).any():
                raise SchemaError(f"numeric feature {feat} is missing; "
                                  "run imputation before encode")
            lo, hi = stats.numeric_min[feat], stats.numeric_max[feat]
            if hi != lo:
                # halved operands keep both differences finite for any finite
                # range; halving a normal float is exact, so the quotient is
                # otherwise that of (column - lo) / (hi - lo).  A held-out value
                # far outside the range may still scale to inf, which predict
                # refuses by row, so the overflow is not warned about here.
                with np.errstate(over="ignore"):
                    flat[:, cursor] = (0.5 * column - 0.5 * lo) / (0.5 * hi - 0.5 * lo)
        else:
            # the first level is dropped, so vocab[i] sets slot i - 1; each
            # code looks its slot up, and code -1 the trailing no-slot
            slots = {value: i for i, value in enumerate(stats.vocab[feat][1:])}
            j = schema.categorical_features.index(feat)
            slot = np.array([*(slots.get(level, -1) for level in table.levels[j]), -1],
                            dtype=np.intp)[table.categorical[j]]
            hit = np.nonzero(slot >= 0)[0]
            flat[hit, cursor + slot[hit]] = 1.0
        cursor += widths[feat]
    return EncodedDataset(
        x=x,
        y=table.labels.astype(np.int64),
        class_names=tuple(schema.class_names),
    )


def stratified_split(table: FlowTable, train_fraction: float = 0.6, seed: int = 0):
    """Deterministic per-class split preserving class proportions; returns
    the sorted row positions ``(train_idx, test_idx)`` into ``table``.

    Each class contributes floor(fraction * count) rows to the training
    side; the remainder goes to test.  A fraction that leaves the training
    side empty raises StratificationError.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = RngState(seed)
    in_train = np.zeros(len(table), dtype=bool)
    largest = 0
    for cls in np.unique(table.labels):
        idx = np.nonzero(table.labels == cls)[0]
        if idx.size < 2:
            raise StratificationError(f"class {cls} has {idx.size} sample(s); "
                                      "need at least 2 to split")
        largest = max(largest, idx.size)
        shuffled = idx[rng.permutation(idx.size)]
        n_train = int(np.floor(train_fraction * idx.size))
        in_train[shuffled[:n_train]] = True
    if largest and not in_train.any():
        raise StratificationError(
            f"train fraction {train_fraction} gives no class a training row: the "
            f"largest class has {largest} rows")
    return np.flatnonzero(in_train), np.flatnonzero(~in_train)


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
    first, fits imputers on the training table, and fills the held-out table
    from the global fallbacks.  Each split is copied into its own table with
    ``FlowTable.take``, so every stage runs on a whole table; scaling and
    vocabularies always come from the training table alone.  A CSV with no
    rows left after parsing raises :class:`SchemaError`.
    """
    schema = schema or FlowSchema()
    if protocol not in IMPUTATION_PROTOCOLS:
        raise ConfigError(f"unknown imputation protocol {protocol!r}; "
                          f"expected one of {IMPUTATION_PROTOCOLS}")
    parsed = parse_data_rows(csv_path, schema)
    table = parsed.table
    class_counts = dict.fromkeys(schema.class_names, 0)
    counts = np.bincount(table.labels, minlength=len(schema.class_names))
    for name, count in zip(schema.class_names, counts.tolist()):
        class_counts[name] += count  # a repeated class name sums its counts
    # counted before imputation fills the table in place
    missing = dict(zip(schema.numeric_features, np.isnan(table.numeric).sum(axis=1).tolist()))
    missing.update(zip(schema.categorical_features, (table.categorical < 0).sum(axis=1).tolist()))
    summary = {
        "protocol": protocol,
        "train_fraction": train_fraction,
        "seed": seed,
        "rows_parsed": len(table),
        "rows_skipped": len(parsed.skipped),
        "rows_per_class": class_counts,
        "missing_values_per_feature": {f: missing[f] for f in schema.feature_order
                                       if missing[f]},
    }
    if protocol == "verbatim":
        imputation = fit_imputers(table, schema)
        apply_imputers(table, imputation, schema, use_labels=True)
    train_table, test_table = (table.take(idx)
                               for idx in stratified_split(table, train_fraction, seed))
    # each split holds its own copy of its rows: the whole table is released
    # here, and the train table once its split is encoded
    del parsed, table
    if protocol == "leak-free":
        imputation = fit_imputers(train_table, schema)
        apply_imputers(train_table, imputation, schema, use_labels=True)
        apply_imputers(test_table, imputation, schema, use_labels=False)
    stats = fit_pipeline_stats(train_table, schema, imputation)
    train = encode(train_table, stats)
    del train_table
    test = encode(test_table, stats)
    summary.update(train_rows=len(train), test_rows=len(test))
    return PreparedData(train=train, test=test, stats=stats, summary=summary)


# -- encoded-dataset cache ---------------------------------------------------

_CACHE_MAGIC = b"FMDCACHE"
_CACHE_VERSION = 1


def dataset_fingerprint(csv_path, schema: FlowSchema, protocol: str,
                        train_fraction: float, seed: int) -> str:
    """Hash of the inputs that determine the encoded dataset."""
    digest = hashlib.sha256()
    with Path(csv_path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    digest.update(json.dumps({"protocol": protocol, "train_fraction": train_fraction,
                              "seed": seed, "schema": schema.schema_hash()},
                             sort_keys=True).encode())
    return digest.hexdigest()


def first_non_finite_row(x: np.ndarray) -> int | None:
    """Index of the first row (along axis 0) of ``x`` holding a NaN or an
    infinite cell, or None when every cell is finite."""
    # min and max propagate NaN, so two reductions see every cell without a mask
    if not x.size or np.isfinite([x.min(), x.max()]).all():
        return None
    return int(np.flatnonzero(~np.isfinite(x.reshape(len(x), -1)).all(axis=1))[0])


def _check_split(path, split: str, data: EncodedDataset, n_classes: int) -> None:
    """Raise CacheIntegrityError, naming ``split`` and its first bad row, if
    ``data.x`` holds a non-finite cell or ``data.y`` a label outside
    [0, n_classes)."""
    x, y = data.x, data.y
    row = first_non_finite_row(x)
    if row is not None:
        raise CacheIntegrityError(f"{path}: {split} row {row} has a non-finite feature")
    if y.size and not (y.min() >= 0 and y.max() < n_classes):
        row = np.flatnonzero((y < 0) | (y >= n_classes))[0]
        raise CacheIntegrityError(f"{path}: {split} row {row} has label {y[row]} "
                                  f"outside [0, {n_classes})")


def save_dataset_cache(path, prepared: PreparedData, fingerprint: str = "") -> None:
    """Versioned binary cache of the encoded train/test splits; a split with
    a non-finite feature or a label that is not a class index is refused."""
    n_classes = len(prepared.stats.schema.class_names)
    _check_split(path, "train", prepared.train, n_classes)
    _check_split(path, "test", prepared.test, n_classes)
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

    Besides the sizes, the header's ``stats`` must decode into the
    PipelineStats it then holds, and its ``schema_hash`` and ``fingerprint``
    must be strings, so callers can read those keys unchecked.  Every
    feature must be finite and every label a class index.
    """
    header, body = container.read(path, _CACHE_MAGIC, _CACHE_VERSION,
                                  CacheIntegrityError, CacheIntegrityError)
    try:
        n_train, n_test = header["n_train"], header["n_test"]
        rows, cols = header["sample_shape"]
        class_names = tuple(header["class_names"])
        header["stats"] = PipelineStats.from_dict(header["stats"])
    except (KeyError, TypeError, ValueError, SchemaError) as exc:
        raise CacheIntegrityError(f"{path}: malformed cache header ({exc!r})") from exc
    if not all(isinstance(header.get(key), str) for key in ("schema_hash", "fingerprint")):
        raise CacheIntegrityError(f"{path}: cache header lacks a string schema_hash "
                                  "or fingerprint")
    specs = [("<f8", [n_train, rows, cols]), ("<i8", [n_train]),
             ("<f8", [n_test, rows, cols]), ("<i8", [n_test])]
    # aligned, writable views of the one buffer the file was read into; a
    # caller that keeps one split keeps the whole body alive
    train_x, train_y, test_x, test_y = container.arrays(
        body, specs, lambda message: CacheIntegrityError(f"{path}: {message}"),
        writable=True)
    train = EncodedDataset(x=train_x, y=train_y, class_names=class_names)
    test = EncodedDataset(x=test_x, y=test_y, class_names=class_names)
    _check_split(path, "train", train, len(class_names))
    _check_split(path, "test", test, len(class_names))
    return train, test, header

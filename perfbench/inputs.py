"""Seeded input generators for the benchmark.

Every generator takes the workload seed and returns the same inputs for the
same seed.  The program only ever sees what these functions produce.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Category spellings in the style of Argus flow exports.  Each list has
# one entry more than the schema's encoded width for that column (the first
# level is dropped by the encoder), so a file that uses all of them encodes
# to the full 78 values.
VOCABS = {
    "Proto": ["tcp", "udp", "icmp", "sctp", "igmp", "arp", "ipv6-icmp", "rtp"],
    "sDSb": ["cs0", "cs1", "cs2", "cs3", "cs4", "cs5", "cs6", "cs7",
             "af11", "af21", "ef", "be"],
    "dDSb": ["cs0", "cs1", "cs2", "af11", "ef", "be"],
    "Cause": ["Start", "Status", "Shutdown"],
    "State": ["REQ", "CON", "FIN", "INT", "RST", "ACC", "CLO", "ECO",
              "URP", "TST", "NRS"],
}

# Spellings that the parser treats as a missing cell.
MISSING_CELLS = ("", "nan", "NA", "-", "null")

# Numeric cells that float() rejects and labels outside the class list:
# rows holding either are skipped by the parser.
BAD_NUMERIC_CELLS = ("x7", "1.2.3", "0x1F", "--3", "1e", "abc")
UNKNOWN_LABELS = ("Port Sweep", "Botnet", "DNS amplification", "Unknown")

# Published copies spell this class "ICMP flood"; the parser maps it to the
# class list's "ICPM flood".
LABEL_ALIASES = {"ICPM flood": "ICMP flood"}

MISSING_SHARE = 0.01
BAD_NUMERIC_SHARE = 0.005
UNKNOWN_LABEL_SHARE = 0.005


def derive_seed(seed: int, tag: int) -> int:
    """Independent 32-bit seed for one input stream of a workload seed."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


@dataclass(frozen=True)
class FlowCsv:
    """What the writer put into a synthetic flow CSV."""

    path: Path
    rows: int                    # data rows, header excluded
    bad_lines: tuple             # CSV line numbers of malformed rows, sorted
    rows_per_class: dict         # class name -> count among well-formed rows


def write_flow_csv(path, seed: int, n_rows: int, schema) -> FlowCsv:
    """Write a flow CSV with the schema's 48 columns plus the label column.

    Numeric cells are log-normal with a per-(class, feature) scale; each
    categorical column draws from its full vocabulary.  About 1% of feature
    cells are missing, 0.5% of rows carry an unparseable numeric cell and
    0.5% an unknown label.  The header is line 1, so data row i is line i + 2.
    """
    path = Path(path)
    rng = np.random.default_rng(derive_seed(seed, 1))
    classes = list(schema.class_names)
    n_classes = len(classes)
    for feature, vocab in VOCABS.items():
        if len(vocab) != schema.categorical_widths[feature] + 1:
            raise ValueError(f"vocabulary of {feature} does not match the schema width")

    # Benign traffic dominates real captures; the attacks share the rest.
    weights = np.full(n_classes, 0.7 / (n_classes - 1))
    weights[0] = 0.3
    labels = rng.choice(n_classes, size=n_rows, p=weights)
    numeric = schema.numeric_features
    log_scale = rng.uniform(-1.0, 4.0, (n_classes, len(numeric)))
    values = np.exp(log_scale[labels] * np.log(10.0)
                    + 0.5 * rng.standard_normal((n_rows, len(numeric))))
    numeric_col = {name: i for i, name in enumerate(numeric)}
    categorical = {name: rng.integers(0, len(VOCABS[name]), n_rows) for name in VOCABS}
    missing = rng.random((n_rows, len(schema.feature_order))) < MISSING_SHARE
    missing_kind = rng.integers(0, len(MISSING_CELLS), (n_rows, len(schema.feature_order)))

    n_bad_numeric = max(1, round(BAD_NUMERIC_SHARE * n_rows))
    n_unknown = max(1, round(UNKNOWN_LABEL_SHARE * n_rows))
    bad_rows = rng.choice(n_rows, size=n_bad_numeric + n_unknown, replace=False)
    bad_numeric = {int(r): (int(rng.integers(len(numeric))),
                            BAD_NUMERIC_CELLS[int(rng.integers(len(BAD_NUMERIC_CELLS)))])
                   for r in bad_rows[:n_bad_numeric]}
    unknown = {int(r): UNKNOWN_LABELS[int(rng.integers(len(UNKNOWN_LABELS)))]
               for r in bad_rows[n_bad_numeric:]}
    alias_draw = rng.random(n_rows) < 0.5

    rows_per_class = {name: 0 for name in classes}
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(schema.feature_order) + [schema.label_column])
        for r in range(n_rows):
            cells = []
            for c, feature in enumerate(schema.feature_order):
                if missing[r, c]:
                    cells.append(MISSING_CELLS[missing_kind[r, c]])
                elif feature in VOCABS:
                    cells.append(VOCABS[feature][categorical[feature][r]])
                else:
                    cells.append(f"{values[r, numeric_col[feature]]:.6g}")
            if r in bad_numeric:
                feature_index, token = bad_numeric[r]
                cells[schema.feature_order.index(numeric[feature_index])] = token
            name = classes[labels[r]]
            if r in unknown:
                label = unknown[r]
            else:
                label = LABEL_ALIASES.get(name, name) if alias_draw[r] else name
                if r not in bad_numeric:
                    rows_per_class[name] += 1
            writer.writerow(cells + [label])
    bad_lines = tuple(sorted(r + 2 for r in list(bad_numeric) + list(unknown)))
    return FlowCsv(path=path, rows=n_rows, bad_lines=bad_lines,
                   rows_per_class=rows_per_class)


def spread_router(seed: int, input_dim: int, n_experts: int) -> dict:
    """Router weights that spread routing over every expert.

    The program initialises both router matrices to zero, which ties every
    score and sends every sample to the same k experts.  Gate weights drawn
    N(0, 1/input_dim) give per-sample scores that differ across experts, so
    the top-k choice varies by sample; the noise weights are ten times
    smaller, keeping the learned noise scale near softplus(0).
    """
    rng = np.random.default_rng(derive_seed(seed, 2))
    scale = 1.0 / np.sqrt(input_dim)
    return {
        "w_gate": scale * rng.standard_normal((input_dim, n_experts)),
        "w_noise": 0.1 * scale * rng.standard_normal((input_dim, n_experts)),
    }

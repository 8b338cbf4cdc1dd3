"""Hand-built flow-CSV fixtures for pipeline tests.

Twenty rows covering every class and the full vocabulary of every
categorical feature, so the drop-first one-hot widths come out at the
schema's expected values (7 + 11 + 5 + 2 + 10) and the total encoded width
is exactly 78.
"""

import csv
import random
from pathlib import Path

from flowmoe.pipeline import CLASS_NAMES, FEATURE_ORDER, NUMERIC_FEATURES

PROTO_VOCAB = ["tcp", "udp", "icmp", "sctp", "igmp", "arp", "ipv6-icmp", "rtp"]
SDSB_VOCAB = ["cs0", "cs1", "cs2", "cs3", "cs4", "cs5", "cs6", "cs7",
              "af11", "af21", "ef", "be"]
DDSB_VOCAB = ["cs0", "cs1", "cs2", "af11", "ef", "be"]
CAUSE_VOCAB = ["Start", "Status", "Shutdown"]
STATE_VOCAB = ["REQ", "CON", "FIN", "INT", "RST", "ACC", "CLO", "ECO",
               "URP", "TST", "NRS"]

VOCABS = {
    "Proto": PROTO_VOCAB,
    "sDSb": SDSB_VOCAB,
    "dDSb": DDSB_VOCAB,
    "Cause": CAUSE_VOCAB,
    "State": STATE_VOCAB,
}

# 20 labels, every class at least twice.
LABELS = (
    ["Benign"] * 3 + ["SYN Scan"] * 2 + ["TCP Connect Scan"] * 2 +
    ["UDP Scan"] * 2 + ["ICPM flood"] * 2 + ["UDP flood"] * 2 +
    ["SYN flood"] * 2 + ["HTTP flood"] * 2 + ["Slow rate DoS"] * 3
)

LABEL_COLUMN = "Attack Type"


def numeric_value(row: int, feature_index: int) -> float:
    # spreads every feature over a nonzero range
    return round(row * (0.1 * feature_index + 0.7) + feature_index, 4)


def fixture_rows(n_rows: int = 20) -> list:
    """Fully observed rows as column -> string dicts."""
    numeric_index = {name: i for i, name in enumerate(NUMERIC_FEATURES)}
    rows = []
    for i in range(n_rows):
        row = {}
        for feature in FEATURE_ORDER:
            if feature in VOCABS:
                vocab = VOCABS[feature]
                row[feature] = vocab[i % len(vocab)]
            else:
                row[feature] = str(numeric_value(i, numeric_index[feature]))
        row[LABEL_COLUMN] = LABELS[i % len(LABELS)]
        rows.append(row)
    return rows


# Every spelling the parser reads as a missing cell; the numeric-only ones
# are NaN spellings that float() accepts.
MISSING_SPELLINGS = ("", "nan", "NA", "-", "null", " None ")
NUMERIC_NAN_SPELLINGS = ("-nan", "NaN")


def gappy_rows(n_rows: int = 120, seed: int = 0) -> list:
    """``fixture_rows`` with the flaws of a real export, drawn from ``seed``.

    About 5% of feature cells are missing, in every spelling; 2% are padded
    with blanks.  Every row misses ``AckDat`` (the global mean falls back to
    0.0), every Slow rate DoS row misses ``Dur`` and every HTTP flood row
    ``Cause`` (the class statistics fall back to the global ones).  Half the
    ICPM flood rows are spelled ``ICMP flood``.  Six rows are malformed:
    unparseable or infinite numeric cells, one after a missing cell, and
    unknown labels, one in a row that also holds a bad numeric cell.
    """
    rng = random.Random(seed)
    rows = fixture_rows(n_rows)
    for row in rows:
        for feature in FEATURE_ORDER:
            draw = rng.random()
            if draw < 0.05:
                spellings = MISSING_SPELLINGS
                if feature in NUMERIC_FEATURES:
                    spellings += NUMERIC_NAN_SPELLINGS
                row[feature] = spellings[rng.randrange(len(spellings))]
            elif draw < 0.07:
                row[feature] = f" {row[feature]} "
        row["AckDat"] = ""
        if row[LABEL_COLUMN] == "Slow rate DoS":
            row["Dur"] = "NA"
        if row[LABEL_COLUMN] == "HTTP flood":
            row["Cause"] = "-"
        if row[LABEL_COLUMN] == "ICPM flood" and rng.random() < 0.5:
            row[LABEL_COLUMN] = "ICMP flood"
    bad = rng.sample(range(n_rows), 6)
    rows[bad[0]]["TotBytes"] = "x7"
    rows[bad[1]]["Load"] = "inf"
    rows[bad[2]]["Rate"] = "1e400"
    rows[bad[3]]["Sum"], rows[bad[3]]["SrcGap"] = "", "1.2.3"
    rows[bad[4]][LABEL_COLUMN] = "Port Sweep"
    rows[bad[5]]["Mean"], rows[bad[5]][LABEL_COLUMN] = "-inf", "Botnet"
    return rows


def write_flow_csv(path, rows, label_column: str = LABEL_COLUMN,
                   columns=None) -> Path:
    path = Path(path)
    columns = list(columns) if columns else list(FEATURE_ORDER) + [label_column]
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path


def class_counts(rows, label_column: str = LABEL_COLUMN) -> dict:
    counts = {name: 0 for name in CLASS_NAMES}
    for row in rows:
        counts[row[label_column]] += 1
    return counts

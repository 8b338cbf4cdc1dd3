"""The flow-CSV pipeline, library-style: parse, impute, split, encode, train,
evaluate, and inspect expert utilization.  The same flow is available from
the command line as `flowmoe preprocess / train / evaluate / gating-report`.

Run: python demos/06_flow_csv_pipeline.py
"""

import csv
import tempfile
from pathlib import Path

from flowmoe import (
    CLASS_NAMES,
    FlowSchema,
    TrainConfig,
    evaluate,
    expert_utilization,
    fit,
    prepare_dataset,
)
from flowmoe.pipeline import FEATURE_ORDER, NUMERIC_FEATURES

# ---- fabricate a small flow CSV --------------------------------------------
# Real runs read the combined 5G network-flow CSV; here we fabricate rows
# with the same 48 columns so the demo is self-contained.  Categorical
# vocabularies are cycled so every category appears in the training split.

VOCABS = {
    "Proto": ["tcp", "udp", "icmp", "sctp", "igmp", "arp", "ipv6-icmp", "rtp"],
    "sDSb": ["cs0", "cs1", "cs2", "cs3", "cs4", "cs5", "cs6", "cs7",
             "af11", "af21", "ef", "be"],
    "dDSb": ["cs0", "cs1", "cs2", "af11", "ef", "be"],
    "Cause": ["Start", "Status", "Shutdown"],
    "State": ["REQ", "CON", "FIN", "INT", "RST", "ACC", "CLO", "ECO",
              "URP", "TST", "NRS"],
}
NUMERIC_INDEX = {name: i for i, name in enumerate(NUMERIC_FEATURES)}


def fabricate_csv(path: Path, n_rows: int = 360) -> None:
    columns = list(FEATURE_ORDER) + ["Attack Type"]
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for i in range(n_rows):
            label = i % len(CLASS_NAMES)
            row = {}
            for feature in FEATURE_ORDER:
                if feature in VOCABS:
                    vocab = VOCABS[feature]
                    row[feature] = vocab[i % len(vocab)]
                else:
                    # class-dependent level plus a small per-row wiggle, so
                    # the classes are actually learnable from the numerics
                    j = NUMERIC_INDEX[feature]
                    value = j + label * ((j % 7) + 1) + 0.05 * (i % 40)
                    row[feature] = f"{value:.4f}"
            if i % 11 == 3:
                row["Dur"] = ""  # sprinkle missing values for the imputer
            row["Attack Type"] = CLASS_NAMES[label]
            writer.writerow(row)


with tempfile.TemporaryDirectory() as tmp:
    csv_path = Path(tmp) / "flows.csv"
    fabricate_csv(csv_path)

    # One call does the whole preprocessing contract: per-class imputation,
    # 60/40 stratified split, min-max scaling and drop-first one-hot fitted
    # on the training split only, and the 78 -> 6x13 reshape.
    prepared = prepare_dataset(csv_path, FlowSchema(), protocol="leak-free",
                               seed=0)
    print("rows per class:", prepared.summary["rows_per_class"])
    print("missing values imputed:", prepared.summary["missing_values_per_feature"])
    print("encoded widths sum:", sum(prepared.stats.encoded_widths().values()))
    print("train/test:", prepared.summary["train_rows"], "/",
          prepared.summary["test_rows"])

    train_set, test_set = prepared.train, prepared.test

    config = TrainConfig(batch_size=16, max_epochs=8, n_experts=8, top_k=2,
                         seed=0)
    model, _ = fit(train_set, config)
    report = evaluate(model, test_set)
    print()
    print(report.format_table())

    # Per-expert routing diagnostics over the held-out split.
    summary = expert_utilization(model, test_set)
    print("\nexpert selection counts:", summary["selection_counts"])
    print("importance CV^2: %.4f   load CV^2: %.4f"
          % (summary["importance_cv_sq"], summary["load_cv_sq"]))

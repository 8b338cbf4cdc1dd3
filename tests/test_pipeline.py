import hashlib
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmoe.checkpoint import save_checkpoint
from flowmoe.cli import _evaluation_data, build_run_config, main, make_parser
from flowmoe.errors import SchemaError, StratificationError
from flowmoe.pipeline import (
    FEATURE_ORDER,
    NUMERIC_FEATURES,
    FlowSchema,
    FlowTable,
    apply_imputers,
    dataset_fingerprint,
    encode,
    fit_imputers,
    fit_pipeline_stats,
    load_dataset_cache,
    parse_flow_csv,
    prepare_dataset,
    save_dataset_cache,
    stratified_split,
)
from flowmoe.model import build_model
from flowmoe.tensor import RngState
from flowmoe.training import TrainConfig

from csv_fixture import LABEL_COLUMN, VOCABS, fixture_rows, gappy_rows, write_flow_csv


@pytest.fixture
def schema():
    return FlowSchema()


class TestSchema:
    def test_total_width_is_78(self, schema):
        assert schema.total_width == 78
        assert len(NUMERIC_FEATURES) == 43

    def test_hash_is_stable_and_sensitive(self, schema):
        assert schema.schema_hash() == FlowSchema().schema_hash()
        other = FlowSchema(label_column="Label")
        assert other.schema_hash() != schema.schema_hash()

    def test_label_aliases(self, schema):
        assert schema.label_index("ICPM flood") == 4
        assert schema.label_index("ICMPFlood") == 4
        assert schema.label_index("SYNScan") == 1
        assert schema.label_index("Slow rate DoS") == 8
        assert schema.label_index("totally unknown") is None

    @pytest.mark.parametrize("raw, expected", [
        ("Benign", 0), ("BENIGN", 0), ("benign ", 0), ("be-nign", 0),
        ("SYN Scan", 1), ("syn_scan", 1), ("Syn-Scan!", 1),
        ("TCP Connect Scan", 2), ("tcpconnectscan", 2),
        ("UDP Scan", 3), ("udp.scan", 3),
        ("ICPM flood", 4), ("ICMP Flood", 4), ("icmp-flood", 4), ("ICMPFLOOD", 4),
        ("UDP flood", 5), ("SYN flood", 6), ("HTTP flood", 7), ("http_flood", 7),
        ("Slow rate DoS", 8), ("slowrate-dos", 8),
        ("", None), ("-", None), ("SYN", None), ("Scan", None), ("ICMP", None),
        ("Benign2", None), ("UDP floods", None),
    ])
    def test_label_spellings(self, schema, raw, expected):
        assert schema.label_index(raw) == expected

    def test_duplicate_canonical_names_first_wins(self):
        schema = FlowSchema(class_names=("a", "ICMP flood", "b", "icpm-flood", "A"))
        assert schema.label_index("icmpflood") == 1
        assert schema.label_index(" a ") == 0
        assert schema.label_index("B") == 2


class TestParse:
    def test_header_only(self, tmp_path, schema):
        path = write_flow_csv(tmp_path / "empty.csv", [])
        assert parse_flow_csv(path, schema).records == []

    def test_missing_column_named(self, tmp_path, flow_rows, schema):
        columns = [c for c in FEATURE_ORDER if c != "Proto"] + [LABEL_COLUMN]
        path = write_flow_csv(tmp_path / "bad.csv", flow_rows, columns=columns)
        with pytest.raises(SchemaError, match="Proto"):
            parse_flow_csv(path, schema)

    def test_empty_cell_becomes_missing(self, tmp_path, flow_rows, schema):
        flow_rows[0]["Dur"] = ""
        path = write_flow_csv(tmp_path / "missing.csv", flow_rows)
        records = parse_flow_csv(path, schema).records
        assert records[0].values["Dur"] is None
        assert isinstance(records[1].values["Dur"], float)

    def test_typed_roundtrip(self, tmp_path, schema):
        rows = fixture_rows(10)
        path = write_flow_csv(tmp_path / "ten.csv", rows)
        records = parse_flow_csv(path, schema).records
        assert len(records) == 10
        for row, record in zip(rows, records):
            assert record.values["Seq"] == float(row["Seq"])
            assert record.values["Proto"] == row["Proto"]
            assert record.label == schema.label_index(row[LABEL_COLUMN])

    def test_bad_numeric_cell_skips_row(self, tmp_path, flow_rows, schema, caplog):
        flow_rows[3]["TotBytes"] = "not-a-number"
        path = write_flow_csv(tmp_path / "bad_cell.csv", flow_rows)
        with caplog.at_level(logging.WARNING):
            result = parse_flow_csv(path, schema)
        assert len(result.records) == len(flow_rows) - 1
        assert len(result.skipped) == 1
        line, reason = result.skipped[0]
        assert line == 5  # header + rows 1..3, the bad row is file line 5
        assert "TotBytes" in reason
        assert any("TotBytes" in message for message in caplog.messages)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "1e400", "-1e400"])
    def test_non_finite_numeric_cell_skips_row(self, tmp_path, flow_rows, schema, caplog,
                                               cell):
        flow_rows[3]["TotBytes"] = cell
        path = write_flow_csv(tmp_path / "inf_cell.csv", flow_rows)
        with caplog.at_level(logging.WARNING):
            result = parse_flow_csv(path, schema)
        assert len(result.records) == len(flow_rows) - 1
        assert [line for line, _ in result.skipped] == [5]
        assert "TotBytes" in result.skipped[0][1]
        assert any("line 5" in message for message in caplog.messages)
        assert all(math.isfinite(value) for record in result.records
                   for value in record.values.values() if isinstance(value, float))

    @pytest.mark.parametrize("cell", ["nan", "NaN", "-nan", "+NAN"])
    def test_nan_spellings_are_missing(self, tmp_path, flow_rows, schema, cell):
        flow_rows[2]["Dur"] = cell
        path = write_flow_csv(tmp_path / "nan_cell.csv", flow_rows)
        result = parse_flow_csv(path, schema)
        assert result.skipped == []
        assert result.records[2].values["Dur"] is None

    def test_unknown_label_skips_row(self, tmp_path, flow_rows, schema):
        flow_rows[0][LABEL_COLUMN] = "Quantum flood"
        path = write_flow_csv(tmp_path / "odd_label.csv", flow_rows)
        result = parse_flow_csv(path, schema)
        assert len(result.skipped) == 1

    def test_hostile_rows(self, tmp_path, schema):
        # The header repeats Dur as its last column, and the last column of a
        # name is the one read.  Lines are physical: the quoted State cell of
        # line 7 runs on to line 8.
        base = fixture_rows(1)[0]

        def line(cells=None, **overrides):
            row = {**base, "Dur": "2.5", **overrides}
            text = [row[c] for c in FEATURE_ORDER] + [row[LABEL_COLUMN], row["Dur"]]
            text[FEATURE_ORDER.index("Dur")] = "9.0"
            return ",".join(text[:cells]) + "\n"

        path = tmp_path / "hostile.csv"
        path.write_text(
            ",".join(FEATURE_ORDER + (LABEL_COLUMN, "Dur")) + "\n"  # 1
            + line()                                                   # 2
            + "\n"                                                     # 3
            + line(len(FEATURE_ORDER) + 1, Seq="11")                   # 4: no last Dur
            + line(10)                                                 # 5: no label
            + line()[:-1] + ",extra,cells\n"                           # 6
            + line(State='"CON\nX"', Seq="13")                         # 7-8
            + line(TotBytes="1e400")                                   # 9
            + line(Load=" -inf ")                                      # 10
            + line(Sum="", Rate="abc")                                 # 11
            + line(SrcWin="x7", **{LABEL_COLUMN: "Botnet"})            # 12
            + line(**{LABEL_COLUMN: "Port Sweep"})                     # 13
            + line(Mean="inf", Dur="bad")                              # 14
            + line(Seq="-0", Sum="null", Proto=" None ", Rate=" 7 ")   # 15
        )
        result = parse_flow_csv(path, schema)
        assert result.skipped == [
            (5, "unknown class label ''"),
            (9, "non-finite numeric cell TotBytes='1e400'"),
            (10, "non-finite numeric cell Load='-inf'"),
            (11, "unparseable numeric cell Rate='abc'"),
            (12, "unparseable numeric cell SrcWin='x7'"),
            (13, "unknown class label 'Port Sweep'"),
            (14, "unparseable numeric cell Dur='bad'"),
        ]
        records = result.records
        assert [r.label for r in records] == [0, 0, 0, 0, 0]
        assert [r.values["Dur"] for r in records] == [2.5, None, 2.5, 2.5, 2.5]
        assert [r.values["Seq"] for r in records] == [0.0, 11.0, 0.0, 13.0, -0.0]
        assert math.copysign(1.0, records[4].values["Seq"]) == -1.0
        assert records[3].values["State"] == "CON\nX"
        assert records[4].values["Sum"] is None and records[4].values["Proto"] is None
        assert records[4].values["Rate"] == 7.0
        expected = {f: (base[f] if f not in NUMERIC_FEATURES else float(base[f]))
                    for f in FEATURE_ORDER}
        assert records[0].values == {**expected, "Dur": 2.5}


DUR = NUMERIC_FEATURES.index("Dur")


class TestImputers:
    def _table(self, tmp_path, rows, schema):
        return parse_flow_csv(write_flow_csv(tmp_path / "f.csv", rows), schema).table

    def test_class_mean(self, tmp_path, schema):
        rows = fixture_rows()
        rows[0]["Dur"] = "1.0"
        rows[1]["Dur"] = ""
        rows[2]["Dur"] = "3.0"  # rows 0..2 are all Benign
        table = self._table(tmp_path, rows, schema)
        imputation = fit_imputers(table, schema)
        assert imputation.class_numeric_mean["Benign"]["Dur"] == pytest.approx(2.0)
        filled = apply_imputers(table, imputation, schema, use_labels=True)
        assert filled.numeric[DUR, 1] == pytest.approx(2.0)
        assert np.isnan(table.numeric[DUR, 1])  # the input is not mutated

    def test_no_missing_is_identity(self, tmp_path, schema):
        table = self._table(tmp_path, fixture_rows(), schema)
        imputation = fit_imputers(table, schema)
        filled = apply_imputers(table, imputation, schema, use_labels=True)
        np.testing.assert_array_equal(filled.numeric, table.numeric)
        for feat, column in table.categorical.items():
            assert filled.categorical[feat].tolist() == column.tolist()
        np.testing.assert_array_equal(filled.labels, table.labels)

    def test_class_mode_with_tie(self, tmp_path, schema):
        rows = fixture_rows()
        # Benign rows: Proto tcp, udp, icmp -> three-way tie, lexicographic pick
        table = self._table(tmp_path, rows, schema)
        imputation = fit_imputers(table, schema)
        assert imputation.class_categorical_mode["Benign"]["Proto"] == "icmp"

    def test_mode_majority(self, tmp_path, schema):
        rows = fixture_rows()
        rows[1]["Proto"] = "tcp"
        rows[2]["Proto"] = "tcp"
        table = self._table(tmp_path, rows, schema)
        imputation = fit_imputers(table, schema)
        assert imputation.class_categorical_mode["Benign"]["Proto"] == "tcp"

    def test_all_missing_falls_back_to_global(self, tmp_path, schema, caplog):
        rows = fixture_rows()
        for i in range(3):  # every Benign row loses its Dur
            rows[i]["Dur"] = ""
        table = self._table(tmp_path, rows, schema)
        with caplog.at_level(logging.WARNING):
            imputation = fit_imputers(table, schema)
        assert imputation.class_numeric_mean["Benign"]["Dur"] == \
            pytest.approx(imputation.global_numeric_mean["Dur"])
        assert any("Benign" in message for message in caplog.messages)

    def test_unobserved_feature_falls_back_to_constants(self, tmp_path, schema, caplog):
        rows = fixture_rows()
        for row in rows:
            row["Dur"], row["Cause"] = "", "-"
        table = self._table(tmp_path, rows, schema)
        with caplog.at_level(logging.WARNING):
            imputation = fit_imputers(table, schema)
        assert imputation.global_numeric_mean["Dur"] == 0.0
        assert imputation.global_categorical_mode["Cause"] == ""
        assert imputation.class_categorical_mode["Benign"]["Cause"] == ""
        assert any("Cause" in message and "''" in message for message in caplog.messages)

    def test_label_free_mode_uses_global(self, tmp_path, schema):
        rows = fixture_rows()
        rows[0]["Dur"] = ""
        table = self._table(tmp_path, rows, schema)
        imputation = fit_imputers(table.take(range(1, len(table))), schema)
        filled = apply_imputers(table.take([0]), imputation, schema, use_labels=False)
        assert filled.numeric[DUR, 0] == pytest.approx(imputation.global_numeric_mean["Dur"])


class TestEncode:
    def _stats(self, tmp_path, rows, schema):
        table = parse_flow_csv(write_flow_csv(tmp_path / "f.csv", rows), schema).table
        imputation = fit_imputers(table, schema)
        table = apply_imputers(table, imputation, schema, use_labels=True)
        return table, fit_pipeline_stats(table, schema, imputation)

    def test_minmax_scaling(self, tmp_path, schema):
        table, stats = self._stats(tmp_path, fixture_rows(), schema)
        stats.numeric_min["Dur"] = 0.0
        stats.numeric_max["Dur"] = 10.0
        table.numeric[DUR, 0] = 5.0
        flat = encode(table.take([0]), stats).x[0].reshape(-1)
        assert flat[FEATURE_ORDER.index("Dur")] == pytest.approx(0.5)

    def test_zero_width_range_maps_to_zero(self, tmp_path, schema):
        table, stats = self._stats(tmp_path, fixture_rows(), schema)
        stats.numeric_min["Seq"] = 7.0
        stats.numeric_max["Seq"] = 7.0
        assert encode(table.take([0]), stats).x[0].reshape(-1)[0] == 0.0

    def test_extremes_keep_the_first_of_equal_zeros(self, tmp_path, schema):
        # Python's min and max keep the first of equal values; np.min and
        # np.max may pick either zero, which flips bits of the scaled column
        rows = fixture_rows()
        for i, row in enumerate(rows):
            row["Seq"] = ("0.0", "-0.0", "-0.0", "0.0")[i % 4]
        table, stats = self._stats(tmp_path, rows, schema)
        assert math.copysign(1.0, stats.numeric_min["Seq"]) == 1.0
        assert math.copysign(1.0, stats.numeric_max["Seq"]) == 1.0
        table = table.take([1, 0, 2, 3])
        stats = fit_pipeline_stats(table, schema, stats.imputation)
        assert math.copysign(1.0, stats.numeric_min["Seq"]) == -1.0
        assert math.copysign(1.0, stats.numeric_max["Seq"]) == -1.0

    def test_width_and_reshape_contract(self, tmp_path, schema):
        table, stats = self._stats(tmp_path, fixture_rows(), schema)
        widths = stats.encoded_widths()
        assert widths["Proto"] == 7
        assert widths["sDSb"] == 11
        assert widths["dDSb"] == 5
        assert widths["Cause"] == 2
        assert widths["State"] == 10
        assert sum(widths.values()) == 78
        data = encode(table, stats)
        assert data.x.shape == (len(table), 6, 13)
        assert data.y.dtype == np.int64
        assert data.y.tolist() == table.labels.tolist()

    def test_zero_records(self, tmp_path, schema):
        table, stats = self._stats(tmp_path, fixture_rows(), schema)
        data = encode(table.take([]), stats)
        assert data.x.shape == (0, 6, 13)
        assert data.y.dtype == np.int64 and data.y.shape == (0,)
        assert data.class_names == schema.class_names

    def test_row_major_reshape(self, tmp_path, schema):
        table, stats = self._stats(tmp_path, fixture_rows(), schema)
        features = encode(table.take([0]), stats).x[0]
        # rebuild the flat vector independently and check (r, c) = flat[13r + c]
        flat = features.reshape(-1)
        for r in range(6):
            for c in range(13):
                assert features[r, c] == flat[13 * r + c]
        # the first row starts with the scaled numerics in schema order
        assert flat.shape == (78,)

    def test_drop_first_one_hot(self, tmp_path, schema):
        table, stats = self._stats(tmp_path, fixture_rows(), schema)
        proto_vocab = stats.vocab["Proto"]
        assert proto_vocab == VOCABS["Proto"]  # first-seen order
        offset = FEATURE_ORDER.index("Proto")  # numerics before Proto are 1 wide
        first = encode(table.take([0]), stats).x[0].reshape(-1)
        block = first[offset:offset + 7]
        np.testing.assert_array_equal(block, np.zeros(7))  # first level dropped
        second = encode(table.take([1]), stats).x[0].reshape(-1)
        expected = np.zeros(7)
        expected[0] = 1.0  # second category -> first one-hot slot
        np.testing.assert_array_equal(second[offset:offset + 7], expected)

    def test_unseen_category_encodes_as_zeros(self, tmp_path, schema):
        table, stats = self._stats(tmp_path, fixture_rows(), schema)
        table.categorical["Proto"][0] = "carrier-pigeon"
        offset = FEATURE_ORDER.index("Proto")
        flat = encode(table.take([0]), stats).x[0].reshape(-1)
        np.testing.assert_array_equal(flat[offset:offset + 7], np.zeros(7))

    def test_width_drift_fails_loudly(self, tmp_path, schema):
        rows = fixture_rows()
        for row in rows:
            if row["Proto"] == "rtp":
                row["Proto"] = "tcp"  # vocabulary shrinks to 7 -> width 77
        table, stats = self._stats(tmp_path, rows, schema)
        with pytest.raises(SchemaError, match="77"):
            encode(table, stats)

    def test_missing_numeric_raises(self, tmp_path, schema):
        table, stats = self._stats(tmp_path, fixture_rows(), schema)
        table.numeric[DUR, 0] = np.nan
        with pytest.raises(SchemaError, match="Dur"):
            encode(table.take([0]), stats)

    def test_encode_does_not_mutate_stats(self, tmp_path, schema):
        table, stats = self._stats(tmp_path, fixture_rows(), schema)
        before = stats.to_json()
        table.categorical["Proto"][0] = "carrier-pigeon"
        encode(table, stats)
        assert stats.to_json() == before


class TestStratifiedSplit:
    def _samples(self, counts):
        # the single numeric feature holds each row's position
        labels = np.repeat(np.arange(len(counts)), counts)
        return FlowTable(numeric=np.arange(labels.size, dtype=np.float64)[None, :],
                         categorical={}, labels=labels)

    def test_single_class_60_40(self):
        train, test = stratified_split(self._samples([100]), 0.6, seed=1)
        assert len(train) == 60 and len(test) == 40

    def test_two_class_rounding(self):
        train, test = stratified_split(self._samples([90, 10]), 0.6, seed=1)
        train_labels = train.labels.tolist()
        test_labels = test.labels.tolist()
        assert train_labels.count(0) == 54 and train_labels.count(1) == 6
        assert test_labels.count(0) == 36 and test_labels.count(1) == 4

    def test_deterministic(self):
        samples = self._samples([30, 20, 10])
        first = stratified_split(samples, 0.6, seed=9)
        second = stratified_split(samples, 0.6, seed=9)
        np.testing.assert_array_equal(first[0].numeric, second[0].numeric)

    def test_disjoint_and_exhaustive(self):
        samples = self._samples([13, 7, 21])
        train, test = stratified_split(samples, 0.6, seed=3)
        assert len(train) + len(test) == len(samples)
        assert set(train.numeric[0].tolist()).isdisjoint(test.numeric[0].tolist())
        # each side keeps the input order
        assert np.all(np.diff(train.numeric[0]) > 0) and np.all(np.diff(test.numeric[0]) > 0)

    def test_small_class_rejected(self):
        with pytest.raises(StratificationError):
            stratified_split(self._samples([10, 1]), 0.6, seed=0)

    @given(st.lists(st.integers(2, 40), min_size=1, max_size=6),
           st.floats(0.1, 0.9), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_proportions_within_one_sample(self, counts, fraction, seed):
        samples = self._samples(counts)
        train, _ = stratified_split(samples, fraction, seed=seed)
        train_labels = train.labels.tolist()
        for label, count in enumerate(counts):
            expected = fraction * count
            assert abs(train_labels.count(label) - expected) < 1.0


class TestPrepareDataset:
    # A 60% split of the 20-row fixture cannot cover the 12-category
    # vocabularies, so end-to-end runs use a 120-row repetition of it.

    def test_leak_free_end_to_end(self, tmp_path):
        path = write_flow_csv(tmp_path / "big.csv", fixture_rows(120))
        prepared = prepare_dataset(path, protocol="leak-free", seed=4)
        assert prepared.summary["rows_parsed"] == 120
        assert len(prepared.train) + len(prepared.test) == 120
        assert prepared.stats.fitted_on == len(prepared.train)
        assert prepared.train.x.shape[1:] == (6, 13)

    def test_protocols_differ_on_missing_data(self, tmp_path):
        rows = fixture_rows(120)
        rows[0]["Dur"] = ""  # a Benign row; Benign mean differs from global mean
        path = write_flow_csv(tmp_path / "gap.csv", rows)
        verbatim = prepare_dataset(path, protocol="verbatim", seed=4)
        leak_free = prepare_dataset(path, protocol="leak-free", seed=4)
        assert verbatim.summary["protocol"] == "verbatim"
        v = np.concatenate([verbatim.train.x, verbatim.test.x])
        l = np.concatenate([leak_free.train.x, leak_free.test.x])
        assert not np.array_equal(v, l)

    def test_train_values_in_unit_interval(self, tmp_path):
        path = write_flow_csv(tmp_path / "big.csv", fixture_rows(120))
        prepared = prepare_dataset(path, seed=4)
        assert prepared.train.x.min() >= 0.0
        assert prepared.train.x.max() <= 1.0


class TestCache:
    def test_roundtrip(self, tmp_path):
        path = write_flow_csv(tmp_path / "big.csv", fixture_rows(120))
        prepared = prepare_dataset(path, seed=4)
        schema = FlowSchema()
        fp = dataset_fingerprint(path, schema, "leak-free", 0.6, 4)
        cache = tmp_path / "data.cache"
        save_dataset_cache(cache, prepared, fp)
        train, test, header = load_dataset_cache(cache)
        assert header["fingerprint"] == fp
        assert header["schema_hash"] == schema.schema_hash()
        np.testing.assert_array_equal(train.x, prepared.train.x)
        np.testing.assert_array_equal(test.y, prepared.test.y)

    def test_fingerprint_tracks_inputs(self, flow_csv, tmp_path):
        schema = FlowSchema()
        base = dataset_fingerprint(flow_csv, schema, "leak-free", 0.6, 4)
        assert dataset_fingerprint(flow_csv, schema, "leak-free", 0.6, 4) == base
        assert dataset_fingerprint(flow_csv, schema, "verbatim", 0.6, 4) != base
        assert dataset_fingerprint(flow_csv, schema, "leak-free", 0.6, 5) != base

    def test_preprocess_outputs_are_byte_identical(self, tmp_path):
        # recorded SHA-256s: a change to parsing, imputation, encoding or the
        # cache layout must leave every byte of the three outputs as it was
        path = write_flow_csv(tmp_path / "big.csv", fixture_rows(120))
        out = tmp_path / "pre"
        assert main(["preprocess", "--dataset", str(path), "--out", str(out),
                     "--seed", "4"]) == 0
        expected = {
            "dataset.cache":
                "4f523ab5a5f0e42071016d3b0d14e732201afa687f6eeda3a0f0fcc6a86e9e98",
            "pipeline_stats.json":
                "3715e0fd2112568855ff366e2d50d7786f93b791f91d6ca6ac26cce13c664c4e",
            "preprocess_summary.json":
                "6aa61892edc1551600ed658cf157c4922a4f2631d92ef9c74f85e0d36ba746fc",
        }
        for name, digest in expected.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("protocol, expected", [
        ("leak-free", {
            "dataset.cache":
                "ffbe6f97d3ed156a191354174170505bea67c02ad7b971dc295dfcca3ca8a550",
            "pipeline_stats.json":
                "d1021c6550b06f088978514c5a4bda58a821317913237b7f59b24fcb1b3a8fdf",
            "preprocess_summary.json":
                "f60f15bceefcd854bd78a8fb91db224c35b241dfd048a7bdd7b30d0138332890",
        }),
        ("verbatim", {
            "dataset.cache":
                "e9eda91d57b1922414c82b2013a5c4ae93872fc450768c65b08bd2770504320e",
            "pipeline_stats.json":
                "d6bd4ba128f84ba555123594f29ac9b8b16c78ba375081d2c2df0d364a72db6d",
            "preprocess_summary.json":
                "bd57c2568693480540354370997e1ceb607d8e3b8aba6770269be5b428df7028",
        }),
    ])
    def test_gappy_preprocess_outputs_are_byte_identical(self, tmp_path, protocol, expected):
        # recorded SHA-256s over missing cells in every spelling, the class
        # and global imputation fallbacks and six skipped rows
        path = write_flow_csv(tmp_path / "gappy.csv", gappy_rows())
        out = tmp_path / "pre"
        assert main(["preprocess", "--dataset", str(path), "--out", str(out),
                     "--seed", "4", "--imputation", protocol]) == 0
        for name, digest in expected.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_gappy_evaluation_data_is_byte_identical(self, tmp_path):
        # evaluate --dataset encodes a raw CSV with the checkpoint's statistics
        path = write_flow_csv(tmp_path / "gappy.csv", gappy_rows())
        config = TrainConfig(n_experts=4, top_k=2, cnn_filters=(4, 4, 4, 8), expert_hidden=4)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, build_model(config, RngState(0)), config,
                        prepare_dataset(path, seed=4).stats)
        args = make_parser().parse_args(["evaluate", "--checkpoint", str(ckpt),
                                         "--dataset", str(path), "--out", str(tmp_path)])
        _, data = _evaluation_data(build_run_config(args))
        assert data.x.shape == (114, 6, 13)
        assert hashlib.sha256(data.x.tobytes() + data.y.tobytes()).hexdigest() == \
            "f1c0b4107e6d85265de416202aefa900b7bdb45d64f0e20246b298d1d31434d6"

import hashlib
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmoe.cli import main
from flowmoe.errors import SchemaError, StratificationError
from flowmoe.pipeline import (
    FEATURE_ORDER,
    NUMERIC_FEATURES,
    FlowRecord,
    FlowSchema,
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

from csv_fixture import LABEL_COLUMN, VOCABS, fixture_rows, write_flow_csv


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


class TestImputers:
    def _records(self, tmp_path, rows, schema):
        return parse_flow_csv(write_flow_csv(tmp_path / "f.csv", rows), schema).records

    def test_class_mean(self, tmp_path, schema):
        rows = fixture_rows()
        rows[0]["Dur"] = "1.0"
        rows[1]["Dur"] = ""
        rows[2]["Dur"] = "3.0"  # rows 0..2 are all Benign
        records = self._records(tmp_path, rows, schema)
        table = fit_imputers(records, schema)
        assert table.class_numeric_mean["Benign"]["Dur"] == pytest.approx(2.0)
        filled = apply_imputers(records, table, schema, use_labels=True)
        assert filled[1].values["Dur"] == pytest.approx(2.0)

    def test_no_missing_is_identity(self, tmp_path, schema):
        records = self._records(tmp_path, fixture_rows(), schema)
        table = fit_imputers(records, schema)
        filled = apply_imputers(records, table, schema, use_labels=True)
        for before, after in zip(records, filled):
            assert before.values == after.values

    def test_class_mode_with_tie(self, tmp_path, schema):
        rows = fixture_rows()
        # Benign rows: Proto tcp, udp, icmp -> three-way tie, lexicographic pick
        records = self._records(tmp_path, rows, schema)
        table = fit_imputers(records, schema)
        assert table.class_categorical_mode["Benign"]["Proto"] == "icmp"

    def test_mode_majority(self, tmp_path, schema):
        rows = fixture_rows()
        rows[1]["Proto"] = "tcp"
        rows[2]["Proto"] = "tcp"
        records = self._records(tmp_path, rows, schema)
        table = fit_imputers(records, schema)
        assert table.class_categorical_mode["Benign"]["Proto"] == "tcp"

    def test_all_missing_falls_back_to_global(self, tmp_path, schema, caplog):
        rows = fixture_rows()
        for i in range(3):  # every Benign row loses its Dur
            rows[i]["Dur"] = ""
        records = self._records(tmp_path, rows, schema)
        with caplog.at_level(logging.WARNING):
            table = fit_imputers(records, schema)
        assert table.class_numeric_mean["Benign"]["Dur"] == \
            pytest.approx(table.global_numeric_mean["Dur"])
        assert any("Benign" in message for message in caplog.messages)

    def test_label_free_mode_uses_global(self, tmp_path, schema):
        rows = fixture_rows()
        rows[0]["Dur"] = ""
        records = self._records(tmp_path, rows, schema)
        table = fit_imputers(records[1:], schema)
        filled = apply_imputers(records[:1], table, schema, use_labels=False)
        assert filled[0].values["Dur"] == pytest.approx(table.global_numeric_mean["Dur"])


class TestEncode:
    def _stats(self, tmp_path, rows, schema):
        records = parse_flow_csv(write_flow_csv(tmp_path / "f.csv", rows), schema).records
        table = fit_imputers(records, schema)
        records = apply_imputers(records, table, schema, use_labels=True)
        return records, fit_pipeline_stats(records, schema, table)

    def test_minmax_scaling(self, tmp_path, schema):
        records, stats = self._stats(tmp_path, fixture_rows(), schema)
        stats.numeric_min["Dur"] = 0.0
        stats.numeric_max["Dur"] = 10.0
        records[0].values["Dur"] = 5.0
        flat = encode(records[:1], stats).x[0].reshape(-1)
        assert flat[FEATURE_ORDER.index("Dur")] == pytest.approx(0.5)

    def test_zero_width_range_maps_to_zero(self, tmp_path, schema):
        records, stats = self._stats(tmp_path, fixture_rows(), schema)
        stats.numeric_min["Seq"] = 7.0
        stats.numeric_max["Seq"] = 7.0
        assert encode(records[:1], stats).x[0].reshape(-1)[0] == 0.0

    def test_width_and_reshape_contract(self, tmp_path, schema):
        records, stats = self._stats(tmp_path, fixture_rows(), schema)
        widths = stats.encoded_widths()
        assert widths["Proto"] == 7
        assert widths["sDSb"] == 11
        assert widths["dDSb"] == 5
        assert widths["Cause"] == 2
        assert widths["State"] == 10
        assert sum(widths.values()) == 78
        data = encode(records, stats)
        assert data.x.shape == (len(records), 6, 13)
        assert data.y.dtype == np.int64
        assert data.y.tolist() == [rec.label for rec in records]

    def test_zero_records(self, tmp_path, schema):
        _, stats = self._stats(tmp_path, fixture_rows(), schema)
        data = encode([], stats)
        assert data.x.shape == (0, 6, 13)
        assert data.y.dtype == np.int64 and data.y.shape == (0,)
        assert data.class_names == schema.class_names

    def test_row_major_reshape(self, tmp_path, schema):
        records, stats = self._stats(tmp_path, fixture_rows(), schema)
        features = encode(records[:1], stats).x[0]
        # rebuild the flat vector independently and check (r, c) = flat[13r + c]
        flat = features.reshape(-1)
        for r in range(6):
            for c in range(13):
                assert features[r, c] == flat[13 * r + c]
        # the first row starts with the scaled numerics in schema order
        assert flat.shape == (78,)

    def test_drop_first_one_hot(self, tmp_path, schema):
        records, stats = self._stats(tmp_path, fixture_rows(), schema)
        proto_vocab = stats.vocab["Proto"]
        assert proto_vocab == VOCABS["Proto"]  # first-seen order
        offset = FEATURE_ORDER.index("Proto")  # numerics before Proto are 1 wide
        first = encode([records[0]], stats).x[0].reshape(-1)
        block = first[offset:offset + 7]
        np.testing.assert_array_equal(block, np.zeros(7))  # first level dropped
        second = encode([records[1]], stats).x[0].reshape(-1)
        expected = np.zeros(7)
        expected[0] = 1.0  # second category -> first one-hot slot
        np.testing.assert_array_equal(second[offset:offset + 7], expected)

    def test_unseen_category_encodes_as_zeros(self, tmp_path, schema):
        records, stats = self._stats(tmp_path, fixture_rows(), schema)
        records[0].values["Proto"] = "carrier-pigeon"
        offset = FEATURE_ORDER.index("Proto")
        flat = encode(records[:1], stats).x[0].reshape(-1)
        np.testing.assert_array_equal(flat[offset:offset + 7], np.zeros(7))

    def test_width_drift_fails_loudly(self, tmp_path, schema):
        rows = fixture_rows()
        for row in rows:
            if row["Proto"] == "rtp":
                row["Proto"] = "tcp"  # vocabulary shrinks to 7 -> width 77
        records, stats = self._stats(tmp_path, rows, schema)
        with pytest.raises(SchemaError, match="77"):
            encode(records, stats)

    def test_missing_numeric_raises(self, tmp_path, schema):
        records, stats = self._stats(tmp_path, fixture_rows(), schema)
        records[0].values["Dur"] = None
        with pytest.raises(SchemaError, match="Dur"):
            encode(records[:1], stats)

    def test_encode_does_not_mutate_stats(self, tmp_path, schema):
        records, stats = self._stats(tmp_path, fixture_rows(), schema)
        before = stats.to_json()
        records[0].values["Proto"] = "carrier-pigeon"
        encode(records, stats)
        assert stats.to_json() == before


class TestStratifiedSplit:
    def _samples(self, counts):
        samples = []
        for label, count in enumerate(counts):
            for _ in range(count):
                samples.append(FlowRecord(values={}, label=label))
        return samples

    def test_single_class_60_40(self):
        train, test = stratified_split(self._samples([100]), 0.6, seed=1)
        assert len(train) == 60 and len(test) == 40

    def test_two_class_rounding(self):
        train, test = stratified_split(self._samples([90, 10]), 0.6, seed=1)
        train_labels = [s.label for s in train]
        test_labels = [s.label for s in test]
        assert train_labels.count(0) == 54 and train_labels.count(1) == 6
        assert test_labels.count(0) == 36 and test_labels.count(1) == 4

    def test_deterministic(self):
        samples = self._samples([30, 20, 10])
        first = stratified_split(samples, 0.6, seed=9)
        second = stratified_split(samples, 0.6, seed=9)
        assert [id(s) for s in first[0]] == [id(s) for s in second[0]]

    def test_disjoint_and_exhaustive(self):
        samples = self._samples([13, 7, 21])
        train, test = stratified_split(samples, 0.6, seed=3)
        assert len(train) + len(test) == len(samples)
        assert {id(s) for s in train}.isdisjoint({id(s) for s in test})

    def test_small_class_rejected(self):
        with pytest.raises(StratificationError):
            stratified_split(self._samples([10, 1]), 0.6, seed=0)

    @given(st.lists(st.integers(2, 40), min_size=1, max_size=6),
           st.floats(0.1, 0.9), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_proportions_within_one_sample(self, counts, fraction, seed):
        samples = self._samples(counts)
        train, _ = stratified_split(samples, fraction, seed=seed)
        train_labels = [s.label for s in train]
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

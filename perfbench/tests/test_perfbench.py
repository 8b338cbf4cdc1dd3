"""Tests for the benchmark's own parts: input generators, span arithmetic,
output checks and the metric catalogue.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from flowmoe.pipeline import FlowSchema, parse_flow_csv  # noqa: E402
from spans import Span, Tracer, add_step_spans, op_name, self_times  # noqa: E402


# -- generators ---------------------------------------------------------------------


def test_flow_csv_is_deterministic_per_seed(tmp_path):
    schema = FlowSchema()
    a = inputs.write_flow_csv(tmp_path / "a.csv", 5, 600, schema)
    b = inputs.write_flow_csv(tmp_path / "b.csv", 5, 600, schema)
    c = inputs.write_flow_csv(tmp_path / "c.csv", 6, 600, schema)
    assert a.path.read_bytes() == b.path.read_bytes()
    assert (a.bad_lines, a.rows_per_class) == (b.bad_lines, b.rows_per_class)
    assert a.path.read_bytes() != c.path.read_bytes()


def test_flow_csv_malformed_rows_are_exactly_the_skipped_ones(tmp_path):
    schema = FlowSchema()
    flows = inputs.write_flow_csv(tmp_path / "flows.csv", 3, 800, schema)
    parsed = parse_flow_csv(flows.path, schema)
    assert [line for line, _ in parsed.skipped] == list(flows.bad_lines)
    assert len(parsed.records) + len(parsed.skipped) == flows.rows
    counts = {name: 0 for name in schema.class_names}
    for record in parsed.records:
        counts[schema.class_names[record.label]] += 1
    assert counts == flows.rows_per_class
    missing = sum(v is None for r in parsed.records for v in r.values.values())
    assert 0 < missing < 0.02 * len(parsed.records) * len(schema.feature_order)


def test_spread_router_is_deterministic_per_seed():
    a, b, c = (inputs.spread_router(s, 8, 16) for s in (4, 4, 5))
    for key in ("w_gate", "w_noise"):
        assert a[key].shape == (8, 16)
        np.testing.assert_array_equal(a[key], b[key])
        assert not np.array_equal(a[key], c[key])


# -- spans ----------------------------------------------------------------------------


def test_self_times_on_hand_built_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    spans = [Span("root", 0.0, 10.0, None, 1), Span("a", 1.0, 4.0, 0, 1),
             Span("a1", 2.0, 3.0, 1, 1), Span("b", 5.0, 9.0, 0, 1)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == spans[0].end - spans[0].start


def test_step_spans_split_the_loop_at_optimizer_returns():
    spans = [Span("train", 0.0, 10.0, None, 1),
             Span("forward", 1.0, 2.0, 0, 1), Span("opt", 3.0, 4.0, 0, 1),
             Span("forward", 5.0, 6.0, 0, 2), Span("opt", 7.0, 8.0, 0, 2)]
    add_step_spans(spans, "train", "opt", "step")
    steps = [i for i, s in enumerate(spans) if s.name == "step"]
    assert [(spans[i].start, spans[i].end) for i in steps] == [(0.0, 4.0), (4.0, 8.0)]
    assert [spans[i].parent for i in range(1, 5)] == [steps[0], steps[0], steps[1], steps[1]]
    own = self_times(spans)
    assert [own[i] for i in steps] == [2.0, 2.0]
    assert own[0] == 2.0  # the loop's tail after the last step


def test_op_names():
    assert [op_name(t) for t in ("+", "*", "-", "/", "**2", "T", "conv1d", "neg", "sum")] == \
        ["add", "mul", "sub", "div", "pow", "transpose", "conv1d", "other", "other"]


def test_tracer_wraps_and_restores():
    module = types.SimpleNamespace(double=lambda x: 2 * x)

    class Holder:
        @classmethod
        def make(cls, x):
            return (cls, x)

    original = module.double
    tracer = Tracer()
    seen = []
    assert tracer.wrap(module, "double", "double", after=lambda a, r: seen.append(r))
    assert tracer.wrap(Holder, "make", "make")
    assert not tracer.wrap(module, "gone", "gone")
    assert module.double(3) == 6 and seen == [6]
    assert Holder.make(1) == (Holder, 1)
    assert [s.name for s in tracer.spans] == ["double", "make"]
    assert len(tracer.absent) == 1 and tracer.absent[0].startswith("gone")
    tracer.restore()
    assert module.double is original and "make" in Holder.__dict__
    assert isinstance(Holder.__dict__["make"], classmethod)


def test_disabled_tracer_installs_only_hooks():
    module = types.SimpleNamespace(f=lambda: 1, g=lambda: 2)
    tracer = Tracer(enabled=False)
    seen = []
    assert not tracer.wrap(module, "f", "f")
    assert tracer.wrap(module, "g", "g", after=lambda a, r: seen.append(r))
    assert module.g() == 2 and seen == [2] and tracer.spans == []
    tracer.restore()


# -- output checks --------------------------------------------------------------------


def test_loss_check_flags_mismatch_and_non_finite():
    reference = [2.0, 1.5, 1.2]
    assert checks.check_losses([reference, list(reference)], reference, 3) == []
    assert len(checks.check_losses([[2.0, 1.5, 1.2000001]], reference, 3)) == 1
    assert len(checks.check_losses([[2.0, math.nan, 1.2]], reference, 3)) == 1
    assert len(checks.check_losses([[2.0, 1.5]], reference, 3)) == 1
    assert len(checks.check_losses([[2.0, 1.5, 1.2, 1.1]], reference, 3)) == 1


def test_diverged_training_fails_its_remaining_steps(monkeypatch):
    import workloads
    from flowmoe import training
    from flowmoe.errors import TrainingDivergedError

    def diverging_train(model, data, config, rng):
        # the second step's loss is infinite, so training stops there
        for value in (2.0, math.inf):
            training.total_loss(value)
        raise TrainingDivergedError("loss component 'total' became inf")

    class Model:
        def state_dict(self):
            return {}

        def load_state_dict(self, state):
            pass

    monkeypatch.setattr(training, "train", diverging_train)
    monkeypatch.setattr(training, "total_loss",
                        lambda value: (types.SimpleNamespace(data=value), {}))
    workload = workloads.TrainFull(1, None)
    rec, tracer = workloads.Pass(), Tracer(enabled=False)
    workload.instrument(tracer, rec)
    try:
        workload.run_op({"model": Model()}, rec)
    finally:
        tracer.restore()
    attempted, failures = workload.check(rec, None)
    assert attempted == workloads.TRAIN_STEPS
    assert len(failures) == workloads.TRAIN_STEPS - 1
    assert "step 1: loss inf" in failures[0]


def test_prediction_check_flags_small_batch_and_round_trip_mismatch():
    bulk = np.arange(256) % 9
    assert checks.check_predictions(bulk.copy(), bulk, bulk.copy(), 64, 128) == []
    small = bulk.copy()
    small[70] += 1
    assert len(checks.check_predictions(small, bulk, bulk.copy(), 64, 128)) == 1
    reference = bulk.copy()
    reference[200] += 1
    assert len(checks.check_predictions(bulk.copy(), bulk, reference, 64, 128)) == 1


@pytest.fixture
def flows():
    return inputs.FlowCsv(path=Path("flows.csv"), rows=10, bad_lines=(3, 7),
                          rows_per_class={"Benign": 5, "SYN Scan": 3})


def good_preprocess(**changes):
    args = dict(code=0, summary={"rows_parsed": 8, "rows_skipped": 2,
                                 "rows_per_class": {"Benign": 5, "SYN Scan": 3}},
                skipped_lines=[7, 3], cache_shapes=((5, 78), (3, 78)), cache_finite=True,
                digest="abc", reference_digest="abc")
    args.update(changes)
    return args


def test_preprocess_check_passes_expected_skips(flows):
    assert checks.check_preprocess(flow_csv=flows, **good_preprocess()) == []


@pytest.mark.parametrize("changes", [
    {"code": 3},
    {"skipped_lines": [3]},
    {"skipped_lines": [3, 8]},
    {"summary": {"rows_parsed": 9, "rows_skipped": 2,
                 "rows_per_class": {"Benign": 5, "SYN Scan": 3}}},
    {"summary": {"rows_parsed": 8, "rows_skipped": 2,
                 "rows_per_class": {"Benign": 6, "SYN Scan": 2}}},
    {"cache_shapes": ((5, 77), (3, 77))},
    {"cache_shapes": ((5, 78), (2, 78))},
    {"cache_finite": False},
    {"digest": "abd"},
])
def test_preprocess_check_flags_each_injected_mismatch(flows, changes):
    assert len(checks.check_preprocess(flow_csv=flows, **good_preprocess(**changes))) == 1


# -- catalogue ----------------------------------------------------------------------


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bound["setup_s"] == max(bound.values())
    from workloads import WORKLOADS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: cls.why for name, cls in WORKLOADS.items()}

import gc
import hashlib
import math
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmoe.checkpoint import load_checkpoint, save_checkpoint
from flowmoe.cli import main
from flowmoe.errors import (
    CheckpointVersionError,
    ConfigError,
    DegenerateInputError,
    TrainingDivergedError,
)
from flowmoe.layers import cross_entropy
from flowmoe.metrics import EvalReport, weighted_mean
from flowmoe.model import build_model
from flowmoe.moe import (
    MoEHead,
    Router,
    importance_loss,
    load_loss,
    moe_forward,
    noisy_gate,
)
from flowmoe.pipeline import EncodedDataset, prepare_dataset, save_dataset_cache
from flowmoe.synthetic import make_blobs
from flowmoe.tensor import RngState, Tensor
from flowmoe.training import (
    Adam,
    TrainConfig,
    evaluate,
    expert_utilization,
    fit,
    history_to_json,
    model_config_for,
    predict,
    total_loss,
    train,
)

from csv_fixture import fixture_rows, write_flow_csv

TINY = dict(batch_size=64, max_epochs=3, n_experts=4, top_k=2,
            cnn_filters=(4, 4, 4, 8), expert_hidden=4)


def tiny_blob_split(n=540, seed=0):
    data = make_blobs(n, seed=seed)
    cut = int(n * 2 / 3)
    train_set = EncodedDataset(x=data.x[:cut], y=data.y[:cut],
                               class_names=data.class_names)
    test_set = EncodedDataset(x=data.x[cut:], y=data.y[cut:],
                              class_names=data.class_names)
    return train_set, test_set


def carrying(gates, load_p=None):
    """Stands in for a routing decision: total_loss reads only its
    importance and load terms, here of unit weight."""
    return SimpleNamespace(importance=importance_loss(gates),
                           load=None if load_p is None else load_loss(load_p))


class TestTotalLoss:
    def test_no_decision_is_exactly_cross_entropy(self, rng):
        logits = Tensor(rng.normal((4, 9)))
        loss, parts = total_loss(logits, [0, 1, 2, 3], None)
        assert loss.data == cross_entropy(logits, [0, 1, 2, 3]).data
        assert parts["importance"] == 0.0 and parts["load"] == 0.0

    def test_alpha_zero_is_pure_cross_entropy(self, rng):
        logits = Tensor(rng.normal((4, 9)))
        gates = Tensor(np.abs(rng.normal((4, 3))))
        loss, parts = total_loss(logits, [0, 1, 2, 3], carrying(gates), alpha=0.0)
        assert parts["total"] == pytest.approx(parts["cross_entropy"], abs=1e-15)

    def test_uniform_statistics_add_nothing(self, rng):
        logits = Tensor(rng.normal((4, 9)))
        gates = Tensor(np.full((4, 8), 1 / 8))
        load_p = Tensor(np.full((4, 8), 0.25))
        loss, parts = total_loss(logits, [0, 1, 2, 3], carrying(gates, load_p),
                                 alpha=0.1)
        assert parts["importance"] <= 1e-30
        assert parts["load"] <= 1e-30
        assert parts["total"] == pytest.approx(parts["cross_entropy"], abs=1e-12)

    def test_hand_derived_combination(self):
        # CE = ln(1 + e^c) = 1 for c = ln(e - 1); CV^2 of [a, 1-a] is
        # (2a - 1)^2, which is 0.5 for a = (1 + sqrt(0.5)) / 2.
        c = math.log(math.e - 1)
        a = 0.5 + math.sqrt(0.125)
        logits = Tensor(np.array([[0.0, c]]))
        gates = Tensor(np.array([[a, 1 - a]]))
        load_p = Tensor(np.array([[a, 1 - a]]))
        loss, parts = total_loss(logits, [0], carrying(gates, load_p), alpha=0.1)
        assert parts["cross_entropy"] == pytest.approx(1.0, abs=1e-12)
        assert parts["importance"] == pytest.approx(0.5, abs=1e-9)
        assert parts["load"] == pytest.approx(0.5, abs=1e-9)
        assert parts["total"] == pytest.approx(1.1, abs=1e-9)

    def test_components_sum(self, rng):
        logits = Tensor(rng.normal((3, 9)))
        gates = Tensor(np.abs(rng.normal((3, 4))) + 0.1)
        load_p = Tensor(np.abs(rng.normal((3, 4))) + 0.1)
        loss, parts = total_loss(logits, [1, 2, 3], carrying(gates, load_p),
                                 alpha=0.37)
        expected = parts["cross_entropy"] + 0.37 * (parts["importance"] + parts["load"])
        assert parts["total"] == pytest.approx(expected, rel=1e-12)
        assert float(loss.data) == parts["total"]


class TestTrain:
    def test_loss_decreases_and_accuracy_rises(self):
        train_set, _ = tiny_blob_split()
        config = TrainConfig(seed=3, max_epochs=5, **{k: v for k, v in TINY.items()
                                                      if k != "max_epochs"})
        model, history = fit(train_set, config)
        assert history[4]["total"] < history[0]["total"]
        assert history[4]["accuracy"] > history[0]["accuracy"]

    @pytest.mark.single_thread_blas
    def test_same_seed_identical_parameters(self):
        train_set, _ = tiny_blob_split()
        config = TrainConfig(seed=11, **TINY)
        model_a, _ = fit(train_set, config)
        model_b, _ = fit(train_set, config)
        state_a, state_b = model_a.state_dict(), model_b.state_dict()
        assert state_a.keys() == state_b.keys()
        for key in state_a:
            np.testing.assert_array_equal(state_a[key], state_b[key])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # nan propagates by design
    def test_nan_input_aborts_with_diagnostic(self):
        train_set, _ = tiny_blob_split(n=180)
        train_set.x[3, 0, 0] = np.nan
        config = TrainConfig(seed=0, **TINY)
        with pytest.raises(TrainingDivergedError, match="cross_entropy.*epoch 1"):
            fit(train_set, config)

    def test_empty_training_set_rejected(self):
        empty = EncodedDataset(x=np.zeros((0, 6, 13)), y=np.zeros(0, dtype=np.int64),
                               class_names=("a",))
        with pytest.raises(ConfigError):
            fit(empty, TrainConfig(seed=0, **TINY))

    def test_single_row_training_set_rejected(self):
        data = make_blobs(1, seed=0)
        with pytest.raises(ConfigError, match="1 row"):
            fit(EncodedDataset(x=data.x, y=data.y, class_names=data.class_names),
                TrainConfig(seed=0, **TINY))

    def test_batch_size_one_rejected_before_a_step_with_a_conv_backbone(self, monkeypatch):
        train_set, _ = tiny_blob_split(n=30)
        config = TrainConfig(seed=0, **dict(TINY, batch_size=1))
        model = build_model(config, RngState(0))
        monkeypatch.setattr(model, "forward", lambda *args: pytest.fail("a step ran"))
        with pytest.raises(ConfigError, match="batch_size 1"):
            train(model, train_set, config)

    def test_batch_size_one_trains_without_a_conv_backbone(self):
        train_set, _ = tiny_blob_split(n=30)
        config = TrainConfig(seed=0, disable_cnn=True, **dict(TINY, batch_size=1, max_epochs=1))
        _, history = fit(train_set, config)
        assert len(history) == 1

    @pytest.mark.parametrize("n, sizes", [(129, [64, 65]), (130, [64, 64, 2]),
                                          (128, [64, 64]), (65, [65]), (2, [2])])
    def test_one_row_last_batch_joins_the_one_before(self, monkeypatch, n, sizes):
        # a lone last row would leave batch norm one element per channel at
        # the last conv cell; every other remainder keeps its own step
        seen = []

        def spy(logits, labels, *args):
            seen.append(len(labels))
            return total_loss(logits, labels, *args)

        monkeypatch.setattr("flowmoe.training.total_loss", spy)
        data = make_blobs(n, seed=1)
        _, history = fit(EncodedDataset(x=data.x, y=data.y, class_names=data.class_names),
                         TrainConfig(seed=0, **{**TINY, "max_epochs": 2}))
        assert seen == sizes * 2
        assert all(math.isfinite(entry["total"]) for entry in history)

    def test_importance_loss_trends_down(self):
        # Start from a router that heavily favors expert 0, so the balancing
        # term has something to optimize away (a zero-initialized router is
        # already balanced and sits at the gate-noise floor).
        train_set, _ = tiny_blob_split(n=720, seed=5)
        config = TrainConfig(seed=2, batch_size=64, max_epochs=6, n_experts=8,
                             top_k=2, cnn_filters=(4, 4, 4, 8), expert_hidden=4,
                             alpha=0.5)
        rng = RngState(config.seed)
        model = build_model(model_config_for(config), rng)
        model.head.router.w_gate.data[:, 0] = 1.5
        _, history = train(model, train_set, config, rng)
        assert history[-1]["importance"] < history[0]["importance"]

    def test_full_scale_defaults(self):
        config = TrainConfig()
        assert config.batch_size == 1024
        assert config.max_epochs == 40
        assert config.alpha == 0.1
        assert config.n_experts == 128
        assert config.top_k == 32

    def test_degenerate_config_is_pure_cross_entropy(self):
        # alpha=0, noise off, k=n: a plain CNN + dense-mixture classifier;
        # training is well-defined and the loss is exactly cross-entropy
        train_set, _ = tiny_blob_split(n=180)
        config = TrainConfig(seed=0, batch_size=64, max_epochs=2, n_experts=4,
                             top_k=4, cnn_filters=(4, 4, 4, 8), expert_hidden=4,
                             alpha=0.0, noise_enabled=False)
        _, history = fit(train_set, config)
        for epoch in history:
            assert epoch["total"] == pytest.approx(epoch["cross_entropy"], abs=1e-15)
            assert epoch["load"] == 0.0

    def test_disable_flags_map_to_variants(self):
        assert model_config_for(TrainConfig()).variant == "cnn_moe"
        assert model_config_for(TrainConfig(disable_moe=True)).variant == "cnn_dense"
        assert model_config_for(TrainConfig(disable_cnn=True)).variant == "dense"
        zeroed = model_config_for(TrainConfig(disable_balancing_losses=True))
        assert zeroed.w_importance == 0.0 and zeroed.w_load == 0.0


class TestEvaluate:
    def test_all_correct(self):
        train_set, test_set = tiny_blob_split()
        config = TrainConfig(seed=3, max_epochs=5, batch_size=64, n_experts=4,
                             top_k=2, cnn_filters=(4, 4, 4, 8), expert_hidden=4)
        model, _ = fit(train_set, config)
        report = evaluate(model, test_set)
        assert 0.0 <= report.accuracy <= 1.0
        # structural identity rather than a performance bar:
        assert report.accuracy == pytest.approx(
            np.trace(report.confusion) / report.confusion.sum())

    def test_perfect_predictions(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        report = EvalReport.from_predictions(y, y, ["a", "b", "c"])
        assert report.accuracy == 1.0
        assert np.all(report.f1 == 1.0)
        assert report.weighted_f1 == 1.0

    def test_hand_confusion_case(self):
        # class A: TP=8, FN=1, FP=2, TN=9
        y_true = np.array([0] * 9 + [1] * 11)
        y_pred = np.array([0] * 8 + [1] + [0] * 2 + [1] * 9)
        report = EvalReport.from_predictions(y_true, y_pred, ["A", "B"])
        assert report.precision[0] == pytest.approx(0.8)
        assert report.recall[0] == pytest.approx(8 / 9)
        assert report.f1[0] == pytest.approx(0.8421, abs=1e-4)

    def test_weighted_f1_formula(self):
        assert weighted_mean([1.0, 0.5], [90, 10]) == pytest.approx(0.95)

    def test_zero_predictions_flagged(self):
        report = EvalReport.from_predictions([0, 1], [0, 0], ["a", "b"])
        assert report.precision[1] == 0.0
        assert "b" in report.zero_division_classes

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_metric_invariants(self, pairs):
        y_true = np.array([p[0] for p in pairs])
        y_pred = np.array([p[1] for p in pairs])
        report = EvalReport.from_predictions(y_true, y_pred, list("abcd"))
        assert report.accuracy == pytest.approx(
            np.trace(report.confusion) / report.confusion.sum())
        present = report.support > 0
        if present.any():
            assert report.f1[present].min() - 1e-12 <= report.weighted_f1 \
                <= report.f1[present].max() + 1e-12

    def test_empty_set_rejected(self, rng):
        model = build_model(TrainConfig(disable_cnn=True), rng)
        empty = EncodedDataset(x=np.zeros((0, 6, 13)), y=np.zeros(0, dtype=np.int64),
                               class_names=("a",))
        with pytest.raises(ConfigError):
            evaluate(model, empty)

    def test_report_json_roundtrip(self):
        report = EvalReport.from_predictions([0, 1, 1], [0, 1, 0], ["a", "b"])
        text = report.to_json()
        again = EvalReport.from_json(text)
        assert again.to_json() == text


class TestAdam:
    def test_dense_update_matches_textbook_formula(self, rng):
        p = Tensor(rng.normal((3, 4)), requires_grad=True)
        optimizer = Adam([p], lr=1e-2)
        data, m, v = p.data.copy(), np.zeros((3, 4)), np.zeros((3, 4))
        for t in range(1, 4):
            g = rng.normal((3, 4))
            optimizer.zero_grad()
            p.accumulate_grad(g)
            optimizer.step()
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * g * g
            m_hat, v_hat = m / (1 - 0.9 ** t), v / (1 - 0.999 ** t)
            data = data - 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
            np.testing.assert_array_equal(p.data, data)
            np.testing.assert_array_equal(optimizer.m[0], m)
            np.testing.assert_array_equal(optimizer.v[0], v)

    def test_expert_without_rows_keeps_weights_and_moments(self, rng):
        config = TrainConfig(n_experts=4, top_k=4, expert_hidden=3, n_classes=5)
        bank = MoEHead(config, 6, rng).experts
        params = [bank.w1, bank.b1, bank.w2, bank.b2]
        optimizer = Adam(params, lr=1e-2)
        x = Tensor(np.abs(rng.normal((8, 6))) + 0.1)

        def step(*routes):
            # one mixture node per route, each sending every row to its experts
            optimizer.zero_grad()
            loss = Tensor(0.0)
            for experts in routes:
                router = Router(config, 6)
                router.w_gate.data[:] = -1.0
                router.w_gate.data[:, list(experts)] = 1.0
                out = moe_forward(bank, noisy_gate(router, x, len(experts), False), x)
                loss = loss + (out * out).sum()
            loss.backward()
            optimizer.step()

        step((0, 1, 2, 3))  # every expert trains, so every moment is nonzero
        for routes in (((0, 1),), ((0, 1), (1, 2))):
            before = [(p.data.copy(), m.copy(), v.copy())
                      for p, m, v in zip(params, optimizer.m, optimizer.v)]
            step(*routes)
            for (data, m, v), p, m_now, v_now in zip(before, params, optimizer.m, optimizer.v):
                assert m[3].any()  # plain Adam would move expert 3 on momentum alone
                np.testing.assert_array_equal(p.data[3], data[3])
                np.testing.assert_array_equal(m_now[3], m[3])
                np.testing.assert_array_equal(v_now[3], v[3])
                assert all((p.data[i] != data[i]).any() for i in (0, 1))


@pytest.mark.single_thread_blas
class TestCheckpoint:
    def _trained(self, tmp_path, seed=7):
        train_set, test_set = tiny_blob_split(n=360)
        config = TrainConfig(seed=seed, **TINY)
        model, history = fit(train_set, config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, config, metadata={"epochs_run": len(history)})
        return model, config, path, test_set

    def test_roundtrip_bit_exact_eval(self, tmp_path):
        model, config, path, test_set = self._trained(tmp_path)
        before = evaluate(model, test_set)
        loaded = load_checkpoint(path)
        after = evaluate(loaded.model, test_set)
        np.testing.assert_array_equal(before.confusion, after.confusion)
        x = Tensor(test_set.x[:8])
        logits_before, _ = model.eval()(x)
        logits_after, _ = loaded.model(x)
        np.testing.assert_array_equal(logits_before.data, logits_after.data)

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        model, _, path, test_set = self._trained(tmp_path)

        def no_draws(*_args, **_kwargs):
            raise AssertionError("load_checkpoint drew from an RngState")

        for method in ("uniform", "normal", "permutation"):
            monkeypatch.setattr(RngState, method, no_draws)
        loaded = load_checkpoint(path)
        x = Tensor(test_set.x[:8])
        np.testing.assert_array_equal(loaded.model(x)[0].data, model.eval()(x)[0].data)

    def test_default_config_recorded(self, tmp_path):
        config = TrainConfig()
        model = build_model(model_config_for(config), RngState(0))
        path = tmp_path / "default.ckpt"
        save_checkpoint(path, model, config)
        loaded = load_checkpoint(path)
        assert loaded.config.n_experts == 128
        assert loaded.config.top_k == 32
        assert loaded.config.n_experts == 128

    def test_same_seed_identical_bytes(self, tmp_path):
        train_set, _ = tiny_blob_split(n=360)
        config = TrainConfig(seed=5, **TINY)
        model_a, history_a = fit(train_set, config)
        model_b, history_b = fit(train_set, config)
        pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(pa, model_a, config, metadata={"epochs_run": len(history_a)})
        save_checkpoint(pb, model_b, config, metadata={"epochs_run": len(history_b)})
        assert pa.read_bytes() == pb.read_bytes()

    def test_eval_forwards_leave_state_and_checkpoint_unchanged(self, tmp_path):
        # the eval cells' cached products are not state: no key, no byte
        config = TrainConfig(seed=2, **TINY)
        model = build_model(model_config_for(config), RngState(2))
        keys = list(model.state_dict())
        before, after = tmp_path / "before.ckpt", tmp_path / "after.ckpt"
        save_checkpoint(before, model, config)
        model.eval()
        x = make_blobs(40, seed=1).x
        for rows in (1, 7, 40):
            model(Tensor(x[:rows]))
        assert list(model.state_dict()) == keys
        save_checkpoint(after, model, config)
        assert after.read_bytes() == before.read_bytes()

    def test_version_1_rejected(self, tmp_path):
        # a v1 file held one tensor per expert layer, v2 a model and a train
        # config, and v3 length-prefixed tensor blocks; v4 declares the
        # stacked bank's shapes in the header beside one config
        config = TrainConfig(seed=2, **TINY)
        model = build_model(model_config_for(config), RngState(2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, config)
        assert {"head.experts.w1", "head.experts.b1", "head.experts.w2",
                "head.experts.b2"} <= set(load_checkpoint(path).model.state_dict())
        payload = bytearray(path.read_bytes()[:-32])
        assert struct.unpack_from("<I", payload, 8) == (4,)
        cache = tmp_path / "data.cache"
        save_dataset_cache(cache, prepare_dataset(
            write_flow_csv(tmp_path / "flows.csv", fixture_rows(120)), seed=4), "fp")
        for old in (3, 2, 1):
            struct.pack_into("<I", payload, 8, old)
            path.write_bytes(bytes(payload) + hashlib.sha256(payload).digest())
            with pytest.raises(CheckpointVersionError):
                load_checkpoint(path)
            assert main(["evaluate", "--checkpoint", str(path), "--cache", str(cache),
                         "--out", str(tmp_path / "eval")]) == 4


class TestUtilization:
    def test_selection_counts_sum(self):
        train_set, test_set = tiny_blob_split(n=180)
        config = TrainConfig(seed=1, max_epochs=1, **{k: v for k, v in TINY.items()
                                                      if k != "max_epochs"})
        model, _ = fit(train_set, config)
        summary = expert_utilization(model, test_set)
        assert sum(summary["selection_counts"]) == summary["top_k"] * summary["samples"]
        assert len(summary["importance"]) == config.n_experts

    def test_k_equals_n_is_uniform(self, rng):
        config = TrainConfig(cnn_filters=(4, 4, 4, 8), n_experts=4, top_k=4,
                             expert_hidden=4)
        model = build_model(config, rng)
        data = make_blobs(60, seed=2)
        summary = expert_utilization(model, data)
        # zero-initialized router: clean scores are all zero, gates uniform
        assert summary["importance_cv_sq"] == pytest.approx(0.0, abs=1e-20)
        assert summary["load_cv_sq"] == pytest.approx(0.0, abs=1e-20)

    def test_noise_scale_floor_keeps_load_finite(self, rng):
        config = TrainConfig(cnn_filters=(4, 4, 4, 8), n_experts=4, top_k=2,
                             expert_hidden=4)
        model = build_model(config, rng)
        # softplus underflows to 0 on every row with a positive feature, and
        # the zero gate weights tie every clean score
        model.head.router.w_noise.data[:] = -1e4
        summary = expert_utilization(model, make_blobs(60, seed=2))
        assert all(math.isfinite(v) for v in summary["load_estimate"])
        assert math.isfinite(summary["load_cv_sq"])

    def test_requires_expert_head(self, rng):
        model = build_model(TrainConfig(disable_cnn=True), rng)
        with pytest.raises(ConfigError):
            expert_utilization(model, make_blobs(10, seed=0))

    def test_empty_set_rejected(self, rng):
        model = build_model(TrainConfig(cnn_filters=(4, 4, 4, 8), n_experts=4, top_k=2,
                                        expert_hidden=4), rng)
        empty = EncodedDataset(x=np.zeros((0, 6, 13)), y=np.zeros(0, dtype=np.int64),
                               class_names=("a",))
        with pytest.raises(ConfigError, match="empty"):
            expert_utilization(model, empty)


class TestNonFiniteInput:
    """Inference refuses a sample with a NaN or infinite cell, by its row,
    before any forward: an EncodedDataset built in Python reaches it
    without the cache's check."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", [
        lambda model, data: predict(model, data.x, batch_size=16),
        lambda model, data: evaluate(model, data, batch_size=16),
        lambda model, data: expert_utilization(model, data, batch_size=16),
    ], ids=["predict", "evaluate", "expert_utilization"])
    def test_names_the_first_bad_row(self, rng, call, value):
        model = build_model(TrainConfig(**{k: v for k, v in TINY.items()
                                           if k != "max_epochs"}), rng)
        data = make_blobs(60, seed=2)
        data.x[37, 5, 4] = value
        data.x[52, 0, 0] = value
        with pytest.raises(DegenerateInputError, match="input row 37 "):
            call(model, data)


class TestGraphLifetime:
    def test_step_and_predict_leave_no_cyclic_garbage(self):
        # autodiff graphs hold no reference cycles, so reference counting
        # alone frees them
        train_set, _ = tiny_blob_split(n=96)
        config = TrainConfig(seed=1, max_epochs=1, **{k: v for k, v in TINY.items()
                                                      if k != "max_epochs"})
        model = build_model(model_config_for(config), RngState(1))
        gc.collect()
        gc.disable()
        try:
            train(model, train_set, config)
            predict(model, train_set.x)
            assert gc.collect() == 0
        finally:
            gc.enable()


def record_graph_nodes(monkeypatch) -> list:
    """Op tags of every graph node built from now on."""
    nodes = []
    original = Tensor.result_of.__func__

    def result_of(cls, data, parents, op=""):
        out = original(cls, data, parents, op)
        if out.requires_grad:
            nodes.append(op)
        return out

    monkeypatch.setattr(Tensor, "result_of", classmethod(result_of))
    return nodes


@pytest.fixture(scope="module")
def full_scale_model():
    """The full-scale model (128 experts, k = 32) with a spread router and
    batch-norm statistics from one train-mode batch."""
    rng = RngState(21)
    model = build_model(model_config_for(TrainConfig(seed=21)), rng)
    router = model.head.router
    router.w_gate.data = rng.normal(router.w_gate.data.shape)
    model(Tensor(make_blobs(512, seed=22).x), rng)
    return model


class TestFullScaleStep:
    def test_parameter_tensors_and_graph_nodes(self, monkeypatch):
        config = TrainConfig(seed=3, max_epochs=1)
        model = build_model(model_config_for(config), RngState(3))
        # 16 in the backbone (conv weight and bias, gamma and beta per cell),
        # the router's 2 and the expert bank's 4
        assert len(model.parameters()) == 22
        data = make_blobs(1024, seed=3)
        nodes = record_graph_nodes(monkeypatch)
        train(model, EncodedDataset(x=data.x, y=data.y, class_names=data.class_names),
              config, RngState(3))
        assert len(nodes) <= 21
        # the gate: the clean scores' matmul, noise_scale, the noisy scores
        # and the softmax, which masks to the top k itself
        assert nodes.count("noise_scale") == 1 and nodes.count("noisy_scores") == 1
        assert nodes.count("matmul") == 1 and nodes.count("softmax") == 1
        assert not {"softplus", "top_k_mask"} & set(nodes)
        assert nodes.count("conv_cell") == 4 and "batchnorm" not in nodes
        assert nodes.count("expert_mixture") == 1
        assert nodes.count("cv_sq") == 2 and nodes.count("load_probability") == 1
        assert not {"gather", "normal_cdf", "/", "**2"} & set(nodes)

    @staticmethod
    def step_memory(forward_only: bool = False) -> tuple[int, int]:
        """Bytes held when ``backward()`` starts and at its peak, one
        full-scale training step under tracemalloc; with ``forward_only``,
        the bytes held after the train-mode forward and its peak."""
        config = TrainConfig(seed=3, max_epochs=1)
        model = build_model(model_config_for(config), RngState(3)).train()
        data, rng = make_blobs(1024, seed=3), RngState(3)
        tracemalloc.start()
        try:
            logits, decision = model(Tensor(data.x), rng)
            if forward_only:
                return tracemalloc.get_traced_memory()
            loss, _ = total_loss(logits, data.y, decision, config.alpha)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return held, peak

    def test_step_memory_held_and_peak_in_backward(self):
        # The backward releases each node once its closure has run: 17.2
        # MiB held and a 19.8 MiB peak (18.2 and 20.8 at 0a29d61; a 23.0
        # peak at cd2d4e2, whose largest closures allocated more; 23.8 and
        # 28.7 at 3045b36).  Keeping every
        # node's closure until the backward ends measures a 30.8 MiB peak
        # (38.7 at cd2d4e2, 41.9 at 3045b36).
        held, peak = self.step_memory()
        mib = 2 ** 20
        assert held <= 64 * mib, f"{held / mib:.1f} MiB held when backward() starts"
        assert peak <= 28 * mib, f"{peak / mib:.1f} MiB at the peak of backward()"

    def test_fused_conv_cells_hold_less(self):
        # One conv_cell node per cell keeps the batch mean and std and the
        # pool's bool mask: 17.2 MiB held and a 19.8 MiB peak (23.8 and 28.7
        # at 3045b36, where each cell also kept x_hat).  Separate conv1d,
        # batchnorm, relu and maxpool1d nodes, each keeping its own arrays,
        # measure 45.8 and 48.4 MiB.
        held, peak = self.step_memory()
        mib = 2 ** 20
        assert held <= 36 * mib, f"{held / mib:.1f} MiB held when backward() starts"
        assert peak <= 40 * mib, f"{peak / mib:.1f} MiB at the peak of backward()"

    def test_routing_nodes_keep_only_what_their_backward_reads(self):
        # noise_scale keeps the sigmoid, the noisy scores the noise draw and
        # the softmax the bool top-k mask; the expert mixture keeps no expert
        # outputs and load_probability no threshold-index table: 17.2 MiB
        # held and a 19.8 MiB peak (23.8 and 28.7 at 3045b36).  Keeping the
        # pre-activation, softplus's exp(-|a|) and output, eps * std, the
        # -inf masked copy, the outputs and the table measures 25.3 and 30.2
        # MiB (30.9 and 35.8 with conv cells that keep x_hat).
        held, peak = self.step_memory()
        mib = 2 ** 20
        assert held <= 21 * mib, f"{held / mib:.1f} MiB held when backward() starts"
        assert peak <= 23 * mib, f"{peak / mib:.1f} MiB at the peak of backward()"

    def test_conv_cells_rebuild_x_hat_in_backward(self):
        # Each conv cell rebuilds x_hat and its im2col matrix in the
        # backward: 17.2 MiB held and a 19.8 MiB peak.  Cells that keep
        # x_hat, as at 3045b36, measure 23.8 and 26.4.
        held, peak = self.step_memory()
        mib = 2 ** 20
        assert held <= 20 * mib, f"{held / mib:.1f} MiB held when backward() starts"
        assert peak <= 23 * mib, f"{peak / mib:.1f} MiB at the peak of backward()"

    def test_train_mode_forward_peak(self):
        # The head builds both balancing losses before the expert mixture,
        # so load_probability's temporaries are gone before the mixture's
        # graph exists, and no conv cell keeps x_hat: a 17.4 MiB peak (18.4
        # at 0a29d61, whose cells normalised into fresh arrays).  With the
        # losses built last it is 22.6; with cells keeping x_hat, 24.0; with
        # both, as at 3045b36, 28.2.
        _, peak = self.step_memory(forward_only=True)
        mib = 2 ** 20
        assert peak <= 20 * mib, f"{peak / mib:.1f} MiB at the peak of the forward"

    def test_conv_cells_keep_one_mask_and_routes_own_their_rows(self):
        # Each conv cell reads ReLU activity from its kept output instead of
        # keeping a full-size bool mask, normalises inside its conv output
        # and adds each tap's input gradient at its shift; each expert's
        # routed rows are their own array, not a view of every (expert,
        # row) pair: 17.2 MiB held and a 19.8 MiB peak, against 18.2 and
        # 20.8 at 0a29d61.
        held, peak = self.step_memory()
        mib = 2 ** 20
        assert held <= 17.5 * mib, f"{held / mib:.2f} MiB held when backward() starts"
        assert peak <= 20.2 * mib, f"{peak / mib:.2f} MiB at the peak of backward()"


@pytest.mark.single_thread_blas
class TestGraphFreeEval:
    def test_full_scale_eval_forward_is_parentless(self, full_scale_model, monkeypatch):
        nodes = record_graph_nodes(monkeypatch)
        logits, decision = full_scale_model.eval()(Tensor(make_blobs(64, seed=23).x))
        assert not logits.requires_grad and logits._parents == ()
        assert not decision.gates.requires_grad
        assert nodes == []

    def test_predictions_do_not_depend_on_batch_size(self, full_scale_model):
        x = make_blobs(1024, seed=24).x
        bulk = predict(full_scale_model, x, batch_size=1024)
        assert len(np.unique(bulk)) > 1
        np.testing.assert_array_equal(predict(full_scale_model, x, batch_size=64), bulk)
        np.testing.assert_array_equal(predict(full_scale_model, x, batch_size=1), bulk)

    @pytest.mark.parametrize("batch_size", [96, 128, 256])
    def test_predictions_either_side_of_the_dense_crossover(self, full_scale_model,
                                                            batch_size):
        # 96 and 128 rows evaluate every expert at once, 256 and 1024 loop
        # over each expert's routed rows
        x = make_blobs(1024, seed=24).x
        bulk = predict(full_scale_model, x, batch_size=1024)
        np.testing.assert_array_equal(predict(full_scale_model, x, batch_size=batch_size), bulk)

    def test_expert_utilization_builds_no_graph(self, full_scale_model, monkeypatch):
        nodes = record_graph_nodes(monkeypatch)
        summary = expert_utilization(full_scale_model, make_blobs(128, seed=25))
        assert nodes == []
        assert sum(summary["selection_counts"]) == 32 * 128

    def test_train_step_after_predict_is_unchanged(self):
        train_set, _ = tiny_blob_split(n=128)
        config = TrainConfig(seed=4, max_epochs=1, **{k: v for k, v in TINY.items()
                                                      if k != "max_epochs"})
        runs = []
        for predict_first in (False, True):
            model = build_model(model_config_for(config), RngState(4))
            if predict_first:
                predict(model, train_set.x, batch_size=32)
            _, history = train(model, train_set, config, RngState(4))
            runs.append((history[0]["total"], model.state_dict()))
        assert runs[0][0] == runs[1][0]
        for name, value in runs[0][1].items():
            np.testing.assert_array_equal(runs[1][1][name], value)


class TestHistory:
    def test_json_roundtrip(self):
        train_set, _ = tiny_blob_split(n=180)
        config = TrainConfig(seed=1, max_epochs=2, **{k: v for k, v in TINY.items()
                                                      if k != "max_epochs"})
        _, history = fit(train_set, config)
        text = history_to_json(history, config)
        import json
        parsed = json.loads(text)
        assert len(parsed["epochs"]) == 2
        assert parsed["config"]["n_experts"] == config.n_experts
        assert {"total", "cross_entropy", "importance", "load", "accuracy",
                "epoch"} <= set(parsed["epochs"][0])

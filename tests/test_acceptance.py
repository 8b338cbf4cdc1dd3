"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Criterion 9 needs the real combined flow CSV; point FLOWMOE_5GNIDD_CSV at it
to enable that test (and set FLOWMOE_5GNIDD_FULL=1 for the full-data run).
Without the CSV it is skipped and criteria 1-8 plus 10-11 stand in.
"""

import functools
import os
import time

import numpy as np
import pytest

from flowmoe.ablation import EXPERT_GRID, ablation_config, run_expert_grid
from flowmoe.checkpoint import load_checkpoint, save_checkpoint
from flowmoe.errors import SchemaError
from flowmoe.layers import (
    BatchNorm1d,
    count_parameters,
    conv1d,
    cross_entropy,
    dense,
    maxpool1d,
    relu,
)
from flowmoe.metrics import EvalReport
from flowmoe.model import build_model
from flowmoe.moe import (
    GateDecision,
    MoEHead,
    Router,
    importance_loss,
    load_loss,
    load_probability,
    moe_forward,
    noisy_gate,
    top_k_mask,
)
from flowmoe.pipeline import (
    EncodedDataset,
    FlowSchema,
    apply_imputers,
    encode,
    fit_imputers,
    fit_pipeline_stats,
    parse_flow_csv,
    stratified_split,
)
from flowmoe.synthetic import make_blobs
from flowmoe.tensor import RngState, Tensor, matmul, softmax, softplus
from flowmoe.training import TrainConfig, evaluate, fit, model_config_for

from csv_fixture import fixture_rows, write_flow_csv
from fd import check_gradients

GRAD_TOL = 1e-4
FD_STEP = 1e-5


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except Exception:
                print(f"\n[FAIL] criterion {number}: {description}")
                raise
            print(f"\n[PASS] criterion {number}: {description}")
            return result
        return inner
    return wrap


def spaced(rng: RngState, shape, min_gap: float = 1e-3) -> np.ndarray:
    """Values pairwise separated per row, so FD probes never flip a
    data-dependent selection (top-k, argmax)."""
    while True:
        values = 3.0 * rng.normal(shape)
        flat = values.reshape(values.shape[0], -1) if values.ndim > 1 \
            else values.reshape(1, -1)
        if np.min(np.diff(np.sort(flat, axis=-1), axis=-1)) > min_gap:
            return values


def pinned_decision(clean, std_raw, eps, k):
    """GateDecision over leaf tensors with a fixed noise draw."""
    clean_t = Tensor(clean, requires_grad=True)
    std_raw_t = Tensor(std_raw, requires_grad=True)
    std = softplus(std_raw_t)
    noisy = clean_t + Tensor(eps) * std
    gates = softmax(top_k_mask(noisy, k), axis=1)
    order = np.argsort(-noisy.data, axis=1, kind="stable")
    decision = GateDecision(clean_logits=clean_t, noise_std=std, noisy_logits=noisy,
                            gates=gates, selected_indices=order[:, :k], top_k=k)
    return decision, clean_t, std_raw_t


def numpy_expert(expert, x):
    hidden = np.maximum(x @ expert.hidden.weight.data.T + expert.hidden.bias.data, 0.0)
    return hidden @ expert.out.weight.data.T + expert.out.bias.data


@criterion(1, "reverse-mode gradients match central finite differences "
              "(rel. err <= 1e-4, 20 random instances per op)")
def test_c01_gradient_correctness():
    start = time.time()
    n_instances = 20

    def conv_case(rng):
        x = rng.normal((2, 2, 4))
        w = rng.normal((2, 2, 3))
        b = rng.normal((2,))
        probe = rng.normal((2, 2, 4))

        def build():
            tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
            return (conv1d(tx, tw, tb) * Tensor(probe)).sum(), [tx, tw, tb]

        return build, [x, w, b]

    def batchnorm_case(rng):
        x = rng.normal((3, 2, 3))
        gamma = rng.normal((2,)) + 1.5
        beta = rng.normal((2,))
        probe = rng.normal((3, 2, 3))

        def build():
            layer = BatchNorm1d(2)
            layer.gamma = Tensor(gamma, requires_grad=True)
            layer.beta = Tensor(beta, requires_grad=True)
            tx = Tensor(x, requires_grad=True)
            return (layer(tx) * Tensor(probe)).sum(), [tx, layer.gamma, layer.beta]

        return build, [x, gamma, beta]

    def maxpool_case(rng):
        x = np.ascontiguousarray(spaced(rng, (2, 12)).reshape(2, 2, 6))
        probe = rng.normal((2, 2, 3))

        def build():
            tx = Tensor(x, requires_grad=True)
            return (maxpool1d(tx) * Tensor(probe)).sum(), [tx]

        return build, [x]

    def dense_case(rng):
        x = rng.normal((3, 3))
        w = rng.normal((2, 3))
        b = rng.normal((2,))
        probe = rng.normal((3, 2))

        def build():
            tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
            return (dense(tx, tw, tb) * Tensor(probe)).sum(), [tx, tw, tb]

        return build, [x, w, b]

    def relu_case(rng):
        x = rng.normal((8,))
        x[np.abs(x) < 0.05] += 0.2
        probe = rng.normal((8,))

        def build():
            tx = Tensor(x, requires_grad=True)
            return (relu(tx) * Tensor(probe)).sum(), [tx]

        return build, [x]

    def softmax_ce_case(rng):
        logits = rng.normal((3, 5))
        labels = (np.abs(rng.normal((3,))) * 97).astype(np.intp) % 5

        def build():
            t = Tensor(logits, requires_grad=True)
            return cross_entropy(t, labels), [t]

        return build, [logits]

    def gating_case(rng):
        x = rng.normal((2, 4))
        w_g = np.ascontiguousarray(spaced(rng, (1, 12)).reshape(4, 3))
        probe = rng.normal((2, 3))
        config = TrainConfig(n_experts=3, top_k=2, expert_hidden=2, n_classes=3)

        def build():
            router = Router(config, 4)
            router.w_gate = Tensor(w_g, requires_grad=True)
            tx = Tensor(x, requires_grad=True)
            decision = noisy_gate(router, tx, 2, noise_enabled=False)
            return (decision.gates * Tensor(probe)).sum(), [tx, router.w_gate]

        return build, [x, w_g]

    def importance_case(rng):
        gates = np.abs(rng.normal((4, 3))) + 0.1

        def build():
            t = Tensor(gates, requires_grad=True)
            return importance_loss(t, 1.0), [t]

        return build, [gates]

    def load_case(rng):
        clean = spaced(rng, (2, 5))
        std_raw = rng.normal((2, 5))
        eps = rng.normal((2, 5))

        def build():
            decision, clean_t, std_raw_t = pinned_decision(clean, std_raw, eps, 2)
            return load_loss(load_probability(decision, 2), 1.0), [clean_t, std_raw_t]

        return build, [clean, std_raw]

    cases = {
        "conv1d": conv_case,
        "batchnorm": batchnorm_case,
        "maxpool": maxpool_case,
        "dense": dense_case,
        "relu": relu_case,
        "softmax+cross-entropy": softmax_ce_case,
        "noisy gating (noise off)": gating_case,
        "importance loss": importance_case,
        "load loss": load_case,
    }
    for name, make_case in cases.items():
        for i in range(n_instances):
            build, arrays = make_case(RngState(10_000 + 97 * i))
            check_gradients(build, arrays, h=FD_STEP, tol=GRAD_TOL)
    elapsed = time.time() - start
    assert elapsed < 120, f"gradient suite took {elapsed:.0f}s (budget 120s)"


@criterion(2, "1,000 random gate draws: exactly k nonzeros per row, "
              "rows sum to 1 +- 1e-9")
def test_c02_gating_sparsity_normalization():
    rng = RngState(20_202)
    for draw in range(1000):
        n = int(rng.uniform(1, 65, ()))
        k = int(rng.uniform(1, n + 1, ()))
        k = min(k, n)
        config = TrainConfig(n_experts=n, top_k=k, expert_hidden=2, n_classes=2)
        router = Router(config, 4)
        router.w_gate.data = rng.normal((4, n))
        router.w_noise.data = 0.3 * rng.normal((4, n))
        x = Tensor(rng.normal((2, 4)))
        decision = noisy_gate(router, x, k, noise_enabled=True, rng=rng)
        gates = decision.gates.data
        for row in range(gates.shape[0]):
            assert np.count_nonzero(gates[row]) == k
            assert abs(gates[row].sum() - 1.0) <= 1e-9
            assert gates[row].min() >= 0.0


@criterion(3, "sparse expert dispatch equals the dense weighted sum "
              "within 1e-9 (100 cases, n <= 16)")
def test_c03_dense_equivalence():
    rng = RngState(30_303)
    for case in range(100):
        n = int(rng.uniform(2, 17, ()))
        k = int(rng.uniform(1, n + 1, ()))
        k = min(k, n)
        config = TrainConfig(n_experts=n, top_k=k, expert_hidden=3, n_classes=4)
        head = MoEHead(config, 5, rng)
        head.router.w_gate.data = rng.normal((5, n))
        x_data = rng.normal((4, 5))
        x = Tensor(x_data)
        decision = noisy_gate(head.router, x, k, noise_enabled=True, rng=rng)
        sparse = moe_forward(head.experts, decision, x).data
        dense_sum = np.zeros_like(sparse)
        for i, expert in enumerate(head.experts):
            dense_sum += decision.gates.data[:, [i]] * numpy_expert(expert, x_data)
        assert np.max(np.abs(sparse - dense_sum)) <= 1e-9


@criterion(4, "k = n with noise off collapses to a plain softmax of the "
              "clean scores (<= 1e-12)")
def test_c04_topk_degeneracy():
    rng = RngState(40_404)
    for _ in range(50):
        n = int(rng.uniform(2, 33, ()))
        config = TrainConfig(n_experts=n, top_k=n, expert_hidden=2, n_classes=2)
        router = Router(config, 6)
        router.w_gate.data = rng.normal((6, n))
        x = Tensor(rng.normal((3, 6)))
        decision = noisy_gate(router, x, n, noise_enabled=False)
        expected = softmax(matmul(x, router.w_gate), axis=1).data
        assert np.max(np.abs(decision.gates.data - expected)) <= 1e-12


@criterion(5, "selection probability matches Monte-Carlo re-draw frequency "
              "within 0.01 (10 cases, 1e5 samples)")
def test_c05_load_probability_monte_carlo():
    start = time.time()
    case_rng = RngState(50_505)
    mc_rng = RngState(50_506)
    draws = mc_rng.normal((100_000,))
    for case in range(10):
        n = 4 + case % 5
        k = 2 + case % 2
        clean = spaced(case_rng, (1, n))
        std_raw = case_rng.normal((1, n))
        eps = case_rng.normal((1, n))
        decision, _, _ = pinned_decision(clean, std_raw, eps, k)
        p = load_probability(decision, k).data[0]
        noisy = decision.noisy_logits.data[0]
        std = decision.noise_std.data[0]
        for i in range(n):
            others = np.delete(noisy, i)
            threshold = np.sort(others)[::-1][k - 1]
            redrawn = clean[0, i] + std[i] * draws
            empirical = float((redrawn > threshold).mean())
            assert abs(empirical - p[i]) < 0.01
    assert time.time() - start < 60


@criterion(6, "balancing-loss anchors: uniform gates give 0; a two-expert "
              "collapse gives CV^2 = 1")
def test_c06_balancing_loss_anchors():
    uniform = Tensor(np.full((16, 8), 1 / 8))
    assert importance_loss(uniform, 1.0).item() <= 1e-30
    for batch in (1, 2, 7):
        gates = np.zeros((batch, 2))
        gates[:, 0] = 1.0
        # exactly 1 up to the documented 1e-10 epsilon in the CV denominator
        assert importance_loss(Tensor(gates), 1.0).item() == \
            pytest.approx(1.0, abs=1e-9)
        assert load_loss(Tensor(gates), 1.0).item() == pytest.approx(1.0, abs=1e-9)


@criterion(7, "the flow schema encodes to exactly 78 values reshaped 6x13; "
              "width drift fails loudly")
def test_c07_pipeline_shape_contract(tmp_path):
    schema = FlowSchema()
    rows = fixture_rows(20)
    path = write_flow_csv(tmp_path / "fixture.csv", rows)
    table = parse_flow_csv(path, schema).table
    assert len(table) == 20
    imputation = fit_imputers(table, schema)
    table = apply_imputers(table, imputation, schema, use_labels=True)
    stats = fit_pipeline_stats(table, schema, imputation)
    assert sum(stats.encoded_widths().values()) == 78
    data = encode(table, stats)
    for i in range(len(data)):
        assert data.x[i].shape == (6, 13)
        flat = data.x[i].reshape(-1)
        assert flat.shape == (78,)
        for r in range(6):
            for c in range(13):
                assert data.x[i][r, c] == flat[13 * r + c]
    # dropping one category from the training vocabulary must fail loudly
    drifted = [dict(row) for row in rows]
    for row in drifted:
        if row["Proto"] == "rtp":
            row["Proto"] = "tcp"
    path2 = write_flow_csv(tmp_path / "drift.csv", drifted)
    table2 = parse_flow_csv(path2, schema).table
    imputation2 = fit_imputers(table2, schema)
    table2 = apply_imputers(table2, imputation2, schema, use_labels=True)
    stats2 = fit_pipeline_stats(table2, schema, imputation2)
    with pytest.raises(SchemaError, match="77"):
        encode(table2, stats2)


@criterion(8, "synthetic 9-class end-to-end (n=16, k=4): test accuracy "
              ">= 0.99 within 5 epochs")
def test_c08_synthetic_end_to_end():
    start = time.time()
    data = make_blobs(5000, seed=8)
    order = np.argsort(data.y, kind="stable")  # stratify by class
    train_idx, test_idx = [], []
    for label in range(9):
        members = order[data.y[order] == label]
        cut = int(0.6 * members.size)
        train_idx.extend(members[:cut])
        test_idx.extend(members[cut:])
    train_set = EncodedDataset(x=data.x[train_idx], y=data.y[train_idx],
                               class_names=data.class_names)
    test_set = EncodedDataset(x=data.x[test_idx], y=data.y[test_idx],
                              class_names=data.class_names)
    config = TrainConfig(batch_size=256, max_epochs=5, n_experts=16, top_k=4,
                         seed=8)
    model, history = fit(train_set, config)
    report = evaluate(model, test_set)
    elapsed = time.time() - start
    assert report.accuracy >= 0.99, f"accuracy {report.accuracy:.4f}"
    assert elapsed < 300, f"took {elapsed:.0f}s (budget 300s)"


@criterion(9, "published-benchmark reproduction on the combined flow CSV "
              "(weighted F1 bar)")
def test_c09_benchmark_reproduction(tmp_path):
    csv_path = os.environ.get("FLOWMOE_5GNIDD_CSV")
    if not csv_path:
        pytest.skip("combined flow CSV not provided (set FLOWMOE_5GNIDD_CSV); "
                    "criteria 1-8 and 10-11 stand in")
    schema = FlowSchema()
    parsed = parse_flow_csv(csv_path, schema)
    if os.environ.get("FLOWMOE_5GNIDD_FULL") == "1":
        table = parsed.table
        epochs, bar = 40, 0.995
    else:
        table, _ = stratified_split(parsed.table, train_fraction=0.05, seed=9)
        epochs, bar = 10, 0.98
    train_table, test_table = stratified_split(table, 0.6, seed=9)
    imputation = fit_imputers(train_table, schema)
    train_table = apply_imputers(train_table, imputation, schema, use_labels=True)
    test_table = apply_imputers(test_table, imputation, schema, use_labels=False)
    stats = fit_pipeline_stats(train_table, schema, imputation)
    train_set = encode(train_table, stats)
    test_set = encode(test_table, stats)
    config = TrainConfig(max_epochs=epochs, seed=9)
    model, _ = fit(train_set, config)
    report = evaluate(model, test_set)
    assert report.weighted_f1 >= bar, f"weighted F1 {report.weighted_f1:.5f} < {bar}"


@criterion(10, "ablation variants build the quoted architectures and the "
               "(n, k) grid yields one report per pair")
def test_c10_ablation_structural():
    # zeroed losses: same architecture, both weights zero
    zeroed = model_config_for(ablation_config(TrainConfig(), "zero_losses"))
    assert zeroed.variant == "cnn_moe"
    assert zeroed.w_importance == 0.0 and zeroed.w_load == 0.0
    assert zeroed.n_experts == 128 and zeroed.top_k == 32
    # dense layer replacing the expert head: backbone output 128 -> 9
    no_moe = build_model(model_config_for(
        ablation_config(TrainConfig(), "no_moe")), RngState(0))
    assert not hasattr(no_moe, "head")
    assert no_moe.backbone.output_dim == 128
    assert no_moe.out.in_dim == 128 and no_moe.out.out_dim == 9
    # one affine layer 78 -> 9: exactly 711 parameters
    no_cnn = build_model(model_config_for(
        ablation_config(TrainConfig(), "no_cnn")), RngState(0))
    assert count_parameters(no_cnn) == 711
    # the expert grid trains and evaluates once per (n, k) pair
    data = make_blobs(450, seed=10)
    cut = 300
    train_set = EncodedDataset(x=data.x[:cut], y=data.y[:cut],
                               class_names=data.class_names)
    test_set = EncodedDataset(x=data.x[cut:], y=data.y[cut:],
                              class_names=data.class_names)
    base = TrainConfig(batch_size=64, max_epochs=1, seed=10)
    results = run_expert_grid(base, EXPERT_GRID, train_set, test_set)
    assert len(results) == len(EXPERT_GRID)
    for (n, k), result in zip(EXPERT_GRID, results):
        assert isinstance(result.report, EvalReport)
        assert result.config.n_experts == n and result.config.top_k == k
        assert result.report.confusion.sum() == len(test_set)


@criterion(11, "same seed gives bit-identical checkpoints; save/load/evaluate "
               "is bit-exact")
def test_c11_determinism_and_roundtrip(tmp_path):
    data = make_blobs(360, seed=11)
    cut = 240
    train_set = EncodedDataset(x=data.x[:cut], y=data.y[:cut],
                               class_names=data.class_names)
    test_set = EncodedDataset(x=data.x[cut:], y=data.y[cut:],
                              class_names=data.class_names)
    config = TrainConfig(batch_size=64, max_epochs=2, n_experts=4, top_k=2,
                         cnn_filters=(4, 4, 4, 8), expert_hidden=4, seed=11)
    paths = []
    for name in ("a", "b"):
        model, history = fit(train_set, config)
        path = tmp_path / f"{name}.ckpt"
        save_checkpoint(path, model, config,
                        metadata={"epochs_run": len(history)})
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    model, _ = fit(train_set, config)
    before = evaluate(model, test_set)
    ckpt = tmp_path / "roundtrip.ckpt"
    save_checkpoint(ckpt, model, config)
    loaded = load_checkpoint(ckpt)
    after = evaluate(loaded.model, test_set)
    np.testing.assert_array_equal(before.confusion, after.confusion)
    x = Tensor(test_set.x)
    logits_before, _ = model.eval()(x)
    logits_after, _ = loaded.model(x)
    np.testing.assert_array_equal(logits_before.data, logits_after.data)

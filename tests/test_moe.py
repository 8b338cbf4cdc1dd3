import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmoe.errors import ConfigError
from flowmoe.layers import Dense
from flowmoe.model import TrainConfig
from flowmoe import moe
from flowmoe.moe import (
    DENSE_ROWS_PER_EXPERT,
    NOISE_STD_FLOOR,
    ExpertBank,
    GateDecision,
    MoEHead,
    Router,
    importance_loss,
    load_loss,
    load_probability,
    moe_forward,
    noise_scale,
    noisy_gate,
    top_k_mask,
    top_k_selection,
)
from flowmoe.tensor import (
    RngState,
    Tensor,
    matmul,
    ndtr_and_gaussian,
    no_grad,
    softmax,
    softplus,
)

from conftest import check_shared_incoming_gradient, spaced_logits
from fd import check_gradients


def tiny_config(**overrides) -> TrainConfig:
    base = dict(n_experts=4, top_k=2, expert_hidden=3, n_classes=5)
    base.update(overrides)
    return TrainConfig(**base)


def make_decision(clean: np.ndarray, std: np.ndarray, eps: np.ndarray,
                  k: int) -> GateDecision:
    """Decision with a pinned noise draw, for the load-probability tests."""
    clean_t = Tensor(clean, requires_grad=True)
    std_t = Tensor(std)
    noisy = clean_t + Tensor(eps) * std_t
    gates = softmax(top_k_mask(noisy, k), axis=1)
    order = np.argsort(-noisy.data, axis=1, kind="stable")
    return GateDecision(clean_logits=clean_t, noise_std=std_t, noisy_logits=noisy,
                        gates=gates, selected_indices=order[:, :k], top_k=k)


def numpy_expert_forward(bank: ExpertBank, i: int, x: np.ndarray) -> np.ndarray:
    """Plain-numpy reimplementation of expert ``i``, independent of autodiff."""
    hidden = np.maximum(x @ bank.w1.data[i].T + bank.b1.data[i], 0.0)
    return hidden @ bank.w2.data[i].T + bank.b2.data[i]


class TestTopKMask:
    def test_hand_case(self):
        out = top_k_mask(Tensor([[3.0, 1.0, 2.0]]), 2)
        np.testing.assert_array_equal(out.data, [[3.0, -np.inf, 2.0]])

    def test_k_equals_n_is_identity(self, rng):
        x = rng.normal((3, 5))
        np.testing.assert_array_equal(top_k_mask(Tensor(x), 5).data, x)

    def test_tie_keeps_lowest_index(self):
        out = top_k_mask(Tensor([[1.0, 1.0, 1.0]]), 1)
        np.testing.assert_array_equal(out.data, [[1.0, -np.inf, -np.inf]])

    def test_against_sort_oracle(self, rng):
        for _ in range(25):
            n = int(rng.uniform(2, 10, ()))
            k = int(rng.uniform(1, n + 1, ()))
            k = min(k, n)
            row = rng.normal((1, n))
            out = top_k_mask(Tensor(row), k).data[0]
            threshold = np.sort(row[0])[::-1][k - 1]
            kept = np.isfinite(out)
            assert kept.sum() == k
            assert np.all(row[0][kept] >= threshold)
            np.testing.assert_array_equal(out[kept], row[0][kept])

    def test_gradient_through_retained_only(self):
        x = Tensor([[3.0, 1.0, 2.0]], requires_grad=True)
        gates = softmax(top_k_mask(x, 2), axis=1)
        gates.sum().backward()
        assert x.grad[0, 1] == 0.0


def stable_top_k(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: keep mask and order from a full stable argsort."""
    order = np.argsort(-values, axis=1, kind="stable")[:, :k]
    keep = np.zeros(values.shape, dtype=bool)
    np.put_along_axis(keep, order, True, axis=1)
    return keep, order


def full_scale_scores(rng: RngState, batch: int, n: int = 128) -> np.ndarray:
    """Gate scores of the full-scale shape with heavy ties: a third of the
    rows integers in [-3, 3] (ties at the top-k threshold), a third integers
    in [-200, 200] (ties among the kept scores), a third continuous.  Rows
    0 and 3 are 100 NaN short of numbers, rows 1 and 4 hold 40 +inf, rows 2
    and 5 40 -inf, and row 6 is all NaN."""
    values = rng.normal((batch, n))
    values[0::3] = np.floor(rng.uniform(-3.0, 4.0, values[0::3].shape))
    values[1::3] = np.floor(rng.uniform(-200.0, 201.0, values[1::3].shape))
    for row, (cell, count) in enumerate([(np.nan, 100), (np.inf, 40), (-np.inf, 40)] * 2):
        values[row, rng.permutation(n)[:count]] = cell
    values[6] = np.nan
    return values


# integer-valued scores force ties; NaN and infinities must rank as in argsort
SCORE = st.one_of(st.integers(-3, 3).map(float), st.sampled_from([np.nan, np.inf, -np.inf]))


class TestTopKSelection:
    @given(st.integers(1, 6), st.integers(1, 10), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_stable_argsort(self, batch, n, data):
        k = data.draw(st.integers(1, n), label="k")
        finite = data.draw(st.booleans(), label="finite")
        cell = st.integers(-3, 3).map(float) if finite else SCORE
        values = np.array(data.draw(st.lists(
            st.lists(cell, min_size=n, max_size=n), min_size=batch, max_size=batch)))
        if data.draw(st.booleans(), label="all-equal first row"):
            values[0] = values[0, 0]
        keep, order = stable_top_k(values, k)
        got_keep, got_order = top_k_selection(values, k)
        np.testing.assert_array_equal(got_order, order)
        np.testing.assert_array_equal(got_keep, keep)
        np.testing.assert_array_equal(top_k_mask(Tensor(values), k).data,
                                      np.where(keep, values, -np.inf))
        full = np.argsort(-values, axis=1, kind="stable")
        if k < n:  # the k-th and (k+1)-th columns that load_probability reads
            _, wider = top_k_selection(values, k + 1)
            np.testing.assert_array_equal(wider[:, k - 1:k + 1], full[:, k - 1:k + 1])
            # load_probability finds the (k+1)-th from the top k alone
            np.testing.assert_array_equal(moe._next_ranked(values, keep, k), full[:, k])
            probe = GateDecision(clean_logits=Tensor(values),
                                 noise_std=Tensor(np.ones_like(values)),
                                 noisy_logits=Tensor(values), gates=None,
                                 selected_indices=order, top_k=k)
            cols = np.where(keep, full[:, [k]], full[:, [k - 1]])
            with np.errstate(invalid="ignore"):
                expected = ndtr_and_gaussian(values - np.take_along_axis(values, cols, axis=1))[0]
                np.testing.assert_array_equal(load_probability(probe, k).data, expected)
        if finite:
            # the gate and the load probability see the same order
            router = Router(tiny_config(n_experts=n, top_k=k), n)
            router.w_gate.data = np.eye(n)
            decision = noisy_gate(router, Tensor(values), k, noise_enabled=False)
            np.testing.assert_array_equal(decision.selected_indices, order)
            np.testing.assert_array_equal(decision.gates.data != 0, keep)
            if k < n:
                cols = np.where(keep, full[:, [k]], full[:, [k - 1]])
                thresholds = np.take_along_axis(values, cols, axis=1)
                probe = GateDecision(
                    clean_logits=decision.clean_logits, noise_std=Tensor(np.ones_like(values)),
                    noisy_logits=decision.noisy_logits, gates=decision.gates,
                    selected_indices=decision.selected_indices, top_k=k)
                np.testing.assert_array_equal(load_probability(probe, k).data,
                                              ndtr_and_gaussian(values - thresholds)[0])

    @pytest.mark.parametrize("k", [1, 5])
    def test_edge_rows(self, k):
        values = np.array([
            [2.0, 2.0, 2.0, 2.0, 2.0],
            [np.nan, 1.0, np.nan, 3.0, 1.0],
            [np.nan] * 5,
            [-np.inf, 0.0, -np.inf, np.nan, np.inf],
            [0.5, -1.0, 4.0, 2.0, 3.0],
        ])
        keep, order = stable_top_k(values, k)
        got_keep, got_order = top_k_selection(values, k)
        np.testing.assert_array_equal(got_order, order)
        np.testing.assert_array_equal(got_keep, keep)
        if k < values.shape[1]:
            np.testing.assert_array_equal(moe._next_ranked(values, keep, k),
                                          np.argsort(-values, axis=1, kind="stable")[:, k])

    def test_empty_batch(self):
        keep, order = top_k_selection(np.zeros((0, 4)), 2)
        assert keep.shape == (0, 4) and order.shape == (0, 2)

    @pytest.mark.parametrize("batch", [64, 1024])
    def test_full_scale_with_heavy_ties(self, rng, batch):
        values = full_scale_scores(rng, batch)
        k = 32
        keep, order = stable_top_k(values, k)
        got_keep, got_order = top_k_selection(values, k)
        np.testing.assert_array_equal(got_order, order)
        np.testing.assert_array_equal(got_keep, keep)
        # rows whose threshold is unique but whose kept values tie: the
        # introsort ranks them, and only the stable re-rank can order them
        kth = np.sort(values, axis=1)[:, -k, None]
        unique_threshold = np.count_nonzero(values >= kth, axis=1) == k
        kept_sorted = np.sort(np.where(keep, values, np.inf), axis=1)[:, :k]
        tied = (kept_sorted[:, 1:] == kept_sorted[:, :-1]).any(axis=1)
        assert np.any(unique_threshold & tied) and np.any(unique_threshold & ~tied)

    @pytest.mark.parametrize("batch", [64, 1024])
    def test_full_scale_softmax_of_the_kept_scores(self, rng, batch):
        values = full_scale_scores(rng, batch)
        values[7] = -np.inf  # all but one entry -inf
        values[7, 3] = 0.0
        keep = top_k_selection(values, 32)[0]
        with np.errstate(invalid="ignore"):
            got = softmax(Tensor(values), axis=1, keep=keep).data
            expected = softmax(top_k_mask(Tensor(values), 32), axis=1).data
        assert got.tobytes() == expected.tobytes()
        assert np.isnan(got[[0, 1, 3, 4, 6]]).all()  # a NaN among the kept, or inf - inf
        assert not np.isnan(got[[2, 5, 7]]).any()


class TestNoisyGate:
    def test_k_equals_n_noise_off_is_plain_softmax(self, rng):
        config = tiny_config()
        router = Router(config, 6)
        router.w_gate.data = rng.normal((6, 4))
        x = Tensor(rng.normal((5, 6)))
        decision = noisy_gate(router, x, 4, noise_enabled=False)
        expected = softmax(matmul(x, router.w_gate), axis=1).data
        np.testing.assert_allclose(decision.gates.data, expected, atol=1e-12)

    def test_hand_case(self):
        config = tiny_config(n_experts=3)
        router = Router(config, 3)
        router.w_gate.data = np.eye(3)
        decision = noisy_gate(router, Tensor([[3.0, 1.0, 2.0]]), 2, noise_enabled=False)
        np.testing.assert_allclose(
            decision.gates.data, [[0.731059, 0.0, 0.268941]], atol=1e-6)
        np.testing.assert_array_equal(decision.selected_indices, [[0, 2]])

    @given(st.integers(0, 10_000), st.integers(1, 16), st.data())
    @settings(max_examples=80, deadline=None)
    def test_sparsity_and_normalization(self, seed, n, data):
        k = data.draw(st.integers(1, n))
        rng = RngState(seed)
        config = TrainConfig(n_experts=n, top_k=k, expert_hidden=2, n_classes=3)
        router = Router(config, 4)
        router.w_gate.data = rng.normal((4, n))
        x = Tensor(rng.normal((3, 4)))
        decision = noisy_gate(router, x, k, noise_enabled=True, rng=rng)
        gates = decision.gates.data
        for row in range(3):
            nonzero = np.nonzero(gates[row])[0]
            assert len(nonzero) == k
            assert set(nonzero) == set(decision.selected_indices[row])
            assert gates[row].min() >= 0.0
            assert abs(gates[row].sum() - 1.0) <= 1e-9

    def test_noise_deterministic_under_seed(self, rng):
        config = tiny_config()
        router = Router(config, 6)
        router.w_gate.data = rng.normal((6, 4))
        router.w_noise.data = rng.normal((6, 4))
        x = Tensor(rng.normal((3, 6)))
        a = noisy_gate(router, x, 2, True, RngState(11)).gates.data
        b = noisy_gate(router, x, 2, True, RngState(11)).gates.data
        np.testing.assert_array_equal(a, b)

    def test_noise_requires_rng(self, rng):
        router = Router(tiny_config(), 6)
        with pytest.raises(ConfigError):
            noisy_gate(router, Tensor(rng.normal((1, 6))), 2, True, None)

    def test_gradient_flows_through_noise_path(self, rng):
        config = tiny_config()
        router = Router(config, 6)
        router.w_gate.data = rng.normal((6, 4))
        router.w_noise.data = rng.normal((6, 4))
        x = Tensor(rng.normal((3, 6)))
        decision = noisy_gate(router, x, 2, True, RngState(3))
        (decision.gates * Tensor(rng.normal((3, 4)))).sum().backward()
        assert router.w_noise.grad is not None
        assert np.any(router.w_noise.grad != 0.0)

    def test_noise_scale_floor_keeps_load_finite(self):
        # softplus(x @ w_noise) underflows to exactly 0 here; with the zero
        # initial w_gate every margin is 0 as well, so without the floor the
        # load probability would be 0/0
        router = Router(tiny_config(), 6)
        router.w_noise.data = np.full((6, 4), -1000.0)
        x = Tensor(1.0 + np.abs(RngState(4).normal((3, 6))), requires_grad=True)
        decision = noisy_gate(router, x, 2, True, RngState(5))
        np.testing.assert_allclose(decision.noise_std.data, NOISE_STD_FLOOR)
        load_p = load_probability(decision, 2)
        assert np.all(np.isfinite(load_p.data))
        load_loss(load_p).backward()
        assert np.all(np.isfinite(router.w_gate.grad))
        assert np.all(np.isfinite(x.grad))

    def test_gradient_noise_off(self, rng):
        w_g = rng.normal((4, 3))
        x = rng.normal((2, 4))
        probe = rng.normal((2, 3))
        config = tiny_config(n_experts=3)
        router = Router(config, 4)
        router.w_gate = Tensor(w_g, requires_grad=True)

        def build():
            router.w_gate.zero_grad()
            tx = Tensor(x, requires_grad=True)
            decision = noisy_gate(router, tx, 2, False)
            return (decision.gates * Tensor(probe)).sum(), [tx, router.w_gate]

        check_gradients(build, [x, w_g])


def unfused_gate(router: Router, x: Tensor, k: int, rng: RngState) -> GateDecision:
    """The gate as separate matmul, softplus, add, mul, top-k mask and
    softmax nodes: the chain :func:`noisy_gate` fuses."""
    clean = matmul(x, router.w_gate)
    std = softplus(matmul(x, router.w_noise)) + NOISE_STD_FLOOR
    noisy = clean + Tensor(rng.normal(clean.data.shape)) * std
    return GateDecision(clean_logits=clean, noise_std=std, noisy_logits=noisy,
                        gates=softmax(top_k_mask(noisy, k), axis=1),
                        selected_indices=top_k_selection(noisy.data, k)[1], top_k=k)


@pytest.mark.single_thread_blas
class TestFusedGate:
    @staticmethod
    def gate_case(rng, batch=64, dim=32, n=16):
        router = Router(tiny_config(n_experts=n), dim)
        router.w_gate.data = rng.normal((dim, n))
        router.w_noise.data = 0.3 * rng.normal((dim, n))
        return router, rng.normal((batch, dim)), rng.normal((batch, n))

    def test_four_nodes(self, rng):
        router, x, _ = self.gate_case(rng)
        tx = Tensor(x, requires_grad=True)
        decision = noisy_gate(router, tx, 4, True, RngState(5))
        std, noisy, gates = decision.noise_std, decision.noisy_logits, decision.gates
        assert std._op == "noise_scale" and std._parents == (tx, router.w_noise)
        assert noisy._op == "noisy_scores"
        assert noisy._parents == (decision.clean_logits, std)
        assert gates._op == "softmax" and gates._parents == (noisy,)

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_matches_the_unfused_chain(self, rng, k):
        # forward bit-equal on the same noise draw, gradients within 1e-12
        router, x, probe = self.gate_case(rng)
        runs = []
        for fused in (True, False):
            for p in (router.w_gate, router.w_noise):
                p.zero_grad()
            tx = Tensor(x, requires_grad=True)
            decision = noisy_gate(router, tx, k, True, RngState(9)) if fused \
                else unfused_gate(router, tx, k, RngState(9))
            loss = (decision.gates * Tensor(probe)).sum()
            if k < 16:
                loss = loss + load_loss(load_probability(decision, k))
            loss.backward()
            runs.append((decision, [tx.grad, router.w_gate.grad, router.w_noise.grad]))
        (fused, fused_grads), (chain, chain_grads) = runs
        for name in ("clean_logits", "noise_std", "noisy_logits", "gates"):
            np.testing.assert_array_equal(getattr(fused, name).data,
                                          getattr(chain, name).data, err_msg=name)
        np.testing.assert_array_equal(fused.selected_indices, chain.selected_indices)
        for got, expected in zip(fused_grads, chain_grads):
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_noise_scale_gradient(self, rng):
        router, x, probe = self.gate_case(rng, batch=3, dim=5, n=4)

        def build():
            router.w_noise.zero_grad()
            tx = Tensor(x, requires_grad=True)
            return (noise_scale(router, tx) * Tensor(probe)).sum(), [tx, router.w_noise]

        check_gradients(build, [x, router.w_noise.data])

    def test_noisy_scores_and_gates_gradient(self, rng):
        router, x, probe = self.gate_case(rng, batch=3, dim=5, n=4)

        def build():
            for p in (router.w_gate, router.w_noise):
                p.zero_grad()
            tx = Tensor(x, requires_grad=True)
            decision = noisy_gate(router, tx, 2, True, RngState(7))
            loss = ((decision.noisy_logits + decision.gates) * Tensor(probe)).sum()
            return loss, [tx, router.w_gate, router.w_noise]

        check_gradients(build, [x, router.w_gate.data, router.w_noise.data])


@pytest.mark.single_thread_blas
class TestMoEForward:
    def test_single_expert_identity(self, rng):
        config = tiny_config(n_experts=1, top_k=1)
        head = MoEHead(config, 6, rng)
        x = Tensor(rng.normal((3, 6)))
        decision = noisy_gate(head.router, x, 1, False)
        out = moe_forward(head.experts, decision, x)
        np.testing.assert_allclose(
            out.data, numpy_expert_forward(head.experts, 0, x.data), atol=1e-12)

    def test_equal_gates_average_constant_experts(self, rng):
        config = tiny_config(n_experts=2, top_k=2)
        head = MoEHead(config, 6, rng)
        bank = head.experts
        for i, constant in enumerate((1.0, 3.0)):
            bank.w1.data[i] = 0.0
            bank.b1.data[i] = 0.0
            bank.w2.data[i] = 0.0
            bank.b2.data[i] = constant
        x = Tensor(np.zeros((2, 6)))
        decision = noisy_gate(head.router, x, 2, False)  # tied logits: gates 0.5/0.5
        out = moe_forward(head.experts, decision, x)
        np.testing.assert_allclose(out.data, 2.0, atol=1e-12)

    def test_matches_dense_oracle(self, rng):
        config = tiny_config(n_experts=8, top_k=3)
        head = MoEHead(config, 5, rng)
        x_data = rng.normal((6, 5))
        x = Tensor(x_data)
        decision = noisy_gate(head.router, x, 3, True, RngState(17))
        sparse = moe_forward(head.experts, decision, x).data
        dense = np.zeros_like(sparse)
        for i in range(len(head.experts)):
            dense += decision.gates.data[:, [i]] * numpy_expert_forward(head.experts, i, x_data)
        np.testing.assert_allclose(sparse, dense, atol=1e-9)

    def test_skips_unselected_experts(self, rng):
        config = tiny_config(n_experts=4, top_k=1)
        head = MoEHead(config, 6, rng)
        x = Tensor(rng.normal((2, 6)))
        decision = noisy_gate(head.router, x, 1, True, RngState(2))
        unselected = set(range(4)) - set(decision.selected_indices.reshape(-1))
        sentinel = next(iter(unselected))
        head.experts.b2.data[sentinel] = np.nan  # would poison if evaluated
        out = moe_forward(head.experts, decision, x)
        assert np.all(np.isfinite(out.data))

    @pytest.mark.parametrize("n_experts, top_k, idle", [(4, 2, 3), (3, 3, None)])
    def test_gradient(self, rng, n_experts, top_k, idle):
        bank = MoEHead(tiny_config(n_experts=n_experts, top_k=top_k), 6, rng).experts
        params = [bank.w1, bank.b1, bank.w2, bank.b2]
        x = rng.normal((5, 6))
        logits = spaced_logits(rng, (5, n_experts))
        if idle is not None:
            logits[:, idle] = -100.0  # ranked last in every row: never routed
        probe = rng.normal((5, 5))
        no_noise = np.zeros_like(logits)

        def build():
            for p in params:
                p.zero_grad()
            tx = Tensor(x, requires_grad=True)
            decision = make_decision(logits, no_noise, no_noise, top_k)
            out = moe_forward(bank, decision, tx)
            return (out * Tensor(probe)).sum(), [tx, decision.clean_logits, *params]

        loss, _ = build()
        loss.backward()
        routed = np.arange(n_experts) != idle
        for p in params:
            np.testing.assert_array_equal(p.grad_rows, routed)
            assert not p.grad[~routed].any()
        check_gradients(build, [x, logits] + [p.data for p in params])

    @staticmethod
    def mixture_case(rng, batch, n_experts=4, top_k=2, idle=3):
        """A bank, inputs, gate scores with expert ``idle`` never routed, a
        probe, and a builder of the probed mixture loss for check_gradients."""
        bank = MoEHead(tiny_config(n_experts=n_experts, top_k=top_k), 4, rng).experts
        params = [bank.w1, bank.b1, bank.w2, bank.b2]
        x = rng.normal((batch, 4))
        logits = spaced_logits(rng, (batch, n_experts))
        logits[:, idle] = -100.0
        probe = rng.normal((batch, 5))
        no_noise = np.zeros_like(logits)

        def build():
            for p in params:
                p.zero_grad()
            tx = Tensor(x, requires_grad=True)
            decision = make_decision(logits, no_noise, no_noise, top_k)
            out = moe_forward(bank, decision, tx)
            return (out * Tensor(probe)).sum(), [tx, decision.clean_logits, *params]

        return [x, logits] + [p.data for p in params], build

    # with 4 experts and k = 2, a batch of 2 * DENSE_ROWS_PER_EXPERT rows is
    # the smallest that takes the loop over routed rows
    @pytest.mark.parametrize("branch, batch", [("dense", 2 * DENSE_ROWS_PER_EXPERT - 1),
                                               ("routed", 2 * DENSE_ROWS_PER_EXPERT)])
    def test_gradient_at_each_branch(self, rng, branch, batch):
        assert (batch * 2 < DENSE_ROWS_PER_EXPERT * 4) == (branch == "dense")
        arrays, build = self.mixture_case(rng, batch)
        loss, params = build()
        loss.backward()
        for p in params[2:]:
            np.testing.assert_array_equal(p.grad_rows, [True, True, True, False])
            assert not p.grad[3].any()
        check_gradients(build, arrays)

    @pytest.mark.parametrize("batch", [2 * DENSE_ROWS_PER_EXPERT - 1, 2 * DENSE_ROWS_PER_EXPERT])
    def test_leaves_a_shared_incoming_gradient_untouched(self, rng, batch):
        bank = MoEHead(tiny_config(), 4, rng).experts

        def branch(x, logits):
            # the gates are the leaf's softmax over its top 2, as noisy_gate makes them
            gates = softmax(logits, axis=1, keep=top_k_selection(logits.data, 2)[0])
            order = np.argsort(-logits.data, axis=1, kind="stable")[:, :2]
            return moe_forward(bank, GateDecision(
                clean_logits=logits, noise_std=None, noisy_logits=logits, gates=gates,
                selected_indices=order, top_k=2), x)

        def arrays():
            return [rng.normal((batch, 4)), spaced_logits(rng, (batch, 4))]

        check_shared_incoming_gradient(branch, arrays(), arrays(), rng.normal((batch, 5)))

    def test_branches_agree(self, rng, monkeypatch):
        arrays, build = self.mixture_case(rng, 2 * DENSE_ROWS_PER_EXPERT)
        runs = []
        for rows_per_expert in (0, np.inf):  # always the loop, then always dense
            monkeypatch.setattr(moe, "DENSE_ROWS_PER_EXPERT", rows_per_expert)
            loss, params = build()
            loss.backward()
            runs.append([loss.data] + [p.grad for p in params])
        for routed, dense in zip(*runs):
            np.testing.assert_allclose(dense, routed, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("rows_per_expert", [0, np.inf])  # the loop, then dense
    def test_gate_gradient_is_grad_dot_expert_output(self, rng, monkeypatch,
                                                     rows_per_expert):
        monkeypatch.setattr(moe, "DENSE_ROWS_PER_EXPERT", rows_per_expert)
        bank = MoEHead(tiny_config(), 6, rng).experts
        x = rng.normal((5, 6))
        no_noise = np.zeros((5, 4))
        decision = make_decision(spaced_logits(rng, (5, 4)), no_noise, no_noise, 2)
        gates = decision.gates = Tensor(decision.gates.data, requires_grad=True)
        probe = rng.normal((5, 5))
        (moe_forward(bank, decision, Tensor(x)) * Tensor(probe)).sum().backward()
        expected = np.zeros((5, 4))
        for i in range(4):
            rows = gates.data[:, i] != 0
            expected[rows, i] = (probe[rows] * numpy_expert_forward(bank, i, x[rows])).sum(axis=1)
        np.testing.assert_allclose(gates.grad, expected, rtol=1e-12, atol=1e-12)

    def test_dense_branch_skips_unrouted_nan_at_full_scale(self, rng):
        config = TrainConfig()
        n, k, batch, idle = config.n_experts, config.top_k, 64, 5
        assert batch * k < DENSE_ROWS_PER_EXPERT * n
        bank = ExpertBank(config, 128, rng)
        x = Tensor(rng.normal((batch, 128)))
        logits = rng.normal((batch, n))
        logits[:, idle] = -100.0
        no_noise = np.zeros_like(logits)
        decision = make_decision(logits, no_noise, no_noise, k)
        assert 0 < np.count_nonzero(decision.gates.data.any(axis=0)) < n
        with no_grad():
            clean = moe_forward(bank, decision, x).data
            bank.w1.data[idle] = np.nan  # would poison every row if summed
            bank.b2.data[idle] = np.nan
            poisoned = moe_forward(bank, decision, x).data
        assert np.all(np.isfinite(poisoned))
        np.testing.assert_array_equal(poisoned, clean)

    def test_dense_branch_adds_an_exact_zero_for_an_underflowed_gate(self, rng):
        bank = MoEHead(tiny_config(), 6, rng).experts
        x = Tensor(rng.normal((3, 6)))
        logits = np.tile([0.0, -800.0, -900.0, -1000.0], (3, 1))  # exp(-800) == 0
        no_noise = np.zeros_like(logits)
        decision = make_decision(logits, no_noise, no_noise, 2)
        assert (decision.selected_indices == [0, 1]).all()
        assert not decision.gates.data[:, 1].any()
        clean = moe_forward(bank, decision, x).data
        bank.b2.data[1] = np.nan  # selected, but its gate is 0
        poisoned = moe_forward(bank, decision, x).data
        assert np.all(np.isfinite(poisoned))
        np.testing.assert_array_equal(poisoned, clean)

    @pytest.mark.parametrize("rows_per_expert", [0, np.inf])  # the loop, then dense
    def test_reads_only_the_gates(self, rng, monkeypatch, rows_per_expert):
        monkeypatch.setattr(moe, "DENSE_ROWS_PER_EXPERT", rows_per_expert)
        bank = MoEHead(tiny_config(), 6, rng).experts
        x = rng.normal((5, 6))
        no_noise = np.zeros((5, 4))
        decision = make_decision(spaced_logits(rng, (5, 4)), no_noise, no_noise, 2)
        runs = []
        for selected in (decision.selected_indices, None):
            gates = Tensor(decision.gates.data, requires_grad=True)
            out = moe_forward(bank, GateDecision(None, None, None, gates, selected, 2), Tensor(x))
            out.sum().backward()
            runs.append((out.data, gates.grad))
        for with_indices, without in zip(*runs):
            np.testing.assert_array_equal(without, with_indices)

    def test_one_graph_node(self, rng):
        head = MoEHead(tiny_config(), 6, rng)
        bank = head.experts
        x = Tensor(rng.normal((3, 6)), requires_grad=True)
        decision = noisy_gate(head.router, x, 2, True, RngState(1))
        out = moe_forward(bank, decision, x)
        assert out._op == "expert_mixture"
        assert out._parents == (x, decision.gates, bank.w1, bank.b1, bank.w2, bank.b2)

    def test_two_nodes_or_their_routed_rows(self, rng):
        bank = MoEHead(tiny_config(n_experts=4, top_k=1), 6, rng).experts
        x = Tensor(rng.normal((2, 6)))
        no_noise = np.zeros((2, 4))
        first = make_decision(np.array([[5.0, 0, 0, 0], [5.0, 0, 0, 0]]), no_noise, no_noise, 1)
        second = make_decision(np.array([[0, 5.0, 0, 0], [0, 5.0, 0, 0]]), no_noise, no_noise, 1)
        (moe_forward(bank, first, x) + moe_forward(bank, second, x)).sum().backward()
        for p in (bank.w1, bank.b1, bank.w2, bank.b2):
            np.testing.assert_array_equal(p.grad_rows, [True, True, False, False])
            p.zero_grad()
            assert p.grad is None and p.grad_rows is None

    def test_no_grad_keeps_nothing(self, rng):
        head = MoEHead(tiny_config(), 6, rng)
        x = Tensor(rng.normal((3, 6)), requires_grad=True)
        decision = noisy_gate(head.router, x, 2, True, RngState(1))
        tracked = moe_forward(head.experts, decision, x)
        with no_grad():
            out = moe_forward(head.experts, decision, x)
        np.testing.assert_array_equal(out.data, tracked.data)
        assert not out.requires_grad and out._parents == () and out._backward is None


class TestImportanceLoss:
    def test_uniform_gates_zero(self):
        gates = Tensor(np.full((8, 4), 0.25))
        assert importance_loss(gates).item() <= 1e-30

    def test_single_expert_collapse(self):
        for batch in (2, 5):
            gates = np.zeros((batch, 2))
            gates[:, 0] = 1.0
            assert importance_loss(Tensor(gates), 1.0).item() == \
                pytest.approx(1.0, abs=1e-9)
            assert importance_loss(Tensor(gates), 0.3).item() == \
                pytest.approx(0.3, abs=1e-9)

    def test_permutation_invariance(self, rng):
        gates = np.abs(rng.normal((6, 5)))
        gates /= gates.sum(axis=1, keepdims=True)
        perm = rng.permutation(5)
        assert importance_loss(Tensor(gates)).item() == \
            pytest.approx(importance_loss(Tensor(gates[:, perm])).item(), rel=1e-12)

    def test_gradient(self, rng):
        gates = np.abs(rng.normal((4, 3))) + 0.1

        def build():
            t = Tensor(gates, requires_grad=True)
            return importance_loss(t, 1.0), [t]

        check_gradients(build, [gates])


class TestLoadProbability:
    def test_clean_at_threshold_is_half(self):
        # k=1, expert 1: threshold is the max of the others' noisy scores (5.0)
        clean = np.array([[5.0, 5.0, 0.0]])
        std = np.ones((1, 3))
        eps = np.zeros((1, 3))
        p = load_probability(make_decision(clean, std, eps, 1), 1)
        assert p.data[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_far_above_threshold(self):
        clean = np.array([[9.0, 1.0, 0.0]])  # expert 0: threshold 1.0, margin 8 sigma
        std = np.ones((1, 3))
        eps = np.zeros((1, 3))
        p = load_probability(make_decision(clean, std, eps, 1), 1)
        assert p.data[0, 0] > 0.9999

    def test_requires_noise_path(self, rng):
        router = Router(tiny_config(), 6)
        decision = noisy_gate(router, Tensor(rng.normal((2, 6))), 2, False)
        with pytest.raises(ConfigError):
            load_probability(decision, 2)

    def test_requires_k_below_n(self):
        clean = np.zeros((1, 3))
        decision = make_decision(clean, np.ones((1, 3)), np.zeros((1, 3)), 3)
        with pytest.raises(ConfigError):
            load_probability(decision, 3)

    def test_requires_the_decisions_top_k(self):
        clean = np.zeros((1, 4))
        decision = make_decision(clean, np.ones((1, 4)), np.zeros((1, 4)), 2)
        with pytest.raises(ConfigError, match="top 1"):
            load_probability(decision, 1)

    def test_monte_carlo_agreement(self):
        mc_rng = RngState(123)
        case_rng = RngState(321)
        for case in range(10):
            n = 4 + case % 5  # n in 4..8
            k = 2 + case % 2  # k in 2..3
            clean = spaced_logits(case_rng, (1, n))
            eps = case_rng.normal((1, n))
            std = 0.5 + np.abs(case_rng.normal((1, n)))
            decision = make_decision(clean, std, eps, k)
            p = load_probability(decision, k).data[0]
            noisy = decision.noisy_logits.data[0]
            draws = mc_rng.normal((100_000,))
            for i in range(n):
                others = np.delete(noisy, i)
                threshold = np.sort(others)[::-1][k - 1]
                redrawn = clean[0, i] + std[0, i] * draws
                empirical = float((redrawn > threshold).mean())
                assert abs(empirical - p[i]) < 0.01, (case, i)

    def test_monotone_in_own_clean_logit(self):
        case_rng = RngState(9)
        clean = spaced_logits(case_rng, (1, 5))
        std = 0.5 + np.abs(case_rng.normal((1, 5)))
        eps = case_rng.normal((1, 5))
        for i in range(5):
            previous = -np.inf
            for delta in (0.0, 0.5, 1.0, 2.0, 4.0):
                bumped = clean.copy()
                bumped[0, i] += delta
                p = load_probability(make_decision(bumped, std, eps, 2), 2).data[0, i]
                assert p >= previous - 1e-12
                previous = p

    def test_gradient(self):
        case_rng = RngState(77)
        clean = spaced_logits(case_rng, (2, 4))
        std_raw = case_rng.normal((2, 4))
        eps = case_rng.normal((2, 4))
        probe = case_rng.normal((2, 4))

        def build():
            from flowmoe.tensor import softplus
            clean_t = Tensor(clean, requires_grad=True)
            std_raw_t = Tensor(std_raw, requires_grad=True)
            std_t = softplus(std_raw_t)
            noisy = clean_t + Tensor(eps) * std_t
            gates = softmax(top_k_mask(noisy, 2), axis=1)
            order = np.argsort(-noisy.data, axis=1, kind="stable")
            decision = GateDecision(clean_logits=clean_t, noise_std=std_t,
                                    noisy_logits=noisy, gates=gates,
                                    selected_indices=order[:, :2], top_k=2)
            loss = (load_probability(decision, 2) * Tensor(probe)).sum()
            return loss, [clean_t, std_raw_t]

        check_gradients(build, [clean, std_raw])

    @staticmethod
    def leaf_decision(clean, noisy, std, k):
        """Decision whose clean scores, noisy scores and noise scale are
        three independent leaves."""
        clean_t, noisy_t, std_t = (Tensor(a, requires_grad=True) for a in (clean, noisy, std))
        order = np.argsort(-noisy, axis=1, kind="stable")
        return GateDecision(clean_logits=clean_t, noise_std=std_t, noisy_logits=noisy_t,
                            gates=Tensor(np.zeros_like(noisy)),
                            selected_indices=order[:, :k], top_k=k)

    @staticmethod
    def threshold_cols(noisy, k):
        full = np.argsort(-noisy, axis=1, kind="stable")
        keep = np.zeros(noisy.shape, dtype=bool)
        np.put_along_axis(keep, full[:, :k], True, axis=1)
        return np.where(keep, full[:, [k]], full[:, [k - 1]])

    def test_one_node_matches_composite_formula(self):
        case_rng = RngState(41)
        clean = case_rng.normal((5, 7))
        noisy = spaced_logits(case_rng, (5, 7))
        std = 0.2 + np.abs(case_rng.normal((5, 7)))
        p = load_probability(self.leaf_decision(clean, noisy, std, 3), 3)
        assert p._op == "load_probability" and len(p._parents) == 3
        # the gather, subtract, divide and normal-CDF graph the node replaced
        rows = np.broadcast_to(np.arange(5)[:, None], (5, 7))
        thresholds = noisy[rows, self.threshold_cols(noisy, 3)]
        np.testing.assert_array_equal(p.data, ndtr_and_gaussian((clean - thresholds) / std)[0])

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_gradient_of_each_parent(self, k):
        # six experts over two threshold columns per row: each threshold
        # score collects the gradient of several experts
        case_rng = RngState(42 + k)
        clean = case_rng.normal((3, 6))
        noisy = spaced_logits(case_rng, (3, 6))
        std = 0.5 + np.abs(case_rng.normal((3, 6)))
        probe = case_rng.normal((3, 6))

        def build():
            decision = self.leaf_decision(clean, noisy, std, k)
            loss = (load_probability(decision, k) * Tensor(probe)).sum()
            return loss, [decision.clean_logits, decision.noisy_logits, decision.noise_std]

        check_gradients(build, [clean, noisy, std])

    @pytest.mark.parametrize("k", [1, 3])
    def test_leaves_a_shared_incoming_gradient_untouched(self, k):
        case_rng = RngState(43 + k)

        def branch(clean, noisy, std):
            order = np.argsort(-noisy.data, axis=1, kind="stable")
            return load_probability(GateDecision(
                clean_logits=clean, noise_std=std, noisy_logits=noisy,
                gates=Tensor(np.zeros_like(noisy.data)), selected_indices=order[:, :k],
                top_k=k), k)

        def arrays():
            return [case_rng.normal((3, 6)), spaced_logits(case_rng, (3, 6)),
                    0.2 + np.abs(case_rng.normal((3, 6)))]

        check_shared_incoming_gradient(branch, arrays(), arrays(), case_rng.normal((3, 6)))

    def test_backward_allocates_little_beyond_its_gradients(self):
        # full scale: batch 1024, 128 experts, k = 32.  The closure takes the
        # noise-scale gradient in z's buffer and builds the threshold index
        # in place, a 2.0 MiB peak; at cd2d4e2, which negated d_clean into a
        # new array and built the index in two, 4.1
        case_rng = RngState(45)
        clean = case_rng.normal((1024, 128))
        std = 0.2 + np.abs(case_rng.normal((1024, 128)))
        decision = self.leaf_decision(clean, clean + std * case_rng.normal((1024, 128)), std, 32)
        p = load_probability(decision, 32)
        grad = case_rng.normal(p.data.shape)
        tracemalloc.start()
        try:
            p._backward(grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        mib = 2 ** 20
        assert peak <= 3 * mib, f"{peak / mib:.2f} MiB at the peak of the backward"

    def test_noisy_gradient_is_add_at_of_entry_terms(self):
        case_rng = RngState(43)
        clean = case_rng.normal((4, 9))
        noisy = spaced_logits(case_rng, (4, 9))
        std = 0.5 + np.abs(case_rng.normal((4, 9)))
        decision = self.leaf_decision(clean, noisy, std, 3)
        (load_probability(decision, 3) * Tensor(case_rng.normal((4, 9)))).sum().backward()
        cols = self.threshold_cols(noisy, 3)
        assert len(np.unique(cols)) < cols.size
        # each entry's threshold term is minus its clean term
        expected = np.zeros_like(noisy)
        np.add.at(expected, (np.broadcast_to(np.arange(4)[:, None], cols.shape), cols),
                  -decision.clean_logits.grad)
        np.testing.assert_array_equal(decision.noisy_logits.grad, expected)
        z = (clean - np.take_along_axis(noisy, cols, axis=1)) / std
        np.testing.assert_allclose(decision.noise_std.grad, -decision.clean_logits.grad * z,
                                   rtol=1e-15, atol=0.0)


class TestLoadLoss:
    def test_identical_columns_zero(self, rng):
        column = np.abs(rng.normal((6, 1))) + 0.1
        p = np.repeat(column, 4, axis=1)
        assert load_loss(Tensor(p)).item() <= 1e-30

    def test_collapse_value(self):
        p = np.zeros((3, 2))
        p[:, 0] = 1.0
        assert load_loss(Tensor(p), 1.0).item() == pytest.approx(1.0, abs=1e-9)
        assert load_loss(Tensor(p), 2.5).item() == pytest.approx(2.5, abs=1e-9)

    def test_permutation_invariance(self, rng):
        p = np.abs(rng.normal((5, 6)))
        perm = rng.permutation(6)
        assert load_loss(Tensor(p)).item() == \
            pytest.approx(load_loss(Tensor(p[:, perm])).item(), rel=1e-12)


class TestGradientRouting:
    def test_unselected_clean_logits_get_no_gate_gradient(self):
        logits_rng = RngState(5)
        values = spaced_logits(logits_rng, (3, 6))
        leaf = Tensor(values, requires_grad=True)
        gates = softmax(top_k_mask(leaf, 2), axis=1)
        (gates * Tensor(logits_rng.normal((3, 6)))).sum().backward()
        order = np.argsort(-values, axis=1, kind="stable")
        for row in range(3):
            for col in order[row, 2:]:
                assert leaf.grad[row, col] == 0.0

    def test_load_loss_reaches_unselected_experts(self):
        case_rng = RngState(6)
        clean = spaced_logits(case_rng, (2, 5))
        std = 0.5 + np.abs(case_rng.normal((2, 5)))
        eps = case_rng.normal((2, 5))
        decision = make_decision(clean, std, eps, 2)
        load_loss(load_probability(decision, 2)).backward()
        grad = decision.clean_logits.grad
        order = np.argsort(-decision.noisy_logits.data, axis=1, kind="stable")
        unselected = [(r, c) for r in range(2) for c in order[r, 2:]]
        assert any(grad[r, c] != 0.0 for r, c in unselected)


class TestExpertBank:
    def test_seeded_init_equals_per_expert_dense_draws(self):
        config = tiny_config(n_experts=5)
        bank = ExpertBank(config, 6, RngState(7))
        rng = RngState(7)
        for i in range(config.n_experts):
            hidden = Dense(6, config.expert_hidden, rng)
            out = Dense(config.expert_hidden, config.n_classes, rng)
            for layer, (weight, bias) in ((hidden, (bank.w1, bank.b1)), (out, (bank.w2, bank.b2))):
                np.testing.assert_array_equal(weight.data[i], layer.weight.data)
                np.testing.assert_array_equal(bias.data[i], layer.bias.data)

    def test_state_is_the_four_stacked_arrays(self, rng):
        head = MoEHead(tiny_config(), 6, rng)
        assert len(head.parameters()) == 6
        assert sorted(k for k in head.state_dict() if k.startswith("experts.")) == \
            ["experts.b1", "experts.b2", "experts.w1", "experts.w2"]


class TestMoEHead:
    def test_eval_is_deterministic_and_noise_free(self, rng):
        head = MoEHead(tiny_config(), 6, rng)
        head.router.w_gate.data = rng.normal((6, 4))
        head.eval()
        x = Tensor(rng.normal((3, 6)))
        first, decision = head(x)
        second, _ = head(x)
        np.testing.assert_array_equal(first.data, second.data)
        assert decision.noise_std is None
        assert decision.load is None and decision.importance is None

    def test_train_mode_produces_load_p(self, rng):
        head = MoEHead(tiny_config(), 6, rng)
        logits, decision = head(Tensor(rng.normal((3, 6))), RngState(0))
        assert logits.data.shape == (3, 5)
        assert decision.load is not None
        assert decision.load.data.shape == ()

    def test_k_equals_n_skips_load(self, rng):
        head = MoEHead(tiny_config(n_experts=3, top_k=3), 6, rng)
        _, decision = head(Tensor(rng.normal((2, 6))), RngState(0))
        assert decision.load is None

    def test_zero_weight_skips_load(self, rng):
        head = MoEHead(tiny_config(disable_balancing_losses=True), 6, rng)
        _, decision = head(Tensor(rng.normal((2, 6))), RngState(0))
        assert decision.load is None and decision.importance is None

    def test_noise_off_carries_importance_but_no_load(self, rng):
        head = MoEHead(tiny_config(noise_enabled=False), 6, rng)
        _, decision = head(Tensor(rng.normal((3, 6))))
        assert decision.importance is not None
        assert decision.load is None

    def test_terms_equal_the_losses_of_the_same_decision(self, rng):
        head = MoEHead(tiny_config(), 6, rng)
        head.router.w_gate.data = rng.normal((6, 4))
        head.router.w_noise.data = rng.normal((6, 4))
        _, decision = head(Tensor(rng.normal((5, 6))), RngState(1))
        importance = importance_loss(decision.gates, 1.0)
        load = load_loss(load_probability(decision, 2), 1.0)
        assert decision.importance.data.tobytes() == importance.data.tobytes()
        assert decision.load.data.tobytes() == load.data.tobytes()
        assert decision.importance.data > 0 and decision.load.data > 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(n_experts=4, top_k=5)

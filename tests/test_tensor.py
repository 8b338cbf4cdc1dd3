import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from flowmoe.errors import DegenerateInputError, DimensionError, GraphReleasedError
from flowmoe.layers import batch_norm, conv1d, conv_cell, cross_entropy, maxpool1d, relu
from flowmoe.model import TrainConfig
from flowmoe.moe import (
    ExpertBank,
    GateDecision,
    load_probability,
    moe_forward,
    top_k_mask,
    top_k_selection,
)
from flowmoe.tensor import (
    CV_EPSILON,
    RngState,
    Tensor,
    coefficient_of_variation_sq,
    is_grad_enabled,
    matmul,
    ndtr_and_gaussian,
    no_grad,
    softmax,
    softplus,
)

from conftest import check_shared_incoming_gradient, spaced_logits
from fd import check_gradients


class TestMatmul:
    def test_identity(self):
        a = np.arange(9.0).reshape(3, 3)
        out = matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_hand_case(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient(self, rng):
        a = rng.normal((3, 4))
        b = rng.normal((4, 2))

        def build():
            ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
            return matmul(ta, tb).sum(), [ta, tb]

        check_gradients(build, [a, b])


class TestArithmetic:
    def test_broadcast_add_grad_sums(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])

    def test_reuse_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        (x + x).backward()
        assert x.grad == 2.0

    def test_backward_requires_scalar(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros(3), requires_grad=True).backward()

    def test_reshape_transpose_gradients(self, rng):
        x = rng.normal((3, 4))
        w = rng.normal((3, 4))

        def build():
            t = Tensor(x, requires_grad=True)
            return (t.T.reshape(2, 6) * Tensor(w.T.reshape(2, 6))).sum(), [t]

        check_gradients(build, [x])


class TestGraphRelease:
    @staticmethod
    def graph():
        """Leaves a (2, 3) and b (3, 1), their product, and the scalar
        sum((a @ b)^2)."""
        a = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], requires_grad=True)
        b = Tensor([[1.0], [-1.0], [2.0]], requires_grad=True)
        product = matmul(a, b)
        return a, b, product, (product * product).sum()

    def test_backward_keeps_grad_on_leaves_only(self):
        a, b, product, loss = self.graph()
        loss.backward()
        # d/da = 2 (a @ b) b^T and d/db = a^T 2 (a @ b), with a @ b = (5, 11)
        np.testing.assert_array_equal(a.grad, [[10.0, -10.0, 20.0], [22.0, -22.0, 44.0]])
        np.testing.assert_array_equal(b.grad, [[98.0], [130.0], [162.0]])
        for node in (product, loss):
            assert node.grad is None and node._parents == ()
        np.testing.assert_array_equal(product.data, [[5.0], [11.0]])

    def test_second_backward_on_the_same_loss_raises(self):
        a, b, _, loss = self.graph()
        loss.backward()
        first = a.grad.copy(), b.grad.copy()
        with pytest.raises(GraphReleasedError):
            loss.backward()
        np.testing.assert_array_equal(a.grad, first[0])
        np.testing.assert_array_equal(b.grad, first[1])
        # a recomputed forward pass backpropagates, adding to the leaves
        (matmul(a, b) * matmul(a, b)).sum().backward()
        np.testing.assert_array_equal(b.grad, 2 * first[1])

    def test_second_root_over_a_released_subgraph_raises(self):
        a, b, product, loss = self.graph()
        other = (product * Tensor(3.0)).sum()
        loss.backward()
        first = a.grad.copy()
        with pytest.raises(GraphReleasedError, match="matmul"):
            other.backward()
        np.testing.assert_array_equal(a.grad, first)
        assert b.grad is not None


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(
            softmax(Tensor([0.0, 0.0, 0.0])).data, [1 / 3] * 3, atol=1e-15)

    def test_masked_entry_exact_zero(self):
        out = softmax(Tensor([3.0, -np.inf, 2.0])).data
        np.testing.assert_allclose(out, [0.731059, 0.0, 0.268941], atol=1e-6)
        assert out[1] == 0.0

    def test_all_masked_raises(self):
        with pytest.raises(DegenerateInputError):
            softmax(Tensor([-np.inf, -np.inf]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
           st.floats(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, values, shift):
        base = softmax(Tensor(values)).data
        shifted = softmax(Tensor(np.asarray(values) + shift)).data
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=10),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_probability_vector_with_masking(self, values, data):
        values = np.asarray(values)
        n_masked = data.draw(st.integers(0, len(values) - 1))
        masked = values.copy()
        masked[:n_masked] = -np.inf
        out = softmax(Tensor(masked)).data
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) <= 1e-9
        assert np.all(out[:n_masked] == 0.0)

    def test_gradient(self, rng):
        x = spaced_logits(rng, (3, 5))
        w = rng.normal((3, 5))

        def build():
            t = Tensor(x, requires_grad=True)
            return (softmax(t, axis=1) * Tensor(w)).sum(), [t]

        check_gradients(build, [x])

    def test_keep_matches_softmax_of_masked_copy(self, rng):
        x = rng.normal((4, 6))
        keep = top_k_selection(x, 3)[0]
        probe = rng.normal((4, 6))
        t, copied = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        out = softmax(t, axis=1, keep=keep)
        expected = softmax(top_k_mask(copied, 3), axis=1)
        np.testing.assert_array_equal(out.data, expected.data)
        assert out._parents == (t,)
        (out * Tensor(probe)).sum().backward()
        (expected * Tensor(probe)).sum().backward()
        np.testing.assert_array_equal(t.grad, copied.grad)
        assert not t.grad[~keep].any()

    @pytest.mark.parametrize("masked", [False, True])
    def test_leaves_a_shared_incoming_gradient_untouched(self, rng, masked):
        def branch(t):
            return softmax(t, axis=1, keep=top_k_selection(t.data, 3)[0] if masked else None)

        check_shared_incoming_gradient(branch, [rng.normal((4, 6))], [rng.normal((4, 6))],
                                       rng.normal((4, 6)))

    def test_keep_all_masked_raises(self):
        with pytest.raises(DegenerateInputError):
            softmax(Tensor([[1.0, 2.0]]), axis=1, keep=np.array([[False, False]]))
        with pytest.raises(DegenerateInputError):
            softmax(Tensor([[1.0, 2.0], [-np.inf, 0.0]]), axis=1,
                    keep=np.array([[True, False], [True, False]]))

    @pytest.mark.parametrize("shape, mask_shape, axis", [
        ((2, 3), (2, 3), 0), ((2, 3, 4), (2, 3, 4), -1), ((2, 3), (2, 4), 1)])
    def test_keep_needs_the_rows_of_a_matrix(self, shape, mask_shape, axis):
        with pytest.raises(DimensionError, match="keep="):
            softmax(Tensor(np.zeros(shape)), axis=axis, keep=np.ones(mask_shape, dtype=bool))

    def test_gradient_with_keep(self, rng):
        x = spaced_logits(rng, (3, 5))
        keep = np.array([[True, False, True, True, False],
                         [False, True, False, False, False],
                         [True, True, True, True, True]])
        w = rng.normal((3, 5))

        def build():
            t = Tensor(x, requires_grad=True)
            return (softmax(t, axis=1, keep=keep) * Tensor(w)).sum(), [t]

        check_gradients(build, [x])


class TestSoftplus:
    def test_zero(self):
        assert softplus(Tensor(0.0)).item() == pytest.approx(math.log(2), abs=1e-12)

    def test_large_positive_stable(self):
        # oracle: the stable form x + log1p(exp(-x))
        assert softplus(Tensor(30.0)).item() == pytest.approx(
            30.0 + math.log1p(math.exp(-30.0)), abs=1e-9)
        assert abs(softplus(Tensor(30.0)).item() - 30.0) < 1e-9

    def test_within_two_ulps_of_logaddexp(self, rng):
        x = np.concatenate([rng.normal((8192,)) * scale for scale in (1.0, 5.0, 30.0, 300.0)])
        expected = np.logaddexp(0.0, x)
        assert np.all(np.abs(softplus(Tensor(x)).data - expected) <= 2 * np.spacing(expected))

    def test_exact_on_special_values(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0])
        with np.errstate(invalid="ignore"):
            expected = np.logaddexp(0.0, x)
        np.testing.assert_array_equal(softplus(Tensor(x)).data, expected)

    def test_large_negative_positive_output(self):
        value = softplus(Tensor(-30.0)).item()
        assert value > 0.0
        assert value == pytest.approx(math.log1p(math.exp(-30.0)), rel=1e-9)
        assert value == pytest.approx(9.36e-14, rel=1e-2)

    def test_gradient(self, rng):
        x = rng.normal((6,))

        def build():
            t = Tensor(x, requires_grad=True)
            return softplus(t).sum(), [t]

        check_gradients(build, [x])

    @staticmethod
    def sigmoid(x):
        """softplus's gradient under a unit upstream gradient."""
        t = Tensor(x, requires_grad=True)
        softplus(t).sum().backward()
        return t.grad

    def test_sigmoid_within_ulps_of_expit(self, rng):
        x = np.concatenate([rng.normal((8192,)) * scale for scale in (1.0, 5.0, 30.0, 300.0)])
        x = x[np.abs(x) < 700.0]  # expit flushes e^x to 0 near the subnormals
        got, expected = self.sigmoid(x), special.expit(x)
        ulps = np.abs(got - expected) / np.spacing(expected)
        # both compute 1 / (1 + e^-x) above zero; below it expit keeps that
        # form while softplus takes e^x / (1 + e^x) from its forward's e^-|x|,
        # and two forms each within 2.5 ulps of exact can differ by 4
        assert ulps[x >= 0.0].max() <= 2.0
        assert ulps.max() <= 4.0

    def test_sigmoid_exact_on_special_values(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 750.0, -750.0])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = self.sigmoid(x)
        np.testing.assert_array_equal(got, [0.5, 0.5, 1.0, 0.0, np.nan, 1.0, 0.0])
        np.testing.assert_array_equal(got, special.expit(x))


class TestNdtr:
    # One bound per Cephes branch, in x = z / sqrt(2): |x| < 1/sqrt(2) takes
    # erf's T/U, below 1 erfc = 1 - erf, below 8 exp(-x^2) P/Q, beyond R/S
    # down to the underflow at z ~ -37.7.
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (1.0, math.sqrt(2.0)),
                                        (math.sqrt(2.0), 8.0 * math.sqrt(2.0)),
                                        (8.0 * math.sqrt(2.0), 37.7)],
                             ids=["erf", "one-minus-erf", "erfc-pq", "erfc-rs"])
    def test_within_four_ulps_of_scipy(self, rng, lo, hi):
        z = rng.uniform(lo, hi, (200_000,))
        z = np.concatenate([z, -z])
        expected = special.ndtr(z)
        assert np.all(np.abs(ndtr_and_gaussian(z)[0] - expected) <= 4 * np.spacing(expected))

    def test_exact_on_special_values(self):
        z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300])
        with np.errstate(all="raise"):
            got = ndtr_and_gaussian(z)[0]
        np.testing.assert_array_equal(got, [0.5, 0.5, 1.0, 0.0, np.nan, 1.0, 0.0])
        np.testing.assert_array_equal(got, special.ndtr(z))

    def test_exactly_zero_below_underflow(self):
        # erfc is 0 once (z / sqrt 2)^2 > MAXLOG = 709.78..., at z ~ -37.677
        z = np.array([-37.68, -37.7, -38.0, -40.0, -1e5, -1e154])
        np.testing.assert_array_equal(ndtr_and_gaussian(z)[0], 0.0)
        assert 0.0 < ndtr_and_gaussian(-37.67)[0] == special.ndtr(-37.67)

    def test_keeps_shape(self):
        assert ndtr_and_gaussian(0.25)[0].shape == ()
        assert ndtr_and_gaussian(0.25)[0] == special.ndtr(0.25)
        assert ndtr_and_gaussian(np.zeros((0, 3)))[0].shape == (0, 3)
        assert ndtr_and_gaussian(np.zeros((2, 3, 4)))[0].shape == (2, 3, 4)

    def test_gaussian_factor(self, rng):
        z = np.concatenate([rng.normal((4096,)) * 3.0, [0.0, np.inf, -np.inf, -40.0]])
        p, gauss = ndtr_and_gaussian(z)
        np.testing.assert_array_equal(p, ndtr_and_gaussian(z)[0])
        np.testing.assert_allclose(gauss, np.exp(-0.5 * z * z), rtol=1e-13, atol=0.0)


class TestCoefficientOfVariationSq:
    @given(st.floats(0.01, 1e6), st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_constant_vector_is_zero(self, c, n):
        # zero up to the rounding of the mean, relative ~eps, squared
        assert coefficient_of_variation_sq(Tensor(np.full(n, c))).item() <= 1e-30

    def test_hand_values(self):
        assert coefficient_of_variation_sq(Tensor([1.0, 3.0])).item() == \
            pytest.approx(0.25, abs=1e-9)
        for big in (1.0, 7.0, 1e3):
            assert coefficient_of_variation_sq(Tensor([big, 0.0])).item() == \
                pytest.approx(1.0, abs=1e-9)

    def test_permutation_invariance(self, rng):
        v = np.abs(rng.normal((8,))) + 0.1
        base = coefficient_of_variation_sq(Tensor(v)).item()
        shuffled = coefficient_of_variation_sq(Tensor(v[rng.permutation(8)])).item()
        assert base == pytest.approx(shuffled, rel=1e-12)

    def test_differentiable_at_constant(self):
        t = Tensor(np.full(4, 2.0), requires_grad=True)
        coefficient_of_variation_sq(t).backward()
        assert np.all(np.isfinite(t.grad))

    def test_gradient(self, rng):
        v = np.abs(rng.normal((6,))) + 0.2

        def build():
            t = Tensor(v, requires_grad=True)
            return coefficient_of_variation_sq(t), [t]

        check_gradients(build, [v])

    def test_gradient_of_matrix_input(self, rng):
        v = np.abs(rng.normal((2, 3))) + 0.2

        def build():
            t = Tensor(v, requires_grad=True)
            return coefficient_of_variation_sq(t) * 3.0, [t]

        check_gradients(build, [v])

    def test_one_node_matches_composite_formula(self, rng):
        # the mean, subtract, square and divide graph the node replaced
        for v in (np.abs(rng.normal((128,))) * 40.0, np.zeros(5), rng.normal((3, 4))):
            out = coefficient_of_variation_sq(Tensor(v, requires_grad=True))
            assert out._op == "cv_sq" and out.data.shape == ()
            flat = v.reshape(-1)
            m = flat.sum() * (1.0 / flat.size)
            var = ((flat - m) ** 2).sum() * (1.0 / flat.size)
            np.testing.assert_array_equal(out.data, var / (m + CV_EPSILON) ** 2)


def _draws(seed: int) -> bytes:
    rng = RngState(seed)
    return rng.normal((4, 5)).tobytes() + rng.uniform(-1.0, 1.0, (3,)).tobytes() \
        + rng.permutation(10).tobytes()


class TestSampling:
    def test_same_seed_gives_the_same_draws(self):
        assert _draws(42) == _draws(42)
        assert _draws(43) != _draws(42)

    def test_moments(self):
        samples = RngState(7).normal((1_000_000,))
        assert abs(samples.mean()) < 0.01
        assert abs(samples.std() - 1.0) < 0.01

    def test_shape(self):
        assert RngState(0).normal((2, 3)).shape == (2, 3)


def _mixture(t, batch: int, n_experts: int, top_k: int) -> Tensor:
    config = TrainConfig(n_experts=n_experts, top_k=top_k, expert_hidden=3, n_classes=2)
    bank = ExpertBank(config, 3, None)
    bank.w1, bank.b1, bank.w2, bank.b2 = (t(p.data.shape) for p in
                                          (bank.w1, bank.b1, bank.w2, bank.b2))
    gates = softmax(top_k_mask(t((batch, n_experts)), top_k), axis=1)
    decision = GateDecision(None, None, None, gates, None, top_k)
    return moe_forward(bank, decision, t((batch, 3)))


def _load_probability(t) -> Tensor:
    clean, std, noisy = t((2, 4)), t((2, 4)), t((2, 4))
    selected = np.argsort(-noisy.data, axis=1, kind="stable")[:, :2]
    return load_probability(GateDecision(clean, std, noisy, None, selected, 2), 2)


# Every op of the engine, keyed by its op tag (the expert mixture once per
# evaluation), as a function of a maker ``t(shape)`` of its input tensors.
OPS = {
    "+": lambda t: t((2, 3)) + t((2, 3)),
    "*": lambda t: t((2, 3)) * t((2, 3)),
    "-": lambda t: t((2, 3)) - t((2, 3)),
    "reshape": lambda t: t((2, 3)).reshape(3, 2),
    "T": lambda t: t((2, 3)).T,
    "sum": lambda t: t((2, 3)).sum(axis=0),
    "softplus": lambda t: softplus(t((2, 3))),
    "matmul": lambda t: matmul(t((2, 3)), t((3, 2))),
    "softmax": lambda t: softmax(t((2, 3)), axis=1),
    "cv_sq": lambda t: coefficient_of_variation_sq(t((5,))),
    "conv1d": lambda t: conv1d(t((2, 3, 5)), t((4, 3, 3)), t((4,))),
    "maxpool1d": lambda t: maxpool1d(t((2, 3, 4))),
    "batchnorm": lambda t: batch_norm(t((2, 3, 4)), t((3,)), t((3,)))[0],
    "conv_cell": lambda t: conv_cell(t((2, 3, 6)), t((4, 3, 3)), t((4,)), t((4,)), t((4,)),
                                     pooled=True)[0],
    "relu": lambda t: relu(t((2, 3))),
    "cross_entropy": lambda t: cross_entropy(t((2, 3)), [0, 2]),
    "top_k_mask": lambda t: top_k_mask(t((2, 4)), 2),
    "expert_mixture/dense": lambda t: _mixture(t, batch=2, n_experts=4, top_k=2),
    "expert_mixture/loop": lambda t: _mixture(t, batch=96, n_experts=2, top_k=1),
    "load_probability": lambda t: _load_probability(t),
}


def _op_output(op: str, requires_grad: bool) -> Tensor:
    rng = RngState(0)
    return OPS[op](lambda shape: Tensor(rng.normal(shape), requires_grad=requires_grad))


class TestNoGrad:
    @pytest.mark.parametrize("op", OPS)
    def test_op_joins_the_graph_only_when_tracked(self, op):
        with no_grad():
            untracked = [_op_output(op, requires_grad=True)]
        untracked.append(_op_output(op, requires_grad=False))
        for out in untracked:
            assert out.requires_grad is False
            assert out._parents == ()
            assert out._backward is None
        out = _op_output(op, requires_grad=True)
        assert out.requires_grad and out._op == op.partition("/")[0] and out._parents
        # the closure was defined before its output: no cycle through it
        assert not any(cell.cell_contents is out for cell in out._backward.__closure__)

    def test_leaves_keep_their_flag(self):
        with no_grad():
            leaf = Tensor([1.0], requires_grad=True)
        assert leaf.requires_grad

    def test_nests_and_restores(self):
        assert is_grad_enabled()
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()
        t = Tensor([2.0], requires_grad=True)
        assert (t * t).requires_grad


class TestItem:
    def test_shape_one_tensor(self):
        assert Tensor([3.0]).item() == 3.0
        assert Tensor([[4.5]]).item() == 4.5
        assert Tensor(2.0).item() == 2.0

    def test_larger_tensor_rejected(self):
        with pytest.raises(DimensionError, match=r"\(2,\)"):
            Tensor([1.0, 2.0]).item()

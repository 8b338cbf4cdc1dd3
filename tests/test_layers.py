import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmoe import layers
from flowmoe.errors import DegenerateInputError, DimensionError, LabelError
from flowmoe.layers import (
    BatchNorm1d,
    CnnBackbone,
    Conv1d,
    ConvCell,
    Dense,
    _im2col,
    _live_taps,
    batch_norm,
    conv1d,
    conv_cell,
    count_parameters,
    cross_entropy,
    dense,
    maxpool1d,
    relu,
)
from flowmoe.tensor import RngState, Tensor

from conftest import check_shared_incoming_gradient, spaced_logits
from fd import check_gradients


def full_im2col_conv(x: Tensor, w: Tensor, b: Tensor, padding: int = 1) -> Tensor:
    """Reference conv as one graph node over every kernel tap, live or not:
    the full im2col matrix times the whole weight, and the col2im of every
    tap in the backward."""
    out_ch, in_ch, kernel = w.data.shape
    batch, _, length = x.data.shape
    cols = _im2col(x.data, kernel, padding)
    out_len = cols.shape[0] // batch
    data = (cols @ w.data.reshape(out_ch, -1).T).reshape(
        batch, out_len, out_ch).transpose(0, 2, 1) + b.data[None, :, None]

    def _backward(grad):
        g2 = grad.transpose(0, 2, 1).reshape(batch * out_len, out_ch)
        b.accumulate_grad(grad.sum(axis=(0, 2)))
        w.accumulate_grad((g2.T @ cols).reshape(w.data.shape))
        dcols = (g2 @ w.data.reshape(out_ch, -1)).reshape(batch, out_len, in_ch, kernel)
        padded = np.zeros((batch, length + 2 * padding, in_ch))
        for k in range(kernel):
            padded[:, k:k + out_len] += dcols[..., k]
        x.accumulate_grad(padded[:, padding:padding + length].transpose(0, 2, 1))

    return Tensor.result_of(data, (x, w, b), "full_im2col_conv").with_backward(_backward)


class TestConv1d:
    def test_identity_kernel(self, rng):
        x = rng.normal((2, 1, 7))
        weight = Tensor(np.array([[[0.0, 1.0, 0.0]]]))
        out = conv1d(Tensor(x), weight, Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data, x, atol=1e-15)

    def test_flow_input_shape(self, rng):
        layer = Conv1d(6, 16, rng)
        out = layer(Tensor(rng.normal((2, 6, 13))))
        assert out.data.shape == (2, 16, 13)

    def test_channel_mismatch(self, rng):
        layer = Conv1d(6, 16, rng)
        with pytest.raises(DimensionError, match="channel"):
            layer(Tensor(rng.normal((2, 5, 13))))

    def test_kernel_longer_than_padded_input(self, rng):
        with pytest.raises(DimensionError, match=r"conv1d kernel 3 is longer than its "
                                                 r"padded input \(1\)"):
            conv1d(Tensor(rng.normal((2, 3, 1))), Tensor(rng.normal((4, 3, 3))),
                   Tensor(np.zeros(4)), padding=0)

    def test_gradient(self, rng):
        x = rng.normal((2, 2, 5))
        w = rng.normal((3, 2, 3))
        b = rng.normal((3,))
        probe = rng.normal((2, 3, 5))

        def build():
            tx = Tensor(x, requires_grad=True)
            tw = Tensor(w, requires_grad=True)
            tb = Tensor(b, requires_grad=True)
            return (conv1d(tx, tw, tb) * Tensor(probe)).sum(), [tx, tw, tb]

        check_gradients(build, [x, w, b])

    def test_gradient_last_cell_shape(self, rng):
        # the backbone's last cell sees (batch, 64, 1): only the middle kernel
        # tap touches real input, the outer two read padding
        x = rng.normal((2, 64, 1))
        w = rng.normal((4, 64, 3))
        b = rng.normal((4,))
        probe = rng.normal((2, 4, 1))

        def build():
            tx = Tensor(x, requires_grad=True)
            tw = Tensor(w, requires_grad=True)
            tb = Tensor(b, requires_grad=True)
            return (conv1d(tx, tw, tb) * Tensor(probe)).sum(), [tx, tw, tb]

        check_gradients(build, [x, w, b])

    @pytest.mark.parametrize("in_ch, length, kernel, padding",
                             [(6, 13, 3, 1), (16, 6, 3, 1), (32, 3, 3, 1), (64, 1, 3, 1),
                              (4, 7, 5, 2), (4, 7, 3, 0), (4, 7, 1, 0)])
    def test_im2col_rows_are_padded_windows(self, rng, in_ch, length, kernel, padding):
        x = rng.normal((5, in_ch, length))
        padded = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
        out_len = length + 2 * padding - kernel + 1
        taps = np.arange(out_len)[:, None] + np.arange(kernel)[None, :]
        # (batch, in_ch, out_len, kernel) -> one row per output position
        expected = padded[:, :, taps].transpose(0, 2, 1, 3).reshape(5 * out_len, -1)
        cols = _im2col(x, kernel, padding)
        assert cols.flags.c_contiguous
        assert np.array_equal(cols, expected)

    @pytest.mark.parametrize("in_ch, length, kernel, padding",
                             [(6, 13, 3, 1), (64, 1, 3, 1), (4, 1, 5, 2), (4, 2, 5, 2),
                              (4, 1, 5, 3), (4, 2, 7, 3), (4, 7, 3, 0)])
    def test_live_taps_are_those_reaching_the_input(self, rng, in_ch, length, kernel, padding):
        out_len = length + 2 * padding - kernel + 1
        taps = _live_taps(length, kernel, padding)
        live = [j for j in range(kernel) if padding - out_len < j < length + padding]
        assert list(range(kernel))[taps] == live
        # a dead tap's column of the full im2col matrix is all zero padding
        cols = _im2col(rng.normal((2, in_ch, length)), kernel, padding)
        per_tap = cols.reshape(-1, in_ch, kernel)
        for j in range(kernel):
            assert np.any(per_tap[:, :, j] != 0) == (j in live), j

    @pytest.mark.parametrize("batch, in_ch, out_ch, kernel, padding",
                             [(2, 64, 4, 3, 1), (1024, 64, 128, 3, 1), (3, 4, 5, 5, 2)])
    def test_length_one_matches_full_im2col(self, rng, batch, in_ch, out_ch, kernel, padding):
        x = rng.normal((batch, in_ch, 1))
        w = rng.normal((out_ch, in_ch, kernel))
        b = rng.normal((out_ch,))
        probe = rng.normal((batch, out_ch, 1 + 2 * padding - kernel + 1))
        runs = []
        for conv in (conv1d, full_im2col_conv):
            tensors = [Tensor(a, requires_grad=True) for a in (x, w, b)]
            out = conv(*tensors, padding=padding)
            (out * Tensor(probe)).sum().backward()
            runs.append([out.data] + [t.grad for t in tensors])
        for live, full in zip(*runs):
            np.testing.assert_allclose(live, full, rtol=1e-12, atol=1e-12)
        d_weight = runs[0][2]
        dead = [j for j in range(kernel) if j not in range(kernel)[_live_taps(1, kernel, padding)]]
        assert dead and not d_weight[:, :, dead].any()

    @pytest.mark.parametrize("in_ch, out_ch, length",
                             [(6, 16, 13), (16, 32, 6), (32, 64, 3), (4, 5, 2)])
    @pytest.mark.single_thread_blas
    def test_every_tap_live_keeps_exact_output(self, rng, in_ch, out_ch, length):
        # with every tap live the conv runs the full im2col product unchanged
        assert _live_taps(length, 3, 1) == slice(0, 3)
        x, w, b = (Tensor(rng.normal(shape)) for shape in
                   ((1024, in_ch, length), (out_ch, in_ch, 3), (out_ch,)))
        assert np.array_equal(conv1d(x, w, b).data, full_im2col_conv(x, w, b).data)

    @pytest.mark.parametrize("kernel, padding", [(3, 1), (3, 0), (5, 2), (1, 0)])
    def test_matches_loop_reference(self, rng, kernel, padding):
        x = rng.normal((3, 4, 7))
        w = rng.normal((5, 4, kernel))
        b = rng.normal((5,))
        padded = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
        out_len = padded.shape[2] - kernel + 1
        expected = np.empty((3, 5, out_len))
        for batch in range(3):
            for o in range(5):
                for pos in range(out_len):
                    expected[batch, o, pos] = b[o] + np.sum(
                        w[o] * padded[batch, :, pos:pos + kernel])
        out = conv1d(Tensor(x), Tensor(w), Tensor(b), padding)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)


class TestBatchNorm:
    def test_constant_channel_maps_to_zero(self):
        layer = BatchNorm1d(2)
        x = Tensor(np.full((3, 2, 4), 5.0))
        out = layer(x)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_train_mode_normalizes(self, rng):
        layer = BatchNorm1d(3)
        out = layer(Tensor(rng.normal((8, 3, 5)) * 4.0 + 2.0))
        assert np.allclose(out.data.mean(axis=(0, 2)), 0.0, atol=1e-10)
        assert np.allclose(out.data.var(axis=(0, 2)), 1.0, atol=1e-3)

    def test_eval_identity_stats(self, rng):
        layer = BatchNorm1d(3).eval()
        x = rng.normal((4, 3, 5))
        out = layer(Tensor(x))
        np.testing.assert_allclose(out.data, x / np.sqrt(1 + layer.eps), atol=1e-12)

    def test_degenerate_batch(self, rng):
        layer = BatchNorm1d(2)
        layer.running_mean, layer.running_var = rng.normal((2,)), 1.0 + rng.uniform(0, 1, (2,))
        before = (layer.running_mean.copy(), layer.running_var.copy())
        with pytest.raises(DegenerateInputError):
            layer(Tensor(np.zeros((1, 2, 1))))
        np.testing.assert_array_equal(layer.running_mean, before[0])
        np.testing.assert_array_equal(layer.running_var, before[1])

    def test_oracle_one_element_per_channel(self):
        with pytest.raises(DegenerateInputError, match="at least 2 elements"):
            batch_norm(Tensor(np.zeros((1, 2, 1))), Tensor(np.ones(2)), Tensor(np.zeros(2)))

    def test_running_stats_ema(self, rng):
        layer = BatchNorm1d(1, momentum=0.1)
        x = rng.normal((16, 1, 4)) + 3.0
        layer(Tensor(x))
        expected_mean = 0.9 * 0.0 + 0.1 * x.mean()
        expected_var = 0.9 * 1.0 + 0.1 * x.var()
        assert layer.running_mean[0] == pytest.approx(expected_mean, rel=1e-12)
        assert layer.running_var[0] == pytest.approx(expected_var, rel=1e-12)

    def test_eval_does_not_touch_running_stats(self, rng):
        layer = BatchNorm1d(2).eval()
        before = (layer.running_mean.copy(), layer.running_var.copy())
        layer(Tensor(rng.normal((4, 2, 3))))
        np.testing.assert_array_equal(layer.running_mean, before[0])
        np.testing.assert_array_equal(layer.running_var, before[1])

    def test_gradient_train_mode(self, rng):
        x = rng.normal((3, 2, 4))
        gamma = rng.normal((2,)) + 1.5
        beta = rng.normal((2,))
        probe = rng.normal((3, 2, 4))

        def build():
            layer = BatchNorm1d(2)
            layer.gamma = Tensor(gamma, requires_grad=True)
            layer.beta = Tensor(beta, requires_grad=True)
            tx = Tensor(x, requires_grad=True)
            return (layer(tx) * Tensor(probe)).sum(), [tx, layer.gamma, layer.beta]

        check_gradients(build, [x, gamma, beta])

    @pytest.mark.parametrize("shape", [(4, 3, 5), (8, 4, 1)])
    def test_fused_op_gradient(self, rng, shape):
        x = rng.normal(shape) * 3.0 - 1.0
        gamma = rng.normal(shape[1:2]) + 1.5
        beta = rng.normal(shape[1:2])
        probe = rng.normal(shape)

        def build():
            tx = Tensor(x, requires_grad=True)
            tg, tb = Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)
            out, _, _ = batch_norm(tx, tg, tb)
            return (out * Tensor(probe)).sum(), [tx, tg, tb]

        check_gradients(build, [x, gamma, beta])

    @pytest.mark.parametrize("shape", [(4, 3, 5), (8, 4, 1)])
    def test_fused_op_matches_graph_formula(self, rng, shape):
        # the per-op graph the fused node replaced, and its running-statistics update
        x = rng.normal(shape) * 3.0 - 1.0
        layer = BatchNorm1d(shape[1], momentum=0.3)
        layer.gamma.data = rng.normal(shape[1:2]) + 1.5
        layer.beta.data = rng.normal(shape[1:2])
        layer.running_mean = rng.normal(shape[1:2])
        layer.running_var = rng.normal(shape[1:2]) ** 2 + 0.5
        before = (layer.running_mean.copy(), layer.running_var.copy())
        out = layer(Tensor(x, requires_grad=True))
        assert out._op == "batchnorm" and len(out._parents) == 3

        count = 1.0 / (shape[0] * shape[2])
        channel = (1, shape[1], 1)
        # per-channel sums over the batch axis first, then the length axis
        mean = (x.sum(axis=0).sum(axis=1) * count).reshape(channel)
        var = (((x - mean) ** 2).sum(axis=0).sum(axis=1) * count).reshape(channel)
        x_hat = (x - mean) / np.sqrt(var + layer.eps)
        expected = x_hat * layer.gamma.data.reshape(channel) + layer.beta.data.reshape(channel)
        np.testing.assert_array_equal(out.data, expected)
        # the same statistics summed over both axes at once differ in the last bits only
        joint_mean = x.sum(axis=(0, 2), keepdims=True) * count
        joint_var = ((x - joint_mean) ** 2).sum(axis=(0, 2), keepdims=True) * count
        joint = (x - joint_mean) / np.sqrt(joint_var + layer.eps)
        np.testing.assert_allclose(
            out.data, joint * layer.gamma.data.reshape(channel) + layer.beta.data.reshape(channel),
            rtol=1e-12, atol=1e-12)
        m = layer.momentum
        np.testing.assert_array_equal(
            layer.running_mean, (1 - m) * before[0] + m * mean.reshape(-1))
        np.testing.assert_array_equal(
            layer.running_var, (1 - m) * before[1] + m * var.reshape(-1))

    def test_leaves_a_shared_incoming_gradient_untouched(self, rng):
        def arrays():
            return [rng.normal((4, 3, 5)), rng.normal((3,)) + 1.5, rng.normal((3,))]

        check_shared_incoming_gradient(lambda x, gamma, beta: batch_norm(x, gamma, beta)[0],
                                       arrays(), arrays(), rng.normal((4, 3, 5)))


class TestMaxPool:
    def test_window_maxima(self):
        out = maxpool1d(Tensor([[[1.0, 3.0, 2.0, 5.0]]]))
        np.testing.assert_array_equal(out.data, [[[3.0, 5.0]]])

    def test_odd_length_chain(self, rng):
        x = Tensor(rng.normal((2, 1, 13)))
        lengths = []
        for _ in range(3):
            x = maxpool1d(x)
            lengths.append(x.data.shape[2])
        assert lengths == [6, 3, 1]

    def test_too_short(self):
        with pytest.raises(DimensionError):
            maxpool1d(Tensor(np.zeros((1, 1, 1))))

    def test_gradient_routes_to_argmax(self):
        x = Tensor(np.array([[[1.0, 3.0, 2.0, 5.0, 9.0]]]), requires_grad=True)
        maxpool1d(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [[[0.0, 1.0, 0.0, 1.0, 0.0]]])

    def test_tie_goes_to_first(self):
        x = Tensor(np.array([[[2.0, 2.0]]]), requires_grad=True)
        maxpool1d(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [[[1.0, 0.0]]])

    def test_matches_argmax_with_ties_and_nan(self):
        values = np.array([0.0, -0.0, 1.0, np.nan, -np.inf, np.inf])
        pairs = np.array([(a, b) for a in values for b in values])
        x = Tensor(pairs.reshape(1, 1, -1), requires_grad=True)
        out = maxpool1d(x)
        winners = pairs.argmax(axis=1)
        expected = pairs[np.arange(len(pairs)), winners]
        np.testing.assert_array_equal(out.data[0, 0], expected)
        assert np.signbit(out.data[0, 0]).tolist() == np.signbit(expected).tolist()
        out.sum().backward()
        routed = np.zeros_like(pairs)
        routed[np.arange(len(pairs)), winners] = 1.0
        np.testing.assert_array_equal(x.grad.reshape(-1, 2), routed)

    def test_gradient(self, rng):
        x = spaced_logits(rng, (2, 12)).reshape(2, 2, 6)
        x = np.ascontiguousarray(x)
        probe = rng.normal((2, 2, 3))

        def build():
            t = Tensor(x, requires_grad=True)
            return (maxpool1d(t) * Tensor(probe)).sum(), [t]

        check_gradients(build, [x])


class TestConvCell:
    @pytest.mark.parametrize("pooled", [True, False])
    def test_eval_fold_matches_unfolded(self, rng, pooled):
        cell = ConvCell(3, 5, rng, pooled=pooled)
        cell.bn.running_mean = rng.normal((5,)) * 2.0
        cell.bn.running_var = rng.uniform(0.2, 3.0, (5,))
        cell.bn.gamma.data = rng.normal((5,)) * 1.5
        cell.bn.beta.data = rng.normal((5,))
        x = Tensor(rng.normal((4, 3, 7)))
        cell.eval()
        folded = cell(x).data
        unfolded = relu(cell.bn(cell.conv(x)))
        if pooled:
            unfolded = maxpool1d(unfolded)
        np.testing.assert_allclose(folded, unfolded.data, rtol=1e-12, atol=1e-12)
        assert np.count_nonzero(folded) > 0

    def test_fold_follows_parameter_updates(self, rng):
        cell = ConvCell(2, 3, rng, pooled=False).eval()
        x = Tensor(rng.normal((2, 2, 5)))
        cell(x)
        state = cell.state_dict()
        state["bn.running_mean"] = np.array([0.5, -1.0, 2.0])
        state["bn.gamma"] = np.array([2.0, -0.5, 1.0])
        cell.load_state_dict(state)
        cell.conv.weight.data = cell.conv.weight.data * 0.5
        expected = relu(cell.bn(cell.conv(x))).data
        np.testing.assert_allclose(cell(x).data, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("pooled, length", [(True, 13), (True, 6), (False, 5), (False, 1)])
    def test_fused_gradient(self, rng, pooled, length):
        # length 13 pools to 6 and drops the last position
        x = rng.normal((3, 2, length))
        w = rng.normal((4, 2, 3))
        b = rng.normal((4,))
        gamma = rng.normal((4,)) + 1.5
        beta = rng.normal((4,)) * 0.5
        probe = rng.normal((3, 4, length // 2 if pooled else length))

        def build():
            tensors = [Tensor(a, requires_grad=True) for a in (x, w, b, gamma, beta)]
            out, _, _ = conv_cell(*tensors, pooled=pooled)
            return (out * Tensor(probe)).sum(), tensors

        check_gradients(build, [x, w, b, gamma, beta])

    @staticmethod
    def unfused_and_fused(x, w, b, gamma, beta, pooled, probe, conv=conv1d):
        """Outputs, batch statistics and the five gradients of the op chain
        (with ``conv`` as its convolution) and of the fused node, from the
        same inputs and output gradient."""
        runs = []
        for fused in (False, True):
            tensors = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b, gamma, beta)]
            if fused:
                out, mean, var = conv_cell(*tensors, pooled=pooled)
            else:
                tx, tw, tb, tg, tbeta = tensors
                out, mean, var = batch_norm(conv(tx, tw, tb), tg, tbeta)
                out = relu(out)
                out = maxpool1d(out) if pooled else out
            values = [out.data, mean, var]
            (out * Tensor(probe)).sum().backward()
            runs.append(values + [t.grad for t in tensors])
        return runs

    def test_tie_in_a_pool_window_goes_to_first(self, rng):
        # constant along the length, so the interior windows (2, 3) and
        # (4, 5) see the same inputs and tie after the ReLU
        x = np.repeat(np.arange(4.0)[:, None, None], 8, axis=2).repeat(2, axis=1)
        w = np.abs(rng.normal((3, 2, 3))) + 0.1
        b, gamma, beta = rng.normal((3,)), np.ones(3), np.zeros(3)
        relu_out = relu(batch_norm(conv1d(Tensor(x), Tensor(w), Tensor(b)),
                                   Tensor(gamma), Tensor(beta))[0]).data
        tied = relu_out[:, :, 0::2] == relu_out[:, :, 1::2]
        assert (tied & (relu_out[:, :, 0::2] > 0)).any()
        probe = rng.normal((4, 3, 4))
        # the chain's max pool routes a tie's gradient to the first position
        chain, fused = self.unfused_and_fused(x, w, b, gamma, beta, True, probe)
        for expected, actual in zip(chain, fused):
            np.testing.assert_array_equal(actual, expected)

    @pytest.mark.parametrize("in_ch, out_ch, length, pooled",
                             [(6, 16, 13, True), (16, 32, 6, True),
                              (32, 64, 3, True), (64, 128, 1, False)])
    @pytest.mark.single_thread_blas
    def test_matches_unfused_chain_exactly(self, rng, in_ch, out_ch, length, pooled):
        # the backbone's four cells at batch 1024: same bits, not just close
        x = rng.normal((1024, in_ch, length))
        bound = 1.0 / np.sqrt(in_ch * 3)
        w = rng.uniform(-bound, bound, (out_ch, in_ch, 3))
        b = rng.uniform(-bound, bound, (out_ch,))
        gamma = 1.0 + 0.3 * rng.normal((out_ch,))
        beta = 0.2 * rng.normal((out_ch,))
        probe = rng.normal((1024, out_ch, length // 2 if pooled else length))
        chain, fused = self.unfused_and_fused(x, w, b, gamma, beta, pooled, probe)
        names = ["out", "mean", "var", "d_x", "d_weight", "d_bias", "d_gamma", "d_beta"]
        for name, expected, actual in zip(names, chain, fused):
            assert np.array_equal(actual, expected), name

    @pytest.mark.parametrize("batch, in_ch, out_ch", [(3, 4, 5), (1024, 64, 128)])
    def test_length_one_matches_full_im2col(self, rng, batch, in_ch, out_ch):
        # the backbone's last cell: only the centre tap reaches the input
        x = rng.normal((batch, in_ch, 1))
        w = rng.normal((out_ch, in_ch, 3))
        b = rng.normal((out_ch,))
        gamma = 1.0 + 0.3 * rng.normal((out_ch,))
        beta = 0.2 * rng.normal((out_ch,))
        probe = rng.normal((batch, out_ch, 1))
        chain, fused = self.unfused_and_fused(x, w, b, gamma, beta, False, probe,
                                              conv=full_im2col_conv)
        for expected, actual in zip(chain, fused):
            np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("pooled", [True, False])
    @pytest.mark.single_thread_blas
    def test_eval_pools_before_relu_bit_equal(self, rng, monkeypatch, pooled):
        # the conv output the cell sees gets NaN, signed zeros and tied
        # pairs in its first pool windows, then the real conv's values
        pairs = [(np.nan, 1.0), (1.0, np.nan), (np.nan, np.nan), (-0.0, 0.0), (0.0, -0.0),
                 (0.0, 0.0), (2.0, 2.0), (-1.0, -1.0), (-1.0, -2.0), (3.0, -3.0), (-3.0, 3.0)]
        specials = np.array(pairs).reshape(-1)
        seen = []

        def conv_with_specials(*args):
            out = conv1d(*args)
            out.data[:, :, :specials.size] = specials
            seen.append(out.data.copy())
            return out

        monkeypatch.setattr(layers, "conv1d", conv_with_specials)
        cell = ConvCell(3, 4, rng, pooled=pooled)
        cell.bn.running_mean = rng.normal((4,))
        cell.bn.running_var = rng.uniform(0.5, 2.0, (4,))
        out = cell.eval()(Tensor(rng.normal((5, 3, specials.size + 5)))).data
        expected = relu(Tensor(seen[0]))
        if pooled:
            expected = maxpool1d(expected)
        assert np.array_equal(out, expected.data, equal_nan=True)
        assert np.isnan(out).any() and (out == 0).any() and (out > 0).any()

    def test_train_mode_is_one_node_keeping_batch_statistics_and_two_masks(self, rng):
        cell = ConvCell(3, 4, rng, pooled=True)
        x = Tensor(rng.normal((5, 3, 7)), requires_grad=True)
        out = cell(x)
        assert out._op == "conv_cell"
        assert out._parents == (x, cell.conv.weight, cell.conv.bias,
                                cell.bn.gamma, cell.bn.beta)
        kept = [c.cell_contents for c in out._backward.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        # the ReLU and pool masks, the batch mean and the std; x_hat and the
        # im2col matrix are rebuilt in the backward
        assert sorted((a.dtype.kind, a.shape) for a in kept) == [
            ("b", (5, 4, 3)), ("b", (5, 4, 7)), ("f", (1, 4, 1)), ("f", (1, 4, 1))]
        assert not [a for a in kept if a.dtype.kind == "f" and a.shape == (5, 4, 7)]

    @pytest.mark.parametrize("in_ch, out_ch, length, pooled",
                             [(6, 16, 13, True), (16, 32, 6, True),
                              (32, 64, 3, True), (64, 128, 1, False)])
    @pytest.mark.single_thread_blas
    def test_backward_rebuilds_the_forward_x_hat_bit_for_bit(
            self, rng, monkeypatch, in_ch, out_ch, length, pooled):
        # the backbone's four cells at batch 1024
        forward, backward = [], []
        normalize, normalize_backward = layers._normalize, layers._normalize_backward

        def recording_normalize(x, eps):
            stats = normalize(x, eps)
            forward.append(stats[3].copy())
            return stats

        def recording_normalize_backward(grad, x_hat, *args):
            backward.append(x_hat.copy())
            return normalize_backward(grad, x_hat, *args)

        monkeypatch.setattr(layers, "_normalize", recording_normalize)
        monkeypatch.setattr(layers, "_normalize_backward", recording_normalize_backward)
        bound = 1.0 / np.sqrt(in_ch * 3)
        tensors = [Tensor(a, requires_grad=True) for a in (
            rng.normal((1024, in_ch, length)),
            rng.uniform(-bound, bound, (out_ch, in_ch, 3)),
            rng.uniform(-bound, bound, (out_ch,)),
            1.0 + 0.3 * rng.normal((out_ch,)),
            0.2 * rng.normal((out_ch,)))]
        out, _, _ = conv_cell(*tensors, pooled=pooled)
        probe = rng.normal(out.data.shape)
        (out * Tensor(probe)).sum().backward()
        assert len(forward) == len(backward) == 1
        assert backward[0].shape == (1024, out_ch, length)
        np.testing.assert_array_equal(backward[0], forward[0])

    @pytest.mark.parametrize("pooled", [True, False])
    def test_leaves_a_shared_incoming_gradient_untouched(self, rng, pooled):
        def branch(x, weight, bias, gamma, beta):
            return conv_cell(x, weight, bias, gamma, beta, pooled=pooled)[0]

        def arrays():
            return [rng.normal((5, 3, 7)), rng.normal((4, 3, 3)), rng.normal((4,)),
                    1.0 + 0.3 * rng.normal((4,)), rng.normal((4,))]

        check_shared_incoming_gradient(branch, arrays(), arrays(),
                                       rng.normal((5, 4, 3 if pooled else 7)))

    def test_backward_allocates_little_beyond_its_gradients(self, rng):
        # the backbone's second cell at batch 1024: the closure works in the
        # x_hat and im2col matrix it rebuilds and drops each once read, a
        # 6.75 MiB peak; at cd2d4e2, where each step of the batch norm's
        # gradient made a new array and x_hat and the im2col matrix lived
        # to the end, 10.1
        bound = 1.0 / np.sqrt(16 * 3)
        tensors = [Tensor(a, requires_grad=True) for a in (
            rng.normal((1024, 16, 6)),
            rng.uniform(-bound, bound, (32, 16, 3)),
            rng.uniform(-bound, bound, (32,)),
            1.0 + 0.3 * rng.normal((32,)),
            0.2 * rng.normal((32,)))]
        out, _, _ = conv_cell(*tensors, pooled=True)
        grad = rng.normal(out.data.shape)
        tracemalloc.start()
        try:
            out._backward(grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        mib = 2 ** 20
        assert peak <= 8 * mib, f"{peak / mib:.2f} MiB at the peak of the cell's backward"

    def test_train_mode_updates_running_statistics_like_batch_norm(self, rng):
        fused = ConvCell(3, 4, RngState(5), pooled=False, bn_momentum=0.3)
        chain = ConvCell(3, 4, RngState(5), pooled=False, bn_momentum=0.3)
        x = rng.normal((6, 3, 5))
        for _ in range(2):
            np.testing.assert_array_equal(
                fused(Tensor(x)).data, relu(chain.bn(chain.conv(Tensor(x)))).data)
        np.testing.assert_array_equal(fused.bn.running_mean, chain.bn.running_mean)
        np.testing.assert_array_equal(fused.bn.running_var, chain.bn.running_var)

    @staticmethod
    def assert_refused_keeping_running_statistics(cell, x, error, message):
        cell.bn.running_mean = np.arange(4.0)
        cell.bn.running_var = 1.0 + np.arange(4.0)
        before = (cell.bn.running_mean.copy(), cell.bn.running_var.copy())
        with pytest.raises(error, match=message):
            cell(Tensor(x))
        np.testing.assert_array_equal(cell.bn.running_mean, before[0])
        np.testing.assert_array_equal(cell.bn.running_var, before[1])

    @pytest.mark.parametrize("pooled", [True, False])
    def test_train_mode_one_element_per_channel(self, rng, pooled):
        self.assert_refused_keeping_running_statistics(
            ConvCell(3, 4, rng, pooled=pooled), rng.normal((1, 3, 1)),
            DegenerateInputError, "at least 2 elements")

    def test_train_mode_pooled_length_one(self, rng):
        # two elements per channel satisfy the batch norm, not the pool
        self.assert_refused_keeping_running_statistics(
            ConvCell(3, 4, rng, pooled=True), rng.normal((2, 3, 1)),
            DimensionError, "maxpool1d needs length >= 2, got 1")

    def test_train_mode_channel_mismatch(self, rng):
        cell = ConvCell(3, 4, rng, pooled=True)
        with pytest.raises(DimensionError, match="channel"):
            cell(Tensor(rng.normal((2, 5, 7))))

    @pytest.mark.parametrize("pooled", [True, False])
    def test_kernel_longer_than_padded_input(self, rng, pooled):
        tensors = [Tensor(a) for a in (rng.normal((2, 3, 1)), rng.normal((4, 3, 3)),
                                       np.zeros(4), np.ones(4), np.zeros(4))]
        with pytest.raises(DimensionError, match=r"conv_cell kernel 3 is longer than its "
                                                 r"padded input \(1\)"):
            conv_cell(*tensors, pooled=pooled, padding=0)


class TestDense:
    def test_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out = dense(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x)

    def test_hand_case(self):
        out = dense(Tensor([[2.0, 3.0]]), Tensor([[1.0, 1.0]]), Tensor([1.0]))
        np.testing.assert_array_equal(out.data, [[6.0]])

    def test_gradient(self, rng):
        x = rng.normal((3, 4))
        w = rng.normal((2, 4))
        b = rng.normal((2,))
        probe = rng.normal((3, 2))

        def build():
            tx = Tensor(x, requires_grad=True)
            tw = Tensor(w, requires_grad=True)
            tb = Tensor(b, requires_grad=True)
            return (dense(tx, tw, tb) * Tensor(probe)).sum(), [tx, tw, tb]

        check_gradients(build, [x, w, b])


class TestReLU:
    def test_values(self):
        np.testing.assert_array_equal(
            relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, values):
        once = relu(Tensor(values)).data
        np.testing.assert_array_equal(relu(Tensor(once)).data, once)

    def test_zero_gradient_at_zero(self):
        x = Tensor([0.0], requires_grad=True)
        relu(x).sum().backward()
        assert x.grad[0] == 0.0

    def test_gradient_away_from_zero(self, rng):
        x = rng.normal((8,))
        x[np.abs(x) < 0.1] += 0.3  # keep the probe away from the kink

        def build():
            t = Tensor(x, requires_grad=True)
            return (relu(t) * 1.5).sum(), [t]

        check_gradients(build, [x])


class TestCrossEntropy:
    def test_confident_correct(self):
        logits = np.zeros((1, 9))
        logits[0, 4] = 100.0
        assert cross_entropy(Tensor(logits), [4]).item() < 1e-6

    def test_uniform_is_log_n(self):
        loss = cross_entropy(Tensor(np.zeros((3, 9))), [0, 5, 8])
        assert loss.item() == pytest.approx(np.log(9), abs=1e-12)

    def test_out_of_range_label(self):
        with pytest.raises(LabelError):
            cross_entropy(Tensor(np.zeros((1, 9))), [9])
        with pytest.raises(LabelError):
            cross_entropy(Tensor(np.zeros((1, 9))), [-1])

    def test_gradient(self, rng):
        logits = rng.normal((4, 5))
        labels = np.array([0, 3, 2, 4])

        def build():
            t = Tensor(logits, requires_grad=True)
            return cross_entropy(t, labels), [t]

        check_gradients(build, [logits])


class TestBackbone:
    def test_shape_trace(self, rng):
        backbone = CnnBackbone(rng)
        shapes = []
        x = Tensor(rng.normal((2, 6, 13)))
        for cell in backbone.cells:
            x = cell(x)
            shapes.append(x.data.shape)
        assert shapes == [(2, 16, 6), (2, 32, 3), (2, 64, 1), (2, 128, 1)]
        assert backbone.output_dim == 128
        out = backbone(Tensor(rng.normal((3, 6, 13))))
        assert out.data.shape == (3, 128)

    def test_wrong_shape_names_expected(self, rng):
        backbone = CnnBackbone(rng)
        with pytest.raises(DimensionError, match=r"6, 13"):
            backbone(Tensor(rng.normal((2, 13, 6))))

    def test_duplicate_rows_identical_in_eval(self, rng):
        backbone = CnnBackbone(rng).eval()
        row = rng.normal((1, 6, 13))
        batch = np.concatenate([row, rng.normal((1, 6, 13)), row])
        out = backbone(Tensor(batch)).data
        np.testing.assert_array_equal(out[0], out[2])

    def test_eval_forward_is_pure(self, rng):
        backbone = CnnBackbone(rng).eval()
        x = rng.normal((2, 6, 13))
        first = backbone(Tensor(x)).data
        second = backbone(Tensor(x)).data
        np.testing.assert_array_equal(first, second)

    def test_tiny_backbone_end_to_end_gradient(self):
        x_init = RngState(5).normal((2, 2, 13))
        probe = RngState(6).normal((2, 2))
        backbone = CnnBackbone(RngState(7), in_channels=2, seq_len=13,
                               filters=(2, 2, 2, 2))
        params = backbone.parameters()

        def build():
            backbone.zero_grad()
            tx = Tensor(x_init, requires_grad=True)
            return (backbone(tx) * Tensor(probe)).sum(), [tx] + params

        check_gradients(build, [x_init] + [p.data for p in params])

    def test_all_parameters_get_finite_grads(self, rng):
        backbone = CnnBackbone(rng)
        out = backbone(Tensor(rng.normal((4, 6, 13))))
        out.sum().backward()
        for p in backbone.parameters():
            assert p.grad is not None
            assert np.all(np.isfinite(p.grad))

    def test_parameter_count_helper(self, rng):
        layer = Dense(78, 9, rng)
        assert count_parameters(layer) == 78 * 9 + 9

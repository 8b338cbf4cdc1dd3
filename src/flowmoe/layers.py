"""Trainable layers: 1-D convolution cells, dense layers, and the
classification loss, all built on the autodiff tensor engine.

The convolutional feature extractor stacks four cells (conv -> batch norm ->
ReLU -> max pool, the last cell unpooled) with 16/32/64/128 filters, turning
a (batch, 6, 13) input into a 128-dimensional representation per sample.
In train mode each cell is one fused graph node (:func:`conv_cell`) that
computes in its conv output's buffer, keeps its batch statistics and one
bool mask, and rebuilds x_hat and the im2col columns in the backward.  In
eval mode it is one matrix product by the batch-norm-folded conv unrolled
over the input length, then a pool and a ReLU; the matrix is built on the
first eval forward, rebuilt when an array it was folded from is replaced,
and dropped by ``train()`` and ``eval()``.  Every convolution uses only the
kernel taps whose window reaches the input, so the last cell, at length 1,
multiplies by the centre tap alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DegenerateInputError, DimensionError, LabelError
from .tensor import RngState, Tensor, no_grad


class Module:
    """Base for anything holding parameters.

    Walks instance attributes to collect parameters (grad-tracked tensors),
    buffers (plain ndarrays, e.g. batch-norm running statistics), and child
    modules, so state can be flattened into named arrays for checkpoints.
    An eval-mode module runs ``forward`` under :func:`no_grad`, so inference
    builds no graph; differentiating through a module needs train mode.
    """

    def __init__(self):
        self.training = True

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        if self.training:
            return self.forward(*args, **kwargs)
        with no_grad():
            return self.forward(*args, **kwargs)

    def _children(self):
        for name, value in self.__dict__.items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def parameters(self) -> list[Tensor]:
        values = (getattr(owner, attr) for owner, attr in self._named_slots().values())
        return [value for value in values if isinstance(value, Tensor)]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self) -> "Module":
        self.training = True
        for _, child in self._children():
            child.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for _, child in self._children():
            child.eval()
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        """Named copies of all parameters and buffers, checkpoint-ready."""
        state: dict[str, np.ndarray] = {}
        for name, (owner, attr) in self._named_slots().items():
            value = getattr(owner, attr)
            state[name] = (value.data if isinstance(value, Tensor) else value).copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = self._named_slots()
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise DimensionError(
                f"state mismatch: missing={sorted(missing)}, unexpected={sorted(extra)}"
            )
        for name, (holder, attr) in own.items():
            # the one copy between ``state`` and the model: the model never
            # shares memory with its input, which may be a read-only view
            value = np.array(state[name], dtype=np.float64)
            current = getattr(holder, attr)
            target_shape = current.data.shape if isinstance(current, Tensor) else current.shape
            if value.shape != target_shape:
                raise DimensionError(
                    f"state entry {name!r} has shape {value.shape}, expected {target_shape}"
                )
            if isinstance(current, Tensor):
                current.data = value
            else:
                setattr(holder, attr, value)

    def _named_slots(self, prefix: str = "") -> dict:
        """Dotted name -> (owner, attribute) for every parameter (grad-tracked
        tensor) and buffer (ndarray): own attributes in ``__dict__`` order,
        then each child's."""
        slots = {}
        for name, value in self.__dict__.items():
            if isinstance(value, np.ndarray) or \
                    (isinstance(value, Tensor) and value.requires_grad):
                slots[prefix + name] = (self, name)
        for name, child in self._children():
            slots.update(child._named_slots(prefix + name + "."))
        return slots


def count_parameters(module: Module) -> int:
    return sum(p.data.size for p in module.parameters())


# -- functional ops ----------------------------------------------------------


def _im2col(x: np.ndarray, kernel: int, padding: int) -> np.ndarray:
    """The (batch * out_len, in_ch * kernel) im2col matrix of ``x``.

    Row ``b * out_len + t`` holds the input window of output position t,
    ordered channel-major then tap.  Built from ``kernel`` shifted slices
    of one (batch, length + 2 * padding, in_ch) zero-padded copy.
    """
    batch, in_ch, length = x.shape
    padded = np.zeros((batch, length + 2 * padding, in_ch))
    padded[:, padding:padding + length] = x.transpose(0, 2, 1)
    out_len = length + 2 * padding - kernel + 1
    cols = np.empty((batch, out_len, in_ch, kernel))
    for k in range(kernel):
        cols[..., k] = padded[:, k:k + out_len]
    return cols.reshape(batch * out_len, in_ch * kernel)


def _check_conv_input(x: Tensor, weight: Tensor, padding: int, op: str) -> None:
    """Raise DimensionError naming ``op`` unless ``x`` is (batch, channels,
    length) with the weight's input channels and a padded length that holds
    one kernel window."""
    if x.data.ndim != 3:
        raise DimensionError(f"{op} expects (batch, channels, length), got {x.data.shape}")
    _, in_ch, kernel = weight.data.shape
    if x.data.shape[1] != in_ch:
        raise DimensionError(
            f"{op} channel mismatch: input has {x.data.shape[1]} channels, "
            f"layer expects {in_ch}"
        )
    padded = x.data.shape[2] + 2 * padding
    if kernel > padded:
        raise DimensionError(f"{op} kernel {kernel} is longer than its padded input ({padded})")


def _live_taps(length: int, kernel: int, padding: int) -> slice:
    """The kernel taps whose window reaches the input at some output position.

    With out_len = length + 2 * padding - kernel + 1, tap j is live iff
    padding - out_len < j < length + padding; the others read only zero
    padding.  As many taps are dead on each side, so the live taps form a
    conv with kernel ``stop - start`` and padding ``padding - start`` that
    has the same output length.
    """
    dead = min(max(kernel - length - padding, 0), padding)
    return slice(dead, kernel - dead)


def _live_cols(x: np.ndarray, kernel: int, padding: int) -> np.ndarray:
    """The im2col matrix of ``x`` over the live kernel taps only."""
    taps = _live_taps(x.shape[2], kernel, padding)
    return _im2col(x, taps.stop - taps.start, padding - taps.start)


def _conv_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, padding: int):
    """``(cols, out)``: the live-tap im2col matrix of ``x`` and the conv
    output.

    The output is a transposed view with the bias added in place, so it sits
    in (batch, length, channels) memory order, and so does every elementwise
    result computed from it.
    """
    out_ch, _, kernel = weight.shape
    batch = x.shape[0]
    cols = _live_cols(x, kernel, padding)
    live = weight[:, :, _live_taps(x.shape[2], kernel, padding)]
    out = (cols @ live.reshape(out_ch, -1).T).reshape(
        batch, -1, out_ch).transpose(0, 2, 1)
    out += bias[None, :, None]
    return cols, out


def _conv_weight_backward(grad: np.ndarray, x: Tensor, weight: Tensor, bias: Tensor,
                          cols: np.ndarray, padding: int) -> np.ndarray:
    """Accumulate the bias and weight gradients from the output gradient
    ``grad`` (batch, out_ch, out_len) and the forward's live-tap im2col
    matrix ``cols``, a dead tap's weight gradient being zero; return
    ``grad`` as the (batch * out_len, out_ch) matrix that
    :func:`_conv_input_backward` reads, which needs no ``cols``."""
    out_ch, in_ch, kernel = weight.data.shape
    batch, _, out_len = grad.shape
    taps = _live_taps(x.data.shape[2], kernel, padding)
    bias.accumulate_grad(grad.sum(axis=0).sum(axis=1))
    g2 = grad.transpose(0, 2, 1).reshape(batch * out_len, out_ch)
    d_weight = np.zeros_like(weight.data)
    d_weight[:, :, taps] = (g2.T @ cols).reshape(out_ch, in_ch, taps.stop - taps.start)
    weight.accumulate_grad(d_weight)
    return g2


def _conv_input_backward(g2: np.ndarray, x: Tensor, weight: Tensor, padding: int) -> None:
    """Accumulate the conv's input gradient from the output gradient as the
    matrix :func:`_conv_weight_backward` returns."""
    if not x.requires_grad:
        return
    batch, in_ch, length = x.data.shape
    out_len = g2.shape[0] // batch
    taps = _live_taps(length, weight.data.shape[2], padding)
    live = taps.stop - taps.start
    # col2im: each live tap's input gradient adds back at its shift
    grad_padded = np.zeros((batch, out_len + live - 1, in_ch))
    for k in range(live):
        grad_padded[:, k:k + out_len] += (g2 @ weight.data[:, :, taps.start + k]).reshape(
            batch, out_len, in_ch)
    start = padding - taps.start
    x.accumulate_grad(grad_padded[:, start:start + length].transpose(0, 2, 1))


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, padding: int = 1) -> Tensor:
    """Cross-correlation over the last axis, stride 1, zero padding.

    x: (batch, in_ch, length), weight: (out_ch, in_ch, kernel), bias: (out_ch).
    With kernel 3 and padding 1 the length is preserved.

    Lowered to one matrix product (im2col): every output position's input
    window becomes a row of ``cols`` (batch * out_len, in_ch * live taps), so
    the forward pass and the weight gradient are single BLAS calls, the
    input gradient one per tap.  Only the taps whose window reaches the
    input take part (:func:`_live_taps`): at length 1 with kernel 3 and
    padding 1 that is the centre tap alone.
    """
    _check_conv_input(x, weight, padding, "conv1d")
    cols, data = _conv_forward(x.data, weight.data, bias.data, padding)
    def _backward(grad):  # grad: (batch, out_ch, out_len)
        g2 = _conv_weight_backward(grad, x, weight, bias, cols, padding)
        _conv_input_backward(g2, x, weight, padding)
    return Tensor.result_of(data, (x, weight, bias), "conv1d").with_backward(_backward)


def _check_poolable(length: int) -> None:
    if length < 2:
        raise DimensionError(f"maxpool1d needs length >= 2, got {length}")


def _pool_pairs(data: np.ndarray):
    """``(maxima, second_wins)`` of the 2x max pool over the last axis; an
    odd trailing element is dropped, and a length below 2 raises
    DimensionError.

    The argmax of each pair: the second wins only when strictly larger, or
    when it is NaN and the first is not.
    """
    length = data.shape[2]
    _check_poolable(length)
    first, second = data[:, :, 0:length - 1:2], data[:, :, 1:length:2]
    second_wins = ~(second <= first) & (first == first)
    return np.where(second_wins, second, first), second_wins


def _unpool(grad: np.ndarray, second_wins: np.ndarray, like: np.ndarray) -> np.ndarray:
    """The pool's input gradient: each window's gradient at its winner.

    Allocated with ``np.zeros_like(like)``, the pool's input, so that sums
    over it add in that array's memory order.
    """
    full = np.zeros_like(like)
    end = 2 * second_wins.shape[2]
    full[:, :, 0:end:2] = np.where(second_wins, 0.0, grad)
    full[:, :, 1:end:2] = np.where(second_wins, grad, 0.0)
    return full


def maxpool1d(x: Tensor) -> Tensor:
    """Non-overlapping window maxima, kernel 2, stride 2.

    An odd trailing element is dropped (floor semantics).  The gradient
    routes to the argmax of each window; ties go to the first position.
    """
    if x.data.ndim != 3:
        raise DimensionError(f"maxpool1d expects (batch, channels, length), got {x.data.shape}")
    data, second_wins = _pool_pairs(x.data)
    def _backward(grad):
        x.accumulate_grad(_unpool(grad, second_wins, x.data))
    return Tensor.result_of(data, (x,), "maxpool1d").with_backward(_backward)


def _normalize(x: np.ndarray, eps: float):
    """``(mean, var, std, x_hat)`` of batch norm over (batch, length), the
    statistics shaped (1, channels, 1); fewer than 2 elements per channel
    raise DegenerateInputError.  Centres and scales ``x`` in place: the
    x_hat returned is ``x``."""
    count = x.shape[0] * x.shape[2]
    if count < 2:
        raise DegenerateInputError(
            "batch norm in train mode needs at least 2 elements per channel"
        )
    shape = (1, -1, 1)
    # summing the batch axis first is several times faster than
    # sum(axis=(0, 2)) at short lengths
    mean = (x.sum(axis=0).sum(axis=1) * (1.0 / count)).reshape(shape)
    x -= mean
    var = ((x ** 2).sum(axis=0).sum(axis=1) * (1.0 / count)).reshape(shape)
    std = np.sqrt(var + eps)
    x /= std
    return mean, var, std, x


def _normalize_backward(grad: np.ndarray, x_hat: np.ndarray, std: np.ndarray,
                        gamma: Tensor, beta: Tensor) -> np.ndarray:
    """Accumulate the gamma and beta gradients of batch norm and return its
    input gradient (Ioffe & Szegedy 2015, section 3): with
    s = gamma / sqrt(var + eps) and N = batch * length,
    dx = s * (g - sum(g) / N - x_hat * sum(g * x_hat) / N).

    Computed in place: the result is ``grad``, and ``x_hat`` is overwritten.
    """
    count = x_hat.shape[0] * x_hat.shape[2]
    shape = (1, -1, 1)
    d_beta = grad.sum(axis=0).sum(axis=1)
    d_gamma = (grad * x_hat).sum(axis=0).sum(axis=1)
    beta.accumulate_grad(d_beta)
    gamma.accumulate_grad(d_gamma)
    grad -= (d_beta / count).reshape(shape)
    x_hat *= (d_gamma / count).reshape(shape)
    grad -= x_hat
    grad *= gamma.data.reshape(shape) / std
    return grad


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5):
    """Train-mode batch norm over (batch, length) per channel, as one node.

    x: (batch, channels, length); gamma, beta: (channels,).  Normalizes by
    the batch mean and population variance, then scales and shifts.
    Returns ``(out, mean, var)``: the batch statistics come back as plain
    (channels,) arrays for the running estimates.
    """
    mean, var, std, x_hat = _normalize(x.data.copy(order="K"), eps)
    shape = (1, -1, 1)
    data = x_hat * gamma.data.reshape(shape) + beta.data.reshape(shape)
    def _backward(grad):
        # the incoming gradient is not this node's to overwrite; x_hat is,
        # as the closure runs once
        x.accumulate_grad(_normalize_backward(grad.copy(order="K"), x_hat, std, gamma, beta))
    out = Tensor.result_of(data, (x, gamma, beta), "batchnorm").with_backward(_backward)
    return out, mean.reshape(-1), var.reshape(-1)


def conv_cell(x: Tensor, weight: Tensor, bias: Tensor, gamma: Tensor, beta: Tensor,
              pooled: bool, padding: int = 1, eps: float = 1e-5):
    """Train-mode conv -> batch norm -> ReLU (-> 2x max pool) as one node.

    Computes what :func:`conv1d`, :func:`batch_norm`, :func:`relu` and
    :func:`maxpool1d` compute in sequence, with the same expressions in the
    same order, so its output and gradients are bit-identical to that
    chain's.  Returns ``(out, mean, var)`` like :func:`batch_norm`.  The
    forward computes in the conv output's buffer.  The backward reads ReLU
    activity as ``out > 0`` and keeps only the batch mean and std and, when
    pooled, the pool's bool mask; it rebuilds the im2col matrix and x_hat
    from ``x`` and the weights, works in the arrays it builds, and drops
    each once read: x_hat after the batch norm's gradient, the im2col
    matrix after the weight gradient.
    """
    _check_conv_input(x, weight, padding, "conv_cell")
    mean, var, std, data = _normalize(
        _conv_forward(x.data, weight.data, bias.data, padding)[1], eps)
    shape = (1, -1, 1)
    data *= gamma.data.reshape(shape)
    data += beta.data.reshape(shape)
    np.maximum(data, 0.0, out=data)
    second_wins = None
    if pooled:
        data, second_wins = _pool_pairs(data)
    def _backward(grad):
        grad = grad * (data > 0.0)  # the ReLU's active set, from its kept output
        # the forward's x_hat, bit for bit: the same conv product, then
        # _normalize's subtraction and division, in place
        cols, x_hat = _conv_forward(x.data, weight.data, bias.data, padding)
        x_hat -= mean
        x_hat /= std
        if pooled:
            # x_hat has the ReLU output's memory order
            grad = _unpool(grad, second_wins, x_hat)
        dz = _normalize_backward(grad, x_hat, std, gamma, beta)
        del x_hat
        g2 = _conv_weight_backward(dz, x, weight, bias, cols, padding)
        del cols
        _conv_input_backward(g2, x, weight, padding)
    out = Tensor.result_of(data, (x, weight, bias, gamma, beta), "conv_cell") \
        .with_backward(_backward)
    return out, mean.reshape(-1), var.reshape(-1)


def _unrolled(weight: np.ndarray, bias: np.ndarray, length: int, padding: int,
              pooled: bool):
    """``(matrix, bias_row)``: the (in_ch * length, columns) matrix whose
    product with a flat (batch, in_ch * length) input, plus ``bias_row``, is
    the conv's output (Chellapilla et al. 2006).  Row ``c * length + p``
    holds the weights that input position p of channel c meets, so padding
    and dead taps drop out.

    The columns hold every output channel's positions in order or, when
    ``pooled``, every channel's even positions and then every channel's odd
    ones, so a 2x max pool is the maximum of the two halves; an odd trailing
    position gets no column.  Built with one scatter.
    """
    out_ch, in_ch, kernel = weight.shape
    out_len = length + 2 * padding - kernel + 1
    halves = 2 if pooled else 1
    if pooled:
        _check_poolable(out_len)
    slots = out_len // halves
    taps = np.arange(slots * halves)[:, None] + np.arange(kernel) - padding
    t, k = np.nonzero((taps >= 0) & (taps < length))
    matrix = np.zeros((in_ch, length, halves, out_ch, slots))
    matrix[:, t + k - padding, t % halves, :, t // halves] = weight[:, :, k].transpose(2, 1, 0)
    bias_row = np.broadcast_to(bias[:, None], (halves, out_ch, slots)).reshape(-1)
    return matrix.reshape(in_ch * length, -1), bias_row


def _unrolled_conv(x: np.ndarray, matrix: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """The conv output as :func:`_unrolled` lays out its columns:
    the flat input times ``matrix``, plus ``bias`` in place."""
    out = x.reshape(x.shape[0], -1) @ matrix
    out += bias
    return out


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map x @ W^T + b for x: (batch, in), weight: (out, in)."""
    return x @ weight.T + bias


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); the subgradient at 0 is taken as 0."""
    x_t = x if isinstance(x, Tensor) else Tensor(x)
    def _backward(grad):
        x_t.accumulate_grad(grad * (x_t.data > 0.0))
    return Tensor.result_of(np.maximum(x_t.data, 0.0), (x_t,), "relu").with_backward(_backward)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax of the true class over the batch.

    Fused log-softmax keeps large logits stable (a margin-100 correct
    prediction gives a loss ~0 rather than overflowing).
    """
    labels = np.asarray(labels, dtype=np.intp)
    if logits.data.ndim != 2 or labels.ndim != 1 or labels.shape[0] != logits.data.shape[0]:
        raise DimensionError(
            f"cross_entropy expects (batch, classes) logits and (batch,) labels, "
            f"got {logits.data.shape} and {labels.shape}"
        )
    n_classes = logits.data.shape[1]
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        bad = labels[(labels < 0) | (labels >= n_classes)][0]
        raise LabelError(f"label {bad} outside [0, {n_classes})")
    batch = logits.data.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    loss = -log_probs[np.arange(batch), labels].mean()
    def _backward(grad):
        probs = np.exp(log_probs)
        probs[np.arange(batch), labels] -= 1.0
        logits.accumulate_grad(grad * probs / batch)
    return Tensor.result_of(loss, (logits,), "cross_entropy").with_backward(_backward)


# -- layer modules -----------------------------------------------------------


def _uniform_init(rng: RngState | None, shape, fan_in: int) -> Tensor:
    """U(-1/sqrt(fan_in), 1/sqrt(fan_in)) draws, or zeros when ``rng`` is
    None: a skeleton parameter that draws nothing, to be loaded over."""
    if rng is None:
        return Tensor(np.zeros(shape), requires_grad=True)
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


class Conv1d(Module):
    kernel_size, padding = 3, 1  # "same" length output

    def __init__(self, in_channels: int, out_channels: int, rng: RngState | None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        fan_in = in_channels * self.kernel_size
        self.weight = _uniform_init(rng, (out_channels, in_channels, self.kernel_size), fan_in)
        self.bias = _uniform_init(rng, (out_channels,), fan_in)

    def forward(self, x: Tensor) -> Tensor:
        return conv1d(x, self.weight, self.bias, self.padding)


class BatchNorm1d(Module):
    """Per-channel normalization over (batch, length).

    Train mode normalizes by batch statistics (population variance) and
    updates the running estimates by exponential moving average; eval mode
    uses the running estimates only.
    """

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x: Tensor) -> Tensor:
        if x.data.ndim != 3 or x.data.shape[1] != self.channels:
            raise DimensionError(
                f"batchnorm expects (batch, {self.channels}, length), got {x.data.shape}"
            )
        if self.training:
            out, mean, var = batch_norm(x, self.gamma, self.beta, self.eps)
            self.update_running(mean, var)
            return out
        shape = (1, self.channels, 1)
        scale = 1.0 / np.sqrt(self.running_var + self.eps)
        x_hat = (x - Tensor(self.running_mean.reshape(shape))) * Tensor(scale.reshape(shape))
        return x_hat * self.gamma.reshape(shape) + self.beta.reshape(shape)

    def update_running(self, mean: np.ndarray, var: np.ndarray) -> None:
        """Move the running estimates toward one batch's statistics."""
        m = self.momentum
        self.running_mean = (1 - m) * self.running_mean + m * mean
        self.running_var = (1 - m) * self.running_var + m * var


class Dense(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: RngState | None):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = _uniform_init(rng, (out_dim, in_dim), in_dim)
        self.bias = _uniform_init(rng, (out_dim,), in_dim)

    def forward(self, x: Tensor) -> Tensor:
        return dense(x, self.weight, self.bias)


class ConvCell(Module):
    """conv -> batch norm -> ReLU, optionally followed by a 2x max pool.

    In train mode the cell is one :func:`conv_cell` graph node, which keeps
    for its backward only the batch mean and std and the pool's bool mask,
    reads ReLU activity from its output, and rebuilds ``x_hat`` there; the
    batch statistics then update the batch norm's running estimates.

    In eval mode the batch norm is folded into the convolution (Jacob et
    al. 2018, section 3.2): one conv with weight w * s and bias
    (b - mean) * s + beta, where s = gamma / sqrt(var + eps), unrolled over
    the input length into one matrix (:func:`_unrolled`), so the
    cell is one matrix product on plain arrays with no graph op.  The
    matrix is built on the first eval forward and kept in ``_fold``, a
    tuple, which ``state_dict`` never reads.  It is rebuilt when the input
    length changes or any array it was folded from (conv weight and bias,
    gamma, beta, running mean and variance) is no longer the same object,
    and dropped by ``train()`` and ``eval()``, so an in-place edit shows
    after the next mode switch.  The max pool then runs before the ReLU,
    which is applied in place to the pooled half only: a ReLU is monotone,
    so it commutes with the max, and the result equals
    ``maxpool1d(relu(conv))`` (NaN included).  The pool is the plain
    maximum of each window, as no backward needs its argmax.
    """

    def __init__(self, in_channels: int, out_channels: int, rng: RngState | None,
                 pooled: bool, bn_momentum: float = 0.1, bn_eps: float = 1e-5):
        super().__init__()
        self.conv = Conv1d(in_channels, out_channels, rng)
        self.bn = BatchNorm1d(out_channels, momentum=bn_momentum, eps=bn_eps)
        self.pooled = pooled
        self._fold = ()

    def train(self) -> "ConvCell":
        self._fold = ()
        return super().train()

    def eval(self) -> "ConvCell":
        self._fold = ()
        return super().eval()

    def _folded(self, length: int):
        """``(matrix, bias)`` of the eval product at input ``length``, from
        ``_fold`` while its sources are the cell's current arrays."""
        conv, bn = self.conv, self.bn
        sources = (conv.weight.data, conv.bias.data, bn.gamma.data, bn.beta.data,
                   bn.running_mean, bn.running_var)
        if self._fold and self._fold[0] == length and \
                all(a is b for a, b in zip(self._fold[1], sources)):
            return self._fold[2:]
        scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
        weight = conv.weight.data * scale[:, None, None]
        bias = (conv.bias.data - bn.running_mean) * scale + bn.beta.data
        self._fold = (length, sources) + _unrolled(weight, bias, length, conv.padding,
                                                   self.pooled)
        return self._fold[2:]

    def forward(self, x: Tensor) -> Tensor:
        conv, bn = self.conv, self.bn
        if self.training:
            out, mean, var = conv_cell(x, conv.weight, conv.bias, bn.gamma, bn.beta,
                                       self.pooled, conv.padding, bn.eps)
            bn.update_running(mean, var)
            return out
        _check_conv_input(x, conv.weight, conv.padding, "conv_cell")
        batch, _, length = x.data.shape
        out = _unrolled_conv(x.data, *self._folded(length))
        if self.pooled:
            # the window maxima without maxpool1d's argmax mask, which only
            # a backward reads; np.maximum picks the same value, differing
            # at most in the sign of a zero tie
            half = out.shape[1] // 2
            out = np.maximum(out[:, :half], out[:, half:])
        np.maximum(out, 0.0, out=out)
        return Tensor(out.reshape(batch, conv.out_channels, -1))


def backbone_length(seq_len: int, n_cells: int) -> int:
    """The length of the last cell's output in a backbone of ``n_cells``
    cells: every cell but the last halves it (floor) with its max pool."""
    length = seq_len
    for i in range(n_cells - 1):
        if length < 2:
            raise ConfigError(
                f"sequence length collapses to {length} before cell {i + 1}; cannot max-pool")
        length //= 2
    return length


class CnnBackbone(Module):
    """Stacked conv cells mapping (batch, 6, 13) to a flat feature vector.

    With the default filters (16, 32, 64, 128) the lengths walk 13 -> 6 -> 3
    -> 1 through the three pooled cells, and the unpooled final cell leaves
    a (batch, 128, 1) map that flattens to 128 features.
    """

    def __init__(self, rng: RngState | None, in_channels: int = 6, seq_len: int = 13,
                 filters=(16, 32, 64, 128), bn_momentum: float = 0.1, bn_eps: float = 1e-5):
        super().__init__()
        self.in_channels = in_channels
        self.seq_len = seq_len
        self.filters = tuple(filters)
        self.output_dim = self.filters[-1] * backbone_length(seq_len, len(self.filters))
        cells = []
        channels = in_channels
        for i, n_filters in enumerate(self.filters):
            cells.append(ConvCell(channels, n_filters, rng, i < len(self.filters) - 1,
                                  bn_momentum=bn_momentum, bn_eps=bn_eps))
            channels = n_filters
        self.cells = cells

    def forward(self, x: Tensor) -> Tensor:
        expected = (self.in_channels, self.seq_len)
        if x.data.ndim != 3 or x.data.shape[1:] != expected:
            raise DimensionError(
                f"backbone expects input of shape (batch, {expected[0]}, {expected[1]}), "
                f"got {x.data.shape}"
            )
        for cell in self.cells:
            x = cell(x)
        return x.reshape(x.data.shape[0], self.output_dim)

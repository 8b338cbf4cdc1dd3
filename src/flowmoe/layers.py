"""Trainable layers: 1-D convolution cells, dense layers, and the
classification loss, all built on the autodiff tensor engine.

The convolutional feature extractor stacks four cells (conv -> batch norm ->
ReLU -> max pool, the last cell unpooled) with 16/32/64/128 filters, turning
a (batch, 6, 13) input into a 128-dimensional representation per sample.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

    def state_dict(self, prefix: str = "") -> dict[str, np.ndarray]:
        """Named copies of all parameters and buffers, checkpoint-ready."""
        state: dict[str, np.ndarray] = {}
        for name, (owner, attr) in self._named_slots(prefix).items():
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


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, padding: int = 1) -> Tensor:
    """Cross-correlation over the last axis, stride 1, zero padding.

    x: (batch, in_ch, length), weight: (out_ch, in_ch, kernel), bias: (out_ch).
    With kernel 3 and padding 1 the length is preserved.

    Lowered to one matrix product (im2col): every output position's input
    window becomes a row of ``cols`` (batch * out_len, in_ch * kernel), so
    the forward pass and both gradients are single BLAS calls.
    """
    if x.data.ndim != 3:
        raise DimensionError(f"conv1d expects (batch, channels, length), got {x.data.shape}")
    out_ch, in_ch, kernel = weight.data.shape
    if x.data.shape[1] != in_ch:
        raise DimensionError(
            f"conv1d channel mismatch: input has {x.data.shape[1]} channels, "
            f"layer expects {in_ch}"
        )
    batch, _, length = x.data.shape
    padded = np.zeros((batch, in_ch, length + 2 * padding))
    padded[:, :, padding:padding + length] = x.data
    out_len = length + 2 * padding - kernel + 1
    windows = sliding_window_view(padded, kernel, axis=2)  # (batch, in_ch, out_len, kernel)
    cols = windows.transpose(0, 2, 1, 3).reshape(batch * out_len, in_ch * kernel)
    w2 = weight.data.reshape(out_ch, in_ch * kernel)
    data = (cols @ w2.T).reshape(batch, out_len, out_ch).transpose(0, 2, 1)
    data = data + bias.data[None, :, None]
    out = Tensor.result_of(data, (x, weight, bias), "conv1d")
    if out.requires_grad:
        def _backward(grad):  # grad: (batch, out_ch, out_len)
            bias.accumulate_grad(grad.sum(axis=0).sum(axis=1))
            g2 = grad.transpose(0, 2, 1).reshape(batch * out_len, out_ch)
            weight.accumulate_grad((g2.T @ cols).reshape(out_ch, in_ch, kernel))
            if x.requires_grad:
                # col2im: each kernel tap's column block adds back at its shift
                dcols = (g2 @ w2).reshape(batch, out_len, in_ch, kernel)
                grad_padded = np.zeros((batch, out_len + kernel - 1, in_ch))
                for k in range(kernel):
                    grad_padded[:, k:k + out_len] += dcols[:, :, :, k]
                x.accumulate_grad(
                    grad_padded[:, padding:padding + length].transpose(0, 2, 1))
        out._backward = _backward
    return out


def maxpool1d(x: Tensor) -> Tensor:
    """Non-overlapping window maxima, kernel 2, stride 2.

    An odd trailing element is dropped (floor semantics).  The gradient
    routes to the argmax of each window; ties go to the first position.
    """
    if x.data.ndim != 3:
        raise DimensionError(f"maxpool1d expects (batch, channels, length), got {x.data.shape}")
    batch, channels, length = x.data.shape
    if length < 2:
        raise DimensionError(f"maxpool1d needs length >= 2, got {length}")
    out_len = length // 2
    paired = x.data[:, :, : 2 * out_len].reshape(batch, channels, out_len, 2)
    first, second = paired[..., 0], paired[..., 1]
    # argmax over the pair: the second wins only when strictly larger, or
    # when it is NaN and the first is not
    second_wins = ~(second <= first) & (first == first)
    data = np.where(second_wins, second, first)
    out = Tensor.result_of(data, (x,), "maxpool1d")
    if out.requires_grad:
        def _backward(grad):
            buf = np.zeros_like(paired)
            buf[..., 0] = np.where(second_wins, 0.0, grad)
            buf[..., 1] = np.where(second_wins, grad, 0.0)
            full = np.zeros_like(x.data)
            full[:, :, : 2 * out_len] = buf.reshape(batch, channels, 2 * out_len)
            x.accumulate_grad(full)
        out._backward = _backward
    return out


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5):
    """Train-mode batch norm over (batch, length) per channel, as one node.

    x: (batch, channels, length); gamma, beta: (channels,).  Normalizes by
    the batch mean and population variance, then scales and shifts.
    Returns ``(out, mean, var)``: the batch statistics come back as plain
    (channels,) arrays for the running estimates.  The backward is the
    closed form of Ioffe & Szegedy 2015 (section 3): with
    s = gamma / sqrt(var + eps) and N = batch * length,
    dx = s * (g - sum(g) / N - x_hat * sum(g * x_hat) / N).
    """
    data = x.data
    count = data.shape[0] * data.shape[2]
    shape = (1, -1, 1)
    # summing the batch axis first is several times faster than
    # sum(axis=(0, 2)) at short lengths
    mean = (data.sum(axis=0).sum(axis=1) * (1.0 / count)).reshape(shape)
    centered = data - mean
    var = ((centered ** 2).sum(axis=0).sum(axis=1) * (1.0 / count)).reshape(shape)
    std = np.sqrt(var + eps)
    x_hat = centered / std
    out = Tensor.result_of(x_hat * gamma.data.reshape(shape) + beta.data.reshape(shape),
                           (x, gamma, beta), "batchnorm")
    if out.requires_grad:
        def _backward(grad):
            d_beta = grad.sum(axis=0).sum(axis=1)
            d_gamma = (grad * x_hat).sum(axis=0).sum(axis=1)
            beta.accumulate_grad(d_beta)
            gamma.accumulate_grad(d_gamma)
            if x.requires_grad:
                scale = gamma.data.reshape(shape) / std
                x.accumulate_grad(scale * (grad - (d_beta / count).reshape(shape)
                                           - x_hat * (d_gamma / count).reshape(shape)))
        out._backward = _backward
    return out, mean.reshape(-1), var.reshape(-1)


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map x @ W^T + b for x: (batch, in), weight: (out, in)."""
    return x @ weight.T + bias


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); the subgradient at 0 is taken as 0."""
    x_t = x if isinstance(x, Tensor) else Tensor(x)
    out = Tensor.result_of(np.maximum(x_t.data, 0.0), (x_t,), "relu")
    if out.requires_grad:
        def _backward(grad):
            x_t.accumulate_grad(grad * (x_t.data > 0.0))
        out._backward = _backward
    return out


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
    out = Tensor.result_of(loss, (logits,), "cross_entropy")
    if out.requires_grad:
        def _backward(grad):
            probs = np.exp(log_probs)
            probs[np.arange(batch), labels] -= 1.0
            logits.accumulate_grad(grad * probs / batch)
        out._backward = _backward
    return out


# -- layer modules -----------------------------------------------------------


def _uniform_init(rng: RngState | None, shape, fan_in: int) -> Tensor:
    """U(-1/sqrt(fan_in), 1/sqrt(fan_in)) draws, or zeros when ``rng`` is
    None: a skeleton parameter that draws nothing, to be loaded over."""
    if rng is None:
        return Tensor(np.zeros(shape), requires_grad=True)
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


class Conv1d(Module):
    def __init__(self, in_channels: int, out_channels: int, rng: RngState | None,
                 kernel_size: int = 3, padding: int = 1):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        fan_in = in_channels * kernel_size
        self.weight = _uniform_init(rng, (out_channels, in_channels, kernel_size), fan_in)
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
            batch, _, length = x.data.shape
            if batch * length < 2:
                raise DegenerateInputError(
                    "batch norm in train mode needs at least 2 elements per channel"
                )
            out, mean, var = batch_norm(x, self.gamma, self.beta, self.eps)
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mean
            self.running_var = (1 - m) * self.running_var + m * var
            return out
        shape = (1, self.channels, 1)
        scale = 1.0 / np.sqrt(self.running_var + self.eps)
        x_hat = (x - Tensor(self.running_mean.reshape(shape))) * Tensor(scale.reshape(shape))
        return x_hat * self.gamma.reshape(shape) + self.beta.reshape(shape)


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

    In eval mode the batch norm is folded into the convolution (Jacob et
    al. 2018, section 3.2): one conv with weight w * s and bias
    (b - mean) * s + beta, where s = gamma / sqrt(var + eps).  The folded
    values are computed on every call, so they never go stale.
    """

    def __init__(self, in_channels: int, out_channels: int, rng: RngState | None,
                 pooled: bool, bn_momentum: float = 0.1, bn_eps: float = 1e-5):
        super().__init__()
        self.conv = Conv1d(in_channels, out_channels, rng)
        self.bn = BatchNorm1d(out_channels, momentum=bn_momentum, eps=bn_eps)
        self.pooled = pooled

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            x = relu(self.bn(self.conv(x)))
        else:
            conv, bn = self.conv, self.bn
            scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
            weight = Tensor(conv.weight.data * scale[:, None, None])
            bias = Tensor((conv.bias.data - bn.running_mean) * scale + bn.beta.data)
            x = relu(conv1d(x, weight, bias, conv.padding))
        return maxpool1d(x) if self.pooled else x


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
        cells = []
        channels = in_channels
        length = seq_len
        for i, n_filters in enumerate(self.filters):
            pooled = i < len(self.filters) - 1
            if pooled:
                if length < 2:
                    raise ConfigError(
                        f"sequence length collapses to {length} before cell {i + 1}; "
                        "cannot max-pool"
                    )
                length //= 2
            cells.append(ConvCell(channels, n_filters, rng, pooled,
                                  bn_momentum=bn_momentum, bn_eps=bn_eps))
            channels = n_filters
        self.cells = cells
        self.output_dim = self.filters[-1] * length

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

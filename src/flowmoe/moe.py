"""Sparsely gated mixture of experts with noisy top-k routing.

A linear router scores every expert per sample; input-dependent Gaussian
noise is added to the scores during training, and a softmax over each
row's top k scores produces the gate weights, exactly 0 outside the top k.
The class-logit outputs of the k selected experts are combined with the
gate weights; large batches run each expert on its routed rows only, small
ones run every expert at once and sum only the routed outputs (see
:func:`moe_forward`).

Two auxiliary losses keep the routing balanced over a batch: one penalizes
uneven total gate mass per expert ("importance"), the other penalizes uneven
selection probability per expert ("load"), both as squared coefficients of
variation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DimensionError
from .tensor import (
    RngState,
    Tensor,
    coefficient_of_variation_sq,
    matmul,
    ndtr_and_gaussian,
    softmax,
    softplus_and_sigmoid,
)
from .layers import Module

if TYPE_CHECKING:
    from .model import TrainConfig

# Floor added to the learned noise scale (Shazeer et al. 2017).  softplus
# underflows to exactly 0 for very negative inputs, which would turn the
# load probability's margin / scale into 0/0.
NOISE_STD_FLOOR = 1e-2

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Below this many routed rows per expert (batch * top_k / n_experts) the
# mixture evaluates every expert on every row in a few array products, which
# beats a Python loop over the experts; from here on the loop over each
# expert's own rows does less arithmetic and wins.  Timed at full scale
# (128 experts, k = 32, 2 vCPUs, OpenBLAS) with routing spread over the
# experts, 60 interleaved runs per batch from 128 to 320: a tracked forward
# and backward crosses over between batch 192 and 224 (48 and 56 rows per
# expert), dense/loop medians 0.98-0.99 at 192 and 1.01-1.05 from 224 on.
# A no_grad forward still favours the dense branch at 320 (0.76-0.89 from
# 256 to 320), but the rule is one for both.
DENSE_ROWS_PER_EXPERT = 48


class ExpertBank(Module):
    """All experts of a layer, stacked along a leading expert axis.

    ``w1`` (E, H, D), ``b1`` (E, H), ``w2`` (E, C, H) and ``b2`` (E, C)
    store each expert's hidden and class layers as (out, in), like
    :class:`Dense`, and are filled from the same draws in the same order as
    per-expert ``Dense`` layers would be: per expert, hidden weight, hidden
    bias, out weight, out bias.  With ``rng`` None they stay zero and
    nothing is drawn.
    """

    def __init__(self, config: TrainConfig, input_dim: int, rng: RngState | None):
        super().__init__()
        n, d, h, c = config.n_experts, input_dim, config.expert_hidden, config.n_classes
        w1, b1 = np.zeros((n, h, d)), np.zeros((n, h))
        w2, b2 = np.zeros((n, c, h)), np.zeros((n, c))
        if rng is not None:
            for i in range(n):
                for target, fan_in in ((w1, d), (b1, d), (w2, h), (b2, h)):
                    bound = 1.0 / math.sqrt(fan_in)
                    target[i] = rng.uniform(-bound, bound, target.shape[1:])
        self.w1 = Tensor(w1, requires_grad=True)
        self.b1 = Tensor(b1, requires_grad=True)
        self.w2 = Tensor(w2, requires_grad=True)
        self.b2 = Tensor(b2, requires_grad=True)

    def __len__(self) -> int:
        return self.w1.data.shape[0]


class Router(Module):
    """Linear gate and noise-scale maps from features to per-expert scores.

    Both matrices start at zero: initial routing is then driven purely by
    the noise term, so no expert is privileged at the start of training.
    """

    def __init__(self, config: TrainConfig, input_dim: int):
        super().__init__()
        self.w_gate = Tensor(np.zeros((input_dim, config.n_experts)), requires_grad=True)
        self.w_noise = Tensor(np.zeros((input_dim, config.n_experts)), requires_grad=True)


@dataclass
class GateDecision:
    """Routing outcome for one batch.

    gates has at most top_k nonzeros per row, nonnegative, summing to 1;
    the nonzero columns are exactly selected_indices.  noisy_logits keeps
    the pre-mask scores needed by the load probability; noise_std is None
    when the noise path was off.  importance and load are the balancing
    terms a train-mode :class:`MoEHead` adds, None where one does not apply.
    """

    clean_logits: Tensor
    noise_std: Tensor | None
    noisy_logits: Tensor
    gates: Tensor
    selected_indices: np.ndarray
    top_k: int
    importance: Tensor | None = None
    load: Tensor | None = None


def top_k_selection(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k largest entries: a (batch, n) keep mask and their
    (batch, k) column indices, largest first.

    The order is exactly ``np.argsort(-values, axis=1, kind="stable")[:, :k]``:
    ties break toward the lower index and NaN ranks below every number.
    One ``np.partition`` finds each row's k-th largest value; a row holds
    its top k exactly when k entries are >= that value.  Only the other
    rows (a tie at the threshold, or a NaN) take the stable sort of the
    whole row.  The k kept values of every row are then ranked by an
    introsort, and only the rows whose ranked values are not strictly
    decreasing (a tie among them, or a NaN) are ranked again stably.
    """
    batch, n = values.shape
    threshold = np.partition(values, n - k, axis=1)[:, n - k, None]
    keep = values >= threshold
    slow = np.flatnonzero(np.count_nonzero(keep, axis=1) != k)
    if slow.size:
        keep[slow] = False
        stable = np.argsort(-values[slow], axis=1, kind="stable")[:, :k]
        keep[slow[:, None], stable] = True
    flat = np.flatnonzero(keep).reshape(batch, k)  # ascending per row
    neg = -values.reshape(-1)[flat]
    ranked = neg.argsort(axis=1)
    rows = np.arange(batch)[:, None]
    ordered = neg[rows, ranked]
    tied = np.flatnonzero(~(ordered[:, 1:] > ordered[:, :-1]).all(axis=1))
    if tied.size:
        ranked[tied] = np.argsort(neg[tied], axis=1, kind="stable")
    order = flat[rows, ranked]
    order -= rows * n
    return keep, order


def top_k_mask(values: Tensor, k: int) -> Tensor:
    """Keep the k largest entries per row, set the rest to -inf.

    Ties break toward the lower index.  Gradients flow only through the
    retained entries: the selection itself is treated as constant.
    """
    if values.data.ndim != 2:
        raise DimensionError(f"top_k_mask expects (batch, n), got {values.data.shape}")
    n = values.data.shape[1]
    if not (1 <= k <= n):
        raise DimensionError(f"k must satisfy 1 <= k <= n={n}, got {k}")
    keep = top_k_selection(values.data, k)[0]
    def _backward(grad):
        values.accumulate_grad(grad * keep)
    return Tensor.result_of(np.where(keep, values.data, -np.inf), (values,), "top_k_mask") \
        .with_backward(_backward)


def noise_scale(router: Router, x: Tensor) -> Tensor:
    """Learned, input-dependent noise standard deviation per (sample, expert):
    softplus(x @ w_noise) plus :data:`NOISE_STD_FLOOR`.

    One ``noise_scale`` node over x and ``w_noise``, which keeps the sigmoid
    of ``x @ w_noise`` (softplus's derivative) and no pre-activation.
    """
    w_noise = router.w_noise
    std, sig = softplus_and_sigmoid(x.data @ w_noise.data)
    std += NOISE_STD_FLOOR
    def _backward(grad):
        d_pre = grad * sig
        x.accumulate_grad(d_pre @ w_noise.data.T)
        w_noise.accumulate_grad(x.data.T @ d_pre)
    return Tensor.result_of(std, (x, w_noise), "noise_scale").with_backward(_backward)


def _noisy_scores(clean: Tensor, std: Tensor, eps: np.ndarray) -> Tensor:
    """clean + eps * std."""
    def _backward(grad):
        clean.accumulate_grad(grad)
        std.accumulate_grad(grad * eps)
    return Tensor.result_of(clean.data + eps * std.data, (clean, std), "noisy_scores") \
        .with_backward(_backward)


def noisy_gate(router: Router, x: Tensor, k: int, noise_enabled: bool,
               rng: RngState | None = None) -> GateDecision:
    """Compute sparse gate weights for a batch of feature vectors.

    Scores are x @ w_gate; when the noise path is on, each score is
    perturbed by a Gaussian whose standard deviation is :func:`noise_scale`
    (learned, input-dependent).  The perturbed scores are top-k masked and
    softmaxed.  With noise off this is a pure function of (router, x).
    The noisy scores are one node that keeps the noise draw, and the softmax
    applies the top-k mask itself, keeping no masked copy of the scores.
    """
    clean = matmul(x, router.w_gate)
    if noise_enabled:
        if rng is None:
            raise ConfigError("noisy gating needs an RngState when noise is enabled")
        std = noise_scale(router, x)
        noisy = _noisy_scores(clean, std, rng.normal(clean.data.shape))
    else:
        std = None
        noisy = clean
    keep, order = top_k_selection(noisy.data, k)
    return GateDecision(
        clean_logits=clean,
        noise_std=std,
        noisy_logits=noisy,
        gates=softmax(noisy, axis=1, keep=keep),
        selected_indices=order,
        top_k=k,
    )


def _routes(weights: np.ndarray) -> tuple[np.ndarray, list]:
    """The experts with a nonzero gate on some row, as a mask, and each such
    expert's ``(i, rows)``, rows ascending, experts in index order.  Each
    ``rows`` is its own contiguous array, not a view that would keep all
    of ``np.nonzero``'s (expert, row) pairs alive."""
    n_experts = weights.shape[1]
    # (expert, row) pairs of the nonzero gates, grouped by expert
    expert_of, row_of = np.nonzero(weights.T != 0)
    bounds = np.searchsorted(expert_of, np.arange(n_experts + 1))
    active = bounds[1:] > bounds[:-1]
    return active, [(i, row_of[bounds[i]:bounds[i + 1]].copy())
                    for i in np.flatnonzero(active)]


def _sum_routed(y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each row's gate-weighted sum of the (E, C, batch) outputs ``y`` over
    its routed experts (nonzero gate), in expert order; an unrouted
    expert's output is never read, so a NaN there cannot leak."""
    batch, n_experts = weights.shape
    routed = weights != 0
    counts = np.count_nonzero(routed, axis=1)
    flat = np.flatnonzero(routed)  # row-major: grouped by row, experts ascending
    row_of, expert_of = np.divmod(flat, n_experts)
    terms = y[expert_of, :, row_of]
    terms *= weights.reshape(-1)[flat, None]
    mixed = np.zeros((batch, y.shape[1]))
    some = counts > 0
    mixed[some] = np.add.reduceat(terms, (np.cumsum(counts) - counts)[some])
    return mixed


def moe_forward(bank: ExpertBank, decision: GateDecision, x: Tensor) -> Tensor:
    """Gate-weighted sum of expert outputs, by one of two evaluations chosen
    by shape alone.

    With fewer than :data:`DENSE_ROWS_PER_EXPERT` routed rows per expert
    (batch * top_k / n_experts), every expert runs on every row as three
    products over the stacked bank, and each row then gathers and sums only
    its routed outputs (nonzero gate), in expert order, so an unrouted
    expert's output, NaN or not, is never read.  Otherwise each expert sees
    just the rows that routed to it, in a loop over the experts.  The two
    agree to float precision; the choice never looks at grad mode, so a
    ``no_grad`` forward is bit-equal to a tracked one.  Only the gates are
    read, not ``decision.selected_indices``.

    One ``expert_mixture`` graph node over x, the gates and the bank's four
    stacked parameters.  The backward runs per routed expert on its rows, and
    marks the experts that received rows in each parameter's ``grad_rows``,
    so an expert that receives none is left alone by the optimizer, as if it
    were not in the layer.  The node keeps each routed expert's rows and
    hidden activations, but no outputs and no copy of its input rows: the
    backward gathers the rows from ``x`` again, and rebuilds each gate's
    gradient g . y as (g @ w2) . hidden + g @ b2, reusing g @ w2 for the
    hidden gradient.  The backward frees each expert's hidden rows once it
    has read them, and fills each bank gradient from the experts' pieces
    after the loop.  An output outside the graph (under ``no_grad``, or
    with no input requiring grad) keeps nothing for a backward, and its
    dense evaluation does no per-expert routing bookkeeping at all.
    """
    gates = decision.gates
    weights = gates.data
    w1, b1, w2, b2 = bank.w1, bank.b1, bank.w2, bank.b2
    parents = (x, gates, w1, b1, w2, b2)
    track = Tensor.joins_graph(parents)
    batch, n_experts = weights.shape
    routed = []  # per routed expert: (i, rows, hidden), what its backward reads
    if batch * decision.top_k < DENSE_ROWS_PER_EXPERT * n_experts:
        # (E, H, batch) hidden and (E, C, batch) outputs, contiguous per expert
        hidden = (w1.data.reshape(-1, w1.data.shape[2]) @ x.data.T).reshape(
            n_experts, -1, batch)
        hidden += b1.data[:, :, None]
        np.maximum(hidden, 0.0, out=hidden)
        y = w2.data @ hidden
        y += b2.data[:, :, None]
        mixed = _sum_routed(y, weights)
        if track:
            active, routes = _routes(weights)
            routed = [(i, rows, hidden[i][:, rows].T) for i, rows in routes]
    else:
        active, routes = _routes(weights)
        mixed = np.zeros((batch, w2.data.shape[1]))
        for i, rows in routes:
            hidden = x.data[rows] @ w1.data[i].T
            hidden += b1.data[i]
            np.maximum(hidden, 0.0, out=hidden)
            y = hidden @ w2.data[i].T
            y += b2.data[i]
            mixed[rows] += weights[rows, i, None] * y
            if track:
                routed.append((i, rows, hidden))
    def _backward(grad):
        dx = np.zeros_like(x.data)
        dgates = np.zeros_like(weights)
        pieces = []  # per routed expert: (i, its w1, b1, w2 and b2 gradients)
        for j, (i, rows, hidden) in enumerate(routed):
            routed[j] = None  # this runs once: free each expert's hidden rows as it goes
            g_rows = grad[rows]
            g_w2 = g_rows @ w2.data[i]
            dgates[rows, i] = (g_w2 * hidden).sum(axis=1) + g_rows @ b2.data[i]
            gate = weights[rows, i, None]
            dy = gate * g_rows
            db2 = dy.sum(axis=0)
            dw2 = dy.T @ hidden
            dh = np.multiply(g_w2, gate, out=g_w2)
            dh *= hidden > 0.0
            db1 = dh.sum(axis=0)
            dw1 = dh.T @ x.data[rows]
            dx[rows] += dh @ w1.data[i]
            pieces.append((i, dw1, db1, dw2, db2))
        x.accumulate_grad(dx)
        gates.accumulate_grad(dgates)
        for n, param in enumerate((w1, b1, w2, b2), 1):
            param_grad = np.zeros_like(param.data)
            for piece in pieces:
                param_grad[piece[0]] = piece[n]
            param.accumulate_grad(param_grad, rows=active)
    return Tensor.result_of(mixed, parents, "expert_mixture").with_backward(_backward)


def importance_loss(gates: Tensor, w_importance: float = 1.0) -> Tensor:
    """Penalize uneven total gate mass across experts.

    Importance is the column sum of the gate matrix over the batch; the loss
    is w * CV(importance)^2, zero iff every expert receives equal mass.
    """
    return w_importance * coefficient_of_variation_sq(gates.sum(axis=0))


def _next_ranked(values: np.ndarray, kept: np.ndarray, k: int) -> np.ndarray:
    """Each row's largest entry outside ``kept``, the row's top ``k``: the
    (k+1)-th column of ``np.argsort(-values, axis=1, kind="stable")``.

    One ``argmax`` with the kept entries at -inf finds it; ties go to the
    lower index, as in the stable sort.  A row whose maximum there is not
    finite (a NaN, which ``argmax`` would pick, or -inf, which a kept entry
    could match) takes the stable sort.
    """
    masked = np.where(kept, -np.inf, values)
    cols = masked.argmax(axis=1)
    slow = np.flatnonzero(~np.isfinite(masked[np.arange(values.shape[0]), cols]))
    if slow.size:
        cols[slow] = np.argsort(-values[slow], axis=1, kind="stable")[:, k]
    return cols


def load_probability(decision: GateDecision, k: int) -> Tensor:
    """Per-(sample, expert) probability of selection under re-drawn noise.

    For expert i the threshold is the k-th largest noisy score among the
    *other* experts; the probability that a fresh Gaussian perturbation of
    expert i's clean score clears that threshold is the normal CDF of the
    margin divided by the noise scale.  Smooth in the clean scores, so
    under-selected experts still receive gradient through this path.

    One ``load_probability`` node over the clean scores, the noisy scores
    and the noise scale.  With z = margin / std, the backward gives the
    clean scores phi(z) * grad / std and the noise scale -phi(z) * grad * z
    / std; each threshold score gets minus the clean term, summed over the
    experts that compared against it; it rebuilds their columns from the
    top-k mask and the k-th and (k+1)-th columns, not from a kept table.
    """
    if decision.noise_std is None:
        raise ConfigError("load probability requires the noise path (noise_std)")
    noisy = decision.noisy_logits
    n = noisy.data.shape[1]
    if k >= n:
        raise ConfigError(f"load probability needs k < n (got k={k}, n={n})")
    selected = decision.selected_indices
    if selected.shape[1] != k:
        raise ConfigError(f"load probability needs the decision's top {k}, "
                          f"got {selected.shape[1]} selected columns")
    batch = noisy.data.shape[0]
    rows = np.arange(batch)[:, None]
    in_top_k = np.zeros(noisy.data.shape, dtype=bool)
    in_top_k[rows, selected] = True
    # Threshold column per (sample, expert): for a selected expert, removing
    # it promotes the (k+1)-th largest to rank k; otherwise the k-th largest
    # already excludes it.  Either way the threshold never depends on the
    # expert's own score.
    kth_col = selected[:, k - 1:]
    k1th_col = _next_ranked(noisy.data, in_top_k, k)[:, None]
    clean, std = decision.clean_logits, decision.noise_std
    z = (clean.data - noisy.data[rows, np.where(in_top_k, k1th_col, kth_col)]) / std.data
    p, gauss = ndtr_and_gaussian(z)
    def _backward(grad):
        # phi(z) from the forward's exp(-z^2 / 2), in its buffer: this runs once
        d_clean = np.multiply(gauss, _INV_SQRT_2PI, out=gauss)
        d_clean *= grad
        d_clean /= std.data
        clean.accumulate_grad(d_clean)
        # -d_clean * z, in z's buffer: negation is exact
        np.multiply(z, d_clean, out=z)
        std.accumulate_grad(np.negative(z, out=z))
        flat = np.where(in_top_k, k1th_col, kth_col)
        flat += rows * n
        d_noisy = np.bincount(flat.ravel(), weights=d_clean.ravel(), minlength=noisy.data.size)
        del flat
        # 0 - sum is the sum of the negated weights to the bit, an empty
        # bin's +0 included
        noisy.accumulate_grad(np.subtract(0.0, d_noisy, out=d_noisy).reshape(batch, n))
    return Tensor.result_of(p, (clean, noisy, std), "load_probability") \
        .with_backward(_backward)


def load_loss(load_p: Tensor, w_load: float = 1.0) -> Tensor:
    """Penalize uneven expected selection counts across experts."""
    return w_load * coefficient_of_variation_sq(load_p.sum(axis=0))


class MoEHead(Module):
    """Router plus expert bank, producing class logits and the decision.

    Noise, the load probability and both balancing terms are built only in
    train mode; evaluation routes with clean scores and is deterministic.
    """

    def __init__(self, config: TrainConfig, input_dim: int, rng: RngState | None):
        super().__init__()
        self.config = config
        self.router = Router(config, input_dim)
        self.experts = ExpertBank(config, input_dim, rng)

    def forward(self, x: Tensor, rng: RngState | None = None) -> tuple[Tensor, GateDecision]:
        cfg = self.config
        noise_on = self.training and cfg.noise_enabled
        decision = noisy_gate(self.router, x, cfg.top_k, noise_on, rng)
        # The losses come before the mixture, so load_probability's
        # temporaries are freed before the mixture's graph is built; neither
        # draws from the RNG, and the graph fixes the backward's order.
        if self.training and cfg.w_importance > 0:
            decision.importance = importance_loss(decision.gates, cfg.w_importance)
            # With k == n every expert is always selected, so the load is
            # constant by construction and the loss term is identically zero.
            if noise_on and cfg.top_k < cfg.n_experts:
                decision.load = load_loss(load_probability(decision, cfg.top_k), cfg.w_load)
        return moe_forward(self.experts, decision, x), decision

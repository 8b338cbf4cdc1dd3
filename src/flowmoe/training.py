"""Training loop, combined objective, and evaluation.

The objective is cross-entropy plus alpha times the sum of the two
balancing losses.  Training is plain mini-batch gradient descent with the
Adam update rule for a fixed number of epochs; a whole run (initialization,
shuffling, gate noise) is a function of one seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import replace

import numpy as np

from . import container
from .errors import ConfigError, DegenerateInputError, TrainingDivergedError
from .layers import Module, cross_entropy
from .metrics import EvalReport
from .model import TrainConfig, build_model, check_batch_size
from .moe import GateDecision, load_probability, noise_scale, noisy_gate
from .pipeline import EncodedDataset, first_non_finite_row
from .tensor import RngState, Tensor, coefficient_of_variation_sq, no_grad

log = logging.getLogger("flowmoe.training")

# The objective's terms as the history and checkpoint name them, root terms first
LOSS_TERMS = ("cross_entropy", "importance", "load", "total")


def model_config_for(config: TrainConfig) -> TrainConfig:
    """The architecture description of a run: its config, unchanged."""
    return config


class Adam:
    """Adaptive moment estimation with bias correction.

    A parameter without a gradient is skipped; one whose gradient names its
    rows (``grad_rows``) has only those rows, and their moments, updated.
    The update runs in place.
    """

    # the decay rates and epsilon of Kingma & Ba (2015); only lr varies
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        bias1 = 1 - self.beta1 ** self.t
        bias2 = 1 - self.beta2 ** self.t
        for p, m_all, v_all in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            # Ellipsis gives views, updated in place; a row index gives copies
            rows = ... if p.grad_rows is None or p.grad_rows.all() \
                else np.flatnonzero(p.grad_rows)
            g, m, v = p.grad[rows], m_all[rows], v_all[rows]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            g_sq = (1 - self.beta2) * g
            g_sq *= g
            v += g_sq
            # lr * m_hat / (sqrt(v_hat) + eps), one buffer at a time
            denom = np.sqrt(v / bias2, out=g_sq)
            denom += self.eps
            update = m / bias1
            update *= self.lr
            update /= denom
            p.data[rows] -= update
            if rows is not ...:
                m_all[rows], v_all[rows] = m, v

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def total_loss(logits: Tensor, labels, decision: GateDecision | None = None,
               alpha: float = 0.1):
    """Combined objective: cross-entropy + alpha * (importance + load).

    Returns the scalar loss tensor and a dict of the component values for
    logging.  A balancing term that ``decision`` does not carry adds zero.
    """
    ce = cross_entropy(logits, labels)
    terms = (None, None) if decision is None else (decision.importance, decision.load)
    imp, load = (Tensor(0.0) if term is None else term for term in terms)
    loss = ce + alpha * (imp + load)
    return loss, {name: float(term.data) for name, term in zip(LOSS_TERMS, (ce, imp, load, loss))}


def _check_finite(components: dict, epoch: int, step: int) -> None:
    # name the root component, not the aggregate
    for name in LOSS_TERMS:
        value = components[name]
        if not math.isfinite(value):
            raise TrainingDivergedError(
                f"loss component {name!r} became {value} at epoch {epoch}, step {step}"
            )


def train(model: Module, train_set: EncodedDataset, config: TrainConfig,
          rng: RngState | None = None):
    """Mini-batch training on the combined objective.

    Per-epoch history records the mean of every loss component and the
    training accuracy.  Deterministic given (model init, config.seed):
    shuffling and gate noise come from the single provided stream.
    """
    if len(train_set) == 0:
        raise ConfigError("training set is empty")
    if len(train_set) == 1:
        raise ConfigError("training set has 1 row; batch norm in train mode needs at least 2")
    check_batch_size(model.config, config.batch_size)
    if rng is None:
        rng = RngState(config.seed)
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    model.train()
    n = len(train_set)
    # a one-row last batch would leave batch norm one element per channel
    # at the last conv cell, so it joins the batch before it
    bounds = list(range(0, n, config.batch_size)) + [n]
    if n - bounds[-2] == 1:
        del bounds[-2]
    history = []
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        sums = dict.fromkeys(LOSS_TERMS, 0.0)
        correct = 0
        for step, (start, stop) in enumerate(zip(bounds, bounds[1:]), start=1):
            idx = order[start:stop]
            x = Tensor(train_set.x[idx])
            y = train_set.y[idx]
            logits, decision = model(x, rng)
            loss, components = total_loss(logits, y, decision, config.alpha)
            _check_finite(components, epoch, step)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            for key in sums:
                sums[key] += components[key]
            correct += int((logits.data.argmax(axis=1) == y).sum())
        entry = {key: total / (len(bounds) - 1) for key, total in sums.items()}
        entry["epoch"] = epoch
        entry["accuracy"] = correct / n
        history.append(entry)
        log.info("epoch %d: total=%.5f ce=%.5f importance=%.5f load=%.5f acc=%.4f",
                 epoch, entry["total"], entry["cross_entropy"], entry["importance"],
                 entry["load"], entry["accuracy"])
    return model, history


def fit(train_set: EncodedDataset, config: TrainConfig):
    """Build and train a model from one seed; returns (model, history)."""
    rng = RngState(config.seed)
    model = build_model(config, rng)
    return train(model, train_set, config, rng)


def _check_input(x: np.ndarray) -> None:
    """Refuse a sample stack with a non-finite cell, naming its first such row."""
    row = first_non_finite_row(x)
    if row is not None:
        raise DegenerateInputError(f"input row {row} has a non-finite feature")


def predict(model: Module, x: np.ndarray, batch_size: int = 1024) -> np.ndarray:
    """Eval-mode class predictions for a stack of samples; a non-finite cell
    raises DegenerateInputError."""
    _check_input(x)
    model.eval()
    outputs = []
    for start in range(0, x.shape[0], batch_size):
        logits, _ = model(Tensor(x[start:start + batch_size]))
        outputs.append(logits.data.argmax(axis=1))
    return np.concatenate(outputs) if outputs else np.zeros(0, dtype=np.intp)


def evaluate(model: Module, test_set: EncodedDataset,
             batch_size: int = 1024) -> EvalReport:
    """Deterministic eval-mode metrics over a dataset; a non-finite cell
    raises DegenerateInputError."""
    if len(test_set) == 0:
        raise ConfigError("evaluation set is empty")
    predictions = predict(model, test_set.x, batch_size)
    return EvalReport.from_predictions(test_set.y, predictions, test_set.class_names)


def expert_utilization(model: Module, dataset: EncodedDataset,
                       batch_size: int = 1024) -> dict:
    """Per-expert routing diagnostics over a dataset (eval mode).

    Importance is the total gate mass per expert; the selection count is how
    many samples kept the expert in their top k; the load estimate applies
    the selection-probability formula with the learned noise scales to the
    clean scores.  The squared CVs are directly comparable to the two
    balancing losses.  Builds no autodiff graph.  A non-finite cell raises
    DegenerateInputError.
    """
    if not hasattr(model, "head"):
        raise ConfigError("gating report requires a model with an expert head")
    if len(dataset) == 0:
        raise ConfigError("gating report dataset is empty")
    _check_input(dataset.x)
    model.eval()
    cfg = model.head.config
    n = cfg.n_experts
    importance = np.zeros(n)
    selections = np.zeros(n, dtype=np.int64)
    load = np.zeros(n)
    total = 0
    with no_grad():
        for start in range(0, len(dataset), batch_size):
            x = Tensor(dataset.x[start:start + batch_size])
            features = model.backbone(x)
            decision = noisy_gate(model.head.router, features, cfg.top_k, False)
            importance += decision.gates.data.sum(axis=0)
            np.add.at(selections, decision.selected_indices.reshape(-1), 1)
            if cfg.top_k < n:
                # apply the selection-probability formula to the clean scores,
                # with the learned noise scales standing in for the live noise
                probe = replace(decision, noise_std=noise_scale(model.head.router, features))
                load += load_probability(probe, cfg.top_k).data.sum(axis=0)
            else:
                load += np.full(n, float(x.data.shape[0]))
            total += x.data.shape[0]
    return {
        "n_experts": n,
        "top_k": cfg.top_k,
        "samples": total,
        "importance": importance.tolist(),
        "selection_counts": selections.tolist(),
        "load_estimate": load.tolist(),
        "importance_cv_sq": float(coefficient_of_variation_sq(Tensor(importance)).data),
        "load_cv_sq": float(coefficient_of_variation_sq(Tensor(load)).data),
    }


def history_to_json(history, config: TrainConfig) -> str:
    return container.json_text({"config": config.to_dict(), "epochs": history})

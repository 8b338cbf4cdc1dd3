"""Multiclass evaluation metrics derived from a confusion matrix."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import container
from .errors import LabelError


def weighted_mean(values, weights) -> float:
    """Support-weighted mean, e.g. of per-class F1 scores."""
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    if total == 0:
        return 0.0
    return float((values * weights).sum() / total)


def confusion_matrix(y_true, y_pred, n_classes: int) -> np.ndarray:
    y_true = np.asarray(y_true, dtype=np.intp)
    y_pred = np.asarray(y_pred, dtype=np.intp)
    for arr, name in ((y_true, "true"), (y_pred, "predicted")):
        if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
            raise LabelError(f"{name} labels fall outside [0, {n_classes})")
    matrix = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(matrix, (y_true, y_pred), 1)
    return matrix


@dataclass
class EvalReport:
    """Per-class precision/recall/F1 plus accuracy and weighted F1.

    Rows of the confusion matrix are true classes, columns predictions.
    Classes with no predicted (or no true) positives get 0 for the affected
    metric and are listed in zero_division_classes.
    """

    class_names: list[str]
    confusion: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    accuracy: float
    weighted_f1: float
    zero_division_classes: list[str]

    @classmethod
    def from_predictions(cls, y_true, y_pred, class_names) -> "EvalReport":
        n = len(class_names)
        matrix = confusion_matrix(y_true, y_pred, n)
        tp = np.diag(matrix).astype(np.float64)
        predicted = matrix.sum(axis=0).astype(np.float64)
        support = matrix.sum(axis=1)
        precision = np.divide(tp, predicted, out=np.zeros(n), where=predicted > 0)
        recall = np.divide(tp, support, out=np.zeros(n), where=support > 0)
        both = precision + recall
        f1 = np.divide(2 * precision * recall, both, out=np.zeros(n), where=both > 0)
        flagged = [class_names[c] for c in np.flatnonzero((predicted == 0) | (support == 0))]
        total = matrix.sum()
        accuracy = float(np.trace(matrix) / total) if total else 0.0
        return cls(
            class_names=list(class_names),
            confusion=matrix,
            precision=precision,
            recall=recall,
            f1=f1,
            support=support,
            accuracy=accuracy,
            weighted_f1=weighted_mean(f1, support),
            zero_division_classes=flagged,
        )

    def to_dict(self) -> dict:
        return {name: value.tolist() if isinstance(value, np.ndarray) else value
                for name, value in asdict(self).items()}

    def to_json(self) -> str:
        return container.json_text(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        return container.decode(cls, json.loads(text), "report")

    def format_table(self) -> str:
        lines = [
            f"{'class':<22} {'precision':>10} {'recall':>10} {'f1':>10} {'support':>8}"
        ]
        for i, name in enumerate(self.class_names):
            lines.append(
                f"{name:<22} {self.precision[i]:>10.5f} {self.recall[i]:>10.5f} "
                f"{self.f1[i]:>10.5f} {self.support[i]:>8d}"
            )
        lines.append("")
        lines.append(f"accuracy    {self.accuracy:.5f}")
        lines.append(f"weighted F1 {self.weighted_f1:.5f}")
        if self.zero_division_classes:
            lines.append(f"zero-division classes: {', '.join(self.zero_division_classes)}")
        return "\n".join(lines)

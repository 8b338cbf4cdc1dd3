"""Separable synthetic flow data for smoke tests and demos.

Gaussian blobs in the 78-dimensional encoded feature space, one blob per
class, reshaped to the model's 6x13 input.  Class means are drawn uniformly
in [0, 1]^78; in that many dimensions random means sit far apart relative to
the blob spread (0.05), so the classes are separable by construction.
"""

from __future__ import annotations

import numpy as np

from .pipeline import CLASS_NAMES, EncodedDataset
from .tensor import RngState


def make_blobs(n_samples: int, seed: int = 0) -> EncodedDataset:
    """``n_samples`` rows, cycling through the nine classes before a shuffle."""
    rows, cols, n_classes = 6, 13, len(CLASS_NAMES)
    rng = RngState(seed)
    means = rng.uniform(0.0, 1.0, (n_classes, rows * cols))
    labels = np.arange(n_samples) % n_classes
    labels = labels[rng.permutation(n_samples)]
    x = means[labels] + 0.05 * rng.normal((n_samples, rows * cols))
    return EncodedDataset(
        x=x.reshape(n_samples, rows, cols),
        y=labels.astype(np.int64),
        class_names=CLASS_NAMES,
    )

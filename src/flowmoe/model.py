"""The run configuration and classifier assembly: CNN backbone feeding the
expert head, plus the reduced architectures used by the ablation study."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from . import container
from .errors import ConfigError
from .layers import CnnBackbone, Dense, Module, backbone_length
from .moe import MoEHead
from .tensor import RngState, Tensor


def _positive_ints(values) -> bool:
    return all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in values)


@dataclass(frozen=True)
class TrainConfig:
    """Every hyperparameter of a run, sufficient to rebuild its model from a
    checkpoint.  The defaults are the full-scale setup: 128 experts with
    k=32, alpha 0.1, batch size 1024, at most 40 epochs.  Optimizer choice
    and learning rate are toolkit decisions; the ``disable_*`` flags select
    the ablation variants."""

    batch_size: int = 1024
    max_epochs: int = 40
    alpha: float = 0.1
    n_experts: int = 128
    top_k: int = 32
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    seed: int = 0
    disable_balancing_losses: bool = False
    disable_moe: bool = False
    disable_cnn: bool = False
    expert_hidden: int = 16
    n_classes: int = 9
    input_shape: tuple[int, ...] = (6, 13)
    cnn_filters: tuple[int, ...] = (16, 32, 64, 128)
    noise_enabled: bool = True
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5

    def __post_init__(self):
        for name in ("batch_size", "max_epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.optimizer != "adam":
            raise ConfigError(f"unsupported optimizer {self.optimizer!r}")
        if not 1 <= self.top_k <= self.n_experts:
            raise ConfigError(
                f"top_k must satisfy 1 <= k <= n_experts, got k={self.top_k}, "
                f"n={self.n_experts}"
            )
        # a negative rate is gradient ascent, a negative alpha rewards imbalance
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and positive, "
                              f"got {self.learning_rate}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigError(f"alpha must be finite and nonnegative, got {self.alpha}")
        if self.seed < 0:  # numpy's seed sequence refuses it
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        # architecture values the model cannot be built from, or would run
        # to NaN: a negative bn_eps is a negative variance under the root
        if not (math.isfinite(self.bn_eps) and self.bn_eps > 0):
            raise ConfigError(f"bn_eps must be finite and positive, got {self.bn_eps}")
        if not (math.isfinite(self.bn_momentum) and 0 <= self.bn_momentum <= 1):
            raise ConfigError(f"bn_momentum must be in [0, 1], got {self.bn_momentum}")
        if self.expert_hidden < 1:
            raise ConfigError(f"expert_hidden must be positive, got {self.expert_hidden}")
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be at least 2, got {self.n_classes}")
        if not self.cnn_filters or not _positive_ints(self.cnn_filters):
            raise ConfigError(f"cnn_filters must be positive ints, got {self.cnn_filters!r}")
        if len(self.input_shape) != 2 or not _positive_ints(self.input_shape):
            raise ConfigError(f"input_shape must be two positive ints, got {self.input_shape!r}")

    @property
    def variant(self) -> str:
        """The architecture the ablation flags select."""
        return "dense" if self.disable_cnn else "cnn_dense" if self.disable_moe else "cnn_moe"

    @property
    def w_importance(self) -> float:
        """Weight of each balancing loss: 1, or 0 when they are disabled."""
        return 0.0 if self.disable_balancing_losses else 1.0

    w_load = w_importance  # the two balancing losses are switched together

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        """Inverse of :meth:`to_dict` for decoded JSON: exactly the fields,
        each of its declared type (a bool is no int; an int is a float)."""
        return container.decode(cls, raw, "config")


def check_batch_size(config: TrainConfig, batch_size: int) -> None:
    """Refuse a batch size at which the model of ``config`` cannot train.

    Train-mode batch norm needs at least 2 elements per channel, so with a
    conv backbone ``batch_size`` times the backbone's final length must be
    at least 2.  The ``no_cnn`` variant has no batch norm.
    """
    if config.disable_cnn:
        return
    length = backbone_length(config.input_shape[1], len(config.cnn_filters))
    if batch_size * length < 2:
        raise ConfigError(
            f"batch_size {batch_size} leaves train-mode batch norm one element per channel "
            f"at the last conv cell (length {length}); it needs at least 2")


def _backbone(config: TrainConfig, rng: RngState | None) -> CnnBackbone:
    rows, cols = config.input_shape
    return CnnBackbone(rng, in_channels=rows, seq_len=cols, filters=config.cnn_filters,
                       bn_momentum=config.bn_momentum, bn_eps=config.bn_eps)


class CnnMoEClassifier(Module):
    """Full architecture: conv backbone into the sparse expert head."""

    def __init__(self, config: TrainConfig, rng: RngState | None):
        super().__init__()
        self.config = config
        self.backbone = _backbone(config, rng)
        self.head = MoEHead(config, self.backbone.output_dim, rng)

    def forward(self, x: Tensor, rng: RngState | None = None):
        features = self.backbone(x)
        return self.head(features, rng)


class CnnDenseClassifier(Module):
    """Ablation: the expert head replaced by a single dense layer."""

    def __init__(self, config: TrainConfig, rng: RngState | None):
        super().__init__()
        self.config = config
        self.backbone = _backbone(config, rng)
        self.out = Dense(self.backbone.output_dim, config.n_classes, rng)

    def forward(self, x: Tensor, rng: RngState | None = None):
        return self.out(self.backbone(x)), None


class DenseClassifier(Module):
    """Ablation: one affine layer on the flattened feature vector."""

    def __init__(self, config: TrainConfig, rng: RngState | None):
        super().__init__()
        self.config = config
        rows, cols = config.input_shape
        self.input_dim = rows * cols
        self.out = Dense(self.input_dim, config.n_classes, rng)

    def forward(self, x: Tensor, rng: RngState | None = None):
        flat = x.reshape(x.data.shape[0], self.input_dim)
        return self.out(flat), None


CLASSIFIERS = {"cnn_moe": CnnMoEClassifier, "cnn_dense": CnnDenseClassifier,
               "dense": DenseClassifier}


def build_model(config: TrainConfig, rng: RngState | None) -> Module:
    """The classifier of ``config.variant``, initialised from ``rng``; with
    ``rng`` None, a skeleton that draws nothing (zero weights) for
    ``load_state_dict`` to fill."""
    return CLASSIFIERS[config.variant](config, rng)

"""flowmoe: flow-based network intrusion detection with a CNN feature
extractor and a sparsely gated mixture-of-experts classifier.

The package is organized bottom-up:

* :mod:`flowmoe.tensor` -- float64 arrays with reverse-mode autodiff.
* :mod:`flowmoe.layers` -- conv/batch-norm/pool/dense layers and the CNN
  backbone mapping a 6x13 flow matrix to 128 features.
* :mod:`flowmoe.moe` -- noisy top-k routing, sparse expert dispatch, and
  the importance/load balancing losses.
* :mod:`flowmoe.pipeline` -- flow-CSV parsing, per-class imputation,
  min-max scaling, drop-first one-hot encoding to 78 values, stratified
  splitting, and a binary dataset cache.
* :mod:`flowmoe.model` / :mod:`flowmoe.training` -- the run config,
  classifier assembly, the combined objective, Adam training, and
  evaluation reports.
* :mod:`flowmoe.checkpoint` / :mod:`flowmoe.ablation` / :mod:`flowmoe.cli`
  -- persistence, the ablation harness, and the command-line front door.
"""

from .ablation import (
    EXPERT_GRID,
    NAMED_VARIANTS,
    AblationResult,
    ablation_config,
    run_ablation,
    run_expert_grid,
)
from .checkpoint import LoadedCheckpoint, load_checkpoint, save_checkpoint
from .errors import (
    CacheIntegrityError,
    CheckpointIntegrityError,
    CheckpointVersionError,
    ConfigError,
    DegenerateInputError,
    DimensionError,
    FlowMoeError,
    GraphReleasedError,
    LabelError,
    SchemaError,
    StratificationError,
    TrainingDivergedError,
)
from .layers import (
    BatchNorm1d,
    CnnBackbone,
    Conv1d,
    ConvCell,
    Dense,
    Module,
    batch_norm,
    conv1d,
    conv_cell,
    count_parameters,
    cross_entropy,
    dense,
    maxpool1d,
    relu,
)
from .metrics import EvalReport, confusion_matrix, weighted_mean
from .model import (
    CnnDenseClassifier,
    CnnMoEClassifier,
    DenseClassifier,
    TrainConfig,
    build_model,
)
from .moe import (
    ExpertBank,
    GateDecision,
    MoEHead,
    Router,
    importance_loss,
    load_loss,
    load_probability,
    moe_forward,
    noisy_gate,
    top_k_mask,
)
from .pipeline import (
    CLASS_NAMES,
    EncodedDataset,
    FlowRecord,
    FlowSchema,
    FlowTable,
    ImputationTable,
    PipelineStats,
    PreparedData,
    apply_imputers,
    encode,
    fit_imputers,
    fit_pipeline_stats,
    load_dataset_cache,
    parse_flow_csv,
    prepare_dataset,
    save_dataset_cache,
    stratified_split,
)
from .synthetic import make_blobs
from .tensor import (
    RngState,
    Tensor,
    coefficient_of_variation_sq,
    matmul,
    softmax,
    softplus,
)
from .training import (
    Adam,
    evaluate,
    expert_utilization,
    fit,
    model_config_for,
    total_loss,
    train,
)

__version__ = "0.1.0"

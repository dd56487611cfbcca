"""Self-interpreting masked transformers via side-tuned Shapley explainers."""

from .autodiff import ContractError, DimensionError, Optimizer, OptimizerConfig, Tensor
from .checkpoint import CheckpointData, CheckpointError, load_checkpoint, save_checkpoint
from .data import SyntheticDataset, generate_dataset, signal_positions
from .evaluation import (
    BoundReport,
    EfficiencyReport,
    attribution_error_bound,
    cka,
    efficiency_report,
    gradient_conflict,
    insertion_deletion,
)
from .shapley import (
    Game,
    efficiency_normalize,
    exact_shapley,
    kernelshap,
    sample_equicardinality_masks,
    sample_subsets,
    second_moment_matrix,
    shapley_kernel,
)
from .sidenet import (
    ROLE_EXPLAINER,
    ROLE_SURROGATE,
    CombinedModel,
    SideConfig,
    SideTunedModel,
    count_side_params,
    make_explainer_from_surrogate,
)
from .training import (
    LossRecord,
    StageConfig,
    kl_divergence,
    geometric_decay_experiment,
    train_classifier,
    train_duo,
    train_explainer,
    train_froyo,
    train_surrogate,
)
from .transformer import PRESETS, MaskedTransformer, ModelConfig, count_params

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "CheckpointData", "CheckpointError", "CombinedModel",
    "ContractError", "DimensionError", "EfficiencyReport", "Game",
    "LossRecord", "MaskedTransformer", "ModelConfig", "Optimizer",
    "OptimizerConfig", "PRESETS", "ROLE_EXPLAINER", "ROLE_SURROGATE",
    "SideConfig", "SideTunedModel", "StageConfig", "SyntheticDataset",
    "Tensor", "attribution_error_bound", "cka", "count_params",
    "count_side_params", "efficiency_normalize", "efficiency_report",
    "exact_shapley", "generate_dataset",
    "gradient_conflict", "insertion_deletion", "kernelshap", "kl_divergence",
    "load_checkpoint", "make_explainer_from_surrogate",
    "sample_equicardinality_masks", "sample_subsets", "save_checkpoint",
    "second_moment_matrix", "shapley_kernel", "signal_positions",
    "geometric_decay_experiment", "train_classifier", "train_duo",
    "train_explainer", "train_froyo", "train_surrogate",
]

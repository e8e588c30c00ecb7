"""CrossDistil: cross-task ranking distillation for two-task binary feedback.

Augmented ranking-based teacher heads learn the fine-grained ordering of
label combinations; regression-based student heads absorb that ordering via
Platt-calibrated, error-corrected knowledge distillation, with the two
parameter sets optimized in alternation.
"""

from .data import (
    Dataset,
    LabelPartition,
    SynthConfig,
    corrupt_labels,
    generate_synthetic,
    load_csv,
    partition,
    sample,
    save_csv,
    split_dataset,
)
from .losses import CalibrationParams, HyperParams
from .metrics import auc, class_of, logloss, multi_auc
from .model import ModelConfig, MultiTaskNet
from .numgrad import Tensor, backward, no_grad
from .training import TrainConfig, TrainState, evaluate, init_state, train, train_step

__version__ = "0.1.0"

__all__ = [
    "CalibrationParams",
    "Dataset",
    "HyperParams",
    "LabelPartition",
    "ModelConfig",
    "MultiTaskNet",
    "SynthConfig",
    "Tensor",
    "TrainConfig",
    "TrainState",
    "auc",
    "backward",
    "class_of",
    "corrupt_labels",
    "evaluate",
    "generate_synthetic",
    "init_state",
    "load_csv",
    "logloss",
    "multi_auc",
    "no_grad",
    "partition",
    "sample",
    "save_csv",
    "split_dataset",
    "train",
    "train_step",
]

"""Hierarchical-attention bi-LSTM classifier for binned multi-track signals.

The package is self-contained: a small reverse-mode autodiff core
(:mod:`trackattn.autodiff`), the fused bidirectional LSTM scan
(:mod:`trackattn.lstm`), the model variants with their soft-attention
pools, and checkpointing (:mod:`trackattn.model`), dataset handling and
synthesis (:mod:`trackattn.data`), seeded training (:mod:`trackattn.training`),
metrics and interpretation maps (:mod:`trackattn.metrics`), and a
reproducible command-line surface (:mod:`trackattn.cli`).
"""

from .data import (Dataset, GeneSample, SignalMatrix, SynthSpec, binarize_labels,
                   load_dataset, restrict_marks, save_dataset, split, synth_generate)
from .metrics import (MeanAttentionMap, ScoredSet, auc, f1, interpretation_correlation,
                      mean_attention, mean_saliency, pearson, score_dataset)
from .model import (AttentionProfile, ModelConfig, ParameterStore, Prediction, forward,
                    init_params, load_checkpoint, save_checkpoint)
from .training import TrainConfig, TrainHistory, train

__version__ = "0.1.0"

__all__ = [
    "AttentionProfile", "Dataset", "GeneSample", "MeanAttentionMap", "ModelConfig",
    "ParameterStore", "Prediction", "ScoredSet", "SignalMatrix", "SynthSpec",
    "TrainConfig", "TrainHistory", "auc", "binarize_labels", "f1", "forward",
    "init_params", "interpretation_correlation", "load_checkpoint", "load_dataset",
    "mean_attention", "mean_saliency", "pearson", "restrict_marks",
    "save_checkpoint", "save_dataset", "score_dataset", "split",
    "synth_generate", "train",
]

"""Hierarchical-attention bi-LSTM classifier for binned multi-track signals.

The package is self-contained: a small reverse-mode autodiff core
(:mod:`trackattn.autodiff`), the fused bidirectional LSTM scan
(:mod:`trackattn.lstm`), the model variants with their soft-attention
pools, one batched forward pass and checkpointing (:mod:`trackattn.model`),
array-backed datasets with ingestion and synthesis (:mod:`trackattn.data`),
seeded training (:mod:`trackattn.training`), metrics and interpretation
maps (:mod:`trackattn.metrics`), and a reproducible command-line surface
(:mod:`trackattn.cli`).
"""

from .data import (Dataset, SynthSpec, binarize_labels, load_dataset, restrict_marks,
                   save_dataset, split, synth_generate)
from .metrics import (MeanAttentionMap, ScoredSet, auc, f1, mean_attention, mean_saliency,
                      pearson, score_dataset)
from .model import (ModelConfig, ParameterStore, forward_batch, init_params, load_checkpoint,
                    logits_to_probs, save_checkpoint)
from .training import TrainConfig, TrainHistory, train

__version__ = "0.1.0"

__all__ = [
    "Dataset", "MeanAttentionMap", "ModelConfig", "ParameterStore", "ScoredSet",
    "SynthSpec", "TrainConfig", "TrainHistory", "auc", "binarize_labels", "f1",
    "forward_batch", "init_params", "load_checkpoint", "load_dataset", "logits_to_probs",
    "mean_attention", "mean_saliency", "pearson", "restrict_marks", "save_checkpoint",
    "save_dataset", "score_dataset", "split", "synth_generate", "train",
]

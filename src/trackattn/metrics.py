"""Classification metrics, class-averaged attention maps and saliency.

AUC uses the rank formulation with average ranks for tied scores, which
is exact against brute-force pair counting (ties score one half). The
interpretation protocol correlates a per-bin importance profile against a
reference signal profile with the sample Pearson coefficient.

Saliency is the absolute input gradient of the predicted class's
pre-softmax logit (post-softmax probabilities saturate, so the logit is
the differentiable target).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import Dataset
from .errors import ContractError, MetricUndefinedError
from .ioutil import atomic_write_text
from .model import ModelConfig, ParameterStore, forward_batch, logits_to_probs


@dataclass
class ScoredSet:
    """Predicted positive-class probabilities with the true labels."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.labels is None:
            raise ContractError("labels are unset; binarize first")
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.scores.shape != self.labels.shape or self.scores.ndim != 1:
            raise ContractError("scores and labels must be equal-length vectors")
        if not ((self.scores >= 0) & (self.scores <= 1)).all():
            raise ContractError("scores must lie in [0, 1]")
        if self.labels.size and not np.isin(self.labels, (-1, 1)).all():
            raise ContractError("labels must be -1 or +1")


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing their group's mean rank: a group
    of c values ending at rank e holds ranks e - c + 1 .. e."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[group]


def auc(s: ScoredSet) -> float:
    """Probability that a random positive outranks a random negative,
    ties counting one half (rank-sum formulation)."""
    n_pos = int((s.labels == 1).sum())
    n_neg = int((s.labels == -1).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError("AUC undefined: needs at least one positive and one negative")
    ranks = _average_ranks(s.scores)
    rank_sum = ranks[s.labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def f1(s: ScoredSet, threshold: float = 0.5) -> float:
    """F1 of the positive class with predictions scored above the threshold."""
    if s.scores.size == 0:
        raise ContractError("empty scored set")
    predicted = s.scores > threshold
    actual = s.labels == 1
    tp = int((predicted & actual).sum())
    if tp == 0:
        return 0.0
    precision = tp / int(predicted.sum())
    recall = tp / int(actual.sum())
    return 2.0 * precision * recall / (precision + recall)


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ContractError("pearson needs two equal-length vectors of size >= 2")
    dx = x - x.mean()
    dy = y - y.mean()
    vx = float(dx @ dx)
    vy = float(dy @ dy)
    if vx == 0.0 or vy == 0.0:
        raise MetricUndefinedError("pearson undefined for zero-variance input")
    return float((dx @ dy) / np.sqrt(vx * vy))


# ---------------------------------------------------------- model scoring

# Genes per scoring batch. Each batch's pass is freed before the next
# runs, so this bounds a scoring pass's memory; per-gene values do not
# depend on it.
SCORE_BATCH = 64


def predict_probs(x: np.ndarray, params: ParameterStore, cfg: ModelConfig,
                  batch_size: int = SCORE_BATCH) -> np.ndarray:
    """Positive-class probabilities for a (N, M, T) input stack."""
    # tape-free, and no pass outlives its batch
    return np.concatenate([
        logits_to_probs(forward_batch(x[lo:lo + batch_size], params, cfg,
                                      grad=False).logits.data)[1]
        for lo in range(0, x.shape[0], batch_size)])


def score_dataset(dataset: Dataset, params: ParameterStore, cfg: ModelConfig,
                  batch_size: int = SCORE_BATCH) -> ScoredSet:
    return ScoredSet(predict_probs(dataset.x, params, cfg, batch_size), dataset.labels)


@dataclass
class MeanAttentionMap:
    """Attention profiles averaged over samples predicted as one class."""

    alpha_mean: np.ndarray            # (n_rows, T)
    beta_mean: np.ndarray | None      # (M,) for the mark-attention variant
    n_samples: int


@dataclass
class ClassSums:
    """Running sums over the samples predicted as one class."""

    count: int = 0
    alpha: np.ndarray | None = None     # (n_rows, T)
    beta: np.ndarray | None = None      # (M,), original mark order
    saliency: np.ndarray | None = None  # (M, T) absolute input gradients


def _add(total, part):
    return part if total is None else total + part


def _add_batch(x: np.ndarray, params: ParameterStore, cfg: ModelConfig,
               predicted_class: int, sums: ClassSums, saliency: bool) -> None:
    """Add one batch's samples predicted as the class into ``sums``: one
    forward pass, tape-free unless saliency is asked for, plus one
    backward pass to the inputs only when it is.

    One backward pass suffices for saliency: seeding each kept column's
    own predicted-class logit with 1 gives every column its own logit
    gradient.
    """
    bf = forward_batch(x, params, cfg, grad=saliency, param_grad=False)
    probs = logits_to_probs(bf.logits.data)
    keep = (probs[1] > probs[0]) if predicted_class == 1 else (probs[1] <= probs[0])
    if not keep.any():
        return
    if bf.alphas is not None:
        sums.alpha = _add(sums.alpha, bf.alphas[:, :, keep].sum(axis=2))
    if bf.betas is not None:
        sums.beta = _add(sums.beta, bf.betas[:, keep].sum(axis=1))
    if saliency:
        seed = np.zeros_like(bf.logits.data)
        seed[np.argmax(bf.logits.data, axis=0), np.arange(keep.size)] = keep
        ad.backward(bf.logits, seed)
        sums.saliency = _add(sums.saliency, np.abs(bf.input_gradient()[keep]).sum(axis=0))
    sums.count += int(keep.sum())


def _class_pass(dataset: Dataset, params: ParameterStore, cfg: ModelConfig,
                predicted_class: int, batch_size: int, sums: ClassSums,
                saliency: bool) -> ClassSums:
    """Fill ``sums`` batch by batch; each batch's graph is freed before the
    next batch runs."""
    if predicted_class not in (-1, 1):
        raise ContractError("predicted_class must be -1 or +1")
    x = dataset.x
    for lo in range(0, x.shape[0], batch_size):
        _add_batch(x[lo:lo + batch_size], params, cfg, predicted_class, sums, saliency)
    if sums.count == 0:
        raise MetricUndefinedError(f"empty class: no samples predicted as {predicted_class:+d}")
    return sums


def mean_attention(dataset: Dataset, params: ParameterStore, cfg: ModelConfig,
                   predicted_class: int, batch_size: int = SCORE_BATCH,
                   sums: ClassSums | None = None) -> MeanAttentionMap:
    """Average alpha and beta over samples whose argmax prediction equals
    predicted_class (+1 or -1). Given the ``sums`` a :func:`mean_saliency`
    call filled, no forward pass of its own runs."""
    if predicted_class not in (-1, 1):
        raise ContractError("predicted_class must be -1 or +1")
    if cfg.variant == "lstm":
        raise ContractError(f"variant {cfg.variant!r} produces no attention")
    if sums is None:
        sums = _class_pass(dataset, params, cfg, predicted_class, batch_size, ClassSums(),
                           saliency=False)
    return MeanAttentionMap(sums.alpha / sums.count,
                            None if sums.beta is None else sums.beta / sums.count,
                            sums.count)


def mean_saliency(dataset: Dataset, params: ParameterStore, cfg: ModelConfig,
                  predicted_class: int, batch_size: int = SCORE_BATCH,
                  sums: ClassSums | None = None) -> np.ndarray:
    """Mean absolute input gradient over samples predicted as one class.

    An empty ``sums`` passed in is filled from the same forward passes, so
    ``mean_attention(..., sums=sums)`` can average alpha and beta without
    running the model again.
    """
    sums = _class_pass(dataset, params, cfg, predicted_class, batch_size,
                       ClassSums() if sums is None else sums, saliency=True)
    return sums.saliency / sums.count


# ----------------------------------------------------------------- exports


def metrics_report_text(auc_value: float, f1_value: float, n: int,
                        n_pos: int, n_neg: int) -> str:
    report = {"auc": auc_value, "f1": f1_value, "n": n,
              "class_counts": {"positive": n_pos, "negative": n_neg}}
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_metrics_report(path: str, scored: ScoredSet) -> None:
    n_pos = int((scored.labels == 1).sum())
    n_neg = int((scored.labels == -1).sum())
    atomic_write_text(path, metrics_report_text(auc(scored), f1(scored),
                                                scored.labels.size, n_pos, n_neg))

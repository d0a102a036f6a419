"""Mini-batch gradient training with validation-based model selection.

An epoch shuffles the training set under a seeded generator, steps over
mini-batches (batch gradient = mean of per-sample gradients), clips the
global gradient norm, and applies the optimizer update. Each step's graph
is freed before the next step's forward pass, so one tape is alive at a
time. A non-finite loss or pre-clip gradient norm aborts the run with a
NumericalError naming the epoch and batch. After each epoch
one tape-free pass over the validation set gives its AUC and its class
calls; the parameters returned are those of the epoch with the highest
AUC, ties going to an epoch whose calls hold both classes (then to the
earlier epoch), and training halts once the current epoch reaches
best_epoch + patience (or max_epochs).

Everything is deterministic under the config seed: initialization,
shuffle order and the gradient reduction are all seeded and ordered.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import Dataset
from .errors import ContractError, NumericalError
from .ioutil import atomic_write_text
from .metrics import ScoredSet, auc, predict_probs
from .model import ModelConfig, ParameterStore, forward_batch, init_params, nll_loss_batch

OPTIMIZERS = ("sgd", "adaptive-moments")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 16
    max_epochs: int = 100
    patience: int = 5
    grad_clip_norm: float = 5.0
    seed: int = 0
    optimizer: str = "adaptive-moments"

    def __post_init__(self):
        # zero is allowed as the documented no-op training case
        if not 0 <= self.learning_rate < np.inf:
            raise ContractError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate!r}")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 0:
            raise ContractError("batch_size and max_epochs must be >= 1, patience >= 0")
        if not 0 < self.grad_clip_norm < np.inf:
            raise ContractError(
                f"grad_clip_norm must be finite and positive, got {self.grad_clip_norm!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ContractError(f"unknown optimizer {self.optimizer!r}; valid: {', '.join(OPTIMIZERS)}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_auc: float
    val_calls_on: int  # validation genes called "on"; history.csv leaves it out


@dataclass
class TrainHistory:
    epochs: list[EpochStats]
    best_epoch: int

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("epoch,train_loss,val_auc\n")
        for e in self.epochs:
            out.write(f"{e.epoch},{repr(e.train_loss)},{repr(e.val_auc)}\n")
        return out.getvalue()


def write_history(path: str, history: TrainHistory) -> None:
    atomic_write_text(path, history.to_csv())


def init_optimizer_state(params: np.ndarray, cfg: TrainConfig) -> dict:
    if cfg.optimizer == "sgd":
        return {}
    return {"t": 0, "m": np.zeros_like(params), "v": np.zeros_like(params)}


def optimizer_step(params: np.ndarray, grad: np.ndarray, state: dict, cfg: TrainConfig) -> None:
    """Update the flat parameter vector in place."""
    if cfg.optimizer == "sgd":
        params -= cfg.learning_rate * grad
        return
    state["t"] += 1
    t = state["t"]
    m, v = state["m"], state["v"]
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    params -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def clip_gradients(grad: np.ndarray, max_norm: float) -> float:
    """Scale the flat gradient in place so its norm is at most max_norm;
    returns the pre-clip norm. The sum is numpy's own reduction, not a
    BLAS dot, so the norm does not depend on the BLAS thread count."""
    total = np.sqrt(float((grad * grad).sum()))
    if total > max_norm:
        grad *= max_norm / total
    return total


def _check_dataset(name: str, ds: Dataset, mcfg: ModelConfig) -> None:
    if len(ds) == 0:
        raise ContractError(f"{name} dataset is empty")
    if ds.n_marks != mcfg.n_marks or ds.n_bins != mcfg.n_bins:
        raise ContractError(
            f"{name} dataset shape ({ds.n_marks}, {ds.n_bins}) does not match "
            f"model ({mcfg.n_marks}, {mcfg.n_bins})")
    if ds.labels is None:
        raise ContractError(f"{name} labels are unset; binarize first")


def _step(x: np.ndarray, y: np.ndarray, params: ParameterStore, state: dict,
          mcfg: ModelConfig, cfg: TrainConfig, where: str) -> float:
    """One optimizer step on a batch; returns the batch's mean loss. The
    batch's graph dies on return, before the next batch's forward pass."""
    bf = forward_batch(x, params, mcfg)
    root = nll_loss_batch(bf.logits, y)
    loss_value = float(root.data)
    if not np.isfinite(loss_value):
        raise NumericalError(f"non-finite loss at {where}")
    # a finite loss can still overflow the backward pass: a subnormal
    # true-class probability makes the loss node's 1/p infinite. The norm
    # check reports that, so the warnings on the way to it stay quiet
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ad.backward(root)
        grad = bf.flat_gradient()
        norm = clip_gradients(grad, cfg.grad_clip_norm)
    if not np.isfinite(norm):
        raise NumericalError(f"non-finite gradient norm at {where}")
    optimizer_step(params.flat, grad, state, cfg)
    return loss_value


def train(cfg: TrainConfig, mcfg: ModelConfig, train_ds: Dataset,
          val_ds: Dataset) -> tuple[ParameterStore, TrainHistory]:
    """Fit a fresh model, returning the parameters of the epoch with the
    highest validation AUC together with the per-epoch history.

    AUC only ranks: an epoch can reach the best AUC while calling every
    validation gene one class, which leaves ``attend`` an empty class. On
    an AUC tie, an epoch that calls both classes wins over one that does
    not; otherwise the earlier epoch stays.
    """
    _check_dataset("training", train_ds, mcfg)
    _check_dataset("validation", val_ds, mcfg)
    val_labels = val_ds.labels
    if (val_labels == 1).sum() == 0 or (val_labels == -1).sum() == 0:
        raise ContractError("validation set needs both classes for AUC model selection")

    params = init_params(mcfg, cfg.seed)
    state = init_optimizer_state(params.flat, cfg)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])

    x_train, y_train = train_ds.x, train_ds.labels
    n = len(train_ds)

    history: list[EpochStats] = []
    best_epoch = 0
    best = (-np.inf, False)
    best_store = params.copy()

    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_total = 0.0
        for batch_index, lo in enumerate(range(0, n, cfg.batch_size)):
            idx = order[lo:lo + cfg.batch_size]
            loss_value = _step(x_train[idx], y_train[idx], params, state, mcfg, cfg,
                               f"epoch {epoch}, batch {batch_index}")
            loss_total += loss_value * idx.size

        val_probs = predict_probs(val_ds.x, params, mcfg)
        val_auc = auc(ScoredSet(val_probs, val_labels))
        calls_on = int((val_probs > 0.5).sum())
        history.append(EpochStats(epoch, loss_total / n, val_auc, calls_on))
        key = (val_auc, 0 < calls_on < val_probs.size)
        if key > best:
            best = key
            best_epoch = epoch
            best_store = params.copy()
        if epoch >= best_epoch + cfg.patience:
            break

    return best_store, TrainHistory(history, best_epoch)

"""Seeded planted-signal inputs for a benchmark session.

The generator is the benchmark's own: it does not call the program's
``synth_generate``. Positive genes get ``effect`` added to one mark over an
inclusive bin window, on top of folded-normal noise in every cell. Exactly
half the genes are positive, and every positive gene's expression exceeds
every negative gene's, so the program's median split of the (continuous)
expression values gives back the planted classes.

Only the two files reach the program. They are written with the program's
own writers, ``data.save_dataset`` and ``data.save_relevance``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    """Input make-up and the training settings a session uses."""

    n_genes: int
    n_marks: int
    n_bins: int
    lo: int                  # first bin of the planted window (inclusive)
    hi: int                  # last bin of the planted window (inclusive)
    effect: float
    d: int
    d_hm: int
    epochs: int
    batch_size: int
    learning_rate: str       # passed to the program as text, so "" keeps its default

    @property
    def rows(self) -> int:
        return self.n_genes * self.n_bins


# The paper's acceptance config (M=5, T=100, d=32, d_hm=16) on the
# README's planted design. After one epoch the hierarchical model calls
# every gene "off"; after two it usually calls some "on", whose maps
# `attend` asks for.
FULL = Shape(n_genes=2000, n_marks=5, n_bins=100, lo=45, hi=55, effect=3.0,
             d=32, d_hm=16, epochs=2, batch_size=16, learning_rate="")

# Runs every check in seconds. Smaller batches and a larger step size
# make up for the few optimizer steps that 120 genes give.
TINY = Shape(n_genes=120, n_marks=3, n_bins=12, lo=5, hi=7, effect=3.0,
             d=8, d_hm=3, epochs=8, batch_size=4, learning_rate="0.02")


@dataclass
class Planted:
    gene_ids: list[str]
    x: np.ndarray            # (N, M, T) signals
    labels: np.ndarray       # (N,) planted classes, +1 / -1
    expression: np.ndarray   # (N,) continuous expression values
    relevance: np.ndarray    # (M, T) planted indicator


def generate(shape: Shape, seed: int) -> Planted:
    """Draw one session's inputs; the same seed gives the same arrays."""
    rng = np.random.default_rng([seed, 0x5E55])
    n = shape.n_genes
    labels = np.full(n, -1, dtype=np.int64)
    labels[rng.permutation(n)[: n // 2]] = 1
    x = np.abs(rng.normal(0.0, 1.0, size=(n, shape.n_marks, shape.n_bins)))
    window = slice(shape.lo, shape.hi + 1)
    x[labels == 1, 0, window] += shape.effect
    # log-expression: negatives in [0, 2), positives in [3, 5)
    expression = np.exp(rng.uniform(0.0, 2.0, size=n) + 3.0 * (labels == 1))
    relevance = np.zeros((shape.n_marks, shape.n_bins))
    relevance[0, window] = 1.0
    gene_ids = [f"g{i:05d}" for i in range(n)]
    return Planted(gene_ids, x, labels, expression, relevance)


def write(planted: Planted, dataset_path: str, relevance_path: str) -> float:
    """Write both files with the program's writers; returns the seconds
    spent building the program's dataset objects and writing them."""
    from trackattn import data

    start = time.perf_counter()
    n_marks = planted.x.shape[1]
    samples = [data.GeneSample(g, data.SignalMatrix(planted.x[i]),
                               expression_raw=float(planted.expression[i]))
               for i, g in enumerate(planted.gene_ids)]
    dataset = data.Dataset(samples, [f"mark_{j}" for j in range(n_marks)], planted.x.shape[2])
    data.save_dataset(dataset_path, dataset)
    data.save_relevance(relevance_path, planted.relevance)
    return time.perf_counter() - start

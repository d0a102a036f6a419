"""Dataset ingestion, label binarization, splitting and synthesis.

The on-disk dataset format is comma-separated text with header
``gene_id,bin,<mark_1>,...,<mark_M>,expression`` and one row per
(gene, bin) pair. Bins are integers in [0, T); signals are non-negative
reals; the expression value repeats identically on every row of a gene.
Floats are written with shortest round-trip formatting so that a
write-then-read cycle reproduces a dataset bit-exactly.

Synthetic datasets plant an additive effect in one mark over a bin
window for positive samples, on top of folded-Gaussian noise everywhere;
the planted ground truth is exported as a ``mark,bin,relevance`` sidecar.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, IngestionError
from .ioutil import atomic_write_text


@dataclass
class SignalMatrix:
    """Non-negative (n_marks, n_bins) signal values for one gene region."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ContractError(f"signal matrix must be 2-D, got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)) or (self.values < 0).any():
            raise ContractError("signal values must be finite and non-negative")


@dataclass
class GeneSample:
    gene_id: str
    x: SignalMatrix
    label: int | None = None          # -1 / +1 once binarized
    expression_raw: float | None = None

    def __post_init__(self):
        if self.label is not None and self.label not in (-1, 1):
            raise ContractError(f"label must be -1 or +1, got {self.label}")


@dataclass
class Dataset:
    samples: list[GeneSample]
    mark_names: list[str]
    n_bins: int

    def __post_init__(self):
        ids = set()
        for s in self.samples:
            if s.gene_id in ids:
                raise ContractError(f"duplicate gene_id {s.gene_id!r}")
            ids.add(s.gene_id)
            if s.x.values.shape != (len(self.mark_names), self.n_bins):
                raise ContractError(
                    f"gene {s.gene_id!r}: shape {s.x.values.shape} != "
                    f"({len(self.mark_names)}, {self.n_bins})")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def n_marks(self) -> int:
        return len(self.mark_names)

    def signals(self) -> np.ndarray:
        """Stack all samples into a (N, n_marks, n_bins) array."""
        if not self.samples:
            raise ContractError("dataset has no samples")
        return np.stack([s.x.values for s in self.samples])

    def labels(self) -> np.ndarray:
        if any(s.label is None for s in self.samples):
            raise ContractError("labels are unset; binarize first")
        return np.array([s.label for s in self.samples], dtype=np.int64)


def load_dataset(path: str, n_bins: int, arcsinh: bool = False) -> Dataset:
    """Parse a dataset file, requiring exactly n_bins rows per gene.

    Labels are left unset; expression values are captured for later
    binarization. The optional arcsinh flag compresses raw-count signals.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return _parse_dataset(fh, path, n_bins, arcsinh)


def _parse_dataset(fh, path: str, n_bins: int, arcsinh: bool) -> Dataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise IngestionError(f"{path}: no samples (empty file)") from None
    if len(header) < 4 or header[0] != "gene_id" or header[1] != "bin" or header[-1] != "expression":
        raise IngestionError(f"{path}: header must be gene_id,bin,<marks...>,expression", line=1)
    mark_names = header[2:-1]
    n_marks = len(mark_names)

    per_gene: dict[str, dict] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != n_marks + 3:
            raise IngestionError(f"expected {n_marks + 3} fields, got {len(row)}", line=lineno)
        gene_id = row[0]
        try:
            bin_idx = int(row[1])
        except ValueError:
            raise IngestionError(f"non-integer bin {row[1]!r}", line=lineno) from None
        if not 0 <= bin_idx < n_bins:
            raise IngestionError(f"bin {bin_idx} outside [0, {n_bins})", line=lineno)
        try:
            signals = [float(v) for v in row[2:-1]]
            expression = float(row[-1])
        except ValueError:
            raise IngestionError(f"non-numeric value in {row[2:]!r}", line=lineno) from None
        if any(not np.isfinite(v) or v < 0 for v in signals):
            raise IngestionError("negative or non-finite signal", line=lineno)
        if not np.isfinite(expression):
            raise IngestionError("non-finite expression", line=lineno)

        entry = per_gene.setdefault(
            gene_id, {"values": np.zeros((n_marks, n_bins)), "seen": {}, "expr": expression,
                      "first_line": lineno})
        if bin_idx in entry["seen"]:
            raise IngestionError(
                f"duplicate (gene, bin) pair ({gene_id!r}, {bin_idx}); "
                f"first at line {entry['seen'][bin_idx]}", line=lineno)
        if expression != entry["expr"]:
            raise IngestionError(
                f"inconsistent expression for gene {gene_id!r}: "
                f"{expression!r} vs {entry['expr']!r}", line=lineno)
        entry["seen"][bin_idx] = lineno
        entry["values"][:, bin_idx] = signals

    if not per_gene:
        raise IngestionError(f"{path}: no samples")

    samples = []
    for gene_id, entry in per_gene.items():
        if len(entry["seen"]) != n_bins:
            missing = sorted(set(range(n_bins)) - set(entry["seen"]))
            raise IngestionError(
                f"gene {gene_id!r} is missing bins {missing[:5]}"
                f"{'...' if len(missing) > 5 else ''}", line=entry["first_line"])
        values = np.arcsinh(entry["values"]) if arcsinh else entry["values"]
        samples.append(GeneSample(gene_id, SignalMatrix(values), expression_raw=entry["expr"]))
    return Dataset(samples, mark_names, n_bins)


def _fmt(v: float) -> str:
    return repr(float(v))


def dataset_to_csv(dataset: Dataset) -> str:
    out = io.StringIO()
    out.write("gene_id,bin," + ",".join(dataset.mark_names) + ",expression\n")
    for s in dataset.samples:
        if s.expression_raw is None:
            raise ContractError(f"gene {s.gene_id!r} has no expression value to write")
        expr = _fmt(s.expression_raw)
        for b in range(dataset.n_bins):
            cells = ",".join(_fmt(v) for v in s.x.values[:, b])
            out.write(f"{s.gene_id},{b},{cells},{expr}\n")
    return out.getvalue()


def save_dataset(path: str, dataset: Dataset) -> None:
    atomic_write_text(path, dataset_to_csv(dataset))


def binarize_labels(dataset: Dataset) -> Dataset:
    """Label +1 where expression exceeds the median, else -1.

    The median of an even count is the lower middle value, and values
    equal to the median get -1, so the rule is deterministic.
    """
    exprs = []
    for s in dataset.samples:
        if s.expression_raw is None:
            raise ContractError(f"gene {s.gene_id!r} has no expression value")
        exprs.append(s.expression_raw)
    median = sorted(exprs)[(len(exprs) - 1) // 2]
    samples = [replace(s, label=(1 if s.expression_raw > median else -1))
               for s in dataset.samples]
    return Dataset(samples, dataset.mark_names, dataset.n_bins)


def split(dataset: Dataset, fractions, seed: int) -> tuple[Dataset, ...]:
    """Deterministically shuffle and partition; fractions must sum to one.

    Sizes are the floors of n*f with the remainder distributed one sample
    at a time starting from the first partition.
    """
    fractions = [float(f) for f in fractions]
    if any(f <= 0 for f in fractions):
        raise ContractError("all split fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ContractError(f"fractions sum to {sum(fractions)!r}, expected 1")
    n = len(dataset)
    sizes = [int(n * f) for f in fractions]
    for i in range(n - sum(sizes)):
        sizes[i % len(sizes)] += 1

    order = np.random.default_rng(seed).permutation(n)
    parts = []
    offset = 0
    for size in sizes:
        idx = order[offset:offset + size]
        parts.append(Dataset([dataset.samples[i] for i in idx], dataset.mark_names, dataset.n_bins))
        offset += size
    return tuple(parts)


@dataclass
class SynthSpec:
    """Generator settings for a planted-signal dataset.

    The informative window is the inclusive bin range [informative_lo,
    informative_hi] of one mark; positive samples get ``effect`` added
    there on top of |Normal(0, noise_scale)| noise shared by every cell.
    """

    n_genes: int
    n_marks: int = 5
    n_bins: int = 100
    informative_mark: int = 0
    informative_lo: int = 45
    informative_hi: int = 55
    effect: float = 3.0
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_genes < 1 or self.n_marks < 1 or self.n_bins < 1:
            raise ContractError("n_genes, n_marks and n_bins must be >= 1")
        if not 0 <= self.informative_mark < self.n_marks:
            raise ContractError(f"informative_mark {self.informative_mark} outside [0, {self.n_marks})")
        if not 0 <= self.informative_lo <= self.informative_hi < self.n_bins:
            raise ContractError(
                f"informative bin range [{self.informative_lo}, {self.informative_hi}] "
                f"not within [0, {self.n_bins})")
        if self.effect < 0 or self.noise_scale < 0:
            raise ContractError("effect and noise_scale must be non-negative")


def synth_generate(spec: SynthSpec) -> tuple[Dataset, np.ndarray]:
    """Generate a labeled dataset plus its (n_marks, n_bins) ground-truth
    relevance indicator. Deterministic under spec.seed.

    Expression is continuous, uniform on [1, 2) for planted positives and
    [0, 1) for negatives, so the median split of ``binarize_labels`` always
    yields both classes and ranks every positive above every negative. It
    comes from a stream of its own, leaving signals and labels unchanged.
    """
    rng = np.random.default_rng(spec.seed)
    labels = np.where(rng.random(spec.n_genes) < 0.5, 1, -1)
    noise = np.abs(rng.normal(0.0, spec.noise_scale, size=(spec.n_genes, spec.n_marks, spec.n_bins)))
    lo, hi = spec.informative_lo, spec.informative_hi + 1
    noise[labels == 1, spec.informative_mark, lo:hi] += spec.effect
    expression = np.random.default_rng([spec.seed, 1]).random(spec.n_genes) + (labels == 1)

    width = max(5, len(str(spec.n_genes - 1)))
    samples = [
        GeneSample(f"g{i:0{width}d}", SignalMatrix(noise[i]),
                   label=int(labels[i]), expression_raw=float(expression[i]))
        for i in range(spec.n_genes)
    ]
    relevance = np.zeros((spec.n_marks, spec.n_bins))
    relevance[spec.informative_mark, lo:hi] = 1.0
    mark_names = [f"mark_{j}" for j in range(spec.n_marks)]
    return Dataset(samples, mark_names, spec.n_bins), relevance


def restrict_marks(dataset: Dataset, mark_indices) -> Dataset:
    """Keep (and reorder to) the given mark rows of every sample."""
    idx = [int(i) for i in mark_indices]
    if not idx:
        raise ContractError("mark_indices must be non-empty")
    if len(set(idx)) != len(idx):
        raise ContractError(f"mark_indices contain duplicates: {idx}")
    if any(not 0 <= i < dataset.n_marks for i in idx):
        raise ContractError(f"mark index outside [0, {dataset.n_marks}): {idx}")
    samples = [replace(s, x=SignalMatrix(s.x.values[idx])) for s in dataset.samples]
    return Dataset(samples, [dataset.mark_names[i] for i in idx], dataset.n_bins)


def relevance_to_csv(relevance: np.ndarray) -> str:
    out = io.StringIO()
    out.write("mark,bin,relevance\n")
    for m in range(relevance.shape[0]):
        for b in range(relevance.shape[1]):
            out.write(f"{m},{b},{_fmt(relevance[m, b])}\n")
    return out.getvalue()


def save_relevance(path: str, relevance: np.ndarray) -> None:
    atomic_write_text(path, relevance_to_csv(relevance))


def load_relevance(path: str) -> np.ndarray:
    """Read a mark,bin,relevance sidecar back into a dense matrix."""
    entries = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["mark", "bin", "relevance"]:
            raise IngestionError(f"{path}: expected header mark,bin,relevance", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                entries[(int(row[0]), int(row[1]))] = float(row[2])
            except (ValueError, IndexError):
                raise IngestionError(f"malformed relevance row {row!r}", line=lineno) from None
    if not entries:
        raise IngestionError(f"{path}: no relevance entries")
    n_m = max(k[0] for k in entries) + 1
    n_b = max(k[1] for k in entries) + 1
    rel = np.zeros((n_m, n_b))
    for (m, b), v in entries.items():
        rel[m, b] = v
    return rel

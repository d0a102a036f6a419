"""Dataset ingestion, label binarization, splitting and synthesis.

The on-disk dataset format is comma-separated text with header
``gene_id,bin,<mark_1>,...,<mark_M>,expression`` and one row per
(gene, bin) pair. Bins are integers in [0, T); signals are non-negative
reals; the expression value repeats identically on every row of a gene.
Floats are written with shortest round-trip formatting so that a
write-then-read cycle reproduces a dataset bit-exactly. Ingest reads a
block of lines at a time into numpy columns and checks each block as a
whole. Plain blocks (no quote, CR or NUL, numbers in ASCII) go through
numpy's C reader, which reads them exactly as ``int()`` and ``float()``
would; from the first block that is not plain to the end of the file,
the ``csv`` module tokenises and ``int()``/``float()`` convert. Both
give the same dataset and the same errors. ``mark,bin,<value>`` maps
(relevance sidecars, attention and saliency maps) and ``mark,<value>``
per-mark tables (beta, correlations) share one writer; the maps share
one reader.

Synthetic datasets plant an additive effect in one mark over a bin
window for positive samples, on top of folded-Gaussian noise everywhere;
the planted ground truth is exported as a ``mark,bin,relevance`` sidecar.
"""

from __future__ import annotations

import csv
import os
import warnings
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import ContractError, IngestionError
from .ioutil import atomic_write_chunks, atomic_write_text


# Input records: perfbench/inputs.py::write builds its datasets from them
# through ``Dataset(samples, mark_names, n_bins)``, which packs them into
# arrays once. Package code builds datasets with ``Dataset.from_arrays``.

@dataclass
class SignalMatrix:
    values: np.ndarray                  # (n_marks, n_bins)


@dataclass
class GeneSample:
    gene_id: str
    x: SignalMatrix
    expression_raw: float | None = None


class Dataset:
    """N genes as arrays: ``x`` (N, n_marks, n_bins) finite non-negative
    signals, ``gene_ids`` (N unique names), ``mark_names``, raw
    ``expression`` (N,) or None, and ``labels`` (N,) of -1/+1, None until
    binarized. Datasets are not modified in place; the operations below
    return new ones, which may share arrays with their input."""

    def __init__(self, samples: list[GeneSample], mark_names: list[str], n_bins: int):
        x = np.zeros((len(samples), len(mark_names), n_bins))
        for i, s in enumerate(samples):
            if np.shape(s.x.values) != x.shape[1:]:
                raise ContractError(
                    f"gene {s.gene_id!r}: shape {np.shape(s.x.values)} != {x.shape[1:]}")
            x[i] = s.x.values
        expression = [s.expression_raw for s in samples]
        self._init([s.gene_id for s in samples], x, mark_names,
                   None if None in expression else expression, None)

    @classmethod
    def from_arrays(cls, gene_ids, x: np.ndarray, mark_names, expression=None,
                    labels=None) -> "Dataset":
        ds = cls.__new__(cls)
        ds._init(gene_ids, x, mark_names, expression, labels)
        return ds

    def _init(self, gene_ids, x, mark_names, expression, labels) -> None:
        self.gene_ids = list(gene_ids)
        self.x = np.asarray(x, dtype=np.float64)
        self.mark_names = list(mark_names)
        if self.x.ndim != 3 or self.x.shape[:2] != (len(self.gene_ids), len(self.mark_names)):
            raise ContractError(f"signals of shape {self.x.shape} do not match "
                                f"{len(self.gene_ids)} genes by {len(self.mark_names)} marks")
        if not np.isfinite(self.x).all() or (self.x < 0).any():
            raise ContractError("signal values must be finite and non-negative")
        seen = set()
        for gene_id in self.gene_ids:
            if gene_id in seen:
                raise ContractError(f"duplicate gene_id {gene_id!r}")
            seen.add(gene_id)
        n = len(self.gene_ids)
        self.expression = None if expression is None else np.asarray(expression, dtype=np.float64)
        self.labels = None if labels is None else np.asarray(labels, dtype=np.int64)
        for name, column in (("expression", self.expression), ("labels", self.labels)):
            if column is not None and column.shape != (n,):
                raise ContractError(f"{name} of shape {column.shape} does not match {n} genes")
        if self.labels is not None and not np.isin(self.labels, (-1, 1)).all():
            raise ContractError("labels must be -1 or +1")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def n_marks(self) -> int:
        return self.x.shape[1]

    @property
    def n_bins(self) -> int:
        return self.x.shape[2]


def load_dataset(path: str, n_bins: int, arcsinh: bool = False) -> Dataset:
    """Parse a dataset file, requiring exactly n_bins rows per gene.

    Labels are left unset; expression values are captured for later
    binarization. The optional arcsinh flag compresses raw-count signals.
    A malformed file raises IngestionError citing its first bad line.
    """
    with _csv_text(path) as fh:
        return _parse_dataset(fh, path, n_bins, arcsinh, os.fstat(fh.fileno()).st_size)


@contextmanager
def _csv_text(path: str):
    """Open a csv input file; text that is not UTF-8 and records the csv
    module refuses (a field over its size limit) raise IngestionError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError as err:
            raise IngestionError(f"{path}: not UTF-8 text ({err.reason})") from None
        except csv.Error as err:
            raise IngestionError(f"{path}: malformed CSV record ({err})") from None


# Lines (csv records, once the csv module reads) are parsed this many at
# a time: enough to amortise each vectorised pass, few enough that a
# block's cells stay small.
_BLOCK_ROWS = 8192

# The row checks, in the order a row reports them: a file fails at its
# first bad row, and that row with the first of these it fails.
_FIELDS, _BIN_TEXT, _BIN_RANGE, _NUMBER, _SIGNAL, _EXPRESSION, _DUPLICATE, _MISMATCH = range(1, 9)


def _parse_dataset(fh, path: str, n_bins: int, arcsinh: bool, n_bytes: int) -> Dataset:
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise IngestionError(f"{path}: no samples (empty file)") from None
    if len(header) < 4 or header[0] != "gene_id" or header[1] != "bin" or header[-1] != "expression":
        raise IngestionError(f"{path}: header must be gene_id,bin,<marks...>,expression", line=1)
    mark_names = header[2:-1]

    # A valid file holds n_bins records per gene, each of at least M + 2
    # one-character numeric fields and M + 2 separators: that bounds the
    # genes the table may make room for. (Below one bin, every bin is out
    # of range.)
    record = 2 * (len(mark_names) + 2)
    table = _GeneTable(len(mark_names), n_bins, n_bytes // (record * max(n_bins, 1)))
    lineno = 2
    # plain blocks go through numpy's reader until the first that is not
    # plain; from there to the end, the csv module reads the file
    dtype = np.dtype([("bin", np.int64), ("signals", np.float64, (len(mark_names),)),
                      ("expression", np.float64)])
    while (lines := list(islice(fh, _BLOCK_ROWS))) and (block := _plain_block(lines, dtype)):
        table.add(block, lineno)
        lineno += len(lines)
    for rows in _csv_blocks(csv.reader(chain(lines, fh))):
        table.add(_csv_block(rows, len(mark_names)), lineno)
        lineno += len(rows)
    return table.dataset(path, mark_names, arcsinh)


def _csv_blocks(reader):
    """The reader's records, ``_BLOCK_ROWS`` at a time. A record the csv
    module refuses ends its block, and raises once the rows before it
    are checked: a file fails at its first bad line either way."""
    rows = []
    try:
        for row in reader:
            rows.append(row)
            if len(rows) == _BLOCK_ROWS:
                yield rows
                rows = []
    except csv.Error:
        yield rows
        raise
    if rows:
        yield rows


@dataclass
class _Block:
    """One block of lines as columns, for :meth:`_GeneTable.add`.

    ``whole`` gives the block index of each record to check: the
    non-blank lines before ``fields_at``, the first line of a wrong field
    count (None when there is none). ``bin_text`` and ``number_bad`` mask
    the records whose bin ``int()`` refuses and those holding a value
    ``float()`` refuses; their values are placeholders. ``row(j)`` gives
    the csv fields of the block's line j, for error messages.
    """

    row: Callable[[int], list[str]]
    whole: np.ndarray
    genes: list[str]
    bins: np.ndarray            # (n,) int64
    signals: np.ndarray         # (n, n_marks)
    expression: np.ndarray      # (n,)
    bin_text: np.ndarray        # (n,) bool
    number_bad: np.ndarray      # (n,) bool
    fields_at: int | None = None


# A block holding one of these is not plain: csv records and lines part
# at a quote or a CR, Python versions part at a NUL, and numpy's reader
# skips the separators 0x1c-0x1f as blanks where int() and float() refuse
# them.
_NOT_PLAIN = '"\r\0\x1c\x1d\x1e\x1f'


def _plain_block(lines: list[str], dtype: np.dtype) -> _Block | None:
    """The block read by numpy's C reader, or None unless every line is a
    plain record that it reads exactly as ``int()`` and ``float()`` would.

    In a plain block each line is one csv record: no line holds a quote,
    CR or NUL, or outgrows the csv field limit. The gene id is the text
    before the first comma; the rest must be ASCII, on which numpy's
    reader accepts a strict subset of what ``int()`` and ``float()``
    accept and gives the same values. It must also hold exactly the
    columns of ``dtype``, each readable, and raise no warning: older
    numpy reads ``5.0`` into an int column with a DeprecationWarning,
    and a block whose lines hold no numbers gets a UserWarning.
    """
    text = "".join(lines)
    if any(c in text for c in _NOT_PLAIN) or max(map(len, lines)) > csv.field_size_limit():
        return None
    whole = np.arange(len(lines))
    if text.startswith("\n") or "\n\n" in text:
        whole = np.flatnonzero([line != "\n" for line in lines])
    parts = [line.partition(",") for line in lines if line != "\n"]
    numeric = [p[2] for p in parts]
    if not (text.isascii() or "".join(numeric).isascii()):
        return None
    if not numeric:     # blank lines only: loadtxt would warn of no data
        columns = np.zeros(0, dtype)
    else:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                columns = np.loadtxt(numeric, dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
        if len(columns) != len(numeric):    # loadtxt skipped a line with no numbers
            return None
    refused = np.zeros(len(numeric), bool)    # numpy refused no cell
    return _Block(lambda j: next(csv.reader([lines[j]])), whole, [p[0] for p in parts],
                  columns["bin"], np.ascontiguousarray(columns["signals"]),
                  columns["expression"], refused, refused)


def _csv_block(rows: list[list[str]], n_marks: int) -> _Block:
    """A block of csv records, converted by ``int()`` and ``float()``."""
    widths = np.fromiter(map(len, rows), np.intp, len(rows))
    wrong = np.flatnonzero((widths != 0) & (widths != n_marks + 3))
    fields_at = int(wrong[0]) if wrong.size else None
    whole = np.flatnonzero(widths[:fields_at])
    cells = np.array([rows[j] for j in whole], dtype=object).reshape(whole.size, n_marks + 3)
    bins, bin_text = _ints(cells[:, 1])
    numbers, number_bad = _floats(cells[:, 2:])
    return _Block(rows.__getitem__, whole, cells[:, 0].tolist(), bins, numbers[:, :-1],
                  numbers[:, -1], bin_text, number_bad, fields_at)


class _GeneTable:
    """Columnar accumulator for dataset records, one block at a time.

    Both readers feed it the same :class:`_Block` columns, and it runs
    every row check on them. Genes are numbered in order of first
    appearance, and the cell of (gene, bin) is keyed ``gene * n_bins +
    bin``. ``key_line`` holds the line that filled each key (0 while
    unfilled), so duplicate and missing bins are array lookups. Checked
    blocks are kept as (keys, signals) columns and scattered into one
    (N, n_marks, n_bins) array at the end. A block
    naming more than ``max_genes`` genes fails before any room is made
    for them.
    """

    def __init__(self, n_marks: int, n_bins: int, max_genes: int):
        self.n_marks, self.n_bins, self.max_genes = n_marks, n_bins, max_genes
        self.index: dict[str, int] = {}
        self.expr = np.zeros(0)                     # per gene: expression of its first row
        self.gene_line = np.zeros(0, np.int64)     # per gene: line of its first row
        self.key_line = np.zeros(0, np.int64)
        self.blocks: list[tuple[np.ndarray, np.ndarray]] = []

    def add(self, block: _Block, first_line: int) -> None:
        """Check and keep one block, its line 0 on ``first_line``. Raises
        at the block's first bad row."""
        lines = first_line + block.whole
        n_known = len(self.index)
        for gene_id in dict.fromkeys(block.genes):
            self.index.setdefault(gene_id, len(self.index))
        gene = np.fromiter(map(self.index.__getitem__, block.genes), np.int64, len(block.genes))
        bins, signals, expression = block.bins, block.signals, block.expression

        self._reserve(len(self.index))
        ids, first = np.unique(gene, return_index=True)
        new = ids >= n_known
        self.expr[ids[new]] = expression[first[new]]
        self.gene_line[ids[new]] = lines[first[new]]

        # np.select takes the first true condition, so placeholder values
        # of rejected cells never reach a later check
        codes = np.select([
            block.bin_text,
            (bins < 0) | (bins >= self.n_bins),
            block.number_bad,
            (~np.isfinite(signals) | (signals < 0)).any(axis=1),
            ~np.isfinite(expression),
        ], [_BIN_TEXT, _BIN_RANGE, _NUMBER, _SIGNAL, _EXPRESSION], 0)
        ok = codes == 0
        keys = gene[ok] * self.n_bins + bins[ok]
        _, key_first, key_inverse = np.unique(keys, return_index=True, return_inverse=True)
        earlier = self.key_line[keys]
        seen_at = np.zeros_like(lines)
        seen_at[ok] = np.where(earlier > 0, earlier, lines[ok][key_first[key_inverse]])
        duplicate = seen_at[ok] != lines[ok]
        mismatch = ~duplicate & (expression[ok] != self.expr[gene[ok]])
        codes[ok] = np.select([duplicate, mismatch], [_DUPLICATE, _MISMATCH], 0)

        bad = np.flatnonzero(codes)
        if bad.size:
            i = int(bad[0])
            j = int(block.whole[i])
            raise self._row_error(int(codes[i]), block.row(j), first_line + j,
                                  int(seen_at[i]), float(self.expr[gene[i]]))
        if block.fields_at is not None:
            j = block.fields_at
            raise self._row_error(_FIELDS, block.row(j), first_line + j)
        self.key_line[keys] = lines
        self.blocks.append((keys, signals))

    def _reserve(self, n_genes: int) -> None:
        if n_genes <= self.expr.size:
            return
        if n_genes > self.max_genes:
            raise IngestionError(f"n_bins = {self.n_bins} does not fit the file: it has room "
                                 f"for {self.max_genes} genes of n_bins records, "
                                 f"and names at least {n_genes}")
        cap = min(max(n_genes, 2 * self.expr.size), self.max_genes)
        self.expr = _grown(self.expr, cap)
        self.gene_line = _grown(self.gene_line, cap)
        # no keys below one bin: there every bin fails its range check
        self.key_line = _grown(self.key_line, cap * max(self.n_bins, 0))

    def _row_error(self, code: int, row: list[str], line: int, seen_at: int = 0,
                   first_expr: float = 0.0) -> IngestionError:
        """The error for a row failing check ``code``; a duplicate cites
        ``seen_at``, a mismatch the gene's ``first_expr``."""
        if code == _FIELDS:
            message = f"expected {self.n_marks + 3} fields, got {len(row)}"
        elif code == _BIN_TEXT:
            message = f"non-integer bin {row[1]!r}"
        elif code == _BIN_RANGE:
            message = f"bin {int(row[1])} outside [0, {self.n_bins})"
        elif code == _NUMBER:
            message = f"non-numeric value in {row[2:]!r}"
        elif code == _SIGNAL:
            message = "negative or non-finite signal"
        elif code == _EXPRESSION:
            message = "non-finite expression"
        elif code == _DUPLICATE:
            message = (f"duplicate (gene, bin) pair ({row[0]!r}, {int(row[1])}); "
                       f"first at line {seen_at}")
        else:
            message = (f"inconsistent expression for gene {row[0]!r}: "
                       f"{float(row[-1])!r} vs {first_expr!r}")
        return IngestionError(message, line=line)

    def dataset(self, path: str, mark_names: list[str], arcsinh: bool) -> Dataset:
        n, n_bins = len(self.index), self.n_bins
        if not n:
            raise IngestionError(f"{path}: no samples")
        filled = self.key_line[:n * n_bins].reshape(n, n_bins) > 0
        incomplete = np.flatnonzero(~filled.all(axis=1))
        if incomplete.size:
            g = incomplete[0]
            missing = np.flatnonzero(~filled[g]).tolist()
            raise IngestionError(
                f"gene {list(self.index)[g]!r} is missing bins {missing[:5]}"
                f"{'...' if len(missing) > 5 else ''}", line=int(self.gene_line[g]))

        values = np.empty((n, self.n_marks, n_bins))
        for keys, signals in self.blocks:
            values[keys // n_bins, :, keys % n_bins] = signals
        self.blocks = []
        if arcsinh:
            np.arcsinh(values, out=values)
        return Dataset.from_arrays(self.index, values, mark_names, self.expr[:n])


def _grown(a: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros(size, a.dtype)
    out[:a.size] = a
    return out


def _parsed(convert, text: str):
    try:
        return convert(text)
    except ValueError:
        return None


def _ints(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``int()`` of each cell, and the mask of cells it rejects (read as
    -1). A value too wide for int64 also reads as -1, outside every range."""
    try:
        return cells.astype(np.int64), np.zeros(cells.size, bool)
    except (ValueError, OverflowError):
        parsed = [_parsed(int, text) for text in cells]
        rejected = np.array([v is None for v in parsed], bool)
        fits = [v if v is not None and 0 <= v < 2**62 else -1 for v in parsed]
        return np.array(fits, np.int64), rejected


def _floats(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``float()`` of each cell of a 2-D block (the object-to-float64 cast
    calls it per cell), and the mask of rows holding a cell it rejects,
    whose values read as NaN."""
    try:
        return cells.astype(np.float64), np.zeros(len(cells), bool)
    except ValueError:
        parsed = [_parsed(float, text) for text in cells.ravel()]
        values = np.array([np.nan if v is None else v for v in parsed]).reshape(cells.shape)
        rejected = np.array([v is None for v in parsed], bool).reshape(cells.shape)
        return values, rejected.any(axis=1)


def _fmt(v: float) -> str:
    return repr(float(v))


def dataset_to_csv(dataset: Dataset) -> str:
    """The dataset in the file format that :func:`load_dataset` reads back
    bit for bit. Names are written unquoted, so a gene id or mark name
    holding a comma, a double quote or a line break raises ContractError."""
    return "".join(_csv_chunks(dataset))


def _csv_chunks(dataset: Dataset):
    """The text of :func:`dataset_to_csv`: the header, then one chunk per gene."""
    for name in [*dataset.mark_names, *dataset.gene_ids]:
        if any(c in name for c in ',"\r\n'):
            raise ContractError(f"name {name!r} holds a comma, quote or line break, "
                                "which the dataset format cannot write")
    if dataset.expression is None:
        raise ContractError("dataset has no expression values to write")
    yield "gene_id,bin," + ",".join(dataset.mark_names) + ",expression\n"
    for gene_id, expr, x in zip(dataset.gene_ids, dataset.expression.tolist(), dataset.x):
        expr = _fmt(expr)
        yield "".join(f"{gene_id},{b},{','.join(map(_fmt, cells))},{expr}\n"
                      for b, cells in enumerate(x.T.tolist()))


def save_dataset(path: str, dataset: Dataset) -> None:
    # a gene at a time: the whole text is several times the size of ``x``
    atomic_write_chunks(path, (chunk.encode("utf-8") for chunk in _csv_chunks(dataset)))


def binarize_labels(dataset: Dataset) -> Dataset:
    """Label +1 where expression exceeds the median, else -1.

    The median of an even count is the lower middle value, and values
    equal to the median get -1, so the rule is deterministic.
    """
    expression = dataset.expression
    if expression is None:
        raise ContractError("dataset has no expression values")
    median = np.sort(expression)[(len(expression) - 1) // 2]
    return Dataset.from_arrays(dataset.gene_ids, dataset.x, dataset.mark_names, expression,
                               np.where(expression > median, 1, -1))


def split(dataset: Dataset, fractions, seed: int) -> tuple[Dataset, ...]:
    """Deterministically shuffle and partition; fractions must be finite,
    positive and sum to one.

    Sizes are the floors of n*f with the remainder distributed one sample
    at a time starting from the first partition.
    """
    fractions = [float(f) for f in fractions]
    if not all(np.isfinite(f) and f > 0 for f in fractions):
        raise ContractError(f"split fractions {fractions} must all be finite and positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ContractError(f"fractions sum to {sum(fractions)!r}, expected 1")
    n = len(dataset)
    sizes = [int(n * f) for f in fractions]
    for i in range(n - sum(sizes)):
        sizes[i % len(sizes)] += 1

    order = np.random.default_rng(seed).permutation(n)
    bounds = np.cumsum([0, *sizes])
    return tuple(_take(dataset, order[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]))


def _take(dataset: Dataset, idx: np.ndarray) -> Dataset:
    """The genes at rows ``idx``, in that order."""
    def rows(column):
        return None if column is None else column[idx]
    return Dataset.from_arrays([dataset.gene_ids[i] for i in idx], dataset.x[idx],
                               dataset.mark_names, rows(dataset.expression), rows(dataset.labels))


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
    gene_ids = [f"g{i:0{width}d}" for i in range(spec.n_genes)]
    relevance = np.zeros((spec.n_marks, spec.n_bins))
    relevance[spec.informative_mark, lo:hi] = 1.0
    mark_names = [f"mark_{j}" for j in range(spec.n_marks)]
    return Dataset.from_arrays(gene_ids, noise, mark_names, expression, labels), relevance


def restrict_marks(dataset: Dataset, mark_indices) -> Dataset:
    """Keep (and reorder to) the given mark rows of every gene."""
    idx = [int(i) for i in mark_indices]
    if not idx:
        raise ContractError("mark_indices must be non-empty")
    if len(set(idx)) != len(idx):
        raise ContractError(f"mark_indices contain duplicates: {idx}")
    if any(not 0 <= i < dataset.n_marks for i in idx):
        raise ContractError(f"mark index outside [0, {dataset.n_marks}): {idx}")
    return Dataset.from_arrays(dataset.gene_ids, dataset.x[:, idx],
                               [dataset.mark_names[i] for i in idx], dataset.expression,
                               dataset.labels)


def map_to_csv(values: np.ndarray, column: str) -> str:
    """A (marks,) vector as a ``mark,<column>`` table, or a (marks, bins)
    map as a ``mark,bin,<column>`` table, one row per cell."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (1, 2):
        raise ContractError(f"a map table holds a (marks,) or (marks, bins) array, "
                            f"not shape {values.shape}")
    head = "mark" if values.ndim == 1 else "mark,bin"
    return f"{head},{column}\n" + "".join(
        f"{','.join(map(str, cell))},{_fmt(v)}\n" for cell, v in np.ndenumerate(values))


def read_map_csv(path: str, column: str | None = None,
                 shape: tuple[int, int] | None = None) -> np.ndarray:
    """Read a ``mark,bin,<column>`` table (any value column when ``column``
    is None) into a dense (marks, bins) matrix; cells it leaves out read
    as 0. A malformed row, a negative index, a cell outside ``shape``
    (when given), a repeated cell or a non-finite value raises
    IngestionError citing its line, before the matrix is allocated."""
    cells: dict[tuple[int, int], float] = {}
    lines: dict[tuple[int, int], int] = {}
    with _csv_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if (header is None or len(header) != 3 or header[:2] != ["mark", "bin"]
                or column not in (None, header[2])):
            raise IngestionError(f"{path}: expected header mark,bin,{column or '<value>'}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise IngestionError(f"expected 3 fields, got {len(row)}", line=lineno)
            try:
                m, b, value = int(row[0]), int(row[1]), float(row[2])
            except ValueError:
                raise IngestionError(f"malformed {header[2]} row {row!r}", line=lineno) from None
            if m < 0 or b < 0:
                raise IngestionError(f"negative mark or bin in {row!r}", line=lineno)
            if not np.isfinite(value):
                raise IngestionError(f"non-finite {header[2]} {row[2]!r}", line=lineno)
            if shape is not None and (m >= shape[0] or b >= shape[1]):
                raise IngestionError(f"cell ({m}, {b}) outside the {shape[0]} marks by "
                                     f"{shape[1]} bins of the dataset", line=lineno)
            if (m, b) in cells:
                raise IngestionError(f"duplicate cell ({m}, {b}); first at line {lines[m, b]}",
                                     line=lineno)
            cells[m, b], lines[m, b] = value, lineno
    if not cells:
        raise IngestionError(f"{path}: no {header[2]} entries")
    out = np.zeros((max(m for m, _ in cells) + 1, max(b for _, b in cells) + 1))
    for (m, b), value in cells.items():
        out[m, b] = value
    return out


def save_relevance(path: str, relevance: np.ndarray) -> None:
    atomic_write_text(path, map_to_csv(relevance, "relevance"))


def load_relevance(path: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Read a mark,bin,relevance sidecar back into a dense matrix, no
    larger than ``shape`` when given."""
    return read_map_csv(path, "relevance", shape)

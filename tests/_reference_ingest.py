"""Row-at-a-time dataset parser: the oracle for ``data.load_dataset``.

This is the straight-line reading of the dataset format, one csv record
and one ``int``/``float`` call per cell, checks in the documented order.
The columnar parser in ``trackattn.data`` must return a bit-identical
``Dataset`` or raise the same ``IngestionError`` (message and line) on
every input this one accepts or rejects.
"""

from __future__ import annotations

import csv

import numpy as np

from trackattn.data import Dataset
from trackattn.errors import IngestionError


def load_dataset(path: str, n_bins: int, arcsinh: bool = False) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            return _parse_dataset(fh, path, n_bins, arcsinh)
        except csv.Error as err:    # a record the csv module refuses, at its turn
            raise IngestionError(f"{path}: malformed CSV record ({err})") from None


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

    xs = []
    for gene_id, entry in per_gene.items():
        if len(entry["seen"]) != n_bins:
            missing = sorted(set(range(n_bins)) - set(entry["seen"]))
            raise IngestionError(
                f"gene {gene_id!r} is missing bins {missing[:5]}"
                f"{'...' if len(missing) > 5 else ''}", line=entry["first_line"])
        xs.append(np.arcsinh(entry["values"]) if arcsinh else entry["values"])
    return Dataset.from_arrays(list(per_gene), np.stack(xs), mark_names,
                               [entry["expr"] for entry in per_gene.values()])

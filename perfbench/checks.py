"""Checks of every output a session's commands write.

Each check compares a file the program wrote against ``reference`` (the
benchmark's own recomputation) or against a property the method
guarantees. A failed check raises ``CheckFailed`` naming the check.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

import reference as ref

TOL = 1e-9
SALIENCY_RTOL = 1e-5
# Planted-signal floors: a model that learned the planted window clears
# both by a wide margin after the session's epochs.
VAL_AUC_FLOOR = 0.9
CORRELATION_FLOOR = 0.5


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"check {check} failed: {detail}")
        self.check = check


def _require(ok: bool, check: str, detail: str) -> None:
    if not ok:
        raise CheckFailed(check, detail)


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    return rows[0], rows[1:]


def _read_map(path: str, shape: tuple[int, int]) -> np.ndarray:
    _, rows = _read_rows(path)
    out = np.full(shape, np.nan)
    for m, b, v in rows:
        out[int(m), int(b)] = float(v)
    return out


class SessionReference:
    """The reference's view of one trained session, computed once after
    ``train`` and reused for every later output of the session."""

    def __init__(self, planted, shape, checkpoint: str, seed: int):
        self.shape = shape
        self.config, self.blocks = ref.read_checkpoint(checkpoint)
        test = ref.split_indices(len(planted.labels))[2]
        self.x = planted.x[test]
        self.labels = planted.labels[test]
        self.relevance = planted.relevance
        out = ref.forward(self.x, self.config, self.blocks)
        self.scores = out["probs"][1]
        on = out["probs"][1] > out["probs"][0]
        # `attend` asks for the maps of class "on", as the README does. When
        # the kept epoch predicts every gene "off" (validation AUC can reach
        # 1.0 after epoch 1, and a later epoch must beat it to be kept),
        # "on" is an empty class, so the session asks for "off" instead.
        self.predicted_class = "on" if on.any() else "off"
        kept = on if on.any() else ~on
        self.alpha = out["alpha"][:, :, kept].mean(axis=2)
        self.beta = None if out["beta"] is None else out["beta"][:, kept].mean(axis=1)
        rng = np.random.default_rng([seed, 0xC0DE])
        self.cells = [(0, (shape.lo + shape.hi) // 2)] + [
            (int(rng.integers(shape.n_marks)), int(rng.integers(shape.n_bins))) for _ in range(3)]
        self.saliency = ref.saliency_by_differences(self.x[kept], self.config, self.blocks,
                                                    self.cells)


def check_train(out_dir: str, shape, variant: str) -> None:
    header, rows = _read_rows(os.path.join(out_dir, "history.csv"))
    _require(header == ["epoch", "train_loss", "val_auc"], "train.history_header", str(header))
    _require(len(rows) == shape.epochs, "train.epochs",
             f"{len(rows)} epochs in history.csv, expected {shape.epochs}")
    best = max(float(r[2]) for r in rows)
    _require(best >= VAL_AUC_FLOOR, "train.val_auc_floor",
             f"best validation AUC {best:.4f} < {VAL_AUC_FLOOR}")
    config, blocks = ref.read_checkpoint(os.path.join(out_dir, "checkpoint.ckpt"))
    want = {"n_marks": shape.n_marks, "n_bins": shape.n_bins, "d": shape.d,
            "d_hm": shape.d_hm, "variant": variant}
    got = {k: config.get(k) for k in want}
    _require(got == want, "train.checkpoint_config", f"{got} != {want}")
    _require(all(np.isfinite(v).all() for v in blocks.values()), "train.checkpoint_finite",
             "non-finite parameter")


def check_eval(report_path: str, sref: SessionReference) -> None:
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    n_pos = int((sref.labels == 1).sum())
    counts = {"positive": n_pos, "negative": int(sref.labels.size - n_pos)}
    _require(report["n"] == sref.labels.size and report["class_counts"] == counts,
             "eval.class_counts", f"{report['n']} {report['class_counts']} != {sref.labels.size} {counts}")
    want_auc = ref.auc_by_pairs(sref.scores, sref.labels)
    _require(abs(report["auc"] - want_auc) <= TOL, "eval.auc_pairs",
             f"{report['auc']!r} != {want_auc!r} by pair counting")
    want_f1 = ref.f1_by_counting(sref.scores, sref.labels)
    _require(abs(report["f1"] - want_f1) <= TOL, "eval.f1_counts",
             f"{report['f1']!r} != {want_f1!r} by counting")


def _check_rows(values: np.ndarray, name: str) -> None:
    _require(bool(np.isfinite(values).all()) and bool((values >= 0).all()),
             f"attend.{name}_nonnegative", f"{name} has negative or missing entries")
    sums = values.sum(axis=-1)
    _require(bool(np.all(np.abs(sums - 1.0) <= TOL)), f"attend.{name}_sums_to_one",
             f"row sums {sums}")


def check_attend(out_dir: str, sref: SessionReference) -> None:
    alpha = _read_map(os.path.join(out_dir, "alpha.csv"), sref.alpha.shape)
    _check_rows(alpha, "alpha")
    err = float(np.abs(alpha - sref.alpha).max())
    _require(err <= TOL, "attend.alpha_reference", f"max |alpha - reference| = {err:.3g}")

    beta_path = os.path.join(out_dir, "beta.csv")
    if sref.beta is None:
        _require(not os.path.exists(beta_path), "attend.beta_absent", "beta.csv for a joint model")
    else:
        _, rows = _read_rows(beta_path)
        beta = np.array([float(v) for _, v in rows])
        _check_rows(beta, "beta")
        err = float(np.abs(beta - sref.beta).max())
        _require(err <= TOL, "attend.beta_reference", f"max |beta - reference| = {err:.3g}")

    saliency = _read_map(os.path.join(out_dir, "saliency.csv"),
                         (sref.shape.n_marks, sref.shape.n_bins))
    got = np.array([saliency[m, t] for m, t in sref.cells])
    ok = np.abs(got - sref.saliency) <= SALIENCY_RTOL * np.abs(sref.saliency) + 1e-10
    _require(bool(ok.all()), "attend.saliency_differences",
             f"cells {sref.cells}: {got} vs central differences {sref.saliency}")

    _, rows = _read_rows(os.path.join(out_dir, "correlation.csv"))
    r0 = float(rows[0][1])
    want = ref.pearson(sref.alpha[0], sref.relevance[0])
    _require(abs(r0 - want) <= TOL, "attend.correlation_reference", f"{r0!r} != {want!r}")
    _require(r0 >= CORRELATION_FLOOR, "attend.correlation_floor",
             f"mark-0 correlation {r0:.3f} < {CORRELATION_FLOOR}")

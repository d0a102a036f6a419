#!/usr/bin/env python3
"""Single-mark ablation study on a planted-signal dataset.

Trains the full model on all marks, then retrains on each mark alone, and
tabulates held-out AUC. On planted data the informative mark should
retain nearly all of the full model's AUC while pure-noise marks fall to
chance.

Usage: python scripts/mark_ablation.py [--n-genes 2000] [--effect 3.0] ...
"""

import argparse

from trackattn import (ModelConfig, SynthSpec, TrainConfig, auc, restrict_marks,
                       score_dataset, split, synth_generate, train)
from trackattn.cli import bin_window


def fit_and_score(train_ds, val_ds, test_ds, d, d_hm, tcfg):
    mcfg = ModelConfig(n_marks=train_ds.n_marks, n_bins=train_ds.n_bins, d=d, d_hm=d_hm,
                       variant="lstm-alpha-beta")
    params, history = train(tcfg, mcfg, train_ds, val_ds)
    return auc(score_dataset(test_ds, params, mcfg)), len(history.epochs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--n-genes", type=int, default=2000)
    ap.add_argument("--n-marks", type=int, default=5)
    ap.add_argument("--n-bins", type=int, default=100)
    ap.add_argument("--bins", type=bin_window, default="45:55",
                    help="inclusive informative window LO:HI")
    ap.add_argument("--effect", type=float, default=3.0)
    ap.add_argument("--noise", type=float, default=1.0)
    ap.add_argument("--d", type=int, default=32)
    ap.add_argument("--d-hm", type=int, default=16)
    ap.add_argument("--max-epochs", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    lo, hi = args.bins
    spec = SynthSpec(n_genes=args.n_genes, n_marks=args.n_marks, n_bins=args.n_bins,
                     informative_lo=lo, informative_hi=hi,
                     effect=args.effect, noise_scale=args.noise, seed=args.seed)
    dataset, _ = synth_generate(spec)
    parts = split(dataset, (1 / 3, 1 / 3, 1 / 3), seed=args.seed)
    tcfg = TrainConfig(max_epochs=args.max_epochs, seed=args.seed)

    full_auc, full_epochs = fit_and_score(*parts, args.d, args.d_hm, tcfg)
    print(f"{'marks used':>14} | {'AUC':>7} | epochs")
    print(f"{'all':>14} | {full_auc:.4f} | {full_epochs}")
    for mark in range(spec.n_marks):
        restricted = tuple(restrict_marks(p, [mark]) for p in parts)
        mark_auc, mark_epochs = fit_and_score(*restricted, args.d, args.d_hm, tcfg)
        tag = " (informative)" if mark == spec.informative_mark else ""
        print(f"{dataset.mark_names[mark] + tag:>14} | {mark_auc:.4f} | {mark_epochs}")


if __name__ == "__main__":
    main()

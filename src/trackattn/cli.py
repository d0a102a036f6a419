"""Command-line surface: synth, train, eval and attend subcommands.

Runs are driven by a flat ``key = value`` config file plus repeatable
``--set key=value`` overrides; the fully resolved configuration is echoed
into the output directory for provenance. All outputs are written
atomically, and identical configs reproduce byte-identical files.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical abort.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import data as data_mod
from . import metrics as metrics_mod
from .errors import ContractError, IngestionError, MetricUndefinedError, NumericalError
from .ioutil import atomic_write_text
from .model import PER_MARK_VARIANTS, ModelConfig, load_checkpoint, save_checkpoint
from .training import TrainConfig, train, write_history

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ContractError(f"expected a boolean, got {text!r}")


TRAIN_DEFAULTS: dict[str, str] = {
    "dataset": "",
    "out_dir": "",
    "n_bins": "100",
    "arcsinh": "false",
    "marks": "",
    "split": "1/3,1/3,1/3",
    "split_seed": "0",
    "variant": "lstm-alpha-beta",
    "d": "32",
    "d_hm": "16",
    "share_bin_context": "true",
    "mark_order": "",
    "learning_rate": "0.001",
    "batch_size": "16",
    "max_epochs": "100",
    "patience": "5",
    "grad_clip_norm": "5.0",
    "seed": "0",
    "optimizer": "adaptive-moments",
}


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ContractError(f"{path} line {lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except FileNotFoundError:
        raise ContractError(f"config file not found: {path}") from None
    except OSError as err:
        raise ContractError(f"cannot read config file {path}: {err.strerror or err}") from None
    return values


def resolve_run_config(file_values: dict[str, str], overrides: list[str]) -> dict[str, str]:
    resolved = dict(TRAIN_DEFAULTS)
    for source, values in (("config file", file_values), ("override", _split_overrides(overrides))):
        for key, value in values.items():
            if key not in TRAIN_DEFAULTS:
                raise ContractError(
                    f"unknown {source} key {key!r}; valid keys: {', '.join(sorted(TRAIN_DEFAULTS))}")
            resolved[key] = value
    for required in ("dataset", "out_dir"):
        if not resolved[required]:
            raise ContractError(f"config key {required!r} is required")
    return resolved


def _split_overrides(overrides: list[str]) -> dict[str, str]:
    values = {}
    for item in overrides or []:
        if "=" not in item:
            raise ContractError(f"override {item!r} must look like key=value")
        key, _, value = item.partition("=")
        values[key.strip()] = value.strip()
    return values


def config_echo_text(resolved: dict[str, str]) -> str:
    return "".join(f"{k} = {resolved[k]}\n" for k in sorted(resolved))


def _model_config(resolved: dict[str, str], n_marks: int) -> ModelConfig:
    order = None
    if resolved["mark_order"]:
        order = tuple(int(i) for i in resolved["mark_order"].split(","))
    return ModelConfig(
        n_marks=n_marks,
        n_bins=int(resolved["n_bins"]),
        d=int(resolved["d"]),
        d_hm=int(resolved["d_hm"]),
        variant=resolved["variant"],
        share_bin_context=_parse_bool(resolved["share_bin_context"]),
        mark_order=order,
    )


def _train_config(resolved: dict[str, str]) -> TrainConfig:
    return TrainConfig(
        learning_rate=float(resolved["learning_rate"]),
        batch_size=int(resolved["batch_size"]),
        max_epochs=int(resolved["max_epochs"]),
        patience=int(resolved["patience"]),
        grad_clip_norm=float(resolved["grad_clip_norm"]),
        seed=int(resolved["seed"]),
        optimizer=resolved["optimizer"],
    )


# ``train`` leaves the dataset it loaded in its out_dir under this name, so
# that ``eval`` and ``attend`` on the checkpoint beside it skip the parse
PACK_NAME = "dataset.pack"


SPLIT_PARTS = ("train", "validation", "test")


def _split(dataset, fractions_text: str, seed: int) -> tuple:
    """Split into the three SPLIT_PARTS by comma-separated fractions, each
    a decimal or a ratio such as ``1/3``."""
    fractions = []
    for text in fractions_text.split(","):
        num, slash, den = text.partition("/")
        try:
            fractions.append(float(num) / float(den) if slash else float(text))
        except ZeroDivisionError:
            raise ContractError(f"split fraction {text.strip()!r} divides by zero") from None
    if len(fractions) != 3:
        raise ContractError("split must name three fractions")
    return data_mod.split(dataset, fractions, seed)


def _split_part(dataset, fractions_text: str, seed: int, part: str):
    if part not in SPLIT_PARTS:
        raise ContractError(f"unknown split part {part!r}; valid: {', '.join(SPLIT_PARTS)}, all")
    return _split(dataset, fractions_text, seed)[SPLIT_PARTS.index(part)]


# ----------------------------------------------------------------- commands


def bin_window(text: str) -> tuple[int, int]:
    """Parse the ``--bins LO:HI`` informative window of ``synth`` and the
    experiment scripts (which pass it to argparse as ``type=``, so a
    malformed window is an option error there)."""
    try:
        lo, hi = (int(v) for v in text.split(":"))
    except ValueError:
        raise ContractError(f"--bins must be LO:HI, two integers; got {text!r}") from None
    return lo, hi


def cmd_synth(args) -> int:
    lo, hi = bin_window(args.bins)
    spec = data_mod.SynthSpec(
        n_genes=args.n_genes, n_marks=args.n_marks, n_bins=args.n_bins,
        informative_mark=args.informative_mark, informative_lo=lo, informative_hi=hi,
        effect=args.effect, noise_scale=args.noise, seed=args.seed)
    dataset, relevance = data_mod.synth_generate(spec)
    os.makedirs(args.out, exist_ok=True)
    data_mod.save_dataset(os.path.join(args.out, "dataset.csv"), dataset)
    data_mod.save_relevance(os.path.join(args.out, "relevance.csv"), relevance)
    print(f"wrote {len(dataset)} genes to {args.out}/dataset.csv (+ relevance.csv)")
    return EXIT_OK


def cmd_train(args) -> int:
    resolved = resolve_run_config(parse_config_file(args.config), args.set)
    out_dir = resolved["out_dir"]
    pack = os.path.join(out_dir, PACK_NAME)
    loaded = data_mod.load_dataset(resolved["dataset"], int(resolved["n_bins"]),
                                   _parse_bool(resolved["arcsinh"]), pack=pack)
    dataset = data_mod.binarize_labels(loaded)
    if resolved["marks"]:
        dataset = data_mod.restrict_marks(dataset, _mark_list(resolved["marks"]))
    mcfg = _model_config(resolved, dataset.n_marks)
    tcfg = _train_config(resolved)

    train_ds, val_ds = _split(dataset, resolved["split"], int(resolved["split_seed"]))[:2]
    os.makedirs(out_dir, exist_ok=True)  # an unusable path fails before the fit
    data_mod.save_pack(pack, loaded)
    del dataset, loaded  # the parts are copies; training holds only them

    try:
        params, history = train(tcfg, mcfg, train_ds, val_ds)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(pack)  # a fit that fails leaves no outputs
        raise

    atomic_write_text(os.path.join(out_dir, "config.resolved"), config_echo_text(resolved))
    save_checkpoint(os.path.join(out_dir, "checkpoint.ckpt"), mcfg, tcfg.seed, params)
    write_history(os.path.join(out_dir, "history.csv"), history)
    best = history.epochs[history.best_epoch - 1]
    print(f"best epoch {best.epoch}: val_auc={best.val_auc:.4f} "
          f"(trained {len(history.epochs)} epochs); outputs in {out_dir}")
    return EXIT_OK


def _mark_list(text: str) -> list[int]:
    return [int(i) for i in text.split(",")]


def _load_for_checkpoint(args, cfg: ModelConfig, reference: str = "") -> tuple:
    """The dataset part the checkpoint of ``cfg`` scores and, given a
    relevance sidecar path, the sidecar's rows for the marks ``--marks``
    keeps."""
    pack = os.path.join(os.path.dirname(args.checkpoint), PACK_NAME)
    dataset = data_mod.binarize_labels(
        data_mod.load_dataset(args.dataset, cfg.n_bins, args.arcsinh, pack=pack))
    n_file_marks, marks = dataset.n_marks, None
    if args.marks:
        marks = _mark_list(args.marks)
        dataset = data_mod.restrict_marks(dataset, marks)
    if dataset.n_marks != cfg.n_marks or dataset.n_bins != cfg.n_bins:
        raise IngestionError(
            f"dataset shape ({dataset.n_marks}, {dataset.n_bins}) does not match "
            f"checkpoint ({cfg.n_marks}, {cfg.n_bins})")
    if args.part != "all":
        dataset = _split_part(dataset, args.split, args.split_seed, args.part)
        if len(dataset) == 0:
            raise IngestionError(f"split part {args.part!r} is empty")
    rows = None
    if reference:
        rows = data_mod.load_relevance(reference, (n_file_marks, cfg.n_bins))
        if marks is not None:
            if max(marks) >= len(rows):
                raise IngestionError(f"reference {reference} has no row for mark {max(marks)}")
            rows = rows[marks]
    return dataset, rows


def cmd_eval(args) -> int:
    cfg, _, params = load_checkpoint(args.checkpoint)
    dataset, _ = _load_for_checkpoint(args, cfg)
    scored = metrics_mod.score_dataset(dataset, params, cfg)
    metrics_mod.write_metrics_report(args.out, scored)
    print(f"auc={metrics_mod.auc(scored):.4f} n={len(dataset)} -> {args.out}")
    return EXIT_OK


def cmd_attend(args) -> int:
    cfg, _, params = load_checkpoint(args.checkpoint)
    if cfg.variant == "lstm":  # refused before any data is read
        raise ContractError(f"variant {cfg.variant!r} produces no attention maps")
    dataset, reference = _load_for_checkpoint(args, cfg, args.reference)
    predicted_class = 1 if args.predicted_class == "on" else -1
    # one alpha row per mark, or one joint row for lstm-attn
    n_rows = cfg.n_marks if cfg.variant in PER_MARK_VARIANTS else 1
    if reference is not None and (reference.shape[0] < n_rows
                                  or reference.shape[1] != cfg.n_bins):
        raise IngestionError(
            f"reference shape {reference.shape} does not cover attention "
            f"({n_rows}, {cfg.n_bins})")

    os.makedirs(args.out, exist_ok=True)  # an unusable path fails before the model pass
    # one pass over the data serves both maps: per batch, a tape-free forward
    # pass over every gene, then a taped forward and input-only backward
    # pass over the genes of the class
    sums = metrics_mod.ClassSums()
    sal = metrics_mod.mean_saliency(dataset, params, cfg, predicted_class, sums=sums)
    attention = metrics_mod.mean_attention(dataset, params, cfg, predicted_class, sums=sums)

    tables = {"alpha.csv": (attention.alpha_mean, "alpha_mean"),
              "saliency.csv": (sal, "saliency")}
    if attention.beta_mean is not None:
        tables["beta.csv"] = (attention.beta_mean, "beta_mean")
    if reference is not None:
        r = [float("nan")] * n_rows                    # nan where r is undefined
        for m, row in enumerate(attention.alpha_mean):
            with contextlib.suppress(MetricUndefinedError):
                r[m] = metrics_mod.pearson(row, reference[m])
        tables["correlation.csv"] = (r, "pearson_r")
    for name, (values, column) in tables.items():
        atomic_write_text(os.path.join(args.out, name), data_mod.map_to_csv(values, column))

    print(f"attention maps over {attention.n_samples} predicted-"
          f"{args.predicted_class} samples -> {args.out}")
    return EXIT_OK


# -------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackattn",
        description="Hierarchical-attention classifier for binned signal tracks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted-signal dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-genes", type=int, default=2000)
    p.add_argument("--n-marks", type=int, default=5)
    p.add_argument("--n-bins", type=int, default=100)
    p.add_argument("--informative-mark", type=int, default=0)
    p.add_argument("--bins", default="45:55", help="inclusive informative range LO:HI")
    p.add_argument("--effect", type=float, default=3.0)
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key")
    p.set_defaults(func=cmd_train)

    for name, fn in (("eval", cmd_eval), ("attend", cmd_attend)):
        p = sub.add_parser(name, help=f"{name} a trained checkpoint on a dataset")
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--dataset", required=True)
        p.add_argument("--arcsinh", action="store_true")
        p.add_argument("--marks", default="",
                       help="comma-separated mark rows to keep (ablation studies)")
        p.add_argument("--split", default="1/3,1/3,1/3")
        p.add_argument("--split-seed", type=int, default=0)
        p.add_argument("--part", default="all",
                       help="evaluate one seeded split part: train, validation, test or all")
        if name == "eval":
            p.add_argument("--out", required=True, help="metrics report path")
        else:
            p.add_argument("--out", required=True, help="output directory for maps")
            p.add_argument("--class", dest="predicted_class", choices=("on", "off"),
                           default="on", help="predicted class to average over")
            p.add_argument("--reference", default="",
                           help="mark,bin,relevance sidecar to correlate against")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IngestionError, MetricUndefinedError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ContractError, ValueError, MemoryError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

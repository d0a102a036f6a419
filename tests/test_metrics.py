import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gradcheck import finite_diff_entries
from trackattn.data import Dataset, map_to_csv, read_map_csv
from trackattn.errors import ContractError, MetricUndefinedError
from trackattn.ioutil import atomic_write_text
from trackattn.metrics import (ScoredSet, auc, f1, mean_attention, mean_saliency,
                               metrics_report_text, pearson, predict_probs, score_dataset,
                               write_metrics_report)
from trackattn.model import (ModelConfig, ParameterStore, forward_batch, init_params,
                             logits_to_probs)

# ---------------------------------------------------------------------- auc


def test_auc_perfect_separation():
    s = ScoredSet([0.9, 0.8, 0.2, 0.1], [1, 1, -1, -1])
    assert auc(s) == 1.0
    assert auc(ScoredSet([0.1, 0.2, 0.8], [1, 1, -1])) == 0.0


def test_auc_all_tied_scores():
    assert auc(ScoredSet([0.5] * 6, [1, 1, 1, -1, -1, -1])) == 0.5


def test_auc_single_class_undefined():
    with pytest.raises(MetricUndefinedError):
        auc(ScoredSet([0.1, 0.9], [1, 1]))


def _pair_counting_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == -1]
    wins = ties = 0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1
            elif p == q:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(99)
    for trial in range(100):
        n = int(rng.integers(2, 51))
        # draw from a coarse grid half the time to force ties
        if trial % 2 == 0:
            scores = rng.integers(0, 5, size=n) / 4.0
        else:
            scores = rng.random(n)
        labels = np.where(rng.random(n) < 0.5, 1, -1)
        if np.all(labels == labels[0]):
            labels[0] = -labels[0]
        s = ScoredSet(scores, labels)
        assert abs(auc(s) - _pair_counting_auc(scores, labels)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
def test_auc_invariant_under_monotone_transform(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    labels = np.where(rng.random(n) < 0.5, 1, -1)
    if np.all(labels == labels[0]):
        labels[0] = -labels[0]
    base = auc(ScoredSet(scores, labels))
    squashed = auc(ScoredSet(scores ** 3, labels))  # strictly increasing on [0, 1]
    assert abs(base - squashed) < 1e-12


def test_auc_label_flip_complements():
    rng = np.random.default_rng(5)
    scores = rng.permutation(20) / 20.0  # distinct, no ties
    labels = np.where(rng.random(20) < 0.5, 1, -1)
    labels[0], labels[1] = 1, -1
    assert auc(ScoredSet(scores, -labels)) == pytest.approx(
        1.0 - auc(ScoredSet(scores, labels)), abs=1e-12)


def test_scored_set_validation():
    with pytest.raises(ContractError):
        ScoredSet([0.5, 1.5], [1, -1])
    with pytest.raises(ContractError):
        ScoredSet([0.5], [2])
    with pytest.raises(ContractError):
        ScoredSet([0.5, 0.5], [1])
    with pytest.raises(ContractError, match="binarize first"):
        ScoredSet([0.5], None)  # the labels of a dataset not yet binarized


def test_nan_scores_are_refused_before_any_metric(tmp_path):
    # NaN fails both "< 0" and "> 1", so the range check must ask for [0, 1]
    report = tmp_path / "report.json"
    for metric in (auc, f1, lambda s: write_metrics_report(str(report), s)):
        with pytest.raises(ContractError, match=r"scores must lie in \[0, 1\]"):
            metric(ScoredSet([np.nan, 0.2, 0.7, 0.1], [1, -1, 1, -1]))
    assert not report.exists()


# ----------------------------------------------------------------------- f1


def test_f1_examples():
    assert f1(ScoredSet([0.9, 0.8, 0.1], [1, 1, -1])) == 1.0
    assert f1(ScoredSet([0.2, 0.3, 0.1], [1, 1, -1])) == 0.0
    # TP=2, FP=1, FN=1 -> precision = recall = 2/3
    s = ScoredSet([0.9, 0.8, 0.7, 0.1], [1, 1, -1, 1])
    assert f1(s) == pytest.approx(2 / 3, abs=1e-12)


def test_f1_exact_half_scores_predict_negative():
    assert f1(ScoredSet([0.5, 0.5], [1, -1])) == 0.0


# ------------------------------------------------------------------ pearson


def test_pearson_identity_and_negation():
    x = np.array([1.0, 2.0, 5.0])
    assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)
    assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_direct_formula():
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([1.0, 2.0, 4.0])
    dx, dy = x - x.mean(), y - y.mean()
    expected = (dx * dy).sum() / np.sqrt((dx**2).sum() * (dy**2).sum())
    assert pearson(x, y) == pytest.approx(expected, abs=1e-15)


def test_pearson_zero_variance_undefined():
    with pytest.raises(MetricUndefinedError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ContractError):
        pearson([1.0], [2.0])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.1, max_value=10), st.floats(min_value=-5, max_value=5))
def test_pearson_affine_invariance(seed, scale, shift):
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=6), rng.normal(size=6)
    base = pearson(x, y)
    assert pearson(scale * x + shift, y) == pytest.approx(base, abs=1e-10)
    assert pearson(-scale * x, y) == pytest.approx(-base, abs=1e-10)


# ----------------------------------------------------- attention & saliency


def tiny_model(variant="lstm-alpha-beta", seed=0):
    cfg = ModelConfig(n_marks=3, n_bins=8, d=4, d_hm=3, variant=variant)
    return cfg, init_params(cfg, seed=seed)


def tiny_dataset(n, cfg, seed=0):
    rng = np.random.default_rng(seed)
    x = np.abs(rng.normal(size=(n, cfg.n_marks, cfg.n_bins)))
    return Dataset.from_arrays([f"g{i}" for i in range(n)], x,
                               [f"m{j}" for j in range(cfg.n_marks)], np.zeros(n),
                               np.where(rng.random(n) < 0.5, 1, -1))


def rows(ds, sl):
    return Dataset.from_arrays(ds.gene_ids[sl], ds.x[sl], ds.mark_names, labels=ds.labels[sl])


def predicted_labels(x, params, cfg):
    """Each gene's argmax class; exact ties go to -1, as in mean_attention."""
    probs = logits_to_probs(forward_batch(x, params, cfg, grad=False).logits.data)
    return np.where(probs[1] > probs[0], 1, -1)


def test_mean_attention_single_sample_equals_profile():
    cfg, params = tiny_model()
    ds = tiny_dataset(1, cfg, seed=3)
    bf = forward_batch(ds.x, params, cfg, grad=False)
    alpha, beta = bf.alphas, bf.betas
    m = mean_attention(ds, params, cfg, predicted_labels(ds.x, params, cfg)[0])
    np.testing.assert_allclose(m.alpha_mean, alpha[:, :, 0], atol=1e-15)
    np.testing.assert_allclose(m.beta_mean, beta[:, 0], atol=1e-15)
    assert m.n_samples == 1


def test_mean_attention_rows_stay_stochastic():
    cfg, params = tiny_model(seed=4)
    ds = tiny_dataset(12, cfg, seed=5)
    preds = predicted_labels(ds.x, params, cfg).tolist()
    klass = 1 if preds.count(1) else -1
    m = mean_attention(ds, params, cfg, klass)
    np.testing.assert_allclose(m.alpha_mean.sum(axis=1), 1.0, atol=1e-6)
    np.testing.assert_allclose(m.beta_mean.sum(), 1.0, atol=1e-6)


def test_mean_attention_partition_mixture():
    cfg, params = tiny_model(seed=6)
    ds = tiny_dataset(10, cfg, seed=7)
    preds = predicted_labels(ds.x, params, cfg).tolist()
    klass = 1 if preds.count(1) >= preds.count(-1) else -1
    qualifying = [i for i, p in enumerate(preds) if p == klass]
    assert len(qualifying) >= 2
    cut = qualifying[len(qualifying) // 2]

    part_a, part_b = rows(ds, slice(None, cut + 1)), rows(ds, slice(cut + 1, None))
    full = mean_attention(ds, params, cfg, klass)
    ma = mean_attention(part_a, params, cfg, klass)
    mb = mean_attention(part_b, params, cfg, klass)
    assert ma.n_samples + mb.n_samples == full.n_samples
    mixed = (ma.alpha_mean * ma.n_samples + mb.alpha_mean * mb.n_samples) / full.n_samples
    np.testing.assert_allclose(mixed, full.alpha_mean, atol=1e-12)


def test_mean_attention_empty_class_errors():
    cfg, params = tiny_model(seed=8)
    params = ParameterStore(params.layout)
    ds = tiny_dataset(4, cfg, seed=9)
    # zero model predicts exactly 0.5/0.5 -> ties resolve to -1, so +1 is empty
    with pytest.raises(MetricUndefinedError):
        mean_attention(ds, params, cfg, 1)


def test_mean_attention_rejects_variant_without_attention():
    cfg, params = tiny_model("lstm", seed=10)
    with pytest.raises(ContractError):
        mean_attention(tiny_dataset(2, cfg), params, cfg, 1)


def one_gene_saliency(x, params, cfg):
    """Saliency of one (M, T) sample: mean_saliency over a one-gene dataset
    averaged over the class the model predicts for it."""
    ds = Dataset.from_arrays(["g0"], x[None], [f"m{j}" for j in range(cfg.n_marks)], labels=[1])
    return mean_saliency(ds, params, cfg, predicted_labels(ds.x, params, cfg)[0])


def test_saliency_nonnegative_and_zero_for_zero_model():
    cfg, params = tiny_model(seed=11)
    x = np.abs(np.random.default_rng(12).normal(size=(3, 8)))
    sal = one_gene_saliency(x, params, cfg)
    assert sal.shape == (3, 8)
    assert (sal >= 0).all()
    zeroed = ParameterStore(params.layout)
    np.testing.assert_array_equal(one_gene_saliency(x, zeroed, cfg), np.zeros((3, 8)))


@pytest.mark.parametrize("variant", ["lstm", "lstm-attn", "lstm-alpha", "lstm-alpha-beta"])
def test_saliency_matches_logit_finite_differences(variant):
    cfg, params = tiny_model(variant, seed=13)
    rng = np.random.default_rng(14)
    x = np.abs(rng.normal(size=(cfg.n_marks, cfg.n_bins)))
    sal = one_gene_saliency(x, params, cfg)
    k = int(np.argmax(forward_batch(x[None], params, cfg).logits.data[:, 0]))

    def logit():
        return float(forward_batch(x[None], params, cfg).logits.data[k, 0])

    cells = rng.choice(x.size, size=5, replace=False)
    numeric = finite_diff_entries(logit, x, cells)
    analytic = sal.reshape(-1)[cells]
    for a, n in zip(analytic, np.abs(numeric)):
        assert a == pytest.approx(n, rel=1e-3, abs=1e-10)


def test_predict_probs_batches_consistently():
    cfg, params = tiny_model(seed=15)
    ds = tiny_dataset(9, cfg, seed=16)
    probs_small = predict_probs(ds.x, params, cfg, batch_size=2)
    probs_big = predict_probs(ds.x, params, cfg, batch_size=64)
    np.testing.assert_allclose(probs_small, probs_big, atol=1e-12)
    singles = predict_probs(ds.x, params, cfg, batch_size=1)
    np.testing.assert_allclose(probs_big, singles, atol=1e-12)


def acceptance_scoring_input():
    """256 genes at the acceptance shapes, with a model to score them."""
    cfg = ModelConfig(n_marks=5, n_bins=100, d=32, d_hm=16, variant="lstm-alpha-beta")
    params = init_params(cfg, seed=17)
    x = np.abs(np.random.default_rng(18).normal(size=(256, cfg.n_marks, cfg.n_bins)))
    return cfg, params, x


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_probs_keeps_no_backward_buffers():
    # a taped pass would keep its bin scan's (T, 2M, 4d, B) gates and
    # (T, 2M, d, B) cells, ~100 MB per 64-gene batch; one 256-gene batch
    # of the tape-free pass peaked at 135 MiB
    cfg, params, x = acceptance_scoring_input()
    peak = traced_peak(lambda: predict_probs(x, params, cfg))
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.0f} MiB"


def test_mean_saliency_keeps_one_batch_of_input_only_buffers():
    # one 64-gene taped pass at a time, with no [U | W | b] gradient: 256-gene
    # batches that also built the stack gradient peaked at 587 MiB
    cfg, params, x = acceptance_scoring_input()
    ds = Dataset.from_arrays([f"g{i}" for i in range(len(x))], x,
                             [f"m{j}" for j in range(cfg.n_marks)])
    klass = int(predicted_labels(x[:1], params, cfg)[0])
    peak = traced_peak(lambda: mean_saliency(ds, params, cfg, klass))
    assert peak < 200 * 2**20, f"peak {peak / 2**20:.0f} MiB"


# ---------------------------------------------------------------- exports


def test_metrics_report_schema(tmp_path):
    path = str(tmp_path / "report.json")
    write_metrics_report(path, ScoredSet([0.9, 0.2, 0.8, 0.4], [1, -1, 1, -1]))
    report = json.loads(Path(path).read_text())
    assert report["auc"] == 1.0
    assert report["n"] == 4
    assert report["class_counts"] == {"positive": 2, "negative": 2}
    assert 0.0 <= report["f1"] <= 1.0


def test_map_csv_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    values = rng.random((3, 5))
    path = str(tmp_path / "alpha.csv")
    atomic_write_text(path, map_to_csv(values, "alpha_mean"))
    np.testing.assert_array_equal(read_map_csv(path), values)


def test_beta_csv_format():
    assert map_to_csv(np.array([0.25, 0.75]), "beta_mean") == "mark,beta_mean\n0,0.25\n1,0.75\n"


def test_map_csv_refuses_other_ranks():
    for values in (np.zeros((2, 3, 4)), np.float64(0.5)):
        with pytest.raises(ContractError, match="shape"):
            map_to_csv(values, "alpha_mean")

import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from trackattn import autodiff as ad
from trackattn import training
from trackattn.data import Dataset, SynthSpec, split, synth_generate
from trackattn.errors import ContractError, NumericalError
from trackattn.model import (ModelConfig, ParameterStore, forward_batch, init_params,
                             nll_loss_batch)
from trackattn.metrics import predict_probs
from trackattn.training import (TrainConfig, clip_gradients, init_optimizer_state,
                                optimizer_step, train, write_history)


def planted_sets(n=200, effect=5.0, seed=0):
    spec = SynthSpec(n_genes=n, n_marks=3, n_bins=20, informative_mark=0,
                     informative_lo=8, informative_hi=12, effect=effect,
                     noise_scale=1.0, seed=seed)
    ds, _ = synth_generate(spec)
    return split(ds, (0.5, 0.5), seed=seed)


def small_mcfg():
    return ModelConfig(n_marks=3, n_bins=20, d=8, d_hm=4, variant="lstm-alpha-beta")


# ------------------------------------------------------------- optimizers


def test_zero_gradients_leave_parameters_unchanged():
    for opt in ("sgd", "adaptive-moments"):
        cfg = TrainConfig(optimizer=opt, learning_rate=0.1)
        params = np.array([1.0, -2.0])
        state = init_optimizer_state(params, cfg)
        optimizer_step(params, np.zeros(2), state, cfg)
        np.testing.assert_array_equal(params, [1.0, -2.0])


def test_sgd_arithmetic():
    cfg = TrainConfig(optimizer="sgd", learning_rate=0.1)
    params = np.array([1.0])
    optimizer_step(params, np.array([2.0]), init_optimizer_state(params, cfg), cfg)
    assert params[0] == pytest.approx(0.8, abs=1e-15)


def test_adaptive_moments_first_step_closed_form():
    cfg = TrainConfig(optimizer="adaptive-moments", learning_rate=1e-3)
    for c in (3.0, -0.25):
        params = np.array([0.0])
        state = init_optimizer_state(params, cfg)
        optimizer_step(params, np.array([c]), state, cfg)
        expected = -cfg.learning_rate * c / (abs(c) + 1e-8)
        assert params[0] == pytest.approx(expected, abs=1e-12)


def test_clip_bounds_global_norm():
    rng = np.random.default_rng(0)
    grad = 10 * rng.normal(size=19)
    pre = clip_gradients(grad, 5.0)
    post = np.sqrt(float((grad * grad).sum()))
    assert pre > 5.0
    assert post <= 5.0 + 1e-12
    assert post == pytest.approx(5.0, rel=1e-12)

    small = np.array([0.1, 0.1])
    clip_gradients(small, 5.0)
    np.testing.assert_array_equal(small, [0.1, 0.1])


def test_train_config_validation():
    with pytest.raises(ContractError):
        TrainConfig(learning_rate=-1e-3)
    with pytest.raises(ContractError):
        TrainConfig(batch_size=0)
    with pytest.raises(ContractError):
        TrainConfig(patience=-1)
    with pytest.raises(ContractError):
        TrainConfig(optimizer="momentum")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ContractError, match="learning_rate"):
            TrainConfig(learning_rate=bad)
        with pytest.raises(ContractError, match="grad_clip_norm"):
            TrainConfig(grad_clip_norm=bad)


# ---------------------------------------------------------------- training


def test_zero_learning_rate_returns_initial_parameters():
    train_ds, val_ds = planted_sets(n=60, seed=1)
    cfg = TrainConfig(learning_rate=0.0, max_epochs=2, patience=5, seed=11)
    mcfg = small_mcfg()
    params, history = train(cfg, mcfg, train_ds, val_ds)
    initial = init_params(mcfg, cfg.seed)
    for (name, got), (_, want) in zip(params.named_blocks(), initial.named_blocks()):
        assert np.array_equal(got, want), name


def test_training_is_deterministic():
    train_ds, val_ds = planted_sets(n=80, seed=2)
    cfg = TrainConfig(max_epochs=3, patience=5, seed=5)

    def run():
        return train(cfg, small_mcfg(), train_ds, val_ds)

    p1, h1 = run()
    p2, h2 = run()
    assert h1.to_csv() == h2.to_csv()
    for (name, a), (_, b) in zip(p1.named_blocks(), p2.named_blocks()):
        assert np.array_equal(a, b), name


def test_batch_gradient_equals_mean_of_per_sample_gradients():
    mcfg = ModelConfig(n_marks=2, n_bins=6, d=3, d_hm=2, variant="lstm-alpha-beta")
    params = init_params(mcfg, seed=3)
    rng = np.random.default_rng(4)
    x = np.abs(rng.normal(size=(4, 2, 6)))
    y = np.array([1, -1, 1, -1])

    def gradient(lo, hi):
        bf = forward_batch(x[lo:hi], params, mcfg)
        ad.backward(nll_loss_batch(bf.logits, y[lo:hi]))
        return bf.flat_gradient()

    batch = ParameterStore(params.layout, gradient(0, 4))
    mean = ParameterStore(params.layout, sum(gradient(i, i + 1) for i in range(4)) / 4.0)
    for (name, got), (_, want) in zip(batch.named_blocks(), mean.named_blocks()):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10, err_msg=name)


def test_learns_linearly_separable_planted_signal():
    train_ds, val_ds = planted_sets(n=200, effect=5.0, seed=6)
    cfg = TrainConfig(max_epochs=20, patience=20, seed=7)
    params, history = train(cfg, small_mcfg(), train_ds, val_ds)
    assert history.epochs[-1].train_loss < history.epochs[0].train_loss
    assert max(e.val_auc for e in history.epochs) >= 0.95


def test_early_stopping_bound():
    train_ds, val_ds = planted_sets(n=60, effect=0.0, seed=8)
    cfg = TrainConfig(max_epochs=30, patience=2, seed=9)
    _, history = train(cfg, small_mcfg(), train_ds, val_ds)
    assert history.epochs[-1].epoch <= history.best_epoch + cfg.patience
    assert history.epochs[-1].epoch < 30


def test_validation_auc_ties_go_to_an_epoch_calling_both_classes():
    # every epoch ranks the validation set perfectly (AUC 1.0), but the
    # first four call every gene "on"; the fifth, calling both classes, is
    # kept (the first epoch at the best AUC used to be kept)
    train_ds, val_ds = planted_sets(n=80, effect=8.0, seed=2)
    cfg = TrainConfig(learning_rate=0.01, max_epochs=5, patience=5, seed=2)
    params, history = train(cfg, small_mcfg(), train_ds, val_ds)
    assert [e.val_auc for e in history.epochs] == [1.0] * 5
    assert [e.val_calls_on for e in history.epochs[:4]] == [len(val_ds)] * 4
    assert 0 < history.epochs[4].val_calls_on < len(val_ds)
    assert history.best_epoch == 5
    calls = predict_probs(val_ds.x, params, small_mcfg()) > 0.5
    assert calls.sum() == history.epochs[4].val_calls_on


def test_non_finite_loss_aborts_with_location():
    train_ds, val_ds = planted_sets(n=60, seed=10)
    cfg = TrainConfig(optimizer="sgd", learning_rate=1e12, max_epochs=3, seed=11)
    with np.errstate(divide="ignore", over="ignore"), pytest.raises(NumericalError) as err:
        train(cfg, small_mcfg(), train_ds, val_ds)
    assert "epoch" in str(err.value) and "batch" in str(err.value)


def biased_init(monkeypatch):
    """Make train start from classifier biases that put the "on" class's
    probability near 1e-317, a subnormal."""
    real = training.init_params

    def init(mcfg, seed):
        params = real(mcfg, seed)
        params.blocks["classifier.b"][:] = (730.0, 0.0)
        return params

    monkeypatch.setattr(training, "init_params", init)


def test_non_finite_gradient_under_a_finite_loss_aborts_with_location(monkeypatch):
    # the first batch's loss is finite, its gradient is not: before the
    # norm check, Adam wrote NaN into the parameters and the next batch's
    # leaf check failed as a config error
    biased_init(monkeypatch)
    train_ds, val_ds = planted_sets(n=60, seed=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="non-finite gradient norm at epoch 1, batch 0"):
            train(TrainConfig(max_epochs=2, seed=11), small_mcfg(), train_ds, val_ds)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_holds_one_step_graph_at_a_time():
    # a batch's graph dies before the next batch's forward pass; when the
    # loop still held it, train peaked at 1.68x one step
    mcfg = ModelConfig(n_marks=5, n_bins=100, d=32, d_hm=16, variant="lstm-alpha-beta")
    rng = np.random.default_rng(12)

    def planted(n):
        labels = np.where(np.arange(n) % 2 == 0, 1, -1)
        return Dataset.from_arrays([f"g{i}" for i in range(n)],
                                   np.abs(rng.normal(size=(n, 5, 100))),
                                   [f"m{j}" for j in range(5)], labels=labels)

    train_ds, val_ds = planted(96), planted(32)
    cfg = TrainConfig(batch_size=16, max_epochs=1)
    params = init_params(mcfg, cfg.seed)

    def one_step():
        bf = forward_batch(train_ds.x[:16], params, mcfg)
        ad.backward(nll_loss_batch(bf.logits, train_ds.labels[:16]))
        bf.flat_gradient()

    step = traced_peak(one_step)
    whole = traced_peak(lambda: train(cfg, mcfg, train_ds, val_ds))
    assert whole <= 1.25 * step, f"train {whole / 2**20:.1f} MiB, one step {step / 2**20:.1f} MiB"


def test_train_validates_inputs():
    train_ds, val_ds = planted_sets(n=40, seed=12)
    cfg = TrainConfig(max_epochs=1)
    wrong = ModelConfig(n_marks=4, n_bins=20, d=4, d_hm=3)
    with pytest.raises(ContractError):
        train(cfg, wrong, train_ds, val_ds)
    empty = Dataset.from_arrays([], train_ds.x[:0], train_ds.mark_names, labels=[])
    with pytest.raises(ContractError):
        train(cfg, small_mcfg(), empty, val_ds)
    unlabeled = Dataset.from_arrays(train_ds.gene_ids, train_ds.x, train_ds.mark_names)
    with pytest.raises(ContractError, match="binarize first"):
        train(cfg, small_mcfg(), unlabeled, val_ds)
    on = val_ds.labels == 1
    one_class = Dataset.from_arrays([g for g, keep in zip(val_ds.gene_ids, on) if keep],
                                    val_ds.x[on], val_ds.mark_names, labels=val_ds.labels[on])
    with pytest.raises(ContractError):
        train(cfg, small_mcfg(), train_ds, one_class)


def test_history_export_round_trips(tmp_path):
    train_ds, val_ds = planted_sets(n=40, seed=13)
    cfg = TrainConfig(max_epochs=2, patience=5, seed=14)
    _, history = train(cfg, small_mcfg(), train_ds, val_ds)
    path = str(tmp_path / "history.csv")
    write_history(path, history)
    lines = Path(path).read_text().strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_auc"
    assert len(lines) == len(history.epochs) + 1
    for line, stats in zip(lines[1:], history.epochs):
        epoch, loss_s, auc_s = line.split(",")
        assert int(epoch) == stats.epoch
        assert float(loss_s) == stats.train_loss
        assert float(auc_s) == stats.val_auc

import hashlib
import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _checkpoint_fuzz import corrupted
from _gradcheck import assert_grads_match, finite_diff, finite_diff_entries, max_rel_error
from _oracle import straight_line_forward
from trackattn import autodiff as ad
from trackattn.autodiff import Tensor
from trackattn.errors import ContractError, DimensionError, IngestionError
from trackattn.lstm import bilstm_encode_steps
from trackattn.model import (ModelConfig, ParameterStore, forward_batch, init_params,
                             _attend_steps, labels_to_class_indices,
                             load_checkpoint, logits_to_probs, nll_loss_batch,
                             save_checkpoint)

TINY = dict(n_marks=3, n_bins=8, d=4, d_hm=3)


def tiny_cfg(variant="lstm-alpha-beta", **kw):
    return ModelConfig(variant=variant, **{**TINY, **kw})


def zeroed(params):
    return ParameterStore(params.layout)


def flat_positions(params):
    """Per checkpoint name, the positions of its entries in the flat vector."""
    index = ParameterStore(params.layout, np.arange(params.flat.size, dtype=np.float64))
    return {name: view.reshape(-1).astype(np.intp) for name, view in index.named_blocks()}


def score(x, params, cfg):
    """Class probabilities (2, B), alpha (rows, T, B) and beta (M, B) of a
    tape-free pass over a (B, M, T) stack."""
    bf = forward_batch(x, params, cfg, grad=False)
    return logits_to_probs(bf.logits.data), bf.alphas, bf.betas


def named_gradients(bf, params):
    """Per checkpoint name, the view of the flat gradient after a backward pass."""
    return dict(ParameterStore(params.layout, bf.flat_gradient()).named_blocks())


@pytest.mark.parametrize("variant", ["lstm", "lstm-attn", "lstm-alpha", "lstm-alpha-beta"])
def test_zero_parameters_give_uninformative_prediction(variant):
    cfg = tiny_cfg(variant)
    params = zeroed(init_params(cfg, seed=0))
    x = np.abs(np.random.default_rng(1).normal(size=(3, cfg.n_marks, cfg.n_bins)))
    probs, alpha, beta = score(x, params, cfg)
    assert np.all(probs == 0.5)
    if variant == "lstm":
        assert alpha is None
    else:
        assert np.all(alpha == alpha[:, :1])  # uniform over the bins
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
    if variant == "lstm-alpha-beta":
        assert np.all(beta == beta[0])
        np.testing.assert_allclose(beta.sum(axis=0), 1.0, atol=1e-12)
    else:
        assert beta is None


def test_single_mark_beta_is_one():
    cfg = ModelConfig(n_marks=1, n_bins=6, d=3, d_hm=2, variant="lstm-alpha-beta")
    params = init_params(cfg, seed=3)
    _, _, beta = score(np.random.default_rng(4).normal(size=(2, 1, 6)), params, cfg)
    np.testing.assert_array_equal(beta, [[1.0, 1.0]])


ORACLE_CONFIGS = [
    (variant, share, order)
    for variant in ("lstm", "lstm-attn", "lstm-alpha", "lstm-alpha-beta")
    for share, order in ((True, None), (False, (2, 0, 1)))
    if variant in ("lstm-alpha", "lstm-alpha-beta") or share
]


def over_policies(cases, base_ids):
    """Run every case taped (grad=True, under its base id) and tape-free
    (grad=False, the id suffixed with ``-tape-free``)."""
    return [pytest.param(*case, grad, id=base + ("" if grad else "-tape-free"))
            for grad in (True, False) for case, base in zip(cases, base_ids)]


# the base ids are the ones pytest gives ORACLE_CONFIGS on its own
ORACLE_CASES = over_policies(ORACLE_CONFIGS, [
    f"{variant}-{share}-{'None' if order is None else f'order{n}'}"
    for n, (variant, share, order) in enumerate(ORACLE_CONFIGS)])


@pytest.mark.parametrize("variant,share,order,grad", ORACLE_CASES)
def test_every_variant_matches_straight_line_oracle(variant, share, order, grad):
    cfg = tiny_cfg(variant, share_bin_context=share, mark_order=order)
    params = init_params(cfg, seed=41)
    x = np.random.default_rng(42).normal(size=(6, cfg.n_marks, cfg.n_bins))
    bf = forward_batch(x, params, cfg, grad=grad)
    probs = logits_to_probs(bf.logits.data)
    alpha, beta = bf.alphas, bf.betas
    for b in range(x.shape[0]):
        ref = straight_line_forward(x[b], params, cfg)
        assert np.abs(bf.logits.data[:, b] - ref["logits"]).max() < 1e-12
        assert np.abs(probs[:, b] - ref["probs"]).max() < 1e-12
        if ref["alpha"] is None:
            assert alpha is None
        else:
            assert np.abs(alpha[:, :, b] - ref["alpha"]).max() < 1e-12
        if ref["beta"] is None:
            assert beta is None
        else:
            assert np.abs(beta[:, b] - ref["beta"]).max() < 1e-12


FULL_SIZE = dict(n_marks=5, n_bins=100, d=32, d_hm=16)


@pytest.mark.parametrize("variant", ["lstm", "lstm-attn", "lstm-alpha", "lstm-alpha-beta"])
def test_full_size_gradient_sampled(variant):
    # one sampled entry per block at the acceptance shapes, plus input cells
    cfg = ModelConfig(variant=variant, **FULL_SIZE)
    params = init_params(cfg, seed=51)
    rng = np.random.default_rng(52)
    x = np.abs(rng.normal(size=(2, cfg.n_marks, cfg.n_bins)))
    labels = np.array([1, -1])

    bf = forward_batch(x, params, cfg)
    ad.backward(nll_loss_batch(bf.logits, labels))
    input_grad = bf.input_gradient()

    def f():
        return float(nll_loss_batch(forward_batch(x, params, cfg).logits, labels).data)

    def sample(analytic, size):
        # central differences of an O(1) loss carry ~1e-11 absolute roundoff
        # at eps=1e-5, so only entries above 1e-6 resolve to 1e-4 relative
        flat = np.abs(analytic.reshape(-1))
        candidates = np.flatnonzero(flat >= 1e-6)
        return rng.choice(candidates, size=min(size, candidates.size), replace=False)

    checked = 0
    grads, positions = named_gradients(bf, params), flat_positions(params)
    for name, analytic in grads.items():
        idx = sample(analytic, 1)
        numeric = finite_diff_entries(f, params.flat, positions[name][idx])
        err = max_rel_error(analytic.reshape(-1)[idx], numeric)
        assert err < 1e-4, f"{variant} block {name}: max rel err {err:.2e}"
        checked += idx.size
    cells = sample(input_grad, 8)
    numeric = finite_diff_entries(f, x, cells)
    err = max_rel_error(input_grad.reshape(-1)[cells], numeric)
    assert err < 1e-4, f"{variant} input cells: max rel err {err:.2e}"
    assert cells.size == 8 and checked >= len(grads) - 2


VARIANTS = ["lstm", "lstm-attn", "lstm-alpha", "lstm-alpha-beta"]


@pytest.mark.parametrize("variant,grad", over_policies([(v,) for v in VARIANTS], VARIANTS))
def test_batch_columns_match_single_sample_passes(variant, grad):
    cfg = tiny_cfg(variant, share_bin_context=False, mark_order=(1, 2, 0))
    params = init_params(cfg, seed=61)
    x = np.random.default_rng(62).normal(size=(16, cfg.n_marks, cfg.n_bins))
    bf = forward_batch(x, params, cfg, grad=grad)
    alpha, beta = bf.alphas, bf.betas
    for b in range(16):
        one = forward_batch(x[b:b + 1], params, cfg, grad=grad)
        alpha1, beta1 = one.alphas, one.betas
        assert np.abs(bf.logits.data[:, b] - one.logits.data[:, 0]).max() < 1e-12
        if alpha is not None:
            assert np.abs(alpha[:, :, b] - alpha1[:, :, 0]).max() < 1e-12
        if beta is not None:
            assert np.abs(beta[:, b] - beta1[:, 0]).max() < 1e-12


@pytest.mark.parametrize("variant,share", [(v, True) for v in VARIANTS] + [
    ("lstm-alpha", False), ("lstm-alpha-beta", False)])
def test_tape_free_pass_is_bit_identical_at_full_size(variant, share):
    # same logits, alpha and beta bits at the acceptance shapes, where the
    # taped bin scan keeps 100 steps of gates and cells
    cfg = ModelConfig(variant=variant, share_bin_context=share, mark_order=(3, 0, 4, 2, 1),
                      **FULL_SIZE)
    params = init_params(cfg, seed=55)
    x = np.abs(np.random.default_rng(56).normal(size=(3, cfg.n_marks, cfg.n_bins)))
    taped, free = forward_batch(x, params, cfg), forward_batch(x, params, cfg, grad=False)
    assert np.array_equal(free.logits.data, taped.logits.data)
    for a, b in ((free.alphas, taped.alphas), (free.betas, taped.betas)):
        assert (a is None and b is None) or np.array_equal(a, b)


def graph_ops(root):
    """The op tag of every node reachable from root."""
    seen, stack, ops = set(), [root], []
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            ops.append(t.op)
            stack.extend(t.parents)
    return ops


@pytest.mark.parametrize("variant", VARIANTS)
def test_tape_free_pass_records_no_scan_node(variant):
    cfg = tiny_cfg(variant)
    params = init_params(cfg, seed=57)
    x = np.random.default_rng(58).normal(size=(4, cfg.n_marks, cfg.n_bins))
    n_scans = 2 if variant == "lstm-alpha-beta" else 1
    assert graph_ops(forward_batch(x, params, cfg).logits).count("bilstm_scan") == n_scans
    bf = forward_batch(x, params, cfg, grad=False)
    assert "bilstm_scan" not in graph_ops(bf.logits)
    # nothing below the scans is reachable: no gradient for inputs or LSTMs
    ad.backward(bf.logits, np.ones_like(bf.logits.data))
    assert bf.inputs.adjoint is None
    assert np.array_equal(bf.input_gradient(), np.zeros(x.shape))
    assert all(leaf.adjoint is None for name, leaf in bf.leaves.items() if "lstm" in name)


@pytest.mark.parametrize("variant,share", [(v, True) for v in VARIANTS] + [
    ("lstm-alpha", False), ("lstm-alpha-beta", False)])
def test_input_only_backward_gives_the_same_input_gradient_bits(variant, share):
    # the saliency backward: each column's own predicted-class logit
    cfg = tiny_cfg(variant, share_bin_context=share, mark_order=(2, 0, 1))
    params = init_params(cfg, seed=73)
    x = np.random.default_rng(74).normal(size=(5, cfg.n_marks, cfg.n_bins))

    def input_gradients(param_grad):
        bf = forward_batch(x, params, cfg, param_grad=param_grad)
        seed = np.zeros_like(bf.logits.data)
        seed[np.argmax(bf.logits.data, axis=0), np.arange(x.shape[0])] = 1.0
        ad.backward(bf.logits, seed)
        return bf, bf.input_gradient()

    full, full_grads = input_gradients(True)
    lean, lean_grads = input_gradients(False)
    assert np.array_equal(lean_grads, full_grads) and np.abs(full_grads).max() > 0
    # no scan node has an LSTM stack for a parent, so no gradient reaches one
    assert all(leaf.adjoint is None for name, leaf in lean.leaves.items() if "lstm" in name)
    assert all(full.leaves[name].adjoint.any() for name in lean.leaves if "lstm" in name)


@pytest.mark.parametrize("variant", ["lstm-attn", "lstm-alpha-beta"])
def test_input_gradients_land_on_their_sample_mark_and_bin(variant):
    # the per-mark (T, M, 1, B) and joint (T, 1, M, B) input layouts must
    # both map back onto (B, M, T): checked cell by cell against central
    # differences of the summed logit of class 1
    cfg = tiny_cfg(variant)
    params = init_params(cfg, seed=71)
    rng = np.random.default_rng(72)
    x = rng.normal(size=(3, cfg.n_marks, cfg.n_bins))
    bf = forward_batch(x, params, cfg)
    seed = np.zeros((2, 3))
    seed[1] = 1.0
    ad.backward(bf.logits, seed)
    grads = bf.input_gradient()
    assert grads.shape == x.shape

    def f():
        return float(forward_batch(x, params, cfg).logits.data[1].sum())

    cells = rng.choice(x.size, size=12, replace=False)
    numeric = finite_diff_entries(f, x, cells)
    assert max_rel_error(grads.reshape(-1)[cells], numeric) < 1e-6


@pytest.mark.parametrize("n_contexts", [1, 3])
def test_attention_pool_gradients_match_finite_differences(n_contexts):
    # the pool over a (T, K, d_h, B) stack with one shared context or one
    # per sequence; the weights are the max-subtracted softmax over T
    rng = np.random.default_rng(91)
    steps = rng.normal(size=(4, 3, 2, 5))
    contexts = rng.normal(size=(n_contexts, 2))
    mix = rng.normal(size=(6, 5))             # the (K·d_h, B) pooled rows

    def run(h, c):
        return float((_attend_steps(Tensor(h), Tensor(c))[1].data * mix).sum())

    leaves = [Tensor(steps), Tensor(contexts)]
    weights, pooled = _attend_steps(*leaves)
    ad.backward(pooled, mix)
    np.testing.assert_allclose(weights.sum(axis=0), 1.0, atol=1e-15)
    numeric = finite_diff(run, [steps, contexts])
    for leaf, num in zip(leaves, numeric):
        assert_grads_match(leaf.adjoint, num)
    with pytest.raises(DimensionError):
        _attend_steps(leaves[0], Tensor(np.ones((2, 2))))  # neither shared nor one per sequence
    with pytest.raises(DimensionError):
        _attend_steps(leaves[0], Tensor(np.ones(2)))       # not a (1 or K, d_h) stack


def graph_nodes(root):
    return len(graph_ops(root))


STEP_NODES = {"lstm": 8, "lstm-attn": 9, "lstm-alpha": 13, "lstm-alpha-beta": 14}


@pytest.mark.parametrize("variant", VARIANTS)
def test_training_step_graph_stays_small(variant):
    # one leaf per fused parameter block plus the input leaf, one scan node
    # per encoder, one pool node per attention level, the head's affine (and
    # tanh) nodes and one loss node: the count grows with neither T, B nor M
    def step_nodes(n_marks):
        cfg = ModelConfig(n_marks=n_marks, n_bins=12, variant=variant)
        x = np.random.default_rng(81).normal(size=(16, n_marks, 12))
        labels = np.where(np.arange(16) % 2 == 0, 1, -1)
        return graph_nodes(nll_loss_batch(forward_batch(x, init_params(cfg, seed=0), cfg).logits,
                                          labels))

    assert step_nodes(5) == step_nodes(2) == STEP_NODES[variant]


def test_loss_examples():
    # a certain, correct call costs nothing; a uniform one costs log 2
    assert float(nll_loss_batch(Tensor([[-1000.0], [0.0]]), [1]).data) == 0.0
    assert float(nll_loss_batch(Tensor([[0.0], [0.0]]), [-1]).data) == pytest.approx(
        math.log(2), abs=1e-15)
    with pytest.raises(ContractError):
        nll_loss_batch(Tensor([[0.0], [0.0]]), [0])
    # one label per column of a (2, B) logit matrix, and at least one column
    for logits, labels in ((np.zeros((2, 2)), [1]), (np.zeros((2, 0)), []), (np.zeros(2), [1])):
        with pytest.raises(DimensionError):
            nll_loss_batch(Tensor(logits), labels)
    # an exact-zero true-class probability is an infinite loss, warning-free
    with np.errstate(divide="raise", invalid="raise"):
        assert float(nll_loss_batch(Tensor([[0.0], [-800.0]]), [1]).data) == np.inf


def test_fused_loss_matches_five_step_composition_bits():
    # the loss node gives the value and logits adjoint of the composition
    # softmax -> gather true class -> log -> sum -> scale by -1/B, with its
    # backward steps in the same order: fill, divide, scatter, then the
    # softmax Jacobian product
    rng = np.random.default_rng(37)
    for n_b in (1, 5, 16):
        z = rng.normal(scale=3.0, size=(2, n_b))
        labels = np.where(rng.random(n_b) < 0.5, -1, 1)
        idx, cols, c = (labels + 1) // 2, np.arange(n_b), -1.0 / n_b
        e = np.exp(z - z.max(axis=0, keepdims=True))
        s = e / e.sum(axis=0, keepdims=True)
        value = np.log(s[idx, cols]).sum() * c
        g = np.zeros_like(s)
        g[idx, cols] = np.full(n_b, c) / s[idx, cols]
        adjoint = s * (g - (g * s).sum(axis=0, keepdims=True))

        logits = Tensor(z)
        root = nll_loss_batch(logits, labels)
        ad.backward(root)
        assert root.data == value and root.op == "nll" and root.parents == (logits,)
        assert np.array_equal(logits.adjoint, adjoint)


def test_nll_gradient_is_softmax_minus_onehot():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=5)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, cfg.n_marks, cfg.n_bins))
    labels = np.array([1, -1, -1, 1])
    bf = forward_batch(x, params, cfg)
    ad.backward(nll_loss_batch(bf.logits, labels))
    probs = logits_to_probs(bf.logits.data)
    onehot = np.zeros_like(probs)
    onehot[labels_to_class_indices(labels), np.arange(4)] = 1.0
    np.testing.assert_allclose(bf.logits.adjoint, (probs - onehot) / 4.0, atol=1e-12)


def test_init_deterministic_and_bounded():
    cfg = ModelConfig(n_marks=5, n_bins=100, variant="lstm-alpha-beta")
    a, b = init_params(cfg, seed=7), init_params(cfg, seed=7)
    for (name, va), (_, vb) in zip(a.named_blocks(), b.named_blocks()):
        assert np.array_equal(va, vb), name
    assert any(not np.array_equal(va, vc) for (_, va), (_, vc) in
               zip(a.named_blocks(), init_params(cfg, seed=8).named_blocks()))

    for name, v in a.named_blocks():
        base = name.rsplit(".", 1)[-1]
        if base.startswith("b_") or base == "b":
            if base == "b_f":
                assert np.all(v == 1.0), name
            else:
                assert np.all(v == 0.0), name
        else:
            fan_in = v.shape[1] if v.ndim == 2 else v.shape[0]
            assert np.abs(v).max() <= 1.0 / np.sqrt(fan_in), name


def test_parameter_count_matches_closed_form():
    cfg = ModelConfig(n_marks=5, n_bins=100, d=32, d_hm=16, variant="lstm-alpha-beta")
    params = init_params(cfg, seed=0)

    def lstm_block(d, n_in):
        return 4 * (d * n_in + d * d + d)

    expected = (
        5 * 2 * lstm_block(32, 1)        # per-mark encoders, both directions
        + 2 * lstm_block(16, 64)         # mark-level encoder
        + 64 + 32                        # bin and mark contexts
        + 2 * 32 + 2                     # classifier
    )
    assert params.flat.size == expected == 54050
    # the per-name views cover every entry of the flat vector exactly once
    positions = np.concatenate(list(flat_positions(params).values()))
    assert np.array_equal(np.sort(positions), np.arange(expected))


def test_alpha_rows_permute_with_their_marks():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=9)
    x = np.random.default_rng(10).normal(size=(2, cfg.n_marks, cfg.n_bins))
    _, alpha, beta = score(x, params, cfg)

    perm = [2, 0, 1]
    permuted = params.copy()
    stacks = params.blocks["bin_lstm"]                                  # (2M, 4d, n_a)
    by_mark = stacks.reshape(cfg.n_marks, 2, *stacks.shape[1:])
    permuted.blocks["bin_lstm"][...] = by_mark[perm].reshape(stacks.shape)
    _, moved_alpha, moved_beta = score(x[:, perm], permuted, cfg)
    for k, j in enumerate(perm):
        assert np.array_equal(moved_alpha[k], alpha[j])
    # beta is order sensitive by design (the mark encoder consumes a sequence)
    assert moved_beta.shape == beta.shape


def componentwise_forward(x, params, cfg, shift_mark0=None):
    """lstm-alpha-beta on one (M, T) sample, assembled from the production
    scan and pool one mark at a time. With ``shift_mark0``, that constant
    is added to mark 0's bin scores before normalizing, through one more
    coordinate: 1 in the context, the constant in every encoded step."""
    blocks = params.blocks
    summaries = []
    alphas = []
    for j in range(cfg.n_marks):
        h = bilstm_encode_steps(Tensor(x[j].reshape(cfg.n_bins, 1, 1, 1)),
                                Tensor(blocks["bin_lstm"][2 * j:2 * j + 2])).data
        context = blocks["bin_context"][0 if cfg.share_bin_context else j]
        if j == 0 and shift_mark0 is not None:
            h = np.concatenate([h, np.full((cfg.n_bins, 1, 1, 1), shift_mark0)], axis=2)
            context = np.append(context, 1.0)
        weights, pooled = _attend_steps(Tensor(h), Tensor(context[None]))
        alphas.append(weights[:, 0, 0])
        summaries.append(pooled.data[None, :2 * cfg.d])
    seq = np.stack([summaries[j] for j in cfg.order])                   # (M, 1, 2d, 1)
    s = bilstm_encode_steps(Tensor(seq), Tensor(blocks["mark_lstm"]))
    beta_seq, gene_vec = _attend_steps(s, Tensor(blocks["mark_context"]))
    logits = ad.affine(Tensor(blocks["classifier.w"]), Tensor(gene_vec.data),
                       Tensor(blocks["classifier.b"]))
    probs = logits_to_probs(logits.data)[:, 0]
    return probs, np.stack(alphas), beta_seq[:, 0, 0]


def test_componentwise_assembly_matches_forward():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=15)
    x = np.random.default_rng(16).normal(size=(cfg.n_marks, cfg.n_bins))
    probs, alpha, _ = componentwise_forward(x, params, cfg)
    batch_probs, batch_alpha, _ = score(x[None], params, cfg)
    assert abs(probs[1] - batch_probs[1, 0]) < 1e-12
    np.testing.assert_allclose(alpha, batch_alpha[:, :, 0], atol=1e-12)


def test_bin_score_shift_leaves_prediction_bit_identical():
    # shifting by the negated maximum is exact in floating point, so the
    # prediction must not move by even one bit
    cfg = tiny_cfg()
    params = init_params(cfg, seed=17)
    x = np.random.default_rng(18).normal(size=(cfg.n_marks, cfg.n_bins))

    h0 = bilstm_encode_steps(Tensor(x[0].reshape(cfg.n_bins, 1, 1, 1)),
                             Tensor(params.blocks["bin_lstm"][:2])).data
    c = -float((h0 * params.blocks["bin_context"][0][:, None]).sum(axis=2).max())  # the scores

    base = componentwise_forward(x, params, cfg)
    shifted = componentwise_forward(x, params, cfg, shift_mark0=c)
    for a, b in zip(base, shifted):
        assert np.array_equal(a, b)


def _block_gradients(cfg, seed, n_samples=2, n_entries=3):
    params = init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(n_samples, cfg.n_marks, cfg.n_bins))
    labels = np.where(rng.random(n_samples) < 0.5, -1, 1)
    if np.all(labels == labels[0]):
        labels[0] = -labels[0]

    bf = forward_batch(x, params, cfg)
    ad.backward(nll_loss_batch(bf.logits, labels))

    def f():
        out = forward_batch(x, params, cfg)
        return float(nll_loss_batch(out.logits, labels).data)

    worst = 0.0
    positions = flat_positions(params)
    for name, analytic in named_gradients(bf, params).items():
        idx = rng.choice(analytic.size, size=min(n_entries, analytic.size), replace=False)
        numeric = finite_diff_entries(f, params.flat, positions[name][idx])
        worst = max(worst, max_rel_error(analytic.reshape(-1)[idx], numeric))
    return worst


@pytest.mark.parametrize("variant", ["lstm", "lstm-attn", "lstm-alpha", "lstm-alpha-beta"])
def test_every_block_gradient_sampled(variant):
    err = _block_gradients(tiny_cfg(variant), seed=21)
    assert err < 1e-4, f"{variant}: max rel err {err:.2e}"


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["lstm", "lstm-attn", "lstm-alpha", "lstm-alpha-beta"]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_prediction_is_a_probability_distribution(variant, seed):
    cfg = ModelConfig(n_marks=2, n_bins=5, d=3, d_hm=2, variant=variant)
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed=seed % 1000)
    probs, _, _ = score(3 * np.abs(rng.normal(size=(3, 2, 5))), params, cfg)
    assert np.all((0.0 <= probs) & (probs <= 1.0))
    assert np.abs(probs.sum(axis=0) - 1.0).max() <= 1e-12


def test_concurrent_forward_over_shared_parameters():
    # distinct graphs over a read-only store may run in parallel; results
    # must match the serial ones bit for bit
    import concurrent.futures

    cfg = tiny_cfg()
    params = init_params(cfg, seed=19)
    rng = np.random.default_rng(20)
    inputs = [rng.normal(size=(2, cfg.n_marks, cfg.n_bins)) for _ in range(8)]
    serial = [score(x, params, cfg)[0].tolist() for x in inputs]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda x: score(x, params, cfg)[0].tolist(), inputs))
    assert serial == threaded


def test_forward_rejects_bad_shapes():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=1)
    with pytest.raises(DimensionError):
        forward_batch(np.zeros((3, 8)), params, cfg)
    with pytest.raises(DimensionError):
        forward_batch(np.zeros((1, 3, 9)), params, cfg, grad=False)


def test_config_validation():
    with pytest.raises(ContractError):
        ModelConfig(n_marks=0, n_bins=10)
    with pytest.raises(ContractError):
        ModelConfig(n_marks=2, n_bins=10, variant="cnn")
    with pytest.raises(ContractError):
        ModelConfig(n_marks=3, n_bins=10, mark_order=(0, 1))


@pytest.mark.parametrize("variant", ["lstm", "lstm-attn", "lstm-alpha", "lstm-alpha-beta"])
def test_checkpoint_round_trip_is_bit_exact(tmp_path, variant):
    cfg = tiny_cfg(variant)
    params = init_params(cfg, seed=33)
    path = os.path.join(tmp_path, "model.ckpt")
    save_checkpoint(path, cfg, 33, params)
    cfg2, seed2, params2 = load_checkpoint(path)
    assert cfg2 == cfg and seed2 == 33
    for (na, va), (nb, vb) in zip(params.named_blocks(), params2.named_blocks()):
        assert na == nb
        assert np.array_equal(va, vb), na


def test_checkpoint_bytes_are_deterministic(tmp_path):
    cfg = tiny_cfg()
    params = init_params(cfg, seed=1)
    p1, p2 = os.path.join(tmp_path, "a"), os.path.join(tmp_path, "b")
    save_checkpoint(p1, cfg, 1, params)
    save_checkpoint(p2, cfg, 1, params)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = os.path.join(tmp_path, "bad")
    with open(path, "wb") as fh:
        fh.write(b"not a checkpoint\n{}\n")
    with pytest.raises(ContractError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    cfg = tiny_cfg()
    path = os.path.join(tmp_path, "trunc")
    save_checkpoint(path, cfg, 1, init_params(cfg, seed=1))
    blob = Path(path).read_bytes()
    with open(path, "wb") as fh:
        fh.write(blob[:-16])
    with pytest.raises(ContractError):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [{"d": 400}, {"d_hm": 5000}, {"n_marks": 10**9}])
def test_checkpoint_header_cannot_demand_memory(tmp_path, edit):
    # blocks stay at d=8: before this bound, a d=400 header allocated a
    # 49.5 MB template (d^2 growth) before it compared any shape
    cfg = ModelConfig(n_marks=5, n_bins=100, d=8, d_hm=16, variant="lstm-alpha-beta")
    path = os.path.join(tmp_path, "model.ckpt")
    save_checkpoint(path, cfg, 3, init_params(cfg, seed=3))
    magic, head, body = Path(path).read_bytes().split(b"\n", 2)
    header = json.loads(head)
    header["config"].update(edit)
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + json.dumps(header).encode() + b"\n" + body)
    tracemalloc.start()
    try:
        with pytest.raises(ContractError, match="shape|names"):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


# sha256 of save_checkpoint(init_params(cfg, seed=5)) at TINY shapes, recorded
# before the parameters moved into one flat vector: checkpoint bytes and the
# initialization draw order must not change with the store's layout
CHECKPOINT_DIGESTS = [
    ("lstm", True, None, "bda74755f9f06bf67f208d815c49e7f138d01c2bf01a17a82feeada4384b0a18"),
    ("lstm-attn", True, None, "ce7593f7066d8f4be2de568ca8443a59e5b1d1d30af1cf03d841cf1285c8c354"),
    ("lstm-alpha", True, None, "12639d009e7546a34b6436cf84c404c9cb3f01e335cbf7b0fbccbc8bcab23b9a"),
    ("lstm-alpha-beta", True, None,
     "94dd44f732c8327c33beb30a124ae2e14193c70d440be220d39865d4e1adff59"),
    ("lstm-alpha-beta", False, (2, 0, 1),
     "a18cd6318653ee0d0be05beb40a169e29af52537cbe50a6d13cebc61dc06442c"),
]


@pytest.mark.parametrize("variant,share,order,digest", CHECKPOINT_DIGESTS)
def test_checkpoint_bytes_match_recorded_digest(tmp_path, variant, share, order, digest):
    cfg = tiny_cfg(variant, share_bin_context=share, mark_order=order)
    path = os.path.join(tmp_path, "model.ckpt")
    save_checkpoint(path, cfg, 5, init_params(cfg, seed=5))
    assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    cfg = tiny_cfg(share_bin_context=False, mark_order=(2, 0, 1))
    path = str(tmp_path_factory.mktemp("fuzz") / "model.ckpt")
    save_checkpoint(path, cfg, 5, init_params(cfg, seed=5))
    return path, Path(path).read_bytes()


@settings(max_examples=300)
@given(st.data())
def test_checkpoint_loader_fuzz_fails_only_typed(valid_checkpoint, data):
    # any truncation, extension or byte flip of a valid container either
    # loads or raises ContractError / IngestionError, never anything else
    path, blob = valid_checkpoint
    mutated = data.draw(corrupted(blob))
    with open(path, "wb") as fh:
        fh.write(mutated)
    try:
        cfg, _, params = load_checkpoint(path)
    except (ContractError, IngestionError):
        return
    assert np.isfinite(params.flat).all()
    assert params.flat.size * 8 == len(mutated.split(b"\n", 2)[2])

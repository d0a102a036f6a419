import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gradcheck import assert_grads_match, finite_diff
from trackattn import autodiff as ad
from trackattn.errors import ContractError, DimensionError
from trackattn.model import labels_to_class_indices, logits_to_probs, nll_loss_batch


def T(x):
    return ad.Tensor(np.asarray(x, dtype=np.float64))


def col(z):
    """z as one column: the single-sample form of the column-wise ops."""
    return T(np.asarray(z, dtype=np.float64)[:, None])


def weighted_sum(out, weights):
    """The scalar that ``ad.backward(out, weights)`` differentiates."""
    return float((out.data * weights).sum())


# ---------------------------------------------------------------- affine


def test_affine_identity():
    y = ad.affine(T(np.eye(2)), col([3.0, -1.0]), T([0.0, 0.0]))
    np.testing.assert_array_equal(y.data, [[3.0], [-1.0]])


def test_affine_zero_weights_returns_bias():
    y = ad.affine(T(np.zeros((2, 3))), col([9.0, -4.0, 2.5]), T([1.0, 2.0]))
    np.testing.assert_array_equal(y.data, [[1.0], [2.0]])


def test_affine_forced_2x2():
    y = ad.affine(T([[1.0, 2.0], [3.0, 4.0]]), col([1.0, 1.0]), T([0.0, 0.0]))
    np.testing.assert_array_equal(y.data, [[3.0], [7.0]])


def test_affine_without_bias_and_batched():
    w = np.arange(6.0).reshape(2, 3)
    x = np.arange(12.0).reshape(3, 4)
    y = ad.affine(T(w), T(x), T([1.0, -1.0]))
    np.testing.assert_allclose(y.data, w @ x + np.array([[1.0], [-1.0]]))


def test_affine_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.affine(T(np.eye(2)), col([1.0, 2.0, 3.0]), T([0.0, 0.0]))
    with pytest.raises(DimensionError):
        ad.affine(T(np.eye(2)), col([1.0, 2.0]), T([0.0, 0.0, 0.0]))
    with pytest.raises(DimensionError):
        ad.affine(T(np.eye(2)), T([1.0, 2.0]), T([0.0, 0.0]))   # a flat vector is not a column


# ---------------------------------------------------------------- elementwise


def test_elementwise_examples():
    assert ad.tanh(T([0.0])).data[0] == 0.0
    np.testing.assert_array_equal(ad.tanh(T([[-30.0, 30.0]])).data, [[-1.0, 1.0]])


# ---------------------------------------------------------------- softmax
# the one softmax: the loss node and both attention pools normalize with
# model.logits_to_probs


def test_softmax_equal_logits_uniform():
    for c in (0.0, -3.5, 700.0):
        s = logits_to_probs(np.full((4, 1), c))
        np.testing.assert_array_equal(s[:, 0], [0.25, 0.25, 0.25, 0.25])


def test_softmax_single_element():
    np.testing.assert_array_equal(logits_to_probs(np.array([[5.0]])), [[1.0]])


def test_softmax_empty_input():
    # the loss node's softmax needs a (2, B) logit matrix with B >= 1
    for logits, labels in ((np.zeros((0, 1)), [1]), (np.zeros((2, 0)), []), ([1.0, 2.0], [1, -1])):
        with pytest.raises(DimensionError):
            nll_loss_batch(T(logits), labels)


def test_softmax_shift_by_negated_max_is_bit_exact():
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = rng.normal(size=(8, 3))
        shifted = z - z.max(axis=0)
        assert np.array_equal(logits_to_probs(z), logits_to_probs(shifted))


def test_softmax_exact_dyadic_shift_is_bit_exact():
    # entries on a dyadic grid so that adding an integer constant is exact
    rng = np.random.default_rng(11)
    z = rng.integers(-64, 64, size=(10, 2)) / 16.0
    assert np.array_equal(logits_to_probs(z), logits_to_probs(z + 7.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30))
def test_softmax_is_probability_vector(zs):
    s = logits_to_probs(np.array(zs)[:, None])
    assert (s >= 0).all()
    assert abs(s.sum() - 1.0) <= 1e-12


def test_softmax_columnwise():
    z = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    s = logits_to_probs(z)
    np.testing.assert_allclose(s.sum(axis=0), [1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(s[:, 1], [1 / 3, 1 / 3, 1 / 3])
    # an attention stack (T, K, B) normalizes over its leading step axis alone
    steps = np.random.default_rng(13).normal(size=(6, 2, 3))
    for k, b in np.ndindex(2, 3):
        assert np.array_equal(logits_to_probs(steps)[:, k, b],
                              logits_to_probs(steps[:, k, b:b + 1])[:, 0])


# ---------------------------------------------------------------- backward


def test_backward_square():
    x = T([[3.0]])
    root = ad.affine(x, x, T([0.0]))        # x times itself: two paths into one leaf
    grads = ad.backward(root)
    assert grads[x][0, 0] == 6.0


def test_backward_nll_closed_form():
    rng = np.random.default_rng(3)
    for n_b in (1, 5):
        z = T(rng.normal(size=(2, n_b)))
        labels = np.where(rng.random(n_b) < 0.5, -1, 1)
        ad.backward(nll_loss_batch(z, labels))
        expected = logits_to_probs(z.data)
        expected[labels_to_class_indices(labels), np.arange(n_b)] -= 1.0
        np.testing.assert_allclose(z.adjoint, expected / n_b, atol=1e-12)


def test_backward_rejects_non_scalar_root():
    with pytest.raises(ContractError):
        ad.backward(T([1.0, 2.0]))


def test_backward_seed_is_the_root_adjoint():
    rng = np.random.default_rng(29)
    w, x, b = T(rng.normal(size=(2, 3))), T(rng.normal(size=(3, 4))), T(rng.normal(size=2))
    out = ad.tanh(ad.affine(w, x, b))
    seed = rng.normal(size=(2, 4))
    kept = seed.copy()
    ad.backward(out, seed)
    assert np.array_equal(out.adjoint, seed) and np.array_equal(seed, kept)
    dz = seed * (1.0 - out.data ** 2)
    np.testing.assert_allclose(w.adjoint, dz @ x.data.T, rtol=1e-14)
    np.testing.assert_allclose(x.adjoint, w.data.T @ dz, rtol=1e-14)
    np.testing.assert_allclose(b.adjoint, dz.sum(axis=1), rtol=1e-14)
    for bad in (seed[:, :3], seed.T, seed[None], 1.0):
        with pytest.raises(DimensionError):
            ad.backward(out, bad)


def test_leaf_rejects_non_finite():
    with pytest.raises(ContractError):
        T([1.0, np.nan])
    with pytest.raises(ContractError):
        T([np.inf])


def test_gradient_accumulation_matches_single_use_rewiring():
    # w feeds two affine nodes at two depths; the rewired graph uses two
    # identical copies
    rng = np.random.default_rng(5)
    wdata = rng.normal(size=(3, 3))
    x, b = T(rng.normal(size=(3, 4))), T(rng.normal(size=3))
    seed = rng.normal(size=(3, 4))

    def root(w1, w2):
        return ad.affine(w2, ad.tanh(ad.affine(w1, x, b)), b)

    w = T(wdata)
    ad.backward(root(w, w), seed)
    wa, wb = T(wdata), T(wdata)
    ad.backward(root(wa, wb), seed)
    np.testing.assert_array_equal(w.adjoint, wa.adjoint + wb.adjoint)


def test_backward_composite_matches_finite_differences():
    rng = np.random.default_rng(17)
    arrays = [rng.normal(size=s) for s in [(3, 4), (4, 2), (3,), (2, 3), (2,)]]
    weights = rng.normal(size=(2, 2))

    def build(w, x, b, v, c):
        # s is both the weight and, through tanh, the input of the last
        # node, and c biases two nodes: adjoints accumulate on both
        h = ad.tanh(ad.affine(w, x, b))
        s = ad.affine(v, h, c)
        return ad.affine(s, ad.tanh(s), c)

    leaves = [T(a) for a in arrays]
    ad.backward(build(*leaves), weights)
    numeric = finite_diff(
        lambda *arrs: weighted_sum(build(*[T(a) for a in arrs]), weights), arrays)
    for leaf, num in zip(leaves, numeric):
        assert_grads_match(leaf.adjoint, num, label="composite")


def test_tape_is_deterministic():
    rng = np.random.default_rng(23)
    w, x, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 3)), rng.normal(size=4)

    def run():
        wt, xt = T(w), T(x)
        out = ad.tanh(ad.affine(wt, xt, T(b)))
        ad.backward(out, np.ones_like(out.data))
        return out.data.copy(), wt.adjoint.copy(), xt.adjoint.copy()

    r1, gw1, gx1 = run()
    r2, gw2, gx2 = run()
    assert np.array_equal(r1, r2)
    assert np.array_equal(gw1, gw2)
    assert np.array_equal(gx1, gx2)


# ------------------------------------------------- per-op gradient sweep

RNG = np.random.default_rng(2024)


def _sweep_case(builder, *shapes):
    arrays = [RNG.normal(size=s) for s in shapes]
    probe = builder(*[T(a) for a in arrays])
    weights = RNG.normal(size=probe.data.shape)

    leaves = [T(a) for a in arrays]
    ad.backward(builder(*leaves), weights)
    numeric = finite_diff(lambda *arrs: weighted_sum(builder(*[T(a) for a in arrs]), weights),
                          arrays)
    for leaf, num in zip(leaves, numeric):
        assert_grads_match(leaf.adjoint, num)


OP_CASES = [
    ("affine_vec", ad.affine, [(2, 3), (3, 1), (2,)]),
    ("affine_mat", ad.affine, [(2, 3), (3, 4), (2,)]),
    ("tanh", ad.tanh, [(4,)]),
]


@pytest.mark.parametrize("name,builder,shapes", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_gradients_match_finite_differences(name, builder, shapes):
    _sweep_case(builder, *shapes)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gradcheck import assert_grads_match, finite_diff
from trackattn import autodiff as ad
from trackattn.errors import ContractError, DimensionError


def T(x):
    return ad.Tensor(np.asarray(x, dtype=np.float64))


def col(z):
    """z as one column: the single-sample form of the column-wise ops."""
    return T(np.asarray(z, dtype=np.float64)[:, None])


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
    np.testing.assert_array_equal(
        ad.hadamard(T([2.0, 3.0]), T([4.0, 0.5])).data, [8.0, 1.5]
    )


def test_elementwise_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.hadamard(T([1.0, 2.0]), T([1.0]))
    with pytest.raises(DimensionError):
        ad.hadamard(T([1.0, 2.0]), T([[1.0, 2.0]]))


# ---------------------------------------------------------------- softmax


def test_softmax_equal_logits_uniform():
    for c in (0.0, -3.5, 700.0):
        s = ad.softmax(col([c, c, c, c]))
        np.testing.assert_array_equal(s.data[:, 0], [0.25, 0.25, 0.25, 0.25])


def test_softmax_single_element():
    np.testing.assert_array_equal(ad.softmax(col([5.0])).data, [[1.0]])


def test_softmax_empty_input():
    with pytest.raises(DimensionError):
        ad.softmax(T(np.zeros((0, 1))))
    with pytest.raises(DimensionError):
        ad.softmax(T([1.0, 2.0]))                       # columns only


def test_softmax_shift_by_negated_max_is_bit_exact():
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = rng.normal(size=(8, 3))
        shifted = z - z.max(axis=0)
        assert np.array_equal(ad.softmax(T(z)).data, ad.softmax(T(shifted)).data)


def test_softmax_exact_dyadic_shift_is_bit_exact():
    # entries on a dyadic grid so that adding an integer constant is exact
    rng = np.random.default_rng(11)
    z = rng.integers(-64, 64, size=(10, 2)) / 16.0
    assert np.array_equal(ad.softmax(T(z)).data, ad.softmax(T(z + 7.0)).data)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30))
def test_softmax_is_probability_vector(zs):
    s = ad.softmax(col(zs)).data
    assert (s >= 0).all()
    assert abs(s.sum() - 1.0) <= 1e-12


def test_softmax_columnwise():
    z = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    s = ad.softmax(T(z)).data
    np.testing.assert_allclose(s.sum(axis=0), [1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(s[:, 1], [1 / 3, 1 / 3, 1 / 3])


# ---------------------------------------------------------------- backward


def test_backward_square():
    x = T(3.0)
    root = ad.hadamard(x, x)
    grads = ad.backward(root)
    assert grads[x] == pytest.approx(6.0, abs=1e-15)


def test_backward_nll_closed_form():
    rng = np.random.default_rng(3)
    z = col(rng.normal(size=5))
    k = 2
    root = ad.scale(ad.sum_all(ad.log(ad.pick_cols(ad.softmax(z), np.array([k])))), -1.0)
    ad.backward(root)
    expected = ad.softmax(z).data.copy()
    expected[k] -= 1.0
    np.testing.assert_allclose(z.adjoint, expected, atol=1e-12)


def test_backward_rejects_non_scalar_root():
    with pytest.raises(ContractError):
        ad.backward(T([1.0, 2.0]))


def test_leaf_rejects_non_finite():
    with pytest.raises(ContractError):
        T([1.0, np.nan])
    with pytest.raises(ContractError):
        T([np.inf])


def test_gradient_accumulation_matches_single_use_rewiring():
    # w feeds two branches; the rewired graph uses two identical copies
    rng = np.random.default_rng(5)
    wdata = rng.normal(size=(2, 3))
    x1, x2, b = T(rng.normal(size=(3, 4))), T(rng.normal(size=(3, 4))), T(rng.normal(size=2))

    def root(w1, w2):
        return ad.sum_all(ad.hadamard(ad.tanh(ad.affine(w1, x1, b)), ad.affine(w2, x2, b)))

    w = T(wdata)
    ad.backward(root(w, w))
    wa, wb = T(wdata), T(wdata)
    ad.backward(root(wa, wb))
    np.testing.assert_array_equal(w.adjoint, wa.adjoint + wb.adjoint)


def test_backward_composite_matches_finite_differences():
    rng = np.random.default_rng(17)
    arrays = [rng.normal(size=s) for s in [(3, 4), (4, 2), (3,), (2, 3), (2,)]]

    def build(w, x, b, v, c):
        # s reused on two paths to exercise adjoint accumulation
        h = ad.tanh(ad.affine(w, x, b))
        s = ad.affine(v, h, c)
        return ad.sum_all(ad.hadamard(ad.softmax(s), ad.tanh(s)))

    leaves = [T(a) for a in arrays]
    ad.backward(build(*leaves))
    numeric = finite_diff(lambda *arrs: float(build(*[T(a) for a in arrs]).data), arrays)
    for leaf, num in zip(leaves, numeric):
        assert_grads_match(leaf.adjoint, num, label="composite")


def test_tape_is_deterministic():
    rng = np.random.default_rng(23)
    w, x, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 3)), rng.normal(size=4)

    def run():
        wt, xt = T(w), T(x)
        root = ad.sum_all(ad.tanh(ad.affine(wt, xt, T(b))))
        ad.backward(root)
        return root.data.copy(), wt.adjoint.copy(), xt.adjoint.copy()

    r1, gw1, gx1 = run()
    r2, gw2, gx2 = run()
    assert np.array_equal(r1, r2)
    assert np.array_equal(gw1, gw2)
    assert np.array_equal(gx1, gx2)


# ------------------------------------------------- per-op gradient sweep

RNG = np.random.default_rng(2024)


def _sweep_case(builder, *shapes, positive=False):
    arrays = [RNG.normal(size=s) for s in shapes]
    if positive:
        arrays = [np.abs(a) + 0.5 for a in arrays]
    probe = builder(*[T(a) for a in arrays])
    weights = RNG.normal(size=probe.data.shape)

    def run(*arrs):
        out = builder(*[T(a) for a in arrs])
        return float(ad.sum_all(ad.hadamard(out, T(weights))).data)

    leaves = [T(a) for a in arrays]
    root = ad.sum_all(ad.hadamard(builder(*leaves), T(weights)))
    ad.backward(root)
    numeric = finite_diff(run, arrays)
    for leaf, num in zip(leaves, numeric):
        assert_grads_match(leaf.adjoint, num)


OP_CASES = [
    ("affine_vec", ad.affine, [(2, 3), (3, 1), (2,)], {}),
    ("affine_mat", ad.affine, [(2, 3), (3, 4), (2,)], {}),
    ("hadamard", ad.hadamard, [(3, 2), (3, 2)], {}),
    ("tanh", ad.tanh, [(4,)], {}),
    ("softmax_vec", ad.softmax, [(5, 1)], {}),
    ("softmax_cols", ad.softmax, [(4, 3)], {}),
    ("log", ad.log, [(4,)], {"positive": True}),
    ("reshape", lambda t: ad.reshape(t, (6,)), [(2, 3)], {}),
    ("pick_cols", lambda m: ad.pick_cols(m, np.array([1, 0, 2])), [(3, 3)], {}),
    ("scale", lambda t: ad.scale(t, -2.5), [(3, 2)], {}),
    ("sum_all", ad.sum_all, [(3, 2)], {}),
]


@pytest.mark.parametrize("name,builder,shapes,kw", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_gradients_match_finite_differences(name, builder, shapes, kw):
    _sweep_case(builder, *shapes, **kw)


def test_pick_cols_values_and_bounds():
    m = T(np.arange(6.0).reshape(2, 3))
    picked = ad.pick_cols(m, np.array([0, 1, 0]))
    np.testing.assert_array_equal(picked.data, [0.0, 4.0, 2.0])
    with pytest.raises(DimensionError):
        ad.pick_cols(m, np.array([0, 2, 0]))

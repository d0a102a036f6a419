"""Properties of the soft-attention pool, ``model._attend_steps``: over a
(T, K, d_h, B) stack it normalizes context dot-product scores over the T
steps of each sequence and batch column, and sums the steps by weight."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gradcheck import assert_grads_match, finite_diff
from trackattn import autodiff as ad
from trackattn.autodiff import Tensor
from trackattn.errors import DimensionError
from trackattn.model import _attend_steps


def attend(steps, *contexts):
    """Weights (T, K, B) and summaries (K, d_h, B) as arrays; the contexts
    are stacked into the (1 or K, d_h) array the pool takes."""
    weights, pooled = _attend_steps(Tensor(steps), Tensor(np.stack(contexts)))
    return weights, pooled.data


def test_zero_context_gives_uniform_weights_and_column_mean():
    steps = np.random.default_rng(0).normal(size=(4, 2, 3, 5))
    w, m = attend(steps, np.zeros(3))
    np.testing.assert_array_equal(w, np.full((4, 2, 5), 0.25))
    np.testing.assert_allclose(m, steps.mean(axis=0), atol=1e-15)


def test_single_candidate():
    rng = np.random.default_rng(1)
    steps = rng.normal(size=(1, 2, 5, 3))
    w, m = attend(steps, rng.normal(size=5))
    np.testing.assert_array_equal(w, np.ones((1, 2, 3)))
    np.testing.assert_array_equal(m, steps[0])


def test_duplicated_columns_share_weight():
    rng = np.random.default_rng(2)
    steps = rng.normal(size=(5, 2, 4, 3))
    steps[3] = steps[1]
    w, _ = attend(steps, rng.normal(size=4), rng.normal(size=4))
    assert np.array_equal(w[1], w[3])


def test_permutation_equivariance():
    rng = np.random.default_rng(3)
    steps = rng.normal(size=(6, 3, 4, 2))
    context = rng.normal(size=4)
    w, m = attend(steps, context)
    perm = rng.permutation(6)
    w2, m2 = attend(steps[perm], context)
    np.testing.assert_allclose(w2, w[perm], atol=1e-15)
    np.testing.assert_allclose(m2, m, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=3), st.booleans(),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_weights_form_probability_vector(d_h, t_len, n_k, per_sequence, seed):
    rng = np.random.default_rng(seed)
    steps = 3 * rng.normal(size=(t_len, n_k, d_h, 2))
    contexts = [3 * rng.normal(size=d_h) for _ in range(n_k if per_sequence else 1)]
    w, _ = attend(steps, *contexts)
    assert (w >= 0).all()
    assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-12


def test_score_shift_by_negated_max_leaves_output_bit_identical():
    # one more coordinate, 1 in the context and c in every step of a
    # column, adds c to that column's scores; at c = -max it is exact in
    # floating point, so neither the weights nor the summaries move a bit
    rng = np.random.default_rng(4)
    for d_h in (3, 8, 17):
        steps = rng.normal(size=(7, 2, d_h, 3))
        context = rng.normal(size=d_h)
        scores = (steps * context[:, None]).sum(axis=2)                  # the pool's own arithmetic
        shift = np.broadcast_to(-scores.max(axis=0)[None, :, None], (7, 2, 1, 3))
        w0, m0 = attend(steps, context)
        w1, m1 = attend(np.concatenate([steps, shift], axis=2), np.append(context, 1.0))
        assert np.array_equal(w0, w1)
        assert np.array_equal(m0, m1[:, :d_h])


def test_gradients_match_finite_differences():
    # one sequence, one column
    rng = np.random.default_rng(5)
    hd = rng.normal(size=(5, 1, 3, 1))
    cd = rng.normal(size=(1, 3))
    probe = rng.normal(size=(1, 3, 1))

    def run(h_arr, c_arr):
        _, m = _attend_steps(Tensor(h_arr), Tensor(c_arr))
        return ad.sum_all(ad.hadamard(m, Tensor(probe)))

    h_leaf, c_leaf = Tensor(hd), Tensor(cd)
    _, m = _attend_steps(h_leaf, c_leaf)
    ad.backward(ad.sum_all(ad.hadamard(m, Tensor(probe))))
    numeric = finite_diff(lambda h, c: float(run(h, c).data), [hd, cd])
    assert_grads_match(h_leaf.adjoint, numeric[0], label="H")
    assert_grads_match(c_leaf.adjoint, numeric[1], label="context")


def test_empty_candidates_rejected():
    # no pool sees an empty sequence: the scan that feeds it rejects T = 0
    # (test_lstm); what the pool itself checks is the context shapes
    steps = np.zeros((2, 3, 3, 1))
    with pytest.raises(DimensionError):
        attend(steps, np.zeros(4))                      # context length != d_h
    with pytest.raises(DimensionError):
        attend(steps, np.zeros(3), np.zeros(3))         # neither shared nor one per sequence
    with pytest.raises(DimensionError):
        attend(steps, np.zeros((3, 1)))                 # not a (1 or K, d_h) stack

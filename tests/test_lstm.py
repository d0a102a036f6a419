import dataclasses

import numpy as np
import pytest

from _gradcheck import assert_grads_match, finite_diff
from trackattn import autodiff as ad
from trackattn.autodiff import Tensor
from trackattn.errors import ContractError, DimensionError
from trackattn.lstm import GATES, BiLstmParams, LstmParams, bilstm_encode_steps


def make_arrays(rng, n_in, d, scale=1.0):
    out = []
    for _ in ("i", "f", "o", "g"):
        out += [scale * rng.normal(size=(d, n_in)),
                scale * rng.normal(size=(d, d)),
                scale * rng.normal(size=(d,))]
    return out


def zero_params(n_in, d):
    return LstmParams(*make_arrays(np.random.default_rng(0), n_in, d, scale=0.0))


def random_bilstm(rng, n_in, d, scale=0.6):
    return BiLstmParams(LstmParams(*make_arrays(rng, n_in, d, scale)),
                        LstmParams(*make_arrays(rng, n_in, d, scale)))


def scan(x, params):
    """Run the scan node over a (T, K, n_in, B) array."""
    return bilstm_encode_steps(Tensor(x), params)


def encode(seq, p):
    """The (2d, T) encoding of one (n_in, T) sequence: the scan at K=1, B=1,
    column t the forward state after steps 1..t on the backward state after
    steps T..t."""
    n_in, t_len = seq.shape
    out = scan(seq.T.reshape(t_len, 1, n_in, 1), [p]).data
    return out.reshape(t_len, 2 * p.d).T


def test_step_all_zero_parameters_zero_state():
    # every gate sits at sigmoid(0) = 0.5 and the candidate at tanh(0) = 0,
    # so from the zero state the cell and hidden state stay exactly zero
    x = np.random.default_rng(0).normal(size=(1, 2, 2, 3))
    out = scan(x, [BiLstmParams(zero_params(2, 3), zero_params(2, 3))] * 2)
    assert out.data.shape == (1, 2, 6, 3)
    np.testing.assert_array_equal(out.data, np.zeros((1, 2, 6, 3)))


def hand_set_carry_params():
    """Zero recurrences, forget and output gates at exactly 0.5; the input
    gate and candidate saturate to exactly 1 at x = 0 and sit at 0.5 and
    0 at x = 1."""
    p = zero_params(1, 1)
    p.w_i[:] = -40.0
    p.b_i[:] = 40.0
    p.w_g[:] = -40.0
    p.b_g[:] = 40.0
    return BiLstmParams(p, p)


def test_step_forget_gate_carries_cell_over_two_steps():
    # forward: step 1 (x=0) writes c = 1*1 = 1; step 2 (x=1) keeps
    # f*c = 0.5 and adds i*g = 0.5*0, so h = 0.5*tanh(0.5). The backward
    # direction reads x=1 first (c stays 0), then x=0 (c = 0.5*0 + 1).
    out = scan(np.array([0.0, 1.0]).reshape(2, 1, 1, 1), [hand_set_carry_params()]).data
    assert out[1, 0, 0, 0] == 0.5 * np.tanh(0.5)
    assert out[1, 0, 0, 0] == pytest.approx(0.23105857863, abs=1e-11)
    assert out[0, 0, 0, 0] == 0.5 * np.tanh(1.0)
    assert out[1, 0, 1, 0] == 0.0
    assert out[0, 0, 1, 0] == 0.5 * np.tanh(1.0)


def test_step_shape_mismatch():
    p = BiLstmParams(zero_params(2, 3), zero_params(2, 3))
    with pytest.raises(DimensionError):
        scan(np.zeros((4, 1, 5, 2)), [p])              # n_in 5 != 2
    with pytest.raises(DimensionError):
        scan(np.zeros((4, 2, 2, 2)), [p])              # two sequences, one parameter set
    with pytest.raises(DimensionError):
        scan(np.zeros((4, 2, 2)), [p])                 # not (T, K, n_in, B)
    with pytest.raises(DimensionError):
        scan(np.zeros((0, 1, 2, 2)), [p])              # no steps
    wide = BiLstmParams(zero_params(2, 4), zero_params(2, 4))
    with pytest.raises(DimensionError):
        scan(np.zeros((4, 2, 2, 2)), [p, wide])        # d differs between sequences


def test_step_gradients_match_finite_differences():
    # two sequences, three batch columns, four steps: every gate block of
    # both directions of both sequences, and every input cell
    rng = np.random.default_rng(42)
    arrays = [a for _ in range(4) for a in make_arrays(rng, 2, 3, scale=0.6)]
    x = rng.normal(size=(4, 2, 2, 3))
    weights = rng.normal(size=(4, 2, 6, 3))

    def params_of(arrs):
        return [BiLstmParams(LstmParams(*arrs[24 * k:24 * k + 12]),
                             LstmParams(*arrs[24 * k + 12:24 * k + 24])) for k in range(2)]

    def run(xv, *arrs):
        out = bilstm_encode_steps(Tensor(xv), params_of([Tensor(a) for a in arrs]))
        return ad.sum_all(ad.hadamard(out, Tensor(weights)))

    leaves = [Tensor(a) for a in arrays]
    x_leaf = Tensor(x)
    ad.backward(ad.sum_all(ad.hadamard(bilstm_encode_steps(x_leaf, params_of(leaves)),
                                       Tensor(weights))))
    numeric = finite_diff(lambda *arrs: float(run(*arrs).data), [x] + arrays)
    assert_grads_match(x_leaf.adjoint, numeric[0], label="input")
    names = [f.name for f in dataclasses.fields(LstmParams)]
    for n, (leaf, num) in enumerate(zip(leaves, numeric[1:])):
        assert_grads_match(leaf.adjoint, num, label=f"seq {n // 24} block {names[n % 12]}")


def test_scan_backward_runs_once():
    p = random_bilstm(np.random.default_rng(3), 1, 2)
    out = scan(np.ones((3, 1, 1, 2)), [p])
    ad.backward(ad.sum_all(out))
    with pytest.raises(ContractError):
        ad.backward(ad.sum_all(out))


def test_scan_mark_batched_equals_one_at_a_time():
    # stacking sequences changes no bit of any sequence's encoding or gradients
    rng = np.random.default_rng(11)
    params = [random_bilstm(rng, 1, 4) for _ in range(5)]
    x = rng.normal(size=(9, 5, 1, 6))
    weights = rng.normal(size=(9, 5, 8, 6))

    def encode(xk, ps, w):
        leaves = [[Tensor(v) for _, v in lp.named()] for p in ps for lp in (p.forward, p.backward)]
        bi = [BiLstmParams(LstmParams(*leaves[2 * k]), LstmParams(*leaves[2 * k + 1]))
              for k in range(len(ps))]
        x_leaf = Tensor(xk)
        out = bilstm_encode_steps(x_leaf, bi)
        ad.backward(ad.sum_all(ad.hadamard(out, Tensor(w))))
        return out.data, x_leaf.adjoint, [[t.adjoint for t in dirs] for dirs in leaves]

    stacked, dx, dparams = encode(x, params, weights)
    for k in range(5):
        alone, dx_k, dparams_k = encode(x[:, k:k + 1], params[k:k + 1], weights[:, k:k + 1])
        assert np.array_equal(stacked[:, k:k + 1], alone)
        assert np.array_equal(dx[:, k:k + 1], dx_k)
        for a, b in zip(dparams[2 * k] + dparams[2 * k + 1], dparams_k[0] + dparams_k[1]):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("t_len,n_in", [(1, 1), (2, 3), (9, 1)])
def test_tape_free_scan_gives_the_same_bits_as_a_constant(t_len, n_in):
    rng = np.random.default_rng(13)
    params = [random_bilstm(rng, n_in, 4) for _ in range(3)]
    x = Tensor(rng.normal(size=(t_len, 3, n_in, 5)))
    taped, free = bilstm_encode_steps(x, params), bilstm_encode_steps(x, params, keep=False)
    assert taped.op == "bilstm_scan" and taped.parents
    assert np.array_equal(free.data, taped.data)
    assert free.parents == () and free._bwd is None


def test_sigmoid_saturates_without_overflow():
    # gate pre-activations of +-1e4: the half-angle gates saturate to
    # exactly 0 and 1, forward and backward, with no floating-point warning
    p = zero_params(1, 2)
    for g in GATES:
        getattr(p, f"b_{g}")[:] = [1e4, -1e4] if g == "i" else 1e4
    leaves = [Tensor(v) for _, v in p.named()]
    x = Tensor(np.ones((2, 1, 1, 1)))
    with np.errstate(all="raise"):
        out = bilstm_encode_steps(x, [BiLstmParams(LstmParams(*leaves), LstmParams(*leaves))])
        ad.backward(ad.sum_all(out))
    # unit 0: i = f = o = g = 1, so c_t = t and h_t = tanh(t); unit 1: i = 0
    np.testing.assert_array_equal(out.data[:, 0, :2, 0], [[np.tanh(1.0), 0.0],
                                                          [np.tanh(2.0), 0.0]])
    assert all(np.isfinite(t.adjoint).all() for t in [x] + leaves)


def test_encode_single_step_matches_cell_equations():
    rng = np.random.default_rng(1)
    p = random_bilstm(rng, 3, 4)
    seq = rng.normal(size=(3, 1))
    H = encode(seq, p)

    def cell(lp, x):
        sig = lambda z: 1.0 / (1.0 + np.exp(-z))  # noqa: E731
        i = sig(lp.w_i @ x + lp.b_i)
        o = sig(lp.w_o @ x + lp.b_o)
        g = np.tanh(lp.w_g @ x + lp.b_g)
        return o * np.tanh(i * g)

    expected = np.concatenate([cell(p.forward, seq[:, 0]), cell(p.backward, seq[:, 0])])
    np.testing.assert_allclose(H[:, 0], expected, rtol=0, atol=1e-15)


def test_encode_reversal_symmetry():
    rng = np.random.default_rng(2)
    p = random_bilstm(rng, 2, 3)
    seq = rng.normal(size=(2, 6))
    H = encode(seq, p)
    swapped = BiLstmParams(p.backward, p.forward)
    H_rev = encode(seq[:, ::-1], swapped)
    d = p.d
    flipped = np.concatenate([H_rev[d:, ::-1], H_rev[:d, ::-1]], axis=0)
    np.testing.assert_array_equal(H, flipped)


@pytest.mark.parametrize("t_len", [1, 2, 7])
def test_encode_zero_parameters_zero_output(t_len):
    p = BiLstmParams(zero_params(2, 3), zero_params(2, 3))
    H = encode(np.random.default_rng(3).normal(size=(2, t_len)), p)
    np.testing.assert_array_equal(H, np.zeros((6, t_len)))


def test_encode_causality_split():
    rng = np.random.default_rng(4)
    p = random_bilstm(rng, 2, 3)
    seq = rng.normal(size=(2, 8))
    base = encode(seq, p)
    d, t0 = p.d, 4

    later = seq.copy()
    later[:, t0 + 1:] += rng.normal(size=(2, 8 - t0 - 1))
    np.testing.assert_array_equal(encode(later, p)[:d, : t0 + 1], base[:d, : t0 + 1])

    earlier = seq.copy()
    earlier[:, :t0] += rng.normal(size=(2, t0))
    np.testing.assert_array_equal(encode(earlier, p)[d:, t0:], base[d:, t0:])


def test_encode_full_sequence_gradients():
    rng = np.random.default_rng(5)
    fwd_arrays = make_arrays(rng, 2, 3, scale=0.5)
    bwd_arrays = make_arrays(rng, 2, 3, scale=0.5)
    x = rng.normal(size=(5, 1, 2, 1))
    weights = rng.normal(size=(5, 1, 6, 1))

    def run(*arrs):
        p = BiLstmParams(LstmParams(*[Tensor(a) for a in arrs[:12]]),
                         LstmParams(*[Tensor(a) for a in arrs[12:]]))
        return ad.sum_all(ad.hadamard(scan(x, [p]), Tensor(weights)))

    arrays = fwd_arrays + bwd_arrays
    leaves = [Tensor(a) for a in arrays]
    p = BiLstmParams(LstmParams(*leaves[:12]), LstmParams(*leaves[12:]))
    ad.backward(ad.sum_all(ad.hadamard(scan(x, [p]), Tensor(weights))))
    numeric = finite_diff(lambda *arrs: float(run(*arrs).data), arrays)
    for leaf, num in zip(leaves, numeric):
        assert_grads_match(leaf.adjoint, num)


def test_encode_deterministic():
    rng = np.random.default_rng(6)
    p = random_bilstm(rng, 3, 4)
    seq = rng.normal(size=(3, 10))
    assert np.array_equal(encode(seq, p), encode(seq, p))


def test_encode_rejects_empty_and_mismatched():
    p = random_bilstm(np.random.default_rng(7), 2, 3)
    with pytest.raises(DimensionError):
        encode(np.zeros((2, 0)), p)
    with pytest.raises(DimensionError):
        encode(np.zeros((5, 4)), p)
    with pytest.raises(DimensionError):
        scan(np.zeros((4, 2)), [p])


def test_param_validation():
    arrays = make_arrays(np.random.default_rng(8), 2, 3)
    arrays[1] = np.zeros((3, 2))  # u_i must be (d, d)
    with pytest.raises(DimensionError):
        LstmParams(*arrays)
    a = LstmParams(*make_arrays(np.random.default_rng(9), 2, 3))
    b = LstmParams(*make_arrays(np.random.default_rng(10), 2, 4))
    with pytest.raises(DimensionError):
        BiLstmParams(a, b)

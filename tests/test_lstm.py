import tracemalloc

import numpy as np
import pytest

from _gradcheck import assert_grads_match, finite_diff
from trackattn import autodiff as ad
from trackattn.autodiff import Tensor
from trackattn.errors import ContractError, DimensionError
from trackattn.lstm import GATES, bilstm_encode_steps


def make_gates(rng, n_in, d, scale=1.0):
    """Per-gate arrays of one direction: w_* (d, n_in), u_* (d, d), b_* (d,)."""
    out = {}
    for g in GATES:
        out[f"w_{g}"] = scale * rng.normal(size=(d, n_in))
        out[f"u_{g}"] = scale * rng.normal(size=(d, d))
        out[f"b_{g}"] = scale * rng.normal(size=(d,))
    return out


def pack(directions):
    """The (S, 4d, d + n_in + 1) stack of [U | W | b] blocks the scan reads,
    packed here from S directions of per-gate arrays, rows i, f, o, g."""
    d, n_in = directions[0]["w_i"].shape
    a = np.empty((len(directions), 4 * d, d + n_in + 1))
    for s, p in enumerate(directions):
        for q, g in enumerate(GATES):
            rows = a[s, q * d:(q + 1) * d]
            rows[:, :d], rows[:, d:-1], rows[:, -1] = p[f"u_{g}"], p[f"w_{g}"], p[f"b_{g}"]
    return a


def zero_stack(n_k, n_in, d):
    return np.zeros((2 * n_k, 4 * d, d + n_in + 1))


def random_stack(rng, n_k, n_in, d, scale=0.6):
    return pack([make_gates(rng, n_in, d, scale) for _ in range(2 * n_k)])


def scan(x, a):
    """Run the scan node over a (T, K, n_in, B) array and a parameter stack."""
    return bilstm_encode_steps(Tensor(x), Tensor(a))


def encode(seq, a):
    """The (2d, T) encoding of one (n_in, T) sequence: the scan at K=1, B=1,
    column t the forward state after steps 1..t on the backward state after
    steps T..t."""
    n_in, t_len = seq.shape
    out = scan(seq.T.reshape(t_len, 1, n_in, 1), a).data
    return out.reshape(t_len, -1).T


def test_step_all_zero_parameters_zero_state():
    # every gate sits at sigmoid(0) = 0.5 and the candidate at tanh(0) = 0,
    # so from the zero state the cell and hidden state stay exactly zero
    x = np.random.default_rng(0).normal(size=(1, 2, 2, 3))
    out = scan(x, zero_stack(2, 2, 3))
    assert out.data.shape == (1, 2, 6, 3)
    np.testing.assert_array_equal(out.data, np.zeros((1, 2, 6, 3)))


def hand_set_carry_params():
    """Zero recurrences, forget and output gates at exactly 0.5; the input
    gate and candidate saturate to exactly 1 at x = 0 and sit at 0.5 and
    0 at x = 1."""
    p = make_gates(np.random.default_rng(0), 1, 1, scale=0.0)
    p["w_i"][:] = -40.0
    p["b_i"][:] = 40.0
    p["w_g"][:] = -40.0
    p["b_g"][:] = 40.0
    return pack([p, p])


def test_step_forget_gate_carries_cell_over_two_steps():
    # forward: step 1 (x=0) writes c = 1*1 = 1; step 2 (x=1) keeps
    # f*c = 0.5 and adds i*g = 0.5*0, so h = 0.5*tanh(0.5). The backward
    # direction reads x=1 first (c stays 0), then x=0 (c = 0.5*0 + 1).
    out = scan(np.array([0.0, 1.0]).reshape(2, 1, 1, 1), hand_set_carry_params()).data
    assert out[1, 0, 0, 0] == 0.5 * np.tanh(0.5)
    assert out[1, 0, 0, 0] == pytest.approx(0.23105857863, abs=1e-11)
    assert out[0, 0, 0, 0] == 0.5 * np.tanh(1.0)
    assert out[1, 0, 1, 0] == 0.0
    assert out[0, 0, 1, 0] == 0.5 * np.tanh(1.0)


def test_step_shape_mismatch():
    a = zero_stack(1, 2, 3)
    with pytest.raises(DimensionError):
        scan(np.zeros((4, 1, 5, 2)), a)                # n_in 5 != 2
    with pytest.raises(DimensionError):
        scan(np.zeros((4, 2, 2, 2)), a)                # two sequences, one parameter pair
    with pytest.raises(DimensionError):
        scan(np.zeros((4, 2, 2)), a)                   # not (T, K, n_in, B)
    with pytest.raises(DimensionError):
        scan(np.zeros((0, 1, 2, 2)), a)                # no steps


def test_step_gradients_match_finite_differences():
    # two sequences, three batch columns, four steps: every gate block of
    # both directions of both sequences, and every input cell
    rng = np.random.default_rng(42)
    a = random_stack(rng, 2, 2, 3)
    x = rng.normal(size=(4, 2, 2, 3))
    weights = rng.normal(size=(4, 2, 6, 3))

    def run(xv, av):
        return float((scan(xv, av).data * weights).sum())

    x_leaf, a_leaf = Tensor(x), Tensor(a)
    ad.backward(bilstm_encode_steps(x_leaf, a_leaf), weights)
    num_x, num_a = finite_diff(run, [x, a])
    assert_grads_match(x_leaf.adjoint, num_x, label="input")
    assert a_leaf.adjoint.shape == a.shape
    for s, q in np.ndindex(4, 4):
        rows = slice(3 * q, 3 * q + 3)
        assert_grads_match(a_leaf.adjoint[s, rows], num_a[s, rows],
                           label=f"seq {s // 2} direction {s % 2} gate {GATES[q]}")


def test_scan_backward_runs_once():
    out = scan(np.ones((3, 1, 1, 2)), random_stack(np.random.default_rng(3), 1, 1, 2))
    ad.backward(out, np.ones_like(out.data))
    with pytest.raises(ContractError):
        ad.backward(out, np.ones_like(out.data))


def test_scan_mark_batched_equals_one_at_a_time():
    # stacking sequences changes no bit of any sequence's encoding or gradients
    rng = np.random.default_rng(11)
    a = random_stack(rng, 5, 1, 4)
    x = rng.normal(size=(9, 5, 1, 6))
    weights = rng.normal(size=(9, 5, 8, 6))

    def encode_grads(xk, ak, w):
        x_leaf, a_leaf = Tensor(xk), Tensor(ak)
        out = bilstm_encode_steps(x_leaf, a_leaf)
        ad.backward(out, w)
        return out.data, x_leaf.adjoint, a_leaf.adjoint

    stacked, dx, da = encode_grads(x, a, weights)
    for k in range(5):
        alone, dx_k, da_k = encode_grads(x[:, k:k + 1], a[2 * k:2 * k + 2], weights[:, k:k + 1])
        assert np.array_equal(stacked[:, k:k + 1], alone)
        assert np.array_equal(dx[:, k:k + 1], dx_k)
        assert np.array_equal(da[2 * k:2 * k + 2], da_k)


@pytest.mark.parametrize("t_len,n_in", [(1, 1), (2, 3), (9, 1)])
def test_tape_free_scan_gives_the_same_bits_as_a_constant(t_len, n_in):
    # the taped scan keeps every [h; x; 1] column; the tape-free and the
    # input-only scans roll two, and must give its bits
    rng = np.random.default_rng(13)
    for n_k, n_b in [(3, 5), (1, 1), (3, 1)]:
        a = Tensor(random_stack(rng, n_k, n_in, 4))
        x = Tensor(rng.normal(size=(t_len, n_k, n_in, n_b)))
        seed = rng.normal(size=(t_len, n_k, 8, n_b))
        taped, free = bilstm_encode_steps(x, a), bilstm_encode_steps(x, a, keep=False)
        assert taped.op == "bilstm_scan" and taped.parents
        assert np.array_equal(free.data, taped.data)
        assert free.parents == () and free._bwd is None
        ad.backward(taped, seed)
        dx = x.adjoint
        input_only = bilstm_encode_steps(x, a, param_grad=False)
        assert input_only.parents == (x,)
        assert np.array_equal(input_only.data, taped.data)
        ad.backward(input_only, seed)
        assert np.array_equal(x.adjoint, dx)


@pytest.mark.parametrize("param_grad", [True, False])
def test_tape_free_scan_memory_grows_with_its_output_only(param_grad):
    # the tape-free scan rolls two [h; x; 1] slots and writes each step's
    # state straight into its output: when T doubles, its traced peak grows
    # by about one output. Keeping every step's column grew it by ~2x that
    rng = np.random.default_rng(14)
    a = Tensor(random_stack(rng, 5, 1, 16))
    peaks = []
    for t_len in (40, 80):
        x = Tensor(rng.normal(size=(t_len, 5, 1, 32)))
        tracemalloc.start()
        try:
            bilstm_encode_steps(x, a, keep=False, param_grad=param_grad)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    output_growth = 40 * 5 * 32 * 32 * 8
    assert peaks[1] - peaks[0] <= 1.25 * output_growth, peaks


def test_sigmoid_saturates_without_overflow():
    # gate pre-activations of +-1e4: the half-angle gates saturate to
    # exactly 0 and 1, forward and backward, with no floating-point warning
    a = zero_stack(1, 1, 2)
    for q, g in enumerate(GATES):
        a[:, 2 * q:2 * q + 2, -1] = [1e4, -1e4] if g == "i" else 1e4
    x, a = Tensor(np.ones((2, 1, 1, 1))), Tensor(a)
    with np.errstate(all="raise"):
        out = bilstm_encode_steps(x, a)
        ad.backward(out, np.ones_like(out.data))
    # unit 0: i = f = o = g = 1, so c_t = t and h_t = tanh(t); unit 1: i = 0
    np.testing.assert_array_equal(out.data[:, 0, :2, 0], [[np.tanh(1.0), 0.0],
                                                          [np.tanh(2.0), 0.0]])
    assert np.isfinite(x.adjoint).all() and np.isfinite(a.adjoint).all()


def test_encode_single_step_matches_cell_equations():
    rng = np.random.default_rng(1)
    fwd, bwd = make_gates(rng, 3, 4, 0.6), make_gates(rng, 3, 4, 0.6)
    seq = rng.normal(size=(3, 1))
    H = encode(seq, pack([fwd, bwd]))

    def cell(p, x):
        sig = lambda z: 1.0 / (1.0 + np.exp(-z))  # noqa: E731
        i = sig(p["w_i"] @ x + p["b_i"])
        o = sig(p["w_o"] @ x + p["b_o"])
        g = np.tanh(p["w_g"] @ x + p["b_g"])
        return o * np.tanh(i * g)

    expected = np.concatenate([cell(fwd, seq[:, 0]), cell(bwd, seq[:, 0])])
    np.testing.assert_allclose(H[:, 0], expected, rtol=0, atol=1e-15)


def test_encode_reversal_symmetry():
    rng = np.random.default_rng(2)
    a = random_stack(rng, 1, 2, 3)
    seq = rng.normal(size=(2, 6))
    H = encode(seq, a)
    H_rev = encode(seq[:, ::-1], a[::-1])                # directions swapped
    d = 3
    flipped = np.concatenate([H_rev[d:, ::-1], H_rev[:d, ::-1]], axis=0)
    np.testing.assert_array_equal(H, flipped)


@pytest.mark.parametrize("t_len", [1, 2, 7])
def test_encode_zero_parameters_zero_output(t_len):
    H = encode(np.random.default_rng(3).normal(size=(2, t_len)), zero_stack(1, 2, 3))
    np.testing.assert_array_equal(H, np.zeros((6, t_len)))


def test_encode_causality_split():
    rng = np.random.default_rng(4)
    a = random_stack(rng, 1, 2, 3)
    seq = rng.normal(size=(2, 8))
    base = encode(seq, a)
    d, t0 = 3, 4

    later = seq.copy()
    later[:, t0 + 1:] += rng.normal(size=(2, 8 - t0 - 1))
    np.testing.assert_array_equal(encode(later, a)[:d, : t0 + 1], base[:d, : t0 + 1])

    earlier = seq.copy()
    earlier[:, :t0] += rng.normal(size=(2, t0))
    np.testing.assert_array_equal(encode(earlier, a)[d:, t0:], base[d:, t0:])


def test_encode_full_sequence_gradients():
    rng = np.random.default_rng(5)
    a = pack([make_gates(rng, 2, 3, scale=0.5), make_gates(rng, 2, 3, scale=0.5)])
    x = rng.normal(size=(5, 1, 2, 1))
    weights = rng.normal(size=(5, 1, 6, 1))

    def run(av):
        return float((scan(x, av).data * weights).sum())

    a_leaf = Tensor(a)
    ad.backward(bilstm_encode_steps(Tensor(x), a_leaf), weights)
    (numeric,) = finite_diff(run, [a])
    assert_grads_match(a_leaf.adjoint, numeric)


def test_encode_deterministic():
    rng = np.random.default_rng(6)
    a = random_stack(rng, 1, 3, 4)
    seq = rng.normal(size=(3, 10))
    assert np.array_equal(encode(seq, a), encode(seq, a))


def test_encode_rejects_empty_and_mismatched():
    a = random_stack(np.random.default_rng(7), 1, 2, 3)
    with pytest.raises(DimensionError):
        encode(np.zeros((2, 0)), a)
    with pytest.raises(DimensionError):
        encode(np.zeros((5, 4)), a)
    with pytest.raises(DimensionError):
        scan(np.zeros((4, 2)), a)


def test_param_validation():
    # the stack must be (2K, 4d, d + n_in + 1) for K sequences of width n_in
    x = np.zeros((4, 1, 2, 2))
    for shape in [(2, 12, 7),      # columns d + n_in + 2
                  (2, 10, 5),      # rows not four gates of d
                  (2, 0, 3),       # no units
                  (12, 6),         # no recurrence axis
                  (4, 12, 6)]:     # two parameter pairs for one sequence
        with pytest.raises(DimensionError):
            scan(x, np.zeros(shape))

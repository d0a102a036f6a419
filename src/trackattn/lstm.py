"""Bidirectional LSTM encoder, run as one fused scan node per call.

The cell is the vanilla gated form: input/forget/output gates through a
sigmoid, a tanh candidate, ``c_t = f⊙c_{t-1} + i⊙g`` and
``h_t = o⊙tanh(c_t)``. No peepholes, no normalization, one recurrent
layer. Initial hidden and cell states are zero.

Each recurrence's gates live in one [U | W | b] block: rows stacked i, f,
o, g, columns the recurrence matrix U (d), the input weights W (n_in) and
the bias b (1), so one product against the column [h_prev; x_t; 1] gives
every pre-activation. :func:`bilstm_encode_steps` encodes K independent
sequences, each with its own bidirectional parameters, in a single graph
node that reads one (2K, 4d, d + n_in + 1) stack of such blocks: the K
sequences times two directions run as S = 2K stacked recurrences,
recurrence s = 2k + direction (the backward directions read the input
time-reversed). The i/f/o rows are pre-scaled by one half so that one
``tanh`` over all gate rows yields every gate through the half-angle
identity ``sigmoid(z) = (tanh(z/2) + 1) / 2``.

The caller chooses the buffer policy by whether a backward pass follows.
With ``keep=True`` the node keeps every step's activated gates and cell
states for its backward pass, which runs backpropagation through time
inside the node: per step, one batched transposed product gives the
adjoints of h_prev and x, and one more accumulates the gradient of the
whole [U | W | b] stack, returned in the stack's own layout. A pass that
wants input gradients only (saliency) passes ``param_grad=False``: the
node then records the input as its one parent, and its backward pass
skips the stack product; the input adjoints are the same bits. With
``keep=False`` the same step loop writes each step's gates and cell
state over one rolling slot, and the call returns a constant with no
parents and no backward closure, so no gate or cell buffer outlives it.
Both policies run the same arithmetic and give bit-identical outputs.

Only the stack product reads a step's [h_prev; x; 1] column after that
step. So the taped scan with the stack gradient keeps all T + 1 columns,
and every other call rolls two: step s fills the x rows of one, reads it,
and writes h_s into the other. Each step writes its forward and backward
states straight into their rows of the output, and its backward pass
gathers each step's output adjoint into one (2K, d, B) buffer, so no
second (T, K, 2d, B) array is made on either side.

All functions are pure and safe to call concurrently over shared
read-only parameters (each call builds its own graph); a scan node's
backward pass runs once, because it overwrites the kept gates.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError

GATES = ("i", "f", "o", "g")


def bilstm_encode_steps(x: Tensor, a: Tensor, keep: bool = True,
                        param_grad: bool = True) -> Tensor:
    """Encode K independent sequences with their own bidirectional LSTMs.

    ``x`` is a (T, K, n_in, B) stack: step t of sequence k for B batch
    columns; ``a`` is the (2K, 4d, d + n_in + 1) stack of [U | W | b]
    blocks, forward and backward direction of sequence k at rows 2k and
    2k + 1. Returns the (T, K, 2d, B) stack whose [t, k] entry is the
    forward state after steps 1..t on top of the backward state after
    steps T..t, as one graph node. With ``param_grad=False`` the node's
    backward pass gives the input gradient only, and ``a`` is not its
    parent. With ``keep=False`` no step's gates or cells are kept and the
    result is a constant outside the graph.
    """
    xd, w = x.data, a.data
    if xd.ndim != 4:
        raise DimensionError(f"scan input must be (T, K, n_in, B), got shape {xd.shape}")
    n_t, n_k, n_in, n_b = xd.shape
    if n_t == 0:
        raise DimensionError("empty sequence")
    n_s = 2 * n_k
    d = w.shape[1] // 4 if w.ndim == 3 else 0
    n_a = d + n_in + 1
    if d == 0 or w.shape != (n_s, 4 * d, n_a):
        raise DimensionError(
            f"parameter stack {w.shape} does not match {n_k} sequences of width {n_in} "
            f"(expected ({n_s}, 4d, d + {n_in + 1}))")
    a_half = w.copy()
    a_half[:, :3 * d] *= 0.5  # exact: scaling by a power of two commutes with rounding

    # hx[s % n_hx] = [h_{s-1}; x_s; 1] per recurrence, its x rows filled at
    # step s: all T + 1 kept for the stack gradient, else two rolling slots.
    # Backward directions see step s as time T-1-s.
    n_hx = n_t + 1 if keep and param_grad else 2
    hx = np.empty((n_hx, n_s, n_a, n_b))
    by_dir = hx.reshape(n_hx, n_k, 2, n_a, n_b)
    hx[0, :, :d] = 0.0
    hx[:, :, -1] = 1.0

    # step s writes slot s % n_slots: every step kept, or one rolling slot
    # (whose previous cell state, slot -1, is the slot itself); each step's
    # h goes straight to its rows of the output
    n_slots = n_t if keep else 1
    gates = np.empty((n_slots, n_s, 4 * d, n_b))
    cells = np.empty((n_slots, n_s, d, n_b))
    out = np.empty((n_t, n_k, 2, d, n_b))
    for s in range(n_t):
        k = s % n_slots
        by_dir[s % n_hx, :, 0, d:-1] = xd[s]
        by_dir[s % n_hx, :, 1, d:-1] = xd[n_t - 1 - s]
        z = np.matmul(a_half, hx[s % n_hx], out=gates[k])
        np.tanh(z, out=z)
        sig = z[:, :3 * d]
        sig *= 0.5
        sig += 0.5
        i, f, o, g = z[:, :d], z[:, d:2 * d], z[:, 2 * d:3 * d], z[:, 3 * d:]
        carried = f * cells[k - 1] if s else None
        c = np.multiply(i, g, out=cells[k])
        if s:
            c += carried
        h = np.multiply(o, np.tanh(c), out=hx[(s + 1) % n_hx, :, :d]).reshape(n_k, 2, d, n_b)
        out[s, :, 0] = h[:, 0]
        out[n_t - 1 - s, :, 1] = h[:, 1]

    out = out.reshape(n_t, n_k, 2 * d, n_b)
    if not keep:
        return Tensor(out, validate=False)
    walked = False

    def bwd(adj):
        # the gate buffer is overwritten with the pre-activation adjoints
        nonlocal walked
        if walked:
            raise ContractError("a scan node's backward pass runs once per forward pass")
        walked = True
        adj = adj.reshape(n_t, n_k, 2, d, n_b)
        dh = np.empty((n_s, d, n_b))  # step s's output adjoint, gathered per step
        dh_dir = dh.reshape(n_k, 2, d, n_b)
        a_t = w.transpose(0, 2, 1)
        da = np.zeros((n_s, 4 * d, n_a)) if param_grad else None
        dxs = np.empty((n_t, n_s, n_in, n_b))
        up = np.empty((n_s, 3 * d, n_b))
        dhx = carry = None
        for s in range(n_t - 1, -1, -1):
            z = gates[s]
            sig = z[:, :3 * d]
            i, f, o, g = z[:, :d], z[:, d:2 * d], z[:, 2 * d:3 * d], z[:, 3 * d:]
            tc = np.tanh(cells[s])
            dh_dir[:, 0] = adj[s, :, 0]
            dh_dir[:, 1] = adj[n_t - 1 - s, :, 1]
            if dhx is not None:
                dh += dhx[:, :d]
            dc = tc * tc
            np.subtract(1.0, dc, out=dc)
            dc *= o
            dc *= dh
            if carry is not None:
                dc += carry
            # upstream factors of i, f, o, then their sigmoid derivatives
            np.multiply(dc, g, out=up[:, :d])
            if s:
                np.multiply(dc, cells[s - 1], out=up[:, d:2 * d])
            else:
                up[:, d:2 * d] = 0.0
            np.multiply(dh, tc, out=up[:, 2 * d:])
            carry = dc * f
            dg = g * g
            np.subtract(1.0, dg, out=dg)
            dg *= i
            np.multiply(dg, dc, out=z[:, 3 * d:])
            ds = 1.0 - sig
            ds *= sig
            np.multiply(up, ds, out=sig)
            dhx = np.matmul(a_t, z)                                      # (S, n_a, B)
            dxs[s] = dhx[:, d:-1]
            if param_grad:
                da += np.matmul(z, hx[s].swapaxes(-1, -2))

        dxs = dxs.reshape(n_t, n_k, 2, n_in, n_b)
        dx = dxs[:, :, 0] + dxs[::-1, :, 1]
        return (dx, da) if param_grad else (dx,)

    return ad.custom(out, "bilstm_scan", (x, a) if param_grad else (x,), bwd)

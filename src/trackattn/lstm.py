"""Bidirectional LSTM encoder, run as one fused scan node per call.

The cell is the vanilla gated form: input/forget/output gates through a
sigmoid, a tanh candidate, ``c_t = f⊙c_{t-1} + i⊙g`` and
``h_t = o⊙tanh(c_t)``. No peepholes, no normalization, one recurrent
layer. Initial hidden and cell states are zero.

Parameter containers hold one weight matrix, recurrence matrix and bias
per gate. Fields may be plain float64 arrays or autodiff leaves.

:func:`bilstm_encode_steps` encodes K independent sequences, each with
its own bidirectional parameters, in a single graph node. The K sequences
times two directions run as S = 2K stacked recurrences (the backward
directions read the input time-reversed). The gate blocks are stacked
inside the call from the per-gate parameters into one [U | W | b] matrix
per recurrence, so each step is one batched product against the columns
[h_prev; x_t; 1] of all recurrences, input projection and bias included.
The i/f/o rows are pre-scaled by one half so that one ``tanh`` over all
gate rows yields every gate through the half-angle identity
``sigmoid(z) = (tanh(z/2) + 1) / 2``.

The caller chooses the buffer policy by whether a backward pass follows.
With ``keep=True`` the node keeps every step's activated gates and cell
states for its backward pass, which runs backpropagation through time
inside the node: per step, one batched transposed product gives the
adjoints of h_prev and x, and one more accumulates the [U | W | b]
gradient, which is split back onto the per-gate parameter blocks. With
``keep=False`` the same step loop writes each step's gates and cell
state over one rolling slot, and the call returns a constant with no
parents and no backward closure, so no gate or cell buffer outlives it.
Both policies run the same arithmetic and give bit-identical outputs.

All functions are pure and safe to call concurrently over shared
read-only parameters (each call builds its own graph); a scan node's
backward pass runs once, because it overwrites the kept gates.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError

GATES = ("i", "f", "o", "g")


def _shape(v) -> tuple:
    return v.data.shape if isinstance(v, Tensor) else np.asarray(v).shape


def _tensorize(v) -> Tensor:
    return v if isinstance(v, Tensor) else Tensor(v)


@dataclass
class LstmParams:
    """Per-gate parameters of one LSTM direction.

    ``w_*`` are (d, n_in), ``u_*`` are (d, d), ``b_*`` are (d,), for the
    gate order i, f, o, g.
    """

    w_i: object
    u_i: object
    b_i: object
    w_f: object
    u_f: object
    b_f: object
    w_o: object
    u_o: object
    b_o: object
    w_g: object
    u_g: object
    b_g: object

    def __post_init__(self):
        d, n_in = _shape(self.w_i)
        for g in GATES:
            if _shape(getattr(self, f"w_{g}")) != (d, n_in):
                raise DimensionError(f"gate {g}: weight shape differs from ({d}, {n_in})")
            if _shape(getattr(self, f"u_{g}")) != (d, d):
                raise DimensionError(f"gate {g}: recurrence shape differs from ({d}, {d})")
            if _shape(getattr(self, f"b_{g}")) != (d,):
                raise DimensionError(f"gate {g}: bias shape differs from ({d},)")

    @property
    def d(self) -> int:
        return _shape(self.w_i)[0]

    @property
    def n_in(self) -> int:
        return _shape(self.w_i)[1]

    def named(self):
        """Yield (field_name, value) in the canonical i, f, o, g order."""
        for f in fields(self):
            yield f.name, getattr(self, f.name)


@dataclass
class BiLstmParams:
    """Independent forward and backward directions of equal sizes."""

    forward: LstmParams
    backward: LstmParams

    def __post_init__(self):
        if self.forward.d != self.backward.d or self.forward.n_in != self.backward.n_in:
            raise DimensionError("forward/backward directions must share d and n_in")

    @property
    def d(self) -> int:
        return self.forward.d


def bilstm_encode_steps(x: Tensor, params: Sequence[BiLstmParams],
                        keep: bool = True) -> Tensor:
    """Encode K independent sequences with their own bidirectional LSTMs.

    ``x`` is a (T, K, n_in, B) stack: step t of sequence k for B batch
    columns. Returns the (T, K, 2d, B) stack whose [t, k] entry is the
    forward state after steps 1..t on top of the backward state after
    steps T..t, as one graph node. With ``keep=False`` no step's gates or
    cells are kept and the result is a constant outside the graph.
    """
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"scan input must be (T, K, n_in, B), got shape {xd.shape}")
    n_t, n_k, n_in, n_b = xd.shape
    if n_t == 0:
        raise DimensionError("empty sequence")
    if not params or len(params) != n_k:
        raise DimensionError(f"{len(params)} parameter sets for {n_k} sequences")
    d = params[0].d
    for p in params:
        if p.d != d or p.forward.n_in != n_in:
            raise DimensionError(
                f"parameters (d={p.d}, n_in={p.forward.n_in}) do not match "
                f"(d={d}, n_in={n_in})")
    n_s = 2 * n_k

    # recurrence s = 2k + direction; every block's rows stacked i, f, o, g,
    # columns [U | W | b] so that one product per step against the column
    # [h_prev; x; 1] gives all pre-activations
    directions = [lp for p in params for lp in (p.forward, p.backward)]
    blocks = [_tensorize(v) for lp in directions for _, v in lp.named()]
    n_a = d + n_in + 1
    a = np.empty((n_s, 4 * d, n_a))
    for s, q in np.ndindex(n_s, 4):
        w, u, b = (t.data for t in blocks[12 * s + 3 * q:12 * s + 3 * q + 3])
        rows = a[s, q * d:(q + 1) * d]
        rows[:, :d], rows[:, d:-1], rows[:, -1] = u, w, b
    a_half = a.copy()
    a_half[:, :3 * d] *= 0.5  # exact: scaling by a power of two commutes with rounding

    # hx[s] = [h_{s-1}; x_s; 1] per recurrence; backward directions see
    # step s as time T-1-s. hx[s + 1, :, :d] receives h_s.
    hx = np.empty((n_t + 1, n_s, n_a, n_b))
    by_dir = hx.reshape(n_t + 1, n_k, 2, n_a, n_b)
    hx[0, :, :d] = 0.0
    by_dir[:n_t, :, 0, d:-1] = xd
    by_dir[:n_t, :, 1, d:-1] = xd[::-1]
    hx[:n_t, :, -1] = 1.0

    # step s writes slot s % n_slots: every step kept, or one rolling slot
    # (whose previous cell state, slot -1, is the slot itself)
    n_slots = n_t if keep else 1
    gates = np.empty((n_slots, n_s, 4 * d, n_b))
    cells = np.empty((n_slots, n_s, d, n_b))
    for s in range(n_t):
        k = s % n_slots
        z = np.matmul(a_half, hx[s], out=gates[k])
        np.tanh(z, out=z)
        sig = z[:, :3 * d]
        sig *= 0.5
        sig += 0.5
        i, f, o, g = z[:, :d], z[:, d:2 * d], z[:, 2 * d:3 * d], z[:, 3 * d:]
        carried = f * cells[k - 1] if s else None
        c = np.multiply(i, g, out=cells[k])
        if s:
            c += carried
        np.multiply(o, np.tanh(c), out=hx[s + 1, :, :d])

    out = np.empty((n_t, n_k, 2, d, n_b))
    out[:, :, 0] = by_dir[1:, :, 0, :d]
    out[:, :, 1] = by_dir[n_t:0:-1, :, 1, :d]
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
        dh_all = np.empty((n_t, n_k, 2, d, n_b))
        dh_all[:, :, 0] = adj[:, :, 0]
        dh_all[:, :, 1] = adj[::-1, :, 1]
        dh_all = dh_all.reshape(n_t, n_s, d, n_b)
        a_t = a.transpose(0, 2, 1)
        da = np.zeros((n_s, 4 * d, n_a))
        dxs = np.empty((n_t, n_s, n_in, n_b))
        up = np.empty((n_s, 3 * d, n_b))
        dhx = carry = None
        for s in range(n_t - 1, -1, -1):
            z = gates[s]
            sig = z[:, :3 * d]
            i, f, o, g = z[:, :d], z[:, d:2 * d], z[:, 2 * d:3 * d], z[:, 3 * d:]
            tc = np.tanh(cells[s])
            dh = dh_all[s]
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
            da += np.matmul(z, hx[s].swapaxes(-1, -2))

        dxs = dxs.reshape(n_t, n_k, 2, n_in, n_b)
        grads = [dxs[:, :, 0] + dxs[::-1, :, 1]]
        for s, q in np.ndindex(n_s, 4):
            rows = da[s, q * d:(q + 1) * d]
            grads += [rows[:, d:-1], rows[:, :d], rows[:, -1]]
        return grads

    return ad.custom(out, "bilstm_scan", (x, *blocks), bwd)

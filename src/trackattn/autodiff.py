"""Dense reverse-mode automatic differentiation on numpy arrays.

Every operation builds a node of an implicit computation graph (value,
operation tag, ordered parent references, adjoint slot). Calling
:func:`backward` on a scalar root seeds its adjoint with 1.0 and walks the
graph in reverse topological order, accumulating adjoints by summation, so
a value used k times receives the sum of its k path contributions.

Everything is double precision. A graph is single threaded: one
forward/backward pass owns its nodes exclusively, and leaf arrays must not
be mutated until the backward pass that uses them has finished. Distinct
graphs over shared read-only arrays may run concurrently.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError


class Tensor:
    """A value on the differentiation graph.

    Leaves are built directly from array data (validated finite); interior
    nodes are produced by the operations in this module and carry a
    backward closure mapping their adjoint to parent adjoint contributions.
    """

    __slots__ = ("data", "op", "parents", "adjoint", "_bwd")

    def __init__(self, data, op: str = "leaf", parents: tuple = (),
                 bwd: Callable | None = None, validate: bool = True):
        arr = np.asarray(data, dtype=np.float64)
        if validate and arr.size and not np.all(np.isfinite(arr)):
            raise ContractError(f"non-finite entries in tensor (op={op!r})")
        self.data = arr
        self.op = op
        self.parents = parents
        self.adjoint: np.ndarray | None = None
        self._bwd = bwd

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __len__(self) -> int:
        """Length of the leading axis (the step count of a sequence stack)."""
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"


def _node(data: np.ndarray, op: str, parents: tuple, bwd: Callable) -> Tensor:
    return Tensor(data, op=op, parents=parents, bwd=bwd, validate=False)


def _as2d(name: str, t: Tensor) -> np.ndarray:
    if t.data.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {t.data.shape}")
    return t.data


def affine(w: Tensor, x: Tensor, b: Tensor | None = None) -> Tensor:
    """w @ x (+ b), with x a vector or a matrix of column samples.

    For matrix x the bias column broadcasts across columns and its adjoint
    is the row-sum of the output adjoint.
    """
    wd = _as2d("weight", w)
    xd = x.data
    if xd.ndim not in (1, 2) or wd.shape[1] != xd.shape[0]:
        raise DimensionError(f"affine: weight {wd.shape} does not conform to input {xd.shape}")
    out = wd @ xd
    if b is not None:
        bd = b.data
        if bd.shape != (wd.shape[0],):
            raise DimensionError(f"affine: bias {bd.shape} does not conform to weight {wd.shape}")
        out = out + (bd if xd.ndim == 1 else bd[:, None])

    if b is None:
        def bwd(adj):
            gw = np.outer(adj, xd) if xd.ndim == 1 else adj @ xd.T
            return gw, wd.T @ adj
        return _node(out, "affine", (w, x), bwd)

    def bwd(adj):
        if xd.ndim == 1:
            return np.outer(adj, xd), wd.T @ adj, adj
        return adj @ xd.T, wd.T @ adj, adj.sum(axis=1)
    return _node(out, "affine", (w, x, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad = _as2d("left operand", a)
    bd = b.data
    if bd.ndim not in (1, 2) or ad.shape[1] != bd.shape[0]:
        raise DimensionError(f"matmul: {ad.shape} does not conform to {bd.shape}")
    out = ad @ bd

    def bwd(adj):
        if bd.ndim == 1:
            return np.outer(adj, bd), ad.T @ adj
        return adj @ bd.T, ad.T @ adj
    return _node(out, "matmul", (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add: shapes {a.data.shape} and {b.data.shape} differ")

    def bwd(adj):
        return adj, adj
    return _node(a.data + b.data, "add", (a, b), bwd)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"hadamard: shapes {a.data.shape} and {b.data.shape} differ")
    ad, bd = a.data, b.data

    def bwd(adj):
        return adj * bd, adj * ad
    return _node(ad * bd, "hadamard", (a, b), bwd)


def sigmoid(x: Tensor) -> Tensor:
    # tanh half-angle form is overflow-free for any finite input
    s = 0.5 * (np.tanh(0.5 * x.data) + 1.0)

    def bwd(adj):
        return (adj * s * (1.0 - s),)
    return _node(s, "sigmoid", (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def bwd(adj):
        return (adj * (1.0 - t * t),)
    return _node(t, "tanh", (x,), bwd)


_ELEMENTWISE: dict[str, Callable] = {}


def elementwise(kind: str, *args: Tensor) -> Tensor:
    """Dispatch by name over the elementwise kinds: sigmoid, tanh, hadamard, add."""
    try:
        fn = _ELEMENTWISE[kind]
    except KeyError:
        raise ContractError(f"unknown elementwise kind {kind!r}") from None
    return fn(*args)


_ELEMENTWISE.update(sigmoid=sigmoid, tanh=tanh, hadamard=hadamard, add=add)


def softmax(z: Tensor) -> Tensor:
    """Probability-normalize z with max-subtraction for stability.

    1-D input is normalized over its entries; 2-D input column-wise. The
    subtracted maximum makes shifting all entries by the (exactly
    representable) negated maximum a bit-exact no-op.
    """
    zd = z.data
    if zd.size == 0:
        raise DimensionError("softmax: empty input")
    if zd.ndim == 1:
        e = np.exp(zd - zd.max())
        s = e / e.sum()

        def bwd(adj):
            return (s * (adj - adj @ s),)
        return _node(s, "softmax", (z,), bwd)
    if zd.ndim == 2:
        e = np.exp(zd - zd.max(axis=0, keepdims=True))
        s = e / e.sum(axis=0, keepdims=True)

        def bwd(adj):
            return (s * (adj - (adj * s).sum(axis=0, keepdims=True)),)
        return _node(s, "softmax", (z,), bwd)
    raise DimensionError(f"softmax: expected 1-D or 2-D input, got shape {zd.shape}")


def log(x: Tensor) -> Tensor:
    xd = x.data

    def bwd(adj):
        return (adj / xd,)
    # exact-zero input legitimately yields -inf (callers watch for it);
    # keep the blow-up path warning-free
    with np.errstate(divide="ignore"):
        return _node(np.log(xd), "log", (x,), bwd)


def slice0(t: Tensor, lo: int, hi: int) -> Tensor:
    n = t.data.shape[0]
    if not (0 <= lo < hi <= n):
        raise DimensionError(f"slice0: [{lo}:{hi}] out of range for axis length {n}")

    def bwd(adj):
        g = np.zeros_like(t.data)
        g[lo:hi] = adj
        return (g,)
    return _node(t.data[lo:hi], "slice0", (t,), bwd)


def concat0(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise DimensionError("concat0: no parts")
    sizes = [p.data.shape[0] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=0)

    def bwd(adj):
        return tuple(np.split(adj, np.cumsum(sizes)[:-1], axis=0))
    return _node(out, "concat0", tuple(parts), bwd)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise DimensionError("concat_cols: no parts")
    sizes = [_as2d("concat_cols part", p).shape[1] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=1)

    def bwd(adj):
        return tuple(np.split(adj, np.cumsum(sizes)[:-1], axis=1))
    return _node(out, "concat_cols", tuple(parts), bwd)


def transpose(t: Tensor) -> Tensor:
    _as2d("transpose input", t)

    def bwd(adj):
        return (adj.T,)
    return _node(t.data.T, "transpose", (t,), bwd)


def reshape(t: Tensor, shape: tuple) -> Tensor:
    old = t.data.shape

    def bwd(adj):
        return (adj.reshape(old),)
    return _node(t.data.reshape(shape), "reshape", (t,), bwd)


def mul_rowvec(m: Tensor, r: Tensor) -> Tensor:
    """Scale each column of m (p, B) by the matching entry of r (1, B)."""
    md, rd = _as2d("matrix", m), _as2d("row vector", r)
    if rd.shape != (1, md.shape[1]):
        raise DimensionError(f"mul_rowvec: row {rd.shape} does not conform to matrix {md.shape}")

    def bwd(adj):
        return adj * rd, (adj * md).sum(axis=0, keepdims=True)
    return _node(md * rd, "mul_rowvec", (m, r), bwd)


def pick_cols(m: Tensor, idx: np.ndarray) -> Tensor:
    """Gather m[idx[j], j] for each column j, yielding a length-B vector."""
    md = _as2d("matrix", m)
    idx = np.asarray(idx, dtype=np.intp)
    if idx.shape != (md.shape[1],) or idx.min(initial=0) < 0 or idx.max(initial=0) >= md.shape[0]:
        raise DimensionError(f"pick_cols: indices {idx.shape} invalid for matrix {md.shape}")
    cols = np.arange(md.shape[1])

    def bwd(adj):
        g = np.zeros_like(md)
        g[idx, cols] = adj
        return (g,)
    return _node(md[idx, cols], "pick_cols", (m,), bwd)


def sum_all(t: Tensor) -> Tensor:
    shape = t.data.shape

    def bwd(adj):
        return (np.full(shape, float(adj)),)
    return _node(t.data.sum(), "sum_all", (t,), bwd)


def scale(t: Tensor, c: float) -> Tensor:
    def bwd(adj):
        return (adj * c,)
    return _node(t.data * c, "scale", (t,), bwd)


def custom(data: np.ndarray, op: str, parents: tuple, bwd: Callable) -> Tensor:
    """Record a fused operation whose backward closure is supplied by the
    caller; used for hand-derived kernels like the recurrent scan."""
    return _node(np.asarray(data, dtype=np.float64), op, parents, bwd)


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return order


def backward(root: Tensor) -> dict[Tensor, np.ndarray]:
    """Propagate adjoints from a scalar root; return the leaf gradient map.

    After the call every node reachable from the root holds its adjoint
    (zeros where no path contributes). The returned dict maps each leaf to
    its accumulated gradient.
    """
    if root.data.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.data.shape}")
    order = _topo_order(root)
    for node in order:
        node.adjoint = None
    root.adjoint = np.ones_like(root.data)
    for node in reversed(order):
        adj = node.adjoint
        if adj is None:
            node.adjoint = np.zeros_like(node.data)
            continue
        if node._bwd is None:
            continue
        for parent, g in zip(node.parents, node._bwd(adj)):
            if parent.adjoint is None:
                # own the buffer before later contributions accumulate in place
                parent.adjoint = g if (g.flags.owndata and g is not adj) else g.copy()
            else:
                parent.adjoint += g
    return {node: node.adjoint for node in order if not node.parents}

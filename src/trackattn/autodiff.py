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

from typing import Callable

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


def affine(w: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """w @ x + b for a matrix x of column samples.

    The bias column broadcasts across columns and its adjoint is the
    row-sum of the output adjoint.
    """
    wd, xd, bd = _as2d("weight", w), _as2d("input", x), b.data
    if wd.shape[1] != xd.shape[0]:
        raise DimensionError(f"affine: weight {wd.shape} does not conform to input {xd.shape}")
    if bd.shape != (wd.shape[0],):
        raise DimensionError(f"affine: bias {bd.shape} does not conform to weight {wd.shape}")

    def bwd(adj):
        return adj @ xd.T, wd.T @ adj, adj.sum(axis=1)
    return _node(wd @ xd + bd[:, None], "affine", (w, x, b), bwd)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"hadamard: shapes {a.data.shape} and {b.data.shape} differ")
    ad, bd = a.data, b.data

    def bwd(adj):
        return adj * bd, adj * ad
    return _node(ad * bd, "hadamard", (a, b), bwd)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def bwd(adj):
        return (adj * (1.0 - t * t),)
    return _node(t, "tanh", (x,), bwd)


def softmax(z: Tensor) -> Tensor:
    """Probability-normalize the columns of z with max-subtraction for
    stability. The subtracted maximum makes shifting a column by its
    (exactly representable) negated maximum a bit-exact no-op.
    """
    zd = _as2d("softmax input", z)
    if zd.size == 0:
        raise DimensionError("softmax: empty input")
    e = np.exp(zd - zd.max(axis=0, keepdims=True))
    s = e / e.sum(axis=0, keepdims=True)

    def bwd(adj):
        return (s * (adj - (adj * s).sum(axis=0, keepdims=True)),)
    return _node(s, "softmax", (z,), bwd)


def log(x: Tensor) -> Tensor:
    xd = x.data

    def bwd(adj):
        return (adj / xd,)
    # exact-zero input legitimately yields -inf (callers watch for it);
    # keep the blow-up path warning-free
    with np.errstate(divide="ignore"):
        return _node(np.log(xd), "log", (x,), bwd)


def reshape(t: Tensor, shape: tuple) -> Tensor:
    old = t.data.shape

    def bwd(adj):
        return (adj.reshape(old),)
    return _node(t.data.reshape(shape), "reshape", (t,), bwd)


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

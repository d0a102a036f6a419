"""Dense reverse-mode automatic differentiation on numpy arrays.

Every operation builds a node of an implicit computation graph (value,
operation tag, ordered parent references, adjoint slot). The model head
uses the two generic operations here (:func:`affine`, :func:`tanh`);
every other node is a hand-derived :func:`custom` node. Calling
:func:`backward` seeds the root's adjoint (1.0 for a scalar root, or a
given array of the root's shape) and walks the graph in reverse
topological order, accumulating adjoints by summation, so a value used k
times receives the sum of its k path contributions.

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

    def __len__(self) -> int:
        """Length of the leading axis (the step count of a sequence stack)."""
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"


def affine(w: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """w @ x + b for a matrix x of column samples.

    The bias column broadcasts across columns and its adjoint is the
    row-sum of the output adjoint.
    """
    wd, xd, bd = w.data, x.data, b.data
    if wd.ndim != 2 or xd.ndim != 2 or wd.shape[1] != xd.shape[0]:
        raise DimensionError(f"affine: weight {wd.shape} does not conform to input {xd.shape}")
    if bd.shape != (wd.shape[0],):
        raise DimensionError(f"affine: bias {bd.shape} does not conform to weight {wd.shape}")

    def bwd(adj):
        return adj @ xd.T, wd.T @ adj, adj.sum(axis=1)
    return custom(wd @ xd + bd[:, None], "affine", (w, x, b), bwd)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def bwd(adj):
        return (adj * (1.0 - t * t),)
    return custom(t, "tanh", (x,), bwd)


def custom(data: np.ndarray, op: str, parents: tuple, bwd: Callable) -> Tensor:
    """Record an operation whose backward closure is supplied by the
    caller; used for hand-derived kernels like the recurrent scan."""
    return Tensor(data, op=op, parents=parents, bwd=bwd, validate=False)


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


def backward(root: Tensor, seed=None) -> dict[Tensor, np.ndarray]:
    """Propagate adjoints from the root; return the leaf gradient map.

    ``seed`` is the root's adjoint, an array of the root's shape; without
    one the root must be scalar and its adjoint is 1.0. After the call
    every node reachable from the root holds its adjoint (zeros where no
    path contributes). The returned dict maps each leaf to its
    accumulated gradient.
    """
    if seed is None and root.data.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.data.shape}")
    seed = np.ones_like(root.data) if seed is None else np.array(seed, dtype=np.float64)
    if seed.shape != root.data.shape:
        raise DimensionError(f"seed of shape {seed.shape} does not match root {root.data.shape}")
    order = _topo_order(root)
    for node in order:
        node.adjoint = None
    root.adjoint = seed
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

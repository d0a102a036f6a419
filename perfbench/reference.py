"""Computations made apart from the program, for checking its outputs.

Nothing here imports ``trackattn``. The checkpoint container and the
seeded split are re-read from their documented layouts, and the forward
pass is a vectorised straight-line recomputation: one matrix product per
gate, the logistic sigmoid written out, and a softmax of its own. Marks
and genes are batched as array axes; there is no autodiff graph.
"""

from __future__ import annotations

import json

import numpy as np

GATES = ("i", "f", "o", "g")
CHECKPOINT_MAGIC = b"trackattn-checkpoint-v1"


def read_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse the container: magic line, JSON header line, float64 blocks."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, _, rest = blob.partition(b"\n")
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad magic {magic[:40]!r}")
    head, _, body = rest.partition(b"\n")
    header = json.loads(head)
    blocks, offset = {}, 0
    for entry in header["blocks"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        blocks[entry["name"]] = np.frombuffer(body, dtype="<f8", count=count,
                                              offset=offset).reshape(shape)
        offset += 8 * count
    if offset != len(body):
        raise ValueError(f"{path}: {len(body) - offset} bytes after the last block")
    return header["config"], blocks


def split_indices(n: int, seed: int = 0, n_parts: int = 3) -> list[np.ndarray]:
    """The documented split rule for equal fractions: floors of n/k, the
    remainder handed out one at a time from the first part, over a
    ``default_rng(seed)`` permutation."""
    sizes = [int(n * (1.0 / n_parts))] * n_parts
    for i in range(n - sum(sizes)):
        sizes[i % n_parts] += 1
    order = np.random.default_rng(seed).permutation(n)
    bounds = np.cumsum([0] + sizes)
    return [order[bounds[k]:bounds[k + 1]] for k in range(n_parts)]


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _softmax_axis0(scores):
    e = np.exp(scores - scores.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


def _direction(xs, gates, reverse):
    """One LSTM direction over xs (S, K, n_in, N) for K independent stacks;
    gates maps g -> (w (K, d, n_in), u (K, d, d), b (K, d, 1))."""
    n_steps, k, _, n = xs.shape
    d = gates["i"][0].shape[1]
    h = np.zeros((k, d, n))
    c = np.zeros((k, d, n))
    out = np.empty((n_steps, k, d, n))
    for t in (range(n_steps - 1, -1, -1) if reverse else range(n_steps)):
        z = {g: w @ xs[t] + u @ h + b for g, (w, u, b) in gates.items()}
        i, f, o = _sigmoid(z["i"]), _sigmoid(z["f"]), _sigmoid(z["o"])
        c = f * c + i * np.tanh(z["g"])
        h = o * np.tanh(c)
        out[t] = h
    return out


def _bilstm(xs, blocks, prefixes):
    """(S, K, 2d, N) encodings; stack k reads the blocks under prefixes[k]."""
    def gates(direction):
        return {g: (np.stack([blocks[f"{p}.{direction}.w_{g}"] for p in prefixes]),
                    np.stack([blocks[f"{p}.{direction}.u_{g}"] for p in prefixes]),
                    np.stack([blocks[f"{p}.{direction}.b_{g}"] for p in prefixes])[:, :, None])
                for g in GATES}
    fwd = _direction(xs, gates("fwd"), reverse=False)
    bwd = _direction(xs, gates("bwd"), reverse=True)
    return np.concatenate([fwd, bwd], axis=2)


def _pool(encoded, ctx):
    """Attention over axis 0 of (S, K, c, N) with ctx (K, c): returns
    weights (S, K, N) and the pooled (K, c, N)."""
    weights = _softmax_axis0(np.einsum("kc,skcn->skn", ctx, encoded))
    return weights, np.einsum("skn,skcn->kcn", weights, encoded)


def forward(x: np.ndarray, config: dict, blocks: dict) -> dict:
    """Logits (2, N), alpha (rows, T, N) and beta (M, N) or None for a
    (N, M, T) stack, for the lstm-attn and lstm-alpha-beta variants."""
    variant = config["variant"]
    n, n_m, _ = x.shape
    if variant == "lstm-alpha-beta":
        if config.get("mark_order") is not None or not config["share_bin_context"]:
            raise ValueError("reference covers the default mark order and a shared bin context")
        xs = np.transpose(x, (2, 1, 0))[:, :, None, :]            # (T, M, 1, N)
        encoded = _bilstm(xs, blocks, [f"bin_lstm.{j}" for j in range(n_m)])
        ctx = np.repeat(blocks["bin_context.0"][None], n_m, axis=0)
        alpha, summaries = _pool(encoded, ctx)                    # (T, M, N), (M, 2d, N)
        marks = _bilstm(summaries[:, None], blocks, ["mark_lstm"])  # (M, 1, 2d_hm, N)
        beta, gene = _pool(marks, blocks["mark_context"][None])
        head = gene[0]
        alpha, beta = np.transpose(alpha, (1, 0, 2)), beta[:, 0]
    elif variant == "lstm-attn":
        xs = np.transpose(x, (2, 1, 0))[:, None]                  # (T, 1, M, N)
        encoded = _bilstm(xs, blocks, ["bin_lstm.0"])
        alpha, pooled = _pool(encoded, blocks["bin_context.0"][None])
        head = pooled[0]
        alpha, beta = np.transpose(alpha, (1, 0, 2)), None
    else:
        raise ValueError(f"no reference for variant {variant!r}")
    logits = blocks["classifier.w"] @ head + blocks["classifier.b"][:, None]
    return {"logits": logits, "probs": _softmax_axis0(logits), "alpha": alpha, "beta": beta}


def auc_by_pairs(scores: np.ndarray, labels: np.ndarray) -> float:
    """Share of (positive, negative) pairs the positive wins; ties score half."""
    diff = scores[labels == 1][:, None] - scores[labels == -1][None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / diff.size)


def f1_by_counting(scores: np.ndarray, labels: np.ndarray, threshold: float = 0.5) -> float:
    predicted = scores > threshold
    tp = int((predicted & (labels == 1)).sum())
    fp = int((predicted & (labels == -1)).sum())
    fn = int((~predicted & (labels == 1)).sum())
    return 0.0 if tp == 0 else 2.0 * tp / (2.0 * tp + fp + fn)


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    da, db = a - a.mean(), b - b.mean()
    return float((da @ db) / np.sqrt((da @ da) * (db @ db)))


def saliency_by_differences(x: np.ndarray, config: dict, blocks: dict,
                            cells, step: float = 1e-5) -> np.ndarray:
    """Mean over the genes of |d logit_k / d x[g, m, t]| for each (m, t) in
    cells, k being each gene's argmax class, by central differences."""
    k = np.argmax(forward(x, config, blocks)["logits"], axis=0)
    cols = np.arange(x.shape[0])
    out = []
    for m, t in cells:
        plus, minus = x.copy(), x.copy()
        plus[:, m, t] += step
        minus[:, m, t] -= step
        grad = (forward(plus, config, blocks)["logits"][k, cols]
                - forward(minus, config, blocks)["logits"][k, cols]) / (2 * step)
        out.append(np.abs(grad).mean())
    return np.array(out)

"""Straight-line numpy recomputation of every variant's forward pass,
written without the autodiff graph.

Deliberately structured differently from the production path: per-gate
matrix products instead of stacked gates, per-sample and per-mark loops
instead of batched stacks, and the raw exp/sum normalization instead of
the max-subtracted softmax. Parameters are read by checkpoint name
through ``named_blocks()``, one array per gate, so the oracle does not
depend on how the store packs them. Used as the independent oracle the
tape-based forward must agree with.
"""

import numpy as np


def _sigm(z):
    return 1.0 / (1.0 + np.exp(-z))


def _lstm_direction(xs, blocks, prefix):
    def gate(name, x, h):
        return (blocks[f"{prefix}.w_{name}"] @ x + blocks[f"{prefix}.u_{name}"] @ h
                + blocks[f"{prefix}.b_{name}"])

    d = blocks[f"{prefix}.w_i"].shape[0]
    h = np.zeros(d)
    c = np.zeros(d)
    out = []
    for x in xs:
        i = _sigm(gate("i", x, h))
        f = _sigm(gate("f", x, h))
        o = _sigm(gate("o", x, h))
        g = np.tanh(gate("g", x, h))
        c = f * c + i * g
        h = o * np.tanh(c)
        out.append(h)
    return out


def _bilstm(xs, blocks, prefix):
    fwd = _lstm_direction(xs, blocks, f"{prefix}.fwd")
    bwd = _lstm_direction(xs[::-1], blocks, f"{prefix}.bwd")[::-1]
    return [np.concatenate([a, b]) for a, b in zip(fwd, bwd)]


def _normalize(scores):
    e = np.exp(scores)
    return e / e.sum()


def _pool(hs, ctx):
    weights = _normalize(np.array([ctx @ h for h in hs]))
    return weights, sum(weights[t] * hs[t] for t in range(len(hs)))


def straight_line_forward(x, params, cfg):
    """Recompute the prediction of any variant for one (M, T) input.

    Returns a dict with probs (low, high), the raw logits, alpha
    (n_rows, T) or None, and beta (M,) in original mark order or None.
    """
    n_m, n_t = cfg.n_marks, cfg.n_bins
    p = dict(params.named_blocks())
    alpha = beta = None

    if cfg.variant in ("lstm", "lstm-attn"):
        hs = _bilstm([x[:, t].copy() for t in range(n_t)], p, "bin_lstm.0")
        if cfg.variant == "lstm":
            d = cfg.d
            vec = np.concatenate([hs[-1][:d], hs[0][d:]])
        else:
            weights, vec = _pool(hs, p["bin_context.0"])
            alpha = weights[None, :]
        logits = p["classifier.w"] @ vec + p["classifier.b"]
        return {"probs": _normalize(logits), "alpha": alpha, "beta": beta, "logits": logits}

    alpha = np.zeros((n_m, n_t))
    summaries = []
    for j in range(n_m):
        xs = [np.array([x[j, t]]) for t in range(n_t)]
        hs = _bilstm(xs, p, f"bin_lstm.{j}")
        ctx = p[f"bin_context.{0 if cfg.share_bin_context else j}"]
        alpha[j], summary = _pool(hs, ctx)
        summaries.append(summary)

    if cfg.variant == "lstm-alpha":
        hidden = np.tanh(p["hidden.w"] @ np.concatenate(summaries) + p["hidden.b"])
        logits = p["classifier.w"] @ hidden + p["classifier.b"]
        return {"probs": _normalize(logits), "alpha": alpha, "beta": beta, "logits": logits}

    sequence = [summaries[j] for j in cfg.order]
    encoded = _bilstm(sequence, p, "mark_lstm")
    beta_seq, gene_vec = _pool(encoded, p["mark_context"])

    logits = p["classifier.w"] @ gene_vec + p["classifier.b"]
    beta = np.empty(n_m)
    beta[list(cfg.order)] = beta_seq
    return {"probs": _normalize(logits), "alpha": alpha, "beta": beta, "logits": logits}

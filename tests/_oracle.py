"""Straight-line numpy recomputation of every variant's forward pass,
written without the autodiff graph.

Deliberately structured differently from the production path: per-gate
matrix products instead of stacked gates, per-sample and per-mark loops
instead of batched stacks, and the raw exp/sum normalization instead of
the max-subtracted softmax. Used as the independent oracle the tape-based
forward must agree with.
"""

import numpy as np


def _sigm(z):
    return 1.0 / (1.0 + np.exp(-z))


def _lstm_direction(xs, p):
    d = p.w_i.shape[0]
    h = np.zeros(d)
    c = np.zeros(d)
    out = []
    for x in xs:
        i = _sigm(p.w_i @ x + p.u_i @ h + p.b_i)
        f = _sigm(p.w_f @ x + p.u_f @ h + p.b_f)
        o = _sigm(p.w_o @ x + p.u_o @ h + p.b_o)
        g = np.tanh(p.w_g @ x + p.u_g @ h + p.b_g)
        c = f * c + i * g
        h = o * np.tanh(c)
        out.append(h)
    return out


def _bilstm(xs, bp):
    fwd = _lstm_direction(xs, bp.forward)
    bwd = _lstm_direction(xs[::-1], bp.backward)[::-1]
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
    alpha = beta = None

    if cfg.variant in ("lstm", "lstm-attn"):
        hs = _bilstm([x[:, t].copy() for t in range(n_t)], params.bin_lstms[0])
        if cfg.variant == "lstm":
            d = cfg.d
            vec = np.concatenate([hs[-1][:d], hs[0][d:]])
        else:
            weights, vec = _pool(hs, params.bin_contexts[0])
            alpha = weights[None, :]
        logits = params.classifier_w @ vec + params.classifier_b
        return {"probs": _normalize(logits), "alpha": alpha, "beta": beta, "logits": logits}

    alpha = np.zeros((n_m, n_t))
    summaries = []
    for j in range(n_m):
        xs = [np.array([x[j, t]]) for t in range(n_t)]
        hs = _bilstm(xs, params.bin_lstms[j])
        ctx = params.bin_contexts[0 if cfg.share_bin_context else j]
        alpha[j], summary = _pool(hs, ctx)
        summaries.append(summary)

    if cfg.variant == "lstm-alpha":
        hidden = np.tanh(params.hidden_w @ np.concatenate(summaries) + params.hidden_b)
        logits = params.classifier_w @ hidden + params.classifier_b
        return {"probs": _normalize(logits), "alpha": alpha, "beta": beta, "logits": logits}

    sequence = [summaries[j] for j in cfg.order]
    encoded = _bilstm(sequence, params.mark_lstm)
    beta_seq, gene_vec = _pool(encoded, params.mark_context)

    logits = params.classifier_w @ gene_vec + params.classifier_b
    beta = np.empty(n_m)
    beta[list(cfg.order)] = beta_seq
    return {"probs": _normalize(logits), "alpha": alpha, "beta": beta, "logits": logits}

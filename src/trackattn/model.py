"""The hierarchical-attention sequence classifier and its variants.

Four related architectures predict a binary label from an M x T matrix of
binned signal tracks:

* ``lstm``            -- one bidirectional LSTM over the joint input
  (columns as time steps, height M), final forward and backward states
  concatenated into the classifier.
* ``lstm-attn``       -- the joint encoder followed by one soft-attention
  pool over bin positions.
* ``lstm-alpha``      -- one bidirectional LSTM plus bin attention per
  mark; the per-mark summaries are concatenated and fed through a
  two-layer tanh head.
* ``lstm-alpha-beta`` -- per-mark encoders and bin attention, then a
  second bidirectional LSTM over the (arbitrarily ordered) sequence of
  mark summaries with mark-level attention, then the classifier.

Both attention levels use one soft-attention pool (:func:`_attend_steps`):
a learned context vector scores each step by a plain dot product (no
bias, no nonlinearity), the scores are normalized over the steps by a
max-subtracted softmax, and the summary is the weighted sum of the steps.
Over the bins of a mark the weights are alpha; over marks they are beta.

The forward pass is batched: a (B, M, T) stack of inputs becomes one
(T, K, n_in, B) input leaf, and each level is one graph node. The bin
level is a single fused scan (:func:`~trackattn.lstm.bilstm_encode_steps`)
over all M marks at once in the per-mark variants (K=M, n_in=1) or over
the joint M-wide columns (K=1, n_in=M), followed by one attention-pool
node; the mark level of ``lstm-alpha-beta`` is one more scan and pool over
the mark summaries in ``mark_order``. The mean negative log-likelihood
over the batch is the training root, one more node.

A :class:`ParameterStore` keeps every parameter in one contiguous float64
vector. Each encoder's gates are one fused block in the layout the scan
reads, a (2K, 4d, d + n_in + 1) stack of [U | W | b] matrices, and the
contexts and head weights are blocks beside them; the forward pass makes
one leaf per fused block. A training step therefore records 8, 9, 13 or
14 nodes (``lstm``, ``lstm-attn``, ``lstm-alpha``, ``lstm-alpha-beta``)
at any batch size, as many for M=2 marks as for M=5. The per-gate
checkpoint names (``bin_lstm.{k}.{fwd|bwd}.{w|u|b}_{i|f|o|g}``,
``bin_context.{k}``, ...) are views into the same vector.

A pass that no backward pass follows (scoring, validation, attention
maps) runs with ``grad=False``: both scans then keep no per-step gates or
cells and record no node, so a pass holds its activations, not the
~100 MB of backward buffers a 64-sample bin scan keeps at the
acceptance shapes. A pass whose backward pass wants input gradients only
(saliency) runs with ``param_grad=False``: its scans then skip the
[U | W | b] gradient and the step columns it reads. All functions are
pure over read-only parameters; a trained store can serve concurrent
forward calls.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError, IngestionError
from .ioutil import atomic_write_bytes
from .lstm import GATES, bilstm_encode_steps

VARIANTS = ("lstm", "lstm-attn", "lstm-alpha", "lstm-alpha-beta")
PER_MARK_VARIANTS = ("lstm-alpha", "lstm-alpha-beta")
ALPHA_HEAD_WIDTH = 32

CHECKPOINT_MAGIC = b"trackattn-checkpoint-v1"


@dataclass
class ModelConfig:
    n_marks: int
    n_bins: int
    d: int = 32
    d_hm: int = 16
    variant: str = "lstm-alpha-beta"
    share_bin_context: bool = True
    mark_order: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ContractError(f"unknown variant {self.variant!r}; valid: {', '.join(VARIANTS)}")
        if min(self.n_marks, self.n_bins, self.d, self.d_hm) < 1:
            raise ContractError("n_marks, n_bins, d and d_hm must all be >= 1")
        if self.mark_order is not None:
            order = tuple(int(i) for i in self.mark_order)
            if len(order) != self.n_marks or sorted(order) != list(range(self.n_marks)):
                raise ContractError(f"mark_order {order} is not a permutation of 0..{self.n_marks - 1}")
            self.mark_order = order

    @property
    def order(self) -> tuple[int, ...]:
        return self.mark_order if self.mark_order is not None else tuple(range(self.n_marks))

    def to_dict(self) -> dict:
        return {
            "n_marks": self.n_marks, "n_bins": self.n_bins, "d": self.d, "d_hm": self.d_hm,
            "variant": self.variant, "share_bin_context": self.share_bin_context,
            "mark_order": list(self.mark_order) if self.mark_order is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        kwargs = dict(data)
        if kwargs.get("mark_order") is not None:
            kwargs["mark_order"] = tuple(kwargs["mark_order"])
        return cls(**kwargs)


def parameter_layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """The (name, shape) of every fused block of cfg's model, in the order
    they occupy the flat parameter vector.

    ``bin_lstm`` and ``mark_lstm`` are (2K, 4d, d + n_in + 1) stacks of
    [U | W | b] blocks (recurrence s = 2k + direction, rows i, f, o, g);
    ``bin_context`` holds one context row shared by every mark, or one
    per mark, and ``mark_context`` one row.
    """
    per_mark = cfg.variant in PER_MARK_VARIANTS
    n_k, n_in = (cfg.n_marks, 1) if per_mark else (1, cfg.n_marks)
    layout = [("bin_lstm", (2 * n_k, 4 * cfg.d, cfg.d + n_in + 1))]
    if cfg.variant != "lstm":
        n_ctx = cfg.n_marks if (per_mark and not cfg.share_bin_context) else 1
        layout.append(("bin_context", (n_ctx, 2 * cfg.d)))
    clf_in = 2 * cfg.d
    if cfg.variant == "lstm-alpha-beta":
        layout += [("mark_lstm", (2, 4 * cfg.d_hm, cfg.d_hm + 2 * cfg.d + 1)),
                   ("mark_context", (1, 2 * cfg.d_hm))]
        clf_in = 2 * cfg.d_hm
    elif cfg.variant == "lstm-alpha":
        layout += [("hidden.w", (ALPHA_HEAD_WIDTH, cfg.n_marks * 2 * cfg.d)),
                   ("hidden.b", (ALPHA_HEAD_WIDTH,))]
        clf_in = ALPHA_HEAD_WIDTH
    return layout + [("classifier.w", (2, clf_in)), ("classifier.b", (2,))]


def _checkpoint_views(blocks: dict[str, np.ndarray]):
    """Yield (checkpoint name, view) for every per-gate and per-context
    array inside the fused blocks, in the checkpoint's canonical order,
    which is also the initialization draw order."""
    for name, block in blocks.items():
        if name.endswith("_lstm"):
            d = block.shape[1] // 4
            for s, stack in enumerate(block):
                head = f"bin_lstm.{s // 2}" if name == "bin_lstm" else name
                head += (".fwd", ".bwd")[s % 2]
                for q, gate in enumerate(GATES):
                    rows = stack[q * d:(q + 1) * d]
                    yield f"{head}.w_{gate}", rows[:, d:-1]
                    yield f"{head}.u_{gate}", rows[:, :d]
                    yield f"{head}.b_{gate}", rows[:, -1]
        elif name == "bin_context":
            for k, row in enumerate(block):
                yield f"bin_context.{k}", row
        elif name == "mark_context":
            yield name, block[0]
        else:
            yield name, block


class ParameterStore:
    """Every trainable parameter of one model in one contiguous float64
    vector, ``flat``. ``blocks`` maps each fused block of ``layout`` (see
    :func:`parameter_layout`) to its view into ``flat``; ``named_blocks``
    yields the per-gate checkpoint names with their views."""

    def __init__(self, layout: list[tuple[str, tuple[int, ...]]], flat: np.ndarray | None = None):
        sizes = [math.prod(shape) for _, shape in layout]
        if flat is None:
            flat = np.zeros(sum(sizes))
        if flat.shape != (sum(sizes),):
            raise DimensionError(f"flat vector {flat.shape} does not hold {sum(sizes)} parameters")
        self.layout = layout
        self.flat = flat
        self.blocks: dict[str, np.ndarray] = {}
        offset = 0
        for (name, shape), size in zip(layout, sizes):
            self.blocks[name] = flat[offset:offset + size].reshape(shape)
            offset += size

    def named_blocks(self):
        return _checkpoint_views(self.blocks)

    def copy(self) -> "ParameterStore":
        return ParameterStore(self.layout, self.flat.copy())


def init_params(cfg: ModelConfig, seed: int) -> ParameterStore:
    """Draw every weight uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), fan_in
    being its last dimension, in checkpoint order; biases start at zero
    except the forget gate's, which start at one."""
    rng = np.random.default_rng(seed)
    params = ParameterStore(parameter_layout(cfg))
    for name, view in params.named_blocks():
        field_name = name.rsplit(".", 1)[-1]
        if field_name == "b_f":
            view[...] = 1.0
        elif not (field_name == "b" or field_name.startswith("b_")):
            bound = 1.0 / np.sqrt(view.shape[-1])
            view[...] = rng.uniform(-bound, bound, size=view.shape)
    return params


# ------------------------------------------------------------- forward pass


@dataclass
class BatchForward:
    """Graph handles from one batched forward pass."""

    logits: Tensor                       # (2, B)
    alphas: np.ndarray | None            # (n_rows, T, B): per mark, one joint row for lstm-attn
    betas: np.ndarray | None             # (M, B), rows in original mark order
    leaves: dict[str, Tensor]            # one parameter leaf per fused block
    inputs: Tensor                       # (T, M, 1, B) per mark, or (T, 1, M, B) joint

    def flat_gradient(self) -> np.ndarray:
        """The parameter gradient after a backward pass, laid out like
        :attr:`ParameterStore.flat`."""
        return np.concatenate([leaf.adjoint.reshape(-1) for leaf in self.leaves.values()])

    def input_gradient(self) -> np.ndarray:
        """The (B, M, T) input gradient after a backward pass; zeros when
        no gradient reached the inputs."""
        n_bins, n_k, n_in, n = self.inputs.data.shape
        adj = self.inputs.adjoint
        if adj is None:
            return np.zeros((n, n_k * n_in, n_bins))
        # both input layouts flatten to (T, M, B)
        return np.ascontiguousarray(adj.reshape(n_bins, n_k * n_in, n).transpose(2, 1, 0))


def _attend_steps(steps: Tensor, contexts: Tensor) -> tuple[np.ndarray, Tensor]:
    """Batched soft attention over the steps of a (T, K, d_h, B) stack,
    independently for each of the K sequences and B columns.

    ``contexts`` is (1, d_h), one context shared by every sequence, or
    (K, d_h), one per sequence. Scores are context dot products,
    normalized over the T steps by :func:`logits_to_probs`. Returns the
    (T, K, B) weights (values only) and the weighted sums as one (K·d_h, B)
    graph node, sequence k in rows k·d_h to (k+1)·d_h.
    """
    hd = steps.data
    _, n_k, n_h, _ = hd.shape
    ctx = contexts.data
    if ctx.ndim != 2 or ctx.shape[1] != n_h or ctx.shape[0] not in (1, n_k):
        raise DimensionError(f"contexts of shape {ctx.shape} do not match "
                             f"{n_k} sequences of height {n_h}")
    weights = logits_to_probs((hd * ctx[:, :, None]).sum(axis=2))         # (T, K, B)
    pooled = (hd * weights[:, :, None, :]).sum(axis=0)                   # (K, d_h, B)

    def bwd(adj):
        adj = adj.reshape(pooled.shape)
        dw = (hd * adj).sum(axis=2)
        ds = weights * (dw - (dw * weights).sum(axis=0))
        dh = weights[:, :, None, :] * adj + ctx[:, :, None] * ds[:, :, None, :]
        dctx = (hd * ds[:, :, None, :]).sum(axis=(0, 3))                 # (K, d_h)
        if len(ctx) == 1:
            dctx = dctx.sum(axis=0, keepdims=True)
        return dh, dctx

    return weights, ad.custom(pooled.reshape(n_k * n_h, -1), "attention_pool",
                              (steps, contexts), bwd)


def _mark_sequence(pooled: Tensor, order: tuple[int, ...]) -> Tensor:
    """Reorder the (M·d_h, B) mark summaries into the (M, 1, d_h, B)
    sequence the mark-level encoder reads."""
    idx = list(order)
    by_mark = pooled.data.reshape(len(idx), -1, pooled.data.shape[1])    # (M, d_h, B)

    def bwd(adj):
        g = np.empty_like(by_mark)
        g[idx] = adj[:, 0]
        return (g.reshape(pooled.data.shape),)

    return ad.custom(by_mark[idx][:, None], "mark_sequence", (pooled,), bwd)


def _final_states(encoded: Tensor, d: int) -> Tensor:
    """The (2d, B) readout of a single-sequence (T, 1, 2d, B) encoding: the
    forward state after the last step on the backward state after the first."""
    hd = encoded.data

    def bwd(adj):
        g = np.zeros_like(hd)
        g[-1, 0, :d] = adj[:d]
        g[0, 0, d:] = adj[d:]
        return (g,)

    out = np.concatenate([hd[-1, 0, :d], hd[0, 0, d:]], axis=0)
    return ad.custom(out, "final_states", (encoded,), bwd)


def forward_batch(x: np.ndarray, params: ParameterStore, cfg: ModelConfig,
                  grad: bool = True, param_grad: bool = True) -> BatchForward:
    """Run the variant's forward pass over a (B, M, T) input stack.

    The bin level is one scan call over every mark (per-mark variants) or
    over the joint M-wide columns, and one attention pool over its output;
    the mark level of lstm-alpha-beta is one more scan and pool, whose
    weights come back as beta rows in original mark order. With
    ``grad=False`` (no backward pass follows) both scans run tape-free:
    the values are bit-identical, but no gradient reaches the inputs or
    the LSTM parameters. With ``param_grad=False`` a backward pass gives
    the same input gradients, but none reaches the LSTM parameters.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (cfg.n_marks, cfg.n_bins):
        raise DimensionError(
            f"input shape {x.shape} does not match (B, {cfg.n_marks}, {cfg.n_bins})")
    leaves = {name: Tensor(block) for name, block in params.blocks.items()}
    clf_w, clf_b = leaves["classifier.w"], leaves["classifier.b"]
    per_mark = cfg.variant in PER_MARK_VARIANTS

    steps = x.transpose(2, 1, 0)                                         # (T, M, B)
    inputs = Tensor(np.ascontiguousarray(steps[:, :, None] if per_mark else steps[:, None]))
    encoded = bilstm_encode_steps(inputs, leaves["bin_lstm"], keep=grad,
                                  param_grad=param_grad)                 # (T, K, 2d, B)

    if cfg.variant == "lstm":
        logits = ad.affine(clf_w, _final_states(encoded, cfg.d), clf_b)
        return BatchForward(logits, None, None, leaves, inputs)

    weights, pooled = _attend_steps(encoded, leaves["bin_context"])
    alphas = weights.transpose(1, 0, 2)                                  # (K, T, B)
    if cfg.variant == "lstm-attn":
        logits = ad.affine(clf_w, pooled, clf_b)
        return BatchForward(logits, alphas, None, leaves, inputs)

    if cfg.variant == "lstm-alpha":
        hidden = ad.tanh(ad.affine(leaves["hidden.w"], pooled, leaves["hidden.b"]))
        logits = ad.affine(clf_w, hidden, clf_b)
        return BatchForward(logits, alphas, None, leaves, inputs)

    encoded_marks = bilstm_encode_steps(_mark_sequence(pooled, cfg.order), leaves["mark_lstm"],
                                        keep=grad, param_grad=param_grad)
    weights, gene_vec = _attend_steps(encoded_marks, leaves["mark_context"])
    betas = np.empty_like(weights[:, 0])                                 # (M, B)
    betas[list(cfg.order)] = weights[:, 0]
    logits = ad.affine(clf_w, gene_vec, clf_b)
    return BatchForward(logits, alphas, betas, leaves, inputs)


def logits_to_probs(logits: np.ndarray) -> np.ndarray:
    """Softmax over axis 0 with max-subtraction for stability: the class
    probabilities of a (2, B) logit array, or attention weights over the
    leading step axis. The subtracted maximum makes shifting by the
    (exactly representable) negated maximum a bit-exact no-op."""
    e = np.exp(logits - logits.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


def labels_to_class_indices(labels) -> np.ndarray:
    labels = np.asarray(labels)
    if not np.isin(labels, (-1, 1)).all():
        raise ContractError("labels must be -1 or +1")
    return ((labels + 1) // 2).astype(np.intp)


def nll_loss_batch(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of the true classes of a (2, B) logit
    node, as one graph node. An exact-zero true-class probability gives an
    infinite loss, which the training loop reports."""
    idx = labels_to_class_indices(labels)
    if logits.data.ndim != 2 or len(logits.data) != 2 or idx.shape != (logits.data.shape[1],) \
            or not idx.size:
        raise DimensionError(f"labels {idx.shape} do not match logits {logits.data.shape}")
    probs = logits_to_probs(logits.data)
    cols = np.arange(idx.size)
    picked = probs[idx, cols]
    scale = -1.0 / idx.size

    def bwd(adj):
        g = np.zeros_like(probs)
        g[idx, cols] = float(adj * scale) / picked
        return (probs * (g - (g * probs).sum(axis=0, keepdims=True)),)

    with np.errstate(divide="ignore"):
        return ad.custom(np.log(picked).sum() * scale, "nll", (logits,), bwd)


# ------------------------------------------------------------- checkpoints


def save_checkpoint(path: str, cfg: ModelConfig, seed: int, params: ParameterStore) -> None:
    """Write config, seed and every block (little-endian float64 payload,
    stable block names) into one container; the write is atomic."""
    blocks = list(params.named_blocks())
    header = {
        "config": cfg.to_dict(),
        "seed": int(seed),
        "blocks": [{"name": n, "shape": list(v.shape)} for n, v in blocks],
    }
    body = b"".join(np.ascontiguousarray(v, dtype="<f8").tobytes() for _, v in blocks)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    atomic_write_bytes(path, CHECKPOINT_MAGIC + b"\n" + head + b"\n" + body)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_CONFIG_FIELDS = {
    "n_marks": _is_int, "n_bins": _is_int, "d": _is_int, "d_hm": _is_int,
    "variant": lambda v: isinstance(v, str),
    "share_bin_context": lambda v: isinstance(v, bool),
    "mark_order": lambda v: v is None or (isinstance(v, list) and all(map(_is_int, v))),
}


def _read_header(path: str, head: bytes) -> tuple[ModelConfig, int, list[tuple[str, tuple]]]:
    """Decode and validate the JSON header: config, seed and the ordered
    (name, shape) block entries. Every defect raises ContractError."""
    def bad(what: str) -> ContractError:
        return ContractError(f"{path}: malformed checkpoint header: {what}")

    try:
        header = json.loads(head.decode("utf-8"))
    except (ValueError, RecursionError) as err:  # bad UTF-8 or JSON, or nested too deep
        raise bad(f"not UTF-8 JSON ({err})") from None
    if not isinstance(header, dict) or set(header) != {"blocks", "config", "seed"}:
        raise bad("expected exactly the keys blocks, config, seed")
    config, seed, blocks = header["config"], header["seed"], header["blocks"]
    if not _is_int(seed):
        raise bad(f"seed {seed!r} is not an integer")
    if not isinstance(config, dict) or set(config) != set(_CONFIG_FIELDS):
        raise bad(f"config must have exactly the keys {', '.join(sorted(_CONFIG_FIELDS))}")
    for key, valid in _CONFIG_FIELDS.items():
        if not valid(config[key]):
            raise bad(f"config {key} = {config[key]!r} has the wrong type")
    if not isinstance(blocks, list):
        raise bad("blocks is not a list")
    entries = []
    for entry in blocks:
        if (not isinstance(entry, dict) or set(entry) != {"name", "shape"}
                or not isinstance(entry["name"], str) or not isinstance(entry["shape"], list)
                or not all(_is_int(n) and n >= 0 for n in entry["shape"])):
            raise bad(f"block entry {entry!r} is not {{name, shape}}")
        entries.append((entry["name"], tuple(entry["shape"])))
    return ModelConfig.from_dict(config), seed, entries


def load_checkpoint(path: str) -> tuple[ModelConfig, int, ParameterStore]:
    """Read a container written by :func:`save_checkpoint`. A malformed
    container raises ContractError; non-finite parameters IngestionError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, _, rest = blob.partition(b"\n")
    if magic != CHECKPOINT_MAGIC:
        raise ContractError(f"{path}: not a checkpoint file")
    head, _, body = rest.partition(b"\n")
    cfg, seed, entries = _read_header(path, head)

    # Compare names and shapes with the config's before allocating, so
    # that a header cannot ask for more memory than its payload holds:
    # the expected blocks are views of memoryless placeholders. Per-mark
    # variants have over 20 blocks per mark.
    if cfg.variant in PER_MARK_VARIANTS and cfg.n_marks > len(entries):
        raise ContractError(f"{path}: block names do not match variant {cfg.variant!r}")
    layout = parameter_layout(cfg)
    placeholders = {name: np.broadcast_to(np.float64(0.0), shape) for name, shape in layout}
    expected = [(name, view.shape) for name, view in _checkpoint_views(placeholders)]
    if [name for name, _ in expected] != [name for name, _ in entries]:
        raise ContractError(f"{path}: block names do not match variant {cfg.variant!r}")
    for (name, want), (_, shape) in zip(expected, entries):
        if shape != want:
            raise ContractError(f"{path}: block {name} has shape {shape}, expected {want}")
    n_bytes = 8 * sum(math.prod(shape) for _, shape in layout)
    if len(body) != n_bytes:
        raise ContractError(f"{path}: payload holds {len(body)} bytes, expected {n_bytes}")

    params = ParameterStore(layout)
    offset = 0
    for name, view in params.named_blocks():
        raw = np.frombuffer(body, dtype="<f8", count=view.size, offset=offset)
        if not np.isfinite(raw).all():
            raise IngestionError(f"{path}: block {name} holds non-finite values")
        view[...] = raw.reshape(view.shape)
        offset += 8 * view.size
    return cfg, seed, params

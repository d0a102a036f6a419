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
the mark summaries in ``mark_order``. A B=16 training step therefore
records about 160 nodes, most of them parameter leaves. The mean negative
log-likelihood over the batch is the training root.

A pass that no backward pass follows (scoring, validation, attention
maps) runs with ``grad=False``: both scans then keep no per-step gates or
cells and record no node, so a pass holds its activations, not the
~400 MB of backward buffers a 256-sample bin scan keeps at the
acceptance shapes. All functions are pure over read-only parameters; a
trained store can serve concurrent forward calls.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError, IngestionError
from .ioutil import atomic_write_bytes
from .lstm import GATES, BiLstmParams, LstmParams, bilstm_encode_steps

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


@dataclass
class AttentionProfile:
    """Per-sample attention: alpha rows are probability vectors over bins
    (one per mark; one joint row for lstm-attn), beta over marks."""

    alpha: np.ndarray
    beta: np.ndarray | None = None


@dataclass
class Prediction:
    prob_high: float
    prob_low: float
    attention: AttentionProfile | None = None

    @property
    def label(self) -> int:
        """Predicted class in {-1, +1}; exact ties resolve to -1."""
        return 1 if self.prob_high > self.prob_low else -1


@dataclass
class ParameterStore:
    """Every trainable block of one model, as plain float64 arrays.

    Which fields are populated depends on the variant; ``named_blocks``
    yields (name, array) pairs in a stable canonical order that doubles as
    the checkpoint layout and the initialization draw order.
    """

    bin_lstms: list[BiLstmParams]
    bin_contexts: list[np.ndarray] = field(default_factory=list)
    mark_lstm: BiLstmParams | None = None
    mark_context: np.ndarray | None = None
    hidden_w: np.ndarray | None = None
    hidden_b: np.ndarray | None = None
    classifier_w: np.ndarray = None
    classifier_b: np.ndarray = None

    def named_blocks(self):
        for j, bl in enumerate(self.bin_lstms):
            for dirname, lp in (("fwd", bl.forward), ("bwd", bl.backward)):
                for fname, value in lp.named():
                    yield f"bin_lstm.{j}.{dirname}.{fname}", value
        for k, ctx in enumerate(self.bin_contexts):
            yield f"bin_context.{k}", ctx
        if self.mark_lstm is not None:
            for dirname, lp in (("fwd", self.mark_lstm.forward), ("bwd", self.mark_lstm.backward)):
                for fname, value in lp.named():
                    yield f"mark_lstm.{dirname}.{fname}", value
        if self.mark_context is not None:
            yield "mark_context", self.mark_context
        if self.hidden_w is not None:
            yield "hidden.w", self.hidden_w
            yield "hidden.b", self.hidden_b
        yield "classifier.w", self.classifier_w
        yield "classifier.b", self.classifier_b

    def map_blocks(self, fn) -> "ParameterStore":
        """Rebuild the store with fn(name, value) applied to every block."""
        def lstm(prefix, lp):
            return LstmParams(**{n: fn(f"{prefix}.{n}", v) for n, v in lp.named()})

        def bilstm(prefix, bl):
            return BiLstmParams(lstm(f"{prefix}.fwd", bl.forward), lstm(f"{prefix}.bwd", bl.backward))

        return ParameterStore(
            bin_lstms=[bilstm(f"bin_lstm.{j}", bl) for j, bl in enumerate(self.bin_lstms)],
            bin_contexts=[fn(f"bin_context.{k}", c) for k, c in enumerate(self.bin_contexts)],
            mark_lstm=None if self.mark_lstm is None else bilstm("mark_lstm", self.mark_lstm),
            mark_context=None if self.mark_context is None else fn("mark_context", self.mark_context),
            hidden_w=None if self.hidden_w is None else fn("hidden.w", self.hidden_w),
            hidden_b=None if self.hidden_b is None else fn("hidden.b", self.hidden_b),
            classifier_w=fn("classifier.w", self.classifier_w),
            classifier_b=fn("classifier.b", self.classifier_b),
        )

    def copy(self) -> "ParameterStore":
        return self.map_blocks(lambda _, v: v.copy())

    def n_parameters(self) -> int:
        return sum(v.size for _, v in self.named_blocks())


def _skeleton(cfg: ModelConfig) -> ParameterStore:
    """cfg's parameter store with every block a read-only placeholder of
    its shape that holds no memory (a broadcast view of one scalar), so
    block names and shapes are known before anything is allocated."""
    def block(*shape):
        return np.broadcast_to(np.float64(0.0), shape)

    def bilstm(n_in, d):
        def lstm():
            return LstmParams(**{f"{kind}_{g}": block(*shape) for g in GATES
                                 for kind, shape in (("w", (d, n_in)), ("u", (d, d)), ("b", (d,)))})
        return BiLstmParams(lstm(), lstm())

    per_mark = cfg.variant in PER_MARK_VARIANTS
    if per_mark:
        bin_lstms = [bilstm(1, cfg.d) for _ in range(cfg.n_marks)]
    else:
        bin_lstms = [bilstm(cfg.n_marks, cfg.d)]

    bin_contexts: list[np.ndarray] = []
    if cfg.variant != "lstm":
        n_ctx = cfg.n_marks if (per_mark and not cfg.share_bin_context) else 1
        bin_contexts = [block(2 * cfg.d) for _ in range(n_ctx)]

    mark_lstm = mark_context = None
    hidden_w = hidden_b = None
    if cfg.variant == "lstm-alpha-beta":
        mark_lstm = bilstm(2 * cfg.d, cfg.d_hm)
        mark_context = block(2 * cfg.d_hm)
        clf_in = 2 * cfg.d_hm
    elif cfg.variant == "lstm-alpha":
        hidden_w = block(ALPHA_HEAD_WIDTH, cfg.n_marks * 2 * cfg.d)
        hidden_b = block(ALPHA_HEAD_WIDTH)
        clf_in = ALPHA_HEAD_WIDTH
    else:
        clf_in = 2 * cfg.d

    return ParameterStore(
        bin_lstms=bin_lstms,
        bin_contexts=bin_contexts,
        mark_lstm=mark_lstm,
        mark_context=mark_context,
        hidden_w=hidden_w,
        hidden_b=hidden_b,
        classifier_w=block(2, clf_in),
        classifier_b=block(2),
    )


def init_params(cfg: ModelConfig, seed: int) -> ParameterStore:
    """Draw every weight uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), fan_in
    being its last dimension, in block order; biases start at zero except
    the forget gate's, which start at one."""
    rng = np.random.default_rng(seed)
    skeleton = _skeleton(cfg)
    drawn = {}
    for name, block in skeleton.named_blocks():
        field_name = name.rsplit(".", 1)[-1]
        if field_name == "b_f":
            drawn[name] = np.ones(block.shape)
        elif field_name == "b" or field_name.startswith("b_"):
            drawn[name] = np.zeros(block.shape)
        else:
            bound = 1.0 / np.sqrt(block.shape[-1])
            drawn[name] = rng.uniform(-bound, bound, size=block.shape)
    return skeleton.map_blocks(lambda name, _: drawn[name])


# ------------------------------------------------------------- forward pass


@dataclass
class BatchForward:
    """Graph handles from one batched forward pass."""

    logits: Tensor                       # (2, B)
    alphas: np.ndarray | None            # (n_rows, T, B): per mark, one joint row for lstm-attn
    betas: np.ndarray | None             # (M, B), rows in mark-sequence order
    leaves: dict[str, Tensor]            # parameter leaves by block name
    inputs: Tensor                       # (T, M, 1, B) per mark, or (T, 1, M, B) joint


def _leafed(params: ParameterStore) -> tuple[ParameterStore, dict[str, Tensor]]:
    leaves: dict[str, Tensor] = {}

    def wrap(name, value):
        t = Tensor(value)
        leaves[name] = t
        return t

    return params.map_blocks(wrap), leaves


def _attend_steps(steps: Tensor, contexts: list[Tensor]) -> tuple[np.ndarray, Tensor]:
    """Batched soft attention over the steps of a (T, K, d_h, B) stack,
    independently for each of the K sequences and B columns.

    ``contexts`` holds one (d_h,) context shared by every sequence, or one
    per sequence. Scores are context dot products, normalized over the T
    steps by the max-subtracted softmax. Returns the (T, K, B) weights
    (values only) and the (K, d_h, B) weighted sums as one graph node.
    """
    hd = steps.data
    _, n_k, n_h, _ = hd.shape
    ctx = np.stack([c.data for c in contexts])                           # (1 or K, d_h)
    if ctx.shape[1:] != (n_h,) or ctx.shape[0] not in (1, n_k):
        raise DimensionError(f"{ctx.shape[0]} contexts of length {ctx.shape[1]} do not match "
                             f"{n_k} sequences of height {n_h}")
    scores = (hd * ctx[:, :, None]).sum(axis=2)                          # (T, K, B)
    e = np.exp(scores - scores.max(axis=0))
    weights = e / e.sum(axis=0)
    pooled = (hd * weights[:, :, None, :]).sum(axis=0)                   # (K, d_h, B)

    def bwd(adj):
        dw = (hd * adj).sum(axis=2)
        ds = weights * (dw - (dw * weights).sum(axis=0))
        dh = weights[:, :, None, :] * adj + ctx[:, :, None] * ds[:, :, None, :]
        dctx = (hd * ds[:, :, None, :]).sum(axis=(0, 3))                 # (K, d_h)
        if len(contexts) == 1:
            return dh, dctx.sum(axis=0)
        return (dh, *dctx)

    return weights, ad.custom(pooled, "attention_pool", (steps, *contexts), bwd)


def _mark_sequence(pooled: Tensor, order: tuple[int, ...]) -> Tensor:
    """Reorder the (M, d_h, B) mark summaries into the (M, 1, d_h, B)
    sequence the mark-level encoder reads."""
    idx = list(order)

    def bwd(adj):
        g = np.empty_like(pooled.data)
        g[idx] = adj[:, 0]
        return (g,)

    return ad.custom(pooled.data[idx][:, None], "mark_sequence", (pooled,), bwd)


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
                  grad: bool = True) -> BatchForward:
    """Run the variant's forward pass over a (B, M, T) input stack.

    The bin level is one scan call over every mark (per-mark variants) or
    over the joint M-wide columns, and one attention pool over its output;
    the mark level of lstm-alpha-beta is one more scan and pool. With
    ``grad=False`` (no backward pass follows) both scans run tape-free:
    the values are bit-identical, but no gradient reaches the inputs or
    the LSTM parameters.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (cfg.n_marks, cfg.n_bins):
        raise DimensionError(
            f"input shape {x.shape} does not match (B, {cfg.n_marks}, {cfg.n_bins})")
    n_b, n_m, _ = x.shape
    store, leaves = _leafed(params)
    per_mark = cfg.variant in PER_MARK_VARIANTS

    steps = x.transpose(2, 1, 0)                                         # (T, M, B)
    inputs = Tensor(np.ascontiguousarray(steps[:, :, None] if per_mark else steps[:, None]))
    encoded = bilstm_encode_steps(inputs, store.bin_lstms, keep=grad)    # (T, K, 2d, B)

    if cfg.variant == "lstm":
        logits = ad.affine(store.classifier_w, _final_states(encoded, cfg.d), store.classifier_b)
        return BatchForward(logits, None, None, leaves, inputs)

    weights, pooled = _attend_steps(encoded, store.bin_contexts)
    alphas = weights.transpose(1, 0, 2)                                  # (K, T, B)
    d2 = 2 * cfg.d
    if cfg.variant == "lstm-attn":
        logits = ad.affine(store.classifier_w, ad.reshape(pooled, (d2, n_b)), store.classifier_b)
        return BatchForward(logits, alphas, None, leaves, inputs)

    if cfg.variant == "lstm-alpha":
        stacked = ad.reshape(pooled, (n_m * d2, n_b))
        hidden = ad.tanh(ad.affine(store.hidden_w, stacked, store.hidden_b))
        logits = ad.affine(store.classifier_w, hidden, store.classifier_b)
        return BatchForward(logits, alphas, None, leaves, inputs)

    encoded_marks = bilstm_encode_steps(_mark_sequence(pooled, cfg.order), [store.mark_lstm],
                                        keep=grad)
    betas, gene_vec = _attend_steps(encoded_marks, [store.mark_context])
    logits = ad.affine(store.classifier_w, ad.reshape(gene_vec, (2 * cfg.d_hm, n_b)),
                       store.classifier_b)
    return BatchForward(logits, alphas, betas[:, 0], leaves, inputs)


def logits_to_probs(logits: np.ndarray) -> np.ndarray:
    """Column-wise stable softmax of a (2, B) logit array."""
    e = np.exp(logits - logits.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


def extract_profiles(bf: BatchForward, cfg: ModelConfig) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Numpy attention maps from a forward pass: alpha (n_rows, T, B) and
    beta (M, B) with beta rows restored to original mark order."""
    beta = None
    if bf.betas is not None:
        beta = np.empty_like(bf.betas)
        beta[list(cfg.order), :] = bf.betas
    return bf.alphas, beta


def forward(x: np.ndarray, params: ParameterStore, cfg: ModelConfig) -> Prediction:
    """Classify a single (M, T) matrix, returning class probabilities and
    the attention profile when the variant produces one."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (cfg.n_marks, cfg.n_bins):
        raise DimensionError(f"input shape {x.shape} != ({cfg.n_marks}, {cfg.n_bins})")
    bf = forward_batch(x[None, :, :], params, cfg, grad=False)
    probs = logits_to_probs(bf.logits.data)[:, 0]
    alpha, beta = extract_profiles(bf, cfg)
    profile = None
    if alpha is not None:
        profile = AttentionProfile(alpha[:, :, 0], None if beta is None else beta[:, 0])
    return Prediction(prob_high=float(probs[1]), prob_low=float(probs[0]), attention=profile)


def labels_to_class_indices(labels) -> np.ndarray:
    labels = np.asarray(labels)
    if not np.isin(labels, (-1, 1)).all():
        raise ContractError("labels must be -1 or +1")
    return ((labels + 1) // 2).astype(np.intp)


def nll_loss_batch(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of the true classes, on the graph."""
    idx = labels_to_class_indices(labels)
    probs = ad.softmax(logits)
    picked = ad.pick_cols(probs, idx)
    return ad.scale(ad.sum_all(ad.log(picked)), -1.0 / idx.size)


def collect_input_gradients(bf: BatchForward, cfg: ModelConfig) -> np.ndarray:
    """Assemble the (B, M, T) input gradients after a backward pass has
    populated adjoints."""
    adj = bf.inputs.adjoint
    if adj is None:
        return np.zeros((bf.logits.data.shape[1], cfg.n_marks, cfg.n_bins))
    # both input layouts flatten to (T, M, B)
    return np.ascontiguousarray(adj.reshape(cfg.n_bins, cfg.n_marks, -1).transpose(2, 1, 0))


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
    except ValueError as err:  # UnicodeDecodeError and JSONDecodeError alike
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
    # that a header cannot ask for more memory than its payload holds.
    # Per-mark variants have over 20 blocks per mark.
    if cfg.variant in PER_MARK_VARIANTS and cfg.n_marks > len(entries):
        raise ContractError(f"{path}: block names do not match variant {cfg.variant!r}")
    skeleton = _skeleton(cfg)
    expected = [(name, block.shape) for name, block in skeleton.named_blocks()]
    if [name for name, _ in expected] != [name for name, _ in entries]:
        raise ContractError(f"{path}: block names do not match variant {cfg.variant!r}")
    for (name, want), (_, shape) in zip(expected, entries):
        if shape != want:
            raise ContractError(f"{path}: block {name} has shape {shape}, expected {want}")

    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in expected:
        size = math.prod(shape)
        raw = body[offset:offset + 8 * size]
        if len(raw) != 8 * size:
            raise ContractError(f"{path}: truncated payload at block {name}")
        arrays[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        offset += 8 * size
    if offset != len(body):
        raise ContractError(f"{path}: trailing bytes after last block")
    for name, value in arrays.items():
        if not np.isfinite(value).all():
            raise IngestionError(f"{path}: block {name} holds non-finite values")
    return cfg, seed, skeleton.map_blocks(lambda name, _: arrays[name])

"""Spans around the program's layer boundaries, and the per-layer metrics
derived from them.

The program is not instrumented. ``install`` replaces names that the
program looks up at call time (module attributes such as
``training.forward_batch``) with wrappers that record a span: name,
start, end, parent span and a few attributes. Spans stay in memory until
the run ends. A name that no longer exists is skipped, and every metric
that needs it is dropped from the report.

Counting graph nodes walks ``Tensor.parents``; that walk runs in a span of
its own (``trace.count``), and every duration below has the time of the
count spans inside it taken out.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field

OVERHEAD = "trace.count"


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack: list[Span] = []
        self._restore: list[tuple] = []

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, attrs=attrs)
        if parent is not None:
            parent.children.append(span)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, module: str, attr: str, before=None, after=None) -> None:
        """Record a span named ``<module tail>.<attr>`` around every call
        of ``module.attr``. ``before(args)`` gives attributes from the
        arguments; ``after(args, result)`` from the result, off the clock."""
        name = f"{module.rsplit('.', 1)[-1]}.{attr}"
        try:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
        except (ImportError, AttributeError):
            self.missing.add(name)
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name, **(before(args) if before else {}))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                cost = self.open(OVERHEAD)
                span.attrs.update(after(args, result))
                self.close(cost)
            return result

        setattr(mod, attr, wrapper)
        self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()


# --------------------------------------------------------------- graphs


def _is_tensor(obj) -> bool:
    return hasattr(obj, "parents") and hasattr(obj, "op")


def tensors_in(obj, depth: int = 3) -> list:
    """Tensors held by obj, looking through lists, dicts and object
    fields up to ``depth`` levels down."""
    if _is_tensor(obj):
        return [obj]
    if depth == 0:
        return []
    if isinstance(obj, (list, tuple)):
        items = obj
    elif isinstance(obj, dict):
        items = obj.values()
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return []
    return [t for item in items for t in tensors_in(item, depth - 1)]


def count_nodes(roots, stop=()) -> int:
    """Nodes reachable from roots through ``parents``, not entering stop."""
    seen = {id(t) for t in stop}
    stack = list(roots)
    n = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        n += 1
        stack.extend(t.parents)
    return n


def install(tracer: Tracer, n_bins: int) -> None:
    """Wrap the program's layer boundaries. Sequence calls over ``n_bins``
    steps are bin-level; the others (over marks) are mark-level."""
    def level(args):
        try:
            return {"level": "bin" if len(args[0]) == n_bins else "mark"}
        except (IndexError, TypeError):
            return {"level": "unknown"}

    def graph(args, result):
        return {"nodes": count_nodes(tensors_in(result))}

    def added(args, result):
        return {"nodes": count_nodes(tensors_in(result), stop=tensors_in(args))}

    for attr in ("forward_batch", "clip_gradients", "optimizer_step", "predict_probs"):
        tracer.wrap("trackattn.training", attr)
    tracer.wrap("trackattn.training", "nll_loss_batch", after=graph)
    tracer.wrap("trackattn.metrics", "forward_batch", after=graph)
    for attr in ("score_dataset", "mean_attention", "mean_saliency"):
        tracer.wrap("trackattn.metrics", attr)
    tracer.wrap("trackattn.model", "bilstm_encode_steps", before=level, after=added)
    tracer.wrap("trackattn.model", "_attend_steps", before=level)
    tracer.wrap("trackattn.autodiff", "backward")
    tracer.wrap("trackattn.autodiff", "_topo_order")
    tracer.wrap("trackattn.data", "load_dataset")
    tracer.wrap("trackattn.cli", "load_checkpoint")
    tracer.wrap("trackattn.cli", "save_checkpoint")


# -------------------------------------------------------------- metrics


class _Analysis:
    def __init__(self, spans: list[Span]):
        self.spans = spans
        cost = sorted((s for s in spans if s.name == OVERHEAD), key=lambda s: s.start)
        self._cost_starts = [s.start for s in cost]
        self._cost_sums = [0.0]
        for s in cost:
            self._cost_sums.append(self._cost_sums[-1] + (s.end - s.start))

    def overhead(self, start: float, end: float) -> float:
        # count spans never nest in each other, and one that starts inside
        # [start, end] also ends inside it
        i = bisect.bisect_left(self._cost_starts, start)
        j = bisect.bisect_left(self._cost_starts, end)
        return self._cost_sums[j] - self._cost_sums[i]

    def dur(self, s: Span) -> float:
        return s.end - s.start - self.overhead(s.start, s.end)

    def self_time(self, s: Span) -> float:
        return self.dur(s) - sum(self.dur(c) for c in s.children if c.name != OVERHEAD)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def under(self, s: Span, name: str, level: str | None = None) -> list[Span]:
        out, stack = [], list(s.children)
        while stack:
            c = stack.pop()
            if c.name == name and (level is None or c.attrs.get("level") == level):
                out.append(c)
            stack.extend(c.children)
        return out

    def train_steps(self) -> list[list[Span]]:
        """Consecutive sibling spans from one training forward pass to the
        next: forward, loss, backward, clipping and the update."""
        steps = []
        for cmd in self.named("cli.train"):
            for c in cmd.children:
                if c.name == "training.forward_batch":
                    steps.append([c])
                elif steps and steps[-1][-1].name != "training.optimizer_step" and c.name in (
                        "training.nll_loss_batch", "autodiff.backward",
                        "training.clip_gradients", "training.optimizer_step", OVERHEAD):
                    steps[-1].append(c)
        return steps


# name -> (unit, wrapped names it needs)
PER_LAYER = {
    "data.ingest_s": ("s", ["data.load_dataset"]),
    "data.ingest_rows_per_s": ("rows/s", ["data.load_dataset"]),
    "model.forward_train_ms": ("ms/batch", ["training.forward_batch"]),
    "model.forward_score_ms": ("ms/batch", ["metrics.forward_batch"]),
    "model.graph_nodes_per_train_step": ("count", ["training.nll_loss_batch"]),
    "model.graph_nodes_per_score_batch": ("count", ["metrics.forward_batch"]),
    "model.checkpoint_ms": ("ms", ["cli.load_checkpoint", "cli.save_checkpoint"]),
    "lstm.bin_scan_ms": ("ms/batch", ["training.forward_batch", "model.bilstm_encode_steps"]),
    "lstm.mark_scan_ms": ("ms/batch", ["training.forward_batch", "model.bilstm_encode_steps"]),
    "lstm.scan_nodes_per_train_step": ("count", ["training.forward_batch",
                                                 "model.bilstm_encode_steps"]),
    "attention.bin_pool_ms": ("ms/batch", ["training.forward_batch", "model._attend_steps"]),
    "attention.mark_pool_ms": ("ms/batch", ["training.forward_batch", "model._attend_steps"]),
    "autodiff.backward_ms": ("ms/step", ["autodiff.backward", "autodiff._topo_order"]),
    "autodiff.topo_order_ms": ("ms/step", ["autodiff.backward", "autodiff._topo_order"]),
    "autodiff.saliency_backward_s": ("s", ["autodiff.backward", "metrics.mean_saliency"]),
    "training.step_ms": ("ms/step", ["training.forward_batch", "training.optimizer_step"]),
    "training.update_ms": ("ms/step", ["training.clip_gradients", "training.optimizer_step"]),
    "training.validation_s": ("s", ["training.predict_probs"]),
    "metrics.score_s": ("s", ["metrics.score_dataset"]),
    "metrics.mean_attention_s": ("s", ["metrics.mean_attention"]),
    "metrics.mean_saliency_s": ("s", ["metrics.mean_saliency"]),
}


def _samples(a: _Analysis, rows_per_ingest: int) -> dict[str, list[float]]:
    """Per-call (or per-step, per-batch, per-command) samples of each metric."""
    ms = 1e3
    out: dict[str, list[float]] = {}
    ingest = [a.dur(s) for s in a.named("data.load_dataset")]
    out["data.ingest_s"] = ingest
    if ingest:
        out["data.ingest_rows_per_s"] = [rows_per_ingest * len(ingest) / sum(ingest)]
    train_fwd = a.named("training.forward_batch")
    out["model.forward_train_ms"] = [ms * a.dur(s) for s in train_fwd]
    score_fwd = a.named("metrics.forward_batch")
    out["model.forward_score_ms"] = [ms * a.dur(s) for s in score_fwd]
    out["model.graph_nodes_per_train_step"] = [
        s.attrs["nodes"] for s in a.named("training.nll_loss_batch") if "nodes" in s.attrs]
    out["model.graph_nodes_per_score_batch"] = [
        s.attrs["nodes"] for s in score_fwd if "nodes" in s.attrs]
    out["model.checkpoint_ms"] = [ms * a.dur(s) for s in
                                  a.named("cli.load_checkpoint") + a.named("cli.save_checkpoint")]
    for metric, name, level in (("lstm.bin_scan_ms", "model.bilstm_encode_steps", "bin"),
                                ("lstm.mark_scan_ms", "model.bilstm_encode_steps", "mark"),
                                ("attention.bin_pool_ms", "model._attend_steps", "bin"),
                                ("attention.mark_pool_ms", "model._attend_steps", "mark")):
        out[metric] = [ms * sum(a.dur(c) for c in a.under(s, name, level)) for s in train_fwd]
    out["lstm.scan_nodes_per_train_step"] = [
        sum(c.attrs.get("nodes", 0) for c in a.under(s, "model.bilstm_encode_steps"))
        for s in train_fwd]
    train_bwd = [s for s in a.named("autodiff.backward") if s.parent and s.parent.name == "cli.train"]
    out["autodiff.backward_ms"] = [ms * a.self_time(s) for s in train_bwd]
    out["autodiff.topo_order_ms"] = [ms * sum(a.dur(c) for c in a.under(s, "autodiff._topo_order"))
                                     for s in train_bwd]
    out["autodiff.saliency_backward_s"] = [
        sum(a.dur(c) for c in a.under(s, "autodiff.backward"))
        for s in a.named("metrics.mean_saliency")]
    steps = [g for g in a.train_steps() if g[-1].name == "training.optimizer_step"]
    out["training.step_ms"] = [ms * (g[-1].end - g[0].start - a.overhead(g[0].start, g[-1].end))
                               for g in steps]
    out["training.update_ms"] = [ms * sum(a.dur(s) for s in g if s.name in (
        "training.clip_gradients", "training.optimizer_step")) for g in steps]
    out["training.validation_s"] = [a.dur(s) for s in a.named("training.predict_probs")]
    for metric, name in (("metrics.score_s", "metrics.score_dataset"),
                         ("metrics.mean_attention_s", "metrics.mean_attention"),
                         ("metrics.mean_saliency_s", "metrics.mean_saliency")):
        out[metric] = [a.dur(s) for s in a.named(name)]
    return out


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest of the 75th, 90th, 95th and 99th percentiles with at
    least ten samples beyond it, or None below forty samples."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def per_layer_metrics(spans: list[Span], missing: set[str], rows_per_ingest: int):
    """Returns ({metric: (median, unit)}, report lines). Metrics whose
    wrapped names are missing, or that got no samples, are left out."""
    samples = _samples(_Analysis(spans), rows_per_ingest)
    metrics, lines = {}, []
    for name, (unit, needs) in PER_LAYER.items():
        values = samples.get(name, [])
        dropped = sorted(set(needs) & missing)
        if dropped or not values:
            lines.append(f"{name}: dropped ({'missing ' + ', '.join(dropped) if dropped else 'no samples'})")
            continue
        median = statistics.median(values)
        metrics[name] = (median, unit)
        t = tail(values)
        extra = f", p{t[0]} {t[1]:.6g}" if t else ""
        lines.append(f"{name}: median {median:.6g} {unit}{extra}, n={len(values)}")
    return metrics, lines

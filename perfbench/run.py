"""Session benchmark: trackattn's train, eval and attend commands as a user runs them.

    python3 perfbench/run.py --workload hier-session --seed 1 --seconds 40 --trace 0

A session is a closed loop of ``python -m trackattn`` processes, one at a
time, each started when the previous one exits: ``train`` for a fixed
number of epochs, then ``eval`` and ``attend --reference`` in alternation
on the trained checkpoint, in whole rounds, until the commands have run
for ``--seconds``. The inputs come from ``--seed`` (see inputs.py), and
every output is checked against the benchmark's own reference
(checks.py). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 1`` replays the same sequence in this process through
``trackattn.cli.main`` with spans around the program's layers
(tracing.py), and reports the per-layer metrics instead. ``--tiny`` runs
every check on small shapes in seconds.
"""

from __future__ import annotations

import os
import sys

# One OpenBLAS thread, for this process and every command it starts
# (OpenBLAS reads the count once, when numpy is first imported). At these
# matrix sizes a second thread bought no speed on a 2-core host and
# widened the spread of a command's wall time several-fold.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {"hier-session": "lstm-alpha-beta", "joint-session": "lstm-attn"}
SETUP_REPEATS = 3
KINDS = ("train", "eval", "attend")


class Session:
    """One workload's files, command lines and per-command records."""

    def __init__(self, variant: str, shape, workdir: str):
        self.variant, self.shape, self.workdir = variant, shape, workdir
        self.dataset = os.path.join(workdir, "dataset.csv")
        self.relevance = os.path.join(workdir, "relevance.csv")
        self.model_dir = os.path.join(workdir, "model")
        self.checkpoint = os.path.join(self.model_dir, "checkpoint.ckpt")
        self.report = os.path.join(workdir, "metrics.json")
        self.maps = os.path.join(workdir, "maps")
        self.config = os.path.join(workdir, "train.cfg")
        self.records: list[dict] = []
        self.attend_class = "on"

    def write_config(self) -> None:
        s = self.shape
        lines = [f"dataset = {self.dataset}", f"out_dir = {self.model_dir}",
                 f"n_bins = {s.n_bins}", f"variant = {self.variant}", f"d = {s.d}",
                 f"d_hm = {s.d_hm}", f"batch_size = {s.batch_size}", f"max_epochs = {s.epochs}",
                 # early stopping never ends a session early
                 f"patience = {s.epochs}", "seed = 0"]
        if s.learning_rate:
            lines.append(f"learning_rate = {s.learning_rate}")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def argv(self, kind: str) -> list[str]:
        if kind == "train":
            return ["train", "--config", self.config]
        common = ["--checkpoint", self.checkpoint, "--dataset", self.dataset, "--part", "test"]
        if kind == "eval":
            return ["eval", *common, "--out", self.report]
        return ["attend", *common, "--class", self.attend_class, "--out", self.maps,
                "--reference", self.relevance]


def run_subprocess(session: Session, argv: list[str]) -> tuple[int, float, float]:
    """Run one command as its own process; returns (exit code, wall
    seconds, peak RSS in MB from wait4)."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    log = os.path.join(session.workdir, f"{argv[0]}.log")
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "trackattn", *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log, encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(f"perfbench: {argv[0]} exited {proc.returncode}:\n{fh.read()[-2000:]}")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_in_process(tracer, argv: list[str]) -> tuple[int, float, float]:
    """Run one command through ``cli.main`` under a root span."""
    from trackattn import cli

    span = tracer.open(f"cli.{argv[0]}")
    start = time.perf_counter()
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as err:
        code = err.code if isinstance(err.code, int) else 2
    except Exception:  # a traceback is a failed command, not a failed benchmark
        sink.write(traceback.format_exc())
        code = 1
    finally:
        wall = time.perf_counter() - start
        tracer.close(span)
    if code != 0:
        sys.stderr.write(f"perfbench: {argv[0]} exited {code}:\n{sink.getvalue()[-2000:]}")
    return code, wall, float("nan")


def run_session(session: Session, planted, seed: int, seconds: float, run) -> tuple[int, int]:
    """Train, then whole (eval, attend) rounds until the commands have run
    for ``seconds``. Checks every output; returns (attempted, failed)."""
    n = len(planted.labels)
    parts = [len(p) for p in reference.split_indices(n)]
    work = {"train": parts[0] * session.shape.epochs, "eval": parts[2], "attend": parts[2]}

    def command(kind: str) -> bool:
        code, wall, rss = run(session.argv(kind))
        session.records.append({"kind": kind, "ok": code == 0, "wall": wall, "rss": rss,
                                "work": work[kind]})
        return code == 0

    if not command("train"):
        return 1, 1
    checks.check_train(session.model_dir, session.shape, session.variant)
    sref = checks.SessionReference(planted, session.shape, session.checkpoint, seed)
    session.attend_class = sref.predicted_class
    while True:
        if command("eval"):
            checks.check_eval(session.report, sref)
        if command("attend"):
            checks.check_attend(session.maps, sref)
        if sum(r["wall"] for r in session.records) >= seconds:
            break
    return len(session.records), sum(not r["ok"] for r in session.records)


def end_to_end_metrics(session: Session, setup: list[float]) -> dict:
    metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
    for kind in KINDS:
        done = [r for r in session.records if r["kind"] == kind and r["ok"]]
        if not done:
            continue
        metrics[f"{kind}_samples_per_s"] = {
            "value": sum(r["work"] for r in done) / sum(r["wall"] for r in done),
            "unit": "samples/s"}
        metrics[f"{kind}_peak_rss_mb"] = {
            "value": statistics.median(r["rss"] for r in done), "unit": "MB"}
    return metrics


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small shapes; every check in seconds")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trackattn", "cli.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    shape = inputs.TINY if args.tiny else inputs.FULL
    workdir = os.path.join(HERE, "_runs", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    session = Session(WORKLOADS[args.workload], shape, workdir)
    tracer = tracing.Tracer()
    correct = True
    try:
        planted = inputs.generate(shape, args.seed)
        setup = [inputs.write(planted, session.dataset, session.relevance)
                 for _ in range(SETUP_REPEATS)]
        session.write_config()
        if args.trace:
            tracing.install(tracer, shape.n_bins)
            run = functools.partial(run_in_process, tracer)
        else:
            run = functools.partial(run_subprocess, session)
        try:
            attempted, failed = run_session(session, planted, args.seed, args.seconds, run)
        except checks.CheckFailed as err:
            print(f"perfbench: {err}", file=sys.stderr)
            correct = False
            attempted = len(session.records)
            failed = sum(not r["ok"] for r in session.records)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, lines = tracing.per_layer_metrics(tracer.spans, tracer.missing, shape.rows)
        traced = end_to_end_metrics(session, setup)
        lines.append("traced rates: " + ", ".join(
            f"{k} {v['value']:.4g}" for k, v in traced.items() if k.endswith("_per_s")))
        print("\n".join(lines))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        metrics = end_to_end_metrics(session, setup)
    if not args.trace and any(f"{k}_samples_per_s" not in metrics for k in KINDS):
        print("perfbench: a command kind never succeeded; no result", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself, on tiny shapes (a few seconds each).

    python3 -m pytest perfbench

Tiny sequences are too short for the planted-signal floors to hold on
every seed (the joint model's bin attention need not sit on a 3-bin
window of 12), so these tests pin a seed on which they hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SEED = 2


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout, proc.stderr


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_session_passes_every_check(workload, trace):
    code, out, err = _bench("--tiny", "--workload", workload, "--seed", str(SEED),
                            "--seconds", "1", "--trace", trace)
    assert code == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3 and result["attempted"] % 2 == 1
    spec = _declared()
    names = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == "0" else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    # the joint model has no mark level, so its mark-level layers read 0
    no_mark_level = workload == "joint-session"
    assert all(v["value"] > 0 for k, v in result["metrics"].items()
               if not (no_mark_level and ".mark_" in k))


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        code, out, err = _bench("--tiny", "--workload", "hier-session", "--seed", str(SEED),
                                "--seconds", "1", "--trace", "1")
        assert code == 0, err
        metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1] and len(counts[0]) == 3


def test_missing_wrapped_name_drops_its_metrics(monkeypatch):
    from trackattn import autodiff

    monkeypatch.delattr(autodiff, "_topo_order")
    tracer = tracing.Tracer()
    tracing.install(tracer, n_bins=12)
    tracer.uninstall()
    assert tracer.missing == {"autodiff._topo_order"}
    metrics, lines = tracing.per_layer_metrics([], tracer.missing, rows_per_ingest=1)
    assert metrics == {}
    assert any(line.startswith("autodiff.topo_order_ms: dropped (missing autodiff._topo_order")
               for line in lines)
    assert any(line.startswith("autodiff.backward_ms: dropped (missing") for line in lines)
    assert any(line.startswith("training.step_ms: dropped (no samples)") for line in lines)


def test_checks_name_a_tampered_output(tmp_path):
    shape = inputs.TINY
    planted = inputs.generate(shape, SEED)
    session = run.Session("lstm-alpha-beta", shape, str(tmp_path))
    inputs.write(planted, session.dataset, session.relevance)
    session.write_config()
    runner = lambda argv: run.run_subprocess(session, argv)  # noqa: E731
    run.run_session(session, planted, SEED, 0.0, runner)
    sref = checks.SessionReference(planted, shape, session.checkpoint, SEED)

    alpha = os.path.join(session.maps, "alpha.csv")
    with open(alpha, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    mark, b, value = lines[1].split(",")
    lines[1] = f"{mark},{b},{float(value) * 1.001!r}"
    with open(alpha, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed) as err:
        checks.check_attend(session.maps, sref)
    assert err.value.check == "attend.alpha_sums_to_one"

    with open(session.report, encoding="utf-8") as fh:
        report = json.load(fh)
    report["auc"] -= 1e-6
    with open(session.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    with pytest.raises(checks.CheckFailed) as err:
        checks.check_eval(session.report, sref)
    assert err.value.check == "eval.auc_pairs"


def test_refuses_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hier-session", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""

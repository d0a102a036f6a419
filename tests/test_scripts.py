"""Smoke runs of the example scripts at tiny shapes: both import the
package's public names, so a change to them shows here."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = ["--n-genes", "90", "--n-marks", "2", "--n-bins", "10", "--bins", "3:5",
        "--d", "4", "--d-hm", "3", "--max-epochs", "2"]


@pytest.mark.parametrize("script,expected", [
    ("planted_experiment.py", "mean saliency of informative mark"),
    ("mark_ablation.py", "marks used"),
], ids=["planted_experiment", "mark_ablation"])
def test_script_runs_end_to_end(script, expected):
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *TINY],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout

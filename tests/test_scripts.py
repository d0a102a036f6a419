"""Smoke runs of the example scripts at tiny shapes: both import the
package's public names, so a change to them shows here."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = ["--n-genes", "90", "--n-marks", "2", "--n-bins", "10", "--bins", "3:5",
        "--d", "4", "--d-hm", "3", "--max-epochs", "2"]


def run_script(script, *argv):
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("script,expected", [
    ("planted_experiment.py", "mean saliency of informative mark"),
    ("mark_ablation.py", "marks used"),
], ids=["planted_experiment", "mark_ablation"])
def test_script_runs_end_to_end(script, expected):
    done = run_script(script, *TINY)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout


@pytest.mark.parametrize("script", ["planted_experiment.py", "mark_ablation.py"],
                         ids=["planted_experiment", "mark_ablation"])
def test_script_rejects_malformed_bins_as_option_error(script):
    # the scripts parse --bins with the CLI's own parser (whose malformed
    # forms test_cli covers), as an argparse type: exit 2, no traceback
    done = run_script(script, "--bins", "45")
    assert done.returncode == 2
    assert "argument --bins" in done.stderr and "Traceback" not in done.stderr

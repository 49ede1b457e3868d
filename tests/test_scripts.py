"""Smoke runs of the scripts under scripts/: each must exit 0 on the current API."""

import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def _run(name, *args):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args],
                          capture_output=True, text=True, timeout=300)


def test_compare_beamformers_runs():
    proc = _run("compare_beamformers.py", "--rx-angle", "20")
    assert proc.returncode == 0, proc.stderr
    assert "continuous power bound" in proc.stdout


def test_reproduce_sweeps_runs(tmp_path):
    proc = _run("reproduce_sweeps.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert os.path.isfile(tmp_path / "gain" / "summary.json")

"""Smoke runs of scripts/ and of README's quick start: each must run on the current API."""

import argparse
import importlib.util
import os
import re
import shutil
import subprocess
import sys

import pytest

from rislink.experiments import run_config

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


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


def test_diff_outputs_passes_on_itself_and_catches_a_digest(tmp_path):
    ref, new = tmp_path / "ref", tmp_path / "new"
    run_config(os.path.join(CONFIGS, "angle.cfg"), ref / "angle")
    shutil.copytree(ref, new)
    proc = _run("diff_outputs.py", str(new), str(ref))
    assert proc.returncode == 0, proc.stdout
    assert "path_loss_dB: worst relative gap 0 " in proc.stdout
    assert proc.stdout.endswith("0 mismatches\n")

    csv_path = new / "angle" / "angle.csv"
    lines = csv_path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[3] = repr(float(fields[3]) * (1 + 1e-13))  # within the dB rule
    lines[2] = ",".join(fields)
    csv_path.write_text("\n".join(lines) + "\n")
    proc = _run("diff_outputs.py", str(new), str(ref))
    assert proc.returncode == 0, proc.stdout
    gap = re.search(r"path_loss_dB: worst relative gap (\S+) ", proc.stdout).group(1)
    assert 0.9e-13 < float(gap) < 1.1e-13

    fields[4] = "0" * 12
    lines[2] = ",".join(fields)
    csv_path.write_text("\n".join(lines) + "\n")
    proc = _run("diff_outputs.py", str(new), str(ref))
    assert proc.returncode == 1
    assert "MISMATCH angle/angle.csv row 1 config_digest" in proc.stdout


def test_beamform_outputs_writes_every_method_and_reruns_identically(tmp_path):
    cfg = os.path.join(CONFIGS, "angle.cfg")
    for out in ("a", "b"):
        proc = _run("beamform_outputs.py", cfg, "--out", str(tmp_path / out))
        assert proc.returncode == 0, proc.stderr
    got = sorted(os.listdir(tmp_path / "a" / "angle"))
    assert len(got) == 3 * (4 + 3 + 3 + 1)  # 7 stdouts and 4 traces per seed
    assert "greedy_rounds3_seed2.csv" in got and "quantized_seed0.json" in got
    for name in got:
        a, b = (tmp_path / d / "angle" / name for d in ("a", "b"))
        assert a.read_bytes() == b.read_bytes(), name
    assert '"method": "continuous"' in (tmp_path / "a" / "angle" / "continuous_seed1.json").read_text()
    assert (tmp_path / "a" / "angle" / "blind_seed0.csv").read_text().startswith(
        "step,accepted,power_w\n")


def test_beamform_stages_prints_every_stage_per_method():
    proc = _run("beamform_stages.py", os.path.join(CONFIGS, "angle.cfg"), "--repeat", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "median CPU ms over 2 calls"
    assert lines[1].split() == ["config", "method", "parse", "scenario", "oracle", "search",
                                "digest", "sum", "json", "other", "total"]
    for line, method in zip(lines[2:], ("blind", "greedy")):
        name, got, *ms = line.split()
        assert (name, got) == ("angle.cfg", method)
        assert len(ms) == 9 and all(float(v) >= 0 for v in ms[:-2])
        assert float(ms[-1]) > 0
    assert len(lines) == 4
def _load(name):
    spec = importlib.util.spec_from_file_location(name[:-3], os.path.join(SCRIPTS, name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_beamform_stages_reproduces_the_benchmark_calls(tmp_path):
    cfg = tmp_path / "noisy.cfg"
    cfg.write_text("[scenario]\nn_rows = 3\nn_cols = 5\nnoise_variance_w = 1e-6\n")
    proc = _run("beamform_stages.py", str(cfg), "--repeat", "1", "--seed", "91",
                "--passes", "4", "--rounds", "1", "--noiseless")
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[:2] for line in proc.stdout.splitlines()[2:]] == [
        ["noisy.cfg", "blind"], ["noisy.cfg", "greedy"]]
    stages = _load("beamform_stages.py")
    bench = argparse.Namespace(seed=91, passes=4, rounds=1)
    common = ["beamform", "--config", str(cfg), "--seed", "91", "--method"]
    assert stages.beamform_args(str(cfg), "blind", bench) == common + ["blind", "--passes", "4"]
    assert stages.beamform_args(str(cfg), "greedy", bench) == common + ["greedy", "--rounds", "1"]
    defaults = argparse.Namespace(seed=0, passes=None, rounds=None)
    assert stages.beamform_args(str(cfg), "greedy", defaults)[-3:] == ["0", "--method", "greedy"]
    args = stages.cli._PARSER.parse_args(["beamform", "--config", str(cfg)])
    assert stages.cli._scenario_from_args(args)[0].noise_variance == 1e-6
    with stages.noiseless():
        assert stages.cli._scenario_from_args(args)[0].noise_variance == 0.0
    assert stages.cli._scenario_from_args(args)[0].noise_variance == 1e-6


@pytest.mark.parametrize("method", ["blind", "greedy"])
def test_every_beamform_stage_times_a_function_the_command_calls(monkeypatch, capsys, method):
    stages = _load("beamform_stages.py")
    called = set()
    for stage, targets in stages.STAGES:
        for owner, name in targets:
            def counted(*args, _fn=getattr(owner, name), _stage=stage, **kwargs):
                called.add(_stage)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
    cfg = os.path.join(CONFIGS, "angle.cfg")
    defaults = argparse.Namespace(seed=0, passes=None, rounds=None)
    assert stages.cli.main(stages.beamform_args(cfg, method, defaults)) == 0
    assert called == {stage for stage, _ in stages.STAGES}


def test_every_run_stage_times_a_function_the_command_calls(monkeypatch, capsys, tmp_path):
    monkeypatch.syspath_prepend(SCRIPTS)  # run_stages imports beamform_stages as a sibling
    stages = _load("run_stages.py")
    called = set()
    for stage, targets in stages.STAGES:
        for owner, name in targets:
            def counted(*args, _fn=getattr(owner, name), _stage=stage, **kwargs):
                called.add(_stage)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
    for cfg in ("patterns.cfg", "distance.cfg"):  # the cuts, and a closed-form distance sweep
        out = tmp_path / cfg
        assert stages.cli.main(["run", os.path.join(CONFIGS, cfg), "--out", str(out)]) == 0
    assert called == {stage for stage, _ in stages.STAGES}


def test_run_stages_prints_every_stage_per_config():
    proc = _run("run_stages.py", os.path.join(CONFIGS, "patterns.cfg"),
                os.path.join(CONFIGS, "gain.cfg"), "--repeat", "2", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "median CPU ms over 2 runs"
    assert lines[1].split() == ["config", "parse", "load", "steer", "sums", "rows", "csv",
                                "json", "other", "total"]
    for line, cfg in zip(lines[2:], ("patterns.cfg", "gain.cfg")):
        name, *ms = line.split()
        assert name == cfg and len(ms) == 9
        assert all(float(v) >= 0 for v in ms[:-2]) and float(ms[-1]) > 0
    assert float(lines[2].split()[4]) > 0 and float(lines[3].split()[4]) == 0  # cuts only
    assert len(lines) == 4



def test_the_readme_quick_start_runs(capsys):
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    block = re.search(r"## Quick start\n+```python\n(.*?)```\n", readme, re.S).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})
    *powers, search = capsys.readouterr().out.splitlines()
    unoptimized, optimum, bound, low_current = map(float, powers)
    assert unoptimized < optimum <= bound
    assert optimum - low_current == pytest.approx(11.9, abs=1e-9)  # the paper's swing
    queries, best = search.split()
    assert int(queries) > 0 and float(best) <= bound

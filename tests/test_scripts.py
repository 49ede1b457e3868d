"""Smoke runs of scripts/ and of README's quick start: each must run on the current API."""

import argparse
import dataclasses
import importlib.util
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
import types

import pytest

from rislink import cli
from rislink.experiments import run_config

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _run(name, *args):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args],
                          capture_output=True, text=True, timeout=300)


def test_compare_beamformers_runs(tmp_path, capsys):
    proc = _run("compare_beamformers.py", "--rx-angle", "20")
    assert proc.returncode == 0, proc.stderr
    assert "continuous power bound" in proc.stdout
    cfg = tmp_path / "rx20.cfg"
    cfg.write_text("[scenario]\nrx_zenith_deg = 20\n")
    rows = [line.split() for line in proc.stdout.splitlines()[-5:]]
    assert [row[0] for row in rows] == ["none", "quantized", "blind", "greedy", "continuous"]
    for method, power_dbm, pl_db, _, queries in rows:  # each row reads what beamform prints
        assert cli.main(["beamform", "--config", str(cfg), "--seed", "0", "--method", method]) == 0
        got = json.loads(capsys.readouterr().out)
        assert power_dbm == f"{got['received_power_dbm']:.2f}", method
        assert pl_db == f"{got['path_loss_db']:.2f}", method
        assert int(queries) == got["feedback_queries"], method


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


def test_diff_outputs_refuses_an_underflow_read_as_a_null(tmp_path):
    tree = tmp_path / "tree"
    run_config(os.path.join(CONFIGS, "angle.cfg"), tree / "angle")
    csv_path = tree / "angle" / "angle.csv"
    lines = csv_path.read_text().splitlines()
    null, underflow = lines[1].split(","), lines[2].split(",")
    null[2:4] = ["-inf", "inf"]  # an exact null passes
    underflow[2] = "-inf"  # beside its finite path loss
    lines[1:3] = [",".join(null), ",".join(underflow)]
    csv_path.write_text("\n".join(lines) + "\n")
    proc = _run("diff_outputs.py", str(tree), str(tree))  # a tree against itself
    assert proc.returncode == 1
    assert proc.stdout.endswith(f"MISMATCH angle/angle.csv row 1: -inf dBm beside a finite "
                                f"{float(underflow[3])!r} dB\n1 mismatches\n"), proc.stdout


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


@pytest.mark.parametrize("command, configs, flags, header, rows", [
    ("run", ["patterns.cfg", "gain.cfg"], ["--seed", "3"],
     ["config", "parse", "load", "steer", "sums", "sweeps", "rows", "csv", "json", "other", "total"],
     [["patterns.cfg"], ["gain.cfg"]]),
    ("beamform", ["angle.cfg"], [],
     ["config", "method", "parse", "scenario", "oracle", "search", "digest", "sum", "json",
      "other", "total"],
     [["angle.cfg", "blind"], ["angle.cfg", "greedy"]]),
], ids=["run", "beamform"])
def test_stages_prints_every_stage_per_config(command, configs, flags, header, rows):
    proc = _run("stages.py", command, *(os.path.join(CONFIGS, c) for c in configs),
                "--repeat", "2", *flags)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "median CPU ms over 2 calls"
    assert lines[1].split() == header
    assert len(lines) == 2 + len(rows)
    for line, row in zip(lines[2:], rows):
        fields = line.split()
        assert fields[:len(row)] == row
        ms = fields[len(row):]
        assert len(ms) == len(header) - len(row)
        assert all(float(v) >= 0 for v in ms[:-2]) and float(ms[-1]) > 0
    if command == "run":  # the cuts' sums, and no pose sweep in either config
        assert float(lines[2].split()[4]) > 0 and float(lines[3].split()[4]) == 0
        assert float(lines[2].split()[5]) == 0 == float(lines[3].split()[5])


@pytest.mark.parametrize("command", ["run", "beamform"])
def test_stages_rejects_a_repeat_below_one(command):
    proc = _run("stages.py", command, os.path.join(CONFIGS, "gain.cfg"), "--repeat", "0")
    assert proc.returncode == 2
    assert "--repeat must be >= 1" in proc.stderr
    assert proc.stdout == ""


def _load(name):
    spec = importlib.util.spec_from_file_location(name[:-3], os.path.join(SCRIPTS, name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_timed_stages_charges_each_call_its_own_time():
    stages = _load("stages.py")

    def busy():
        t0 = time.process_time()
        while time.process_time() - t0 < 0.05:
            pass

    owner = types.SimpleNamespace(inner=busy, outer=lambda: owner.inner())
    spent = {"outer": 0.0, "inner": 0.0}
    with stages.timed_stages((("outer", [(owner, "outer")]), ("inner", [(owner, "inner")])), spent):
        owner.outer()
    assert spent["inner"] >= 0.05
    assert spent["outer"] < 0.5 * spent["inner"]  # an inclusive timer charges it the 0.05 s too
    assert owner.inner is busy


def test_stages_reproduces_the_benchmark_calls(tmp_path, monkeypatch):
    """The argv lists of `bench/workloads.py`'s calls on the inputs that
    `bench/run.py --workload W --seed 91` generates, here on stand-in configs."""
    cfg = tmp_path / "noisy.cfg"
    cfg.write_text("[scenario]\nn_rows = 3\nn_cols = 5\nnoise_variance_w = 1e-6\n")
    proc = _run("stages.py", "beamform", str(cfg), "--repeat", "1", "--seed", "91",
                "--passes", "4", "--rounds", "1", "--noiseless")
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[:2] for line in proc.stdout.splitlines()[2:]] == [
        ["noisy.cfg", "blind"], ["noisy.cfg", "greedy"]]
    stages = _load("stages.py")
    bench = argparse.Namespace(seed=91, passes=4, rounds=1)
    common = ["beamform", "--config", str(cfg), "--seed", "91", "--method"]
    assert stages.calls("beamform", str(cfg), bench) == [
        ("blind", common + ["blind", "--passes", "4"]),
        ("greedy", common + ["greedy", "--rounds", "1"])]
    defaults = argparse.Namespace(seed=0, passes=None, rounds=None)
    assert stages.calls("beamform", str(cfg), defaults)[1][1][-3:] == ["0", "--method", "greedy"]
    run_cfg = os.path.join(CONFIGS, "gain.cfg")
    assert stages.calls("run", run_cfg, argparse.Namespace(seed=91)) == [
        ("", ["run", run_cfg, "--seed", "91"])]
    given = []
    monkeypatch.setattr(stages.cli, "main", lambda argv: given.append(argv) or 0)
    stages.one_run(stages.STAGES["run"], ["run", run_cfg, "--seed", "91"], False)
    (argv,) = given
    assert argv[:5] == ["run", run_cfg, "--seed", "91", "--out"] and len(argv) == 6
    assert not os.path.exists(argv[5])  # the temporary --out is gone
    args = stages.cli._PARSER.parse_args(["beamform", "--config", str(cfg)])
    assert stages.cli._scenario_from_args(args).noise_variance == 1e-6
    with stages.noiseless():
        scenario = stages.cli._scenario_from_args(args)
    assert scenario.noise_variance == 0.0
    assert scenario == dataclasses.replace(stages.cli._scenario_from_args(args),
                                           noise_variance=0.0)
    assert stages.cli._scenario_from_args(args).noise_variance == 1e-6


@pytest.mark.parametrize("command", ["run", "beamform"])
def test_every_stage_times_a_function_the_command_calls(monkeypatch, capsys, tmp_path, command):
    stages = _load("stages.py")
    called = set()
    for stage, targets in stages.STAGES[command]:
        for owner, name in targets:
            def counted(*args, _fn=getattr(owner, name), _stage=stage, **kwargs):
                called.add(_stage)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
    if command == "run":  # together: the cuts, and a closed-form distance sweep
        groups = [[["run", os.path.join(CONFIGS, cfg), "--out", str(tmp_path / cfg)]
                   for cfg in ("patterns.cfg", "distance.cfg")]]
    else:  # each of blind and greedy
        defaults = argparse.Namespace(seed=0, passes=None, rounds=None)
        groups = [[argv] for _, argv in
                  stages.calls("beamform", os.path.join(CONFIGS, "angle.cfg"), defaults)]
    for argvs in groups:
        called.clear()
        for argv in argvs:
            assert stages.cli.main(argv) == 0
        assert called == {stage for stage, _ in stages.STAGES[command]}, argvs


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


def test_the_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    block = re.search(r"Command line:\n+```bash\n(.*?)```\n", readme, re.S).group(1)
    shutil.copytree(CONFIGS, tmp_path / "configs")  # its paths are the repository root's
    monkeypatch.chdir(tmp_path)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(lines) >= 5 and all(argv[0] == "rislink" for argv in lines)
    for argv in lines:
        assert cli.main(argv[1:]) == 0, argv
    assert (tmp_path / "trace.csv").exists() and (tmp_path / "results" / "angle").is_dir()

"""Config parsing diagnostics and the command-line surface."""

import csv
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rislink as rl
from rislink.cli import build_parser, main
from rislink.config import ConfigError, _parse_currents, load_run_plan, parse_sections
from rislink.experiments import BEAMFORMING_METHODS, SweepJob


def write(tmp_path, text, name="case.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_sections_basics(tmp_path):
    p = write(tmp_path, "# comment\n[scenario]\nn_rows = 2  # trailing\n\n[sweep s]\ntype = angle\n")
    sections = parse_sections(p)
    assert sections["scenario"]["n_rows"] == ("2", 3)
    assert sections["sweep s"]["type"] == ("angle", 6)


@pytest.mark.parametrize("text,line", [
    ("[scenario\nn_rows = 2\n", 1),          # unterminated header
    ("n_rows = 2\n", 1),                      # key outside a section
    ("[scenario]\nn_rows\n", 2),              # no '='
    ("[scenario]\nn_rows = 2\nn_rows = 3\n", 3),  # duplicate key
    ("[scenario]\n[scenario]\n", 2),          # duplicate section
])
def test_parse_sections_diagnostics(tmp_path, text, line):
    p = write(tmp_path, text)
    with pytest.raises(ConfigError) as exc:
        parse_sections(p)
    assert f"{p}:{line}:" in str(exc.value)


def test_load_run_plan_defaults_match_chamber(tmp_path):
    p = write(tmp_path, "[scenario]\n")
    plan = load_run_plan(p)
    assert plan.scenario == rl.chamber_scenario()
    assert plan.jobs == []


def test_load_run_plan_full_scenario(tmp_path):
    p = write(tmp_path, """
[scenario]
frequency_hz = 3.5e9
tx_distance_m = 1.0
tx_zenith_deg = 10
rx_distance_m = 2.0
rx_zenith_deg = -20
n_rows = 2
n_cols = 4
pitch_x_m = 0.05
pitch_y_m = 0.04
tx_gain_dbi = 10
tx_exponent = 1
tx_power_w = 0.5
codebook_bits = 3
phase_jitter_max_deg = 8
phase_jitter_seed = 5

[amplifier]
calibration = 0.001:0.0, 0.01:10.0
max_current_a = 0.05
""")
    s = load_run_plan(p).scenario
    assert s.frequency == 3.5e9
    assert s.tx_pose.theta == pytest.approx(math.radians(10))
    assert s.rx_pose.theta == pytest.approx(math.pi - math.radians(20))
    assert s.rx_pose.phi == pytest.approx(math.pi)  # negative angle flips azimuth
    assert (s.layout.n_rows, s.layout.n_cols) == (2, 4)
    assert s.codebook.bits == 3
    assert s.amplifier.calibration == ((0.001, 0.0), (0.01, 10.0))
    assert s.amplifier.max_current == 0.05
    assert s.jitter.max_error == pytest.approx(math.radians(8))
    assert s.jitter.seed == 5


@pytest.mark.parametrize("text,line_token", [
    ("[scenario]\nbogus_key = 1\n", ":2:"),
    ("[scenario]\nn_rows = zero\n", ":2:"),
    ("[scenario]\nn_rows = 0\n", ":2:"),
    ("[scenario]\ntx_zenith_deg = 95\n", ":2:"),
    ("[scenario]\nfrequency_hz = -1\n", ":2:"),
    ("[scenario]\nfrequency_hz = inf\n", ":2: frequency must be positive and finite, got inf"),
    ("[bogus]\nx = 1\n", "unknown section"),
    ("[sweep s]\nstart = 1\n", "needs a 'type'"),
    ("[sweep s]\ntype = magic\n", ":2:"),
    ("[sweep s]\ntype = gain\n", ":1: a gain sweep needs at least one supply current"),
    ("[sweep s]\ntype = angle\nstop = 90\n", ":3:"),
    # section-level errors point at the section's header line
    ("[scenario]\n\n[bogus]\nx = 1\n", ":3: unknown section [bogus]"),
    ("[scenario]\n[sweep s]\ntype = gain\n", ":2: a gain sweep needs at least one supply current"),
    ("[scenario]\n[sweep s]\n", ":2: [sweep s] needs a 'type' key"),
    ("[scenario]\n\n[amplifier]\nmax_current_a = 0.01\n", ":4: calibration exceeds the supply budget"),
    ("[amplifier]\ncalibration = -0.01:0, 0.1:10\n", ":2: calibration currents must be >= 0"),
    ("[ ]\nx = 1\n", ":1: empty section name"),
    ("[scenario]\n = 3\n", ":2: empty key"),
    # a typo'd key is named before the job's own checks read the keys it does set
    ("[scenario]\n\n[sweep a]\ntype = distance\nstart = 6\nstpo = 8\n",
     ":6: unknown key 'stpo' in [sweep a]"),
])
def test_load_run_plan_diagnostics(tmp_path, text, line_token):
    p = write(tmp_path, text)
    with pytest.raises(ConfigError) as exc:
        load_run_plan(p)
    assert line_token in str(exc.value)


def test_an_empty_gain_sweep_reads_as_the_library_refuses_it(tmp_path):
    with pytest.raises(ValueError) as lib:
        rl.SweepJob("s", "gain")
    p = write(tmp_path, "[scenario]\n[sweep s]\ntype = gain\n")
    with pytest.raises(ConfigError) as exc:
        load_run_plan(p)
    assert str(exc.value) == f"{p}:2: {lib.value}"


def test_load_run_plan_jobs(tmp_path):
    p = write(tmp_path, """
[scenario]
rx_distance_m = 4.5

[sweep walk]
type = distance
start = 1
stop = 2
step = 0.5
method = continuous

[sweep drive]
type = gain
currents_a = 0.01, 1.4

[sweep cut]
type = pattern
steering_deg = 50
""")
    plan = load_run_plan(p)
    kinds = {j.name: j.kind for j in plan.jobs}
    assert kinds == {"walk": "distance", "drive": "gain", "cut": "pattern"}
    drive = next(j for j in plan.jobs if j.name == "drive")
    assert drive.currents == (0.01, 1.4)
    cut = next(j for j in plan.jobs if j.name == "cut")
    assert cut.steering_deg == 50.0
    assert cut.start == -85.0 and cut.stop == 85.0 and cut.step == 0.5


def test_cli_run(tmp_path, capsys):
    cfg = write(tmp_path, "[scenario]\n\n[sweep s]\ntype = angle\nstart = 0\nstop = 20\nstep = 10\n")
    out = tmp_path / "res"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "s.csv").exists() and (out / "summary.json").exists()
    assert "s.csv" in capsys.readouterr().out


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "[scenario]\nbogus = 1\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and ":2:" in err


def test_cli_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 2


def test_cli_sweep_distance(tmp_path, capsys):
    assert main(["sweep-distance", "--start", "1", "--stop", "2", "--step", "0.5",
                 "--method", "continuous", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "distance_sweep.csv").read_text().splitlines()
    assert len(lines) == 4
    assert "wrote" in capsys.readouterr().out


def test_cli_sweep_angle_with_overrides(tmp_path):
    assert main(["sweep-angle", "--start", "0", "--stop", "20", "--step", "10",
                 "--rx-distance", "4.5", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "angle_sweep.csv").exists()


def test_cli_angle_and_pattern_use_the_config_azimuth(tmp_path):
    cfg = write(tmp_path, "[scenario]\nn_rows = 2\nn_cols = 8\nrx_azimuth_deg = 90\n")
    assert load_run_plan(cfg).scenario.rx_plane_deg == 90.0
    assert main(["sweep-angle", "--config", str(cfg), "--start", "0", "--stop", "40",
                 "--step", "20", "--out", str(tmp_path)]) == 0
    assert main(["pattern", "--config", str(cfg), "--steering", "20", "--step", "5",
                 "--out", str(tmp_path)]) == 0
    s = load_run_plan(cfg).scenario
    sweep = rl.run_sweep(s, SweepJob("a", "angle", start=0.0, stop=40.0, step=20.0))
    cut = rl.run_sweep(s, SweepJob("c", "pattern", step=5.0, steering_deg=20.0))
    assert (tmp_path / "angle_sweep.csv").read_text() == sweep.to_csv()
    assert (tmp_path / "pattern.csv").read_text() == cut.to_csv()


def test_cli_sweep_gain(tmp_path, capsys):
    assert main(["sweep-gain", "--currents", "0.01,1.4", "--out", str(tmp_path)]) == 0
    assert "11.90" in capsys.readouterr().out


def test_cli_pattern(tmp_path, capsys):
    assert main(["pattern", "--steering", "0", "--step", "2.5", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "pattern.csv").exists()
    assert "hpbw" in capsys.readouterr().out


def test_a_cut_narrower_than_its_main_lobe_still_writes(tmp_path, capsys):
    assert main(["pattern", "--start", "-5", "--stop", "5", "--step", "1",
                 "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "pattern.csv").read_text().splitlines()) == 1 + 11
    assert "hpbw nan deg" in capsys.readouterr().out
    cfg = write(tmp_path, "[scenario]\n\n[sweep cut]\ntype = pattern\nstart = -5\nstop = 5\nstep = 1\n")
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    entry = json.loads((out / "summary.json").read_text())["sweeps"][0]
    assert entry["rows"] == 11 and math.isnan(entry["metrics"]["hpbw_deg"])
    assert (out / "cut.csv").read_text() == (tmp_path / "pattern.csv").read_text()


def test_sweep_gain_parses_currents_as_a_config_does(tmp_path, capsys):
    raw = "0.01,,0.5,"
    assert main(["sweep-gain", "--currents", raw, "--out", str(tmp_path / "cmd")]) == 2
    assert capsys.readouterr().err == f"error: --currents: cannot parse {raw!r}\n"
    assert not (tmp_path / "cmd").exists()
    cfg = write(tmp_path, f"[sweep g]\ntype = gain\ncurrents_a = {raw}\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert f"currents_a: cannot parse {raw!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep-angle", "pattern"])
@pytest.mark.parametrize("argv, bad", [
    (["--start", "-95"], "-95.0"),
    (["--start", "-30", "--stop", "95", "--step", "10"], "90.0"),  # the grid reaches 90
])
def test_angle_commands_reject_a_grazing_angle_alike(tmp_path, capsys, command, argv, bad):
    assert main([command, *argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: off-normal angle must satisfy |angle| < 90 deg, got {bad}\n")


@pytest.mark.parametrize("command", ["sweep-distance", "sweep-angle", "pattern"])
@pytest.mark.parametrize("argv, message", [
    (["--stop", "inf"], "stop must be finite, got inf"),
    (["--stop", "nan"], "stop must be finite, got nan"),
    (["--start=-inf"], "start must be finite, got -inf"),
    (["--step", "inf"], "step must be finite, got inf"),
    (["--start", "1", "--stop", "2", "--step", "1e-12"],
     "sweep grid from 1.0 to 2.0 in steps of 1e-12 exceeds 100000 points"),
])
def test_sweep_commands_reject_an_unbounded_grid(tmp_path, capsys, command, argv, message):
    assert main([command, *argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, key", [("distance", "stop"), ("distance", "start"),
                                       ("distance", "step"), ("pattern", "step")])
def test_a_config_with_an_infinite_grid_bound_reports_its_line(tmp_path, capsys, kind, key):
    cfg = write(tmp_path, f"[scenario]\n\n[sweep s]\ntype = {kind}\n{key} = inf\n")
    with pytest.raises(ConfigError, match=f":5: {key} must be finite, got inf"):
        load_run_plan(cfg)
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert f":5: {key} must be finite, got inf" in capsys.readouterr().err


_GOOD_SWEEP = "[scenario]\n\n[sweep walk]\ntype = distance\nstart = 1\nstop = 2\nstep = 0.5\n\n"


@pytest.mark.parametrize("section, line", [
    ("[sweep bad]\ntype = distance\nstart = 3\nstop = 2\n", 12),
    ("[sweep bad]\ntype = distance\nstep = 1e-12\n", 11),
    ("[sweep bad]\ntype = angle\nstop = 95\n", 11),
])
def test_an_invalid_later_sweep_fails_before_anything_is_written(tmp_path, capsys, section, line):
    cfg = write(tmp_path, _GOOD_SWEEP + section)
    with pytest.raises(ConfigError) as exc:
        load_run_plan(cfg)
    assert str(exc.value).startswith(f"{cfg}:{line}: ")
    out = tmp_path / "run"
    out.mkdir()
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}:{line}: ")
    assert os.listdir(out) == []


def test_sweep_gain_rejects_a_nan_current(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep-gain", "--currents", "nan,1.4", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: currents must be >= 0, got nan\n"
    assert not out.exists()


# the command taking each config key of a [sweep NAME] section
_FLAGS = {"start": "--start", "stop": "--stop", "step": "--step", "method": "--method",
          "steering_deg": "--steering", "currents_a": "--currents"}
_COMMANDS = {"distance": "sweep-distance", "angle": "sweep-angle", "gain": "sweep-gain",
             "pattern": "pattern"}
_FIELDS = {"currents_a": "currents"}
_PARSE = {"method": str, "currents_a": _parse_currents}


@pytest.mark.parametrize("kind, keys, blamed", [
    ("distance", {"stop": "inf"}, "stop"),
    ("distance", {"start": "3", "stop": "2"}, "stop"),
    ("distance", {"start": "1", "stop": "2", "step": "1e-12"}, "step"),
    ("angle", {"start": "-95"}, "start"),
    ("pattern", {"steering_deg": "95"}, "steering_deg"),
    ("distance", {"method": "magic"}, "method"),
    ("gain", {"currents_a": "nan"}, "currents_a"),
    ("distance", {"start": "1", "stop": "1e200", "step": "1e199"}, "stop"),
], ids=["stop-inf", "stop-below-start", "tiny-step", "angle-start", "steering", "method",
        "nan-current", "stop-past-a-pose"])
def test_a_sweep_value_is_rejected_in_the_same_words_everywhere(tmp_path, capsys, kind, keys,
                                                                blamed):
    fields = {_FIELDS.get(k, k): _PARSE.get(k, float)(v) for k, v in keys.items()}
    with pytest.raises(ValueError) as exc:
        SweepJob("s", kind, **fields)
    message = str(exc.value)
    argv = [f"{_FLAGS[k]}={v}" for k, v in keys.items()]
    out = tmp_path / "cmd"
    assert main([_COMMANDS[kind], *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    cfg = write(tmp_path, f"[scenario]\n\n[sweep s]\ntype = {kind}\n"
                + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    with pytest.raises(ConfigError) as exc:
        load_run_plan(cfg)
    assert str(exc.value) == f"{cfg}:{5 + list(keys).index(blamed)}: {message}"


@pytest.mark.parametrize("kind, key, value", [
    ("angle", "steering_deg", "30"), ("distance", "currents_a", "0.5"), ("gain", "start", "1"),
    ("gain", "steering_deg", "0"), ("pattern", "currents_a", "0.5"),
], ids=["angle-steering", "distance-currents", "gain-start", "gain-steering-at-its-default",
        "pattern-currents"])
def test_a_key_its_kind_does_not_read_is_refused_in_the_same_words(tmp_path, kind, key, value):
    base = {"currents_a": "0.5"} if kind == "gain" else {}  # otherwise a valid job
    keys = {**base, key: value}
    fields = {_FIELDS.get(k, k): _PARSE.get(k, float)(v) for k, v in keys.items()}
    with pytest.raises(ValueError) as exc:
        SweepJob("s", kind, **fields)
    assert str(exc.value) == f"{kind} sweeps take no {_FIELDS.get(key, key)}"
    cfg = write(tmp_path, f"[scenario]\n\n[sweep s]\ntype = {kind}\n"
                + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    with pytest.raises(ConfigError) as cfg_exc:
        load_run_plan(cfg)
    assert str(cfg_exc.value) == f"{cfg}:{5 + len(base)}: {exc.value}"


@pytest.mark.parametrize("second", ["[sweepa]", "[sweep  a]"])
def test_two_sweeps_cannot_share_a_name(tmp_path, capsys, second):
    cfg = write(tmp_path, "[scenario]\n\n[sweep a]\ntype = distance\n\n"
                          f"{second}\ntype = angle\n")
    with pytest.raises(ConfigError) as exc:
        load_run_plan(cfg)
    assert str(exc.value) == (f"{cfg}:6: {second} names sweep 'a', "
                              "already taken by [sweep a]")
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_a_sweep_name_cannot_leave_the_output_directory(tmp_path, capsys):
    cfg = write(tmp_path, "[scenario]\n\n[sweep ../escaped]\ntype = distance\n")
    with pytest.raises(ConfigError) as exc:
        load_run_plan(cfg)
    assert str(exc.value).startswith(f"{cfg}:3: sweep name must be")
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert not (tmp_path / "escaped.csv").exists() and not out.exists()
    for name in ("", "a/b"):
        with pytest.raises(ValueError, match="sweep name must be"):
            SweepJob(name, "distance")


# a jittered, noisy link whose RX sits at a negative zenith in the 60 deg plane
_ONE_JOB = ("[scenario]\nn_rows = 3\nn_cols = 5\nrx_zenith_deg = -10\nrx_azimuth_deg = 60\n"
            "noise_variance_w = 1e-8\nphase_jitter_max_deg = 10\n\n[sweep s]\n")


# `line` pins each command's summary line byte for byte
@pytest.mark.parametrize("command, section, argv, csv_name, line", [
    ("sweep-distance", "type = distance\nstart = 1\nstop = 2.5\nstep = 0.5\nmethod = continuous\n",
     ["--start", "1", "--stop", "2.5", "--step", "0.5", "--method", "continuous"],
     "distance_sweep.csv", "(4 rows), path loss 1.29 -> 9.20 dB"),
    ("sweep-angle", "type = angle\nstart = -20\nstop = 40\nstep = 20\nmethod = blind\n",
     ["--start", "-20", "--stop", "40", "--step", "20", "--method", "blind"],
     "angle_sweep.csv", "(4 rows), path loss 14.30 -> 15.97 dB"),
    ("sweep-gain", "type = gain\ncurrents_a = 0.01, 0.6, 1.4\nmethod = greedy\n",
     ["--currents", "0.01,0.6,1.4", "--method", "greedy"],
     "gain_sweep.csv", "(3 rows), received power swing 11.80 dB"),
    ("pattern", "type = pattern\nsteering_deg = 20\nstart = -60\nstop = 60\nstep = 5\n",
     ["--steering", "20", "--start", "-60", "--stop", "60", "--step", "5"],
     "pattern.csv", "(25 rows), peak 20 deg, hpbw 29.31 deg, pslr 15.15 dB"),
], ids=["sweep-distance", "sweep-angle", "sweep-gain", "pattern"])
def test_sweep_commands_write_what_run_writes(tmp_path, capsys, command, section, argv,
                                              csv_name, line):
    cfg = write(tmp_path, _ONE_JOB + section)
    rl.run_config(cfg, tmp_path / "run", seed=3)
    capsys.readouterr()
    out = tmp_path / "cmd"
    assert main([command, "--config", str(cfg), "--seed", "3", "--out", str(out)] + argv) == 0
    assert os.listdir(out) == [csv_name]
    assert (out / csv_name).read_bytes() == (tmp_path / "run" / "s.csv").read_bytes()
    assert capsys.readouterr().out == f"wrote {out / csv_name} {line}\n"


def test_cli_beamform_json(tmp_path, capsys):
    assert main(["beamform", "--method", "blind"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "blind"
    assert payload["feedback_queries"] == 1 + 4 * (4 + 8)
    assert len(payload["phase_indices"]) == 4
    words = [w for row in payload["control_words"] for w in row]
    assert len(words) == 32
    assert set(words) <= {"011", "001", "000", "010"}
    assert "received_power_dbm" in payload


@pytest.mark.parametrize("argv", [
    ["--method", "greedy"],                       # index grid and control words
    ["--method", "continuous"],                   # flat list of float phases
    ["--method", "quantized", "--config", "1bit"],  # index grid, no control words
])
def test_cli_beamform_prints_what_json_indent_would(tmp_path, capsys, argv):
    if "1bit" in argv:
        argv[-1] = str(write(tmp_path, "[scenario]\ncodebook_bits = 1\nn_rows = 3\nn_cols = 5\n"))
    assert main(["beamform"] + argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


_PATTERNS_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "patterns.cfg")
# jitter, feedback noise, a tilted feed and an RX in a non-zero azimuth plane
_GOLDEN_16_CFG = os.path.join(os.path.dirname(__file__), "data", "golden_16x16.cfg")


@pytest.mark.parametrize("method", rl.experiments.BEAMFORMING_METHODS)
@pytest.mark.parametrize("cfg", [None, _GOLDEN_16_CFG], ids=["chamber", "golden_16x16"])
def test_beamform_prints_the_library_path_loss(capsys, cfg, method):
    argv = ["beamform", "--method", method, "--seed", "5"]
    assert main(argv + (["--config", cfg] if cfg else [])) == 0
    printed = json.loads(capsys.readouterr().out)["path_loss_db"]
    scenario = load_run_plan(cfg).scenario if cfg else rl.chamber_scenario()
    bf = rl.apply_beamforming(scenario, method, 5)
    assert printed == rl.path_loss_db(scenario, bf.configuration, bf.phases)


@pytest.mark.parametrize("cfg", [_PATTERNS_CFG, _GOLDEN_16_CFG], ids=os.path.basename)
def test_every_cut_row_reads_the_library_path_loss_at_its_pose(tmp_path, cfg):
    rl.run_config(cfg, tmp_path, seed=3)
    plan = load_run_plan(cfg)
    s, azimuth = plan.scenario, plan.scenario.rx_plane_deg
    cuts = [job for job in plan.jobs if job.kind == "pattern"]
    assert cuts
    for job in cuts:
        steer = replace(s, rx_pose=rl.transmission_side_pose(s.rx_pose.r, job.steering_deg,
                                                             azimuth))
        bf = rl.apply_beamforming(steer, job.method, 3)
        with open(tmp_path / f"{job.name}.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(job.grid())
        for row in rows:
            pose = rl.transmission_side_pose(s.rx_pose.r, float(row["value"]), azimuth)
            want = rl.path_loss_db(replace(s, rx_pose=pose), bf.configuration, bf.phases)
            assert float(row["path_loss_dB"]) == want, (job.name, row["value"])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 12), st.integers(1, 12), st.booleans(), st.data())
def test_grid_printer_is_json_indent_of_the_lists(bits, n_rows, n_cols, gridded, data):
    k = 2 ** bits
    grid = np.array(data.draw(st.lists(st.lists(st.integers(0, k - 1), min_size=n_cols,
                                                max_size=n_cols),
                                       min_size=n_rows, max_size=n_rows)))
    # a string that spells a grid's or a list's placeholder must stay a string
    scalar = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.floats(allow_nan=False),
                       st.text(max_size=8),
                       st.just('"phase_indices": 0, "control_words": 0, "phases_rad": 0'))
    value = st.one_of(scalar, st.lists(st.floats(allow_nan=False), max_size=6))  # phases_rad
    # keys sorting before, between and after the grids' keys
    out = {key: data.draw(value) for key in ("a", "config_digest", "method", "phases_rad", "zz")}
    if not gridded:  # a continuous method prints no grid
        assert rl.cli._dumps_indented(out, None, {}) == json.dumps(out, indent=2, sort_keys=True)
        return
    grids = {"phase_indices": [str(i) for i in range(k)]}
    words = {}
    if bits == 2:
        grids["control_words"] = rl.cli._CONTROL_WORD_TOKENS
        words["control_words"] = [[str(rl.encode_control(i)) for i in row] for row in grid.tolist()]
    want = json.dumps({**out, "phase_indices": grid.tolist(), **words}, indent=2, sort_keys=True)
    assert rl.cli._dumps_indented(out, grid, grids) == want


def test_cli_seed_resolution(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RISLINK_SEED", "9")  # the environment sets no seed: only --seed does
    cfg = write(tmp_path, "[scenario]\nnoise_variance_w = 1e-4\n\n"
                          "[sweep s]\ntype = angle\nstart = 0\nstop = 10\nstep = 10\nmethod = blind\n")
    outs = [tmp_path / name for name in "abcd"]
    for out, seed in zip(outs, (["--seed", "9"], ["--seed", "9"], ["--seed", "10"], [])):
        assert main(["run", str(cfg), "--out", str(out), *seed]) == 0
    a, b, c, d = ((out / "s.csv").read_bytes() for out in outs)
    assert a == b and a != c
    plan = rl.load_run_plan(cfg)  # no flag is seed 0
    assert d == rl.run_sweep(plan.scenario, plan.jobs[0], 0).to_csv().encode()


def test_cli_rejects_bad_method(tmp_path, capsys):
    assert main(["sweep-distance", "--method", "magic", "--out", str(tmp_path)]) == 2


def test_cli_main_calls_do_not_share_parsed_values(tmp_path, capsys):
    cfg = write(tmp_path, "[scenario]\nn_rows = 2\nn_cols = 3\nnoise_variance_w = 1e-8\n")
    plain = ["beamform", "--config", str(cfg)]
    assert main(plain) == 0
    first = capsys.readouterr().out
    assert main(["sweep-distance", "--start", "1", "--stop", "2", "--step", "0.5",
                 "--seed", "4", "--tx-distance", "0.9", "--out", str(tmp_path)]) == 0
    assert main(plain + ["--method", "greedy", "--rounds", "1", "--seed", "7",
                         "--tx-distance", "1.0"]) == 0
    capsys.readouterr()
    assert main(plain) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["feedback_queries"] == 1 + 4 * (2 + 3)
    for argv in (plain, ["run", str(cfg)]):
        assert vars(rl.cli._PARSER.parse_args(argv)) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("method", ["blind", "greedy"])
def test_cli_beamform_trace(tmp_path, capsys, method):
    argv = ["beamform", "--method", method, "--rounds", "3"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    path = tmp_path / "trace.csv"
    assert main(argv + ["--trace", str(path)]) == 0
    assert capsys.readouterr().out == plain
    payload = json.loads(plain)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["step", "accepted", "power_w"]
    assert [int(r["step"]) for r in rows] == list(range(payload["feedback_queries"]))
    accepted = [float(r["power_w"]) for r in rows if r["accepted"] == "1"]
    assert all(b >= a for a, b in zip(accepted, accepted[1:]))
    best = max(rl.apply_beamforming(rl.chamber_scenario(), method, max_rounds=3).trace.powers)
    assert accepted[-1] == best
    assert 10 * math.log10(best / 1e-3) == pytest.approx(payload["received_power_dbm"], abs=1e-9)


@pytest.mark.parametrize("method", rl.experiments.BEAMFORMING_METHODS)
@pytest.mark.parametrize("flag, value, message", [
    ("--passes", "-1", "passes must be >= 1"),
    ("--passes", "0", "passes must be >= 1"),
    ("--rounds", "0", "max_rounds must be >= 1"),
    ("--rounds", "-2", "max_rounds must be >= 1"),
])
def test_cli_beamform_rejects_a_bad_search_budget_for_every_method(tmp_path, capsys, method,
                                                                   flag, value, message):
    path = tmp_path / "trace.csv"
    argv = ["beamform", "--method", method, flag, value, "--trace", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not path.exists()
    with pytest.raises(ValueError, match=f"^{message}$"):
        rl.apply_beamforming(rl.chamber_scenario(), method,
                             **{"passes" if flag == "--passes" else "max_rounds": int(value)})


def test_cli_beamform_trace_needs_a_feedback_search(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    assert main(["beamform", "--method", "quantized", "--trace", str(path)]) == 2
    assert "--trace needs a feedback search" in capsys.readouterr().err
    assert not path.exists()


# (config text, line of the key at fault, the keywords a library caller passes for it)
_SCENARIO_DEFECTS = {
    "offset-beyond-spacing": ("[scenario]\ncodebook_offset_deg = 100\n", 2,
                              {"codebook_offset_deg": 100.0}),
    "negative-jitter-seed": ("[scenario]\nphase_jitter_max_deg = 8\nphase_jitter_seed = -1\n", 3,
                             {"phase_jitter_max_deg": 8.0, "phase_jitter_seed": -1}),
    "infinite-jitter": ("[scenario]\nphase_jitter_max_deg = inf\n", 2,
                        {"phase_jitter_max_deg": math.inf}),
    "infinite-tx-power": ("[scenario]\ntx_power_w = inf\n", 2, {"tx_power_w": math.inf}),
    # every row of a cut would read -inf dBm, and its peak the grid's first angle
    "zero-tx-power": ("[scenario]\ntx_power_w = 0\n[sweep cut]\ntype = pattern\nstart = -10\n"
                      "stop = 10\nstep = 5\n", 2, {"tx_power_w": 0.0}),
    "nan-calibration-gain": ("[amplifier]\ncalibration = 0.001:nan\n", 2,
                             {"calibration": ((0.001, math.nan),)}),
    "negative-distance": ("[scenario]\ntx_distance_m = -1\n", 2, {"tx_distance_m": -1.0}),
}


@pytest.mark.parametrize("text, line, keywords", _SCENARIO_DEFECTS.values(),
                         ids=_SCENARIO_DEFECTS)
def test_a_bad_scenario_value_fails_at_its_line_before_anything_is_written(
        tmp_path, capsys, text, line, keywords):
    with pytest.raises(ValueError) as exc:
        rl.chamber_scenario(**keywords)
    message = str(exc.value)
    cfg = write(tmp_path, text + "\n[sweep s]\ntype = distance\n")
    with pytest.raises(ConfigError) as exc:
        load_run_plan(cfg)
    assert str(exc.value) == f"{cfg}:{line}: {message}"
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:{line}: {message}\n"
    assert not out.exists()


# one bad value per scenario key: its config text and the value a library caller passes
_BAD_SCENARIO_VALUES = {
    "frequency_hz": ("inf", math.inf),
    "tx_distance_m": ("-1", -1.0),
    "tx_zenith_deg": ("95", 95.0),
    "tx_azimuth_deg": ("inf", math.inf),
    "rx_distance_m": ("-1", -1.0),
    "rx_zenith_deg": ("-90", -90.0),
    "rx_azimuth_deg": ("nan", math.nan),
    "n_rows": ("0", 0),
    "n_cols": ("-2", -2),
    "pitch_x_m": ("nan", math.nan),
    "pitch_y_m": ("0", 0.0),
    "tx_gain_dbi": ("inf", math.inf),
    "tx_exponent": ("-1", -1.0),
    "rx_gain_dbi": ("nan", math.nan),
    "rx_exponent": ("inf", math.inf),
    "tx_power_w": ("nan", math.nan),
    "noise_variance_w": ("-1e-9", -1e-9),
    "codebook_bits": ("0", 0),
    "codebook_offset_deg": ("-1", -1.0),
    "phase_jitter_max_deg": ("nan", math.nan),
    "phase_jitter_seed": ("-1", -1),
    "calibration": ("0.02:0, 0.01:5", ((0.02, 0.0), (0.01, 5.0))),
    "max_current_a": ("nan", math.nan),
}
_AMPLIFIER_KEYS = ("calibration", "max_current_a")
_DISTANCE_FLAGS = {"tx_distance_m": "--tx-distance", "rx_distance_m": "--rx-distance"}


def test_every_scenario_key_has_a_bad_value_case():
    assert list(_BAD_SCENARIO_VALUES) == list(inspect.signature(rl.chamber_scenario).parameters)


@pytest.mark.parametrize("key", _BAD_SCENARIO_VALUES)
def test_a_scenario_value_is_rejected_in_the_same_words_everywhere(tmp_path, capsys, key):
    raw, value = _BAD_SCENARIO_VALUES[key]
    with pytest.raises(ValueError) as exc:
        rl.chamber_scenario(**{key: value})
    message = str(exc.value)
    section = "amplifier" if key in _AMPLIFIER_KEYS else "scenario"
    cfg = write(tmp_path, f"[{section}]\n{key} = {raw}\n")
    with pytest.raises(ConfigError) as exc:
        load_run_plan(cfg)
    assert str(exc.value) == f"{cfg}:2: {message}"
    if key in _DISTANCE_FLAGS:
        out = tmp_path / "out"
        good = write(tmp_path, "[scenario]\nn_rows = 2\n", "good.cfg")
        for argv in (["beamform"], ["beamform", "--config", str(good)],
                     ["sweep-angle", "--step", "30", "--out", str(out)]):
            assert main([*argv, f"{_DISTANCE_FLAGS[key]}={raw}"]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_a_distance_override_moves_the_configured_pose(tmp_path, capsys):
    cfg = write(tmp_path, "[scenario]\nn_rows = 2\ntx_zenith_deg = -12\ntx_azimuth_deg = 30\n"
                          "rx_zenith_deg = 20\nrx_azimuth_deg = 200\nphase_jitter_max_deg = 15\n"
                          "phase_jitter_seed = 3\n")
    assert main(["beamform", "--config", str(cfg), "--method", "quantized",
                 "--tx-distance", "0.9", "--rx-distance", "2.5"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = rl.chamber_scenario(n_rows=2, tx_zenith_deg=-12.0, tx_azimuth_deg=30.0,
                               rx_zenith_deg=20.0, rx_azimuth_deg=200.0,
                               phase_jitter_max_deg=15.0, phase_jitter_seed=3,
                               tx_distance_m=0.9, rx_distance_m=2.5)
    assert got["config_digest"] == rl.apply_beamforming(want, "quantized").digest
    s = load_run_plan(cfg).scenario
    assert s.rx_plane_deg == 200.0
    # moving each pose's range gives the link that the config with those ranges builds
    assert replace(s, tx_pose=replace(s.tx_pose, r=0.9), rx_pose=replace(s.rx_pose, r=2.5)) == want


def test_sweep_distance_rejects_the_rx_distance_its_grid_replaces(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["sweep-distance", "--rx-distance", "2.7", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rx-distance 2.7" in capsys.readouterr().err
    assert not out.exists()
    assert main(["sweep-distance", "--tx-distance", "1.2", "--out", str(out)]) == 0
    s = rl.chamber_scenario(tx_distance_m=1.2)
    assert (out / "distance_sweep.csv").read_text() == rl.run_sweep(
        s, SweepJob("distance_sweep", "distance")).to_csv()


def test_a_sweep_that_fails_at_run_time_writes_nothing(tmp_path, capsys):
    # sweep a is fine; sweep b brings the RX so near that its power overflows a float
    cfg = write(tmp_path, "[scenario]\ntx_gain_dbi = 1530\nrx_gain_dbi = 1530\n"
                          "tx_distance_m = 0.3\n\n[sweep a]\ntype = distance\n\n"
                          "[sweep b]\ntype = distance\nstart = 0.05\nstop = 0.1\nstep = 0.05\n")
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: received power overflows a float\n"
    assert not out.exists()


# gains whose product overflows while the weights are built, and finite weights
# whose coherent sum squares past DBL_MAX
_OVERFLOWING_LINKS = {
    "gain-product": "[scenario]\ntx_gain_dbi = 3000\nrx_gain_dbi = 3000\n",
    "near-sum": "[scenario]\ntx_gain_dbi = 1540\nrx_gain_dbi = 1540\n"
                "tx_distance_m = 0.3\nrx_distance_m = 0.3\n",
}


@pytest.mark.parametrize("command", ["run", *BEAMFORMING_METHODS])
@pytest.mark.parametrize("link", _OVERFLOWING_LINKS)
def test_a_link_whose_power_overflows_a_float_fails_cleanly(tmp_path, capsys, link, command):
    cfg = write(tmp_path, _OVERFLOWING_LINKS[link]
                + "\n[sweep d]\ntype = distance\nstart = 0.3\nstop = 0.6\nstep = 0.3\n")
    out, trace = tmp_path / "run", tmp_path / "trace.csv"
    argv = (["run", str(cfg), "--out", str(out)] if command == "run" else
            ["beamform", "--config", str(cfg), "--method", command]
            + (["--trace", str(trace)] if command in ("blind", "greedy") else []))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: received power overflows a float\n")
    assert not out.exists() and not trace.exists()


_FAR = "range to an element overflows a float"
_HUGE = "range must be positive with a finite square, got 1e+200"
_WIDE = "array half-width must have a finite square, got "


@pytest.mark.parametrize("text, line, message", [
    ("[scenario]\ntx_distance_m = 1e200\n\n[sweep d]\ntype = distance\n", 2, _HUGE),
    ("[scenario]\nn_rows = 2\nrx_distance_m = 1e200\n\n[sweep a]\ntype = angle\n", 3, _HUGE),
    # the grid's last point, 1 + 10 * 1e199, is the farthest RX pose
    ("[sweep d]\ntype = distance\nstart = 1\nstop = 1e200\nstep = 1e199\n", 4,
     _HUGE.replace("1e+200", repr(1 + 10 * 1e199))),
], ids=["tx-distance", "rx-distance", "distance-stop"])
def test_a_range_whose_square_overflows_names_its_config_line(tmp_path, capsys, text, line,
                                                              message):
    cfg, out = write(tmp_path, text), tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {cfg}:{line}: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("config, argv, message", [
    ("", ["beamform", "--tx-distance", "1e200"], _HUGE),
    ("", ["beamform", "--method", "greedy", "--rx-distance", "1e200"], _HUGE),
    ("", ["pattern", "--rx-distance", "1e200"], _HUGE),
    ("", ["sweep-distance", "--stop", "1e200", "--step", "1e196"], _HUGE),
    # a surface whose half-width squares past a float names its line; a pose whose range
    # squares within one can still sit too far from the edge of a wide surface
    ("[scenario]\npitch_x_m = 1e200\n", ["sweep-angle"], f"{{cfg}}:2: {_WIDE}3.5e+200"),
    ("[scenario]\npitch_y_m = 1e200\n", ["beamform", "--method", "blind"],
     f"{{cfg}}:2: {_WIDE}1.5e+200"),
    ("[scenario]\npitch_x_m = 1e153\nrx_distance_m = 1.3e154\n", ["beamform"], _FAR),
    # two keys, neither at fault alone: the phase 2 pi (r_t + r_r) / lambda passes DBL_MAX
    ("[scenario]\nfrequency_hz = 1e308\ntx_distance_m = 1e10\n", ["beamform"],
     "two-hop phase overflows a float"),
    ("[scenario]\nfrequency_hz = 1e308\n",
     ["sweep-distance", "--start", "1e10", "--stop", "2e10", "--step", "1e10"],
     "two-hop phase overflows a float"),
    # an amplifier gain past a float in linear scale reads inf: the power check fails
    ("[amplifier]\ncalibration = 0:4000\n", ["beamform", "--method", "none"],
     "received power overflows a float"),
], ids=["beamform-tx", "greedy-rx", "pattern-rx", "sweep-distance-stop", "pitch-x", "pitch-y",
        "far-beside-a-wide-surface", "phase-beamform", "phase-sweep", "amplifier-gain"])
def test_an_overflowing_link_fails_cleanly_from_every_command(tmp_path, capsys, config, argv,
                                                              message):
    out, cfg = tmp_path / "out", write(tmp_path, config)
    if config:
        argv = [*argv, "--config", str(cfg)]
    if argv[0] != "beamform":  # beamform only prints
        argv = [*argv, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(cfg=cfg)}\n")
    assert not out.exists()


def test_an_integer_seed_is_recorded_as_an_integer(tmp_path, capsys):
    lib, cli = tmp_path / "lib", tmp_path / "cli"
    summary = rl.run_config(_ANGLE_CFG, lib, np.int64(3))
    assert main(["run", _ANGLE_CFG, "--out", str(cli), "--seed", "3"]) == 0
    assert summary["seed"] == 3 and type(summary["seed"]) is int
    assert (lib / "summary.json").read_bytes() == (cli / "summary.json").read_bytes()
    with pytest.raises(TypeError):  # not an integer: refused before anything is written
        rl.run_config(_ANGLE_CFG, tmp_path / "float", 3.0)
    assert not (tmp_path / "float").exists()


@pytest.mark.parametrize("grid, currents, line", [
    ("", "0.5, 99", 8), ("n_rows = 2\nn_cols = 2\n", "0.01, 1.4", 10)], ids=["4x8", "2x2"])
def test_an_over_budget_current_names_its_config_line_or_flag(tmp_path, capsys, grid, currents,
                                                              line):
    budget = "control current exceeds the 0.12 A supply budget"
    cfg = write(tmp_path, f"[scenario]\n{grid}\n[sweep a]\ntype = distance\n\n"
                          f"[sweep g]\ntype = gain\ncurrents_a = {currents}\n")
    with pytest.raises(ConfigError) as exc:
        load_run_plan(cfg)
    assert str(exc.value) == f"{cfg}:{line}: currents_a: {budget}"
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:{line}: currents_a: {budget}\n"
    argv = ["sweep-gain", "--currents", currents.replace(" ", ""), "--out", str(out)]
    if grid:
        argv += ["--config", str(write(tmp_path, f"[scenario]\n{grid}", "small.cfg"))]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --currents: {budget}\n"
    assert not out.exists()


_ANGLE_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "angle.cfg")


@pytest.mark.parametrize("argv", [["run", _ANGLE_CFG], ["beamform", "--method", "blind"],
                                  ["beamform", "--method", "quantized"],
                                  ["sweep-angle", "--method", "greedy", "--step", "30"]],
                         ids=["run", "beamform-blind", "beamform-quantized", "sweep-greedy"])
def test_a_negative_seed_is_rejected_before_anything_is_written(tmp_path, capsys, argv):
    out = tmp_path / "out"
    writes = [] if argv[0] == "beamform" else ["--out", str(out)]  # beamform only prints
    assert main([*argv, "--seed=-1", *writes]) == 2
    assert capsys.readouterr() == ("", "error: --seed must be >= 0, got -1\n")
    assert not out.exists()


_README = os.path.join(os.path.dirname(__file__), "..", "README.md")
# | `key` | section | `default` | unit | meaning |
_KEY_ROW = re.compile(r"^\| `(\w+)` \| (scenario|amplifier) \| `([^`]*)` \|")


def test_the_readme_lists_every_scenario_key_with_its_default(tmp_path):
    with open(_README) as fh:
        rows = [m.groups() for m in map(_KEY_ROW.match, fh) if m]
    parameters = inspect.signature(rl.chamber_scenario).parameters
    assert [key for key, _, _ in rows] == list(parameters)
    for key, section, default in rows:
        # a jitter-free Scenario holds no jitter seed, so the seed is read with jitter on
        jitter = {"phase_jitter_max_deg": 1.0} if key == "phase_jitter_seed" else {}
        text = "".join(f"{k} = {v}\n" for k, v in (*jitter.items(), (key, default)))
        plan = load_run_plan(write(tmp_path, f"[{section}]\n{text}"))
        assert plan.scenario == rl.chamber_scenario(**jitter)
        # and the Scenario holds the key, so that equality is not vacuous
        other = (((0.0003125, 1.0), (0.04375, 11.9)) if key == "calibration"
                 else parameters[key].default + 1)
        assert plan.scenario != rl.chamber_scenario(**{**jitter, key: other})


# a calibration whose gain underflows to 0 at zero current: that row's field is an exact null
_NULL_GAIN_CFG = ("[amplifier]\ncalibration = 0:-4000, 0.04375:11.9\n\n"
                  "[sweep g]\ntype = gain\ncurrents_a = {}\n")


def test_an_exact_null_row_is_infinite_and_the_run_goes_on(tmp_path, capsys):
    cfg = write(tmp_path, _NULL_GAIN_CFG.format("0, 1.4, 0"))
    lone = write(tmp_path, _NULL_GAIN_CFG.format("1.4"), "lone.cfg")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg), "--out", str(tmp_path / "null")]) == 0
        assert main(["run", str(lone), "--out", str(tmp_path / "lone")]) == 0
    header, null_row, top_row, last_row = (tmp_path / "null" / "g.csv").read_text().splitlines()
    assert null_row.split(",")[1:4] == last_row.split(",")[1:4] == ["0.0", "-inf", "inf"]
    assert (tmp_path / "lone" / "g.csv").read_text().splitlines() == [header, top_row]
    metrics = json.loads((tmp_path / "null" / "summary.json").read_text())["sweeps"][0]["metrics"]
    assert metrics["first_path_loss_db"] == metrics["last_path_loss_db"] == math.inf
    assert math.isnan(metrics["path_loss_span_db"])


def test_the_link_budget_of_a_null_sum_is_infinite_without_a_warning():
    s = rl.chamber_scenario()
    sums = [0j, 1e-3 + 2e-3j]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dbm, db = rl.link._link_budget_db(s, sums)
    lone_dbm, lone_db = rl.link._link_budget_db(s, sums[1:])
    assert dbm.tolist() == [-math.inf, lone_dbm[0]]
    assert db.tolist() == [math.inf, lone_db[0]]


def test_a_tiny_channel_sum_keeps_the_link_budget_identity(tmp_path, capsys):
    """|S|^2 below ~9e-307 puts 16 pi^2 / |S|^2 past a float, yet P_r is finite: the
    path loss is still P_t / P_r, so dBm plus dB is the TX power in dBm on every row."""
    cfg = write(tmp_path, "[scenario]\ntx_distance_m = 1e154\ntx_power_w = 2.0\n\n"
                          "[sweep far]\ntype = distance\nmethod = none\nstart = 1\nstop = 3\n"
                          "step = 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 0
    with open(tmp_path / "run" / "far.csv", newline="") as fh:
        rows = [(float(row["received_power_dBm"]), float(row["path_loss_dB"]))
                for row in csv.DictReader(fh)]
    assert len(rows) == 3
    for dbm, db in rows:
        assert math.isfinite(dbm) and math.isfinite(db)
        assert dbm + db == pytest.approx(10.0 * math.log10(2.0 / 1e-3), abs=1e-9)


@pytest.mark.parametrize("flag", [["--config", _ANGLE_CFG], ["--tx-distance", "3"],
                                  ["--rx-distance", "3"]])
def test_run_rejects_the_flags_it_would_ignore(tmp_path, capsys, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", _ANGLE_CFG, "--out", str(out), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_beamform_rejects_an_out_directory_it_would_never_write(tmp_path, capsys):
    out = tmp_path / "missing" / "dir"
    with pytest.raises(SystemExit) as exc:
        main(["beamform", "--method", "quantized", "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --out {out}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bits", [9, 40, 2000])
def test_a_codebook_over_eight_bits_is_rejected_at_its_line(tmp_path, capsys, bits):
    with pytest.raises(ValueError) as exc:
        rl.PhaseCodebook(bits)
    assert str(exc.value) == f"codebook holds at most 8 bits, got {bits}"
    cfg = write(tmp_path, f"[scenario]\ncodebook_bits = {bits}\n")
    assert main(["beamform", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: {exc.value}\n"


def test_an_eight_bit_codebook_still_works():
    assert rl.PhaseCodebook(8).size == 256


def test_an_overflowing_gain_prints_only_the_error(tmp_path):
    cfg = write(tmp_path, "[scenario]\ntx_gain_dbi = 5000\n", "g.cfg")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run([sys.executable, "-m", "rislink.cli", "beamform", "--config", str(cfg)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2
    assert proc.stderr == (f"error: {cfg}:2: boresight gain must be positive and finite "
                           "(linear scale), got inf\n")

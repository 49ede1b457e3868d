"""Config parsing diagnostics and the command-line surface."""

import json
import math
import os

import numpy as np
import pytest

import rislink as rl
from rislink.cli import main
from rislink.config import ConfigError, load_run_plan, parse_sections


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
    ("[bogus]\nx = 1\n", "unknown section"),
    ("[sweep s]\nstart = 1\n", "needs a 'type'"),
    ("[sweep s]\ntype = magic\n", ":2:"),
    ("[sweep s]\ntype = gain\n", "currents_a"),
    ("[sweep s]\ntype = angle\nstop = 90\n", ":3:"),
])
def test_load_run_plan_diagnostics(tmp_path, text, line_token):
    p = write(tmp_path, text)
    with pytest.raises(ConfigError) as exc:
        load_run_plan(p)
    assert line_token in str(exc.value)


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
    assert load_run_plan(cfg).rx_azimuth_deg == 90.0
    assert main(["sweep-angle", "--config", str(cfg), "--start", "0", "--stop", "40",
                 "--step", "20", "--out", str(tmp_path)]) == 0
    assert main(["pattern", "--config", str(cfg), "--steering", "20", "--step", "5",
                 "--out", str(tmp_path)]) == 0
    s = load_run_plan(cfg).scenario
    sweep = rl.angle_sweep(s, rl.SweepSpec("rx_zenith", 0.0, 40.0, 20.0), rx_azimuth_deg=90.0)
    cut = rl.radiation_pattern(s, 20.0, step=5.0, rx_azimuth_deg=90.0)
    assert (tmp_path / "angle_sweep.csv").read_text() == sweep.to_csv()
    assert (tmp_path / "pattern.csv").read_text() == cut.to_csv()


def test_cli_sweep_gain(tmp_path, capsys):
    assert main(["sweep-gain", "--currents", "0.01,1.4", "--out", str(tmp_path)]) == 0
    assert "11.90" in capsys.readouterr().out


def test_cli_pattern(tmp_path, capsys):
    assert main(["pattern", "--steering", "0", "--step", "2.5", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "pattern.csv").exists()
    assert "hpbw" in capsys.readouterr().out


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


def test_cli_seed_resolution(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, "[scenario]\nnoise_variance_w = 1e-4\n\n"
                          "[sweep s]\ntype = angle\nstart = 0\nstop = 10\nstep = 10\nmethod = blind\n")
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    monkeypatch.delenv("RISLINK_SEED", raising=False)
    main(["run", str(cfg), "--out", str(out1), "--seed", "9"])
    monkeypatch.setenv("RISLINK_SEED", "9")
    main(["run", str(cfg), "--out", str(out2)])
    monkeypatch.setenv("RISLINK_SEED", "10")
    main(["run", str(cfg), "--out", str(out3)])
    a = (out1 / "s.csv").read_bytes()
    assert a == (out2 / "s.csv").read_bytes()
    assert a != (out3 / "s.csv").read_bytes()
    # the flag must win over the environment
    out4 = tmp_path / "d"
    monkeypatch.setenv("RISLINK_SEED", "10")
    main(["run", str(cfg), "--out", str(out4), "--seed", "9"])
    assert a == (out4 / "s.csv").read_bytes()


def test_cli_invalid_env_seed(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("RISLINK_SEED", "not-a-number")
    assert main(["pattern", "--step", "5", "--out", str(tmp_path)]) == 2
    assert "RISLINK_SEED" in capsys.readouterr().err


def test_cli_rejects_bad_method(tmp_path, capsys):
    assert main(["sweep-distance", "--method", "magic", "--out", str(tmp_path)]) == 2

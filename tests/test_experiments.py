"""Sweep runners, pattern metrics, and the CSV/JSON emission contract."""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

import rislink as rl
from rislink.experiments import CSV_HEADER, sweep_grid


def test_sweep_grid_inclusive():
    assert np.allclose(sweep_grid(0.5, 5.0, 0.5),
                       [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0])
    assert np.allclose(sweep_grid(0.0, 60.0, 10.0), [0, 10, 20, 30, 40, 50, 60])
    assert len(sweep_grid(-85.0, 85.0, 0.5)) == 341
    assert np.array_equal(sweep_grid(2.0, 2.0, 1.0), [2.0])


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        sweep_grid(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        sweep_grid(1.0, 0.0, 0.5)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        rl.SweepSpec("frequency", 1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        rl.SweepSpec("rx_distance", 1.0, 2.0, 0.5, "magic")
    with pytest.raises(ValueError):
        rl.SweepSpec("rx_distance", 0.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        rl.SweepSpec("rx_zenith", -90.0, 60.0, 10.0)
    with pytest.raises(ValueError):
        rl.SweepSpec("rx_zenith", 0.0, 90.0, 10.0)
    with pytest.raises(ValueError):
        rl.SweepSpec("amplifier_current", -0.1, 1.0, 0.1)


def test_transmission_side_pose():
    p = rl.transmission_side_pose(4.0, 0.0)
    assert (p.r, p.theta, p.phi) == (4.0, math.pi, 0.0)
    p = rl.transmission_side_pose(4.5, 50.0)
    assert p.theta == pytest.approx(math.pi - math.radians(50.0), rel=1e-15)
    # negative angles flip to the opposite azimuth
    p = rl.transmission_side_pose(4.5, -30.0, 0.0)
    assert p.phi == pytest.approx(math.pi, rel=1e-15)
    assert p.theta == pytest.approx(math.pi - math.radians(30.0), rel=1e-15)
    for bad in (90.0, -90.0, 120.0):
        with pytest.raises(ValueError):
            rl.transmission_side_pose(4.0, bad)


def test_incidence_side_pose():
    from rislink.geometry import spherical_to_cartesian
    p = rl.incidence_side_pose(0.6, 25.0, 40.0)
    assert spherical_to_cartesian(p)[2] > 0
    assert rl.incidence_side_pose(0.6, 0.0).theta == 0.0


def test_chamber_scenario_defaults():
    s = rl.chamber_scenario()
    assert s.frequency == 2.6e9
    assert (s.layout.n_rows, s.layout.n_cols) == (4, 8)
    assert s.layout.pitch_x == 0.06
    assert s.tx_pose.r == 0.6 and s.tx_pose.theta == 0.0
    assert s.rx_pose.r == 4.0 and s.rx_pose.theta == math.pi
    assert s.tx_antenna.boresight_gain == pytest.approx(31.622776601683793, rel=1e-14)
    assert s.codebook.size == 4
    assert s.jitter is None


def test_apply_beamforming_methods_disjoint_fields():
    s = rl.chamber_scenario()
    bf_none = rl.apply_beamforming(s, "none")
    assert np.array_equal(bf_none.configuration, rl.uniform_configuration(s.layout))
    bf_cont = rl.apply_beamforming(s, "continuous")
    assert bf_cont.configuration is None and bf_cont.phases is not None
    bf_q = rl.apply_beamforming(s, "quantized")
    assert bf_q.phases is None and bf_q.configuration.shape == (4, 8)
    bf_b = rl.apply_beamforming(s, "blind")
    assert bf_b.queries == 1 + 4 * (4 + 8)
    with pytest.raises(ValueError):
        rl.apply_beamforming(s, "magic")


def test_beamforming_digests_distinguish_configurations():
    s = rl.chamber_scenario()
    d1 = rl.apply_beamforming(s, "none").digest
    d2 = rl.apply_beamforming(s, "quantized").digest
    d3 = rl.apply_beamforming(s, "quantized").digest
    assert d1 != d2
    assert d2 == d3
    assert len(d1) == 12 and all(c in "0123456789abcdef" for c in d1)


def test_distance_sweep_rows():
    s = rl.chamber_scenario()
    res = rl.distance_sweep(s, rl.SweepSpec("rx_distance", 1.0, 3.0, 1.0, "quantized"))
    assert res.variable == "rx_distance"
    assert np.allclose(res.values(), [1.0, 2.0, 3.0])
    assert all(len(r.config_digest) == 12 for r in res.rows)
    with pytest.raises(ValueError):
        rl.distance_sweep(s, rl.SweepSpec("rx_zenith", 0.0, 10.0, 5.0))


def test_distance_sweep_continuous_monotone():
    s = rl.chamber_scenario()
    res = rl.distance_sweep(s, rl.SweepSpec("rx_distance", 0.5, 5.0, 0.5, "continuous"))
    assert np.all(np.diff(res.path_losses_db()) > 0)


def test_angle_sweep_continuous_monotone():
    s = rl.chamber_scenario(rx_distance=4.5)
    res = rl.angle_sweep(s, rl.SweepSpec("rx_zenith", 0.0, 60.0, 10.0, "continuous"))
    assert res.variable == "rx_zenith"
    assert np.all(np.diff(res.path_losses_db()) >= 0)


def test_gain_sweep_swing_and_held_configuration():
    s = rl.chamber_scenario()
    res = rl.gain_sweep(s, [0.01, 0.2, 0.6, 1.0, 1.4])
    p = res.received_powers_dbm()
    assert p[-1] - p[0] == pytest.approx(11.9, abs=1e-9)
    assert np.all(np.diff(p) > 0)
    digests = {r.config_digest for r in res.rows}
    assert len(digests) == 1  # configuration frozen across the sweep
    assert res.variable == "amplifier_current"
    assert np.allclose(res.values(), [0.01, 0.2, 0.6, 1.0, 1.4])


def test_gain_sweep_budget_and_validation():
    s = rl.chamber_scenario()
    with pytest.raises(rl.SupplyBudgetError):
        rl.gain_sweep(s, [10.0])  # 10/32 A per unit blows the 0.12 A budget
    with pytest.raises(ValueError):
        rl.gain_sweep(s, [])
    with pytest.raises(ValueError):
        rl.gain_sweep(s, [-0.1])


def test_radiation_pattern_boresight():
    s = rl.chamber_scenario()
    pat = rl.radiation_pattern(s, 0.0)
    assert len(pat.angles_deg) == 341
    assert pat.relative_db.max() == 0.0
    assert abs(pat.peak_angle_deg) <= 1.0
    assert 10.0 <= pat.hpbw_deg <= 16.0
    assert pat.pslr_db > 5.0
    assert pat.config_digest == rl.apply_beamforming(s, "quantized").digest


def test_radiation_pattern_steered():
    s = rl.chamber_scenario()
    pat = rl.radiation_pattern(s, 50.0, method="continuous")
    assert abs(pat.peak_angle_deg - 50.0) <= 3.0


def test_half_power_beamwidth_synthetic():
    angles = np.arange(-10.0, 10.5, 0.5)
    rel = -np.abs(angles)  # 1 dB per degree, crossings at +-3
    assert rl.half_power_beamwidth(angles, rel) == pytest.approx(6.0, rel=1e-12)
    with pytest.raises(ValueError):
        rl.half_power_beamwidth(angles, np.zeros_like(angles))  # never crosses -3


def test_peak_to_sidelobe_synthetic():
    angles = np.arange(-5.0, 5.5, 1.0)
    rel = np.array([-20, -7, -12, -3, 0.0, -3, -12, -7, -20, -25, -30])
    assert rl.peak_to_sidelobe(angles[:len(rel)], rel) == pytest.approx(7.0)
    monotone = -np.abs(np.arange(-5.0, 5.5, 1.0))
    assert math.isnan(rl.peak_to_sidelobe(angles, monotone))


def test_sweep_csv_schema(tmp_path):
    s = rl.chamber_scenario()
    res = rl.distance_sweep(s, rl.SweepSpec("rx_distance", 1.0, 2.0, 1.0))
    path = tmp_path / "out.csv"
    res.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == "variable,value,received_power_dBm,path_loss_dB,config_digest"
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert fields[0] == "rx_distance"
    assert float(fields[1]) == 1.0
    float(fields[2]); float(fields[3])  # numeric round-trip
    assert len(fields[4]) == 12


def test_pattern_csv_schema(tmp_path):
    s = rl.chamber_scenario()
    pat = rl.radiation_pattern(s, 0.0, start=-10.0, stop=10.0, step=5.0)
    path = tmp_path / "pat.csv"
    pat.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6
    assert lines[1].split(",")[0] == "pattern_angle"


def test_run_config_outputs(tmp_path):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(
        "[scenario]\n"
        "rx_distance_m = 4.5\n"
        "\n"
        "[sweep angles]\n"
        "type = angle\n"
        "start = 0\n"
        "stop = 30\n"
        "step = 10\n"
        "method = quantized\n"
    )
    out = tmp_path / "results"
    summary = rl.run_config(cfg, out, seed=1)
    assert (out / "angles.csv").exists()
    assert (out / "summary.json").exists()
    loaded = json.loads((out / "summary.json").read_text())
    assert loaded == json.loads(json.dumps(summary))
    assert loaded["config"] == "case.cfg"
    assert loaded["sweeps"][0]["rows"] == 4
    assert loaded["scenario"]["rx_pose"][0] == 4.5


def test_run_config_is_deterministic(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "[scenario]\n"
        "noise_variance_w = 1e-9\n"
        "\n"
        "[sweep search]\n"
        "type = angle\n"
        "start = 0\n"
        "stop = 20\n"
        "step = 10\n"
        "method = blind\n"
    )
    a = tmp_path / "a"
    b = tmp_path / "b"
    rl.run_config(cfg, a, seed=7)
    rl.run_config(cfg, b, seed=7)
    assert (a / "search.csv").read_bytes() == (b / "search.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def _azimuth_90_scenario():
    s = rl.chamber_scenario(n_rows=2, n_cols=8)
    return replace(s, rx_pose=rl.transmission_side_pose(4.0, 0.0, 90.0))


def _path_loss_at(scenario, angle, azimuth, steering=None):
    """path_loss_db evaluated directly at one transmission-side pose."""
    pose = rl.transmission_side_pose(scenario.rx_pose.r, angle, azimuth)
    scn = replace(scenario, rx_pose=pose)
    steer = scn if steering is None else replace(
        scenario, rx_pose=rl.transmission_side_pose(scenario.rx_pose.r, steering, azimuth))
    bf = rl.apply_beamforming(steer, "quantized")
    return rl.path_loss_db(scn, bf.states, bf.phases)


def test_angle_sweep_keeps_rx_azimuth():
    s = _azimuth_90_scenario()
    res = rl.angle_sweep(s, rl.SweepSpec("rx_zenith", 0.0, 60.0, 10.0), rx_azimuth_deg=90.0)
    for row in res.rows:
        assert row.path_loss_db == pytest.approx(_path_loss_at(s, row.value, 90.0), rel=1e-12)
    assert res.rows[2].path_loss_db == pytest.approx(14.0566, abs=1e-4)


def test_radiation_pattern_keeps_rx_azimuth():
    s = _azimuth_90_scenario()
    res = rl.radiation_pattern(s, 30.0, -60.0, 60.0, 7.5, rx_azimuth_deg=90.0)
    for a, pl in zip(res.angles_deg, res.path_loss_db):
        assert pl == pytest.approx(_path_loss_at(s, a, 90.0, steering=30.0), rel=1e-12)


def test_run_config_keeps_rx_azimuth(tmp_path):
    # a negative configured zenith stores phi + 180 deg in rx_pose; the cut
    # must still run in the configured azimuth plane
    cfg = tmp_path / "az.cfg"
    cfg.write_text(
        "[scenario]\nn_rows = 2\nn_cols = 8\nrx_zenith_deg = -10\nrx_azimuth_deg = 90\n"
        "[sweep angle]\ntype = angle\nstart = -20\nstop = 40\nstep = 20\n"
        "[sweep cut]\ntype = pattern\nsteering_deg = 20\nstart = -60\nstop = 60\nstep = 30\n"
    )
    rl.run_config(cfg, tmp_path / "out")
    s = rl.load_run_plan(cfg).scenario
    assert s.rx_pose.phi == pytest.approx(math.radians(270.0))
    for name, steering in (("angle", None), ("cut", 20.0)):
        lines = (tmp_path / "out" / f"{name}.csv").read_text().splitlines()[1:]
        for line in lines:
            _, value, _, pl, _ = line.split(",")
            assert float(pl) == pytest.approx(
                _path_loss_at(s, float(value), 90.0, steering), rel=1e-12)

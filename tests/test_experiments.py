"""Sweep runners, pattern metrics, and the CSV/JSON emission contract."""

import json
import math
import os
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rislink as rl
import rislink.link as link_module
from helpers import (
    make_random_scenario,
    received_power_expanded,
    reference_continuous_sum,
    reference_pose_sweep,
    reference_transmission_side_points,
    reference_transmission_side_pose,
    uniform_configuration,
)
from rislink.experiments import (BEAMFORMING_METHODS, CSV_HEADER, MAX_GRID_POINTS, SweepJob,
                                 _closed_form, _mod_2pi, _steer, sweep_grid)
from rislink.cli import main
from rislink.geometry import cartesian_points
from rislink.link import _channel_sums, _link_budget_db, _own_rx_point, _weight_chunks

GOLDEN_16X16 = os.path.join(os.path.dirname(__file__), "data", "golden_16x16.cfg")


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


@pytest.mark.parametrize("grid, message", [
    ((0.0, math.inf, 1.0), "stop must be finite, got inf"),
    ((math.nan, 1.0, 1.0), "start must be finite, got nan"),
    ((0.0, 1.0, math.inf), "step must be finite, got inf"),
    ((-1e308, 1e308, 1.0), "exceeds 100000 points"),  # the span itself overflows
    ((0.0, MAX_GRID_POINTS, 1.0), "exceeds 100000 points"),
])
def test_sweep_grid_rejects_unbounded_grids_before_allocating(grid, message):
    with pytest.raises(ValueError, match=message):
        sweep_grid(*grid)
    assert len(sweep_grid(0.0, MAX_GRID_POINTS - 1, 1.0)) == MAX_GRID_POINTS


def test_sweep_job_validation():
    with pytest.raises(ValueError):
        SweepJob("s", "frequency", start=1.0, stop=2.0, step=0.5)
    with pytest.raises(ValueError):
        SweepJob("s", "distance", "magic", 1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        SweepJob("s", "distance", start=0.0, stop=2.0, step=0.5)
    with pytest.raises(ValueError):
        SweepJob("s", "angle", start=-90.0, stop=60.0, step=10.0)
    with pytest.raises(ValueError):
        SweepJob("s", "angle", start=0.0, stop=90.0, step=10.0)
    with pytest.raises(ValueError):
        SweepJob("s", "gain", currents=(-0.1, 1.0))


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
    # a tiny negative azimuth is just below 2 pi, which rounds to it: it reads 0
    for azimuth in (-1e-14, -1e-20):
        assert rl.transmission_side_pose(4.0, 10.0, azimuth).phi == 0.0


def test_incidence_side_pose():
    from rislink.geometry import spherical_to_cartesian
    p = rl.incidence_side_pose(0.6, 25.0, 40.0)
    assert spherical_to_cartesian(p)[2] > 0
    assert rl.incidence_side_pose(0.6, 0.0).theta == 0.0
    for azimuth in (-1e-14, -1e-20):  # np.mod rounds these up to 2 pi
        s = rl.chamber_scenario(tx_azimuth_deg=azimuth, rx_azimuth_deg=azimuth)
        assert s.tx_pose.phi == s.rx_pose.phi == 0.0


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


# integer keys a library caller can pass as floats: the model names the field and the value
_NON_INTEGER_KEYWORDS = {
    "n_rows": (2.5, "n_rows must be an integer, got 2.5"),
    "n_cols": (8.0, "n_cols must be an integer, got 8.0"),
    "codebook_bits": (2.5, "codebook bits must be an integer, got 2.5"),
    "phase_jitter_seed": (1.5, "jitter seed must be an integer, got 1.5"),
}


@pytest.mark.parametrize("key", _NON_INTEGER_KEYWORDS)
def test_chamber_scenario_rejects_a_non_integer_count(key):
    value, message = _NON_INTEGER_KEYWORDS[key]
    with pytest.raises(ValueError, match=f"^{message}$"):
        rl.chamber_scenario(**{key: value})


def test_integer_fields_reject_whole_floats_and_accept_numpy_integers():
    with pytest.raises(ValueError, match="^codebook bits must be an integer, got 2.0$"):
        rl.PhaseCodebook(2.0)
    with pytest.raises(ValueError, match="^jitter seed must be an integer, got 3.0$"):
        rl.PhaseJitterModel(0.1, 3.0)
    with pytest.raises(ValueError, match="^n_rows must be an integer, got nan$"):
        rl.ArrayLayout(math.nan, 4)
    numpy_ints = rl.chamber_scenario(n_rows=np.int64(2), n_cols=np.int32(3),
                                     codebook_bits=np.uint8(3), phase_jitter_max_deg=5.0,
                                     phase_jitter_seed=np.int16(4))
    python_ints = rl.chamber_scenario(n_rows=2, n_cols=3, codebook_bits=3,
                                      phase_jitter_max_deg=5.0, phase_jitter_seed=4)
    assert rl.received_power(numpy_ints, np.arange(6) % 8) == \
        rl.received_power(python_ints, np.arange(6) % 8)


def test_apply_beamforming_methods_disjoint_fields():
    s = rl.chamber_scenario()
    bf_none = rl.apply_beamforming(s, "none")
    assert np.array_equal(bf_none.configuration, uniform_configuration(s.layout))
    bf_cont = rl.apply_beamforming(s, "continuous")
    assert bf_cont.configuration is None and bf_cont.phases is not None
    bf_q = rl.apply_beamforming(s, "quantized")
    assert bf_q.phases is None and bf_q.configuration.shape == (4, 8)
    bf_b = rl.apply_beamforming(s, "blind")
    assert bf_b.queries == 1 + 4 * (4 + 8)
    with pytest.raises(ValueError):
        rl.apply_beamforming(s, "magic")


@pytest.mark.parametrize("method", BEAMFORMING_METHODS)
def test_an_outcome_channel_sum_is_the_kernel_at_its_own_pose(method):
    rng = np.random.default_rng(8)
    for i in range(6):
        s = replace(make_random_scenario(rng, max_rows=6, max_cols=9, max_units=54,
                                         random_offset=True),
                    jitter=rl.PhaseJitterModel(math.radians(12.0), i), noise_variance=1e-9)
        bf = rl.apply_beamforming(s, method, seed=i)
        # bit for bit: the weights the method built stand in for a rebuild of the kernel
        program = [(bf.configuration, bf.phases)]
        assert bf.channel_sum == _channel_sums(s, _own_rx_point(s), program)[0, 0]


@pytest.mark.parametrize("method", BEAMFORMING_METHODS)
def test_beamform_builds_the_element_weights_once(monkeypatch, capsys, method):
    calls = _count_weight_builds(monkeypatch)
    assert main(["beamform", "--config", GOLDEN_16X16, "--method", method, "--rounds", "1"]) == 0
    assert len(calls) == 1


def _count_weight_builds(monkeypatch) -> list:
    """A list that gains one entry per element-weight build, counted through every
    binding of the chunk generator in the package's modules."""
    calls = []
    weight_chunks = link_module._weight_chunks

    def counted(*args, **kwargs):
        calls.append(1)
        return weight_chunks(*args, **kwargs)

    patched = set()
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "rislink":
            for attr, value in list(vars(module).items()):
                if value is weight_chunks:
                    monkeypatch.setattr(module, attr, counted)
                    patched.add(name)
    assert {"rislink.link", "rislink.experiments"} <= patched
    return calls


def _count_draws(monkeypatch) -> list:
    """A list that gains one entry per jitter draw (`PhaseJitterModel.sample` call)."""
    calls = []
    sample = rl.PhaseJitterModel.sample

    def counted(self, *args, **kwargs):
        calls.append(1)
        return sample(self, *args, **kwargs)

    monkeypatch.setattr(rl.PhaseJitterModel, "sample", counted)
    return calls


@pytest.mark.parametrize("method, draws", [("blind", 1), ("greedy", 1), ("none", 1),
                                           ("quantized", 1), ("continuous", 0)])
def test_a_beamform_draws_the_jitter_at_most_once(monkeypatch, capsys, method, draws):
    calls = _count_draws(monkeypatch)
    assert main(["beamform", "--config", GOLDEN_16X16, "--method", method, "--rounds", "1"]) == 0
    assert len(calls) == draws


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
    res = rl.run_sweep(s, SweepJob("d", "distance", "quantized", 1.0, 3.0, 1.0))
    assert res.variable == "rx_distance"
    assert np.allclose(res.values, [1.0, 2.0, 3.0])
    assert all(len(d) == 12 for d in res.config_digests)
    with pytest.raises(ValueError):
        SweepJob("d", "rx_zenith", start=0.0, stop=10.0, step=5.0)


def test_distance_sweep_continuous_monotone():
    s = rl.chamber_scenario()
    res = rl.run_sweep(s, SweepJob("d", "distance", "continuous", 0.5, 5.0, 0.5))
    assert np.all(np.diff(res.path_loss_db) > 0)


def test_angle_sweep_continuous_monotone():
    s = rl.chamber_scenario(rx_distance_m=4.5)
    res = rl.run_sweep(s, SweepJob("a", "angle", "continuous", 0.0, 60.0, 10.0))
    assert res.variable == "rx_zenith"
    assert np.all(np.diff(res.path_loss_db) >= 0)


def test_gain_sweep_swing_and_held_configuration():
    s = rl.chamber_scenario()
    res = rl.run_sweep(s, SweepJob("g", "gain", currents=[0.01, 0.2, 0.6, 1.0, 1.4]))
    p = res.received_power_dbm
    assert p[-1] - p[0] == pytest.approx(11.9, abs=1e-9)
    assert np.all(np.diff(p) > 0)
    assert len(set(res.config_digests)) == 1  # configuration frozen across the sweep
    assert res.variable == "amplifier_current"
    assert np.allclose(res.values, [0.01, 0.2, 0.6, 1.0, 1.4])


GAIN_CURRENTS = (0.01, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4)  # the CLI's default array currents


@pytest.mark.parametrize("method", BEAMFORMING_METHODS)
def test_a_gain_sweep_builds_the_element_weights_once(monkeypatch, method):
    calls = _count_weight_builds(monkeypatch)
    rl.run_sweep(rl.chamber_scenario(), SweepJob("g", "gain", method, currents=GAIN_CURRENTS))
    assert len(calls) == 1


@pytest.mark.parametrize("n_rows, n_cols", [(3, 4), (4, 8), (16, 16), (64, 64)])
def test_gain_sweep_rows_are_the_expanded_route_at_each_current(n_rows, n_cols):
    """Each row is the held configuration at c / n per unit, by the route that takes a
    per-unit current; the swing is the amplifier's gain between the end currents."""
    s = rl.chamber_scenario(n_rows=n_rows, n_cols=n_cols, rx_zenith_deg=20.0,
                            phase_jitter_max_deg=8.0, phase_jitter_seed=3)
    n, amp = s.layout.n_units, s.amplifier
    res = rl.run_sweep(s, SweepJob("g", "gain", currents=GAIN_CURRENTS))
    bf = rl.apply_beamforming(s)
    assert res.config_digests == [bf.digest] * len(GAIN_CURRENTS)
    for c, p_dbm in zip(GAIN_CURRENTS, res.received_power_dbm):
        want = received_power_expanded(s, bf.configuration, current=c / n)
        assert rl.from_db(p_dbm - 30.0) == pytest.approx(want, rel=1e-12)
    p = res.received_power_dbm
    swing = amp.gain_db(GAIN_CURRENTS[-1] / n) - amp.gain_db(GAIN_CURRENTS[0] / n)
    assert p[-1] - p[0] == pytest.approx(swing, abs=1e-12)


def test_a_gain_sweep_at_the_top_current_reads_the_beamformed_link():
    s = rl.chamber_scenario(rx_zenith_deg=20.0, phase_jitter_max_deg=8.0)
    assert GAIN_CURRENTS[-1] / s.layout.n_units == s.amplifier.top_current
    res = rl.run_sweep(s, SweepJob("g", "gain", currents=GAIN_CURRENTS))
    dbm, pl_db = _link_budget_db(s, [rl.apply_beamforming(s).channel_sum])
    assert (res.received_power_dbm[-1], res.path_loss_db[-1]) == (dbm[0], pl_db[0])


def test_gain_sweep_budget_and_validation():
    s = rl.chamber_scenario()
    with pytest.raises(rl.SupplyBudgetError):
        rl.run_sweep(s, SweepJob("g", "gain", currents=[10.0]))  # 10/32 A per unit > 0.12 A
    with pytest.raises(ValueError):
        SweepJob("g", "gain", currents=[])
    with pytest.raises(ValueError):
        SweepJob("g", "gain", currents=[-0.1])


def test_radiation_pattern_boresight():
    s = rl.chamber_scenario()
    pat = rl.run_sweep(s, SweepJob("p", "pattern"))
    assert len(pat.values) == 341
    assert pat.hpbw_deg == rl.half_power_beamwidth(pat.values,
                                                   pat.received_power_dbm - pat.peak_power_dbm)
    assert abs(pat.peak_angle_deg) <= 1.0
    assert 10.0 <= pat.hpbw_deg <= 16.0
    assert pat.pslr_db > 5.0
    assert set(pat.config_digests) == {rl.apply_beamforming(s, "quantized").digest}


def test_radiation_pattern_steered():
    s = rl.chamber_scenario()
    pat = rl.run_sweep(s, SweepJob("p", "pattern", "continuous", steering_deg=50.0))
    assert abs(pat.peak_angle_deg - 50.0) <= 3.0


def test_half_power_beamwidth_synthetic():
    angles = np.arange(-10.0, 10.5, 0.5)
    rel = -np.abs(angles)  # 1 dB per degree, crossings at +-3
    assert rl.half_power_beamwidth(angles, rel) == pytest.approx(6.0, rel=1e-12)
    assert math.isnan(rl.half_power_beamwidth(angles, np.zeros_like(angles)))  # never crosses -3
    assert math.isnan(rl.half_power_beamwidth(angles, -np.maximum(angles, 0.0)))  # one side


def test_peak_to_sidelobe_synthetic():
    angles = np.arange(-5.0, 5.5, 1.0)
    rel = np.array([-20, -7, -12, -3, 0.0, -3, -12, -7, -20, -25, -30])
    assert rl.peak_to_sidelobe(angles[:len(rel)], rel) == pytest.approx(7.0)
    monotone = -np.abs(np.arange(-5.0, 5.5, 1.0))
    assert math.isnan(rl.peak_to_sidelobe(angles, monotone))


def test_sweep_csv_schema(tmp_path):
    s = rl.chamber_scenario()
    res = rl.run_sweep(s, SweepJob("d", "distance", start=1.0, stop=2.0, step=1.0))
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
    pat = rl.run_sweep(s, SweepJob("p", "pattern", start=-10.0, stop=10.0, step=5.0))
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


PATTERNS_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "patterns.cfg")
_JITTERED_5X7 = ("[scenario]\nn_rows = 5\nn_cols = 7\nphase_jitter_max_deg = 10\n"
                 "phase_jitter_seed = 5\nnoise_variance_w = 1e-9\nrx_zenith_deg = 15\n"
                 "rx_azimuth_deg = 40\n")
# (section text, whether it is a cut); the wide grid's last cut spells the same
# 49 angles with another stop, and the narrow grid holds two cuts of its own
_SWEEPS = [
    ("[sweep wide_none]\ntype = pattern\nmethod = none\nstart = -60\nstop = 60\nstep = 2.5\n",
     True),
    ("[sweep near]\ntype = distance\nstart = 1\nstop = 3\nstep = 1\n", False),
    ("[sweep narrow_q]\ntype = pattern\nsteering_deg = -30\nstart = -40\nstop = 0\nstep = 5\n",
     True),
    ("[sweep wide_cont]\ntype = pattern\nmethod = continuous\nsteering_deg = 20\n"
     "start = -60\nstop = 60\nstep = 2.5\n", True),
    ("[sweep wide_q]\ntype = pattern\nsteering_deg = 35\nstart = -60\nstop = 60\nstep = 2.5\n",
     True),
    ("[sweep g]\ntype = gain\ncurrents_a = 0.01, 0.7, 1.4\n", False),
    ("[sweep narrow_greedy]\ntype = pattern\nmethod = greedy\nsteering_deg = -10\n"
     "start = -40\nstop = 0\nstep = 5\n", True),
    ("[sweep wide_blind]\ntype = pattern\nmethod = blind\nsteering_deg = -15\n"
     "start = -60\nstop = 61\nstep = 2.5\n", True),
]


@pytest.mark.parametrize("cfg, seed, n_grids", [(None, 4, 2), (GOLDEN_16X16, 3, 1)],
                         ids=["jittered_5x7", "golden_16x16"])
def test_cuts_that_share_a_grid_equal_one_job_sweeps_in_config_order(tmp_path, cfg, seed,
                                                                     n_grids):
    # a library run_sweep on the plan's scenario alone equals `run`, also at
    # golden_16x16's negative zenith, whose pose stores its azimuth turned by 180 deg
    if cfg is None:
        cfg = tmp_path / "cuts.cfg"
        cfg.write_text(_JITTERED_5X7 + "".join(text for text, _ in _SWEEPS))
    out = tmp_path / "out"
    summary = rl.run_config(cfg, out, seed=seed)
    plan = rl.load_run_plan(cfg)
    grids = {job.grid().tobytes() for job in plan.jobs if job.kind == "pattern"}
    assert len(grids) == n_grids
    names = [job.name for job in plan.jobs]
    assert [entry["name"] for entry in summary["sweeps"]] == names
    assert json.loads((out / "summary.json").read_text()) == json.loads(json.dumps(summary))
    differ = []
    for job, entry in zip(plan.jobs, summary["sweeps"]):
        alone = rl.run_sweep(plan.scenario, job, seed)
        if ((out / entry["csv"]).read_text() != alone.to_csv()
                or json.dumps(entry["metrics"]) != json.dumps(alone.metrics)):
            differ.append(job.name)
    assert differ == []


def test_cuts_on_one_grid_build_one_path_table(monkeypatch, tmp_path):
    calls = _count_weight_builds(monkeypatch)
    rl.run_config(PATTERNS_CFG, tmp_path)
    assert len(calls) == 1 + 1  # the three steerings' one table and the three cuts' one


def test_cuts_on_one_grid_draw_the_jitter_once_per_table(monkeypatch, tmp_path):
    cfg = tmp_path / "cuts.cfg"
    cfg.write_text(_JITTERED_5X7 + "".join(text for text, cut in _SWEEPS if cut))
    calls = _count_draws(monkeypatch)
    rl.run_config(cfg, tmp_path / "out")
    # the plan's scenario once for both tables, and the scenario of each searched
    # steering; the closed-form steerings take the plan's path table
    assert len(calls) == 1 + 2


def test_a_run_draws_the_jitter_once_per_scenario(monkeypatch, tmp_path):
    cfg = tmp_path / "all.cfg"
    searched = "[sweep turn]\ntype = angle\nmethod = blind\nstart = 0\nstop = 20\nstep = 10\n"
    cfg.write_text(_JITTERED_5X7 + "".join(text for text, _ in _SWEEPS) + searched)
    calls = _count_draws(monkeypatch)
    rl.run_config(cfg, tmp_path / "out")
    # the plan's scenario once for the tables, the distance and the gain sweep; then
    # the scenario of each searched steering and of each searched pose
    assert len(calls) == 1 + 2 + 3


@pytest.mark.parametrize("kind, method, grid, draws", [
    ("distance", "quantized", (0.5, 5.5, 0.5), 1), ("angle", "none", (0.0, 40.0, 1.0), 1),
    ("angle", "continuous", (0.0, 40.0, 1.0), 0)],
    ids=["distance-quantized", "angle-none", "angle-continuous"])
def test_a_large_pose_sweep_draws_the_jitter_at_most_once(monkeypatch, kind, method, grid,
                                                          draws):
    s = rl.chamber_scenario(n_rows=64, n_cols=64, phase_jitter_max_deg=8.0)
    calls = _count_draws(monkeypatch)
    res = rl.run_sweep(s, SweepJob("s", kind, method, *grid))
    assert len(res.values) > 8  # more points than one 64x64 kernel chunk holds
    assert len(calls) == draws


def _azimuth_90_scenario():
    return rl.chamber_scenario(n_rows=2, n_cols=8, rx_azimuth_deg=90.0)


def _path_loss_at(scenario, angle, azimuth, steering=None):
    """path_loss_db evaluated directly at one transmission-side pose."""
    pose = rl.transmission_side_pose(scenario.rx_pose.r, angle, azimuth)
    scn = replace(scenario, rx_pose=pose)
    steer = scn if steering is None else replace(
        scenario, rx_pose=rl.transmission_side_pose(scenario.rx_pose.r, steering, azimuth))
    bf = rl.apply_beamforming(steer, "quantized")
    return rl.path_loss_db(scn, bf.configuration, bf.phases)


def test_angle_sweep_keeps_rx_azimuth():
    s = _azimuth_90_scenario()
    res = rl.run_sweep(s, SweepJob("a", "angle", start=0.0, stop=60.0, step=10.0))
    for value, pl in zip(res.values, res.path_loss_db):
        assert pl == pytest.approx(_path_loss_at(s, value, 90.0), rel=1e-12)
    assert res.path_loss_db[2] == pytest.approx(14.0566, abs=1e-4)
    # a directly built scenario fixes its plane too: moving its RX pose keeps the sweep
    direct = rl.Scenario(s.frequency, s.tx_pose, rl.transmission_side_pose(4.0, 0.0, 30.0),
                         s.layout)
    moved = replace(direct, rx_pose=rl.transmission_side_pose(4.0, 0.0, 120.0))
    assert moved.rx_plane_deg == direct.rx_plane_deg == pytest.approx(30.0)
    job = SweepJob("a", "angle", start=-40.0, stop=40.0, step=20.0)
    assert rl.run_sweep(moved, job).to_csv() == rl.run_sweep(direct, job).to_csv()


def test_radiation_pattern_keeps_rx_azimuth():
    s = _azimuth_90_scenario()
    res = rl.run_sweep(s, SweepJob("p", "pattern", "quantized", -60.0, 60.0, 7.5,
                                   steering_deg=30.0))
    for a, pl in zip(res.values, res.path_loss_db):
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


def test_a_negative_zenith_sweep_turns_in_the_configured_plane():
    # the pose stores the 0 deg plane turned by 180 deg; the sweep's angles and the
    # cut's steering are still signed in the configured plane, not mirrored
    s = rl.chamber_scenario(rx_zenith_deg=-30, tx_zenith_deg=20, phase_jitter_max_deg=5)
    assert s.rx_pose.phi == pytest.approx(math.pi) and s.rx_plane_deg == 0.0
    angle = rl.run_sweep(s, SweepJob("a", "angle", "quantized", -40.0, 40.0, 20.0))
    assert angle.received_power_dbm == pytest.approx(
        [21.080, 22.030, 22.104, 22.236, 21.309], abs=5e-4)
    cut = rl.run_sweep(s, SweepJob("c", "pattern", "quantized", -40.0, 40.0, 20.0,
                                   steering_deg=-30.0))
    assert cut.received_power_dbm == pytest.approx(
        [11.878, 17.112, 0.218, 4.823, 3.847], abs=5e-4)


# ------------------------------------------------- batched pose sweep vs per point

def _pose_sweep_scenario(n_rows, n_cols, seed):
    """A jittered link whose RX sits at a negative zenith in a non-zero azimuth plane."""
    return rl.chamber_scenario(tx_distance_m=0.8, tx_zenith_deg=10.0, tx_azimuth_deg=200.0,
                               rx_distance_m=3.5, rx_zenith_deg=-15.0, rx_azimuth_deg=35.0,
                               n_rows=n_rows, n_cols=n_cols, tx_exponent=1.0, rx_exponent=1.0,
                               noise_variance_w=1e-4, phase_jitter_max_deg=15.0,
                               phase_jitter_seed=seed)


def _distance_poses(s, grid):
    return [rl.SphericalPose(float(r), s.rx_pose.theta, s.rx_pose.phi) for r in grid]


def _angle_poses(s, grid, azimuth):
    return [rl.transmission_side_pose(s.rx_pose.r, float(a), azimuth) for a in grid]


def _assert_rows_match(got, want):
    assert got.variable == want.variable and len(got.values) == len(want.values)
    assert np.array_equal(got.values, want.values)
    assert got.config_digests == want.config_digests
    assert got.received_power_dbm == pytest.approx(want.received_power_dbm, rel=1e-12)
    assert got.path_loss_db == pytest.approx(want.path_loss_db, rel=1e-12, abs=1e-12)


_SWEEP_SIZES = [(4, 8), (7, 5), (64, 64)]


@pytest.mark.parametrize("method", rl.experiments.BEAMFORMING_METHODS)
@pytest.mark.parametrize("n_rows, n_cols", _SWEEP_SIZES)
def test_pose_sweeps_match_the_per_point_reference(n_rows, n_cols, method):
    s = _pose_sweep_scenario(n_rows, n_cols, seed=n_rows)
    # 64x64 chunks hold 4 points, so 6 points cross a chunk boundary
    dist = SweepJob("d", "distance", method, 1.0, 3.5, 0.5)
    got = rl.run_sweep(s, dist, seed=5)
    want = reference_pose_sweep(s, "rx_distance", dist.grid(), _distance_poses(s, dist.grid()),
                                method, seed=5)
    _assert_rows_match(got, want)
    ang = SweepJob("a", "angle", method, -35.0, 15.0, 10.0)
    got = rl.run_sweep(s, ang, seed=5)
    want = reference_pose_sweep(s, "rx_zenith", ang.grid(), _angle_poses(s, ang.grid(), 35.0),
                                method, seed=5)
    _assert_rows_match(got, want)


@pytest.mark.parametrize("method", ("none", "continuous", "quantized"))
@pytest.mark.parametrize("n_rows, n_cols", [(4, 8), (16, 16), (64, 64)])
def test_closed_form_pose_rows_match_beamform_at_the_same_pose(n_rows, n_cols, method):
    # a sweep row sums amp * e^{j(phi_programmed - Phi)} (amp for continuous) and
    # beamform sums w * e^{j phi_programmed}: the two tails stay apart, so their
    # rows may differ in the last bits and are held to 1e-12
    s = _pose_sweep_scenario(n_rows, n_cols, seed=n_rows)
    dist = SweepJob("d", "distance", method, 1.0, 3.5, 0.5)
    ang = SweepJob("a", "angle", method, -35.0, 15.0, 10.0)
    for job, poses in ((dist, _distance_poses(s, dist.grid())),
                       (ang, _angle_poses(s, ang.grid(), 35.0))):
        got = rl.run_sweep(s, job)
        outcomes = [rl.apply_beamforming(replace(s, rx_pose=pose), method) for pose in poses]
        p_dbm, pl_db = _link_budget_db(s, [bf.channel_sum for bf in outcomes])
        assert got.config_digests == [bf.digest for bf in outcomes]
        np.testing.assert_allclose(rl.from_db(got.received_power_dbm), rl.from_db(p_dbm),
                                   rtol=1e-12)
        np.testing.assert_allclose(rl.from_db(-got.path_loss_db), rl.from_db(-pl_db), rtol=1e-12)


def test_array_rx_points_match_the_poses_bit_for_bit():
    # the angle sweeps' and cuts' points: one `_off_normal` over the grid, then cartesian_points
    angles = np.concatenate([sweep_grid(-89.5, 89.5, 0.5), [-1e-9, 1e-9, 37.123456789]])
    for azimuth in (0.0, 35.0, -120.0, 400.0):
        a, phi = rl.experiments._off_normal(angles, azimuth)
        got = cartesian_points(3.7, math.pi - a, phi)
        assert np.array_equal(got, reference_transmission_side_points(3.7, angles, azimuth))
        for a in (-33.3, 0.0, 71.0):
            assert (rl.transmission_side_pose(3.7, a, azimuth)
                    == reference_transmission_side_pose(3.7, a, azimuth))


def test_continuous_pose_sweep_sums_are_the_coherent_weight_sums(monkeypatch):
    s = _pose_sweep_scenario(32, 32, seed=3)
    sums = []
    from_sums = rl.SweepResult.from_sums.__func__

    def spy(cls, scenario, variable, values, got, digests):
        sums.append(np.asarray(got))
        return from_sums(cls, scenario, variable, values, got, digests)

    monkeypatch.setattr(rl.SweepResult, "from_sums", classmethod(spy))
    # 32x32 chunks hold 16 points, so the 20-point angle sweep spans two
    ang = SweepJob("a", "angle", "continuous", -45.0, 50.0, 5.0)
    rl.run_sweep(s, ang)
    dist = SweepJob("d", "distance", "continuous", 1.0, 3.5, 0.5)
    rl.run_sweep(s, dist)
    want = ([reference_continuous_sum(s, p) for p in _angle_poses(s, ang.grid(), 35.0)],
            [reference_continuous_sum(s, p) for p in _distance_poses(s, dist.grid())])
    assert len(sums) == 2
    for got, w in zip(sums, want):
        np.testing.assert_allclose(got, w, rtol=1e-12)


def test_quantized_pose_sweep_sums_are_the_complex_expression_bit_for_bit(monkeypatch):
    s = _pose_sweep_scenario(64, 64, seed=7)
    sums = []
    from_sums = rl.SweepResult.from_sums.__func__

    def spy(cls, scenario, variable, values, got, digests):
        sums.append(np.asarray(got))
        return from_sums(cls, scenario, variable, values, got, digests)

    monkeypatch.setattr(rl.SweepResult, "from_sums", classmethod(spy))
    # 64x64 chunks hold 4 points, so the last of these 6 reuses part of the buffer
    dist = SweepJob("d", "distance", "quantized", 1.0, 3.5, 0.5)
    rl.run_sweep(s, dist)
    pose = s.rx_pose
    want = []
    for _, amp, phi in _weight_chunks(s, cartesian_points(dist.grid(), pose.theta, pose.phi)):
        programmed = s.programmed_phases(_closed_form(s, "quantized", phi))
        want.extend(np.sum(amp * np.exp(1j * (programmed - phi)), axis=-1))
    assert len(sums) == 1 and len(want) == 6
    assert np.array_equal(sums[0].view(np.int64), np.array(want).view(np.int64))


@pytest.mark.parametrize("n_rows, n_cols", [(5, 7), (64, 64)])
def test_table_steering_is_beamform_at_the_steering_pose(n_rows, n_cols):
    s = _pose_sweep_scenario(n_rows, n_cols, seed=2)
    # 12 steerings: three 64x64 chunks of 4; negative angles turn the 35 deg plane
    steerings = [(m, a) for m in ("none", "continuous", "quantized") for a in (-52.5, -7.0, 0.0, 33.0)]
    jobs = [SweepJob(f"c{i}", "pattern", m, steering_deg=a) for i, (m, a) in enumerate(steerings)]
    for job, ((config, phases), digest) in zip(jobs, _steer(s, jobs, 0)):
        pose = rl.transmission_side_pose(s.rx_pose.r, job.steering_deg, 35.0)
        bf = rl.apply_beamforming(replace(s, rx_pose=pose), job.method)
        assert digest == bf.digest, job
        if job.method == "continuous":
            assert config is None and np.array_equal(phases.view(np.int64),
                                                     bf.phases.view(np.int64))
        else:
            assert phases is None and config.dtype == bf.configuration.dtype
            assert np.array_equal(config, bf.configuration.reshape(-1))


_TWO_PI = 2.0 * math.pi


def _near_turn(k: int, ulps: int) -> float:
    """k fl(2 pi), moved by `ulps` units in the last place."""
    x = k * _TWO_PI
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


# phases the reduction takes exactly: 2^-30 up to 2^20 turns, next to whole turns, and zeros
_IN_RANGE = st.one_of(
    st.builds(lambda m, e: m * 2.0 ** e, st.floats(1.0, 2.0, exclude_max=True),
              st.integers(-30, 22)).filter(lambda x: x < 2 ** 20 * _TWO_PI),
    st.builds(_near_turn, st.integers(1, 2 ** 20 - 1), st.integers(-2, 2)),
    st.sampled_from([0.0, -0.0, math.pi, _TWO_PI]))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@given(st.lists(_IN_RANGE, min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_mod_2pi_is_np_mod_bit_for_bit(values):
    x = np.array(values)
    assert np.array_equal(_bits(_mod_2pi(x)), _bits(np.mod(x, _TWO_PI)))


@given(st.lists(_IN_RANGE, max_size=8), st.integers(0, 8), st.one_of(
    st.sampled_from([-1e-300, -3.0, -_TWO_PI, 2.0 ** 20 * _TWO_PI, math.inf, -math.inf, math.nan]),
    st.floats(-2.0 ** 60, -1e-300), st.floats(2.0 ** 20 * _TWO_PI, 2.0 ** 60)))
@settings(max_examples=200, deadline=None)
def test_mod_2pi_takes_np_mod_outside_its_range(values, at, other):
    x = np.array(values[:at] + [other] + values[at:])
    with np.errstate(invalid="ignore"):
        assert np.array_equal(_bits(_mod_2pi(x)), _bits(np.mod(x, _TWO_PI)))


def test_mod_2pi_is_np_mod_on_a_path_table_chunk_and_near_every_turn_count():
    rng = np.random.default_rng(11)
    chunk = 2.0 ** rng.uniform(-30, 22.6, (4, 4096))
    turns = rng.integers(1, 2 ** 20, 2 ** 16) * _TWO_PI
    near = [turns] + [np.nextafter(turns, side) for side in (-np.inf, np.inf)]
    near += [np.nextafter(x, side) for x, side in zip(near[1:], (-np.inf, np.inf))]
    for x in [chunk] + near:
        assert np.array_equal(_bits(_mod_2pi(x)), _bits(np.mod(x, _TWO_PI)))


def test_cut_narrower_than_its_main_lobe_has_no_beamwidth():
    pat = rl.run_sweep(rl.chamber_scenario(), SweepJob("p", "pattern", "quantized", -5.0, 5.0, 1.0))
    assert len(pat.values) == 11 and np.all(np.isfinite(pat.path_loss_db))
    assert math.isnan(pat.hpbw_deg) and math.isnan(pat.metrics["hpbw_deg"])
    assert math.isnan(rl.half_power_beamwidth(pat.values,
                                               pat.received_power_dbm - pat.peak_power_dbm))


def _sweep_error(sweep):
    with pytest.raises(ValueError) as info:
        sweep()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("method", rl.experiments.BEAMFORMING_METHODS)
def test_pose_sweeps_keep_the_per_point_errors(method):
    s = _pose_sweep_scenario(4, 8, seed=1)
    job = SweepJob("a", "angle", method, -20.0, 20.0, 20.0)
    poses = _angle_poses(s, job.grid(), 0.0)

    def both(scenario):
        return (_sweep_error(lambda: rl.run_sweep(scenario, job)),
                _sweep_error(lambda: reference_pose_sweep(scenario, "rx_zenith", job.grid(),
                                                          poses, method)))

    # TX on the transmission side: every swept point shares its half-space
    got, want = both(replace(s, tx_pose=rl.transmission_side_pose(0.8, 0.0),
                             rx_pose=rl.incidence_side_pose(3.5, 0.0)))
    assert got == want and "opposite sides" in got[1]
    # the calibrated top current over the supply budget
    over = rl.AmplifierModel()
    object.__setattr__(over, "max_current", over.top_current / 2)
    got, want = both(replace(s, amplifier=over))
    assert got == want and got[0] is rl.SupplyBudgetError

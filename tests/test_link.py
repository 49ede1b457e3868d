"""Full-link evaluation: received signal/power, path loss, and the aligned-phase bounds."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rislink as rl
from helpers import make_random_scenario, random_states
from rislink.geometry import spherical_to_cartesian


def chamber_1x1():
    return rl.chamber_scenario(n_rows=1, n_cols=1, horn_gain_dbi=0.0)


def test_scenario_validation():
    good = rl.chamber_scenario()
    with pytest.raises(ValueError):
        replace(good, rx_pose=good.tx_pose)  # both on the incidence side
    with pytest.raises(ValueError):
        replace(good, frequency=0.0)
    with pytest.raises(ValueError):
        replace(good, tx_power=-1.0)
    with pytest.raises(ValueError):
        replace(good, noise_variance=-1e-9)


def test_scenario_wavelength():
    assert rl.chamber_scenario().wavelength == 0.11530479153846154


def test_propagation_phase_example():
    s = chamber_1x1()
    assert rl.propagation_phase(s, 1, 1) == pytest.approx(250.6630646254211, rel=1e-13)


def test_propagation_phases_match_scalar():
    s = rl.chamber_scenario()
    phis = rl.propagation_phases(s)
    for row in range(1, 5):
        for col in range(1, 9):
            n = (row - 1) * 8 + (col - 1)
            assert phis[n] == pytest.approx(rl.propagation_phase(s, row, col), rel=1e-15)


def test_received_power_routes_agree():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = make_random_scenario(rng)
        states = random_states(rng, s)
        a = rl.received_power(s, states)
        b = rl.received_power_expanded(s, states)
        assert b == pytest.approx(a, rel=1e-12)


def test_received_signal_consistent_with_power():
    rng = np.random.default_rng(5)
    s = make_random_scenario(rng)
    states = random_states(rng, s)
    y = rl.received_signal(s, states)
    assert abs(y) ** 2 == pytest.approx(rl.received_power(s, states), rel=1e-12)


def test_received_signal_symbol_and_noise():
    s = chamber_1x1()
    y0 = rl.received_signal(s)
    assert rl.received_signal(s, symbol=2.0) == pytest.approx(2.0 * y0, rel=1e-14)
    assert rl.received_signal(s, noise=1 + 2j) == pytest.approx(y0 + (1 + 2j), rel=1e-14)
    # seeded noise is reproducible
    noisy = replace(s, noise_variance=1e-6)
    y1 = rl.received_signal(noisy, rng=np.random.default_rng(3))
    y2 = rl.received_signal(noisy, rng=np.random.default_rng(3))
    assert y1 == y2
    assert y1 != y0


def test_received_power_scales_with_tx_power():
    rng = np.random.default_rng(17)
    s = make_random_scenario(rng)
    p1 = rl.received_power(s)
    p4 = rl.received_power(replace(s, tx_power=4.0 * s.tx_power))
    assert p4 == pytest.approx(4.0 * p1, rel=1e-14)


def test_received_power_scales_with_amplifier_gain():
    rng = np.random.default_rng(23)
    s = make_random_scenario(rng)
    boosted = tuple((c, g + 7.0) for c, g in s.amplifier.calibration)
    s2 = replace(s, amplifier=rl.AmplifierModel(boosted, s.amplifier.max_current))
    assert rl.received_power(s2) == pytest.approx(
        10 ** 0.7 * rl.received_power(s), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 2 * math.pi))
def test_common_phase_constant_is_immaterial(seed, const):
    rng = np.random.default_rng(seed)
    s = make_random_scenario(rng, max_rows=3, max_cols=3)
    ph = rng.uniform(0.0, 2 * math.pi, s.layout.n_units)
    p1 = rl.received_power(s, phases=ph)
    p2 = rl.received_power(s, phases=(ph + const) % (2 * math.pi))
    assert p2 == pytest.approx(p1, rel=1e-10)


def test_continuous_optimum_reaches_the_bound():
    rng = np.random.default_rng(31)
    for _ in range(10):
        s = make_random_scenario(rng)
        states = random_states(rng, s)
        pmax = rl.max_received_power(s, states)
        for c in (0.0, 1.234, 5.5):
            p = rl.received_power(s, states, phases=rl.continuous_optimal_phases(s, c))
            assert p == pytest.approx(pmax, rel=1e-10)


def test_no_phasing_beats_the_bound():
    rng = np.random.default_rng(37)
    for _ in range(20):
        s = make_random_scenario(rng)
        states = random_states(rng, s)
        pmax = rl.max_received_power(s, states)
        assert rl.received_power(s, states) <= pmax * (1 + 1e-12)
        ph = rng.uniform(0, 2 * math.pi, s.layout.n_units)
        assert rl.received_power(s, states, phases=ph) <= pmax * (1 + 1e-12)


def test_power_times_path_loss_is_tx_power():
    rng = np.random.default_rng(41)
    for _ in range(10):
        s = make_random_scenario(rng)
        states = random_states(rng, s)
        assert rl.received_power(s, states) * rl.path_loss(s, states) == pytest.approx(
            s.tx_power, rel=1e-12)
        assert rl.path_loss_db(s, states) == pytest.approx(
            rl.to_db(rl.path_loss(s, states)), rel=1e-15)


def test_max_power_times_min_path_loss_is_tx_power():
    rng = np.random.default_rng(43)
    for _ in range(10):
        s = make_random_scenario(rng)
        states = random_states(rng, s)
        assert rl.max_received_power(s, states) * rl.min_path_loss(s, states) == \
            pytest.approx(s.tx_power, rel=1e-12)


def test_reciprocity_under_swap():
    rng = np.random.default_rng(47)
    for _ in range(10):
        s = make_random_scenario(rng)
        swapped = replace(s, tx_pose=s.rx_pose, rx_pose=s.tx_pose,
                          tx_antenna=s.rx_antenna, rx_antenna=s.tx_antenna)
        assert rl.received_power(swapped) == pytest.approx(rl.received_power(s), rel=1e-12)


def test_null_configuration_raises():
    s = rl.chamber_scenario()
    dark = rl.uniform_states(s, attenuation=0.0)
    assert rl.received_power(s, dark) == 0.0
    with pytest.raises(rl.InfinitePathLossError):
        rl.path_loss(s, dark)
    with pytest.raises(rl.InfinitePathLossError):
        rl.min_path_loss(s, dark)


def test_state_validation():
    s = rl.chamber_scenario()
    with pytest.raises(ValueError):
        rl.received_power(s, rl.uniform_states(s)[:-1])
    with pytest.raises(ValueError):
        rl.received_power(s, [rl.UnitState(4, 0.01)] * 32)  # index outside the codebook
    with pytest.raises(ValueError):
        rl.received_power(s, phases=np.zeros(31))
    with pytest.raises(rl.SupplyBudgetError):
        rl.received_power(s, rl.uniform_states(s, current=0.2))


def test_phases_override_bypasses_jitter():
    noisy = rl.chamber_scenario(jitter_max_deg=8.0, jitter_seed=1)
    quiet = rl.chamber_scenario()
    ph = rl.continuous_optimal_phases(quiet)
    assert rl.received_power(noisy, phases=ph) == rl.received_power(quiet, phases=ph)
    # codebook-programmed states do see the jitter
    assert rl.received_power(noisy) != rl.received_power(quiet)


def test_jitter_realization_is_static():
    s = rl.chamber_scenario(jitter_max_deg=8.0, jitter_seed=9)
    assert rl.received_power(s) == rl.received_power(s)
    err = rl.link.phase_error_realization(s)
    assert np.array_equal(err, rl.link.phase_error_realization(s))
    assert np.all(np.abs(err) <= math.radians(8.0))


def test_element_weights_match_manual_terms():
    s = rl.chamber_scenario()
    states = rl.uniform_states(s)
    w = rl.element_weights(s, states)
    assert w.shape == (32,)
    # spot check one element against the scalar building blocks
    from rislink.geometry import element_position, spherical_to_cartesian, distance, departure_zenith
    from rislink.channel import effective_area
    from rislink.ris import unit_rcs
    row, col = 2, 5
    n = (row - 1) * 8 + (col - 1)
    el = element_position(s.layout, row, col)
    p_t = spherical_to_cartesian(s.tx_pose)
    p_r = spherical_to_cartesian(s.rx_pose)
    r_t, r_r = distance(p_t, el), distance(p_r, el)
    zen_t, zen_r = departure_zenith(p_t, el), departure_zenith(p_r, el)
    sigma = unit_rcs(states[n], s.amplifier, zen_t, zen_r, s.layout.element_area)
    amp = math.sqrt(s.tx_antenna.gain(zen_t) * s.rx_antenna.gain(zen_r)) / (r_t * r_r) * sigma
    assert abs(w[n]) == pytest.approx(amp, rel=1e-12)
    # direction of the weight is the conjugated two-hop propagation phase
    direction = np.exp(-1j * rl.propagation_phase(s, row, col))
    assert abs(w[n] / abs(w[n]) - direction) < 1e-9


def test_evaluate_link_consistent():
    rng = np.random.default_rng(53)
    s = make_random_scenario(rng)
    states = random_states(rng, s)
    res = rl.evaluate_link(s, states)
    assert res.received_power == pytest.approx(rl.received_power(s, states), rel=1e-15)
    assert res.path_loss == pytest.approx(rl.path_loss(s, states), rel=1e-15)
    assert res.terms.shape == (s.layout.n_units,)


def test_uniform_states_defaults():
    s = rl.chamber_scenario()
    states = rl.uniform_states(s)
    assert len(states) == 32
    assert all(st_.current == s.amplifier.top_current for st_ in states)
    assert all(st_.phase_index == 0 for st_ in states)


def test_states_from_configuration_round_trip():
    s = rl.chamber_scenario()
    config = np.arange(32).reshape(4, 8) % 4
    states = rl.states_from_configuration(s, config)
    assert [st_.phase_index for st_ in states] == list(config.reshape(-1))
    with pytest.raises(ValueError):
        rl.states_from_configuration(s, config[:, :-1])


def test_db_helpers():
    assert rl.to_db(100.0) == 20.0
    assert rl.from_db(20.0) == 100.0
    assert rl.watts_to_dbm(1.0) == 30.0
    assert rl.watts_to_dbm(0.001) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        rl.watts_to_dbm(0.0)


def test_received_signal_noise_needs_an_rng():
    noisy = replace(chamber_1x1(), noise_variance=1e-6)
    with pytest.raises(ValueError, match="rng"):
        rl.received_signal(noisy)
    # an explicit sample or a zero variance needs no generator
    y0 = rl.received_signal(chamber_1x1())
    assert rl.received_signal(noisy, noise=0.5j) == pytest.approx(y0 + 0.5j, rel=1e-14)


def test_from_db_arrays_and_scalars():
    out = rl.from_db(np.array([0.0, 10.0, 20.0]))
    assert isinstance(out, np.ndarray)
    assert np.array_equal(out, [1.0, 10.0, 100.0])
    assert np.array_equal(rl.from_db([[-10.0], [30.0]]), [[0.1], [1000.0]])
    assert type(rl.from_db(20.0)) is float
    assert type(rl.from_db(np.float64(3.0))) is float


# ---------------------------------------------------------------- batched kernel

def _cut_points(scenario, angles, azimuth=0.0):
    return np.array([spherical_to_cartesian(rl.transmission_side_pose(scenario.rx_pose.r, a, azimuth))
                     for a in angles])


def _assert_sums_match_per_point(s, angles, states=None, phases=None, azimuth=0.0):
    """Batched sums give per-point received_power and path_loss_db within 1e-12 relative."""
    sums = rl.link._channel_sums(s, _cut_points(s, angles, azimuth), states, phases)
    assert sums.shape == (len(angles),)
    for a, total in zip(angles, sums):
        scn = replace(s, rx_pose=rl.transmission_side_pose(s.rx_pose.r, a, azimuth))
        ssq = abs(total) ** 2
        assert s.tx_power / (16 * math.pi ** 2) * ssq == pytest.approx(
            rl.received_power(scn, states, phases), rel=1e-12)
        assert rl.to_db(16 * math.pi ** 2 / ssq) == pytest.approx(
            rl.path_loss_db(scn, states, phases), rel=1e-12)


@pytest.mark.parametrize("n_rows, n_cols", [(4, 8), (16, 16)])
def test_kernel_matches_per_point_route(n_rows, n_cols):
    s = rl.chamber_scenario(n_rows=n_rows, n_cols=n_cols)
    bf = rl.apply_beamforming(replace(s, rx_pose=rl.transmission_side_pose(4.0, 25.0)))
    _assert_sums_match_per_point(s, np.arange(-80.0, 81.0, 7.5), bf.states)


def test_kernel_chunks_a_large_cut():
    s = rl.chamber_scenario(n_rows=64, n_cols=64, pitch=0.03)
    per_chunk = max(1, rl.link._CHUNK_ELEMENTS // s.layout.n_units)
    n_points = 2 * per_chunk + per_chunk // 2 + 1  # three chunks, the last one partial
    assert n_points > 2 * per_chunk and n_points % per_chunk != 0
    angles = np.linspace(-50.0, 50.0, n_points)
    _assert_sums_match_per_point(s, angles, rl.uniform_states(s, phase_index=1),
                                 azimuth=35.0)


def test_kernel_with_mixed_states_phases_and_jitter():
    rng = np.random.default_rng(61)
    for _ in range(5):
        s = make_random_scenario(rng)
        angles = rng.uniform(-80.0, 80.0, 9)
        az = float(rng.uniform(0.0, 360.0))
        _assert_sums_match_per_point(s, angles, random_states(rng, s), azimuth=az)
        ph = rng.uniform(0.0, 2 * math.pi, s.layout.n_units)
        _assert_sums_match_per_point(s, angles, random_states(rng, s), ph, azimuth=az)
    jittered = rl.chamber_scenario(jitter_max_deg=8.0, jitter_seed=4)
    _assert_sums_match_per_point(jittered, np.arange(-60.0, 61.0, 15.0),
                                 random_states(rng, jittered))


def _raised(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_kernel_keeps_the_per_point_errors():
    s = rl.chamber_scenario()
    cut = _cut_points(s, [-10.0, 0.0, 10.0])
    above = cut.copy()
    above[1, 2] = 0.5  # the middle point on the feed's side of the plane
    assert _raised(rl.link._channel_sums, s, above) == _raised(
        lambda: replace(s, rx_pose=rl.SphericalPose(0.5, 0.0, 0.0)))
    for states in ([rl.UnitState(4, 0.01)] * 32,           # outside the codebook
                   rl.uniform_states(s, current=0.2),      # over the supply budget
                   rl.uniform_states(s)[:-1]):             # one state short
        assert _raised(rl.link._channel_sums, s, cut, states) == _raised(
            rl.received_power, s, states)
    assert _raised(rl.link._channel_sums, s, cut, None, np.zeros(31)) == _raised(
        rl.received_power, s, None, np.zeros(31))
    assert _raised(rl.link._channel_sums, s, cut, rl.uniform_states(s, current=0.2))[0] \
        is rl.SupplyBudgetError


def test_pattern_cut_keeps_the_per_point_errors():
    s = rl.chamber_scenario()
    # TX on the transmission side: every cut point shares its half-space
    flipped = replace(s, tx_pose=s.rx_pose, rx_pose=s.tx_pose)
    with pytest.raises(ValueError, match="opposite sides"):
        rl.radiation_pattern(flipped, 0.0, -10.0, 10.0, 5.0, method="none")
    with pytest.raises(ValueError, match="off-normal angle"):
        rl.radiation_pattern(s, 0.0, -10.0, 95.0, 35.0)


def test_exact_null_inside_a_cut_fails_like_the_per_point_route():
    # a single cell and an extremely narrow RX horn: the field is exactly zero
    # once the probe leaves boresight by more than ~15 deg
    s = replace(rl.chamber_scenario(n_rows=1, n_cols=1),
                rx_antenna=rl.AntennaModel(1.0, 20000.0))
    angles = [0.0, 10.0, 20.0, 30.0]
    sums = rl.link._channel_sums(s, _cut_points(s, angles))
    assert sums[0] != 0 and sums[1] != 0 and sums[2] == 0 and sums[3] == 0
    null = replace(s, rx_pose=rl.transmission_side_pose(4.0, 20.0))
    assert rl.received_power(null) == 0.0
    with pytest.raises(rl.InfinitePathLossError):
        rl.path_loss_db(null)
    with pytest.raises(ValueError, match="power must be positive") as per_point:
        rl.watts_to_dbm(rl.received_power(null))
    with pytest.raises(ValueError, match="power must be positive") as batched:
        rl.radiation_pattern(s, 0.0, 0.0, 30.0, 10.0)
    assert type(batched.value) is type(per_point.value)
    with pytest.raises(ValueError, match="power must be positive"):
        rl.angle_sweep(s, rl.SweepSpec("rx_zenith", 0.0, 30.0, 10.0))

"""Full-link evaluation: received signal/power, path loss, and the aligned-phase bounds."""

import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rislink as rl
from helpers import (
    departure_zenith,
    distance,
    element_position,
    make_random_scenario,
    min_path_loss,
    propagation_phase,
    random_surface,
    received_power_expanded,
    received_signal,
    reference_channel_sums,
    reference_path_table,
    UnitState,
    unit_rcs,
    unit_transmission_coefficient,
    zenith_gain,
)
from rislink.beamforming import _powers
from rislink.geometry import cartesian_points, spherical_to_cartesian
from rislink.link import _channel_sums, _phasors, _weight_chunks


def chamber_1x1():
    return rl.chamber_scenario(n_rows=1, n_cols=1, tx_gain_dbi=0.0, rx_gain_dbi=0.0)


def test_scenario_validation():
    good = rl.chamber_scenario()
    with pytest.raises(ValueError):
        replace(good, rx_pose=good.tx_pose)  # both on the incidence side
    with pytest.raises(ValueError):
        replace(good, frequency=0.0)
    with pytest.raises(ValueError):
        replace(good, tx_power=-1.0)
    with pytest.raises(ValueError, match=r"^tx_power must be positive and finite, got 0.0$"):
        replace(good, tx_power=0.0)  # no power reaches the RX: every row reads -inf dBm
    with pytest.raises(ValueError):
        replace(good, noise_variance=-1e-9)


def test_scenario_wavelength():
    assert rl.chamber_scenario().wavelength == 0.11530479153846154


def test_propagation_phase_example():
    s = chamber_1x1()
    assert propagation_phase(s, 1, 1) == pytest.approx(250.6630646254211, rel=1e-13)


def test_propagation_phases_match_scalar():
    """The closed forms' two-hop phases are the kernel's at the scenario's own RX pose."""
    s = rl.chamber_scenario(rx_zenith_deg=20.0)
    _, _, phi = next(rl.link._weight_chunks(s, rl.link._own_rx_point(s)))
    phis = phi[0]
    assert np.array_equal(rl.apply_beamforming(s, "continuous").phases,
                          np.mod(phis, 2 * math.pi))
    for row in range(1, 5):
        for col in range(1, 9):
            n = (row - 1) * 8 + (col - 1)
            assert phis[n] == pytest.approx(propagation_phase(s, row, col), rel=1e-15)


def test_received_power_routes_agree():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = make_random_scenario(rng)
        config = random_surface(rng, s)
        a = rl.received_power(s, config)
        b = received_power_expanded(s, config)
        assert b == pytest.approx(a, rel=1e-12)


def test_received_signal_consistent_with_power():
    rng = np.random.default_rng(5)
    s = make_random_scenario(rng)
    config = random_surface(rng, s)
    y = received_signal(s, config)
    assert abs(y) ** 2 == pytest.approx(rl.received_power(s, config), rel=1e-12)


def test_received_signal_symbol_and_noise():
    s = chamber_1x1()
    y0 = received_signal(s)
    assert received_signal(s, symbol=2.0) == pytest.approx(2.0 * y0, rel=1e-14)
    assert received_signal(s, noise=1 + 2j) == pytest.approx(y0 + (1 + 2j), rel=1e-14)
    # seeded noise is reproducible
    noisy = replace(s, noise_variance=1e-6)
    y1 = received_signal(noisy, rng=np.random.default_rng(3))
    y2 = received_signal(noisy, rng=np.random.default_rng(3))
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


def test_unit_gain_splits_an_array_current_evenly_over_the_units():
    s = rl.chamber_scenario()  # 4x8 under the default calibration
    assert s.unit_gain_db([0.01, 1.4]).tolist() == [-11.9, 0.0]
    assert s.unit_gain_db(1.4) == 0.0
    budget = s.amplifier.max_current * 32
    assert s.unit_gain_db(budget) == 0.0  # the budget itself is admissible
    with pytest.raises(rl.SupplyBudgetError):
        s.unit_gain_db([0.01, math.nextafter(budget, math.inf)])
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError, match="control current must be >= 0") as e:
            s.unit_gain_db([0.01, bad])
        assert e.type is ValueError
    small, currents = rl.chamber_scenario(n_rows=3, n_cols=4), [0.0, 0.01, 0.5, 1.4]
    amp = small.amplifier
    want = [amp.gain_db(c / 12) - amp.gain_db(amp.top_current) for c in currents]
    assert small.unit_gain_db(currents).tolist() == want


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
        config = random_surface(rng, s)
        pmax = rl.max_received_power(s)
        for c in (0.0, 1.234, 5.5):
            phases = rl.apply_beamforming(s, "continuous").phases + c
            p = rl.received_power(s, config, phases=phases)
            assert p == pytest.approx(pmax, rel=1e-10)


def test_no_phasing_beats_the_bound():
    rng = np.random.default_rng(37)
    for _ in range(20):
        s = make_random_scenario(rng)
        config = random_surface(rng, s)
        pmax = rl.max_received_power(s)
        assert rl.received_power(s, config) <= pmax * (1 + 1e-12)
        ph = rng.uniform(0, 2 * math.pi, s.layout.n_units)
        assert rl.received_power(s, config, phases=ph) <= pmax * (1 + 1e-12)


def test_power_times_path_loss_is_tx_power():
    rng = np.random.default_rng(41)
    for _ in range(10):
        s = make_random_scenario(rng)
        config = random_surface(rng, s)
        pl_db = rl.path_loss_db(s, config)
        assert rl.received_power(s, config) * rl.from_db(pl_db) == \
            pytest.approx(s.tx_power, rel=1e-12)
        ssq = abs(rl.link._channel_sums(s, rl.link._own_rx_point(s), [(config, None)])[0, 0]) ** 2
        assert pl_db == pytest.approx(10 * math.log10(16 * math.pi ** 2 / ssq), rel=1e-15)


def test_max_power_times_min_path_loss_is_tx_power():
    rng = np.random.default_rng(43)
    for _ in range(10):
        s = make_random_scenario(rng)
        assert rl.max_received_power(s) * min_path_loss(s) == \
            pytest.approx(s.tx_power, rel=1e-12)


def test_reciprocity_under_swap():
    rng = np.random.default_rng(47)
    for _ in range(10):
        s = make_random_scenario(rng)
        swapped = replace(s, tx_pose=s.rx_pose, rx_pose=s.tx_pose,
                          tx_antenna=s.rx_antenna, rx_antenna=s.tx_antenna)
        assert rl.received_power(swapped) == pytest.approx(rl.received_power(s), rel=1e-12)


def test_a_null_configuration_reads_infinite_path_loss():
    # the amplifier's gain underflows to 0 at its top current, so every unit is dark
    s = rl.chamber_scenario(calibration=((0.0, -4000.0),))
    assert rl.received_power(s) == 0.0
    assert rl.watts_to_dbm(rl.received_power(s)) == -math.inf
    assert rl.path_loss_db(s) == math.inf
    assert min_path_loss(s) == math.inf


def test_an_underflowing_received_power_reads_tx_power_less_path_loss():
    # P_t / (16 pi^2) |S|^2 in mW underflows to 0 (1e-150) or a subnormal (1e-145) while
    # |S|^2 > 0: the row reads P_t - PL in dBm, not an exact null's -inf
    s = replace(rl.chamber_scenario(), tx_power=1e-30)
    sums = [1e-150, 1e-145, 1e-130, 0.0]
    dbm, db = rl.link._link_budget_db(s, sums)
    assert np.all(np.isfinite(dbm[:3])) and np.all(np.isfinite(db[:3]))
    np.testing.assert_allclose(dbm[:3] + db[:3], rl.watts_to_dbm(s.tx_power), rtol=1e-15)
    assert dbm[2] == 10.0 * math.log10(1e-30 / (16 * math.pi ** 2) * 1e-260 * 1e3)
    assert (dbm[3], db[3]) == (-math.inf, math.inf)  # an exact null stays one


def test_the_power_check_bounds_every_channel_sum_a_search_can_square():
    # one unit whose sum |w| is one ulp below sqrt(DBL_MAX): its aligned |S|^2 is finite,
    # but a channel sum that rounds up by a few ulps is not, so the link is refused
    edge = dict(tx_power_w=1e-30, tx_distance_m=9.282014019548336e-77, rx_distance_m=1e-76,
                n_rows=1, n_cols=1, pitch_x_m=1.0, pitch_y_m=1.0)
    s = rl.chamber_scenario(**edge)
    for route in (rl.FeedbackChannel, rl.received_power, rl.path_loss_db, rl.max_received_power):
        with pytest.raises(ValueError, match="^received power overflows a float$"):
            route(s)
    # sum |w| a factor 1 - 2^-10 below sqrt(DBL_MAX) is admitted, and every reading is finite
    s = rl.chamber_scenario(**{**edge, "tx_distance_m": edge["tx_distance_m"] / (1 - 2 ** -10)})
    _, amp, _ = next(_weight_chunks(s, spherical_to_cartesian(s.rx_pose)[None]))
    assert float(amp.sum()) == pytest.approx(math.sqrt(sys.float_info.max) * (1 - 2 ** -10),
                                             rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow on the way
        for jitter in (0.0, 30.0):
            link = replace(s, jitter=rl.PhaseJitterModel(math.radians(jitter), 3))
            fb = rl.FeedbackChannel(link)
            assert np.isfinite(_powers(fb.prefactor, fb.table[0])).all()
            for search in (rl.blind_rowcol_search, rl.greedy_element_search):
                assert np.isfinite(search(fb)[1].powers).all()
            programs = [(None, None), ([1], None), ([2], None), ([3], None), (None, [0.0])]
            sums = _channel_sums(link, spherical_to_cartesian(link.rx_pose)[None], programs)
            assert all(np.isfinite(v).all() for v in rl.link._link_budget_db(link, sums[:, 0]))


def test_a_dark_surface_cuts_an_all_null_pattern_quietly():
    # every row is an exact null: the peak falls on the first angle, and a width and a
    # sidelobe ratio read NaN, with no numpy warning on the way
    s = rl.chamber_scenario(calibration=((0.0, -4000.0),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cut = rl.run_sweep(s, rl.SweepJob("cut", "pattern", "quantized", -20.0, 20.0, 5.0))
    assert cut.received_power_dbm.tolist() == [-math.inf] * 9
    assert cut.path_loss_db.tolist() == [math.inf] * 9
    assert cut.peak_angle_deg == -20.0 and math.isnan(cut.hpbw_deg) and math.isnan(cut.pslr_db)


def test_state_validation():
    s = rl.chamber_scenario()
    with pytest.raises(ValueError):
        rl.received_power(s, np.zeros(31, dtype=int))  # one unit short
    with pytest.raises(ValueError):
        rl.received_power(s, np.full(32, 4))  # index outside the codebook
    with pytest.raises(ValueError):
        rl.received_power(s, phases=np.zeros(31))


def test_phases_override_bypasses_jitter():
    noisy = rl.chamber_scenario(phase_jitter_max_deg=8.0, phase_jitter_seed=1)
    quiet = rl.chamber_scenario()
    ph = rl.apply_beamforming(quiet, "continuous").phases
    assert rl.received_power(noisy, phases=ph) == rl.received_power(quiet, phases=ph)
    # codebook-programmed states do see the jitter
    assert rl.received_power(noisy) != rl.received_power(quiet)


def test_jitter_realization_is_static():
    s = rl.chamber_scenario(phase_jitter_max_deg=8.0, phase_jitter_seed=9)
    assert rl.received_power(s) == rl.received_power(s)
    err = s.phase_errors
    assert err is s.phase_errors  # drawn once per Scenario
    moved = replace(s, rx_pose=rl.transmission_side_pose(2.0, 30.0))
    assert np.array_equal(err, moved.phase_errors)  # the seed pins it
    assert np.all(np.abs(err) <= math.radians(8.0))


def test_element_weights_match_manual_terms():
    s = rl.chamber_scenario()
    w = rl.element_weights(s)
    assert w.shape == (32,)
    # spot check one element against the scalar building blocks
    row, col = 2, 5
    n = (row - 1) * 8 + (col - 1)
    el = element_position(s.layout, row, col)
    p_t = spherical_to_cartesian(s.tx_pose)
    p_r = spherical_to_cartesian(s.rx_pose)
    r_t, r_r = distance(p_t, el), distance(p_r, el)
    zen_t, zen_r = departure_zenith(p_t, el), departure_zenith(p_r, el)
    top = UnitState(0, s.amplifier.top_current)
    sigma = unit_rcs(top, s.amplifier, zen_t, zen_r, s.layout.element_area)
    amp = math.sqrt(zenith_gain(s.tx_antenna, zen_t) * zenith_gain(s.rx_antenna, zen_r)) \
        / (r_t * r_r) * sigma
    assert abs(w[n]) == pytest.approx(amp, rel=1e-12)
    # direction of the weight is the conjugated two-hop propagation phase
    direction = np.exp(-1j * propagation_phase(s, row, col))
    assert abs(w[n] / abs(w[n]) - direction) < 1e-9


def test_the_default_surface_is_index_zero_at_top_current():
    s = rl.chamber_scenario(rx_zenith_deg=20.0)
    zeros = np.zeros((4, 8), dtype=int)
    assert rl.received_power(s) == rl.received_power(s, zeros)
    assert received_power_expanded(s, zeros, current=s.amplifier.top_current) == pytest.approx(
        rl.received_power(s), rel=1e-12)


def test_a_grid_and_its_flat_form_program_the_same_surface():
    s = rl.chamber_scenario(rx_zenith_deg=20.0)
    config = np.arange(32).reshape(4, 8) % 4
    assert rl.received_power(s, config) == rl.received_power(s, config.reshape(-1).tolist())
    with pytest.raises(ValueError, match="configuration has 28 entries for 32 units"):
        rl.received_power(s, config[:, :-1])


def test_db_helpers():
    assert rl.from_db(20.0) == 100.0
    assert rl.watts_to_dbm(1.0) == 30.0
    assert rl.watts_to_dbm(0.001) == pytest.approx(0.0, abs=1e-12)
    assert rl.watts_to_dbm(0.0) == -math.inf  # an exact null, as a sweep row reads it
    with pytest.raises(ValueError, match=r"power must be >= 0 to express in dBm, got -1e-09"):
        rl.watts_to_dbm(-1e-9)
    with pytest.raises(ValueError, match=r"got nan"):
        rl.watts_to_dbm(math.nan)


def test_received_signal_noise_needs_an_rng():
    noisy = replace(chamber_1x1(), noise_variance=1e-6)
    with pytest.raises(ValueError, match="rng"):
        received_signal(noisy)
    # an explicit sample or a zero variance needs no generator
    y0 = received_signal(chamber_1x1())
    assert received_signal(noisy, noise=0.5j) == pytest.approx(y0 + 0.5j, rel=1e-14)


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


def _assert_sums_match_per_point(s, angles, configuration=None, phases=None, azimuth=0.0):
    """Batched sums give per-point received_power and path_loss_db within 1e-12 relative."""
    points = _cut_points(s, angles, azimuth)
    sums = rl.link._channel_sums(s, points, [(configuration, phases)])
    assert sums.shape == (1, len(angles))
    sums = sums[0]
    for a, total in zip(angles, sums):
        scn = replace(s, rx_pose=rl.transmission_side_pose(s.rx_pose.r, a, azimuth))
        ssq = abs(total) ** 2
        assert s.tx_power / (16 * math.pi ** 2) * ssq == pytest.approx(
            rl.received_power(scn, configuration, phases), rel=1e-12)
        assert 10 * math.log10(16 * math.pi ** 2 / ssq) == pytest.approx(
            rl.path_loss_db(scn, configuration, phases), rel=1e-12)


@pytest.mark.parametrize("n_rows, n_cols", [(4, 8), (16, 16)])
def test_kernel_matches_per_point_route(n_rows, n_cols):
    s = rl.chamber_scenario(n_rows=n_rows, n_cols=n_cols)
    bf = rl.apply_beamforming(replace(s, rx_pose=rl.transmission_side_pose(4.0, 25.0)))
    _assert_sums_match_per_point(s, np.arange(-80.0, 81.0, 7.5), bf.configuration)


def test_kernel_chunks_a_large_cut():
    s = rl.chamber_scenario(n_rows=64, n_cols=64, pitch_x_m=0.03, pitch_y_m=0.03)
    per_chunk = max(1, rl.link._CHUNK_ELEMENTS // s.layout.n_units)
    n_points = 2 * per_chunk + per_chunk // 2 + 1  # three chunks, the last one partial
    assert n_points > 2 * per_chunk and n_points % per_chunk != 0
    angles = np.linspace(-50.0, 50.0, n_points)
    _assert_sums_match_per_point(s, angles, np.ones(s.layout.n_units, dtype=int), azimuth=35.0)


def test_kernel_with_mixed_states_phases_and_jitter():
    rng = np.random.default_rng(61)
    for _ in range(5):
        s = make_random_scenario(rng)
        angles = rng.uniform(-80.0, 80.0, 9)
        az = float(rng.uniform(0.0, 360.0))
        _assert_sums_match_per_point(s, angles, random_surface(rng, s), azimuth=az)
        ph = rng.uniform(0.0, 2 * math.pi, s.layout.n_units)
        _assert_sums_match_per_point(s, angles, random_surface(rng, s), ph, azimuth=az)
    jittered = rl.chamber_scenario(phase_jitter_max_deg=8.0, phase_jitter_seed=4)
    _assert_sums_match_per_point(jittered, np.arange(-60.0, 61.0, 15.0),
                                 random_surface(rng, jittered))


def test_kernel_programs_are_their_one_program_rows_bit_for_bit():
    s = rl.chamber_scenario(n_rows=3, n_cols=5, phase_jitter_max_deg=9.0, phase_jitter_seed=2)
    rng = np.random.default_rng(5)
    cut = _cut_points(s, np.arange(-60.0, 61.0, 7.5), 30.0)
    programs = [(random_surface(rng, s), None), (None, rng.uniform(0.0, 2 * math.pi, 15)),
                (None, None)]
    together = rl.link._channel_sums(s, cut, programs)
    assert together.shape == (3, len(cut))
    for row, program in zip(together, programs):
        assert np.array_equal(row, rl.link._channel_sums(s, cut, [program])[0])


def _raised(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_kernel_keeps_the_per_point_errors():
    s = rl.chamber_scenario()
    cut = _cut_points(s, [-10.0, 0.0, 10.0])
    above = cut.copy()
    above[1, 2] = 0.5  # the middle point on the feed's side of the plane
    assert _raised(rl.link._channel_sums, s, above, [(None, None)]) == _raised(
        lambda: replace(s, rx_pose=rl.SphericalPose(0.5, 0.0, 0.0)))
    for config in (np.full(32, 4),             # outside the codebook
                   np.zeros(31, dtype=int)):   # one unit short
        assert _raised(rl.link._channel_sums, s, cut, [(config, None)]) == _raised(
            rl.received_power, s, config)
    assert _raised(rl.link._channel_sums, s, cut, [(None, np.zeros(31))]) == _raised(
        rl.received_power, s, None, np.zeros(31))


def test_a_scenario_checks_its_own_poses_sides():
    """`Scenario` refuses its own poses on one side or in the plane; `_weight_chunks` checks
    the points a sweep or cut moves the RX to, which no `Scenario` is built for."""
    s = rl.chamber_scenario()
    # at 1e-170 m the product of the two heights underflows to -0.0: only its sign tells
    tiny = rl.chamber_scenario(tx_distance_m=1e-170, rx_distance_m=1e-170)
    for base, rx_pose in ((s, s.tx_pose), (s, rl.SphericalPose(4.0, math.pi / 2, 0.0)),
                          (tiny, tiny.tx_pose)):
        with pytest.raises(ValueError, match="^TX and RX must sit strictly on opposite sides"):
            replace(base, rx_pose=rx_pose)


def _refuses_the_sides(build) -> bool:
    try:
        build()
    except ValueError as e:
        return "opposite sides" in str(e)
    return False


_POSES = st.builds(rl.SphericalPose, st.floats(-300.0, 150.0).map(lambda e: 10.0 ** e),
                   st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi, exclude_max=True))


@given(tx=_POSES, rx=_POSES)
@example(tx=rl.SphericalPose(1e-170, 0.0, 0.0), rx=rl.SphericalPose(1e-170, math.pi, 0.0))
@settings(max_examples=200, deadline=None)
def test_a_scenario_and_the_kernel_refuse_the_same_sides(tx, rx):
    """`Scenario` refuses a TX/RX pose pair for its sides exactly when `_channel_sums`
    refuses the RX point, TX on either side, at ranges from 1e-300 m to 1e150 m."""
    layout = rl.ArrayLayout(1, 1)
    # the drawn TX with an RX straight across the plane from it (|z_t| >= r 6e-17 > 0)
    across = rl.SphericalPose(1.0, math.pi if spherical_to_cartesian(tx)[2] > 0 else 0.0, 0.0)
    carrier = rl.Scenario(2.6e9, tx, across, layout)
    point = spherical_to_cartesian(rx)[None]
    assert _refuses_the_sides(lambda: rl.Scenario(2.6e9, tx, rx, layout)) == _refuses_the_sides(
        lambda: _channel_sums(carrier, point, [(None, None)]))


def test_pattern_cut_keeps_the_per_point_errors():
    s = rl.chamber_scenario()
    # TX on the transmission side: every cut point shares its half-space
    flipped = replace(s, tx_pose=s.rx_pose, rx_pose=s.tx_pose)
    with pytest.raises(ValueError, match="opposite sides"):
        rl.run_sweep(flipped, rl.SweepJob("cut", "pattern", "none", -10.0, 10.0, 5.0))
    with pytest.raises(ValueError, match="off-normal angle"):
        rl.run_sweep(s, rl.SweepJob("cut", "pattern", "quantized", -10.0, 95.0, 35.0))


def test_exact_null_inside_a_cut_reads_infinite_like_the_per_point_route():
    # a single cell and an extremely narrow RX horn: the field is exactly zero
    # once the probe leaves boresight by more than ~15 deg
    s = replace(rl.chamber_scenario(n_rows=1, n_cols=1),
                rx_antenna=rl.AntennaModel(1.0, 20000.0))
    angles = [0.0, 10.0, 20.0, 30.0]
    sums = rl.link._channel_sums(s, _cut_points(s, angles), [(None, None)])[0]
    assert sums[0] != 0 and sums[1] != 0 and sums[2] == 0 and sums[3] == 0
    null = replace(s, rx_pose=rl.transmission_side_pose(4.0, 20.0))
    assert rl.received_power(null) == 0.0
    assert rl.path_loss_db(null) == math.inf
    assert rl.watts_to_dbm(rl.received_power(null)) == -math.inf
    # a sweep goes on: its null rows read -inf dBm and inf dB, the others as alone
    for kind in ("pattern", "angle"):
        res = rl.run_sweep(s, rl.SweepJob("cut", kind, "quantized", 0.0, 30.0, 10.0))
        lit = rl.run_sweep(s, rl.SweepJob("cut", kind, "quantized", 0.0, 10.0, 10.0))
        assert res.received_power_dbm.tolist() == [*lit.received_power_dbm, -math.inf, -math.inf]
        assert res.path_loss_db.tolist() == [*lit.path_loss_db, math.inf, math.inf]


# ---------------------------------------------------------------- programmed surface

def _grid(n, phase_index=0):
    """A flat phase-index grid of n units, all at `phase_index`."""
    return np.full(n, phase_index)


_SURFACE_ERRORS = [
    # (what is wrong, configuration, expected exception and message)
    ("one unit short", _grid(31),
     (ValueError, "configuration has 31 entries for 32 units")),
    ("index at the codebook size", _grid(32, 4),
     (ValueError, "phase index outside 4-entry codebook")),
    ("negative index", _grid(32, -1),
     (ValueError, "phase_index must be >= 0")),
    ("fractional index", np.full(32, 1.5),
     (ValueError, "phase_index must hold integers, got dtype float64")),
    # right-sized, but not the documented (n_units,) or (n_rows, n_cols)
    ("transposed grid", np.zeros((8, 4), dtype=int),
     (ValueError, "configuration has shape (8, 4), not (32,) or (4, 8)")),
    ("two rows of sixteen", np.zeros((2, 16), dtype=int),
     (ValueError, "configuration has shape (2, 16), not (32,) or (4, 8)")),
]


@pytest.mark.parametrize("configuration, expected",
                         [case[1:] for case in _SURFACE_ERRORS],
                         ids=[case[0] for case in _SURFACE_ERRORS])
def test_a_surface_error_reads_the_same_on_every_route(configuration, expected):
    s = rl.chamber_scenario()
    cut = _cut_points(s, [-10.0, 0.0, 10.0])
    routes = {
        "received_power": lambda: rl.received_power(s, configuration),
        "path_loss_db": lambda: rl.path_loss_db(s, configuration),
        "kernel": lambda: rl.link._channel_sums(s, cut, [(configuration, None)]),
        "channel power": lambda: rl.FeedbackChannel(s).power(configuration),
        "blind initial": lambda: rl.blind_rowcol_search(rl.FeedbackChannel(s), configuration),
        "greedy initial": lambda: rl.greedy_element_search(rl.FeedbackChannel(s), configuration),
    }
    assert {name: _raised(route) for name, route in routes.items()} == dict.fromkeys(routes,
                                                                                   expected)


def test_a_transposed_grid_cannot_scramble_the_optimum():
    # the quantized optimum toward 25 deg, given flat, as its grid, and transposed
    s = rl.chamber_scenario(rx_zenith_deg=25.0)
    grid = rl.apply_beamforming(s, "quantized").configuration
    assert grid.shape == (4, 8) and rl.received_power(s, grid.reshape(-1)) == rl.received_power(
        s, grid)
    assert rl.watts_to_dbm(rl.received_power(s, grid)) == pytest.approx(21.85, abs=0.01)
    with pytest.raises(ValueError, match=r"^configuration has shape \(8, 4\), not"):
        rl.received_power(s, grid.T)
    # explicit phases follow the same shapes
    phases = rl.apply_beamforming(s, "continuous").phases
    assert rl.received_power(s, None, phases.reshape(4, 8)) == rl.received_power(s, None, phases)
    for bad, message in ((phases.reshape(8, 4), "has shape (8, 4), not (32,) or (4, 8)"),
                         (phases[:31], "has 31 entries for 32 units")):
        for route in (rl.received_power, rl.path_loss_db):
            assert _raised(route, s, None, bad) == (ValueError, f"phase array {message}")


def _per_unit_power(scenario, configuration):
    """Received power summed unit by unit from the scalar geometry and the per-unit
    oracles, every unit at the amplifier's top calibrated current.

    The jitter realization is drawn one unit at a time from the jitter seed,
    which gives the same values as the link's one draw for the whole array.
    """
    p_t = spherical_to_cartesian(scenario.tx_pose)
    p_r = spherical_to_cartesian(scenario.rx_pose)
    jitter = scenario.jitter
    rng = None if jitter is None else np.random.default_rng(jitter.seed)
    n_cols = scenario.layout.n_cols
    total = 0j
    for row in range(1, scenario.layout.n_rows + 1):
        for col in range(1, n_cols + 1):
            unit = UnitState(int(configuration[(row - 1) * n_cols + (col - 1)]),
                             scenario.amplifier.top_current)
            el = element_position(scenario.layout, row, col)
            zen_t, zen_r = departure_zenith(p_t, el), departure_zenith(p_r, el)
            sigma = unit_rcs(unit, scenario.amplifier, zen_t, zen_r, scenario.layout.element_area)
            gamma = unit_transmission_coefficient(unit, scenario.codebook, scenario.amplifier,
                                                  jitter, rng)
            amp = math.sqrt(zenith_gain(scenario.tx_antenna, zen_t)
                            * zenith_gain(scenario.rx_antenna, zen_r)) \
                / (distance(p_t, el) * distance(p_r, el)) * sigma
            total += amp * gamma / abs(gamma) * np.exp(-1j * propagation_phase(scenario, row, col))
    return scenario.tx_power / (16 * math.pi ** 2) * abs(total) ** 2


@pytest.mark.parametrize("n_rows, n_cols", [(4, 8), (7, 5), (16, 16)])
def test_link_routes_match_the_per_unit_oracles(n_rows, n_cols):
    rng = np.random.default_rng(67 + n_rows)
    for jitter_seed in range(3):
        s = make_random_scenario(rng)
        s = replace(s, layout=rl.ArrayLayout(n_rows, n_cols, s.layout.pitch_x, s.layout.pitch_y),
                    jitter=rl.PhaseJitterModel(math.radians(8.0), jitter_seed))
        config = random_surface(rng, s)
        expected = _per_unit_power(s, config)
        assert rl.received_power(s, config) == pytest.approx(expected, rel=1e-12)
        assert received_power_expanded(s, config) == pytest.approx(expected, rel=1e-12)
        assert rl.FeedbackChannel(s).power(config) == pytest.approx(expected, rel=1e-12)


def _assert_path_table_is_the_reference(s, n_points, seed):
    """Amplitudes, phases and channel sums of the kernel equal, bit for bit, the
    generic-geometry expression of `reference_path_table`."""
    rng = np.random.default_rng(seed)
    points = cartesian_points(rng.uniform(0.5, 6.0, n_points),
                              math.pi - rng.uniform(0.0, 1.3, n_points),
                              rng.uniform(0.0, 2.0 * math.pi, n_points))
    chunks = list(_weight_chunks(s, points))
    want_amp, want_phi = reference_path_table(s, points)
    assert np.array_equal(np.concatenate([amp for _, amp, _ in chunks]), want_amp)
    assert np.array_equal(np.concatenate([phi for _, _, phi in chunks]), want_phi)
    configs = [random_surface(rng, s) for _ in range(3)]
    assert np.array_equal(_channel_sums(s, points, [(c, None) for c in configs]),
                          reference_channel_sums(s, points, configs))
    return len(chunks)


@given(n_rows=st.integers(1, 9), n_cols=st.integers(1, 9),
       pitch_x=st.floats(0.01, 0.1), pitch_y=st.floats(0.01, 0.1),
       tx_q=st.sampled_from([0.0, 1.0, 2.0]), rx_q=st.sampled_from([0.0, 1.0, 2.0]),
       n_points=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
@example(n_rows=1, n_cols=9, pitch_x=0.05, pitch_y=0.07, tx_q=1.0, rx_q=2.0, n_points=3, seed=0)
@example(n_rows=9, n_cols=1, pitch_x=0.07, pitch_y=0.05, tx_q=2.0, rx_q=0.0, n_points=3, seed=1)
@settings(max_examples=60, deadline=None)
def test_the_path_table_is_the_generic_expression_bit_for_bit(n_rows, n_cols, pitch_x, pitch_y,
                                                              tx_q, rx_q, n_points, seed):
    s = rl.chamber_scenario(n_rows=n_rows, n_cols=n_cols, pitch_x_m=pitch_x, pitch_y_m=pitch_y,
                            tx_zenith_deg=25.0, tx_azimuth_deg=40.0, tx_exponent=tx_q,
                            rx_exponent=rx_q, phase_jitter_max_deg=10.0, phase_jitter_seed=seed)
    _assert_path_table_is_the_reference(s, n_points, seed)


def test_the_in_place_path_table_is_the_complex_expression_bit_for_bit():
    s = rl.chamber_scenario(n_rows=64, n_cols=64, phase_jitter_max_deg=10.0, tx_exponent=1.0)
    rng = np.random.default_rng(4)
    points = cartesian_points(rng.uniform(0.5, 6.0, 4), math.pi - rng.uniform(0.0, 1.3, 4),
                              rng.uniform(0.0, 2.0 * math.pi, 4))
    _, amp, phi = next(_weight_chunks(s, points))
    programmed = s.programmed_phases(rng.integers(0, 4, phi.shape))
    for got, want in ((_phasors(np.empty(amp.shape, complex), amp, phi),
                       amp * np.exp(-1j * phi)),
                      (_phasors(np.empty(amp.shape, complex), amp, programmed - phi, 1j),
                       amp * np.exp(1j * (programmed - phi)))):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("q", [0.0, 1.0, 2.0])
def test_the_64x64_path_table_is_the_generic_expression_across_chunks(q):
    s = rl.chamber_scenario(n_rows=64, n_cols=64, pitch_x_m=0.05, tx_zenith_deg=15.0,
                            tx_exponent=q, rx_exponent=q, phase_jitter_max_deg=10.0)
    assert _assert_path_table_is_the_reference(s, 6, 5) == 2  # 4 points, then 2


def _horn_dbi(q: float) -> float:
    """Boresight gain of a cos^q horn that radiates all its power: its directivity 2(q+1)."""
    return 10.0 * math.log10(2.0 * (q + 1.0))


@given(n_rows=st.integers(1, 64), n_cols=st.integers(1, 64), f_ghz=st.floats(1.0, 30.0),
       pitch=st.tuples(st.floats(0.2, 1.0), st.floats(0.2, 1.0)),
       ranges=st.tuples(st.floats(0.05, 10.0), st.floats(0.05, 10.0)),
       angles=st.tuples(st.floats(-70.0, 70.0), st.floats(-70.0, 70.0)),
       azimuths=st.tuples(st.floats(0.0, 360.0, exclude_max=True),
                          st.floats(0.0, 360.0, exclude_max=True)),
       q=st.tuples(st.sampled_from([0.0, 1.0, 2.0]), st.sampled_from([0.0, 1.0, 2.0])),
       jitter_deg=st.floats(0.0, 20.0), seed=st.integers(0, 2 ** 31))
# at the edge of the domain: each horn two cell diagonals above a cell corner, q = 2
@example(n_rows=64, n_cols=64, f_ghz=1.0, pitch=(0.8, 0.8), ranges=(0.68, 0.68),
         angles=(0.0, 0.0), azimuths=(0.0, 0.0), q=(2.0, 2.0), jitter_deg=0.0, seed=0)
@settings(max_examples=100, deadline=None)
def test_an_amplifying_surface_delivers_at_most_its_gain_times_the_transmit_power(
        n_rows, n_cols, f_ghz, pitch, ranges, angles, azimuths, q, jitter_deg, seed):
    """Energy conservation: with horns whose gain is their cos^q directivity, the cells
    capture at most P_t and radiate at most G_u(top) times that, so no configuration
    delivers more than P_t G_u(top).  Each cell is scored at its centre, in its own far
    field, so the cells' sum keeps this only while each horn sits at least two cell
    diagonals off the surface plane; nearer, the per-cell sum over-counts (CHANGES.md)."""
    lam = rl.SPEED_OF_LIGHT / (f_ghz * 1e9)
    diagonal = math.hypot(*pitch) * lam
    assume(all(r * math.cos(math.radians(a)) >= 2.0 * diagonal for r, a in zip(ranges, angles)))
    s = rl.chamber_scenario(
        frequency_hz=f_ghz * 1e9, n_rows=n_rows, n_cols=n_cols,
        pitch_x_m=pitch[0] * lam, pitch_y_m=pitch[1] * lam,
        tx_distance_m=ranges[0], tx_zenith_deg=angles[0], tx_azimuth_deg=azimuths[0],
        rx_distance_m=ranges[1], rx_zenith_deg=angles[1], rx_azimuth_deg=azimuths[1],
        tx_gain_dbi=_horn_dbi(q[0]), tx_exponent=q[0],
        rx_gain_dbi=_horn_dbi(q[1]), rx_exponent=q[1],
        phase_jitter_max_deg=jitter_deg, phase_jitter_seed=seed)
    cap = s.tx_power * rl.from_db(s.amplifier.gain_db(s.amplifier.top_current))
    assert rl.max_received_power(s) <= cap
    for method in ("none", "continuous", "quantized"):
        bf = rl.apply_beamforming(s, method)
        assert s.tx_power / rl.link.SIXTEEN_PI_SQ * abs(bf.channel_sum) ** 2 <= cap

"""Configuration searches: blind line search, greedy descent, quantization, brute force."""

import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rislink as rl
from rislink.beamforming import _NOISE_BLOCK, _powers, wrap_to_pi
from helpers import (
    brute_force_optimum,
    make_random_scenario,
    reference_blind_search,
    reference_brute_force_optimum,
    reference_greedy_search,
    reference_nearest_quantize,
    reference_powers,
    stepwise_blind_search,
    stepwise_greedy_search,
    uniform_configuration,
)


def small_scenario(seed, max_rows=2, max_cols=3):
    return make_random_scenario(np.random.default_rng(seed), max_rows=max_rows,
                                max_cols=max_cols, max_units=6)


def test_channel_power_matches_received_power():
    rng = np.random.default_rng(3)
    s = make_random_scenario(rng)
    fb = rl.FeedbackChannel(s)
    config = rng.integers(0, 4, (s.layout.n_rows, s.layout.n_cols))
    assert fb.power(config) == pytest.approx(
        rl.received_power(s, config), rel=1e-12)
    assert np.array_equal(fb.weights, rl.element_weights(s))


def test_channel_power_includes_jitter():
    s = rl.chamber_scenario(phase_jitter_max_deg=8.0, phase_jitter_seed=2)
    quiet = rl.chamber_scenario()
    config = uniform_configuration(s.layout, 1)
    assert rl.FeedbackChannel(s).power(config) != rl.FeedbackChannel(quiet).power(config)
    assert rl.FeedbackChannel(s).power(config) == pytest.approx(
        rl.received_power(s, config), rel=1e-12)


def _assert_draws_taken(fb, seed, n):
    """`fb`, seeded `seed`, has taken n noise draws: its next reading adds draw n of a
    fresh rng of that seed."""
    rng, sd = np.random.default_rng(seed), math.sqrt(fb.noise_variance)
    rng.normal(0.0, sd, n)
    assert fb.read(1.0) == max(0.0, 1.0 + float(rng.normal(0.0, sd)))


def test_channel_power_checks_the_grid_against_its_scenario():
    s = replace(rl.chamber_scenario(n_rows=2, n_cols=3), noise_variance=1e-6)
    fb = rl.FeedbackChannel(s, seed=4)
    for config, message in ((np.zeros((3, 3), dtype=int), "9 entries for 6 units"),
                            (np.full((2, 3), 4), "outside 4-entry codebook"),
                            (np.full((2, 3), -1), ">= 0")):
        with pytest.raises(ValueError, match=message):
            fb.power(config)
        with pytest.raises(ValueError, match=message):
            fb.measure(config)
    _assert_draws_taken(fb, 4, 0)  # a refused grid takes no draw


def test_a_noiseless_channel_reads_the_power_it_computes():
    s = small_scenario(0)
    fb = rl.FeedbackChannel(s)
    config = uniform_configuration(s.layout)
    assert fb.measure(config) == fb.power(config)
    assert fb.measure(config) == fb.power(config)


@pytest.mark.parametrize("variance", [math.nan, math.inf, -1e-9])
def test_a_channel_takes_its_noise_variance_from_the_scenario_that_checks_it(variance):
    s = small_scenario(0)
    with pytest.raises(ValueError) as from_scenario:
        replace(s, noise_variance=variance)
    assert str(from_scenario.value) == (
        f"noise_variance must be finite and >= 0, got {variance!r}")
    assert rl.FeedbackChannel(replace(s, noise_variance=2e-9)).noise_variance == 2e-9


def test_feedback_channel_noise_is_seeded():
    s = replace(small_scenario(1), noise_variance=1e-6)
    config = uniform_configuration(s.layout)
    a = rl.FeedbackChannel(s, seed=5)
    b = rl.FeedbackChannel(s, seed=5)
    readings_a = [a.measure(config) for _ in range(10)]
    readings_b = [b.measure(config) for _ in range(10)]
    assert readings_a == readings_b
    assert readings_a != [a.power(config)] * 10
    assert all(p >= 0.0 for p in readings_a)
    with pytest.raises(ValueError):
        replace(s, noise_variance=-1.0)


@given(n_rows=st.integers(1, 5), n_cols=st.integers(1, 5), bits=st.integers(1, 4),
       noisy=st.booleans(), uniform=st.booleans(), passes=st.integers(1, 3),
       rounds=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_a_search_result_fits_its_own_channel(n_rows, n_cols, bits, noisy, uniform, passes,
                                              rounds, seed):
    rng = np.random.default_rng(seed)
    s = make_random_scenario(rng, bits=bits, random_offset=True)
    s = replace(s, layout=rl.ArrayLayout(n_rows, n_cols, s.layout.pitch_x, s.layout.pitch_y))
    s, _ = _noisy(s, 0.02 if noisy else 0.0)
    k, n = s.codebook.size, n_rows * n_cols
    initial = None if uniform else rng.integers(0, k, (n_rows, n_cols))
    blind, greedy = rl.FeedbackChannel(s, seed), rl.FeedbackChannel(s, seed)
    found = [rl.blind_rowcol_search(blind, initial, passes),
             rl.greedy_element_search(greedy, initial, rounds)]
    for fb, (config, trace) in zip((blind, greedy), found):
        assert config.shape == (n_rows, n_cols)
        assert np.all((config >= 0) & (config < k))
        _assert_draws_taken(fb, seed, trace.n_queries)
    assert found[0][1].n_queries == 1 + passes * (n_rows + n_cols)
    # a unit tries every index but the one it holds, and that one too once a
    # gain has moved it lower: at most one more query per gain
    greedy_queries, gains = found[1][1].n_queries, sum(found[1][1].accepted) - 1
    assert greedy_queries <= 1 + rounds * (k - 1) * n + gains
    if uniform and rounds == 1:  # from index 0 a unit only moves up
        assert greedy_queries == 1 + (k - 1) * n


def test_blind_trace_monotone_and_valid():
    for seed in range(8):
        s = small_scenario(seed)
        config, trace = rl.blind_rowcol_search(rl.FeedbackChannel(s))
        acc = [p for p, kept in zip(trace.powers, trace.accepted) if kept]
        assert trace.accepted[0]
        assert all(b >= a for a, b in zip(acc, acc[1:]))
        assert max(trace.powers) == acc[-1]
        assert config.shape == (s.layout.n_rows, s.layout.n_cols)
        assert np.all((config >= 0) & (config < s.codebook.size))
        # final configuration actually delivers the reported power
        assert rl.FeedbackChannel(s).power(config) == pytest.approx(acc[-1], rel=1e-12)


def test_blind_symmetric_boresight_keeps_uniform():
    # perfectly symmetric 2x2 boresight link: any line shift breaks coherence
    s = rl.chamber_scenario(n_rows=2, n_cols=2)
    config, trace = rl.blind_rowcol_search(rl.FeedbackChannel(s))
    assert np.array_equal(config, uniform_configuration(s.layout))
    assert trace.accepted[1:] == [False] * (trace.n_queries - 1)
    assert max(trace.powers) == trace.powers[0]


def test_blind_single_element_is_trivially_optimal():
    s = small_scenario(4, max_rows=1, max_cols=1)
    _, trace = rl.blind_rowcol_search(rl.FeedbackChannel(s))
    _, best = brute_force_optimum(s)
    assert max(trace.powers) == pytest.approx(best, rel=1e-12)


@pytest.mark.parametrize("search, budget, message", [
    ("blind_rowcol_search", {"passes": 0}, "passes must be >= 1"),
    ("greedy_element_search", {"max_rounds": 0}, "max_rounds must be >= 1"),
])
def test_a_direct_search_call_checks_its_own_budget(search, budget, message):
    """`apply_beamforming` checks the budget for every method, closed forms included,
    but a library caller may call a search directly: each search checks its own."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        getattr(rl, search)(rl.FeedbackChannel(small_scenario(2)), **budget)


def test_blind_initial_validation():
    s = small_scenario(2)
    with pytest.raises(ValueError):
        rl.blind_rowcol_search(rl.FeedbackChannel(s), initial=np.zeros((1, 1), dtype=int))
    with pytest.raises(ValueError):
        rl.blind_rowcol_search(rl.FeedbackChannel(s), passes=0)
    outside = np.full((s.layout.n_rows, s.layout.n_cols), s.codebook.size)
    for search in (rl.blind_rowcol_search, rl.greedy_element_search):
        with pytest.raises(ValueError, match="outside 4-entry codebook"):
            search(rl.FeedbackChannel(s), outside)
        with pytest.raises(ValueError, match="must hold integers, got dtype float64"):
            search(rl.FeedbackChannel(s), outside - 1.5)


@pytest.mark.parametrize("search", [rl.blind_rowcol_search, rl.greedy_element_search],
                         ids=["blind", "greedy"])
def test_a_flat_initial_searches_as_its_grid(search):
    s = replace(rl.chamber_scenario(rx_zenith_deg=25.0, phase_jitter_max_deg=10.0),
                noise_variance=1e-8)
    grid = np.random.default_rng(3).integers(0, s.codebook.size, (4, 8))
    kept = grid.copy()
    flat_config, flat_trace = search(rl.FeedbackChannel(s, seed=2), grid.reshape(-1))
    config, trace = search(rl.FeedbackChannel(s, seed=2), grid)
    assert flat_config.shape == config.shape == (4, 8)
    assert np.array_equal(flat_config, config) and flat_trace.powers == trace.powers
    assert np.array_equal(grid, kept)  # each search edits its own copy


def test_greedy_single_element_exact():
    s = small_scenario(5, max_rows=1, max_cols=1)
    _, trace = rl.greedy_element_search(rl.FeedbackChannel(s))
    _, best = brute_force_optimum(s)
    assert max(trace.powers) == pytest.approx(best, rel=1e-12)


def test_greedy_is_one_element_stable():
    for seed in (0, 1, 2, 3):
        s = small_scenario(seed)
        config, trace = rl.greedy_element_search(rl.FeedbackChannel(s))
        power = rl.FeedbackChannel(s).power
        final = power(config)
        flat = config.reshape(-1)
        for n in range(s.layout.n_units):
            for k in range(s.codebook.size):
                if k == flat[n]:
                    continue
                cand = flat.copy()
                cand[n] = k
                assert power(cand) <= final * (1 + 1e-12)
        acc = [p for p, kept in zip(trace.powers, trace.accepted) if kept]
        assert all(b >= a for a, b in zip(acc, acc[1:]))


def test_greedy_beats_blind_in_most_paired_trials():
    # paired comparison from the same uniform start on 6-unit layouts
    rng = np.random.default_rng(30)
    wins = 0
    for _ in range(100):
        while True:
            s = make_random_scenario(rng, max_rows=2, max_cols=3, max_units=6)
            if s.layout.n_units == 6:
                break
        _, gt = rl.greedy_element_search(rl.FeedbackChannel(s))
        _, lt = rl.blind_rowcol_search(rl.FeedbackChannel(s))
        if max(gt.powers) >= max(lt.powers) * (1 - 1e-12):
            wins += 1
    assert wins >= 95


def test_greedy_refines_blind():
    for seed in range(10):
        s = small_scenario(seed)
        blind_config, blind_trace = rl.blind_rowcol_search(rl.FeedbackChannel(s))
        _, refined = rl.greedy_element_search(rl.FeedbackChannel(s), initial=blind_config)
        assert max(refined.powers) >= max(blind_trace.powers) * (1 - 1e-12)


def _noisy(s, noise):
    """`s` with reading noise `noise` times the uniform configuration's power (0.5 floors
    some readings at 0), and its continuous-phase bound: a reading near 0 has no relative
    precision, so powers also pass within 1e-12 of that bound."""
    quiet = rl.FeedbackChannel(s)
    noise_variance = (noise * quiet.power(uniform_configuration(s.layout))) ** 2
    bound = quiet.prefactor * float(np.abs(quiet.table[:, 0]).sum()) ** 2
    return replace(s, noise_variance=noise_variance), bound


def _assert_same_search(fast, reference, rel_floor):
    """A search's configuration, replayed kept flags, count and readings against a
    reference search's, whose `SearchLog` holds the flags it decided."""
    (config, trace), (ref_config, ref_trace) = fast, reference
    assert np.array_equal(config, ref_config)
    assert trace.accepted == ref_trace.accepted
    assert trace.n_queries == ref_trace.n_queries
    assert trace.powers == pytest.approx(ref_trace.powers, rel=1e-12, abs=1e-12 * rel_floor)


@given(n_rows=st.integers(1, 6), n_cols=st.integers(1, 6), bits=st.integers(1, 3),
       noise=st.sampled_from([0.0, 0.02, 0.5]), rounds=st.integers(1, 4),
       passes=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_incremental_searches_match_full_evaluations(n_rows, n_cols, bits, noise, rounds,
                                                     passes, seed):
    rng = np.random.default_rng(seed)
    s = make_random_scenario(rng, bits=bits, random_offset=True)
    s = replace(s, layout=rl.ArrayLayout(n_rows, n_cols, s.layout.pitch_x, s.layout.pitch_y))
    s, bound = _noisy(s, noise)
    initial = rng.integers(0, s.codebook.size, (n_rows, n_cols))
    fast = rl.FeedbackChannel(s, seed)
    ref = rl.FeedbackChannel(s, seed)
    # one channel per side serves greedy, then blind: the noise stream carries over
    greedy = rl.greedy_element_search(fast, initial, rounds)
    _assert_same_search(greedy, reference_greedy_search(ref, initial, rounds), bound)
    blind = rl.blind_rowcol_search(fast, initial, passes)
    _assert_same_search(blind, reference_blind_search(ref, initial, passes), bound)
    for fb in (fast, ref):
        _assert_draws_taken(fb, seed, greedy[1].n_queries + blind[1].n_queries)


def test_multi_round_greedy_retries_the_original_index():
    # In round 2 one unit moves to a lower index first and then tries its
    # original index again: k queries instead of k - 1, so 1 + 3 * 3N + 1.
    s = small_scenario(0)
    n = s.layout.n_units
    fast = rl.greedy_element_search(rl.FeedbackChannel(s), max_rounds=4)
    reference = reference_greedy_search(rl.FeedbackChannel(s), max_rounds=4)
    assert fast[1].n_queries == 1 + 3 * 3 * n + 1
    _assert_same_search(fast, reference, 0.0)


def test_feedback_channel_reads_like_one_draw_per_query():
    s = replace(small_scenario(3), noise_variance=1e-6)
    config = uniform_configuration(s.layout)
    fb = rl.FeedbackChannel(s, seed=7)
    rng = np.random.default_rng(7)
    # past the first noise block, alternating measure and read
    for i in range(2500):
        p = fb.measure(config) if i % 2 else fb.read(fb.power(config))
        assert p == max(0.0, fb.power(config) + float(rng.normal(0.0, math.sqrt(1e-6))))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def test_array_powers_equal_python_powers_bit_for_bit():
    rng = np.random.default_rng(11)
    mags = np.concatenate([10.0 ** rng.uniform(-300.0, 300.0, 40000), rng.uniform(0.0, 10.0, 40000),
                           [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e150]])
    sums = mags * np.exp(1j * rng.uniform(-math.pi, math.pi, mags.size))
    sums = np.concatenate([sums, [0j, complex(-0.0, 0.0), complex(5e-324, -5e-324),
                                  complex(0.0, -1e-310), complex(3e-308, 4e-308), 1e150 + 0j]])
    # Python's `** 2` raises past |s| ~ 1.34e154, where `link._weight_chunks` admits no
    # channel sum; the band of finite squares from 1e154 up to there is taken as real and
    # imaginary sums, whose magnitudes are exact
    small = np.abs(sums) < 1e154
    assert small.sum() > 50000
    band = np.array([1e154, 1.2e154, 1.34e154, np.nextafter(math.sqrt(sys.float_info.max), 0.0)])
    sums = np.concatenate([sums[small], band + 0j, 1j * band])
    for prefactor in (1.0, 1.0 / (16.0 * math.pi ** 2), 123.25):
        with np.errstate(over="ignore"):  # 123.25 * |s| ** 2 is inf near 1e154, as in Python
            got = _powers(prefactor, sums)
        assert np.array_equal(_bits(got), _bits(reference_powers(prefactor, sums)))


def test_a_trace_replays_its_kept_flags_from_its_readings(tmp_path):
    # ties with the running best, a block entry, and a drop after the top reading
    readings = [0.5, 0.5, 0.25, np.array([0.25, 0.5, 0.75]), 0.75, 1.0, np.array([0.5])]
    powers = [0.5, 0.5, 0.25, 0.25, 0.5, 0.75, 0.75, 1.0, 0.5]
    kept = {True: [1, 1, 0, 0, 1, 1, 1, 1, 0],  # blind: a reading that reaches the best
            False: [1, 0, 0, 0, 0, 1, 0, 1, 0]}  # greedy: only one that beats it
    for keeps_ties, flags in kept.items():
        trace = rl.SearchTrace(keeps_ties)
        trace.readings.extend(readings)
        assert trace.n_queries == 9
        assert all(type(p) is float for p in trace.powers) and trace.powers == powers
        assert trace.accepted == [bool(f) for f in flags]
        trace.write_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_text() == "step,accepted,power_w\n" + "".join(
            f"{i},{f},{p!r}\n" for i, (f, p) in enumerate(zip(flags, powers)))
    assert rl.SearchTrace(False).accepted == [] and rl.SearchTrace(True).n_queries == 0


def test_block_reads_take_one_draw_per_reading_across_noise_blocks():
    s = small_scenario(3)
    config = uniform_configuration(s.layout)
    p0 = rl.FeedbackChannel(s).power(config)
    fb = rl.FeedbackChannel(replace(s, noise_variance=(0.05 * p0) ** 2), seed=7)
    draws = np.random.default_rng(7)

    def expected(power):
        return max(0.0, power + float(draws.normal(0.0, 0.05 * p0)))

    rng = np.random.default_rng(1)
    queries = 0
    # block lengths around and past _NOISE_BLOCK, so reads straddle block edges
    for i, m in enumerate([5, 700, 1, 1500, 1024, 3, 2500, 64, 1023, 2049] * 2):
        assert fb.read(p0) == expected(p0)
        assert fb.measure(config) == expected(p0)
        # readings near 0 are floored; one planted gain unless i % 3 == 0
        powers = p0 * rng.uniform(0.0, 0.5, m)
        if i % 3:
            powers[rng.integers(0, m)] = 2.0 * p0
        best = 0.9 * p0
        want = []
        for p in powers.tolist():
            want.append(expected(p))
            if want[-1] > best:
                break
        got = fb.read_until(powers, best)
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert np.array_equal(_bits(got), _bits(want))
        queries += 2 + len(want)
    assert fb.read(p0) == expected(p0)  # the last block read took one draw per reading
    assert queries > 6 * _NOISE_BLOCK


def test_noise_top_ups_take_every_block_a_shortfall_needs_at_once(monkeypatch):
    # a noisy 48x48 three-round greedy reads most of its ~14,000 draws in
    # gallop windows of up to 4096 candidates, several blocks each; a top-up
    # that drew one block at a time would copy the growing buffer per block
    rng = np.random.default_rng(48)
    s = make_random_scenario(rng, random_offset=True)
    s = replace(s, layout=rl.ArrayLayout(48, 48, s.layout.pitch_x, s.layout.pitch_y),
                jitter=rl.PhaseJitterModel(math.radians(10.0), 48))
    quiet = rl.FeedbackChannel(s)
    aligned = quiet.prefactor * float(np.abs(quiet.table[:, 0]).sum()) ** 2
    fb = rl.FeedbackChannel(replace(s, noise_variance=(0.02 * aligned) ** 2), 3)
    concatenate, top_ups, drawn = np.concatenate, [], [0]

    def spy(arrays, *args, **kwargs):
        # the draws taken so far: all drawn before this top-up, less the unused ones
        top_ups.append((drawn[0] - len(arrays[0]), sum(len(a) for a in arrays)))
        drawn[0] += sum(len(a) for a in arrays[1:])
        return concatenate(arrays, *args, **kwargs)

    monkeypatch.setattr(np, "concatenate", spy)
    _, trace = rl.greedy_element_search(fb, None, 3)
    monkeypatch.undo()
    at, floats = zip(*top_ups)
    queries = trace.n_queries
    assert queries > 13 * _NOISE_BLOCK
    _assert_draws_taken(fb, 3, queries)
    # every shortfall comes with at least one query read since the last one
    assert len(set(at)) == len(at)
    assert sum(floats) <= queries + _NOISE_BLOCK * len(at)


def _count_block_reads(monkeypatch):
    """Log (candidates, readings) of every `read_until` call."""
    log = []
    read_until = rl.FeedbackChannel.read_until

    def spy(self, powers, best):
        readings = read_until(self, powers, best)
        log.append((len(powers), len(readings)))
        return readings

    monkeypatch.setattr(rl.FeedbackChannel, "read_until", spy)
    return log


@pytest.mark.parametrize("n_rows, n_cols, bits", [(16, 16, 2), (24, 24, 2), (9, 20, 1), (12, 14, 3)])
@pytest.mark.parametrize("noise", [0.0, 0.02, 0.5])
@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_galloping_greedy_matches_full_evaluations(monkeypatch, n_rows, n_cols, bits, noise,
                                                   rounds):
    seed = 100 * n_rows + 10 * bits + rounds
    rng = np.random.default_rng(seed)
    s = make_random_scenario(rng, bits=bits, random_offset=True)
    s = replace(s, layout=rl.ArrayLayout(n_rows, n_cols, s.layout.pitch_x, s.layout.pitch_y),
                jitter=rl.PhaseJitterModel(math.radians(10.0), seed))
    s, bound = _noisy(s, noise)
    channels = [rl.FeedbackChannel(s, seed) for _ in range(3)]
    blocks = _count_block_reads(monkeypatch)
    fast = rl.greedy_element_search(channels[0], None, rounds)
    if noise > 0:
        assert blocks
    _assert_same_search(fast, reference_greedy_search(channels[1], None, rounds), bound)
    stepwise = stepwise_greedy_search(channels[2], None, rounds)
    assert np.array_equal(fast[0], stepwise[0])
    assert fast[1].accepted == stepwise[1].accepted
    assert np.array_equal(_bits(fast[1].powers), _bits(stepwise[1].powers))
    for fb in channels:
        _assert_draws_taken(fb, seed, fast[1].n_queries)


@pytest.mark.parametrize("n_rows, n_cols", [(16, 16), (9, 20), (1, 9), (9, 1)])
@pytest.mark.parametrize("bits", [1, 2, 3])
@pytest.mark.parametrize("noise", [0.0, 0.02, 0.5])
@pytest.mark.parametrize("passes", [1, 2, 3, 4])
def test_lean_blind_loop_matches_one_read_per_line(n_rows, n_cols, bits, noise, passes):
    seed = 100 * n_rows + 10 * n_cols + bits + passes
    rng = np.random.default_rng(seed)
    s = make_random_scenario(rng, bits=bits, random_offset=True)
    s = replace(s, layout=rl.ArrayLayout(n_rows, n_cols, s.layout.pitch_x, s.layout.pitch_y),
                jitter=rl.PhaseJitterModel(math.radians(10.0), seed))
    s, _ = _noisy(s, noise)
    initial = rng.integers(0, s.codebook.size, (n_rows, n_cols))
    channels = [rl.FeedbackChannel(s, seed) for _ in range(2)]
    fast = rl.blind_rowcol_search(channels[0], initial, passes)
    stepwise = stepwise_blind_search(channels[1], initial, passes)
    assert np.array_equal(fast[0], stepwise[0])
    assert fast[1].accepted == stepwise[1].accepted
    assert np.array_equal(_bits(fast[1].powers), _bits(stepwise[1].powers))
    assert fast[1].n_queries == stepwise[1].n_queries == 1 + passes * (n_rows + n_cols)
    for fb in channels:
        _assert_draws_taken(fb, seed, fast[1].n_queries)


def _one_gain_link(unit, index, n_units=40):
    """A 1 x n_units link whose only improvement is `unit` moving to `index`.

    Every unit's term is 1 at index 0 and 0 elsewhere, but 2 at (unit, index):
    from all zeros every candidate reads 39 against 40, that one 41.
    """
    fb = rl.FeedbackChannel(rl.chamber_scenario(n_rows=1, n_cols=n_units))
    fb.table = np.zeros((n_units, 4), dtype=complex)
    fb.table[:, 0] = 1.0
    fb.table[unit, index] = 2.0
    fb.prefactor = 1.0
    return fb


# block reads as (queries before, candidates, readings), and the step of the one
# gain; a round is 120 candidates, and round 2 gains nothing, so the search
# ends there after 1 + 2 * 120 queries
@pytest.mark.parametrize("unit, index, blocks, gain_step", [
    # a gain mid-unit in the second window: unit 30 still tries index 3, and
    # a run of 8 rejections (halved, but floored at 8) sets off the next gallop
    (30, 2, [(10, 63, 63), (73, 48, 20), (103, 18, 18), (121, 63, 63), (184, 57, 57)], 92),
    # a gain on the unit's last index: the next unit comes straight after it
    (30, 3, [(10, 63, 63), (73, 48, 21), (103, 18, 18), (121, 63, 63), (184, 57, 57)], 93),
    # a gain in the first window doubles the run the next gallop waits for to 16
    (10, 2, [(10, 63, 23), (49, 63, 63), (112, 9, 9), (121, 63, 63), (184, 57, 57)], 32),
])
def test_gallop_resumes_after_its_gain(monkeypatch, unit, index, blocks, gain_step):
    log = _count_block_reads(monkeypatch)
    config, trace = rl.greedy_element_search(_one_gain_link(unit, index), max_rounds=3)
    assert log == [(m, n) for _, m, n in blocks]
    # each block read is one trace entry, which starts at the query count before it
    sizes = [len(p) if isinstance(p, np.ndarray) else 1 for p in trace.readings]
    starts = np.cumsum([0] + sizes[:-1]).tolist()
    assert [(at, n) for at, p, n in zip(starts, trace.readings, sizes)
            if isinstance(p, np.ndarray)] == [(at, n) for at, _, n in blocks]
    want = np.zeros((1, 40), dtype=int)
    want[0, unit] = index
    assert np.array_equal(config, want)
    assert trace.n_queries == 241
    assert [i for i, a in enumerate(trace.accepted) if a] == [0, gain_step]
    _assert_same_search((config, trace), reference_greedy_search(_one_gain_link(unit, index),
                                                                 None, 3), 0.0)


def test_nearest_quantize_hits_exact_entries():
    cb = rl.PhaseCodebook()
    idx = rl.nearest_quantize(cb.phases(), cb)
    assert np.array_equal(idx, [0, 1, 2, 3])


def test_nearest_quantize_ties_break_low():
    cb = rl.PhaseCodebook()
    # exact midpoints, including the wrap-around between 3*pi/2 and 2*pi
    assert rl.nearest_quantize(math.pi / 4, cb) == 0
    assert rl.nearest_quantize(3 * math.pi / 4, cb) == 1
    assert rl.nearest_quantize(7 * math.pi / 4, cb) == 0


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf, 1e300, -1e300,
                                   2.0 ** 63 * (math.pi / 2)])  # floor(x) = 2^63 exactly
def test_nearest_quantize_refuses_a_phase_it_cannot_place(phase):
    cb = rl.PhaseCodebook()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast warning on the way
        with pytest.raises(ValueError) as exc:
            rl.nearest_quantize([0.5, phase, math.nan], cb)  # the first one is named
    assert str(exc.value) == f"phase {phase!r} has no step index in int64"
    # the last step indices that fit in int64 still place
    assert rl.nearest_quantize([-(2.0 ** 63) * (math.pi / 2), 1e18], cb).tolist() == [0, 0]


@settings(max_examples=100)
@given(st.floats(0.0, 2 * math.pi - 1e-9), st.integers(1, 4))
def test_nearest_quantize_error_bound(phase, bits):
    cb = rl.PhaseCodebook(bits)
    idx = int(rl.nearest_quantize(phase, cb))
    err = abs(float(wrap_to_pi(cb.phases()[idx] - phase)))
    assert err <= cb.spacing / 2 + 1e-12


def _codebook(bits, offset_frac):
    spacing = math.pi / 2 ** (bits - 1)
    offset = offset_frac * spacing
    return rl.PhaseCodebook(bits, offset if offset < spacing else 0.0)


def _step_ulps(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


@settings(max_examples=300)
@given(st.integers(1, 4), st.floats(0.0, 1.0, exclude_max=True),
       st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=64))
def test_nearest_quantize_matches_the_full_table_argmin(bits, offset_frac, phases):
    cb = _codebook(bits, offset_frac)
    assert np.array_equal(rl.nearest_quantize(phases, cb), reference_nearest_quantize(phases, cb))


@settings(max_examples=300)
@given(st.integers(1, 4), st.floats(0.0, 1.0, exclude_max=True),
       st.integers(-1600, 1600), st.booleans(), st.integers(-4, 4))
def test_nearest_quantize_matches_the_argmin_at_entries_and_midpoints(bits, offset_frac, m,
                                                                      midpoint, ulps):
    # exact codebook entries and midpoints between them, unwrapped up to ~1e4
    # rad, each nudged by a few ulps: where the two-entry rule and the full
    # argmin would part ways if the ties-go-low padding differed
    cb = _codebook(bits, offset_frac)
    x = _step_ulps(cb.offset + cb.spacing * (m + (0.5 if midpoint else 0.0)), ulps)
    assert int(rl.nearest_quantize(x, cb)) == int(reference_nearest_quantize(x, cb))


@pytest.mark.parametrize("bits", range(1, 7))
def test_nearest_quantize_matches_the_argmin_at_the_fallback_band_edges(bits):
    # the two-entry comparison takes phases within 1e-6 of a step of a
    # midpoint; probe that band's edges and its center, a few ulps either
    # way, at midpoints unwrapped out to ~1e4 rad (1591 turns)
    for offset_frac in (0.0, 0.37, 0.999):
        cb = _codebook(bits, offset_frac)
        m = np.concatenate([np.arange(cb.size) + t * cb.size for t in (0, 1, -1, 1591, -1591)])
        centers = cb.offset + cb.spacing * (m[:, None] + 0.5 + np.array([-1e-6, 0.0, 1e-6]))
        phases = (centers[..., None] + np.arange(-6, 7) * np.spacing(centers)[..., None]).ravel()
        assert np.abs(phases).max() > 9.9e3
        assert np.array_equal(rl.nearest_quantize(phases, cb),
                              reference_nearest_quantize(phases, cb))


def test_nearest_quantize_shape():
    cb = rl.PhaseCodebook()
    ph = np.zeros((4, 8))
    assert rl.nearest_quantize(ph, cb).shape == (4, 8)


def test_wrap_to_pi_range():
    x = np.linspace(-20, 20, 400)
    w = wrap_to_pi(x)
    assert np.all(w > -math.pi - 1e-12) and np.all(w <= math.pi + 1e-12)
    assert np.allclose(np.exp(1j * w), np.exp(1j * x), atol=1e-12)


def test_brute_force_refuses_large_arrays():
    s = rl.chamber_scenario()  # 32 units x 2 bits = 64 search bits
    with pytest.raises(ValueError):
        brute_force_optimum(s)


def test_brute_force_dominates_everything():
    for seed in range(6):
        s = small_scenario(seed)
        _, best = brute_force_optimum(s)
        _, gt = rl.greedy_element_search(rl.FeedbackChannel(s))
        _, bt = rl.blind_rowcol_search(rl.FeedbackChannel(s))
        rng = np.random.default_rng(seed)
        random_config = rng.integers(0, 4, (s.layout.n_rows, s.layout.n_cols))
        assert best >= max(gt.powers) * (1 - 1e-12)
        assert best >= max(bt.powers) * (1 - 1e-12)
        assert best >= rl.FeedbackChannel(s).power(random_config) * (1 - 1e-12)


def test_brute_force_tie_breaks_lexicographically():
    # single element: all four phases give identical power, so index 0 wins
    s = small_scenario(8, max_rows=1, max_cols=1)
    config, _ = brute_force_optimum(s)
    assert config.shape == (1, 1)
    assert config[0, 0] == 0


@pytest.mark.parametrize("seed", range(8))
def test_brute_force_is_the_one_at_a_time_loop_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    bits = 1 + seed % 2
    s = make_random_scenario(rng, max_rows=3, max_cols=4, max_units=12 // bits, bits=bits,
                             random_offset=True)
    s = replace(s, jitter=rl.PhaseJitterModel(math.radians(15.0), seed))
    got, want = brute_force_optimum(s), reference_brute_force_optimum(s)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def test_brute_force_keeps_the_first_of_tied_optima_across_blocks():
    # the four codebook rotations of the optimum tie bit for bit, one per 1024-block
    s = rl.chamber_scenario(n_rows=2, n_cols=3, rx_zenith_deg=30.0)
    fb = rl.FeedbackChannel(s)
    rotations = [(np.array([[0, 3, 2], [0, 3, 2]]) + k) % 4 for k in range(4)]
    assert len({fb.power(r) for r in rotations}) == 1
    got, want = brute_force_optimum(s), reference_brute_force_optimum(s)
    assert np.array_equal(got[0], rotations[0]) and np.array_equal(want[0], rotations[0])
    assert got[1] == want[1] == fb.power(rotations[0])


def test_greedy_through_a_given_feedback_channel():
    s = small_scenario(9)
    _, best = brute_force_optimum(s)
    fb = rl.FeedbackChannel(s)
    _, trace = rl.greedy_element_search(fb)
    assert best >= max(trace.powers) * (1 - 1e-12)

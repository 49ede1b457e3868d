"""Shared random scenario builders, per-unit and scalar oracles, the expanded
received-power route, brute force, and reference searches and sweeps for the test suite."""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

import rislink as rl
from rislink.beamforming import _powers, wrap_to_pi
from rislink.experiments import SweepResult
from rislink.geometry import _cell_offsets, ranges_and_cosines, spherical_to_cartesian
from rislink.link import (
    SIXTEEN_PI_SQ,
    _channel_sums,
    _own_rx_point,
    _phase_indices,
)


def uniform_configuration(layout, phase_index: int = 0) -> np.ndarray:
    """Every unit of `layout` at `phase_index`, as a (n_rows, n_cols) grid."""
    return np.full((layout.n_rows, layout.n_cols), phase_index, dtype=int)


def element_grid(layout) -> np.ndarray:
    """All unit-cell centers, shape (n_units, 3), row-major (row 1 cols 1..N, then row 2, ...)."""
    xx, yy = np.meshgrid(*_cell_offsets(layout))  # (n_rows, n_cols)
    return np.stack([xx.ravel(), yy.ravel(), np.zeros(layout.n_units)], axis=1)


def make_random_scenario(rng, max_rows=4, max_cols=8, max_units=32, bits=2,
                         random_offset=False):
    """A physically valid random link: TX above the plane, RX below it."""
    while True:
        n_rows = int(rng.integers(1, max_rows + 1))
        n_cols = int(rng.integers(1, max_cols + 1))
        if n_rows * n_cols <= max_units:
            break
    tx = rl.SphericalPose(
        float(rng.uniform(0.3, 3.0)),
        float(rng.uniform(0.0, math.radians(60.0))),
        float(rng.uniform(0.0, 2.0 * math.pi)),
    )
    rx = rl.SphericalPose(
        float(rng.uniform(0.5, 8.0)),
        math.pi - float(rng.uniform(0.0, math.radians(60.0))),
        float(rng.uniform(0.0, 2.0 * math.pi)),
    )

    def antenna():
        return rl.AntennaModel(
            rl.from_db(float(rng.uniform(0.0, 18.0))),
            float(rng.choice([0.0, 1.0, 2.0])),
        )

    # strictly increasing currents via cumulative positive increments
    k = int(rng.integers(1, 4))
    base = float(rng.uniform(1e-4, 0.03))
    currents = base + np.concatenate([[0.0], np.cumsum(rng.uniform(1e-4, 0.03, k - 1))])
    gains_db = np.sort(rng.uniform(0.0, 20.0, k))
    amplifier = rl.AmplifierModel(
        tuple((float(c), float(g)) for c, g in zip(currents, gains_db))
    )

    spacing = math.pi / 2 ** (bits - 1)
    offset = float(rng.uniform(0.0, spacing)) if random_offset else 0.0
    if offset >= spacing:
        offset = 0.0
    return rl.Scenario(
        frequency=float(rng.uniform(1e9, 6e9)),
        tx_pose=tx,
        rx_pose=rx,
        layout=rl.ArrayLayout(
            n_rows, n_cols,
            float(rng.uniform(0.03, 0.08)), float(rng.uniform(0.03, 0.08)),
        ),
        tx_antenna=antenna(),
        rx_antenna=antenna(),
        codebook=rl.PhaseCodebook(bits, offset),
        amplifier=amplifier,
        tx_power=float(rng.uniform(0.1, 2.0)),
    )


def random_surface(rng, scenario):
    """A random flat phase-index grid for `scenario`."""
    return rng.integers(0, scenario.codebook.size, scenario.layout.n_units)


# ------------------------------------------------- per-unit oracles

@dataclass(frozen=True)
class UnitState:
    """Programmed state of one unit cell: codebook index and control current."""

    phase_index: int
    current: float

    def __post_init__(self):
        if self.phase_index < 0:
            raise ValueError("phase_index must be >= 0")
        if self.current < 0:
            raise ValueError("control current must be >= 0")


def unit_transmission_coefficient(state, codebook, amplifier, jitter=None, rng=None):
    """Complex through-gain of one unit: sqrt(G_u) * exp(j phase).

    The phase is the codebook entry at state.phase_index plus an optional
    jitter error, drawn uniformly within +-jitter.max_error from `rng`, which
    must then be given: each unit needs its own draw, and the jitter seed alone
    would give every unit the same one.
    """
    if not 0 <= state.phase_index < codebook.size:
        raise ValueError(
            f"phase_index {state.phase_index} outside {codebook.size}-entry codebook"
        )
    if jitter is not None and rng is None:
        raise ValueError("unit_transmission_coefficient needs an rng to draw the unit's jitter")
    mag = math.sqrt(rl.from_db(amplifier.gain_db(state.current)))
    phase = float(codebook.phases()[state.phase_index])
    if jitter is not None:
        phase += float(rng.uniform(-jitter.max_error, jitter.max_error))
    return complex(mag * math.cos(phase), mag * math.sin(phase))


def decode_control(word) -> int:
    """Phase index of a switch word, "011" or a ControlWord: the inverse of
    `encode_control`, rejecting the four words that select no phase state."""
    if isinstance(word, str):
        if len(word) != 3 or any(ch not in "01" for ch in word):
            raise ValueError(f"control word must be three bits, got {word!r}")
        word = rl.ControlWord(*map(int, word))
    table = {rl.encode_control(k): k for k in range(4)}
    if word not in table:
        raise ValueError(f"control word {word} selects no phase state")
    return table[word]


def unit_rcs(state, amplifier, incidence_zenith, departure_zenith, geometric_area):
    """Equivalent scattering area of one unit (m^2, phase excluded).

    Folds the amplifier gain and the projected apertures seen from the
    incidence and departure directions: sqrt(G_u * A(theta_in) * A(theta_out)).
    """
    a_in = zenith_area(geometric_area, incidence_zenith)
    a_out = zenith_area(geometric_area, departure_zenith)
    return math.sqrt(rl.from_db(amplifier.gain_db(state.current)) * a_in * a_out)


class SearchLog:
    """A reference search's own log: each reading beside the kept flag that the search
    decided as it ran, so a `SearchTrace`'s replayed flags have something to match."""

    def __init__(self):
        self.powers, self.accepted = [], []

    def record(self, kept: bool, power: float) -> None:
        self.accepted.append(kept)
        self.powers.append(power)

    @property
    def n_queries(self) -> int:
        return len(self.powers)


def _reference_start(feedback, initial):
    """The scenario and a copy of `initial` (None: all zeros) as a grid, checked as the
    package checks every grid."""
    layout = feedback.scenario.layout
    config = _phase_indices(feedback.scenario, initial).reshape(layout.n_rows, layout.n_cols)
    return feedback.scenario, config.copy()


def reference_blind_search(feedback, initial=None, passes=4):
    """From-scratch blind row/column search: one full `measure` per candidate."""
    scenario, config = _reference_start(feedback, initial)
    k = scenario.codebook.size
    trace = SearchLog()
    best = feedback.measure(config)
    trace.record(True, best)
    for _ in range(passes):
        for col in range(scenario.layout.n_cols):
            cand = config.copy()
            cand[:, col] = (cand[:, col] + 1) % k
            p = feedback.measure(cand)
            if p >= best:
                config, best = cand, p
                trace.record(True, p)
            else:
                trace.record(False, p)
        for row in range(scenario.layout.n_rows):
            cand = config.copy()
            cand[row, :] = (cand[row, :] + 1) % k
            p = feedback.measure(cand)
            if p >= best:
                config, best = cand, p
                trace.record(True, p)
            else:
                trace.record(False, p)
    return config, trace


def reference_greedy_search(feedback, initial=None, max_rounds=8):
    """From-scratch greedy element search: one full `measure` per candidate."""
    scenario, config = _reference_start(feedback, initial)
    k = scenario.codebook.size
    trace = SearchLog()
    best = feedback.measure(config)
    trace.record(True, best)
    for _ in range(max_rounds):
        changed = False
        for row in range(scenario.layout.n_rows):
            for col in range(scenario.layout.n_cols):
                for idx in range(k):
                    if idx == config[row, col]:
                        continue
                    cand = config.copy()
                    cand[row, col] = idx
                    p = feedback.measure(cand)
                    if p > best:
                        config, best = cand, p
                        trace.record(True, p)
                        changed = True
                    else:
                        trace.record(False, p)
        if not changed:
            break
    return config, trace


def stepwise_blind_search(feedback, initial=None, passes=4):
    """Blind row/column search with one `read` and one `trace.record` per line.

    The same incremental sums as `blind_rowcol_search`, S plus the line's term
    changes (every candidate summed from scratch in a one-row or one-column
    layout), so its readings are the ones that search must give bit for bit.
    """
    scenario, config = _reference_start(feedback, initial)
    table, prefactor = feedback.table, feedback.prefactor
    n_rows, n_cols = config.shape
    k = scenario.codebook.size
    step = (np.roll(table, -1, axis=1) - table).reshape(n_rows, n_cols, k)
    units = (np.arange(n_rows)[:, None], np.arange(n_cols)[None, :])
    from_scratch = n_rows == 1 or n_cols == 1
    trace = SearchLog()
    best = feedback.measure(config)
    trace.record(True, best)
    for _ in range(passes):
        s = complex(table[np.arange(table.shape[0]), config.reshape(-1)].sum())
        for axis in (0, 1):
            deltas = step[units + (config,)].sum(axis=axis).tolist()
            for i, delta in enumerate(deltas):
                line = np.s_[:, i] if axis == 0 else np.s_[i, :]
                if from_scratch:
                    cand_config = config.copy()
                    cand_config[line] = (cand_config[line] + 1) % k
                    idx = cand_config.reshape(-1)
                    cand = complex(table[np.arange(table.shape[0]), idx].sum())
                else:
                    cand = s + delta
                p = feedback.read(prefactor * abs(cand) ** 2)
                if p >= best:
                    config[line] = (config[line] + 1) % k
                    s, best = cand, p
                    trace.record(True, p)
                else:
                    trace.record(False, p)
    return config, trace


def stepwise_greedy_search(feedback, initial=None, max_rounds=8):
    """Greedy element search with one `read` per candidate and no block reads.

    The same incremental sums as `greedy_element_search`, (S - T[n, cur]) +
    T[n, idx], so its readings are the ones that search must give bit for bit.
    """
    scenario, config = _reference_start(feedback, initial)
    table, prefactor = feedback.table, feedback.prefactor
    terms = table.tolist()
    held = config.reshape(-1).tolist()
    trace = SearchLog()
    best = feedback.measure(config)
    trace.record(True, best)
    for _ in range(max_rounds):
        changed = False
        s = complex(table[np.arange(len(held)), held].sum())
        for n, row in enumerate(terms):
            cur = held[n]
            for idx in range(scenario.codebook.size):
                if idx == cur:
                    continue
                cand = (s - row[cur]) + row[idx]
                p = feedback.read(prefactor * abs(cand) ** 2)
                gain = p > best
                if gain:
                    s, best, cur, changed = cand, p, idx, True
                trace.record(gain, p)
            held[n] = cur
        if not changed:
            break
    return np.array(held, dtype=int).reshape(config.shape), trace


def reference_powers(prefactor, sums):
    """prefactor * abs(s) ** 2 of each channel sum, one Python complex at a time."""
    return [prefactor * abs(complex(s)) ** 2 for s in sums]


def brute_force_optimum(scenario):
    """Exhaustive search over all codebook configurations, refused above 20 search bits
    (bits * n_units).  Blocks of 1024 configurations in itertools.product order (unit 0
    the leading digit) sum the term table by gather; the first strict maximum keeps the
    lexicographically smallest of tied optima."""
    n, k = scenario.layout.n_units, scenario.codebook.size
    if scenario.codebook.bits * n > 20:
        raise ValueError(f"{scenario.codebook.bits * n} search bits exceed the 20-bit "
                         "brute-force cap")
    feedback = rl.FeedbackChannel(scenario)
    place = k ** np.arange(n - 1, -1, -1)
    best_cfg, best_p = None, -1.0
    for lo in range(0, k ** n, 1024):
        digits = np.arange(lo, min(lo + 1024, k ** n))[:, None] // place % k
        p = _powers(feedback.prefactor, feedback.table[np.arange(n), digits].sum(axis=1))
        i = int(p.argmax())
        if p[i] > best_p:
            best_cfg, best_p = digits[i].copy(), float(p[i])
    return best_cfg.reshape(scenario.layout.n_rows, scenario.layout.n_cols), best_p


def reference_brute_force_optimum(scenario):
    """Exhaustive search one configuration at a time, in itertools.product order,
    each read by `FeedbackChannel.power`; strict `>` keeps the first optimum."""
    power = rl.FeedbackChannel(scenario).power
    best_cfg, best_p = None, -1.0
    for flat in itertools.product(range(scenario.codebook.size), repeat=scenario.layout.n_units):
        p = power(np.array(flat, dtype=int))
        if p > best_p:
            best_cfg, best_p = flat, p
    return np.array(best_cfg, dtype=int).reshape(scenario.layout.n_rows,
                                                 scenario.layout.n_cols), best_p


# ------------------------------------------------- zenith route

def zenith_gain(antenna, zenith):
    """Linear gain of `antenna` toward an element-relative `zenith` (radians), scalar or
    ndarray: its cos^q pattern, zero behind the aperture plane (zenith > pi/2)."""
    z = np.asarray(zenith, dtype=float)
    g = antenna.gain_from_cosine(np.cos(np.minimum(z, math.pi / 2)))
    out = np.where(z <= math.pi / 2, g, 0.0)
    return out if out.ndim else float(out)


def zenith_area(geometric_area, zenith):
    """Projected aperture of a unit cell seen at `zenith` in [0, pi/2]: A cos(zenith)."""
    a = geometric_area * np.cos(zenith)
    return a if isinstance(a, np.ndarray) else float(a)


def received_power_expanded(scenario, configuration=None, phases=None, current=None):
    """Received power via the fully expanded product form, independent of the link kernel.

    The kernel takes gains and apertures straight from departure cosines; this
    route turns each cosine into a zenith (arccos), then takes the cos^q gains
    and the apertures A cos of it, every factor under one square root.  Every
    unit runs at the per-unit supply `current` in A (None for the amplifier's
    top calibrated current, where the link kernel runs).
    """
    amplifier = scenario.amplifier
    unit_gains = rl.from_db(amplifier.gain_db(
        np.full(scenario.layout.n_units, amplifier.top_current if current is None else current)))
    idx = _phase_indices(scenario, configuration)
    r_t, c_t = ranges_and_cosines(spherical_to_cartesian(scenario.tx_pose), scenario.layout)
    r_r, c_r = ranges_and_cosines(spherical_to_cartesian(scenario.rx_pose), scenario.layout)
    zen_t, zen_r = np.arccos(c_t), np.arccos(c_r)
    area = scenario.layout.element_area
    amp = np.sqrt(
        zenith_gain(scenario.tx_antenna, zen_t)
        * zenith_gain(scenario.rx_antenna, zen_r)
        * unit_gains
        * zenith_area(area, zen_t)
        * zenith_area(area, zen_r)
    ) / (r_t * r_r)
    ph = (scenario.codebook.phases()[idx] + scenario.phase_errors if phases is None
          else np.asarray(phases, dtype=float).reshape(-1))
    phi_prop = 2.0 * math.pi * (r_t + r_r) / scenario.wavelength
    # one exponential per phase: their difference, ~1e3 rad, would carry ~1e-13 rad of rounding
    total = np.sum(amp * np.exp(1j * ph) * np.exp(-1j * phi_prop))
    return scenario.tx_power / SIXTEEN_PI_SQ * float(np.abs(total)) ** 2


# ------------------------------------------------- scalar geometry and channel oracles

def element_position(layout, row: int, col: int) -> np.ndarray:
    """Center of the unit cell at 1-based (row, col), shape (3,).

    The grid is centered on the origin.  The x offset runs with the column
    index and the y offset against the row index, so row 1 sits at the top
    (largest y) when the surface is viewed from +z.
    """
    if not (1 <= row <= layout.n_rows and 1 <= col <= layout.n_cols):
        raise ValueError(
            f"element ({row}, {col}) outside {layout.n_rows}x{layout.n_cols} layout"
        )
    off_x = col - (layout.n_cols + 1) / 2.0
    off_y = (layout.n_rows + 1) / 2.0 - row
    return np.array([off_x * layout.pitch_x, off_y * layout.pitch_y, 0.0])


def distance(a, b) -> float:
    """Euclidean distance between two cartesian points."""
    return float(np.linalg.norm(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))


def departure_zenith(point, element) -> float:
    """Angle between the unit cell's normal and the direction toward `point`.

    The normal sign follows the point's half-space (+z above the plane, -z
    below), so the result is always folded into [0, pi/2]; a point exactly in
    the plane sees pi/2.  Raises ValueError on coincident points.
    """
    d = np.asarray(point, dtype=float) - np.asarray(element, dtype=float)
    r = float(np.linalg.norm(d))
    if r == 0.0:
        raise ValueError("point coincides with the element")
    return float(np.arccos(min(abs(d[2]) / r, 1.0)))


def channel_coefficient(point, antenna, geometric_area, element, wl) -> complex:
    """Complex channel between an antenna at `point` and one unit cell.

    Amplitude sqrt(G(theta) * A(theta) / 4pi) / r with the spherical
    propagation phase exp(-j 2 pi r / lambda); theta is the element-relative
    zenith folded into [0, pi/2].
    """
    d = np.asarray(point, dtype=float) - np.asarray(element, dtype=float)
    r = float(np.linalg.norm(d))
    if r == 0.0:
        raise ValueError("antenna coincides with the element")
    zen = math.acos(min(abs(d[2]) / r, 1.0))
    amp = math.sqrt(zenith_gain(antenna, zen) * zenith_area(geometric_area, zen) / (4.0 * math.pi)) / r
    ph = -2.0 * math.pi * r / wl
    return complex(amp * math.cos(ph), amp * math.sin(ph))


def pose_channel_coefficient(pose, antenna, layout, row, col, wl) -> complex:
    """channel_coefficient for a spherical pose and a 1-based (row, col) element."""
    return channel_coefficient(
        spherical_to_cartesian(pose), antenna, layout.element_area,
        element_position(layout, row, col), wl,
    )


def propagation_phase(scenario, row, col) -> float:
    """Unwrapped two-hop phase 2 pi (r_t + r_r) / lambda for one element (radians)."""
    el = element_position(scenario.layout, row, col)
    r_t = float(np.linalg.norm(spherical_to_cartesian(scenario.tx_pose) - el))
    r_r = float(np.linalg.norm(spherical_to_cartesian(scenario.rx_pose) - el))
    return 2.0 * math.pi * (r_t + r_r) / scenario.wavelength


def received_signal(scenario, configuration=None, symbol=1.0, noise=None, rng=None, phases=None):
    """One received sample: sqrt(tx_power)/(4 pi) * (channel sum) * symbol + noise.

    `noise` injects an exact sample; otherwise a circularly symmetric Gaussian
    draw with the scenario's noise_variance is taken from `rng` (no noise when
    the variance is 0).  A noisy scenario without `noise` needs an `rng`, so
    the caller's seed pins every sample.
    """
    draw = noise is None and scenario.noise_variance > 0
    if draw and rng is None:
        raise ValueError(
            "received_signal needs an rng (or an explicit noise sample) "
            "when noise_variance > 0"
        )
    total = _channel_sums(scenario, _own_rx_point(scenario), [(configuration, phases)])[0, 0]
    y = math.sqrt(scenario.tx_power) / (4.0 * math.pi) * complex(total) * symbol
    if draw:
        scale = math.sqrt(scenario.noise_variance / 2.0)
        noise = complex(rng.normal(0.0, scale), rng.normal(0.0, scale))
    return y + (noise if noise is not None else 0.0)


def min_path_loss(scenario):
    """Path loss under perfectly aligned phases; max_received_power * min_path_loss == tx_power."""
    total = float(np.sum(np.abs(rl.element_weights(scenario)))) ** 2
    return SIXTEEN_PI_SQ / total if total else math.inf  # every element weight is zero


# ------------------------------------------------- array-kernel oracles

def reference_ranges_and_cosines(point, elements):
    """Ranges by np.linalg.norm over the (..., 3) differences, cosines |dz| / r clipped to 1."""
    d = np.asarray(point, dtype=float) - np.asarray(elements, dtype=float)
    r = np.linalg.norm(d, axis=-1)
    return r, np.minimum(np.abs(d[..., 2]) / r, 1.0)


def reference_path_table(scenario, rx_points):
    """Amplitudes and two-hop phases (P, n_units) toward (P, 3) RX points, from the
    generic (point, elements) geometry and one expression per figure, each a fresh
    array: sqrt(g_t g_r) / (r_t r_r) * sigma and 2 pi (r_t + r_r) / lambda."""
    els, area = element_grid(scenario.layout), scenario.layout.element_area
    r_t, c_t = reference_ranges_and_cosines(spherical_to_cartesian(scenario.tx_pose), els)
    r_r, c_r = reference_ranges_and_cosines(np.asarray(rx_points)[:, None, :], els)
    g_t = scenario.tx_antenna.gain_from_cosine(c_t)
    g_r = scenario.rx_antenna.gain_from_cosine(c_r)
    amplifier = scenario.amplifier
    gain_area_t = rl.from_db(amplifier.gain_db(amplifier.top_current)) * (area * c_t)
    sigma = np.sqrt(gain_area_t * (area * c_r))
    phi = 2.0 * math.pi * (r_t + r_r) / scenario.wavelength
    return np.sqrt(g_t * g_r) / (r_t * r_r) * sigma, phi


def reference_channel_sums(scenario, rx_points, configurations):
    """Channel sums (K, P) of codebook configurations over `reference_path_table`."""
    amp, phi = reference_path_table(scenario, rx_points)
    w = amp * np.exp(-1j * phi)
    return np.array([np.sum(w * np.exp(1j * scenario.programmed_phases(np.reshape(c, -1))),
                            axis=-1) for c in configurations])


def reference_transmission_side_pose(r, angle_deg, azimuth_deg=0.0):
    """Transmission-side pose taken with the math module, one angle at a time."""
    phi = math.radians(azimuth_deg) + (math.pi if angle_deg < 0 else 0.0)
    return rl.SphericalPose(r, math.pi - math.radians(abs(angle_deg)), phi % (2.0 * math.pi))


def reference_transmission_side_points(r, angles_deg, azimuth_deg=0.0):
    """(P, 3) RX points, one `spherical_to_cartesian` of a math-module pose per angle."""
    return np.array([spherical_to_cartesian(reference_transmission_side_pose(r, a, azimuth_deg))
                     for a in np.asarray(angles_deg, dtype=float).tolist()])


def reference_continuous_sum(scenario, pose):
    """Channel sum at `pose` under perfectly aligned phases: sum_n |w_n| (real)."""
    return float(np.sum(np.abs(rl.element_weights(replace(scenario, rx_pose=pose)))))


# ------------------------------------------------- reference quantizer and sweep

def reference_nearest_quantize(phases, codebook):
    """Argmin over the whole (..., K) table of wrapped distances; ties within 1e-12 go low."""
    ph = np.asarray(phases, dtype=float)
    dist = np.abs(wrap_to_pi(ph[..., None] - codebook.phases()))
    dmin = dist.min(axis=-1, keepdims=True)
    return np.argmax(dist <= dmin + 1e-12, axis=-1).astype(int)


def reference_pose_sweep(scenario, variable, values, poses, method, seed=0):
    """Per-point sweep: a new scenario, a beamforming pass and the public link figures per pose."""
    rows, digests = [], []
    seeds = np.random.SeedSequence(seed).spawn(len(values))
    for pose, s in zip(poses, seeds):
        scn = replace(scenario, rx_pose=pose)
        bf = rl.apply_beamforming(scn, method, s)
        rows.append((rl.watts_to_dbm(rl.received_power(scn, bf.configuration, bf.phases)),
                     rl.path_loss_db(scn, bf.configuration, bf.phases)))
        digests.append(bf.digest)
    p_dbm, pl_db = np.array(rows).T
    return SweepResult(variable, np.asarray(values, dtype=float), p_dbm, pl_db, digests)

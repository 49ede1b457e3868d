"""End-to-end link evaluation: received signal/power and the scattering-area path loss.

Two independent routes to the received power are kept side by side: the
scattering-area form (per-unit RCS sigma_n) and the fully expanded product
form.  They must agree to float precision; tests rely on both existing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channel import AntennaModel, SPEED_OF_LIGHT, effective_area
from .geometry import (
    ArrayLayout,
    SphericalPose,
    element_grid,
    element_position,
    ranges_and_zeniths,
    spherical_to_cartesian,
)
from .ris import AmplifierModel, PhaseCodebook, PhaseJitterModel, UnitState

FOUR_PI = 4.0 * math.pi
SIXTEEN_PI_SQ = 16.0 * math.pi ** 2


class InfinitePathLossError(ValueError):
    """The programmed configuration nulls the received field exactly."""


@dataclass(frozen=True)
class Scenario:
    """One physical link: geometry, antennas, surface hardware, and power levels.

    The TX pose must sit on the incidence side of the surface (z > 0) and the
    RX pose on the transmission side (z < 0), or vice versa; the surface only
    forwards power across the plane.
    """

    frequency: float
    tx_pose: SphericalPose
    rx_pose: SphericalPose
    layout: ArrayLayout
    tx_antenna: AntennaModel = AntennaModel()
    rx_antenna: AntennaModel = AntennaModel()
    codebook: PhaseCodebook = PhaseCodebook()
    amplifier: AmplifierModel = AmplifierModel()
    tx_power: float = 1.0
    noise_variance: float = 0.0
    jitter: PhaseJitterModel | None = None

    def __post_init__(self):
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")
        if self.tx_power < 0:
            raise ValueError("tx_power must be >= 0")
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be >= 0")
        z_t = spherical_to_cartesian(self.tx_pose)[2]
        z_r = spherical_to_cartesian(self.rx_pose)[2]
        if not z_t * z_r < 0:
            raise ValueError(
                "TX and RX must sit strictly on opposite sides of the array plane"
            )

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency


def uniform_states(scenario: Scenario, phase_index: int = 0,
                   current: float | None = None,
                   attenuation: float = 1.0) -> list[UnitState]:
    """Identical state for every unit; current defaults to the amplifier's top anchor."""
    if current is None:
        current = scenario.amplifier.top_current
    return [UnitState(phase_index, current, attenuation)] * scenario.layout.n_units


def states_from_configuration(scenario: Scenario, configuration,
                              current: float | None = None,
                              attenuation: float = 1.0) -> list[UnitState]:
    """Row-major states from an (n_rows, n_cols) or flat phase-index grid."""
    idx = np.asarray(configuration, dtype=int).reshape(-1)
    if idx.size != scenario.layout.n_units:
        raise ValueError(
            f"configuration has {idx.size} entries for {scenario.layout.n_units} units"
        )
    if current is None:
        current = scenario.amplifier.top_current
    return [UnitState(int(k), current, attenuation) for k in idx]


def _element_paths(scenario: Scenario):
    """(r_t, zen_t, r_r, zen_r) per element, row-major."""
    els = element_grid(scenario.layout)
    r_t, zen_t = ranges_and_zeniths(spherical_to_cartesian(scenario.tx_pose), els)
    r_r, zen_r = ranges_and_zeniths(spherical_to_cartesian(scenario.rx_pose), els)
    return r_t, zen_t, r_r, zen_r


def _state_arrays(scenario: Scenario, states: Sequence[UnitState]):
    """(phase indices, currents, attenuations) as arrays, with bound checks."""
    if len(states) != scenario.layout.n_units:
        raise ValueError(
            f"{len(states)} states for {scenario.layout.n_units} units"
        )
    idx = np.array([s.phase_index for s in states])
    if np.any(idx >= scenario.codebook.size):
        raise ValueError(f"phase index outside {scenario.codebook.size}-entry codebook")
    cur = np.array([s.current for s in states])
    att = np.array([s.attenuation for s in states])
    return idx, cur, att


def propagation_phase(scenario: Scenario, row: int, col: int) -> float:
    """Unwrapped two-hop phase 2 pi (r_t + r_r) / lambda for one element (radians)."""
    el = element_position(scenario.layout, row, col)
    r_t = float(np.linalg.norm(spherical_to_cartesian(scenario.tx_pose) - el))
    r_r = float(np.linalg.norm(spherical_to_cartesian(scenario.rx_pose) - el))
    return 2.0 * math.pi * (r_t + r_r) / scenario.wavelength


def propagation_phases(scenario: Scenario) -> np.ndarray:
    """Unwrapped two-hop phases for every element, shape (n_units,), row-major."""
    r_t, _, r_r, _ = _element_paths(scenario)
    return 2.0 * math.pi * (r_t + r_r) / scenario.wavelength


def phase_error_realization(scenario: Scenario):
    """Fixed per-unit phase-shifter errors (the jitter seed pins them); 0.0 when jitter is off."""
    if scenario.jitter is None:
        return 0.0
    return scenario.jitter.sample(scenario.layout.n_units)


def unit_phases(scenario: Scenario, states: Sequence[UnitState]) -> np.ndarray:
    """Programmed per-unit phases: codebook entries plus the jitter realization."""
    idx, _, _ = _state_arrays(scenario, states)
    return _programmed_phases(scenario, idx, None)


def _programmed_phases(scenario: Scenario, idx: np.ndarray, phases) -> np.ndarray:
    """Effective per-unit phases: explicit `phases` bypass codebook and jitter."""
    if phases is None:
        return scenario.codebook.phases()[idx] + phase_error_realization(scenario)
    ph = np.asarray(phases, dtype=float).reshape(-1)
    if ph.size != scenario.layout.n_units:
        raise ValueError(f"{ph.size} phases for {scenario.layout.n_units} units")
    return ph


# Element budget (RX points x units) of one kernel chunk.  A whole 4x8 pattern
# cut (341 points) is one chunk and a 64x64 chunk holds four points, so the
# (points, units) temporaries stay small at any surface size.
_CHUNK_ELEMENTS = 2 ** 14


def _weight_chunks(scenario: Scenario, rx_points: np.ndarray, cur: np.ndarray,
                   att: np.ndarray):
    """Yield (first point, weights) per chunk of RX points, weights shaped (chunk, n_units).

    The weight expression of `element_weights` broadcast over a leading pose
    axis.  The TX leg and the unit gains are computed once for every chunk;
    each point must sit on the other side of the plane from the TX, as
    `Scenario` requires of its own RX pose.
    """
    p_t = spherical_to_cartesian(scenario.tx_pose)
    if not np.all(p_t[2] * rx_points[:, 2] < 0):
        raise ValueError(
            "TX and RX must sit strictly on opposite sides of the array plane"
        )
    els = element_grid(scenario.layout)
    r_t, zen_t = ranges_and_zeniths(p_t, els)
    g_t = scenario.tx_antenna.gain(zen_t)
    area = scenario.layout.element_area
    gain_area_t = scenario.amplifier.gain_linear(cur) * effective_area(area, zen_t)
    step = max(1, _CHUNK_ELEMENTS // scenario.layout.n_units)
    for lo in range(0, len(rx_points), step):
        r_r, zen_r = ranges_and_zeniths(rx_points[lo:lo + step, None, :], els)
        g_r = scenario.rx_antenna.gain(zen_r)
        sigma = att * np.sqrt(gain_area_t * effective_area(area, zen_r))
        phi_prop = 2.0 * math.pi * (r_t + r_r) / scenario.wavelength
        yield lo, np.sqrt(g_t * g_r) / (r_t * r_r) * sigma * np.exp(-1j * phi_prop)


def _unit_terms(scenario: Scenario, states: Sequence[UnitState] | None, phases):
    """(currents, attenuations, exp(j phi_n)) from one repacking of the states."""
    if states is None:
        states = uniform_states(scenario)
    idx, cur, att = _state_arrays(scenario, states)
    return cur, att, np.exp(1j * _programmed_phases(scenario, idx, phases))


def _own_rx_point(scenario: Scenario) -> np.ndarray:
    """The scenario's RX pose as a (1, 3) batch of points."""
    return spherical_to_cartesian(scenario.rx_pose)[None]


def _own_weights(scenario: Scenario, cur: np.ndarray, att: np.ndarray) -> np.ndarray:
    """The kernel's weight row toward the scenario's own RX pose, shape (n_units,)."""
    return next(_weight_chunks(scenario, _own_rx_point(scenario), cur, att))[1][0]


def _channel_sums(scenario: Scenario, rx_points, states: Sequence[UnitState] | None = None,
                  phases=None) -> np.ndarray:
    """Channel sums S[p] = sum_n w[p, n] exp(j phi_n) toward each of (P, 3) RX points, shape (P,).

    One evaluation serves both link figures: P_r = P_t / (16 pi^2) |S|^2 and
    PL = 16 pi^2 / |S|^2.  States and programmed phases are resolved once
    per call, whatever P is.
    """
    cur, att, rot = _unit_terms(scenario, states, phases)
    pts = np.asarray(rx_points, dtype=float).reshape(-1, 3)
    sums = np.empty(len(pts), dtype=complex)
    for lo, w in _weight_chunks(scenario, pts, cur, att):
        sums[lo:lo + len(w)] = np.sum(w * rot, axis=-1)
    return sums


def _channel_sum(scenario: Scenario, states, phases) -> complex:
    """The kernel at the scenario's own RX pose (P = 1)."""
    return _channel_sums(scenario, _own_rx_point(scenario), states, phases)[0]


def element_weights(scenario: Scenario, states: Sequence[UnitState] | None = None) -> np.ndarray:
    """Complex per-element weights of the scattering-area sum, shape (n_units,).

    w_n = sqrt(G_t G_r) / (r_t r_r) * sigma_n * exp(-j Phi_n) with Phi_n the
    two-hop propagation phase; the received power is then
    tx_power / (16 pi^2) * |sum_n w_n exp(j phi_n)|^2 over the programmed
    phases phi_n.
    """
    if states is None:
        states = uniform_states(scenario)
    _, cur, att = _state_arrays(scenario, states)
    return _own_weights(scenario, cur, att)


def _link_budget_db(scenario: Scenario, channel_sum: complex) -> tuple[float, float]:
    """(received power in dBm, path loss in dB) from one channel sum's |S|^2.

    An exact null fails in watts_to_dbm, as received_power -> watts_to_dbm does.
    """
    ssq = float(np.abs(channel_sum)) ** 2
    dbm = watts_to_dbm(scenario.tx_power / SIXTEEN_PI_SQ * ssq)
    if ssq == 0.0:
        raise InfinitePathLossError("configuration nulls the received field")
    return dbm, to_db(SIXTEEN_PI_SQ / ssq)


def received_power(scenario: Scenario, states: Sequence[UnitState] | None = None,
                   phases=None) -> float:
    """Noiseless received power in watts via the scattering-area sum.

    `phases` (radians, any shape matching the layout) overrides the codebook
    phases exactly — no quantization, no jitter.
    """
    total = _channel_sum(scenario, states, phases)
    return scenario.tx_power / SIXTEEN_PI_SQ * float(np.abs(total)) ** 2


def received_power_expanded(scenario: Scenario,
                            states: Sequence[UnitState] | None = None,
                            phases=None) -> float:
    """Received power via the fully expanded product form (no RCS intermediate).

    Kept deliberately separate from received_power so the two derivations can
    be checked against each other.
    """
    if states is None:
        states = uniform_states(scenario)
    idx, cur, att = _state_arrays(scenario, states)
    r_t, zen_t, r_r, zen_r = _element_paths(scenario)
    area = scenario.layout.element_area
    amp = att * np.sqrt(
        scenario.tx_antenna.gain(zen_t)
        * scenario.rx_antenna.gain(zen_r)
        * scenario.amplifier.gain_linear(cur)
        * effective_area(area, zen_t)
        * effective_area(area, zen_r)
    ) / (r_t * r_r)
    ph = _programmed_phases(scenario, idx, phases)
    phi_prop = 2.0 * math.pi * (r_t + r_r) / scenario.wavelength
    total = np.sum(amp * np.exp(1j * (ph - phi_prop)))
    return scenario.tx_power / SIXTEEN_PI_SQ * float(np.abs(total)) ** 2


def received_signal(scenario: Scenario, states: Sequence[UnitState] | None = None,
                    symbol: complex = 1.0, noise: complex | None = None,
                    rng: np.random.Generator | None = None, phases=None) -> complex:
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
    total = _channel_sum(scenario, states, phases)
    y = math.sqrt(scenario.tx_power) / FOUR_PI * complex(total) * symbol
    if draw:
        scale = math.sqrt(scenario.noise_variance / 2.0)
        noise = complex(rng.normal(0.0, scale), rng.normal(0.0, scale))
    return y + (noise if noise is not None else 0.0)


def path_loss(scenario: Scenario, states: Sequence[UnitState] | None = None,
              phases=None) -> float:
    """Transmit-to-receive power ratio (linear, >= 1 is a loss).

    Raises InfinitePathLossError when the configuration nulls the field
    exactly.
    """
    ssq = float(np.abs(_channel_sum(scenario, states, phases))) ** 2
    if ssq == 0.0:
        raise InfinitePathLossError("configuration nulls the received field")
    return SIXTEEN_PI_SQ / ssq


def path_loss_db(scenario: Scenario, states: Sequence[UnitState] | None = None,
                 phases=None) -> float:
    return to_db(path_loss(scenario, states, phases))


def continuous_optimal_phases(scenario: Scenario, constant: float = 0.0) -> np.ndarray:
    """Per-unit phases that align every element's contribution, in [0, 2 pi).

    Any shared `constant` gives the same power; it only rotates the received
    sample.
    """
    return np.mod(constant + propagation_phases(scenario), 2.0 * math.pi)


def max_received_power(scenario: Scenario,
                       states: Sequence[UnitState] | None = None) -> float:
    """Received power under perfectly aligned (continuous) phases: coherent |w| sum."""
    w = element_weights(scenario, states)
    return scenario.tx_power / SIXTEEN_PI_SQ * float(np.sum(np.abs(w))) ** 2


def min_path_loss(scenario: Scenario,
                  states: Sequence[UnitState] | None = None) -> float:
    """Path loss under perfectly aligned phases; max_received_power * min_path_loss == tx_power."""
    total = float(np.sum(np.abs(element_weights(scenario, states)))) ** 2
    if total == 0.0:
        raise InfinitePathLossError("every element weight is zero")
    return SIXTEEN_PI_SQ / total


@dataclass
class LinkResult:
    """Evaluated link: power, loss, and the per-element complex terms behind them."""

    received_power: float
    path_loss: float
    terms: np.ndarray = field(repr=False)


def evaluate_link(scenario: Scenario, states: Sequence[UnitState] | None = None,
                  phases=None) -> LinkResult:
    """received_power and path_loss in one pass, sharing the per-element terms."""
    cur, att, rot = _unit_terms(scenario, states, phases)
    terms = _own_weights(scenario, cur, att) * rot
    ssq = float(np.abs(np.sum(terms))) ** 2
    if ssq == 0.0:
        raise InfinitePathLossError("configuration nulls the received field")
    return LinkResult(scenario.tx_power / SIXTEEN_PI_SQ * ssq, SIXTEEN_PI_SQ / ssq, terms)


def to_db(x) -> float:
    """Linear power ratio to dB."""
    return float(10.0 * np.log10(x))


def from_db(db):
    """dB to linear power ratio: a float for scalar input, an ndarray for array input."""
    ratio = 10.0 ** (np.asarray(db, dtype=float) / 10.0)
    return ratio if ratio.ndim else float(ratio)


def watts_to_dbm(p: float) -> float:
    if p <= 0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(p * 1e3)

"""End-to-end link evaluation: received signal/power and the scattering-area path loss.

Every link figure comes from one kernel, the scattering-area sum over the
per-unit RCS sigma_n taken from departure cosines.  Its independent twin, the
fully expanded product form over departure zeniths, lives with the tests
(`tests/helpers.py`); the two must agree to float precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import AntennaModel, SPEED_OF_LIGHT
from .geometry import ArrayLayout, SphericalPose, ranges_and_cosines, spherical_to_cartesian
from .ris import AmplifierModel, PhaseCodebook, PhaseJitterModel

SIXTEEN_PI_SQ = 16.0 * math.pi ** 2


@dataclass(frozen=True)
class Scenario:
    """One physical link: geometry, antennas, surface hardware, and power levels.

    The TX pose must sit on the incidence side of the surface (z > 0) and the
    RX pose on the transmission side (z < 0), or vice versa; the surface only
    forwards power across the plane.

    Angle sweeps and cuts turn the RX in the plane of azimuth `rx_plane_deg`, fixed when the
    scenario is built (None: the RX pose's own azimuth), so `replace(scenario, rx_pose=...)`
    keeps it, as the sweeps and steerings that move the RX within it need.
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
    rx_plane_deg: float | None = None

    def __post_init__(self):
        for name in ("frequency", "tx_power"):  # no power reaches the RX at tx_power 0
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        if not 0 <= self.noise_variance < math.inf:
            raise ValueError(f"noise_variance must be finite and >= 0, got {self.noise_variance!r}")
        z_t, z_r = (spherical_to_cartesian(pose)[2] for pose in (self.tx_pose, self.rx_pose))
        if not np.sign(z_t) * z_r < 0:  # as the kernel: z_t * z_r underflows at tiny ranges
            raise ValueError("TX and RX must sit strictly on opposite sides of the array plane")
        if self.rx_plane_deg is None:
            object.__setattr__(self, "rx_plane_deg", math.degrees(self.rx_pose.phi))

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency

    @cached_property
    def phase_errors(self):
        """Fixed per-unit phase-shifter errors (the jitter seed pins them), drawn on
        first read and kept; 0.0 when jitter is off."""
        return 0.0 if self.jitter is None else self.jitter.sample(self.layout.n_units)

    def programmed_phases(self, idx) -> np.ndarray:
        """Phases the units radiate at codebook indices `idx` (..., n_units): each
        unit's codebook entry plus its own fixed error."""
        return self.codebook.phases()[idx] + self.phase_errors

    def unit_gain_db(self, currents):
        """Unit gain G_u(c / n) / G_u(top) in dB of each array current c, split evenly over
        the n units (top: the link's current); raises as `AmplifierModel.gain_db` does."""
        split = np.asarray(currents, dtype=float) / self.layout.n_units
        return self.amplifier.gain_db(split) - self.amplifier.gain_db(self.amplifier.top_current)


def _per_unit(scenario: Scenario, values, what: str) -> np.ndarray:
    """`values` flattened, one entry per unit: flat (n_units,) or (n_rows, n_cols), row-major."""
    a, grid = np.asarray(values), (scenario.layout.n_rows, scenario.layout.n_cols)
    if a.size != scenario.layout.n_units:
        raise ValueError(f"{what} has {a.size} entries for {scenario.layout.n_units} units")
    if a.ndim != 1 and a.shape != grid:
        raise ValueError(f"{what} has shape {a.shape}, not ({a.size},) or {grid}")
    return a.reshape(-1)


def _phase_indices(scenario: Scenario, configuration) -> np.ndarray:
    """Flat codebook indices of a grid in `_per_unit`'s shapes, checked; None: all zeros."""
    if configuration is None:
        return np.zeros(scenario.layout.n_units, dtype=int)
    idx = _per_unit(scenario, configuration, "configuration")
    if idx.dtype.kind not in "iu":
        raise ValueError(f"phase_index must hold integers, got dtype {idx.dtype}")
    if (idx < 0).any():
        raise ValueError("phase_index must be >= 0")
    if (idx >= scenario.codebook.size).any():
        raise ValueError(f"phase index outside {scenario.codebook.size}-entry codebook")
    return idx


# Element budget (RX points x units) of one kernel chunk.  A whole 4x8 pattern
# cut (341 points) is one chunk and a 64x64 chunk holds four points, so the
# (points, units) temporaries stay small at any surface size.
_CHUNK_ELEMENTS = 2 ** 14


def _weight_chunks(scenario: Scenario, rx_points: np.ndarray):
    """Yield (first point, amplitudes, two-hop phases) per chunk of RX points, each
    (chunk, n_units): the path table w = amp exp(-j phi) of `element_weights` over a
    pose axis, G_u at the top calibrated current.  The TX leg is computed once per
    call.  Every point must sit across the plane from the TX, as `Scenario` requires, and each
    phase and P_t / (16 pi^2) B^2 in mW be finite floats, B = sum_n amp_n (1 + N K 2^-49): any
    channel sum a kernel call, table or search forms, and float sum_n amp_n, are together under
    16 N K roundings of <= 2^-53 B from exact (greedy's running sum takes 2 N (K - 1) a round).
    """
    p_t = spherical_to_cartesian(scenario.tx_pose)
    if not np.all(np.sign(p_t[2]) * rx_points[:, 2] < 0):  # a sign: no product over- or underflows
        raise ValueError("TX and RX must sit strictly on opposite sides of the array plane")
    layout, area = scenario.layout, scenario.layout.element_area
    r_t, c_t = ranges_and_cosines(p_t, layout)
    g_t = scenario.tx_antenna.gain_from_cosine(c_t)
    amplifier = scenario.amplifier
    with np.errstate(all="ignore"):  # an overflow (or NaN) fails below, in each chunk's check
        gain_area_t = from_db(amplifier.gain_db(amplifier.top_current)) * (area * c_t)
    step = max(1, _CHUNK_ELEMENTS // layout.n_units)
    margin = 1.0 + layout.n_units * scenario.codebook.size * 2.0 ** -49
    for lo in range(0, len(rx_points), step):
        r_r, c_r = ranges_and_cosines(rx_points[lo:lo + step], layout)
        # sqrt(g_t g_r) / (r_t r_r) * sigma and 2 pi (r_t + r_r) / lambda, in place
        amp, phi = scenario.rx_antenna.gain_from_cosine(c_r), r_t + r_r
        with np.errstate(all="ignore"):  # a phase or amplitude that overflows (or NaN) fails below
            np.multiply(area, c_r, out=c_r)  # the RX leg's aperture A c_r
            sigma = np.sqrt(np.multiply(gain_area_t, c_r, out=c_r), out=c_r)
            np.divide(np.multiply(2.0 * math.pi, phi, out=phi), scenario.wavelength, out=phi)
            np.sqrt(np.multiply(g_t, amp, out=amp), out=amp)
            np.divide(amp, np.multiply(r_t, r_r, out=r_r), out=amp)
            top = float(np.multiply(amp, sigma, out=amp).sum(axis=-1).max()) * margin
        if not scenario.tx_power / SIXTEEN_PI_SQ * (top * top) * 1e3 < math.inf:
            raise ValueError("received power overflows a float")
        if not phi.max() < math.inf:
            raise ValueError("two-hop phase overflows a float")
        yield lo, amp, phi


def _own_rx_point(scenario: Scenario) -> np.ndarray:
    """The scenario's RX pose as a (1, 3) batch of points."""
    return spherical_to_cartesian(scenario.rx_pose)[None]


def _channel_sums(scenario: Scenario, rx_points, programs) -> np.ndarray:
    """Channel sums S[k, p] = sum_n w[p, n] exp(j phi_kn) of each (configuration, phases)
    program k toward each of (P, 3) RX points, shape (K, P): P_r = P_t / (16 pi^2) |S|^2
    and PL = 16 pi^2 / |S|^2.  Each chunk's path table w = amp exp(-j Phi) is formed
    once for all K programs, in one complex buffer that every chunk reuses.
    """
    rots = []
    for configuration, phases in programs:  # explicit phases bypass codebook and jitter
        idx = _phase_indices(scenario, configuration)
        ph = (scenario.programmed_phases(idx) if phases is None
              else _per_unit(scenario, np.asarray(phases, dtype=float), "phase array"))
        rots.append(np.exp(1j * ph))
    pts = np.asarray(rx_points, dtype=float).reshape(-1, 3)
    sums = np.empty((len(rots), len(pts)), dtype=complex)
    buf = None  # the first chunk is the largest
    for lo, amp, phi in _weight_chunks(scenario, pts):
        buf = np.empty(amp.shape, dtype=complex) if buf is None else buf
        w = _phasors(buf[:len(amp)], amp, phi)
        sums[:, lo:lo + len(w)] = [np.sum(w * rot, axis=-1) for rot in rots]
    return sums


def _phasors(out, amp, phase, turn=-1j) -> np.ndarray:
    """amp * np.exp(turn * phase) bit for bit, each step in place in the complex buffer `out`."""
    np.exp(np.multiply(turn, phase, out=out), out=out)
    return np.multiply(amp, out, out=out)


def element_weights(scenario: Scenario) -> np.ndarray:
    """Complex per-element weights of the scattering-area sum, shape (n_units):
    w_n = sqrt(G_t G_r) / (r_t r_r) * sigma_n * exp(-j Phi_n), Phi_n the two-hop phase,
    so P_r = tx_power / (16 pi^2) * |sum_n w_n exp(j phi_n)|^2 over programmed phi_n."""
    _, amp, phi = next(_weight_chunks(scenario, _own_rx_point(scenario)))
    return amp[0] * np.exp(-1j * phi[0])


def _link_budget_db(scenario: Scenario, sums) -> tuple[np.ndarray, np.ndarray]:
    """dBm and path-loss dB arrays of the channel sums `sums`, from |S|^2 = np.abs(S) ** 2.

    dBm takes math.log10 per value as watts_to_dbm does (numpy's log10 is an ulp off
    on ~2% of inputs), dB np.log10 of 16 pi^2 / |S|^2, or 10 log10(16 pi^2) - 10 log10 |S|^2
    where that ratio passes a float (|S|^2 below ~9e-307); an exact null reads -inf dBm, inf dB.
    Where P_r in mW underflows a normal float while |S|^2 > 0, dBm is 10 log10(P_t / 1 mW) - dB.
    """
    ssq = np.abs(np.asarray(sums)) ** 2
    p_mw = scenario.tx_power / SIXTEEN_PI_SQ * ssq * 1e3
    dbm = np.array([-math.inf if p == 0 else 10.0 * math.log10(p) for p in p_mw.tolist()])
    with np.errstate(divide="ignore", over="ignore"):
        db = 10.0 * np.log10(SIXTEEN_PI_SQ / ssq)
        tiny = np.isinf(db) & (ssq > 0)
        db[tiny] = 10.0 * math.log10(SIXTEEN_PI_SQ) - 10.0 * np.log10(ssq[tiny])
    lost = (p_mw < np.finfo(float).tiny) & (ssq > 0)
    dbm[lost] = watts_to_dbm(scenario.tx_power) - db[lost]
    return dbm, db


def received_power(scenario: Scenario, configuration=None, phases=None) -> float:
    """Noiseless received power (W), every unit at the top calibrated current, of the
    codebook-index grid `configuration` (flat or (n_rows, n_cols), None: all zeros) or of
    `phases` (radians), with no jitter; 0.0 where it underflows a float though |S|^2 > 0."""
    total = _channel_sums(scenario, _own_rx_point(scenario), [(configuration, phases)])[0, 0]
    return scenario.tx_power / SIXTEEN_PI_SQ * float(np.abs(total)) ** 2


def path_loss_db(scenario: Scenario, configuration=None, phases=None) -> float:
    """Path loss P_t/P_r in dB, as a sweep row reads it: inf when the configuration
    nulls the received field exactly."""
    sums = _channel_sums(scenario, _own_rx_point(scenario), [(configuration, phases)])
    return float(_link_budget_db(scenario, sums[0])[1][0])


def max_received_power(scenario: Scenario) -> float:
    """Received power (W) at perfectly aligned phases, sum_n |w_n| as continuous sweep rows
    take it; 0.0 where it underflows a float while the sum is > 0, as `received_power`."""
    _, amp, _ = next(_weight_chunks(scenario, _own_rx_point(scenario)))
    return scenario.tx_power / SIXTEEN_PI_SQ * float(np.sum(amp[0])) ** 2


def from_db(db):
    """dB to linear power ratio: a float for scalar input, an ndarray for array input.

    Too large a dB value gives inf quietly, for the caller's range check to name."""
    with np.errstate(over="ignore"):
        ratio = 10.0 ** (np.asarray(db, dtype=float) / 10.0)
    return ratio if ratio.ndim else float(ratio)


def watts_to_dbm(p: float) -> float:
    """Watts to dBm; 0 W reads -inf dBm: an exact null, or a power that underflowed in watts."""
    if not p >= 0:  # NaN fails p >= 0 too
        raise ValueError(f"power must be >= 0 to express in dBm, got {p!r}")
    return 10.0 * math.log10(p * 1e3) if p else -math.inf

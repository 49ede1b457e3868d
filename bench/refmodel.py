"""Independent reference model of the dual-RCS link, used to check rislink's outputs.

Nothing here imports rislink.  The physics is re-derived from the model the
package documents: every unit cell n on a centred rectangular grid (z = 0)
scatters with a transmissive RCS

    sigma_n = att * sqrt(G_u * A cos(zen_t) * A cos(zen_r))

and the received power is the coherent sum

    P_r = P_t / (16 pi^2) * |sum_n sqrt(G_t G_r) / (r_t r_r) * sigma_n
                              * exp(j (phi_n - 2 pi (r_t + r_r) / lambda))|^2

with cos^q horn patterns, an amplifier gain interpolated in dB between
calibration anchors, and an optional static phase error per unit drawn
uniformly within +-max from its own seed.  Config files are read with the
standard library's configparser and the package's documented defaults.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

C0 = 299792458.0

# (per-unit current A, gain dB): 0.01 A and 1.4 A split over a 4x8 surface
DEFAULT_CALIBRATION = ((0.01 / 32, 0.0), (1.4 / 32, 11.9))

# SP4T switch word (vcc1 vcc2 vcc3) per 2-bit phase index: 0, 90, 180, 270 deg
SP4T_WORDS = ("011", "001", "000", "010")

SWEEP_DEFAULTS = {
    "distance": (0.5, 5.0, 0.5),
    "angle": (0.0, 60.0, 10.0),
    "pattern": (-85.0, 85.0, 0.5),
}


@dataclass(frozen=True)
class Link:
    """Every physical parameter of one link, in config-file units (m, deg, dBi, W, Hz)."""

    frequency_hz: float = 2.6e9
    tx_distance_m: float = 0.6
    tx_zenith_deg: float = 0.0
    tx_azimuth_deg: float = 0.0
    rx_distance_m: float = 4.0
    rx_zenith_deg: float = 0.0
    rx_azimuth_deg: float = 0.0
    n_rows: int = 4
    n_cols: int = 8
    pitch_x_m: float = 0.06
    pitch_y_m: float = 0.06
    tx_gain_dbi: float = 15.0
    tx_exponent: float = 0.0
    rx_gain_dbi: float = 15.0
    rx_exponent: float = 0.0
    tx_power_w: float = 1.0
    noise_variance_w: float = 0.0
    codebook_bits: int = 2
    codebook_offset_deg: float = 0.0
    phase_jitter_max_deg: float = 0.0
    phase_jitter_seed: int = 0
    calibration: tuple = DEFAULT_CALIBRATION

    @property
    def n_units(self) -> int:
        return self.n_rows * self.n_cols

    @property
    def top_current(self) -> float:
        return self.calibration[-1][0]


@dataclass
class Sweep:
    name: str
    kind: str
    method: str = "quantized"
    start: float = 0.0
    stop: float = 0.0
    step: float = 1.0
    currents: tuple = ()
    steering_deg: float = 0.0


@dataclass
class Plan:
    link: Link
    sweeps: list = field(default_factory=list)


# ---------------------------------------------------------------- geometry

def side_point(r: float, angle_deg: float, azimuth_deg: float, transmission: bool) -> np.ndarray:
    """Cartesian point `angle_deg` off the surface normal; a negative angle turns the azimuth by 180 deg."""
    a = math.radians(abs(angle_deg))
    phi = math.radians(azimuth_deg) + (math.pi if angle_deg < 0 else 0.0)
    zen = math.pi - a if transmission else a
    return np.array([r * math.sin(zen) * math.cos(phi),
                     r * math.sin(zen) * math.sin(phi),
                     r * math.cos(zen)])


def tx_point(link: Link) -> np.ndarray:
    return side_point(link.tx_distance_m, link.tx_zenith_deg, link.tx_azimuth_deg, False)


def rx_point(link: Link, r=None, angle_deg=None) -> np.ndarray:
    """RX point, optionally moved to another range or off-normal angle (azimuth kept)."""
    return side_point(link.rx_distance_m if r is None else r,
                      link.rx_zenith_deg if angle_deg is None else angle_deg,
                      link.rx_azimuth_deg, True)


def cell_centres(link: Link) -> np.ndarray:
    """(n_units, 3) cell centres, row 1 on top (largest y), columns left to right."""
    rows, cols = np.divmod(np.arange(link.n_units), link.n_cols)
    x = (cols - (link.n_cols - 1) / 2.0) * link.pitch_x_m
    y = ((link.n_rows - 1) / 2.0 - rows) * link.pitch_y_m
    return np.stack([x, y, np.zeros(link.n_units)], axis=1)


def _legs(points: np.ndarray, cells: np.ndarray):
    """Ranges and |cos| of the off-normal angle from each point to each cell: (..., n_units)."""
    d = points[..., None, :] - cells
    r = np.sqrt(np.einsum("...k,...k->...", d, d))
    return r, np.abs(d[..., 2]) / r


# ---------------------------------------------------------------- hardware

def amplifier_gain_db(link: Link, current) -> np.ndarray:
    cur = np.array([c for c, _ in link.calibration])
    db = np.array([g for _, g in link.calibration])
    return np.interp(current, cur, db)


def codebook(link: Link) -> np.ndarray:
    k = 2 ** link.codebook_bits
    return math.radians(link.codebook_offset_deg) + 2.0 * math.pi / k * np.arange(k)


def jitter(link: Link) -> np.ndarray:
    """The static per-unit phase error realization, radians."""
    if link.phase_jitter_max_deg <= 0:
        return np.zeros(link.n_units)
    m = math.radians(link.phase_jitter_max_deg)
    return np.random.default_rng(link.phase_jitter_seed).uniform(-m, m, link.n_units)


# ---------------------------------------------------------------- link

def weights(link: Link, rx_points, current=None) -> np.ndarray:
    """Complex per-cell weights toward each RX point, shape (..., n_units).

    |w_n| = sqrt(G_t G_r G_u) * A * sqrt(cos zen_t cos zen_r) / (r_t r_r); the
    phase is the two-hop propagation delay.
    """
    cells = cell_centres(link)
    r_t, c_t = _legs(tx_point(link), cells)
    r_r, c_r = _legs(np.asarray(rx_points, dtype=float), cells)
    g_u = 10.0 ** (amplifier_gain_db(link, link.top_current if current is None else current) / 10.0)
    g_t = 10.0 ** (link.tx_gain_dbi / 10.0) * c_t ** link.tx_exponent
    g_r = 10.0 ** (link.rx_gain_dbi / 10.0) * c_r ** link.rx_exponent
    area = link.pitch_x_m * link.pitch_y_m
    mag = np.sqrt(g_t * g_r * g_u * c_t * c_r) * area / (r_t * r_r)
    lam = C0 / link.frequency_hz
    return mag * np.exp(-2j * math.pi * (r_t + r_r) / lam)


def power(link: Link, w, phases) -> np.ndarray:
    """Received power in W for programmed phases (radians), reduced over the last axis."""
    s = np.sum(w * np.exp(1j * np.asarray(phases)), axis=-1)
    return link.tx_power_w / (16.0 * math.pi ** 2) * np.abs(s) ** 2


def bound(link: Link, w) -> np.ndarray:
    """Power with every cell aligned: P_t / (16 pi^2) * (sum_n |w_n|)^2."""
    return link.tx_power_w / (16.0 * math.pi ** 2) * np.sum(np.abs(w), axis=-1) ** 2


def aligned_phases(link: Link, rx_points) -> np.ndarray:
    """Continuous optimum: each cell cancels its own propagation phase, in [0, 2 pi)."""
    cells = cell_centres(link)
    r_t, _ = _legs(tx_point(link), cells)
    r_r, _ = _legs(np.asarray(rx_points, dtype=float), cells)
    return np.mod(2.0 * math.pi * (r_t + r_r) / (C0 / link.frequency_hz), 2.0 * math.pi)


def quantize(link: Link, phases) -> np.ndarray:
    """Nearest codebook index on the circle; an exact tie takes the lower index."""
    k = 2 ** link.codebook_bits
    step = 2.0 * math.pi / k
    x = np.mod(np.asarray(phases) - math.radians(link.codebook_offset_deg), 2.0 * math.pi) / step
    lo = np.floor(x).astype(int)
    frac = x - lo
    up = (lo + 1) % k
    lo = lo % k
    tie = np.abs(frac - 0.5) < 1e-12
    return np.where(tie, np.minimum(lo, up), np.where(frac < 0.5, lo, up))


def programmed_phases(link: Link, indices) -> np.ndarray:
    """Codebook phases of an index grid plus the static jitter realization."""
    return codebook(link)[np.asarray(indices).reshape(-1)] + jitter(link)


def dbm(p_w) -> np.ndarray:
    return 10.0 * np.log10(np.asarray(p_w) * 1e3)


def path_loss_db(link: Link, p_w) -> np.ndarray:
    return 10.0 * np.log10(link.tx_power_w / np.asarray(p_w))


def index_digest(indices, shape) -> str:
    """12-hex digest of a phase-index grid: sha1 over b'idx', the grid shape and int64 bytes."""
    arr = np.ascontiguousarray(np.asarray(indices, dtype=np.int64).reshape(shape))
    h = hashlib.sha1(b"idx")
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()[:12]


def grid(start: float, stop: float, step: float) -> np.ndarray:
    """start, start + step, ... up to stop inclusive."""
    return start + step * np.arange(int(math.floor((stop - start) / step + 1e-9)) + 1)


# ---------------------------------------------------------------- configs

_INT_KEYS = {"n_rows", "n_cols", "codebook_bits", "phase_jitter_seed"}


def read_config(path) -> Plan:
    """Parse a run config with the package's defaults; raises ValueError on keys it does not know."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path) as fh:
        cp.read_file(fh)
    values = {}
    for key, raw in (cp["scenario"].items() if cp.has_section("scenario") else []):
        if key not in Link.__dataclass_fields__ or key == "calibration":
            raise ValueError(f"{path}: unknown scenario key {key!r}")
        values[key] = int(raw) if key in _INT_KEYS else float(raw)
    if cp.has_section("amplifier"):
        for key, raw in cp["amplifier"].items():
            if key == "calibration":
                values["calibration"] = tuple(
                    tuple(float(x) for x in pair.split(":")) for pair in raw.split(","))
            elif key != "max_current_a":
                raise ValueError(f"{path}: unknown amplifier key {key!r}")
    sweeps = []
    for section in cp.sections():
        if not section.startswith("sweep"):
            continue
        raw = dict(cp[section])
        kind = raw.pop("type")
        sw = Sweep(section[len("sweep"):].strip() or "sweep", kind, raw.pop("method", "quantized"))
        if kind == "gain":
            sw.currents = tuple(float(c) for c in raw.pop("currents_a").split(","))
        else:
            lo, hi, st = SWEEP_DEFAULTS[kind]
            sw.start = float(raw.pop("start", lo))
            sw.stop = float(raw.pop("stop", hi))
            sw.step = float(raw.pop("step", st))
            sw.steering_deg = float(raw.pop("steering_deg", 0.0))
        if raw:
            raise ValueError(f"{path}: unknown keys {sorted(raw)} in [{section}]")
        sweeps.append(sw)
    return Plan(Link(**values), sweeps)


# ---------------------------------------------------------------- expected sweep rows

@dataclass
class ExpectedRows:
    """What one sweep's CSV must hold: grid values, powers, per-row bounds and digests.

    digests holds None where the configuration is continuous (a digest of float
    phases is not reproducible across two derivations).
    """

    variable: str
    values: np.ndarray
    power_w: np.ndarray
    bound_w: np.ndarray
    digests: list


def _configured(link: Link, method: str, rx_points):
    """(phases, digests) of a per-point configuration for quantized/continuous/none."""
    n_pts = len(rx_points)
    shape = (link.n_rows, link.n_cols)
    if method == "continuous":
        return aligned_phases(link, rx_points), [None] * n_pts
    if method == "quantized":
        idx = quantize(link, aligned_phases(link, rx_points))
    elif method == "none":
        idx = np.zeros((n_pts, link.n_units), dtype=int)
    else:
        raise ValueError(f"the reference model does not replay feedback method {method!r}")
    phases = codebook(link)[idx] + jitter(link)
    return phases, [index_digest(i, shape) for i in idx]


def expected_rows(link: Link, sw: Sweep) -> ExpectedRows:
    """Model values for every row of one sweep, as `rislink run` writes them."""
    if sw.kind == "gain":
        phases, digests = _configured(link, sw.method, rx_point(link)[None])
        cur = np.asarray(sw.currents) / link.n_units
        w = np.stack([weights(link, rx_point(link), c) for c in cur])
        return ExpectedRows("amplifier_current", np.asarray(sw.currents),
                            power(link, w, phases[0]), bound(link, w), digests * len(cur))
    values = grid(sw.start, sw.stop, sw.step)
    if sw.kind == "distance":
        pts = np.stack([rx_point(link, r=v) for v in values])
        phases, digests = _configured(link, sw.method, pts)
        variable = "rx_distance"
    elif sw.kind == "angle":
        pts = np.stack([rx_point(link, angle_deg=v) for v in values])
        phases, digests = _configured(link, sw.method, pts)
        variable = "rx_zenith"
    elif sw.kind == "pattern":
        steer = rx_point(link, angle_deg=sw.steering_deg)[None]
        phases, digests = _configured(link, sw.method, steer)
        phases = phases[0]
        digests = digests * len(values)
        pts = np.stack([rx_point(link, angle_deg=v) for v in values])
        variable = "pattern_angle"
    else:
        raise ValueError(f"unknown sweep kind {sw.kind!r}")
    w = weights(link, pts)
    return ExpectedRows(variable, values, power(link, w, phases), bound(link, w), digests)

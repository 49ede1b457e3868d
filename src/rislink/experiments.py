"""Sweep runners mirroring the measurement campaigns: distance, angle, amplifier
gain, and radiation patterns, with deterministic CSV/JSON emission.

All sweep outputs share one CSV schema:
variable,value,received_power_dBm,path_loss_dB,config_digest
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .beamforming import (
    FeedbackChannel,
    blind_rowcol_search,
    greedy_element_search,
    nearest_quantize,
    power_oracle,
    uniform_configuration,
)
from .channel import AntennaModel
from .geometry import ArrayLayout, SphericalPose, spherical_to_cartesian
from .link import (
    Scenario,
    _channel_sum,
    _channel_sums,
    _link_budget_db,
    continuous_optimal_phases,
    from_db,
    states_from_configuration,
    uniform_states,
)
from .ris import AmplifierModel, PhaseCodebook, PhaseJitterModel, UnitState

CSV_HEADER = "variable,value,received_power_dBm,path_loss_dB,config_digest"

SWEEP_VARIABLES = ("rx_distance", "rx_zenith", "amplifier_current", "pattern_angle")
BEAMFORMING_METHODS = ("none", "continuous", "quantized", "blind", "greedy")


def transmission_side_pose(r: float, angle_deg: float, azimuth_deg: float = 0.0) -> SphericalPose:
    """Pose on the transmission side (z < 0) at `angle_deg` off the surface normal.

    Negative angles flip to the opposite azimuth; |angle| must stay below 90
    or the point would graze the array plane.
    """
    if not -90.0 < angle_deg < 90.0:
        raise ValueError(
            f"off-normal angle must satisfy |angle| < 90 deg, got {angle_deg!r}"
        )
    a = math.radians(abs(angle_deg))
    phi = math.radians(azimuth_deg) + (math.pi if angle_deg < 0 else 0.0)
    return SphericalPose(r, math.pi - a, phi % (2.0 * math.pi))


def incidence_side_pose(r: float, angle_deg: float, azimuth_deg: float = 0.0) -> SphericalPose:
    """Pose on the incidence side (z > 0) at `angle_deg` off the surface normal."""
    if not -90.0 < angle_deg < 90.0:
        raise ValueError(
            f"off-normal angle must satisfy |angle| < 90 deg, got {angle_deg!r}"
        )
    a = math.radians(abs(angle_deg))
    phi = math.radians(azimuth_deg) + (math.pi if angle_deg < 0 else 0.0)
    return SphericalPose(r, a, phi % (2.0 * math.pi))


def chamber_scenario(tx_distance: float = 0.6, rx_distance: float = 4.0,
                     rx_angle_deg: float = 0.0, n_rows: int = 4, n_cols: int = 8,
                     pitch: float = 0.06, frequency: float = 2.6e9,
                     horn_gain_dbi: float = 15.0, horn_exponent: float = 0.0,
                     tx_power: float = 1.0, noise_variance: float = 0.0,
                     bits: int = 2, jitter_max_deg: float = 0.0,
                     jitter_seed: int = 0) -> Scenario:
    """Measurement-chamber default: feed horn boresight at 0.6 m, probe at 4 m behind a 4x8 surface.

    The horns are wide-beam relative to the desk-scale array (exponent 0 =
    constant gain over it); angular roll-off comes from the unit cells'
    projected apertures.
    """
    horn = AntennaModel(from_db(horn_gain_dbi), horn_exponent)
    jitter = (PhaseJitterModel(math.radians(jitter_max_deg), jitter_seed)
              if jitter_max_deg > 0 else None)
    return Scenario(
        frequency=frequency,
        tx_pose=incidence_side_pose(tx_distance, 0.0),
        rx_pose=transmission_side_pose(rx_distance, rx_angle_deg),
        layout=ArrayLayout(n_rows, n_cols, pitch, pitch),
        tx_antenna=horn,
        rx_antenna=horn,
        codebook=PhaseCodebook(bits),
        amplifier=AmplifierModel(),
        tx_power=tx_power,
        noise_variance=noise_variance,
        jitter=jitter,
    )


@dataclass(frozen=True)
class SweepSpec:
    """Inclusive grid over one variable plus the beamforming method applied per point.

    Units follow the variable: meters for rx_distance, degrees for rx_zenith
    and pattern_angle, array-level amperes for amplifier_current.
    """

    variable: str
    start: float
    stop: float
    step: float
    beamforming: str = "quantized"

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        if self.beamforming not in BEAMFORMING_METHODS:
            raise ValueError(f"unknown beamforming method {self.beamforming!r}")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.stop < self.start:
            raise ValueError("stop must be >= start")
        if self.variable == "rx_distance" and self.start <= 0:
            raise ValueError("distances must be positive")
        if self.variable in ("rx_zenith", "pattern_angle"):
            # +-90 itself grazes the array plane
            if self.start <= -90.0 or self.stop >= 90.0:
                raise ValueError("angles must lie strictly inside (-90, 90) deg")
        if self.variable == "amplifier_current" and self.start < 0:
            raise ValueError("currents must be >= 0")

    def grid(self) -> np.ndarray:
        return sweep_grid(self.start, self.stop, self.step)


def sweep_grid(start: float, stop: float, step: float) -> np.ndarray:
    """start, start+step, ... up to stop inclusive (float-tolerant endpoint)."""
    if step <= 0:
        raise ValueError("step must be positive")
    if stop < start:
        raise ValueError("stop must be >= start")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(count)


def _digest(tag: bytes, arr: np.ndarray) -> str:
    h = hashlib.sha1()
    h.update(tag)
    h.update(str(arr.shape).encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:12]


@dataclass
class BeamformingOutcome:
    """What a configuration pass produced: states to program, optional
    continuous phase override, the index grid (discrete methods), a digest
    of whichever applies, and the feedback queries spent."""

    method: str
    states: list[UnitState]
    phases: np.ndarray | None
    configuration: np.ndarray | None
    digest: str
    queries: int = 0


def apply_beamforming(scenario: Scenario, method: str = "quantized", seed=0,
                      passes: int = 4, max_rounds: int = 8,
                      current: float | None = None) -> BeamformingOutcome:
    """Run one beamforming method against `scenario` and package the result."""
    if method not in BEAMFORMING_METHODS:
        raise ValueError(f"unknown beamforming method {method!r}")
    if method == "continuous":
        phases = continuous_optimal_phases(scenario)
        return BeamformingOutcome(
            method, uniform_states(scenario, current=current), phases, None,
            _digest(b"phs", phases.astype(np.float64)),
        )
    queries = 0
    if method == "none":
        config = uniform_configuration(scenario.layout)
    elif method == "quantized":
        config = nearest_quantize(
            continuous_optimal_phases(scenario), scenario.codebook
        ).reshape(scenario.layout.n_rows, scenario.layout.n_cols)
    else:
        feedback = FeedbackChannel(
            power_oracle(scenario), scenario.noise_variance, seed
        )
        if method == "blind":
            config, trace = blind_rowcol_search(scenario, feedback=feedback, passes=passes)
        else:
            config, trace = greedy_element_search(scenario, feedback=feedback, max_rounds=max_rounds)
        queries = trace.n_queries
    states = states_from_configuration(scenario, config, current=current)
    return BeamformingOutcome(
        method, states, None, config, _digest(b"idx", config.astype(np.int64)), queries
    )


@dataclass
class SweepRow:
    value: float
    received_power_dbm: float
    path_loss_db: float
    config_digest: str


@dataclass
class SweepResult:
    """Rows of one sweep plus the variable name, CSV-serializable."""

    variable: str
    rows: list[SweepRow] = field(default_factory=list)

    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.rows])

    def path_losses_db(self) -> np.ndarray:
        return np.array([r.path_loss_db for r in self.rows])

    def received_powers_dbm(self) -> np.ndarray:
        return np.array([r.received_power_dbm for r in self.rows])

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{self.variable},{r.value!r},{r.received_power_dbm!r},"
                f"{r.path_loss_db!r},{r.config_digest}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())


def _point_seeds(seed, n: int):
    return np.random.SeedSequence(seed).spawn(n)


def _row(value: float, scenario: Scenario, states, phases, digest: str) -> SweepRow:
    """One CSV row from a single link evaluation at the scenario's RX pose."""
    p_dbm, pl_db = _link_budget_db(scenario, _channel_sum(scenario, states, phases))
    return SweepRow(value, p_dbm, pl_db, digest)


def distance_sweep(scenario: Scenario, spec: SweepSpec, seed=0) -> SweepResult:
    """Path loss versus RX range; the RX direction is kept, only the range moves.

    Beamforming reruns at every point (the optimal configuration changes with
    geometry).
    """
    if spec.variable != "rx_distance":
        raise ValueError("spec.variable must be 'rx_distance'")
    grid = spec.grid()
    seeds = _point_seeds(seed, len(grid))
    result = SweepResult("rx_distance")
    for r, s in zip(grid, seeds):
        pose = SphericalPose(float(r), scenario.rx_pose.theta, scenario.rx_pose.phi)
        scn = replace(scenario, rx_pose=pose)
        bf = apply_beamforming(scn, spec.beamforming, s)
        result.rows.append(_row(float(r), scn, bf.states, bf.phases, bf.digest))
    return result


def angle_sweep(scenario: Scenario, spec: SweepSpec, seed=0,
                rx_azimuth_deg: float = 0.0) -> SweepResult:
    """Path loss versus the RX off-normal angle on the transmission side (degrees).

    The RX moves in the plane of `rx_azimuth_deg`; negative angles turn the
    azimuth by 180 deg, as in `transmission_side_pose`.
    """
    if spec.variable != "rx_zenith":
        raise ValueError("spec.variable must be 'rx_zenith'")
    grid = spec.grid()
    seeds = _point_seeds(seed, len(grid))
    result = SweepResult("rx_zenith")
    for a, s in zip(grid, seeds):
        pose = transmission_side_pose(scenario.rx_pose.r, float(a), rx_azimuth_deg)
        scn = replace(scenario, rx_pose=pose)
        bf = apply_beamforming(scn, spec.beamforming, s)
        result.rows.append(_row(float(a), scn, bf.states, bf.phases, bf.digest))
    return result


def gain_sweep(scenario: Scenario, currents: Sequence[float],
               beamforming: str = "quantized", seed=0) -> SweepResult:
    """Received power versus array-level supply current, split evenly across units.

    The phase configuration is fixed once (at the amplifier's calibrated
    operating point) and held while only the current moves, mirroring how the
    gain knob is exercised on hardware.
    """
    if len(currents) == 0:
        raise ValueError("need at least one supply current")
    if any(c < 0 for c in currents):
        raise ValueError("currents must be >= 0")
    n = scenario.layout.n_units
    bf = apply_beamforming(scenario, beamforming, seed)
    result = SweepResult("amplifier_current")
    for c in currents:
        per_unit = float(c) / n
        states = [replace(st, current=per_unit) for st in bf.states]
        result.rows.append(_row(float(c), scenario, states, bf.phases, bf.digest))
    return result


@dataclass
class PatternResult:
    """Transmission-side radiation cut: power versus observation angle at one steering."""

    steering_deg: float
    angles_deg: np.ndarray
    power_dbm: np.ndarray
    relative_db: np.ndarray
    peak_angle_deg: float
    hpbw_deg: float
    pslr_db: float
    config_digest: str
    path_loss_db: np.ndarray | None = field(default=None, repr=False)

    @property
    def peak_power_dbm(self) -> float:
        return float(np.max(self.power_dbm))

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for a, p, pl in zip(self.angles_deg, self.power_dbm, self.path_loss_db):
            lines.append(f"pattern_angle,{float(a)!r},{float(p)!r},{float(pl)!r},{self.config_digest}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())


def half_power_beamwidth(angles_deg, rel_db) -> float:
    """Width between the -3 dB crossings around the global peak, linearly interpolated.

    Raises ValueError when either crossing falls outside the sampled grid.
    """
    a = np.asarray(angles_deg, dtype=float)
    r = np.asarray(rel_db, dtype=float)
    i0 = int(np.argmax(r))
    level = r[i0] - 3.0

    def cross(i_from, direction):
        i = i_from
        while 0 <= i + direction < len(r):
            j = i + direction
            if r[j] < level:
                # crossing between i and j
                t = (level - r[i]) / (r[j] - r[i])
                return float(a[i] + t * (a[j] - a[i]))
            i = j
        raise ValueError("half-power point falls outside the observation grid")

    return cross(i0, +1) - cross(i0, -1)


def peak_to_sidelobe(angles_deg, rel_db) -> float:
    """Peak-to-highest-sidelobe ratio in dB; NaN when no sidelobe is resolved.

    The main lobe extends to the nearest local minimum on each side of the
    global peak.
    """
    r = np.asarray(rel_db, dtype=float)
    i0 = int(np.argmax(r))
    lo = i0
    while lo > 0 and r[lo - 1] < r[lo]:
        lo -= 1
    hi = i0
    while hi < len(r) - 1 and r[hi + 1] < r[hi]:
        hi += 1
    side = np.concatenate([r[:lo], r[hi + 1:]])
    if side.size == 0:
        return math.nan
    return float(r[i0] - np.max(side))


def radiation_pattern(scenario: Scenario, steering_deg: float,
                      start: float = -85.0, stop: float = 85.0, step: float = 0.5,
                      method: str = "quantized", seed=0,
                      rx_azimuth_deg: float = 0.0) -> PatternResult:
    """Steer toward `steering_deg`, freeze the configuration, and cut the
    transmission-side pattern by moving the RX probe along the observation grid.

    Steering and cut lie in the plane of `rx_azimuth_deg` (negative angles
    turn it by 180 deg).  The whole cut is one batched link evaluation.
    """
    r = scenario.rx_pose.r
    steer = replace(scenario, rx_pose=transmission_side_pose(r, steering_deg, rx_azimuth_deg))
    bf = apply_beamforming(steer, method, seed)
    angles = sweep_grid(start, stop, step)
    points = np.array([
        spherical_to_cartesian(transmission_side_pose(r, float(a), rx_azimuth_deg))
        for a in angles
    ])
    sums = _channel_sums(scenario, points, bf.states, bf.phases)
    powers, losses = np.array([_link_budget_db(scenario, s) for s in sums]).T
    rel = powers - np.max(powers)
    peak_angle = float(angles[int(np.argmax(powers))])
    return PatternResult(
        steering_deg=float(steering_deg),
        angles_deg=angles,
        power_dbm=powers,
        relative_db=rel,
        peak_angle_deg=peak_angle,
        hpbw_deg=half_power_beamwidth(angles, rel),
        pslr_db=peak_to_sidelobe(angles, rel),
        config_digest=bf.digest,
        path_loss_db=losses,
    )


def _scenario_summary(s: Scenario) -> dict:
    return {
        "frequency_hz": s.frequency,
        "wavelength_m": s.wavelength,
        "tx_pose": [s.tx_pose.r, s.tx_pose.theta, s.tx_pose.phi],
        "rx_pose": [s.rx_pose.r, s.rx_pose.theta, s.rx_pose.phi],
        "layout": [s.layout.n_rows, s.layout.n_cols, s.layout.pitch_x, s.layout.pitch_y],
        "tx_antenna": [s.tx_antenna.boresight_gain, s.tx_antenna.exponent],
        "rx_antenna": [s.rx_antenna.boresight_gain, s.rx_antenna.exponent],
        "codebook": [s.codebook.bits, s.codebook.offset],
        "amplifier_calibration": [list(p) for p in s.amplifier.calibration],
        "amplifier_max_current_a": s.amplifier.max_current,
        "tx_power_w": s.tx_power,
        "noise_variance_w": s.noise_variance,
        "phase_jitter": (None if s.jitter is None
                          else [s.jitter.max_error, s.jitter.seed]),
    }


def run_config(path, out_dir, seed=0) -> dict:
    """Execute every sweep in a config file; one CSV per sweep plus summary.json.

    Fully deterministic for a given (config, seed): reruns produce
    byte-identical files.
    """
    from .config import load_run_plan  # local import; config builds on this module

    plan = load_run_plan(path)
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for job in plan.jobs:
        csv_name = f"{job.name}.csv"
        csv_path = os.path.join(out_dir, csv_name)
        entry = {"name": job.name, "kind": job.kind, "csv": csv_name,
                 "beamforming": job.method}
        if job.kind == "distance":
            spec = SweepSpec("rx_distance", job.start, job.stop, job.step, job.method)
            res = distance_sweep(plan.scenario, spec, seed)
        elif job.kind == "angle":
            spec = SweepSpec("rx_zenith", job.start, job.stop, job.step, job.method)
            res = angle_sweep(plan.scenario, spec, seed, plan.rx_azimuth_deg)
        elif job.kind == "gain":
            res = gain_sweep(plan.scenario, job.currents, job.method, seed)
        elif job.kind == "pattern":
            res = radiation_pattern(plan.scenario, job.steering_deg, job.start, job.stop,
                                    job.step, job.method, seed, plan.rx_azimuth_deg)
        else:  # pragma: no cover - load_run_plan validates kinds
            raise ValueError(f"unknown sweep kind {job.kind!r}")
        res.write_csv(csv_path)
        if isinstance(res, PatternResult):
            entry["rows"] = len(res.angles_deg)
            entry["metrics"] = {
                "steering_deg": res.steering_deg,
                "peak_angle_deg": res.peak_angle_deg,
                "peak_power_dbm": res.peak_power_dbm,
                "hpbw_deg": res.hpbw_deg,
                "pslr_db": res.pslr_db,
            }
        else:
            pl = res.path_losses_db()
            entry["rows"] = len(res.rows)
            entry["metrics"] = {
                "first_path_loss_db": float(pl[0]),
                "last_path_loss_db": float(pl[-1]),
                "path_loss_span_db": float(pl[-1] - pl[0]),
                "best_received_power_dbm": float(np.max(res.received_powers_dbm())),
            }
        entries.append(entry)
    summary = {
        "config": os.path.basename(str(path)),
        "seed": seed if isinstance(seed, int) else str(seed),
        "scenario": _scenario_summary(plan.scenario),
        "sweeps": entries,
    }
    with open(os.path.join(out_dir, "summary.json"), "w", newline="") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary

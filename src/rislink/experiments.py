"""Sweep runners mirroring the measurement campaigns: distance, angle, amplifier
gain, and radiation patterns, with deterministic CSV/JSON emission.

All sweep outputs share one CSV schema:
variable,value,received_power_dBm,path_loss_dB,config_digest
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .beamforming import (
    FeedbackChannel,
    SearchTrace,
    blind_rowcol_search,
    greedy_element_search,
    nearest_quantize,
)
from .channel import AntennaModel
from .geometry import ArrayLayout, SphericalPose, cartesian_points, spherical_to_cartesian
from .link import (
    Scenario,
    _channel_sums,
    _link_budget_db,
    _own_rx_point,
    _phasors,
    _weight_chunks,
    from_db,
)
from .ris import DEFAULT_CALIBRATION, AmplifierModel, PhaseCodebook, PhaseJitterModel

CSV_HEADER = "variable,value,received_power_dBm,path_loss_dB,config_digest"
MAX_GRID_POINTS = 100_000  # a 64x64 cut this long takes ~40 s: a longer grid is a typo

# sweep kind -> (the variable its CSV rows carry, {optional SweepJob field it reads: default})
SWEEP_KINDS = {"distance": ("rx_distance", {"start": 0.5, "stop": 5.0, "step": 0.5}),
               "angle": ("rx_zenith", {"start": 0.0, "stop": 60.0, "step": 10.0}),
               "gain": ("amplifier_current", {"currents": ()}),
               "pattern": ("pattern_angle",
                           {"start": -85.0, "stop": 85.0, "step": 0.5, "steering_deg": 0.0})}
BEAMFORMING_METHODS = ("none", "continuous", "quantized", "blind", "greedy")
# methods whose configuration is a closed form of the two-hop phases
_CLOSED_FORM_METHODS = ("none", "continuous", "quantized")
# fl(2 pi) and its leading 29 significant bits; the rest, fl(2 pi) - _TWO_PI_HI, is exact
_TWO_PI, _TWO_PI_HI = 2.0 * math.pi, float.fromhex("0x1.921fb54p+2")


def _off_normal(angle_deg, azimuth_deg: float = 0.0):
    """(|angle| in radians, azimuth in [0, 2 pi)) of directions `angle_deg` off the normal.

    Scalars or arrays; negative angles flip to the opposite azimuth.  The one angle
    check of every sweep and pose: |angle| < 90 deg, or it grazes the array plane,
    and a finite azimuth.
    """
    a = np.asarray(angle_deg, dtype=float)
    bad = ~(np.abs(a) < 90.0)
    if np.any(bad):
        raise ValueError(f"off-normal angle must satisfy |angle| < 90 deg, got {float(a[bad][0])!r}")
    if not math.isfinite(azimuth_deg):
        raise ValueError(f"azimuth must be finite, got {azimuth_deg!r}")
    phi = np.mod(np.radians(azimuth_deg) + np.where(a < 0, math.pi, 0.0), 2.0 * math.pi)
    return np.radians(np.abs(a)), np.where(phi < 2.0 * math.pi, phi, 0.0)  # np.mod(-tiny) is 2 pi


def transmission_side_pose(r: float, angle_deg: float, azimuth_deg: float = 0.0) -> SphericalPose:
    """Pose on the transmission side (z < 0) at `angle_deg` off the surface normal."""
    a, phi = _off_normal(angle_deg, azimuth_deg)
    return SphericalPose(r, math.pi - float(a), float(phi))


def incidence_side_pose(r: float, angle_deg: float, azimuth_deg: float = 0.0) -> SphericalPose:
    """Pose on the incidence side (z > 0) at `angle_deg` off the surface normal."""
    a, phi = _off_normal(angle_deg, azimuth_deg)
    return SphericalPose(r, float(a), float(phi))


def chamber_scenario(frequency_hz: float = 2.6e9, tx_distance_m: float = 0.6,
                     tx_zenith_deg: float = 0.0, tx_azimuth_deg: float = 0.0,
                     rx_distance_m: float = 4.0, rx_zenith_deg: float = 0.0,
                     rx_azimuth_deg: float = 0.0, n_rows: int = 4, n_cols: int = 8,
                     pitch_x_m: float = 0.06, pitch_y_m: float = 0.06,
                     tx_gain_dbi: float = 15.0, tx_exponent: float = 0.0,
                     rx_gain_dbi: float = 15.0, rx_exponent: float = 0.0,
                     tx_power_w: float = 1.0, noise_variance_w: float = 0.0,
                     codebook_bits: int = 2, codebook_offset_deg: float = 0.0,
                     phase_jitter_max_deg: float = 0.0, phase_jitter_seed: int = 0,
                     calibration: tuple = DEFAULT_CALIBRATION,
                     max_current_a: float = 0.12) -> Scenario:
    """The one scenario builder; its keywords are the config's [scenario]/[amplifier] keys.

    The defaults are the measurement chamber: feed horn boresight at 0.6 m, probe at
    4 m behind a 4x8 surface, both horns wide-beam (exponent 0 = constant gain over
    the array).  Angles are off the normal, as in the pose helpers.  The models it
    builds check every value, so configs, commands and library callers get the
    same `ValueError` for the same bad value.
    """
    jitter = PhaseJitterModel(math.radians(phase_jitter_max_deg), phase_jitter_seed)
    return Scenario(
        frequency=frequency_hz,
        tx_pose=incidence_side_pose(tx_distance_m, tx_zenith_deg, tx_azimuth_deg),
        rx_pose=transmission_side_pose(rx_distance_m, rx_zenith_deg, rx_azimuth_deg),
        layout=ArrayLayout(n_rows, n_cols, pitch_x_m, pitch_y_m),
        tx_antenna=AntennaModel(from_db(tx_gain_dbi), tx_exponent),
        rx_antenna=AntennaModel(from_db(rx_gain_dbi), rx_exponent),
        codebook=PhaseCodebook(codebook_bits, math.radians(codebook_offset_deg)),
        amplifier=AmplifierModel(calibration, max_current_a),
        tx_power=tx_power_w,
        noise_variance=noise_variance_w,
        jitter=jitter if jitter.max_error > 0 else None,
        rx_plane_deg=rx_azimuth_deg,
    )


class SweepError(ValueError):
    """An invalid sweep value; `key` names the `SweepJob` field it blames."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class SweepJob:
    """One sweep, validated here once for configs, commands and library callers.

    Distance grids are in meters; angle grids, and the `steering_deg` a pattern cut
    is frozen at, in degrees off the normal; gain `currents` in array-level amperes.
    An optional field its kind reads takes its `SWEEP_KINDS` default when left None, any
    other must be left None; a bad value raises `SweepError`, but a distance grid's
    farthest point past a pose's range raises `SphericalPose`'s error.
    """

    name: str
    kind: str
    method: str = "quantized"
    start: float | None = None
    stop: float | None = None
    step: float | None = None
    currents: Sequence[float] | None = None
    steering_deg: float | None = None

    def __post_init__(self):
        if not self.name or any(sep and sep in self.name for sep in (os.sep, os.altsep, "\0")):
            raise SweepError("name", f"sweep name must be non-empty without a path separator "
                                     f"or NUL byte, got {self.name!r}")
        if self.kind not in SWEEP_KINDS:
            raise SweepError("kind", f"unknown sweep kind {self.kind!r}")
        if self.method not in BEAMFORMING_METHODS:
            raise SweepError("method", f"unknown beamforming method {self.method!r}")
        reads = SWEEP_KINDS[self.kind][1]
        for key in (f.name for f in fields(self) if f.default is None):  # the optional fields
            if key in reads and getattr(self, key) is None:
                object.__setattr__(self, key, reads[key])
            elif key not in reads and getattr(self, key) is not None:
                raise SweepError(key, f"{self.kind} sweeps take no {key}")
        if self.currents is not None:
            if len(self.currents) == 0:
                raise SweepError("currents", "a gain sweep needs at least one supply current")
            bad = [c for c in self.currents if not c >= 0]  # NaN fails c >= 0 too
            if bad:
                raise SweepError("currents", f"currents must be >= 0, got {bad[0]!r}")
            return
        grid = self.grid()
        if self.kind == "distance":
            if not self.start > 0:
                raise SweepError("start", f"start must be positive, got {self.start!r}")
            SphericalPose(float(grid[-1]), 0.0, 0.0)  # the farthest point's range, as a pose's
        # a grid that starts inside (-90, 90) deg can leave it only at the top: blame stop
        angles = {} if self.kind == "distance" else {"start": self.start, "stop": grid}
        if self.steering_deg is not None:
            angles["steering_deg"] = self.steering_deg
        for key, angle in angles.items():
            try:
                _off_normal(angle)
            except ValueError as e:
                raise SweepError(key, str(e)) from None

    def grid(self) -> np.ndarray:
        return sweep_grid(self.start, self.stop, self.step)


def sweep_grid(start: float, stop: float, step: float) -> np.ndarray:
    """start, start+step, ... up to stop inclusive (float-tolerant endpoint); finite, bounded."""
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise SweepError(name, f"{name} must be finite, got {value!r}")
    if step <= 0:
        raise SweepError("step", "step must be positive")
    if stop < start:
        raise SweepError("stop", "stop must be >= start")
    span = (stop - start) / step + 1e-9  # inf when stop - start overflows
    if not span < MAX_GRID_POINTS:
        raise SweepError("step", f"sweep grid from {float(start)!r} to {float(stop)!r} in steps "
                                 f"of {float(step)!r} exceeds {MAX_GRID_POINTS} points")
    return start + step * np.arange(int(math.floor(span)) + 1)


@dataclass
class BeamformingOutcome:
    """What a configuration pass produced: the continuous phases (`continuous`)
    or the index grid (discrete methods) to program at top current, a digest
    of whichever applies, the channel sum they give at the scenario's own
    pose, and a search's trace of its feedback queries."""

    method: str
    phases: np.ndarray | None
    configuration: np.ndarray | None
    digest: str
    channel_sum: complex
    trace: SearchTrace | None = None

    @property
    def queries(self) -> int:
        """Feedback queries spent: the trace's length, 0 for a closed form."""
        return 0 if self.trace is None else self.trace.n_queries


def _closed_form(scenario: Scenario, method: str, phi: np.ndarray) -> np.ndarray:
    """Configuration of a closed-form method for two-hop phases `phi` (..., n_units):
    phases in [0, 2 pi) for `continuous`, codebook indices for `none` (all zero) and
    `quantized` (the entry nearest each continuous phase)."""
    if method == "none":
        return np.zeros(phi.shape, dtype=int)
    phases = _mod_2pi(phi)
    return phases if method == "continuous" else nearest_quantize(phases, scenario.codebook)


def _mod_2pi(phi: np.ndarray) -> np.ndarray:
    """np.mod(phi, 2 pi) bit for bit, without its per-element fmod (Cody and Waite).

    For m = floor(phi / 2 pi) in [0, 2^20) both products of m are exact, and so is each
    subtraction: r = phi - m fl(2 pi) exactly.  A quotient rounded up leaves r in [-2 pi, 0),
    and adding 2 pi lands exactly on the remainder.  Other m (phases < 0, huge, inf, NaN)
    take np.mod."""
    m = np.divide(phi, _TWO_PI)
    np.floor(m, out=m)
    if not (m.size and 0 <= m.min() and m.max() < 2 ** 20):  # NaN fails both
        return np.mod(phi, _TWO_PI)
    r = np.multiply(m, _TWO_PI_HI)
    np.subtract(phi, r, out=r)
    r -= np.multiply(m, _TWO_PI - _TWO_PI_HI, out=m)
    return np.add(r, _TWO_PI, out=r, where=r < 0)


def _config_digest(scenario: Scenario, config: np.ndarray) -> str:
    """Digest of one point's continuous phases (float) or codebook indices (int)."""
    if config.dtype.kind == "f":
        tag, arr = b"phs", config.astype(np.float64, copy=False)
    else:
        layout = scenario.layout
        tag, arr = b"idx", config.reshape(layout.n_rows, layout.n_cols).astype(np.int64, copy=False)
    h = hashlib.sha1(tag)
    h.update(str(arr.shape).encode())
    h.update(np.ascontiguousarray(arr))  # hashes the buffer's bytes, as tobytes() reads them
    return h.hexdigest()[:12]


def apply_beamforming(scenario: Scenario, method: str = "quantized", seed=0,
                      passes: int = 4, max_rounds: int = 8) -> BeamformingOutcome:
    """Run one beamforming method against `scenario` and package the result.

    Every method builds the element weights once, a closed form from the kernel's chunk
    and a search in its `FeedbackChannel`; the channel sum of those weights and the
    phases the program radiates is bit for bit `_channel_sums` of it at its own pose.
    """
    if method not in BEAMFORMING_METHODS:
        raise ValueError(f"unknown beamforming method {method!r}")
    if passes < 1:
        raise ValueError("passes must be >= 1")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    trace = None
    if method in _CLOSED_FORM_METHODS:
        _, amp, phi = next(_weight_chunks(scenario, _own_rx_point(scenario)))
        weights, config = amp[0] * np.exp(-1j * phi[0]), _closed_form(scenario, method, phi[0])
    else:
        feedback = FeedbackChannel(scenario, seed)
        if method == "blind":
            config, trace = blind_rowcol_search(feedback, passes=passes)
        else:
            config, trace = greedy_element_search(feedback, max_rounds=max_rounds)
        weights, config = feedback.weights, config.reshape(-1)
    continuous = method == "continuous"
    programmed = config if continuous else scenario.programmed_phases(config)
    channel_sum = np.sum(weights * np.exp(1j * programmed))
    grid = None if continuous else config.reshape(scenario.layout.n_rows, scenario.layout.n_cols)
    return BeamformingOutcome(method, config if continuous else None, grid,
                              _config_digest(scenario, config), channel_sum, trace)


@dataclass
class SweepResult:
    """One sweep as array columns, entry i being CSV row i.

    `from_sums` is the one constructor from the link, one `_link_budget_db` call
    over the channel sums, so an exact null fails the same way in every sweep.
    """

    variable: str
    values: np.ndarray
    received_power_dbm: np.ndarray
    path_loss_db: np.ndarray
    config_digests: list[str]

    @classmethod
    def from_sums(cls, scenario: Scenario, variable: str, values, sums,
                  digests) -> SweepResult:
        return cls(variable, np.asarray(values, dtype=float), *_link_budget_db(scenario, sums),
                   list(digests))

    @property
    def metrics(self) -> dict:
        """The sweep's entry in summary.json."""
        pl = self.path_loss_db
        return {
            "first_path_loss_db": float(pl[0]),
            "last_path_loss_db": float(pl[-1]),
            "path_loss_span_db": float(pl[-1]) - float(pl[0]),  # inf - inf is NaN, quietly
            "best_received_power_dbm": float(np.max(self.received_power_dbm)),
        }

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for v, p, pl, d in zip(self.values.tolist(), self.received_power_dbm.tolist(),
                               self.path_loss_db.tolist(), self.config_digests):
            lines.append(f"{self.variable},{v!r},{p!r},{pl!r},{d}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())


def _pose_sweep(scenario: Scenario, job: SweepJob, values, r, theta, azimuth, seed) -> SweepResult:
    """One row per RX pose (r, theta, azimuth), broadcast over the grid, beamformed afresh at
    each: a closed form from each chunk's one path table, which gives every point's
    configuration, digest and channel sum; `blind` and `greedy` per pose, each seeded."""
    r, theta, azimuth = np.broadcast_arrays(r, theta, azimuth)
    method = job.method
    sums, digests = [], []
    if method not in _CLOSED_FORM_METHODS:
        poses = zip(r.tolist(), theta.tolist(), azimuth.tolist())
        for pose, s in zip(poses, np.random.SeedSequence(seed).spawn(len(values))):
            bf = apply_beamforming(replace(scenario, rx_pose=SphericalPose(*pose)), method, s)
            sums.append(bf.channel_sum)
            digests.append(bf.digest)
    else:
        buf = None  # the first chunk is the largest
        for _, amp, phi in _weight_chunks(scenario, cartesian_points(r, theta, azimuth)):
            config = _closed_form(scenario, method, phi)
            if method == "continuous":
                # the programmed phases cancel the path phases: S = sum_n |w_n|
                sums.extend(amp.sum(axis=-1))
            else:
                buf = np.empty(amp.shape, dtype=complex) if buf is None else buf
                phase = np.subtract(scenario.programmed_phases(config), phi)
                sums.extend(np.sum(_phasors(buf[:len(amp)], amp, phase, 1j), axis=-1))
            digests.extend(_config_digest(scenario, point_config) for point_config in config)
    return SweepResult.from_sums(scenario, SWEEP_KINDS[job.kind][0], values, sums, digests)


@dataclass
class PatternResult(SweepResult):
    """Transmission-side radiation cut: a sweep over `pattern_angle` at one
    frozen steering, plus the cut's metrics."""

    steering_deg: float
    peak_angle_deg: float
    hpbw_deg: float
    pslr_db: float

    @property
    def peak_power_dbm(self) -> float:
        return float(np.max(self.received_power_dbm))

    @property
    def metrics(self) -> dict:
        return {
            "steering_deg": self.steering_deg,
            "peak_angle_deg": self.peak_angle_deg,
            "peak_power_dbm": self.peak_power_dbm,
            "hpbw_deg": self.hpbw_deg,
            "pslr_db": self.pslr_db,
        }


def half_power_beamwidth(angles_deg, rel_db) -> float:
    """Width between the -3 dB crossings around the global peak, linearly interpolated.

    NaN when either crossing falls outside the sampled grid, as `peak_to_sidelobe`
    is without a sidelobe.
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
        return math.nan

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


def _steer(scenario: Scenario, jobs: Sequence[SweepJob], seed) -> list:
    """((configuration, phases), digest) of each job steered toward its `steering_deg`, as
    `apply_beamforming` posed there gives them; the closed forms read one path table."""
    plane = scenario.rx_plane_deg
    poses = [transmission_side_pose(scenario.rx_pose.r, job.steering_deg, plane) for job in jobs]
    closed = [job.method in _CLOSED_FORM_METHODS for job in jobs]
    points = np.reshape([spherical_to_cartesian(p) for p, c in zip(poses, closed) if c], (-1, 3))
    phis = (row for _, _, phi in _weight_chunks(scenario, points) for row in phi)
    steered = []
    for job, pose, c in zip(jobs, poses, closed):
        if c:
            config = _closed_form(scenario, job.method, next(phis))
            program = (None, config) if job.method == "continuous" else (config, None)
            steered.append((program, _config_digest(scenario, config)))
        else:
            bf = apply_beamforming(replace(scenario, rx_pose=pose), job.method, seed)
            steered.append(((bf.configuration, bf.phases), bf.digest))
    return steered


def _radiation_patterns(scenario: Scenario, jobs: Sequence[SweepJob], seed) -> list[PatternResult]:
    """Steer toward each job's `steering_deg`, freeze the configuration, and cut the
    transmission-side pattern along the jobs' one grid: all the cuts read one path table."""
    r, angles = scenario.rx_pose.r, jobs[0].grid()
    steered = _steer(scenario, jobs, seed)
    a, phi = _off_normal(angles, scenario.rx_plane_deg)
    all_sums = _channel_sums(scenario, cartesian_points(r, math.pi - a, phi),
                             [program for program, _ in steered])
    cuts = []
    for job, (_, digest), sums in zip(jobs, steered, all_sums):
        cut = SweepResult.from_sums(scenario, SWEEP_KINDS[job.kind][0], angles, sums,
                                    [digest] * len(sums))
        powers = cut.received_power_dbm
        with np.errstate(invalid="ignore"):  # an all-null cut: -inf - -inf, every rel NaN
            rel = powers - np.max(powers)
        cuts.append(PatternResult(**vars(cut), steering_deg=float(job.steering_deg),
                                  peak_angle_deg=float(angles[int(np.argmax(powers))]),
                                  hpbw_deg=half_power_beamwidth(angles, rel),
                                  pslr_db=peak_to_sidelobe(angles, rel)))
    return cuts


def run_sweep(scenario: Scenario, job: SweepJob, seed=0) -> SweepResult:
    """Run one sweep on `scenario`: a `PatternResult` for a cut, else a `SweepResult`.

    Distance and angle sweeps move only the RX range or angle, beamformed afresh
    at each point.  A gain sweep holds the configuration of the calibrated
    operating point; |S|^2 being linear in the uniform unit gain G_u, it scales
    that channel sum by the amplitude ratio of `Scenario.unit_gain_db` at each array
    current.  Angle sweeps and cuts turn in the scenario's `rx_plane_deg`, negative
    angles turned by 180 deg as in `transmission_side_pose`.
    """
    if job.kind == "pattern":
        return _radiation_patterns(scenario, [job], seed)[0]
    if job.kind == "gain":
        gain_db = scenario.unit_gain_db(job.currents)
        bf = apply_beamforming(scenario, job.method, seed)
        sums = bf.channel_sum * np.sqrt(from_db(gain_db))
        return SweepResult.from_sums(scenario, SWEEP_KINDS[job.kind][0], job.currents, sums,
                                     [bf.digest] * len(sums))
    values = job.grid()
    if job.kind == "distance":
        pose = scenario.rx_pose
        return _pose_sweep(scenario, job, values, values, pose.theta, pose.phi, seed)
    a, phi = _off_normal(values, scenario.rx_plane_deg)
    return _pose_sweep(scenario, job, values, scenario.rx_pose.r, math.pi - a, phi, seed)


def _scenario_summary(s: Scenario) -> dict:
    """summary.json's scenario: each model as the list of its fields, in declared order."""
    def listed(model):
        return None if model is None else [getattr(model, f.name) for f in fields(model)]
    return {"frequency_hz": s.frequency, "wavelength_m": s.wavelength,
            "tx_pose": listed(s.tx_pose), "rx_pose": listed(s.rx_pose), "layout": listed(s.layout),
            "tx_antenna": listed(s.tx_antenna), "rx_antenna": listed(s.rx_antenna),
            "codebook": listed(s.codebook),
            "amplifier_calibration": [list(p) for p in s.amplifier.calibration],
            "amplifier_max_current_a": s.amplifier.max_current, "tx_power_w": s.tx_power,
            "noise_variance_w": s.noise_variance, "phase_jitter": listed(s.jitter)}


def run_config(path, out_dir, seed=0) -> dict:
    """Execute every sweep in a config file; one CSV per sweep plus summary.json.

    Every sweep is computed before anything is written, so a failing one leaves
    no partial output.  Fully deterministic for a given (config, seed): reruns produce
    byte-identical files.
    """
    from .config import load_run_plan  # local import; config builds on this module

    seed, plan = operator.index(seed), load_run_plan(path)
    cuts = {}  # the pattern jobs on each grid, cut in one kernel call
    for job in plan.jobs:
        if job.kind == "pattern":
            cuts.setdefault(job.grid().tobytes(), []).append(job)
    done = {job.name: res for jobs in cuts.values() for job, res in
            zip(jobs, _radiation_patterns(plan.scenario, jobs, seed))}
    results = [done[job.name] if job.name in done else run_sweep(plan.scenario, job, seed)
               for job in plan.jobs]
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for job, res in zip(plan.jobs, results):
        csv_name = f"{job.name}.csv"
        res.write_csv(os.path.join(out_dir, csv_name))
        entries.append({"name": job.name, "kind": job.kind, "csv": csv_name,
                        "beamforming": job.method, "rows": len(res.values),
                        "metrics": res.metrics})
    summary = {
        "config": os.path.basename(str(path)),
        "seed": seed,
        "scenario": _scenario_summary(plan.scenario),
        "sweeps": entries,
    }
    with open(os.path.join(out_dir, "summary.json"), "w", newline="") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary

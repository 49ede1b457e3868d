"""Flat INI-style experiment configs: [scenario], [amplifier], and [sweep NAME] sections.

Kept deliberately simple — `key = value` lines, `#` comments — but every
diagnostic carries `path:line:` so a bad config fails loudly and precisely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .channel import AntennaModel
from .experiments import SweepError, SweepJob, incidence_side_pose, transmission_side_pose
from .geometry import ArrayLayout
from .link import Scenario, from_db
from .ris import AmplifierModel, PhaseCodebook, PhaseJitterModel


class ConfigError(Exception):
    """Malformed or out-of-range experiment config."""


def _err(path, line, msg) -> ConfigError:
    return ConfigError(f"{path}:{line}: {msg}")


class Section(dict):
    """Raw keys of one section, {key: (value string, line number)}, plus its header's line."""

    def __init__(self, line: int):
        super().__init__()
        self.line = line


def parse_sections(path) -> dict[str, Section]:
    """Raw sections by name: {key: (value string, line number)} plus the header's line."""
    sections: dict[str, Section] = {}
    current = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                if not line.endswith("]"):
                    raise _err(path, lineno, "unterminated section header")
                name = line[1:-1].strip()
                if not name:
                    raise _err(path, lineno, "empty section name")
                if name in sections:
                    raise _err(path, lineno, f"duplicate section [{name}]")
                sections[name] = Section(lineno)
                current = name
                continue
            if "=" not in line:
                raise _err(path, lineno, f"expected 'key = value', got {line!r}")
            if current is None:
                raise _err(path, lineno, "key outside any [section]")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if not key:
                raise _err(path, lineno, "empty key")
            if key in sections[current]:
                raise _err(path, lineno, f"duplicate key {key!r} in [{current}]")
            sections[current][key] = (value, lineno)
    return sections


def _take(section: dict, key: str, default, convert, check, describe, path):
    """Pop `key` from a raw section, convert and range-check it."""
    if key not in section:
        return default
    raw, line = section.pop(key)
    try:
        value = convert(raw)
    except ValueError:
        raise _err(path, line, f"{key}: cannot parse {raw!r}") from None
    if check is not None and not check(value):
        raise _err(path, line, f"{key} must be {describe}, got {raw}")
    return value


def _reject_unknown(section: dict, name: str, path) -> None:
    for key, (_, line) in sorted(section.items(), key=lambda kv: kv[1][1]):
        raise _err(path, line, f"unknown key {key!r} in [{name}]")


def _parse_calibration(raw: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for chunk in raw.split(","):
        cur, _, db = chunk.partition(":")
        pairs.append((float(cur), float(db)))
    return tuple(pairs)


_POSITIVE = (lambda v: 0 < v < math.inf, "positive and finite")
_NONNEG = (lambda v: v >= 0, ">= 0")
_ANGLE_OPEN = (lambda v: -90.0 < v < 90.0, "strictly inside (-90, 90) deg")


def build_scenario(sections: dict, path) -> tuple[Scenario, float]:
    """The [scenario]/[amplifier] link plus the configured RX azimuth in degrees.

    Angle sweeps and pattern cuts turn in that azimuth's plane.  The RX pose
    cannot give it back: a negative zenith stores it turned by 180 deg.
    """
    sc = dict(sections.get("scenario", {}))
    amp_raw = dict(sections.get("amplifier", {}))

    f = _take(sc, "frequency_hz", 2.6e9, float, *_POSITIVE, path)
    tx_d = _take(sc, "tx_distance_m", 0.6, float, *_POSITIVE, path)
    tx_z = _take(sc, "tx_zenith_deg", 0.0, float, *_ANGLE_OPEN, path)
    tx_a = _take(sc, "tx_azimuth_deg", 0.0, float, None, None, path)
    rx_d = _take(sc, "rx_distance_m", 4.0, float, *_POSITIVE, path)
    rx_z = _take(sc, "rx_zenith_deg", 0.0, float, *_ANGLE_OPEN, path)
    rx_a = _take(sc, "rx_azimuth_deg", 0.0, float, None, None, path)
    n_rows = _take(sc, "n_rows", 4, int, lambda v: v >= 1, ">= 1", path)
    n_cols = _take(sc, "n_cols", 8, int, lambda v: v >= 1, ">= 1", path)
    pitch_x = _take(sc, "pitch_x_m", 0.06, float, *_POSITIVE, path)
    pitch_y = _take(sc, "pitch_y_m", 0.06, float, *_POSITIVE, path)
    tx_g = _take(sc, "tx_gain_dbi", 15.0, float, None, None, path)
    tx_q = _take(sc, "tx_exponent", 0.0, float, *_NONNEG, path)
    rx_g = _take(sc, "rx_gain_dbi", 15.0, float, None, None, path)
    rx_q = _take(sc, "rx_exponent", 0.0, float, *_NONNEG, path)
    p_t = _take(sc, "tx_power_w", 1.0, float, *_NONNEG, path)
    nv = _take(sc, "noise_variance_w", 0.0, float, *_NONNEG, path)
    bits = _take(sc, "codebook_bits", 2, int, lambda v: v >= 1, ">= 1", path)
    off = _take(sc, "codebook_offset_deg", 0.0, float,
                lambda v: 0.0 <= v < 360.0 / 2 ** (bits - 1),
                f"in [0, {360.0 / 2 ** (bits - 1)}) deg", path)
    jit = _take(sc, "phase_jitter_max_deg", 0.0, float, *_NONNEG, path)
    jit_seed = _take(sc, "phase_jitter_seed", 0, int, None, None, path)
    _reject_unknown(sc, "scenario", path)

    cal = _take(amp_raw, "calibration", None, _parse_calibration, None, None, path)
    max_cur = _take(amp_raw, "max_current_a", 0.12, float, *_POSITIVE, path)
    _reject_unknown(amp_raw, "amplifier", path)
    try:
        amplifier = (AmplifierModel(max_current=max_cur) if cal is None
                     else AmplifierModel(cal, max_cur))
    except ValueError as e:
        section = sections["amplifier"]
        line = section["calibration"][1] if cal is not None else section.line
        raise _err(path, line, f"amplifier: {e}") from None

    return Scenario(
        frequency=f,
        tx_pose=incidence_side_pose(tx_d, tx_z, tx_a),
        rx_pose=transmission_side_pose(rx_d, rx_z, rx_a),
        layout=ArrayLayout(n_rows, n_cols, pitch_x, pitch_y),
        tx_antenna=AntennaModel(from_db(tx_g), tx_q),
        rx_antenna=AntennaModel(from_db(rx_g), rx_q),
        codebook=PhaseCodebook(bits, math.radians(off)),
        amplifier=amplifier,
        tx_power=p_t,
        noise_variance=nv,
        jitter=PhaseJitterModel(math.radians(jit), jit_seed) if jit > 0 else None,
    ), rx_a


@dataclass
class RunPlan:
    scenario: Scenario
    jobs: list[SweepJob] = field(default_factory=list)
    rx_azimuth_deg: float = 0.0


def _parse_currents(raw: str) -> tuple[float, ...]:
    return tuple(float(c) for c in raw.split(","))


_GRID = ("distance", "angle", "pattern")
# [sweep NAME] key -> (the SweepJob field it sets, its parser, the kinds that take it)
_SWEEP_KEYS = {"method": ("method", str, (*_GRID, "gain")), "start": ("start", float, _GRID),
               "stop": ("stop", float, _GRID), "step": ("step", float, _GRID),
               "steering_deg": ("steering_deg", float, ("pattern",)),
               "currents_a": ("currents", _parse_currents, ("gain",))}
_CONFIG_KEY = {"kind": "type", "currents": "currents_a"}


def build_jobs(sections: dict, path) -> list[SweepJob]:
    """One `SweepJob` per [sweep NAME] section; a job's error names its key's line."""
    jobs, taken = [], {}
    for name, section in sections.items():
        if not name.startswith("sweep"):
            continue
        job_name = name[len("sweep"):].strip() or "sweep"
        if job_name in taken:
            raise _err(path, section.line,
                       f"[{name}] names sweep {job_name!r}, already taken by [{taken[job_name]}]")
        taken[job_name] = name
        if "type" not in section:
            raise _err(path, section.line, f"[{name}] needs a 'type' key")
        raw = dict(section)
        kind = raw.pop("type")[0]
        fields = {attr: _take(raw, key, None, convert, None, None, path)
                  for key, (attr, convert, kinds) in _SWEEP_KEYS.items()
                  if key in raw and kind in kinds}
        if kind == "gain" and "currents" not in fields:
            raise _err(path, section.line, f"[{name}] of type gain needs currents_a")
        try:
            jobs.append(SweepJob(job_name, kind, **fields))
        except SweepError as e:
            key = _CONFIG_KEY.get(e.key, e.key)
            raise _err(path, section[key][1] if key in section else section.line, e) from None
        _reject_unknown(raw, name, path)
    return jobs


def load_run_plan(path) -> RunPlan:
    """Parse and validate a config file into a scenario plus sweep jobs."""
    sections = parse_sections(path)
    known = {"scenario", "amplifier"}
    for name in sections:
        if name not in known and not name.startswith("sweep"):
            raise _err(path, sections[name].line, f"unknown section [{name}]")
    try:
        scenario, rx_azimuth_deg = build_scenario(sections, path)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None
    return RunPlan(scenario, build_jobs(sections, path), rx_azimuth_deg)

"""Flat INI-style experiment configs: [scenario], [amplifier], and [sweep NAME] sections.

Kept deliberately simple — `key = value` lines, `#` comments — but every
diagnostic carries `path:line:` so a bad config fails loudly and precisely.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from .experiments import SweepError, SweepJob, chamber_scenario
from .link import Scenario
from .ris import SupplyBudgetError


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


def _parse(key: str, raw: str, line: int, convert, path):
    """`convert(raw)`; a value it cannot parse names its key's line."""
    try:
        return convert(raw)
    except ValueError:
        raise _err(path, line, f"{key}: cannot parse {raw!r}") from None


def _parse_calibration(raw: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for chunk in raw.split(","):
        cur, _, db = chunk.partition(":")
        pairs.append((float(cur), float(db)))
    return tuple(pairs)


# [scenario]/[amplifier] key -> its `chamber_scenario` parameter, in the builder's order
_SCENARIO_KEYS = inspect.signature(chamber_scenario).parameters
_AMPLIFIER_KEYS = ("calibration", "max_current_a")


def build_scenario(sections: dict, path) -> Scenario:
    """The [scenario]/[amplifier] link from `chamber_scenario`.

    A key is parsed by the type of the builder's default.  The builder checks every
    value; its error names the line of the first key, in file order, with which the
    keys read so far fail with that same error.
    """
    keys, lines = {}, {}
    items = sorted((line, name, key, raw) for name in ("scenario", "amplifier")
                   for key, (raw, line) in sections.get(name, {}).items())
    for line, name, key, raw in items:
        if key not in _SCENARIO_KEYS or (key in _AMPLIFIER_KEYS) != (name == "amplifier"):
            raise _err(path, line, f"unknown key {key!r} in [{name}]")
        convert = _parse_calibration if key == "calibration" else type(_SCENARIO_KEYS[key].default)
        keys[key], lines[key] = _parse(key, raw, line, convert, path), line
    try:
        return chamber_scenario(**keys)
    except ValueError as e:
        raise _err(path, lines[_blame(keys, e)], e) from None


def _blame(keys: dict, error: ValueError) -> str:
    """The first of `keys` with which it and the keys before it fail with `error`."""
    so_far = {}
    for key, value in keys.items():
        so_far[key] = value
        try:
            chamber_scenario(**so_far)
        except ValueError as e:
            if str(e) == str(error):
                break
    return key


@dataclass
class RunPlan:
    scenario: Scenario
    jobs: list[SweepJob]


def _parse_currents(raw: str) -> tuple[float, ...]:
    return tuple(float(c) for c in raw.split(","))


_GRID = ("distance", "angle", "pattern")
# [sweep NAME] key -> (the SweepJob field it sets, its parser, the kinds that take it)
_SWEEP_KEYS = {"method": ("method", str, (*_GRID, "gain")), "start": ("start", float, _GRID),
               "stop": ("stop", float, _GRID), "step": ("step", float, _GRID),
               "steering_deg": ("steering_deg", float, ("pattern",)),
               "currents_a": ("currents", _parse_currents, ("gain",))}
_CONFIG_KEY = {"kind": "type", "currents": "currents_a"}


def build_jobs(sections: dict, path, scenario: Scenario) -> list[SweepJob]:
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
        fields = {attr: _parse(key, *raw.pop(key), convert, path)
                  for key, (attr, convert, kinds) in _SWEEP_KEYS.items()
                  if key in raw and kind in kinds}
        try:
            jobs.append(SweepJob(job_name, kind, **fields))
            if kind == "gain":  # each current, split evenly over the units, within the budget
                scenario.amplifier.gain_db([c / scenario.layout.n_units for c in jobs[-1].currents])
        except SupplyBudgetError as e:
            raise _err(path, section["currents_a"][1], f"currents_a: {e}") from None
        except ValueError as e:  # a SweepError names its field; else the farthest range failed
            key = _CONFIG_KEY.get(e.key, e.key) if isinstance(e, SweepError) else "stop"
            raise _err(path, section[key][1] if key in section else section.line, e) from None
        for key, (_, line) in sorted(raw.items(), key=lambda kv: kv[1][1]):  # the first left
            raise _err(path, line, f"unknown key {key!r} in [{name}]")
    return jobs


def load_run_plan(path) -> RunPlan:
    """Parse and validate a config file into a scenario plus sweep jobs."""
    sections = parse_sections(path)
    known = {"scenario", "amplifier"}
    for name in sections:
        if name not in known and not name.startswith("sweep"):
            raise _err(path, sections[name].line, f"unknown section [{name}]")
    scenario = build_scenario(sections, path)
    return RunPlan(scenario, build_jobs(sections, path, scenario))

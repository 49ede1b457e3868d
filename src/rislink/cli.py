"""Command-line front end: run config files or fire one-off sweeps and searches.

Exit codes: 0 on success, 2 on bad input (config errors, invalid values).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .config import ConfigError, _parse_currents, load_run_plan
from .experiments import (SWEEP_KINDS, SweepJob, apply_beamforming, chamber_scenario, run_config,
                          run_sweep)
from .link import Scenario, _link_budget_db
from .ris import SupplyBudgetError, encode_control

# SP4T switch word of each 2-bit phase index as `beamform` prints it: a JSON string
_CONTROL_WORD_TOKENS = tuple(json.dumps(str(encode_control(k))) for k in range(4))


def _scenario_from_args(args) -> Scenario:
    """The scenario of --config or the chamber default, each given distance moving its pose."""
    scenario = load_run_plan(args.config).scenario if args.config else chamber_scenario()
    for pose, distance in (("tx_pose", args.tx_distance), ("rx_pose", args.rx_distance)):
        if distance is not None:
            scenario = replace(scenario, **{pose: replace(getattr(scenario, pose), r=distance)})
    return scenario


def _cmd_run(args) -> int:
    summary = run_config(args.config_path, args.out, args.seed)
    for entry in summary["sweeps"]:
        print(f"wrote {os.path.join(args.out, entry['csv'])} ({entry['rows']} rows)")
    print(f"wrote {os.path.join(args.out, 'summary.json')}")
    return 0


def _sweep_report(kind: str, res) -> str:
    """What a sweep command prints about its result after the row count."""
    if kind == "gain":
        p = res.received_power_dbm
        return f"received power swing {p[-1] - p[0]:.2f} dB"
    if kind == "pattern":
        return (f"peak {res.peak_angle_deg:g} deg, hpbw {res.hpbw_deg:.2f} deg, "
                f"pslr {res.pslr_db:.2f} dB")
    return f"path loss {res.path_loss_db[0]:.2f} -> {res.path_loss_db[-1]:.2f} dB"


def _cmd_sweep(args) -> int:
    """A sweep command: one `SweepJob` from the arguments, run as `run` runs a config's jobs."""
    scenario = _scenario_from_args(args)
    fields = {key: getattr(args, key) for key in SWEEP_KINDS[args.kind][1]}
    if "currents" in fields:
        try:
            fields["currents"] = _parse_currents(args.currents)
        except ValueError:
            raise ValueError(f"--currents: cannot parse {args.currents!r}") from None
    job = SweepJob(args.csv_stem, args.kind, args.method, **fields)
    try:
        res = run_sweep(scenario, job, args.seed)
    except SupplyBudgetError as e:  # only a gain sweep's currents can exceed the budget
        raise SupplyBudgetError(f"--currents: {e}") from None
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{job.name}.csv")
    res.write_csv(path)
    print(f"wrote {path} ({len(res.values)} rows), {_sweep_report(job.kind, res)}")
    return 0


def _cmd_beamform(args) -> int:
    scenario = _scenario_from_args(args)
    bf = apply_beamforming(scenario, args.method, args.seed,
                           passes=args.passes, max_rounds=args.rounds)
    if args.trace is not None:
        if bf.trace is None:
            raise ValueError(
                f"--trace needs a feedback search (blind or greedy), not {bf.method!r}")
        bf.trace.write_csv(args.trace)
    p_dbm, pl_db = _link_budget_db(scenario, [bf.channel_sum])
    out = {
        "method": bf.method,
        "received_power_dbm": float(p_dbm[0]),
        "path_loss_db": float(pl_db[0]),
        "feedback_queries": bf.queries,
        "config_digest": bf.digest,
    }
    grids = {}
    if bf.configuration is not None:
        grids["phase_indices"] = [str(k) for k in range(scenario.codebook.size)]
        if scenario.codebook.bits == 2:
            grids["control_words"] = _CONTROL_WORD_TOKENS
    else:
        out["phases_rad"] = np.asarray(bf.phases).tolist()
    print(_dumps_indented(out, bf.configuration, grids))
    return 0


def _dumps_indented(out: dict, grid, grids: dict) -> str:
    """json.dumps(out, indent=2, sort_keys=True), byte for byte, plus each of `grids`: a key
    whose value is the index `grid` in the JSON tokens it maps each codebook index to.
    `indent` walks lists in pure Python, so each grid (`_grid_text`) and non-empty list (the C
    encoder) goes over its key's `"key": 0` placeholder; json escapes quotes inside a value."""
    texts = {k: _grid_text(grid, tokens) for k, tokens in grids.items()}
    texts.update((k, "[\n    " + json.dumps(v, separators=(",\n    ", ": "))[1:-1] + "\n  ]")
                 for k, v in out.items() if isinstance(v, list) and v)
    text = json.dumps({**out, **dict.fromkeys(texts, 0)}, indent=2, sort_keys=True)
    for key, value in texts.items():
        text = text.replace(f'"{key}": 0', f'"{key}": {value}', 1)
    return text


# How indent=2 lays out a top-level grid around its entries
_GRID_OPEN, _GRID_CLOSE = "[\n    [\n      ", "\n    ]\n  ]"
_ENTRY_SEP, _ROW_SEP = ",\n      ", "\n    ],\n    [\n      "


def _grid_text(grid: np.ndarray, tokens) -> str:
    """The 2-D index `grid` as indent=2 lays out a top-level value, entry k as tokens[k].

    Item k of a fixed-width table is token k, NUL-padded to the widest (JSON has no raw
    NUL; stripped only if widths differ), then the entry separator: one gather by the
    grid writes each row's bytes, and the row separator overwrites each row's last."""
    pad = max(map(len, tokens))
    items = np.array([t.ljust(pad, "\0") + _ENTRY_SEP for t in tokens], dtype=bytes)
    n_rows, n_cols = grid.shape
    rows = np.empty((n_rows, n_cols * items.itemsize + len(_ROW_SEP) - len(_ENTRY_SEP)), np.uint8)
    rows[:, :n_cols * items.itemsize].view(items.dtype)[...] = items[grid]
    rows[:, -len(_ROW_SEP):] = np.frombuffer(_ROW_SEP.encode(), np.uint8)
    body = rows.tobytes()
    body = (body if pad == min(map(len, tokens)) else body.translate(None, b"\0")).decode()
    return _GRID_OPEN + body[:-len(_ROW_SEP)] + _GRID_CLOSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rislink",
        description="Link budget and discrete-phase beamforming for an active "
                    "transmissive reconfigurable surface.",
    )
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    common = argparse.ArgumentParser(add_help=False, parents=[seeded])
    common.add_argument("--config", help="scenario config file (defaults to the chamber setup)")
    common.add_argument("--tx-distance", type=float, default=None,
                        help="override feed distance in meters")
    rx_moved = argparse.ArgumentParser(add_help=False)  # not sweep-distance: RX range is its grid
    rx_moved.add_argument("--rx-distance", type=float, default=None,
                          help="override probe distance in meters")
    written = argparse.ArgumentParser(add_help=False)  # commands that write files
    written.add_argument("--out", default=".", help="output directory")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", parents=[seeded, written], help="run every sweep in a config file")
    p.add_argument("config_path", help="experiment config file")
    p.set_defaults(func=_cmd_run)

    for kind, command, help_text in (
            ("distance", "sweep-distance", "path loss vs probe distance"),
            ("angle", "sweep-angle", "path loss vs probe angle"),
            ("gain", "sweep-gain", "received power vs array supply current"),
            ("pattern", "pattern", "radiation cut at a fixed steering angle")):
        moved = [] if kind == "distance" else [rx_moved]
        p = sub.add_parser(command, parents=[common, *moved, written], help=help_text)
        if kind == "gain":
            p.add_argument("--currents", default="0.01,0.2,0.4,0.6,0.8,1.0,1.2,1.4",
                           help="comma list of array-level currents in amperes")
        else:
            if kind == "pattern":
                p.add_argument("--steering", type=float, dest="steering_deg", metavar="STEERING")
            for flag in ("--start", "--stop", "--step"):
                p.add_argument(flag, type=float)
        p.add_argument("--method", default="quantized")
        p.set_defaults(func=_cmd_sweep, kind=kind, rx_distance=None,
                       csv_stem="pattern" if kind == "pattern" else f"{kind}_sweep")

    p = sub.add_parser("beamform", parents=[common, rx_moved],
                       help="optimize one configuration and print it as JSON")
    p.add_argument("--method", default="blind")
    p.add_argument("--passes", type=int, default=4, help="blind search passes")
    p.add_argument("--rounds", type=int, default=8, help="greedy search rounds")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="write the search's readings as CSV: step,accepted,power_w")
    p.set_defaults(func=_cmd_beamform)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.seed < 0:  # every command takes --seed
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

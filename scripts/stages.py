#!/usr/bin/env python3
"""Median CPU time per stage of `rislink run` or `rislink beamform`, per config.

    python3 scripts/stages.py run CONFIG... [--repeat N] [--seed S]
    python3 scripts/stages.py beamform CONFIG... [--repeat N] [--seed S]
        [--passes P] [--rounds R] [--noiseless]

`run` times `rislink run CONFIG --seed S` (default 0) into a temporary directory;
`beamform` times `rislink beamform --config CONFIG --seed S` with `--method`
blind and greedy and the given `--passes` and `--rounds` (default: the command's
own), and `--noiseless` sets the reading noise to 0.  Each call runs N times
(default 5), stdout captured, with the functions of each stage in STAGES wrapped
in CPU timers (`time.process_time`).  A stage gets its functions' time less that
of the wrapped calls inside them, so `other` holds only unwrapped work.
`bench/run.py --workload W --seed S --seconds T` leaves its configs in
`.bench_out/W-S/inputs/`: `run --seed S` on them makes the `chamber_configs` and
`large_surface_sweeps` calls, `beamform --seed S --passes 4 --rounds 1` the
`feedback_search` ones.  The stages, in the order each command runs them:

    run       parse (argument parsing), load (config file to scenario and jobs),
              steer (_steer: the cuts' steerings, and apply_beamforming), sums
              (_channel_sums: the cuts' path tables and sums), sweeps
              (_pose_sweep: a distance or angle sweep's path table, closed
              forms, sums and digests), rows (dBm/dB rows, each cut's
              beamwidth and sidelobe), csv, json (summary.json)
    beamform  parse, scenario (config and overrides to a Scenario), oracle (the
              FeedbackChannel build), search (blind or greedy), digest, sum (the
              found configuration's programmed phases and the dBm/dB conversion
              of its channel sum; the sum itself is other), json (printed JSON)

Both add `other` (total minus the stages) and `total`: one line per config, and
per method for `beamform`, of medians in ms.
"""

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rislink import cli, config, experiments, link  # noqa: E402

STAGES = {
    "run": (
        ("parse", [(cli._PARSER, "parse_args")]),
        ("load", [(config, "load_run_plan")]),
        ("steer", [(experiments, "_steer"), (experiments, "apply_beamforming")]),
        ("sums", [(experiments, "_channel_sums")]),
        ("sweeps", [(experiments, "_pose_sweep")]),
        ("rows", [(experiments, "_link_budget_db"), (experiments, "half_power_beamwidth"),
                  (experiments, "peak_to_sidelobe")]),
        ("csv", [(experiments.SweepResult, "write_csv")]),
        ("json", [(json, "dumps")]),
    ),
    "beamform": (
        ("parse", [(cli._PARSER, "parse_args")]),
        ("scenario", [(cli, "_scenario_from_args")]),
        ("oracle", [(experiments, "FeedbackChannel")]),
        ("search", [(experiments, "blind_rowcol_search"), (experiments, "greedy_element_search")]),
        ("digest", [(experiments, "_config_digest")]),
        ("sum", [(link.Scenario, "programmed_phases"), (cli, "_link_budget_db")]),
        ("json", [(cli, "_dumps_indented")]),
    ),
}


@contextlib.contextmanager
def timed_stages(stages, spent: dict):
    """Wrap the functions of every (stage, [(owner, name), ...]) in `stages` so each
    call adds to spent[stage] its CPU seconds less those of the wrapped calls inside it."""
    originals, inner = [], []  # inner[i]: CPU seconds of the wrapped calls inside open call i

    def timer(stage, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            inner.append(0.0)
            t0 = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.process_time() - t0
                spent[stage] += took - inner.pop()
                if inner:
                    inner[-1] += took
        return timed

    try:
        for stage, targets in stages:
            for owner, name in targets:
                originals.append((owner, name, getattr(owner, name)))
                setattr(owner, name, timer(stage, originals[-1][2]))
        yield
    finally:
        for owner, name, fn in reversed(originals):
            setattr(owner, name, fn)


def calls(command: str, cfg: str, args) -> list[tuple[str, list[str]]]:
    """(method, argv) of each call one config gets: one `run` (method ""), or a blind
    and a greedy `beamform`; `one_run` adds a `run`'s temporary --out."""
    if command == "run":
        return [("", ["run", cfg, "--seed", str(args.seed)])]
    common = ["beamform", "--config", cfg, "--seed", str(args.seed), "--method"]
    passes = [] if args.passes is None else ["--passes", str(args.passes)]
    rounds = [] if args.rounds is None else ["--rounds", str(args.rounds)]
    return [("blind", common + ["blind"] + passes), ("greedy", common + ["greedy"] + rounds)]


@contextlib.contextmanager
def noiseless():
    """Build every beamform scenario with its reading noise set to 0."""
    build = cli._scenario_from_args

    def quiet(args):
        scenario, rx_azimuth_deg = build(args)
        return dataclasses.replace(scenario, noise_variance=0.0), rx_azimuth_deg

    cli._scenario_from_args = quiet
    try:
        yield
    finally:
        cli._scenario_from_args = build


def one_run(stages, argv: list[str], quiet: bool) -> dict:
    """CPU seconds per stage, plus `other` and `total`, of one call (noiseless if `quiet`)."""
    spent = dict.fromkeys([stage for stage, _ in stages], 0.0)
    with tempfile.TemporaryDirectory() as out, \
            (noiseless() if quiet else contextlib.nullcontext()), \
            timed_stages(stages, spent), contextlib.redirect_stdout(io.StringIO()):
        argv = argv + ["--out", out] if argv[0] == "run" else argv
        t0 = time.process_time()
        code = cli.main(argv)
        spent["total"] = time.process_time() - t0
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    spent["other"] = spent["total"] - sum(spent[stage] for stage, _ in stages)
    return spent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command in STAGES:
        p = sub.add_parser(command, help=f"the stages of rislink {command}")
        p.add_argument("configs", nargs="+", metavar="CONFIG")
        p.add_argument("--repeat", type=int, default=5, help="runs of each call")
        p.add_argument("--seed", type=int, default=0, help=f"{command} --seed")
    p = sub.choices["beamform"]
    p.add_argument("--passes", type=int, help="blind --passes (default: the command's)")
    p.add_argument("--rounds", type=int, help="greedy --rounds (default: the command's)")
    p.add_argument("--noiseless", action="store_true", help="set the reading noise to 0")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        sub.choices[args.command].error("--repeat must be >= 1")
    stages = STAGES[args.command]
    names = [stage for stage, _ in stages] + ["other", "total"]
    method_column = f" {'method':<7}" if args.command == "beamform" else ""
    print(f"median CPU ms over {args.repeat} calls")
    print(f"{'config':<20}{method_column}" + "".join(f"{n:>9}" for n in names))
    for cfg in args.configs:
        for method, call in calls(args.command, cfg, args):
            runs = [one_run(stages, call, getattr(args, "noiseless", False))
                    for _ in range(args.repeat)]
            ms = [1e3 * statistics.median(r[n] for r in runs) for n in names]
            label = f"{os.path.basename(cfg):<20}" + (f" {method:<7}" if method else "")
            print(label + "".join(f"{v:9.3f}" for v in ms))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Median CPU time per stage of `rislink beamform`, blind and greedy, per config.

    python3 scripts/beamform_stages.py CONFIG... [--repeat N] [--seed S]
        [--passes P] [--rounds R] [--noiseless]

Runs `rislink beamform --config CONFIG --seed S` (default 0) with the given
blind passes and greedy rounds (default: the command's own), N times per method
(default 5), with the functions that make up each stage wrapped in CPU timers
(`time.process_time`); stdout is captured.  `--noiseless` sets the reading
noise to 0.  The benchmark's `feedback_search` calls are `--seed <its seed>
--passes 4 --rounds 1` on its generated pool.  The stages, in the order the
command runs them:

    parse        argument parsing
    scenario     the config file and overrides to a Scenario
    oracle       the FeedbackChannel build: element weights, jitter and term table
    search       the blind or greedy search
    digest       config digest of the found configuration
    sum          the found configuration's programmed phases (codebook entry
                 plus jitter per unit) and the dBm/dB conversion of the
                 channel sum; the sum itself counts as other
    json         the printed JSON text
    other        the rest of the command (total minus the stages)

One line per config and method gives each stage's median in ms and the
median total.
"""

import argparse
import contextlib
import dataclasses
import functools
import io
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rislink import cli, experiments, link  # noqa: E402

METHODS = ("blind", "greedy")
STAGES = (
    ("parse", [(cli._PARSER, "parse_args")]),
    ("scenario", [(cli, "_scenario_from_args")]),
    ("oracle", [(experiments, "FeedbackChannel")]),
    ("search", [(experiments, "blind_rowcol_search"), (experiments, "greedy_element_search")]),
    ("digest", [(experiments, "_config_digest")]),
    ("sum", [(link.Scenario, "programmed_phases"), (cli, "_link_budget_db")]),
    ("json", [(cli, "_dumps_indented")]),
)


@contextlib.contextmanager
def timed_stages(stages, spent: dict):
    """Wrap the functions of every (stage, [(owner, name), ...]) in `stages` so each
    call adds its CPU seconds to spent[stage]; a wrapped call inside another counts twice."""
    originals = []

    def timer(stage, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[stage] += time.process_time() - t0
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


def beamform_args(cfg: str, method: str, args) -> list[str]:
    """The `rislink beamform` argument list of one call."""
    argv = ["beamform", "--config", cfg, "--seed", str(args.seed), "--method", method]
    if method == "blind" and args.passes is not None:
        argv += ["--passes", str(args.passes)]
    if method == "greedy" and args.rounds is not None:
        argv += ["--rounds", str(args.rounds)]
    return argv


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


def one_run(argv: list[str], quiet: bool) -> dict:
    """CPU seconds per stage, plus `total`, of one beamform call (noiseless if `quiet`)."""
    spent = dict.fromkeys([stage for stage, _ in STAGES], 0.0)
    with (noiseless() if quiet else contextlib.nullcontext()), timed_stages(STAGES, spent), \
            contextlib.redirect_stdout(io.StringIO()):
        t0 = time.process_time()
        code = cli.main(argv)
        spent["total"] = time.process_time() - t0
    if code != 0:
        raise SystemExit(f"beamform {' '.join(argv[1:])} exited {code}")
    spent["other"] = spent["total"] - sum(spent[stage] for stage, _ in STAGES)
    return spent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="+", metavar="CONFIG")
    parser.add_argument("--repeat", type=int, default=5, help="calls per config and method")
    parser.add_argument("--seed", type=int, default=0, help="beamform --seed")
    parser.add_argument("--passes", type=int, help="blind --passes (default: the command's)")
    parser.add_argument("--rounds", type=int, help="greedy --rounds (default: the command's)")
    parser.add_argument("--noiseless", action="store_true", help="set the reading noise to 0")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    names = [stage for stage, _ in STAGES] + ["other", "total"]
    print(f"median CPU ms over {args.repeat} calls")
    print(f"{'config':<20} {'method':<7}" + "".join(f"{n:>9}" for n in names))
    for cfg in args.configs:
        for method in METHODS:
            runs = [one_run(beamform_args(cfg, method, args), args.noiseless)
                    for _ in range(args.repeat)]
            ms = [1e3 * statistics.median(r[n] for r in runs) for n in names]
            print(f"{os.path.basename(cfg):<20} {method:<7}" + "".join(f"{v:9.3f}" for v in ms))
    return 0


if __name__ == "__main__":
    sys.exit(main())

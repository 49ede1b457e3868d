#!/usr/bin/env python3
"""Median CPU time per stage of `rislink beamform`, blind and greedy, per config.

    python3 scripts/beamform_stages.py CONFIG... [--repeat N]

Runs `rislink beamform --config CONFIG --seed 0` with the default passes and
rounds, N times per method (default 5), with the functions that make up each
stage wrapped in CPU timers (`time.process_time`); stdout is captured.  The
stages, in the order the command runs them:

    parse        argument parsing
    scenario     the config file and overrides to a Scenario
    oracle       power_oracle: element weights, jitter and term table
    search       the blind or greedy search
    states       states and config digest of the found configuration
    sum          the outcome's channel sum and its dBm/dB conversion
    json         the printed JSON text
    other        the rest of the command (total minus the stages)

One line per config and method gives each stage's median in ms and the
median total.
"""

import argparse
import contextlib
import functools
import io
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rislink import cli, experiments  # noqa: E402

METHODS = ("blind", "greedy")
STAGES = (
    ("parse", [(cli._PARSER, "parse_args")]),
    ("scenario", [(cli, "_scenario_from_args")]),
    ("oracle", [(experiments, "power_oracle")]),
    ("search", [(experiments, "blind_rowcol_search"), (experiments, "greedy_element_search")]),
    ("states", [(experiments, "states_from_configuration"), (experiments, "_config_digest")]),
    ("sum", [(experiments.BeamformingOutcome, "channel_sum"), (cli, "_link_budget_db")]),
    ("json", [(cli, "_dumps_indented")]),
)


@contextlib.contextmanager
def timed_stages(spent: dict):
    """Wrap every stage's functions so each call adds its CPU seconds to spent[stage]."""
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
        for stage, targets in STAGES:
            for owner, name in targets:
                originals.append((owner, name, getattr(owner, name)))
                setattr(owner, name, timer(stage, originals[-1][2]))
        yield
    finally:
        for owner, name, fn in reversed(originals):
            setattr(owner, name, fn)


def one_run(cfg: str, method: str) -> dict:
    """CPU seconds per stage, plus `total`, of one beamform call."""
    spent = dict.fromkeys([stage for stage, _ in STAGES], 0.0)
    with timed_stages(spent), contextlib.redirect_stdout(io.StringIO()):
        t0 = time.process_time()
        code = cli.main(["beamform", "--config", cfg, "--seed", "0", "--method", method])
        spent["total"] = time.process_time() - t0
    if code != 0:
        raise SystemExit(f"{cfg}: beamform --method {method} exited {code}")
    spent["other"] = spent["total"] - sum(spent[stage] for stage, _ in STAGES)
    return spent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="+", metavar="CONFIG")
    parser.add_argument("--repeat", type=int, default=5, help="calls per config and method")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    names = [stage for stage, _ in STAGES] + ["other", "total"]
    print(f"median CPU ms over {args.repeat} calls")
    print(f"{'config':<20} {'method':<7}" + "".join(f"{n:>9}" for n in names))
    for cfg in args.configs:
        for method in METHODS:
            runs = [one_run(cfg, method) for _ in range(args.repeat)]
            ms = [1e3 * statistics.median(r[n] for r in runs) for n in names]
            print(f"{os.path.basename(cfg):<20} {method:<7}" + "".join(f"{v:9.3f}" for v in ms))
    return 0


if __name__ == "__main__":
    sys.exit(main())

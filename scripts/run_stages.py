#!/usr/bin/env python3
"""Median CPU time per stage of `rislink run`, per config.

    python3 scripts/run_stages.py CONFIG... [--repeat N] [--seed S]

Runs `rislink run CONFIG --seed S` (default 0) N times (default 5) into a
temporary directory, with the functions that make up each stage wrapped in CPU
timers (`time.process_time`, by `beamform_stages.timed_stages`); stdout is
captured.  The stages, in the order the command runs them:

    parse        argument parsing
    load         the config file to a scenario and sweep jobs
    steer        apply_beamforming: every configuration a sweep or cut programs
    sums         _channel_sums: the cuts' path tables and channel sums
    rows         dBm/dB rows of every sweep, and each cut's beamwidth and sidelobe
    csv          the CSV files
    json         the summary.json text
    other        the rest of the command (total minus the stages); this holds a
                 closed-form distance or angle sweep's path table and sums

One line per config gives each stage's median in ms and the median total.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from beamform_stages import timed_stages  # noqa: E402
from rislink import cli, config, experiments  # noqa: E402

STAGES = (
    ("parse", [(cli._PARSER, "parse_args")]),
    ("load", [(config, "load_run_plan")]),
    ("steer", [(experiments, "apply_beamforming")]),
    ("sums", [(experiments, "_channel_sums")]),
    ("rows", [(experiments, "_link_budget_db"), (experiments, "half_power_beamwidth"),
              (experiments, "peak_to_sidelobe")]),
    ("csv", [(experiments.SweepResult, "write_csv")]),
    ("json", [(json, "dumps")]),
)


def one_run(cfg: str, seed: int) -> dict:
    """CPU seconds per stage, plus `total` and `other`, of one `rislink run` of `cfg`."""
    spent = dict.fromkeys([stage for stage, _ in STAGES], 0.0)
    with tempfile.TemporaryDirectory() as out, timed_stages(STAGES, spent), \
            contextlib.redirect_stdout(io.StringIO()):
        t0 = time.process_time()
        code = cli.main(["run", cfg, "--seed", str(seed), "--out", out])
        spent["total"] = time.process_time() - t0
    if code != 0:
        raise SystemExit(f"run {cfg} exited {code}")
    spent["other"] = spent["total"] - sum(spent[stage] for stage, _ in STAGES)
    return spent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="+", metavar="CONFIG")
    parser.add_argument("--repeat", type=int, default=5, help="runs per config")
    parser.add_argument("--seed", type=int, default=0, help="run --seed")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    names = [stage for stage, _ in STAGES] + ["other", "total"]
    print(f"median CPU ms over {args.repeat} runs")
    print(f"{'config':<20}" + "".join(f"{n:>9}" for n in names))
    for cfg in args.configs:
        runs = [one_run(cfg, args.seed) for _ in range(args.repeat)]
        ms = [1e3 * statistics.median(r[n] for r in runs) for n in names]
        print(f"{os.path.basename(cfg):<20}" + "".join(f"{v:9.3f}" for v in ms))
    return 0


if __name__ == "__main__":
    sys.exit(main())

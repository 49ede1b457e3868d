#!/usr/bin/env python3
"""Write `rislink beamform` outputs of every method over configs, for diffing two trees.

    python3 scripts/beamform_outputs.py CONFIG... --out DIR

For each config and seed 0-2 it writes DIR/<config stem>/<run>.json with the
command's stdout, where <run> is the method plus its seed (greedy once per
round count in ROUNDS), and <run>.csv with the `--trace` CSV of blind and
greedy.  The methods are the package's `BEAMFORMING_METHODS`, so a method one
tree adds shows up as files only in its DIR.  Run it from each of two trees
(copy it into the other one's scripts/) and compare the two DIRs with
`diff -r`: the outputs are deterministic, so any difference is a change of
behaviour.
"""

import argparse
import contextlib
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rislink.cli import main as rislink  # noqa: E402
from rislink.experiments import BEAMFORMING_METHODS  # noqa: E402

SEEDS = (0, 1, 2)
ROUNDS = (1, 3, 8)  # greedy --rounds values; 8 is the default


def runs(seed: int):
    """(run name, extra beamform arguments, whether it has a trace) per method."""
    for method in BEAMFORMING_METHODS:
        if method == "greedy":
            for r in ROUNDS:
                yield f"greedy_rounds{r}_seed{seed}", ["--rounds", str(r)], True
        else:
            yield f"{method}_seed{seed}", [], method == "blind"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="+", metavar="CONFIG")
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)
    for cfg in args.configs:
        out = os.path.join(args.out, os.path.splitext(os.path.basename(cfg))[0])
        os.makedirs(out, exist_ok=True)
        for seed in SEEDS:
            for name, extra, traced in runs(seed):
                argv = ["beamform", "--config", cfg, "--seed", str(seed),
                        "--method", name.split("_")[0], *extra]
                if traced:
                    argv += ["--trace", os.path.join(out, f"{name}.csv")]
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = rislink(argv)
                if code != 0:
                    print(f"{cfg}: beamform {' '.join(argv[3:])} exited {code}", file=sys.stderr)
                    return code
                with open(os.path.join(out, f"{name}.json"), "w", newline="") as fh:
                    fh.write(stdout.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())

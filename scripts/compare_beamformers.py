#!/usr/bin/env python3
"""Side-by-side beamforming comparison on the default chamber link.

Runs every method against the same scenario and prints, from each outcome's
channel sum, the received power and path loss as `rislink beamform` does, the
feedback queries spent, and the fraction of the continuous bound recovered.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rislink.experiments import apply_beamforming, chamber_scenario  # noqa: E402
from rislink.link import _link_budget_db, from_db, max_received_power, watts_to_dbm  # noqa: E402

METHODS = ("none", "quantized", "blind", "greedy", "continuous")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rx-angle", type=float, default=0.0,
                        help="steer toward this off-normal angle (deg)")
    parser.add_argument("--noise", type=float, default=0.0,
                        help="feedback measurement noise variance (W)")
    args = parser.parse_args(argv)

    scenario = chamber_scenario(rx_zenith_deg=args.rx_angle, noise_variance_w=args.noise)
    bound_dbm = watts_to_dbm(max_received_power(scenario))

    print(f"chamber link, RX at {args.rx_angle:g} deg, seed {args.seed}, "
          f"feedback noise {args.noise:g} W")
    print(f"continuous power bound: {bound_dbm:.2f} dBm\n")
    header = f"{'method':<12}{'power dBm':>10}{'PL dB':>8}{'of bound':>10}{'queries':>9}"
    print(header)
    print("-" * len(header))
    outcomes = [apply_beamforming(scenario, method, args.seed) for method in METHODS]
    dbm, pl_db = _link_budget_db(scenario, [bf.channel_sum for bf in outcomes])
    for bf, p, pl in zip(outcomes, dbm.tolist(), pl_db.tolist()):
        print(f"{bf.method:<12}{p:>10.2f}{pl:>8.2f}"
              f"{from_db(p - bound_dbm):>10.3f}{bf.queries:>9d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end: run config files or fire one-off sweeps and searches.

Exit codes: 0 on success, 2 on bad input (config errors, invalid values).
Seeds resolve as --seed flag > RISLINK_SEED environment variable > 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .config import ConfigError, load_run_plan
from .experiments import (
    SweepSpec,
    angle_sweep,
    apply_beamforming,
    chamber_scenario,
    distance_sweep,
    gain_sweep,
    radiation_pattern,
    run_config,
)
from .geometry import SphericalPose
from .link import _channel_sum, _link_budget_db
from .ris import SupplyBudgetError, encode_control

SEED_ENV_VAR = "RISLINK_SEED"


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _scenario_from_args(args):
    """(scenario, RX azimuth in degrees) from --config or the chamber default, with overrides."""
    if args.config:
        plan = load_run_plan(args.config)
        scenario, rx_azimuth_deg = plan.scenario, plan.rx_azimuth_deg
    else:
        scenario, rx_azimuth_deg = chamber_scenario(), 0.0
    if getattr(args, "tx_distance", None) is not None:
        pose = scenario.tx_pose
        scenario = replace(scenario, tx_pose=SphericalPose(args.tx_distance, pose.theta, pose.phi))
    if getattr(args, "rx_distance", None) is not None:
        pose = scenario.rx_pose
        scenario = replace(scenario, rx_pose=SphericalPose(args.rx_distance, pose.theta, pose.phi))
    return scenario, rx_azimuth_deg


def _write_sweep(result, out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    result.write_csv(path)
    return path


def _cmd_run(args) -> int:
    summary = run_config(args.config_path, args.out, _resolve_seed(args))
    for entry in summary["sweeps"]:
        print(f"wrote {os.path.join(args.out, entry['csv'])} ({entry['rows']} rows)")
    print(f"wrote {os.path.join(args.out, 'summary.json')}")
    return 0


def _cmd_sweep_distance(args) -> int:
    scenario, _ = _scenario_from_args(args)
    spec = SweepSpec("rx_distance", args.start, args.stop, args.step, args.method)
    res = distance_sweep(scenario, spec, _resolve_seed(args))
    path = _write_sweep(res, args.out, "distance_sweep.csv")
    pl = res.path_losses_db()
    print(f"wrote {path} ({len(res.rows)} rows), path loss "
          f"{pl[0]:.2f} -> {pl[-1]:.2f} dB")
    return 0


def _cmd_sweep_angle(args) -> int:
    scenario, rx_azimuth_deg = _scenario_from_args(args)
    spec = SweepSpec("rx_zenith", args.start, args.stop, args.step, args.method)
    res = angle_sweep(scenario, spec, _resolve_seed(args), rx_azimuth_deg)
    path = _write_sweep(res, args.out, "angle_sweep.csv")
    pl = res.path_losses_db()
    print(f"wrote {path} ({len(res.rows)} rows), path loss "
          f"{pl[0]:.2f} -> {pl[-1]:.2f} dB")
    return 0


def _cmd_sweep_gain(args) -> int:
    scenario, _ = _scenario_from_args(args)
    currents = [float(c) for c in args.currents.split(",") if c.strip()]
    res = gain_sweep(scenario, currents, args.method, _resolve_seed(args))
    path = _write_sweep(res, args.out, "gain_sweep.csv")
    p = res.received_powers_dbm()
    print(f"wrote {path} ({len(res.rows)} rows), received power swing "
          f"{p[-1] - p[0]:.2f} dB")
    return 0


def _cmd_pattern(args) -> int:
    scenario, rx_azimuth_deg = _scenario_from_args(args)
    res = radiation_pattern(scenario, args.steering, args.start, args.stop,
                            args.step, args.method, _resolve_seed(args), rx_azimuth_deg)
    path = _write_sweep(res, args.out, "pattern.csv")
    print(f"wrote {path} ({len(res.angles_deg)} rows), peak {res.peak_angle_deg:g} deg, "
          f"hpbw {res.hpbw_deg:.2f} deg, pslr {res.pslr_db:.2f} dB")
    return 0


def _cmd_beamform(args) -> int:
    scenario, _ = _scenario_from_args(args)
    bf = apply_beamforming(scenario, args.method, _resolve_seed(args),
                           passes=args.passes, max_rounds=args.rounds)
    p_dbm, pl_db = _link_budget_db(scenario, _channel_sum(scenario, bf.states, bf.phases))
    out = {
        "method": bf.method,
        "received_power_dbm": p_dbm,
        "path_loss_db": pl_db,
        "feedback_queries": bf.queries,
        "config_digest": bf.digest,
    }
    if bf.configuration is not None:
        out["phase_indices"] = bf.configuration.tolist()
        if scenario.codebook.bits == 2:
            out["control_words"] = [
                [str(encode_control(int(k))) for k in row]
                for row in bf.configuration
            ]
    else:
        out["phases_rad"] = np.asarray(bf.phases).tolist()
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rislink",
        description="Link budget and discrete-phase beamforming for an active "
                    "transmissive reconfigurable surface.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="scenario config file (defaults to the chamber setup)")
    common.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--tx-distance", type=float, default=None,
                        help="override feed distance in meters")
    common.add_argument("--rx-distance", type=float, default=None,
                        help="override probe distance in meters")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", parents=[common], help="run every sweep in a config file")
    p.add_argument("config_path", help="experiment config file")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep-distance", parents=[common],
                       help="path loss vs probe distance")
    p.add_argument("--start", type=float, default=0.5)
    p.add_argument("--stop", type=float, default=5.0)
    p.add_argument("--step", type=float, default=0.5)
    p.add_argument("--method", default="quantized")
    p.set_defaults(func=_cmd_sweep_distance)

    p = sub.add_parser("sweep-angle", parents=[common],
                       help="path loss vs probe angle")
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=60.0)
    p.add_argument("--step", type=float, default=10.0)
    p.add_argument("--method", default="quantized")
    p.set_defaults(func=_cmd_sweep_angle)

    p = sub.add_parser("sweep-gain", parents=[common],
                       help="received power vs array supply current")
    p.add_argument("--currents", default="0.01,0.2,0.4,0.6,0.8,1.0,1.2,1.4",
                   help="comma list of array-level currents in amperes")
    p.add_argument("--method", default="quantized")
    p.set_defaults(func=_cmd_sweep_gain)

    p = sub.add_parser("pattern", parents=[common],
                       help="radiation cut at a fixed steering angle")
    p.add_argument("--steering", type=float, default=0.0)
    p.add_argument("--start", type=float, default=-85.0)
    p.add_argument("--stop", type=float, default=85.0)
    p.add_argument("--step", type=float, default=0.5)
    p.add_argument("--method", default="quantized")
    p.set_defaults(func=_cmd_pattern)

    p = sub.add_parser("beamform", parents=[common],
                       help="optimize one configuration and print it as JSON")
    p.add_argument("--method", default="blind")
    p.add_argument("--passes", type=int, default=4, help="blind search passes")
    p.add_argument("--rounds", type=int, default=8, help="greedy search rounds")
    p.set_defaults(func=_cmd_beamform)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SupplyBudgetError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

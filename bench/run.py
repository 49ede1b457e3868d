#!/usr/bin/env python3
"""rislink benchmark: one named workload, driven through `rislink.cli.main`, in one process.

    python3 bench/run.py --workload chamber_configs --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory.  BLAS/OpenMP are pinned to one thread.  One operation is a fixed
set of CLI calls (see workloads.py); a reference kernel (timing.py) is timed
between the calls, in proportion to each call's length, and each operation's
raw time is calibrated by the median of its own kernel timings.  Every operation's
outputs are checked against an independent model (refmodel.py); a call that
errors or an output that disagrees counts the operation as failed.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced operations and reports per-layer metrics plus the tracing overhead.
The last line of stdout is the result JSON; the line before it carries raw
times and the kernel timings.  Details and spans go to .bench_out/.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from timing import REF_NOMINAL_S, calibration_factor, clock, reference_chunk  # noqa: E402
from tracing import SpanTable, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"
SETUP_SAMPLES = 5  # this process's own set-up plus four fresh processes
SETUP_CHUNKS = 7   # reference timings that calibrate one set-up sample
CHILD_TIMEOUT_S = 30  # one set-up takes 1-2 s; four must fit the run's time limit
REF_SHARE = 0.2    # reference-kernel time per operation, as a share of the calls' time

SWEEP_FUNCTIONS = ("experiments.distance_sweep", "experiments.angle_sweep",
                   "experiments.gain_sweep", "experiments.radiation_pattern")
SEARCH_SPANS = ("beamforming.blind_rowcol_search", "beamforming.greedy_element_search",
                "beamforming.FeedbackChannel.measure", "beamforming.SearchTrace.record")
STATE_SPANS = ("link.uniform_states", "link.states_from_configuration", "link._state_arrays")
CSV_SPANS = ("experiments.SweepResult.write_csv", "experiments.PatternResult.write_csv")

PER_LAYER_UNITS = {
    "link.weights_calls": "count", "link.weights_per_eval": "calls/eval",
    "link.weights_us": "us", "link.self_ms": "ms",
    "geometry.calls": "count", "geometry.self_ms": "ms",
    "channel.self_ms": "ms",
    "ris.calls": "count", "ris.self_ms": "ms",
    "link.states_ms": "ms", "beamforming.quantize_ms": "ms",
    "beamforming.queries": "count", "beamforming.query_us": "us",
    "beamforming.search_self_ms": "ms",
    "experiments.points": "count", "experiments.self_ms": "ms",
    "experiments.csv_ms": "ms", "experiments.csv_kb": "KB",
    "config.load_ms": "ms", "cli.self_ms": "ms",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or inputs)."""


@dataclass
class Op:
    raw_s: float = 0.0
    chunks: list = field(default_factory=list)
    stdouts: list = field(default_factory=list)
    call_s: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    errored: bool = False
    evals: int = 0
    csv_bytes: int = 0
    spans: tuple = ()  # (first, end) span indices when the operation was traced

    @property
    def cal_s(self) -> float:
        return self.raw_s * calibration_factor(self.chunks)

    @property
    def failed(self) -> bool:
        return self.errored or bool(self.problems)


def import_rislink():
    src = ROOT / "src"
    if not (src / "rislink" / "__init__.py").is_file():
        raise BenchError(f"no rislink sources under {src}")
    sys.path.insert(0, str(src))
    import rislink
    import rislink.cli  # noqa: F401
    return rislink


def run_op(wl, calls, cli, plan) -> Op:
    """One operation: every call in order, with plan[g] reference chunks before call g
    and plan[-1] after the last call."""
    wl.clear_outputs()
    op = Op()
    for argv, n_chunks in zip(calls, plan):
        op.chunks += [reference_chunk() for _ in range(n_chunks)]
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:  # an uncaught error fails this operation, not the run
            rc = traceback.format_exc(limit=4)
        op.call_s.append(clock() - t0)
        if rc != 0:
            op.errored = True
            op.problems.append(f"{' '.join(argv[:2])}: {rc} {err.getvalue().strip()}")
        op.stdouts.append(out.getvalue())
    op.chunks += [reference_chunk() for _ in range(plan[-1])]
    op.raw_s = sum(op.call_s)
    return op


def chunk_plan(warm: Op) -> list[int]:
    """Reference chunks per gap so that each call is flanked by REF_SHARE of its own time.

    Long calls get more chunks around them, so the calibration samples the
    machine's speed where the measured time is spent.
    """
    chunk_s = statistics.median(warm.chunks)
    half = [REF_SHARE * t / 2.0 / chunk_s for t in warm.call_s]
    return [max(1, round(a + b)) for a, b in zip([0.0] + half, half + [0.0])]


def judge(wl, op: Op) -> None:
    """Check an operation's outputs, then drop its captured stdout so memory stays flat."""
    if not op.errored:
        try:
            op.evals, problems = wl.check(op.stdouts)
        except (OSError, KeyError, ValueError, TypeError) as e:
            problems = [f"unreadable output: {e!r}"]
        op.problems += problems
        op.csv_bytes = wl.csv_bytes()
    op.stdouts = []


def set_up(args, work_dir):
    """Import, generate and validate inputs, one warm-up operation.

    Returns (rislink, workload, calls, chunk plan)."""
    rislink = import_rislink()
    wl = WORKLOADS[args.workload](str(ROOT), str(work_dir), args.seed)
    wl.prepare()
    configs = wl.configs()
    if not configs:
        raise BenchError(f"workload {args.workload} found no input configs")
    for cfg in configs:
        rislink.config.load_run_plan(cfg)
    calls = wl.calls()
    warm = run_op(wl, calls, rislink.cli, [1] * (len(calls) + 1))
    return rislink, wl, calls, chunk_plan(warm)


def setup_sample(raw_s: float) -> dict:
    chunks = [reference_chunk() for _ in range(SETUP_CHUNKS)]
    return {"raw_s": raw_s, "ref_ms": statistics.median(chunks) * 1e3,
            "cal_s": raw_s * calibration_factor(chunks)}


def child_setups(args, n: int) -> list[dict]:
    """Set-up samples from fresh processes, run one after another."""
    samples = []
    for k in range(n):
        work = OUT_ROOT / f"{args.workload}-{args.seed}-setup{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(work)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def layer_metrics(spans, op: Op, scale: float) -> dict:
    ms, us = 1e3 * scale, 1e6 * scale
    weights = spans.count("link.element_weights")
    return {
        "link.weights_calls": weights,
        "link.weights_per_eval": weights / op.evals if op.evals else 0.0,
        "link.weights_us": spans.mean_s("link.element_weights") * us,
        "link.self_ms": spans.layer_self_s("link") * ms,
        "geometry.calls": spans.layer_calls("geometry"),
        "geometry.self_ms": spans.layer_self_s("geometry") * ms,
        "channel.self_ms": spans.layer_self_s("channel") * ms,
        "ris.calls": spans.layer_calls("ris"),
        "ris.self_ms": spans.layer_self_s("ris") * ms,
        "link.states_ms": spans.inclusive_s(*STATE_SPANS) * ms,
        "beamforming.quantize_ms": spans.inclusive_s("beamforming.nearest_quantize") * ms,
        "beamforming.queries": spans.count("beamforming.oracle"),
        "beamforming.query_us": spans.mean_s("beamforming.oracle") * us,
        "beamforming.search_self_ms": spans.self_s(*SEARCH_SPANS) * ms,
        "experiments.points": spans.children_of("link.received_power", *SWEEP_FUNCTIONS),
        "experiments.self_ms": spans.layer_self_s("experiments") * ms,
        "experiments.csv_ms": spans.inclusive_s(*CSV_SPANS) * ms,
        "experiments.csv_kb": op.csv_bytes / 1024.0,
        "config.load_ms": spans.inclusive_s("config.load_run_plan") * ms,
        "cli.self_ms": spans.layer_self_s("cli") * ms,
    }


def measure(args, wl, calls, plan, rislink, tracer=None):
    """Run operations for args.seconds; with a tracer, every other operation is traced.

    Returns (operations, per-layer metrics of each traced operation).
    """
    ops, per_op_layers = [], []
    t_end = time.perf_counter() + args.seconds
    while True:
        if tracer is not None and len(ops) % 2 == 1:
            lo = len(tracer)
            tracer.install()
            try:
                op = run_op(wl, calls, rislink.cli, plan)
            finally:
                tracer.uninstall()
            op.spans = (lo, len(tracer))
        else:
            op = run_op(wl, calls, rislink.cli, plan)
        judge(wl, op)
        if op.spans:
            per_op_layers.append(layer_metrics(SpanTable(tracer, *op.spans), op,
                                               calibration_factor(op.chunks)))
        ops.append(op)
        if time.perf_counter() >= t_end and (tracer is None or per_op_layers):
            return ops, per_op_layers


def report(args, correct, ops, metrics, detail) -> None:
    result = {"correct": correct, "attempted": len(ops),
              "failed": sum(op.failed for op in ops), "metrics": metrics}
    OUT_ROOT.mkdir(exist_ok=True)
    with open(OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    for op in ops:
        for problem in op.problems[:3]:
            print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"detail": {k: v for k, v in detail.items() if k != "ops"}}))
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORK_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    work_dir = Path(args.setup_only) if args.setup_only else OUT_ROOT / f"{args.workload}-{args.seed}"
    try:
        rislink, wl, calls, plan = set_up(args, work_dir)
        own_setup = setup_sample(clock())  # CPU time since the process started
        if args.setup_only:
            print(json.dumps(own_setup))
            return 0
        setups = [own_setup] + (child_setups(args, SETUP_SAMPLES - 1) if args.trace == 0 else [])
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    wl.expectations()

    tracer = Tracer(rislink) if args.trace else None
    ops, per_op_layers = measure(args, wl, calls, plan, rislink, tracer)
    plain = [op for op in ops if not op.spans]
    good = [op for op in plain if not op.failed] or plain
    correct = not any(op.problems and not op.errored for op in ops)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "python": platform.python_version(), "numpy": np.__version__,
        "ref_nominal_ms": REF_NOMINAL_S * 1e3,
        "ref_ms_p50": median([c for op in ops for c in op.chunks]) * 1e3,
        "op_raw_ms_p50": median([op.raw_s for op in good]) * 1e3,
        "op_cal_ms_p50": median([op.cal_s for op in good]) * 1e3,
        "op_ref_ratio_p50": median([op.cal_s for op in good]) / REF_NOMINAL_S,
        "evals_per_op": median([op.evals for op in good]),
        "chunk_plan": plan,
        "setups": setups,
        "ops": [{"raw_s": op.raw_s, "ref_s": op.chunks, "evals": op.evals,
                 "traced": bool(op.spans), "problems": op.problems} for op in ops],
    }
    if args.trace:
        layers = {name: median([m[name] for m in per_op_layers]) for name in per_op_layers[0]}
        traced = [op for op in ops if op.spans]
        good_traced = [op for op in traced if not op.failed] or traced
        layers["trace.overhead_pct"] = 100.0 * (
            median([op.cal_s for op in good_traced]) / median([op.cal_s for op in good]) - 1.0)
        metrics = {k: {"value": float(v), "unit": PER_LAYER_UNITS[k]} for k, v in layers.items()}
        tracer.save(OUT_ROOT / f"{args.workload}-seed{args.seed}.spans.npz", *traced[0].spans)
    else:
        metrics = {
            "setup_s": {"value": median([s["cal_s"] for s in setups]), "unit": "s"},
            "op_ms_p50": {"value": detail["op_cal_ms_p50"], "unit": "ms"},
            "evals_per_s": {"value": median([op.evals / op.cal_s for op in good]), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        detail["setup_raw_s_p50"] = median([s["raw_s"] for s in setups])
    report(args, correct, ops, metrics, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())

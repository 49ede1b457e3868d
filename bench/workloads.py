"""The three workloads: their inputs, the CLI calls one operation makes, and the output checks.

Every operation of a workload makes the same CLI calls on the same inputs, so
operations are interchangeable samples.  Inputs are the shipped configs
(`chamber_configs`) or config files generated from the workload seed; the
generated ones fix every size and grid length, so the work per operation does
not depend on the seed, only the geometry and the random draws do.

Checks compare outputs with `refmodel` (which never imports rislink) and with
properties the package documents.  Each returns a list of problems; an
operation with any problem counts as failed.
"""

from __future__ import annotations

import csv
import dataclasses
import glob
import json
import os
import shutil

import numpy as np

import refmodel as M

# Amplitude agreement |sqrt(P_prog) - sqrt(P_model)| <= AMP_TOL * sqrt(bound), so
# rows near a null are not held to a relative tolerance they cannot meet.
AMP_TOL = 1e-9
DB_TOL = 1e-9
PAPER_GAIN_DB = 11.9  # measured amplifier swing over the calibrated current range

BLIND_PASSES = 4
GREEDY_ROUNDS = 1  # one full round: the query count, hence the work, is fixed

# (rows, cols) of the feedback-search pool
FEEDBACK_SIZES = ((16, 16), (16, 24), (24, 24), (20, 32), (32, 32), (24, 48), (32, 48), (48, 48))
LARGE = (64, 64)
PATTERN_GRID = (-45.0, 45.0, 1.5)


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def write_config(path, link: M.Link, sweeps=()) -> None:
    lines = ["[scenario]"]
    defaults = M.Link()
    for key in M.Link.__dataclass_fields__:
        value = getattr(link, key)
        if key != "calibration" and value != getattr(defaults, key):
            lines.append(f"{key} = {_fmt(value)}")
    for sw in sweeps:
        lines += ["", f"[sweep {sw.name}]", f"type = {sw.kind}", f"method = {sw.method}"]
        if sw.kind == "pattern":
            lines.append(f"steering_deg = {_fmt(sw.steering_deg)}")
        lines += [f"start = {_fmt(sw.start)}", f"stop = {_fmt(sw.stop)}", f"step = {_fmt(sw.step)}"]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _random_link(rng, n_rows, n_cols, rx_azimuth=True) -> M.Link:
    freq = float(rng.uniform(2.4e9, 5.8e9))
    lam = M.C0 / freq
    return M.Link(
        frequency_hz=round(freq, -3),
        tx_distance_m=round(float(rng.uniform(0.8, 2.0)), 3),
        tx_zenith_deg=round(float(rng.uniform(-20, 20)), 2),
        tx_azimuth_deg=round(float(rng.uniform(0, 360)), 2),
        rx_distance_m=round(float(rng.uniform(3.0, 8.0)), 3),
        rx_zenith_deg=round(float(rng.uniform(-30, 30)), 2),
        rx_azimuth_deg=round(float(rng.uniform(0, 360)), 2) if rx_azimuth else 0.0,
        n_rows=n_rows,
        n_cols=n_cols,
        pitch_x_m=round(float(rng.uniform(0.4, 0.6)) * lam, 5),
        pitch_y_m=round(float(rng.uniform(0.4, 0.6)) * lam, 5),
        tx_gain_dbi=round(float(rng.uniform(8, 18)), 2),
        tx_exponent=float(rng.choice([0.0, 1.0, 2.0])),
        rx_gain_dbi=round(float(rng.uniform(8, 18)), 2),
        rx_exponent=float(rng.choice([0.0, 1.0, 2.0])),
        tx_power_w=round(float(rng.uniform(0.1, 2.0)), 3),
        codebook_offset_deg=round(float(rng.uniform(0, 90)), 2),
        phase_jitter_max_deg=round(float(rng.uniform(2, 10)), 2),
        phase_jitter_seed=int(rng.integers(0, 2 ** 31)),
    )


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_power(link: M.Link, where: str, p_dbm, pl_db, p_model_w, bound_w) -> list[str]:
    """Model agreement, P_r[dBm] + PL[dB] = 10 log10(P_t / 1 mW), and P_r <= continuous bound."""
    p_dbm, pl_db = np.asarray(p_dbm, float), np.asarray(pl_db, float)
    p_model_w, bound_w = np.asarray(p_model_w, float), np.asarray(bound_w, float)
    problems = []
    amp = np.abs(10.0 ** ((p_dbm - 30.0) / 20.0) - np.sqrt(p_model_w)) / np.sqrt(bound_w)
    if not np.all(amp <= AMP_TOL):
        i = int(np.nanargmax(amp))
        problems.append(f"{where}: row {i} reads {float(p_dbm[i])!r} dBm, "
                        f"model {float(M.dbm(p_model_w)[i])!r}")
    ident = np.abs(p_dbm + pl_db - M.dbm(link.tx_power_w))
    if not np.all(ident <= DB_TOL):
        problems.append(f"{where}: P_r + PL misses 10 log10(P_t/1 mW) by {np.nanmax(ident):.3g} dB")
    if not np.all(10.0 ** ((p_dbm - 30.0) / 10.0) <= bound_w * (1 + 1e-9)):
        problems.append(f"{where}: power above the continuous-phase bound")
    return problems


class Workload:
    """One named workload; subclasses fill in inputs, calls and checks."""

    name = ""

    def __init__(self, root, work_dir, seed: int):
        self.root = root
        self.seed = seed
        self.inputs = os.path.join(work_dir, "inputs")
        self.out = os.path.join(work_dir, "out")
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])

    def prepare(self) -> None:
        """Write the generated inputs under `inputs/` (the shipped configs need none)."""
        os.makedirs(self.inputs, exist_ok=True)

    def expectations(self) -> None:
        """Derive what the outputs must hold from the reference model, once per run."""
        raise NotImplementedError

    def configs(self) -> list[str]:
        raise NotImplementedError

    def calls(self) -> list[list[str]]:
        raise NotImplementedError

    def clear_outputs(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)

    def check(self, stdouts: list[str]) -> tuple[int, list[str]]:
        """(evaluations delivered, problems) for one operation's outputs."""
        raise NotImplementedError

    def csv_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in glob.glob(os.path.join(self.out, "*", "*.csv")))


class _RunWorkload(Workload):
    """`rislink run` over a list of configs; every CSV row is checked against the model."""

    def calls(self):
        return [["run", cfg, "--out", self._out_dir(cfg), "--seed", str(self.seed)]
                for cfg in self.configs()]

    def _out_dir(self, cfg) -> str:
        return os.path.join(self.out, os.path.splitext(os.path.basename(cfg))[0])

    def expectations(self) -> None:
        self.plans = {cfg: M.read_config(cfg) for cfg in self.configs()}
        self.expected = {cfg: [M.expected_rows(p.link, sw) for sw in p.sweeps]
                         for cfg, p in self.plans.items()}

    def check(self, stdouts):
        problems, rows_seen = [], 0
        for cfg, plan in self.plans.items():
            out = self._out_dir(cfg)
            with open(os.path.join(out, "summary.json")) as fh:
                summary = json.load(fh)
            listed = {e["name"]: e["rows"] for e in summary["sweeps"]}
            for sw, ex in zip(plan.sweeps, self.expected[cfg]):
                where = f"{os.path.basename(cfg)}[{sw.name}]"
                rows = _read_csv(os.path.join(out, f"{sw.name}.csv"))
                rows_seen += len(rows)
                if len(rows) != len(ex.values) or listed.get(sw.name) != len(rows):
                    problems.append(f"{where}: {len(rows)} rows, summary {listed.get(sw.name)}, "
                                    f"model {len(ex.values)}")
                    continue
                if any(r["variable"] != ex.variable for r in rows):
                    problems.append(f"{where}: variable is not {ex.variable}")
                values = np.array([float(r["value"]) for r in rows])
                if not np.allclose(values, ex.values, rtol=0, atol=1e-12):
                    problems.append(f"{where}: grid values differ from the model")
                p = [float(r["received_power_dBm"]) for r in rows]
                pl = [float(r["path_loss_dB"]) for r in rows]
                problems += check_power(plan.link, where, p, pl, ex.power_w, ex.bound_w)
                got = [r["config_digest"] for r in rows]
                if any(e is not None and g != e for g, e in zip(got, ex.digests)):
                    problems.append(f"{where}: configuration digest differs from the model's "
                                    "quantized configuration")
                if any(len(g) != 12 or not all(c in "0123456789abcdef" for c in g) for g in got):
                    problems.append(f"{where}: malformed configuration digest")
                if sw.kind == "gain":
                    problems += self._check_gain_swing(plan.link, sw, where, p)
        return rows_seen, problems

    def _check_gain_swing(self, link, sw, where, p_dbm) -> list[str]:
        n = link.n_units
        want = float(M.amplifier_gain_db(link, sw.currents[-1] / n)
                     - M.amplifier_gain_db(link, sw.currents[0] / n))
        if abs((p_dbm[-1] - p_dbm[0]) - want) > DB_TOL:
            return [f"{where}: swing {p_dbm[-1] - p_dbm[0]!r} dB, model {want!r} dB"]
        return []


class ChamberConfigs(_RunWorkload):
    """`rislink run` over every shipped configs/*.cfg on the paper's 4x8 surface."""

    name = "chamber_configs"

    def configs(self):
        return sorted(glob.glob(os.path.join(self.root, "configs", "*.cfg")))

    def _check_gain_swing(self, link, sw, where, p_dbm):
        problems = super()._check_gain_swing(link, sw, where, p_dbm)
        if abs((p_dbm[-1] - p_dbm[0]) - PAPER_GAIN_DB) > DB_TOL:
            problems.append(f"{where}: swing {p_dbm[-1] - p_dbm[0]!r} dB is not the paper's "
                            f"{PAPER_GAIN_DB} dB")
        return problems


class LargeSurfaceSweeps(_RunWorkload):
    """`rislink run` on two generated 64x64 configs: distance and angle sweeps with
    quantized and continuous beamforming, and one frozen-configuration pattern cut."""

    name = "large_surface_sweeps"

    def prepare(self):
        super().prepare()
        rng = self.rng
        sweeps = {}
        for cfg, dist_method, angle_method in (("a", "quantized", "continuous"),
                                               ("b", "continuous", "quantized")):
            r0 = round(float(rng.uniform(3.0, 6.0)), 3)
            a0 = round(float(rng.uniform(-40.0, 10.0)), 1)
            sweeps[cfg] = [M.Sweep("distance", "distance", dist_method, r0, round(r0 + 2.5, 3), 0.5),
                           M.Sweep("angle", "angle", angle_method, a0, round(a0 + 25.0, 1), 5.0)]
        lo, hi, step = PATTERN_GRID
        steer = lo + step * int(rng.integers(5, 56))
        sweeps["a"].append(M.Sweep("pattern", "pattern", "quantized", lo, hi, step,
                                   steering_deg=steer))
        for cfg, sw in sweeps.items():
            # angle sweeps and pattern cuts drop the RX azimuth (see CHANGES.md), so keep it 0
            link = _random_link(rng, *LARGE, rx_azimuth=False)
            write_config(os.path.join(self.inputs, f"large_{cfg}.cfg"), link, sw)

    def configs(self):
        return sorted(glob.glob(os.path.join(self.inputs, "large_*.cfg")))


class FeedbackSearch(Workload):
    """`rislink beamform --method blind` and `--method greedy` over a seeded pool of
    16x16-and-larger surfaces with phase jitter and measurement noise."""

    name = "feedback_search"

    def prepare(self):
        super().prepare()
        for i, (n_rows, n_cols) in enumerate(FEEDBACK_SIZES):
            link = _random_link(self.rng, n_rows, n_cols)
            # reading noise: 2% of the aligned power, in W^2
            p_ref = float(M.bound(link, M.weights(link, M.rx_point(link))))
            link = dataclasses.replace(link, noise_variance_w=(0.02 * p_ref) ** 2)
            write_config(os.path.join(self.inputs, f"pool_{i:02d}.cfg"), link)

    def configs(self):
        return sorted(glob.glob(os.path.join(self.inputs, "pool_*.cfg")))

    def calls(self):
        out = []
        for cfg in self.configs():
            common = ["beamform", "--config", cfg, "--seed", str(self.seed)]
            out.append(common + ["--method", "blind", "--passes", str(BLIND_PASSES)])
            out.append(common + ["--method", "greedy", "--rounds", str(GREEDY_ROUNDS)])
        return out

    def expectations(self) -> None:
        self.links = [M.read_config(cfg).link for cfg in self.configs()]
        self.weights = [M.weights(link, M.rx_point(link)) for link in self.links]

    def check(self, stdouts):
        problems, queries = [], 0
        for i, text in enumerate(stdouts):
            link, w = self.links[i // 2], self.weights[i // 2]
            method = ("blind", "greedy")[i % 2]
            where = f"pool_{i // 2:02d}[{method}]"
            try:
                res = json.loads(text)
            except json.JSONDecodeError:
                problems.append(f"{where}: output is not JSON")
                continue
            queries += res["feedback_queries"]
            problems += self._check_one(link, w, method, res, where)
        return queries, problems

    def _check_one(self, link: M.Link, w, method, res, where) -> list[str]:
        problems = []
        n, k = link.n_units, 2 ** link.codebook_bits
        want_q = (1 + BLIND_PASSES * (link.n_rows + link.n_cols) if method == "blind"
                  else 1 + GREEDY_ROUNDS * (k - 1) * n)
        if res.get("method") != method or res["feedback_queries"] != want_q:
            problems.append(f"{where}: {res['feedback_queries']} queries, expected {want_q}")
        idx = np.asarray(res["phase_indices"])
        if idx.shape != (link.n_rows, link.n_cols) or idx.min() < 0 or idx.max() >= k:
            return problems + [f"{where}: phase indices do not fit the surface/codebook"]
        if link.codebook_bits == 2:
            words = [[M.SP4T_WORDS[j] for j in row] for row in idx.tolist()]
            if res.get("control_words") != words:
                problems.append(f"{where}: control words do not follow the SP4T table")
        if res["config_digest"] != M.index_digest(idx, idx.shape):
            problems.append(f"{where}: digest does not match the phase indices")
        p_model = M.power(link, w, M.programmed_phases(link, idx))
        problems += check_power(link, where, [res["received_power_dbm"]], [res["path_loss_db"]],
                                [p_model], [M.bound(link, w)])
        return problems


WORKLOADS = {cls.name: cls for cls in (ChamberConfigs, FeedbackSearch, LargeSurfaceSweeps)}

"""The bench's reference model as a differential oracle: `rislink run` and `rislink beamform`
on seeded random links, each with a non-zero RX azimuth, against `bench/refmodel.py`.

The model re-derives the link without importing rislink; `bench/workloads.py` holds the
row checks the benchmark applies.  Both are imported as they are, and only read.
"""

import dataclasses
import json
import math
import os
import sys

import numpy as np
import pytest

from rislink.cli import main

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "bench"))
import refmodel as M  # noqa: E402
import workloads as W  # noqa: E402

SIZES = ((1, 1), (1, 7), (3, 5), (4, 8), (7, 6), (12, 9))
CLOSED_FORMS = ("none", "continuous", "quantized")
# a calibration whose gain underflows to 0 at zero current: that gain row is an exact null
NULL_CALIBRATION = ((0.0, -4000.0), (1.4 / 32, 11.9))


def _link(size, noise=False) -> M.Link:
    """A seeded random link of `size` with an RX azimuth; `noise`: readings at 2% of the
    aligned power, as the benchmark's feedback pool draws them."""
    link = W._random_link(np.random.default_rng(size), *size, rx_azimuth=True)
    assert link.rx_azimuth_deg != 0.0
    if noise:
        p_ref = float(M.bound(link, M.weights(link, M.rx_point(link))))
        link = dataclasses.replace(link, noise_variance_w=(0.02 * p_ref) ** 2)
    return link


def _sweeps(link: M.Link, rng) -> list:
    """A distance sweep, an angle sweep and a cut under each closed form, and on a 4x8
    surface a gain sweep whose zero current is an exact null."""
    r0 = round(float(rng.uniform(1.0, 4.0)), 3)
    steer = round(float(rng.uniform(-30.0, 30.0)), 2)
    sweeps = []
    for method in CLOSED_FORMS:
        sweeps += [M.Sweep(f"distance_{method}", "distance", method, r0, r0 + 2.5, 0.5),
                   M.Sweep(f"angle_{method}", "angle", method, -40.0, 40.0, 5.0),
                   M.Sweep(f"cut_{method}", "pattern", method, -60.0, 60.0, 2.5,
                           steering_deg=steer)]
    if (link.n_rows, link.n_cols) == (4, 8):
        sweeps.append(M.Sweep("gain", "gain", "quantized", currents=(0.0, 0.7, 1.4)))
    return sweeps


def _write(path, link: M.Link, sweeps) -> None:
    W.write_config(path, link, [sw for sw in sweeps if sw.kind != "gain"])
    with open(path, "a") as fh:
        for sw in sweeps:
            if sw.kind == "gain":
                fh.write(f"\n[sweep {sw.name}]\ntype = gain\nmethod = {sw.method}\n"
                         f"currents_a = {', '.join(map(repr, sw.currents))}\n")
        if link.calibration != M.DEFAULT_CALIBRATION:
            anchors = ", ".join(f"{c!r}:{db!r}" for c, db in link.calibration)
            fh.write(f"\n[amplifier]\ncalibration = {anchors}\n")


def _check_sweep(link: M.Link, sw, rows, entry) -> int:
    """Assert one sweep's CSV rows and summary entry against the model; its null rows."""
    where = sw.name
    ex = M.expected_rows(link, sw)
    assert entry["rows"] == len(rows) == len(ex.values), where
    assert {r["variable"] for r in rows} == {ex.variable}, where
    values = np.array([float(r["value"]) for r in rows])
    np.testing.assert_allclose(values, ex.values, rtol=0, atol=1e-12, err_msg=where)
    p = np.array([float(r["received_power_dBm"]) for r in rows])
    pl = np.array([float(r["path_loss_dB"]) for r in rows])
    # P_r + PL = 10 log10(P_t / 1 mW) reads -inf + inf there, so a null is checked on its own
    null = ex.power_w == 0.0
    assert np.all(p[null] == -math.inf) and np.all(pl[null] == math.inf), where
    assert np.all(ex.power_w[~null] > 0.0) and np.all(np.isfinite(p[~null])), where
    assert W.check_power(link, where, p[~null], pl[~null], ex.power_w[~null],
                         ex.bound_w[~null]) == []
    got = [r["config_digest"] for r in rows]
    assert [g for g, e in zip(got, ex.digests) if e is not None] == \
        [e for e in ex.digests if e is not None], where
    if sw.kind == "pattern":  # the peak the package names is the model's, up to a tie
        peak = entry["metrics"]["peak_angle_deg"]
        (i,) = np.flatnonzero(values == peak)
        assert ex.power_w[i] >= ex.power_w.max() * (1.0 - 1e-9), where
        got = [entry["metrics"][key] for key in ("hpbw_deg", "pslr_db")]
        np.testing.assert_allclose(got, _cut_metrics(ex.values, ex.power_w), rtol=0,
                                   atol=1e-9, err_msg=where)  # NaN only where NaN
    return int(null.sum())


def _cut_metrics(angles, power_w) -> tuple[float, float]:
    """Half-power beamwidth (deg) and peak-to-sidelobe ratio (dB) of a cut's model powers.

    The width runs between the first samples below -3 dB on either side of the peak,
    each crossing interpolated in dB; the main lobe runs down to the first sample on
    either side that is not below its inner neighbour.  NaN where a crossing or a
    sidelobe is off the grid."""
    rel = 10.0 * np.log10(power_w / power_w.max())
    i0, n = int(np.argmax(rel)), len(rel)
    below = np.flatnonzero(rel < -3.0)
    left, right = below[below < i0], below[below > i0]

    def crossing(out, inner):  # where rel passes -3 dB between two neighbouring samples
        return angles[inner] + (angles[out] - angles[inner]) * (rel[inner] + 3.0) / (
            rel[inner] - rel[out])

    hpbw = (crossing(right[0], right[0] - 1) - crossing(left[-1], left[-1] + 1)
            if left.size and right.size else math.nan)
    steps = np.diff(rel)
    lo = max([m + 1 for m in range(i0) if not steps[m] > 0], default=0)
    hi = min([m for m in range(i0, n - 1) if not steps[m] < 0], default=n - 1)
    side = np.concatenate([rel[:lo], rel[hi + 1:]])
    return hpbw, -float(side.max()) if side.size else math.nan


@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_run_rows_and_cut_peaks_agree_with_the_reference_model(tmp_path, capsys, size):
    link = _link(size)
    if size == (4, 8):
        link = dataclasses.replace(link, calibration=NULL_CALIBRATION)
    cfg, out = tmp_path / "link.cfg", tmp_path / "out"
    _write(cfg, link, _sweeps(link, np.random.default_rng([size[0], size[1], 1])))
    plan = M.read_config(cfg)
    assert plan.link == link
    assert main(["run", str(cfg), "--out", str(out), "--seed", "0"]) == 0
    capsys.readouterr()
    with open(out / "summary.json") as fh:
        entries = json.load(fh)["sweeps"]
    assert [e["name"] for e in entries] == [sw.name for sw in plan.sweeps]
    nulls = sum(_check_sweep(link, sw, W._read_csv(out / f"{sw.name}.csv"), entry)
                for sw, entry in zip(plan.sweeps, entries))
    assert nulls == (1 if size == (4, 8) else 0)  # the zero-current gain row


PASSES, ROUNDS = 2, 1  # one greedy round: the query count is fixed


@pytest.mark.parametrize("noise", [False, True], ids=["noiseless", "noise"])
@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_beamform_power_and_digest_agree_with_the_reference_model(tmp_path, capsys, size,
                                                                  noise):
    link = _link(size, noise)
    cfg = tmp_path / "link.cfg"
    W.write_config(cfg, link)
    n, k = link.n_units, 2 ** link.codebook_bits
    w = M.weights(link, M.rx_point(link))
    expected_idx = {"none": np.zeros(n, dtype=int),
                    "quantized": M.quantize(link, M.aligned_phases(link, M.rx_point(link)))}
    queries = {"none": 0, "quantized": 0, "blind": 1 + PASSES * (link.n_rows + link.n_cols),
               "greedy": 1 + ROUNDS * (k - 1) * n}
    for method, seed in ((m, s) for m in queries for s in (0, 5)):
        where = f"{method} seed {seed}"
        assert main(["beamform", "--config", str(cfg), "--method", method, "--seed", str(seed),
                     "--passes", str(PASSES), "--rounds", str(ROUNDS)]) == 0
        res = json.loads(capsys.readouterr().out)
        assert (res["method"], res["feedback_queries"]) == (method, queries[method]), where
        idx = np.asarray(res["phase_indices"])
        assert idx.shape == (link.n_rows, link.n_cols) and 0 <= idx.min() <= idx.max() < k
        if method in expected_idx:
            assert np.array_equal(idx.reshape(-1), expected_idx[method]), where
        if link.codebook_bits == 2:
            assert res["control_words"] == [[M.SP4T_WORDS[j] for j in row]
                                            for row in idx.tolist()], where
        assert res["config_digest"] == M.index_digest(idx, idx.shape), where
        p_model = M.power(link, w, M.programmed_phases(link, idx))
        assert W.check_power(link, where, [res["received_power_dbm"]], [res["path_loss_db"]],
                             [p_model], [M.bound(link, w)]) == []

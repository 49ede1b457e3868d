"""Release checklist: the ten end-to-end acceptance checks, one test each.

Every test prints a single `[PASS]`/`[FAIL]` line so a verbose run reads as a
checklist; the assertion message repeats the line when a check fails.
"""

import math
import time

import numpy as np

import rislink as rl
from helpers import (
    brute_force_optimum,
    decode_control,
    make_random_scenario,
    min_path_loss,
    random_surface,
    received_power_expanded,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def rel_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def test_criterion_1_dual_power_routes_agree():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        sc = make_random_scenario(rng)
        config = random_surface(rng, sc)
        worst = max(worst, rel_gap(rl.received_power(sc, config),
                                   received_power_expanded(sc, config)))
    elapsed = time.perf_counter() - t0
    report(1, "both received-power routes agree on random links",
           worst <= 1e-12 and elapsed < 5.0,
           f"worst rel gap {worst:.3e}, {elapsed:.2f} s")


def test_criterion_2_continuous_phases_reach_the_power_bound():
    rng = np.random.default_rng(2)
    worst_opt = 0.0
    worst_prod = 0.0
    for _ in range(100):
        sc = make_random_scenario(rng)
        config = random_surface(rng, sc)
        phases = (rl.apply_beamforming(sc, "continuous").phases
                  + float(rng.uniform(0.0, 2.0 * math.pi)))
        p = rl.received_power(sc, config, phases=phases)
        pmax = rl.max_received_power(sc)
        worst_opt = max(worst_opt, rel_gap(p, pmax))
        worst_prod = max(worst_prod, rel_gap(pmax * min_path_loss(sc), sc.tx_power))
    report(2, "continuous optimum attains the analytic maximum",
           worst_opt <= 1e-10 and worst_prod <= 1e-12,
           f"power gap {worst_opt:.3e}, max-power x min-path-loss gap {worst_prod:.3e}")


def test_criterion_3_quantized_phases_keep_half_the_optimum():
    rng = np.random.default_rng(3)
    worst = math.inf
    for _ in range(1000):
        sc = make_random_scenario(rng, random_offset=True)
        idx = rl.nearest_quantize(rl.apply_beamforming(sc, "continuous").phases, sc.codebook)
        ratio = rl.received_power(sc, idx) / rl.max_received_power(sc)
        worst = min(worst, ratio)
    report(3, "2-bit quantization keeps at least half the maximum power",
           worst >= 0.5 * (1.0 - 1e-12), f"worst ratio {worst:.6f}")


def test_criterion_4_search_chain_blind_greedy_brute():
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for trial in range(50):
        sc = make_random_scenario(rng, max_rows=2, max_cols=3, max_units=6)
        power = rl.FeedbackChannel(sc).power

        blind_cfg, btrace = rl.blind_rowcol_search(rl.FeedbackChannel(sc))
        pb = power(blind_cfg)
        accepted = [p for p, kept in zip(btrace.powers, btrace.accepted) if kept]
        if not (np.diff(accepted) >= 0).all() or rel_gap(accepted[-1], pb) > 1e-12:
            ok, detail = False, f"trial {trial}: blind trace inconsistent"
            break
        expect = 1 + 4 * (sc.layout.n_rows + sc.layout.n_cols)
        if btrace.n_queries != expect:
            ok, detail = False, f"trial {trial}: {btrace.n_queries} queries != {expect}"
            break

        greedy_cfg, _ = rl.greedy_element_search(rl.FeedbackChannel(sc), initial=blind_cfg)
        pg = power(greedy_cfg)
        if pg < pb * (1.0 - 1e-12):
            ok, detail = False, f"trial {trial}: greedy lost power refining blind"
            break
        stable = all(
            power(np.where(np.arange(sc.layout.n_units).reshape(greedy_cfg.shape) == n,
                           k, greedy_cfg)) <= pg * (1.0 + 1e-12)
            for n in range(sc.layout.n_units)
            for k in range(sc.codebook.size)
        )
        if not stable:
            ok, detail = False, f"trial {trial}: greedy result not single-change stable"
            break

        _, pbest = brute_force_optimum(sc)
        if pbest < pg * (1.0 - 1e-12):
            ok, detail = False, f"trial {trial}: exhaustive search below greedy"
            break
    elapsed = time.perf_counter() - t0
    report(4, "blind -> greedy -> exhaustive power chain is monotone",
           ok and elapsed < 60.0, detail or f"50 trials, {elapsed:.1f} s")


def test_criterion_5_control_word_table():
    table = {0: "011", 1: "001", 2: "000", 3: "010"}
    ok = all(str(rl.encode_control(i)) == w and decode_control(w) == i
             for i, w in table.items())
    rejected = 0
    for bad in ("100", "101", "110", "111"):
        try:
            decode_control(bad)
        except ValueError:
            rejected += 1
    report(5, "switch control words match the wiring table",
           ok and rejected == 4, f"{rejected}/4 invalid words rejected")


def test_criterion_6_supply_current_sets_the_calibrated_gain_swing():
    res = rl.run_sweep(rl.chamber_scenario(), rl.SweepJob("gain", "gain", currents=[0.01, 1.4]))
    p = res.received_power_dbm
    swing = float(p[-1] - p[0])
    report(6, "current swing 0.01 A -> 1.4 A moves received power by 11.9 dB",
           abs(swing - 11.9) <= 1e-9, f"swing {swing:.12f} dB")


def test_criterion_7_path_loss_versus_distance():
    job = rl.SweepJob("distance", "distance", "continuous", 0.5, 5.0, 0.5)
    losses = {}
    ok = True
    detail = []
    for tx_d in (0.5, 1.0):
        res = rl.run_sweep(rl.chamber_scenario(tx_distance_m=tx_d), job)
        pl = res.path_loss_db
        losses[tx_d] = pl
        if not (np.diff(pl) > 0).all():
            ok = False
            detail.append(f"tx {tx_d} m: not strictly increasing")
        doubling = float(pl[9] - pl[4])  # 5.0 m vs 2.5 m
        detail.append(f"tx {tx_d} m: +{doubling:.2f} dB per RX doubling")
        ok = ok and abs(doubling - 6.02) <= 0.5
    both = float(losses[1.0][9] - losses[0.5][4])  # both hops doubled
    detail.append(f"+{both:.2f} dB doubling both hops")
    ok = ok and abs(both - 12.04) <= 0.5
    report(7, "path loss grows ~6 dB per distance doubling on each hop",
           ok, "; ".join(detail))


def test_criterion_8_path_loss_versus_angle():
    sc = rl.chamber_scenario(rx_distance_m=4.5)
    job = rl.SweepJob("angle", "angle", "continuous", 0.0, 60.0, 10.0)
    pl = rl.run_sweep(sc, job).path_loss_db
    monotone = (np.diff(pl) >= -1e-9).all()
    delta = float(pl[-1] - pl[0])
    predicted = -10.0 * math.log10(
        math.cos(math.radians(60.0)) ** (sc.rx_antenna.exponent + 1.0)
    )
    report(8, "off-axis path loss follows the projected-aperture roll-off",
           monotone and abs(delta - predicted) <= 1.0,
           f"0->60 deg delta {delta:.3f} dB vs {predicted:.3f} dB predicted")


def test_criterion_9_steered_radiation_patterns():
    p0, p50, p60 = (rl.run_sweep(rl.chamber_scenario(), rl.SweepJob("cut", "pattern", steering_deg=a))
                    for a in (0.0, 50.0, 60.0))
    checks = {
        "boresight peak": abs(p0.peak_angle_deg) <= 1.0,
        "boresight hpbw": 10.0 <= p0.hpbw_deg <= 16.0,
        "50 deg peak": abs(p50.peak_angle_deg - 50.0) <= 3.0,
        "50 deg reduction": 2.5 <= p0.peak_power_dbm - p50.peak_power_dbm <= 5.0,
        "60 deg widening": p60.hpbw_deg > p0.hpbw_deg,
    }
    failed = [k for k, v in checks.items() if not v]
    report(9, "steering the quantized beam lands, costs, and widens as expected",
           not failed,
           f"peak0 {p0.peak_angle_deg:g} deg, hpbw0 {p0.hpbw_deg:.2f} deg, "
           f"peak50 {p50.peak_angle_deg:g} deg, "
           f"drop {p0.peak_power_dbm - p50.peak_power_dbm:.2f} dB, "
           f"hpbw60 {p60.hpbw_deg:.2f} deg"
           + (f"; failed: {failed}" if failed else ""))


def test_criterion_10_seeded_runs_are_byte_identical(tmp_path):
    cfg = tmp_path / "repro.cfg"
    cfg.write_text(
        "[scenario]\n"
        "noise_variance_w = 1e-4\n"
        "\n"
        "[sweep angles]\n"
        "type = angle\n"
        "start = 0\n"
        "stop = 30\n"
        "step = 10\n"
        "method = blind\n"
        "\n"
        "[sweep cut]\n"
        "type = pattern\n"
        "steering_deg = 20\n"
        "step = 5\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rl.run_config(cfg, out_a, seed=7)
    rl.run_config(cfg, out_b, seed=7)
    names = sorted(p.name for p in out_a.iterdir())
    same = (names == sorted(p.name for p in out_b.iterdir()) and
            all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names))
    report(10, "seeded experiment runs reproduce byte-for-byte",
           same, f"{len(names)} files compared")

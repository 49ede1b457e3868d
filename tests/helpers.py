"""Shared random scenario builders for the test suite."""

import math

import numpy as np

import rislink as rl


def make_random_scenario(rng, max_rows=4, max_cols=8, max_units=32, bits=2,
                         random_offset=False):
    """A physically valid random link: TX above the plane, RX below it."""
    while True:
        n_rows = int(rng.integers(1, max_rows + 1))
        n_cols = int(rng.integers(1, max_cols + 1))
        if n_rows * n_cols <= max_units:
            break
    tx = rl.SphericalPose(
        float(rng.uniform(0.3, 3.0)),
        float(rng.uniform(0.0, math.radians(60.0))),
        float(rng.uniform(0.0, 2.0 * math.pi)),
    )
    rx = rl.SphericalPose(
        float(rng.uniform(0.5, 8.0)),
        math.pi - float(rng.uniform(0.0, math.radians(60.0))),
        float(rng.uniform(0.0, 2.0 * math.pi)),
    )

    def antenna():
        return rl.AntennaModel(
            rl.from_db(float(rng.uniform(0.0, 18.0))),
            float(rng.choice([0.0, 1.0, 2.0])),
        )

    # strictly increasing currents via cumulative positive increments
    k = int(rng.integers(1, 4))
    base = float(rng.uniform(1e-4, 0.03))
    currents = base + np.concatenate([[0.0], np.cumsum(rng.uniform(1e-4, 0.03, k - 1))])
    gains_db = np.sort(rng.uniform(0.0, 20.0, k))
    amplifier = rl.AmplifierModel(
        tuple((float(c), float(g)) for c, g in zip(currents, gains_db))
    )

    spacing = math.pi / 2 ** (bits - 1)
    offset = float(rng.uniform(0.0, spacing)) if random_offset else 0.0
    if offset >= spacing:
        offset = 0.0
    return rl.Scenario(
        frequency=float(rng.uniform(1e9, 6e9)),
        tx_pose=tx,
        rx_pose=rx,
        layout=rl.ArrayLayout(
            n_rows, n_cols,
            float(rng.uniform(0.03, 0.08)), float(rng.uniform(0.03, 0.08)),
        ),
        tx_antenna=antenna(),
        rx_antenna=antenna(),
        codebook=rl.PhaseCodebook(bits, offset),
        amplifier=amplifier,
        tx_power=float(rng.uniform(0.1, 2.0)),
    )


def random_states(rng, scenario):
    """Mixed per-unit states: random index, calibrated current range, partial attenuation."""
    lo = scenario.amplifier.calibration[0][0]
    hi = scenario.amplifier.top_current
    return [
        rl.UnitState(
            int(rng.integers(0, scenario.codebook.size)),
            float(rng.uniform(lo, hi)),
            float(rng.uniform(0.2, 1.0)),
        )
        for _ in range(scenario.layout.n_units)
    ]


def _reference_start(scenario, initial, feedback):
    config = (rl.uniform_configuration(scenario.layout) if initial is None
              else np.array(initial, dtype=int))
    if config.shape != (scenario.layout.n_rows, scenario.layout.n_cols):
        raise ValueError("initial configuration does not match the layout")
    if feedback is None:
        feedback = rl.FeedbackChannel(rl.power_oracle(scenario), scenario.noise_variance, 0)
    return config, feedback


def reference_blind_search(scenario, initial=None, feedback=None, passes=4):
    """From-scratch blind row/column search: one full `measure` per candidate."""
    k = scenario.codebook.size
    config, feedback = _reference_start(scenario, initial, feedback)
    trace = rl.SearchTrace()
    best = feedback.measure(config)
    trace.record(True, best)
    for _ in range(passes):
        for col in range(scenario.layout.n_cols):
            cand = config.copy()
            cand[:, col] = (cand[:, col] + 1) % k
            p = feedback.measure(cand)
            if p >= best:
                config, best = cand, p
                trace.record(True, p)
            else:
                trace.record(False, p)
        for row in range(scenario.layout.n_rows):
            cand = config.copy()
            cand[row, :] = (cand[row, :] + 1) % k
            p = feedback.measure(cand)
            if p >= best:
                config, best = cand, p
                trace.record(True, p)
            else:
                trace.record(False, p)
    return config, trace


def reference_greedy_search(scenario, initial=None, feedback=None, max_rounds=8):
    """From-scratch greedy element search: one full `measure` per candidate."""
    k = scenario.codebook.size
    config, feedback = _reference_start(scenario, initial, feedback)
    trace = rl.SearchTrace()
    best = feedback.measure(config)
    trace.record(True, best)
    for _ in range(max_rounds):
        changed = False
        for row in range(scenario.layout.n_rows):
            for col in range(scenario.layout.n_cols):
                for idx in range(k):
                    if idx == config[row, col]:
                        continue
                    cand = config.copy()
                    cand[row, col] = idx
                    p = feedback.measure(cand)
                    if p > best:
                        config, best = cand, p
                        trace.record(True, p)
                        changed = True
                    else:
                        trace.record(False, p)
        if not changed:
            break
    return config, trace

"""Discrete phase-configuration search: blind line search, greedy descent, quantization, brute force.

Configurations are integer ndarrays of shape (n_rows, n_cols) holding codebook
indices, row-major consistent with the element ordering in `geometry`.

The feedback searches never re-evaluate a whole configuration per query.  The
channel's (n_units, codebook size) table holds every term T[n, k] the channel
sum S = sum_n T[n, idx_n] can contain, so a one-element candidate is
(S - T[n, cur]) + T[n, idx], O(1), and a line shift adds that line's term
differences, O(line).  S is re-summed from scratch once per round or pass so
rounding cannot accumulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .link import SIXTEEN_PI_SQ, Scenario, _phase_indices, element_weights
from .ris import PhaseCodebook

_NOISE_BLOCK = 1024  # noise draws taken from the channel's rng at a time
_BRUTE_BLOCK = 1024  # configurations brute force sums per gather
_GALLOP_MIN = 8  # fewest rejections in a row, at a unit boundary, before greedy reads a block
_GALLOP_WINDOW = 64  # candidates in a block read's first window; each next window doubles


@dataclass
class SearchTrace:
    """Measurement log of a feedback search; step 0 is the initial configuration.

    One reading and one kept/rejected flag per query, in two flat lists.  A kept
    reading reaches the running best, so the last kept one is max(powers).
    """

    powers: list[float] = field(default_factory=list)
    accepted: list[bool] = field(default_factory=list)

    def record(self, accepted: bool, power: float) -> None:
        self.accepted.append(accepted)
        self.powers.append(power)

    @property
    def n_queries(self) -> int:
        return len(self.powers)

    def write_csv(self, path) -> None:
        """One row per query: step,accepted (1/0),power_w."""
        rows = enumerate(zip(self.accepted, self.powers))
        with open(path, "w", newline="") as fh:
            fh.write("step,accepted,power_w\n")
            fh.writelines(f"{i},{int(a)},{p!r}\n" for i, (a, p) in rows)


class FeedbackChannel:
    """Measured received power of a scenario's phase-index grids.

    Builds the element weights once (`weights`) and keeps the (n_units, codebook
    size) `table` of every term T[n, k], with the scenario's jitter realization
    folded in, so a grid's noiseless power at the top calibrated current is
    prefactor * |sum_n T[n, idx_n]|^2 (`power`).  Readings add Gaussian noise of
    the scenario's `noise_variance` (floored at zero), one draw per query from a
    standalone seeded rng in blocks, and are counted in `queries`.  `measure`
    reads a grid; the searches read the table's powers by `read` and `read_until`.
    """

    def __init__(self, scenario: Scenario, seed=0):
        self.scenario = scenario
        self.weights = element_weights(scenario)
        jittered = self.weights * np.exp(1j * scenario.phase_errors)
        self.table = jittered[:, None] * np.exp(1j * scenario.codebook.phases())
        self.prefactor = scenario.tx_power / SIXTEEN_PI_SQ
        self.noise_variance = scenario.noise_variance
        self._rng = np.random.default_rng(seed)
        self._noise = np.empty(0)  # drawn noise, unused from _pos on; as floats for `read`
        self._noise_list: list[float] = []
        self._pos = 0
        self.queries = 0

    def power(self, configuration) -> float:
        """Noiseless received power (W) of a phase-index grid, checked against the scenario."""
        idx = _phase_indices(self.scenario, configuration)
        return self.prefactor * abs(_sum_terms(self.table, idx)) ** 2

    def measure(self, configuration) -> float:
        return self.read(float(self.power(configuration)))

    def _draws(self, m: int) -> np.ndarray:
        """The next m draws, not yet consumed; a shortfall draws every block it needs at once."""
        short = self._pos + m - len(self._noise_list)
        if short > 0:
            sd, n_blocks = math.sqrt(self.noise_variance), -(-short // _NOISE_BLOCK)
            blocks = [self._rng.normal(0.0, sd, _NOISE_BLOCK) for _ in range(n_blocks)]
            self._noise, self._pos = np.concatenate([self._noise[self._pos:], *blocks]), 0
            self._noise_list = self._noise.tolist()
        return self._noise[self._pos:self._pos + m]

    def read(self, power: float) -> float:
        """One reading of a configuration whose noiseless power is `power`."""
        self.queries += 1
        if self.noise_variance > 0.0:
            if self._pos == len(self._noise_list):
                self._draws(1)
            power = max(0.0, power + self._noise_list[self._pos])
            self._pos += 1
        return power

    def read_until(self, powers: np.ndarray, best: float) -> list[float]:
        """`read` of each noiseless power in turn, up to the first reading above `best`."""
        if self.noise_variance > 0.0:
            x = powers + self._draws(len(powers))
            powers = np.where(x > 0.0, x, 0.0)  # max(0.0, x)
        above = powers > best
        first = int(above.argmax())  # 0 when nothing is above
        m = first + 1 if above[first] else len(powers)
        self.queries += m
        self._pos += m if self.noise_variance > 0.0 else 0
        return powers[:m].tolist()


def _sum_terms(table: np.ndarray, configuration) -> complex:
    """Channel sum of a configuration from scratch: sum_n table[n, idx_n]."""
    idx = np.asarray(configuration, dtype=int).reshape(-1)
    return complex(table[np.arange(table.shape[0]), idx].sum())


def _powers(prefactor: float, sums: np.ndarray) -> np.ndarray:
    """prefactor * abs(s) ** 2 of every channel sum s, bit for bit as Python computes it:
    np.hypot is abs(complex), and np.float_power squares through libm pow as `** 2` does.
    Like `** 2`, raises OverflowError where a finite magnitude squares to inf."""
    mags = np.hypot(sums.real, sums.imag)
    with np.errstate(over="ignore"):
        squares = np.float_power(mags, 2.0)
    if squares.max(initial=0.0) == math.inf and np.isfinite(mags[squares == math.inf]).any():
        raise OverflowError("channel sum too large to square")
    return prefactor * squares


def uniform_configuration(layout, phase_index: int = 0) -> np.ndarray:
    return np.full((layout.n_rows, layout.n_cols), phase_index, dtype=int)


def _start(feedback: FeedbackChannel, initial) -> np.ndarray:
    """A search's starting configuration: `initial`, or all zeros, on the channel's layout."""
    layout = feedback.scenario.layout
    config = uniform_configuration(layout) if initial is None else np.array(initial)
    if config.shape != (layout.n_rows, layout.n_cols):
        raise ValueError("initial configuration does not match the layout")
    return config


def blind_rowcol_search(feedback: FeedbackChannel, initial=None,
                        passes: int = 4) -> tuple[np.ndarray, SearchTrace]:
    """Blind line-by-line search over whole columns, then whole rows.

    Each pass advances every column and then every row by one codebook step
    (+90 deg at 2 bits) and keeps the shift iff the measured power does not
    drop below the running best.  Only power readings steer the search — no
    channel knowledge.  Query count is always 1 + passes * (n_cols + n_rows).
    """
    if passes < 1:
        raise ValueError("passes must be >= 1")
    config = _start(feedback, initial)
    table, prefactor, k = feedback.table, feedback.prefactor, feedback.scenario.codebook.size
    n_rows, n_cols = config.shape
    # step[k * n + i]: how unit n's term changes when it moves from index i to i + 1;
    # unit (r, c)'s entries start at step[first[r, c]]
    step = (np.roll(table, -1, axis=1) - table).reshape(-1)
    first = np.arange(0, step.size, k).reshape(n_rows, n_cols)
    # In a one-row or one-column layout one line is the whole array: shifting
    # it turns every term by one codebook step, so its power ties the current
    # one up to rounding.  There every candidate is summed from scratch, as
    # that line costs O(N) anyway, so each reading and >= decision is a full
    # evaluation's.
    from_scratch = n_rows == 1 or n_cols == 1
    read, trace = feedback.read, SearchTrace()
    powers, accepted = trace.powers, trace.accepted
    best = feedback.measure(config)
    trace.record(True, best)
    for _ in range(passes):
        s = _sum_terms(table, config)
        for axis in (0, 1):  # columns, then rows
            # a line's shift touches only that line, so every delta of this
            # sweep can be taken from the configuration at its start
            deltas = step.take(first + config).sum(axis=axis).tolist()
            for i, delta in enumerate(deltas):
                if from_scratch:
                    shifted = config.copy()
                    _shift_line(shifted, axis, i, k)
                    cand = _sum_terms(table, shifted)
                else:
                    cand = s + delta
                p = read(prefactor * abs(cand) ** 2)
                kept = p >= best
                if kept:
                    _shift_line(config, axis, i, k)
                    s, best = cand, p
                powers.append(p)
                accepted.append(kept)
    return config, trace


def _shift_line(config, axis, i, k) -> None:
    """Advance column i (axis 0) or row i (axis 1) of `config` by one codebook step, in place."""
    line = config[:, i] if axis == 0 else config[i]
    line[:] = (line + 1) % k


def greedy_element_search(feedback: FeedbackChannel, initial=None,
                          max_rounds: int = 8) -> tuple[np.ndarray, SearchTrace]:
    """Cyclic per-element descent: each unit in turn tries every codebook index.

    A candidate is kept only on strict improvement, so the result is stable
    under any single-element change; rounds repeat until one makes no change
    or max_rounds is hit.  A unit skips the index it holds at that moment, so
    after a kept change it tries its earlier index again.
    A run of rejections (a noisy best is a noise record) ending at a unit boundary
    sets off a `_gallop`; the run needed doubles when it gains in its first window,
    else halves to no less than _GALLOP_MIN.  Readings stay those of one at a time.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    config = _start(feedback, initial)
    table, prefactor, k = feedback.table, feedback.prefactor, feedback.scenario.codebook.size
    held = config.reshape(-1)  # the configuration, updated unit by unit
    read = feedback.read
    trace = SearchTrace()
    best = feedback.measure(config)
    trace.record(True, best)
    gallop_after, gained_at = _GALLOP_MIN, feedback.queries  # queries up to the last gain
    for _ in range(max_rounds):
        changed = False
        s = _sum_terms(table, held)
        n, first = 0, 0
        while n < len(held):
            cur = int(held[n])
            if first == 0 and feedback.queries - gained_at >= gallop_after:
                gain = _gallop(table, held, n, s, best, prefactor, feedback, trace)
                at_once = gain is not None and gain[-1]
                gallop_after = 2 * gallop_after if at_once else max(_GALLOP_MIN, gallop_after // 2)
                if gain is None:  # no gain in the rest of the round
                    break
                n, cur, s, best, _ = gain
                first, gained_at, changed = cur + 1, feedback.queries, True
            row = table[n].tolist()
            for idx in range(first, k):
                if idx == cur:
                    continue
                cand = (s - row[cur]) + row[idx]
                p = read(prefactor * abs(cand) ** 2)
                if p > best:
                    s, best, cur = cand, p, idx
                    changed, gained_at = True, feedback.queries
                    trace.record(True, p)
                else:
                    trace.record(False, p)
            held[n] = cur
            n, first = n + 1, 0
        if not changed:
            break
    return held.reshape(config.shape), trace


def _gallop(table, held, n, s, best, prefactor, feedback, trace):
    """Read greedy's candidates (s - T[u, held_u]) + T[u, idx] from unit n on, up to a gain.

    Windows of whole units double from _GALLOP_WINDOW candidates.  Returns the
    gain's (unit, index, sum, reading, whether in the first window), or None.
    """
    others, window = np.arange(table.shape[1] - 1), _GALLOP_WINDOW
    while n < len(held):
        hi = min(len(held), n + max(1, window // len(others)))
        cur, at = held[n:hi, None], np.arange(n, hi)[:, None]
        idx = others + (others >= cur)  # every index but the held one, in order
        sums = ((s - table[at, cur]) + table[at, idx]).ravel()
        readings = feedback.read_until(_powers(prefactor, sums), best)
        gained = readings[-1] > best
        trace.powers.extend(readings)
        trace.accepted.extend([False] * (len(readings) - gained) + [True] * gained)
        if gained:
            u, r = divmod(len(readings) - 1, len(others))
            at_once = window == _GALLOP_WINDOW
            return n + u, int(idx[u, r]), complex(sums[len(readings) - 1]), readings[-1], at_once
        n, window = hi, 2 * window
    return None


def wrap_to_pi(x):
    """Wrap angles to (-pi, pi]."""
    return -np.mod(-np.asarray(x, dtype=float) + math.pi, 2.0 * math.pi) + math.pi


def nearest_quantize(phases, codebook: PhaseCodebook) -> np.ndarray:
    """Each phase to the circularly nearest codebook index; exact ties go to the lower index.

    With x = (phase - offset) / spacing, the nearest entry is x rounded half up, mod K.
    Within 1e-6 of a step (plus 1e-9 rad for fine codebooks) of a midpoint, the two
    entries around x are compared by wrapped distance with the tolerance-padded rule
    of an argmin over the whole codebook: within 1e-12 of the nearest counts as tied.
    """
    shape = np.shape(phases)
    ph = np.asarray(phases, dtype=float).reshape(-1)
    k = codebook.size
    x = (ph - codebook.offset) / codebook.spacing
    floor = np.floor(x)
    frac = x - floor
    lo = floor.astype(int) & (k - 1)  # K is a power of two
    idx = (lo + (frac >= 0.5)) & (k - 1)
    near = np.abs(frac - 0.5) < 1e-6 + 1e-9 / codebook.spacing
    ph, lo = ph[near], lo[near]
    hi = (lo + 1) & (k - 1)
    entries = codebook.phases()
    d_lo = np.abs(wrap_to_pi(ph - entries[lo]))
    d_hi = np.abs(wrap_to_pi(ph - entries[hi]))
    tied = np.minimum(d_lo, d_hi) + 1e-12
    idx[near] = np.where((d_lo <= tied) & ((d_hi > tied) | (lo < hi)), lo, hi)
    return idx.reshape(shape)


def brute_force_optimum(scenario: Scenario) -> tuple[np.ndarray, float]:
    """Exhaustive search over all codebook configurations, refused above 20 search bits
    (bits * n_units).  Blocks of configurations in itertools.product order (unit 0 the
    leading digit) sum the term table by gather; the first strict maximum keeps the
    lexicographically smallest of tied optima."""
    n, k = scenario.layout.n_units, scenario.codebook.size
    if scenario.codebook.bits * n > 20:
        raise ValueError(f"{scenario.codebook.bits * n} search bits exceed the 20-bit "
                         "brute-force cap")
    feedback = FeedbackChannel(scenario)
    place = k ** np.arange(n - 1, -1, -1)
    best_cfg, best_p = None, -1.0
    for lo in range(0, k ** n, _BRUTE_BLOCK):
        digits = np.arange(lo, min(lo + _BRUTE_BLOCK, k ** n))[:, None] // place % k
        p = _powers(feedback.prefactor, feedback.table[np.arange(n), digits].sum(axis=1))
        i = int(p.argmax())
        if p[i] > best_p:
            best_cfg, best_p = digits[i].copy(), float(p[i])
    return best_cfg.reshape(scenario.layout.n_rows, scenario.layout.n_cols), best_p

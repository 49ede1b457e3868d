"""Discrete phase-configuration search: blind line search, greedy descent, quantization.

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

import itertools
import math

import numpy as np

from .link import SIXTEEN_PI_SQ, Scenario, _phase_indices, element_weights
from .ris import PhaseCodebook

_NOISE_BLOCK = 1024  # noise draws taken from the channel's rng at a time
_GALLOP_MIN = 8  # fewest rejections in a row, at a unit boundary, before greedy reads a block
_GALLOP_WINDOW = 64  # candidates in a block read's first window; each next window doubles


class SearchTrace:
    """Measurement log of a feedback search, and its one count of queries; step 0 is the
    initial configuration.

    `readings` holds one reading per query, but a block read is one entry: its readings
    array.  The search's rule fixes which readings it kept, so the log stores none:
    `accepted` replays the running best, which a kept reading reaches (`keeps_ties`,
    blind's >=) or beats (greedy's >).  So the last kept reading is max(powers).
    """

    def __init__(self, keeps_ties: bool):
        self.keeps_ties = keeps_ties
        self.readings: list = []  # a float per query, or a block's readings array

    @property
    def n_queries(self) -> int:
        block = np.ndarray  # a block read's entry; every other entry is one query
        return len(self.readings) + sum(len(p) - 1 for p in self.readings if type(p) is block)

    @property
    def powers(self) -> list[float]:
        return [x for p in self.readings for x in (p.tolist() if isinstance(p, np.ndarray) else (p,))]

    @property
    def accepted(self) -> list[bool]:
        powers = self.powers  # under either rule, the best after reading p is max(best, p)
        best = itertools.accumulate(powers, max, initial=-math.inf)
        return [p >= b if self.keeps_ties else p > b for p, b in zip(powers, best)]

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
    standalone seeded rng in blocks.  `measure` reads a grid; the searches read the
    table's powers by `read`, `read_until` and `next_noise`, and count them in their
    own `SearchTrace`.
    """

    def __init__(self, scenario: Scenario, seed=0):
        self.scenario = scenario
        self.weights = element_weights(scenario)
        jittered = self.weights * np.exp(1j * scenario.phase_errors)
        self.table = jittered[:, None] * np.exp(1j * scenario.codebook.phases())
        self.prefactor = scenario.tx_power / SIXTEEN_PI_SQ
        self.noise_variance = scenario.noise_variance
        self._rng = np.random.default_rng(seed)
        self._noise, self._pos = np.empty(0), 0  # drawn noise, unused from _pos on

    def power(self, configuration) -> float:
        """Noiseless received power (W) of a phase-index grid, checked against the scenario."""
        idx = _phase_indices(self.scenario, configuration)
        return self.prefactor * abs(_sum_terms(self.table, idx)) ** 2

    def measure(self, configuration) -> float:
        return self.read(float(self.power(configuration)))

    def _draws(self, m: int) -> np.ndarray:
        """The next m draws, not yet consumed; a shortfall draws every block it needs at once."""
        short = self._pos + m - len(self._noise)
        if short > 0:
            sd, n = math.sqrt(self.noise_variance), -(-short // _NOISE_BLOCK) * _NOISE_BLOCK
            drawn = self._rng.normal(0.0, sd, n)  # the stream of n // _NOISE_BLOCK block calls
            self._noise, self._pos = np.concatenate([self._noise[self._pos:], drawn]), 0
        return self._noise[self._pos:self._pos + m]

    def read(self, power: float) -> float:
        """One reading of a configuration whose noiseless power is `power`."""
        if self.noise_variance > 0.0:
            if self._pos == len(self._noise):
                self._draws(1)
            power = max(0.0, power + float(self._noise[self._pos]))
            self._pos += 1
        return power

    def read_until(self, powers: np.ndarray, best: float) -> np.ndarray:
        """`read` of each noiseless power in turn, up to the first above `best`, as one array."""
        if self.noise_variance > 0.0:
            x = powers + self._draws(len(powers))
            powers = np.where(x > 0.0, x, 0.0)  # max(0.0, x)
        above = powers > best
        first = int(above.argmax())  # 0 when nothing is above
        m = first + 1 if above[first] else len(powers)
        self._pos += m if self.noise_variance > 0.0 else 0
        return powers[:m]

    def next_noise(self, m: int) -> list[float] | None:
        """Hand out the next m queries' draws as floats, or None if noiseless."""
        if not self.noise_variance > 0.0:
            return None
        draws = self._draws(m).tolist()
        self._pos += m
        return draws


def _sum_terms(table: np.ndarray, configuration) -> complex:
    """Channel sum of a configuration from scratch: sum_n table[n, idx_n]."""
    idx = np.asarray(configuration, dtype=int).reshape(-1)
    return complex(table[np.arange(table.shape[0]), idx].sum())


def _powers(prefactor: float, sums: np.ndarray) -> np.ndarray:
    """prefactor * abs(s) ** 2 of every channel sum s, bit for bit as Python computes it:
    np.hypot is abs(complex), and np.float_power squares through libm pow as `** 2` does.
    Every square is finite: `link._weight_chunks` bounds each sum a search forms."""
    return prefactor * np.float_power(np.hypot(sums.real, sums.imag), 2.0)


def _start(feedback: FeedbackChannel, initial) -> np.ndarray:
    """A search's own copy of `initial` (None: all zeros) as a (n_rows, n_cols) grid."""
    layout = feedback.scenario.layout
    return _phase_indices(feedback.scenario, initial).reshape(layout.n_rows, layout.n_cols).copy()


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
    # In a one-row or one-column layout one line is the whole array, and its
    # shift ties the current power up to rounding: there every candidate is
    # summed from scratch (O(N) anyway), so each >= decision is a full evaluation's.
    from_scratch = n_rows == 1 or n_cols == 1
    trace = SearchTrace(keeps_ties=True)
    log = trace.readings.append
    best = feedback.measure(config)
    log(best)
    for _ in range(passes):
        s = _sum_terms(table, config)
        for axis in (0, 1):  # columns, then rows
            # a shift touches only its own line: every delta of the sweep comes from its start
            deltas = step.take(first + config).sum(axis=axis).tolist()
            noise = feedback.next_noise(len(deltas))
            for i, delta in enumerate(deltas):
                if from_scratch:
                    shifted = config.copy()
                    _shift_line(shifted, axis, i, k)
                    cand = _sum_terms(table, shifted)
                else:
                    cand = s + delta
                p = prefactor * abs(cand) ** 2
                if noise is not None:  # max(0.0, p + draw), as `read` floors a reading
                    p += noise[i]
                    if not p > 0.0:
                        p = 0.0
                if p >= best:
                    _shift_line(config, axis, i, k)
                    s, best = cand, p
                log(p)
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
    read, trace = feedback.read, SearchTrace(keeps_ties=False)
    log = trace.readings.append
    best = feedback.measure(config)
    log(best)
    gallop_after, rejected = _GALLOP_MIN, 0  # candidates read one at a time since the last gain
    for _ in range(max_rounds):
        changed = False
        s = _sum_terms(table, held)
        n, first = 0, 0
        while n < len(held):
            cur = int(held[n])
            if first == 0 and rejected >= gallop_after:
                gain = _gallop(table, held, n, s, best, prefactor, feedback, log)
                at_once = gain is not None and gain[-1]
                gallop_after = 2 * gallop_after if at_once else max(_GALLOP_MIN, gallop_after // 2)
                if gain is None:  # no gain in the rest of the round; the next opens with a gallop
                    break
                n, cur, s, best, _ = gain
                first, rejected, changed = cur + 1, 0, True
            row = table[n].tolist()
            for idx in range(first, k):
                if idx == cur:
                    continue
                cand = (s - row[cur]) + row[idx]
                p = read(prefactor * abs(cand) ** 2)
                if p > best:
                    s, best, cur, changed, rejected = cand, p, idx, True, 0
                else:
                    rejected += 1
                log(p)
            held[n] = cur
            n, first = n + 1, 0
        if not changed:
            break
    return held.reshape(config.shape), trace


def _gallop(table, held, n, s, best, prefactor, feedback, log):
    """Read greedy's candidates (s - T[u, held_u]) + T[u, idx] from unit n on, up to a gain.

    Windows of whole units double from _GALLOP_WINDOW candidates; `log` takes each
    window's readings array.  Returns the gain's (unit, index, sum, reading, whether
    in the first window), or None.
    """
    k, window = table.shape[1], _GALLOP_WINDOW
    while n < len(held):
        hi = min(len(held), n + max(1, window // (k - 1)))
        block, others = table[n:hi], np.arange(k) != held[n:hi, None]  # all but the held index
        sums = ((s - block[~others])[:, None] + block)[others]
        readings = feedback.read_until(_powers(prefactor, sums), best)
        log(readings)
        last = len(readings) - 1
        if readings[last] > best:
            u, r = divmod(last, k - 1)
            idx = int(r + (r >= held[n + u]))
            return n + u, idx, complex(sums[last]), float(readings[last]), window == _GALLOP_WINDOW
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
    A phase that is not finite, or whose floor(x) passes int64, raises ValueError.
    """
    shape = np.shape(phases)
    ph = np.asarray(phases, dtype=float).reshape(-1)
    k = codebook.size
    x = np.subtract(ph, codebook.offset)  # frac then reuses x's buffer
    x /= codebook.spacing
    floor = np.floor(x)
    fits = (-2.0 ** 63 <= floor) & (floor < 2.0 ** 63)  # False at NaN, inf, or past int64
    if not fits.all():
        raise ValueError(f"phase {float(ph[fits.argmin()])!r} has no step index in int64")
    frac = np.subtract(x, floor, out=x)
    lo = floor.astype(int)
    lo &= k - 1  # K is a power of two
    idx = np.add(lo, frac >= 0.5)
    idx &= k - 1
    frac -= 0.5
    near = np.abs(frac, out=frac) < 1e-6 + 1e-9 / codebook.spacing
    ph, lo = ph[near], lo[near]
    hi = (lo + 1) & (k - 1)
    entries = codebook.phases()
    d_lo = np.abs(wrap_to_pi(ph - entries[lo]))
    d_hi = np.abs(wrap_to_pi(ph - entries[hi]))
    tied = np.minimum(d_lo, d_hi) + 1e-12
    idx[near] = np.where((d_lo <= tied) & ((d_hi > tied) | (lo < hi)), lo, hi)
    return idx.reshape(shape)

"""Reference kernel and calibration of host times.

Host times are CPU seconds of the benchmark process (`clock`): rislink is
single-threaded and waits on nothing but the page cache, so CPU time is its
cost, and time the process spends preempted by other tasks does not count.

The machine this benchmark targets also changes CPU speed from one process
to the next and within a process, by up to 2x.  Every host time is therefore
reported next to a reference kernel timed in the same stretch of the run:
a calibrated time is raw_seconds * REF_NOMINAL_S / reference_seconds, i.e.
the raw time rescaled to a host on which the kernel takes its nominal time.

The kernel is plain numpy/Python with no rislink code, and mixes the kinds
of work rislink's hot paths do: building small frozen dataclasses and
repacking them into arrays, element-wise numpy calls on 64-element arrays
with interpreter overhead between them, and complex exponentials summed over
arrays long enough to stream through memory.  On this machine the long-array
part is what makes the kernel slow down and speed up with the workloads:
a kernel of only the small-array rounds tracked the 64x64 sweeps to +-10%
across processes, this mix to +-2-4%.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

clock = time.process_time

# Median time of one reference_chunk() on the reference machine (see README.md).
REF_NOMINAL_S = 0.004

_ROUNDS = 8
_POINTS = np.random.default_rng(20241016).standard_normal((64, 3))
_SAMPLES = np.random.default_rng(20241017).standard_normal(50_000)


@dataclass(frozen=True)
class _Cell:
    index: int
    current: float
    attenuation: float = 1.0

    def __post_init__(self):
        if self.index < 0 or self.current < 0:
            raise ValueError("negative cell state")


def _kernel() -> float:
    acc = 0.0
    for i in range(_ROUNDS):
        cells = [_Cell(k % 4, 0.04) for k in range(64)]
        idx = np.array([c.index for c in cells])
        cur = np.array([c.current for c in cells])
        d = _POINTS - _POINTS[i % 64]
        r = np.linalg.norm(d, axis=-1) + 1.0
        zen = np.arccos(np.minimum(np.abs(d[:, 2]) / r, 1.0))
        terms = np.sqrt(np.cos(zen)) * cur * np.exp(1j * (idx * math.pi / 2 - 2.0 * math.pi * r)) / r
        acc += float(np.abs(np.sum(terms)))
    acc += float(np.abs(np.sum(np.exp(1j * _SAMPLES))))
    return acc


def reference_chunk() -> float:
    """Run the reference kernel once; return its CPU time in seconds."""
    t0 = clock()
    _kernel()
    return clock() - t0


def calibration_factor(chunk_seconds) -> float:
    """REF_NOMINAL_S over the median of the given reference timings."""
    return REF_NOMINAL_S / statistics.median(chunk_seconds)

"""Surface hardware: phase codebook, amplifier, jitter, control words."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class SupplyBudgetError(ValueError):
    """Requested amplifier control current exceeds the per-unit supply budget."""


@dataclass(frozen=True)
class PhaseCodebook:
    """Uniform m-bit phase alphabet: offset + k * pi / 2^(bits-1) for k = 0 .. 2^bits - 1."""

    bits: int = 2
    offset: float = 0.0

    def __post_init__(self):
        if not isinstance(self.bits, numbers.Integral):
            raise ValueError(f"codebook bits must be an integer, got {self.bits!r}")
        if self.bits < 1:
            raise ValueError(f"codebook needs at least 1 bit, got {self.bits!r}")
        if self.bits > 8:  # 256 entries: a 64x64 oracle table holds 4096 x 256 terms (16 MiB)
            raise ValueError(f"codebook holds at most 8 bits, got {self.bits!r}")
        if not 0.0 <= self.offset < self.spacing:
            raise ValueError(f"offset must lie in [0, {self.spacing!r}) so entries stay in "
                             f"[0, 2*pi), got {self.offset!r}")

    @property
    def size(self) -> int:
        return 2 ** self.bits

    @property
    def spacing(self) -> float:
        return math.pi / 2 ** (self.bits - 1)

    def phases(self) -> np.ndarray:
        """All entries in radians, ascending, shape (size,)."""
        return self.offset + self.spacing * np.arange(self.size)


# Calibration anchors for the default amplifier: array-level supply currents of
# 0.01 A and 1.4 A split across 32 units, with the measured 11.9 dB output swing
# between them.
DEFAULT_CALIBRATION = ((0.01 / 32, 0.0), (1.4 / 32, 11.9))


@dataclass(frozen=True)
class AmplifierModel:
    """Per-unit amplifier gain versus control current.

    calibration is a tuple of (current_A, gain_dB) pairs with strictly
    increasing currents and non-decreasing gains; gain between anchors is
    interpolated linearly in dB and clamped at the ends.  max_current is the
    per-unit supply budget.
    """

    calibration: tuple[tuple[float, float], ...] = DEFAULT_CALIBRATION
    max_current: float = 0.12

    def __post_init__(self):
        if len(self.calibration) < 1:
            raise ValueError("calibration needs at least one (current, gain) pair")
        cur, db = zip(*self.calibration)
        if not all(math.isfinite(v) for v in cur + db):
            raise ValueError(f"calibration entries must be finite, got {self.calibration!r}")
        if any(c < 0 for c in cur):
            raise ValueError("calibration currents must be >= 0")
        if any(b <= a for a, b in zip(cur, cur[1:])):
            raise ValueError("calibration currents must be strictly increasing")
        if any(b < a for a, b in zip(db, db[1:])):
            raise ValueError("calibration gains must be non-decreasing")
        if not 0 < self.max_current < math.inf:
            raise ValueError(f"max_current must be positive and finite, got {self.max_current!r}")
        if cur[-1] > self.max_current:
            raise ValueError("calibration exceeds the supply budget")

    @property
    def top_current(self) -> float:
        """Highest calibrated control current (the full-gain operating point)."""
        return self.calibration[-1][0]

    def gain_db(self, current):
        """Interpolated gain in dB at `current` (scalar or ndarray).

        Raises ValueError for negative or NaN currents and SupplyBudgetError above
        max_current.
        """
        c = np.asarray(current, dtype=float)
        if not np.all(c >= 0):  # NaN fails c >= 0 too
            raise ValueError("control current must be >= 0")
        if np.any(c > self.max_current):
            raise SupplyBudgetError(
                f"control current exceeds the {self.max_current} A supply budget"
            )
        out = np.interp(c, *np.array(self.calibration).T)
        return out if out.ndim else float(out)

    @classmethod
    def passive(cls) -> "AmplifierModel":
        """Unity-gain surface (0 dB at any admissible current)."""
        return cls(((0.0, 0.0),), 0.12)


@dataclass(frozen=True)
class PhaseJitterModel:
    """Static per-unit phase-shifter error, uniform on [-max_error, +max_error] radians."""

    max_error: float = math.radians(8.0)
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.max_error < math.inf:
            raise ValueError(f"max_error must be finite and >= 0, got {self.max_error!r}")
        if not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"jitter seed must be an integer, got {self.seed!r}")
        if not self.seed >= 0:
            raise ValueError(f"jitter seed must be >= 0, got {self.seed!r}")

    def sample(self, n: int) -> np.ndarray:
        """One error per unit, shape (n,), deterministic from `seed`."""
        return np.random.default_rng(self.seed).uniform(-self.max_error, self.max_error, n)


class ControlWord(NamedTuple):
    """3-bit SP4T switch word (vcc1, vcc2, vcc3) selecting a 2-bit phase state."""

    vcc1: int
    vcc2: int
    vcc3: int

    def __str__(self) -> str:
        return f"{self.vcc1}{self.vcc2}{self.vcc3}"


# phase index -> switch word; vcc1 stays low in every valid state
_ENCODE_TABLE = {
    0: ControlWord(0, 1, 1),
    1: ControlWord(0, 0, 1),
    2: ControlWord(0, 0, 0),
    3: ControlWord(0, 1, 0),
}


def encode_control(phase_index: int) -> ControlWord:
    """Switch word for a 2-bit phase index (0 -> 0 deg, 1 -> 90, 2 -> 180, 3 -> 270)."""
    try:
        return _ENCODE_TABLE[phase_index]
    except KeyError:
        raise ValueError(f"phase_index must be 0..3, got {phase_index!r}") from None

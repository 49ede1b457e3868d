"""Surface hardware: phase codebook, amplifier, jitter, control words."""

from __future__ import annotations

import math
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
        cur = [c for c, _ in self.calibration]
        db = [g for _, g in self.calibration]
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

        Raises ValueError for negative currents and SupplyBudgetError above
        max_current.
        """
        c = np.asarray(current, dtype=float)
        if np.any(c < 0):
            raise ValueError("control current must be >= 0")
        if np.any(c > self.max_current):
            raise SupplyBudgetError(
                f"control current exceeds the {self.max_current} A supply budget"
            )
        cur = np.array([p[0] for p in self.calibration])
        db = np.array([p[1] for p in self.calibration])
        out = np.interp(c, cur, db)
        return out if out.ndim else float(out)

    def gain_linear(self, current):
        """Linear power gain G_u at `current`."""
        db = self.gain_db(current)
        return 10.0 ** (np.asarray(db) / 10.0) if isinstance(db, np.ndarray) else 10.0 ** (db / 10.0)

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
        if not self.seed >= 0:
            raise ValueError(f"jitter seed must be >= 0, got {self.seed!r}")

    def sample(self, n: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """One error per unit, shape (n,).  Deterministic from `seed` unless an rng is passed."""
        if rng is None:
            rng = np.random.default_rng(self.seed)
        return rng.uniform(-self.max_error, self.max_error, n)


class ControlWord(NamedTuple):
    """3-bit SP4T switch word (vcc1, vcc2, vcc3) selecting a 2-bit phase state."""

    vcc1: int
    vcc2: int
    vcc3: int

    def __str__(self) -> str:
        return f"{self.vcc1}{self.vcc2}{self.vcc3}"

    @classmethod
    def from_string(cls, word: str) -> "ControlWord":
        if len(word) != 3 or any(ch not in "01" for ch in word):
            raise ValueError(f"control word must be three bits, got {word!r}")
        return cls(int(word[0]), int(word[1]), int(word[2]))


# phase index -> switch word; vcc1 stays low in every valid state
_ENCODE_TABLE = {
    0: ControlWord(0, 1, 1),
    1: ControlWord(0, 0, 1),
    2: ControlWord(0, 0, 0),
    3: ControlWord(0, 1, 0),
}
_DECODE_TABLE = {word: idx for idx, word in _ENCODE_TABLE.items()}


def encode_control(phase_index: int) -> ControlWord:
    """Switch word for a 2-bit phase index (0 -> 0 deg, 1 -> 90, 2 -> 180, 3 -> 270)."""
    try:
        return _ENCODE_TABLE[phase_index]
    except KeyError:
        raise ValueError(f"phase_index must be 0..3, got {phase_index!r}") from None


def decode_control(word: ControlWord | str) -> int:
    """Phase index for a switch word; rejects the four words with no phase state."""
    if isinstance(word, str):
        word = ControlWord.from_string(word)
    elif not isinstance(word, ControlWord):
        word = ControlWord(*word)
    try:
        return _DECODE_TABLE[word]
    except KeyError:
        raise ValueError(f"control word {word} selects no phase state") from None

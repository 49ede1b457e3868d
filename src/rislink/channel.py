"""The speed of light and the cos^q antenna/aperture model of the link's legs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class AntennaModel:
    """Rotationally symmetric cos^q pattern: gain(theta) = boresight_gain * cos(theta)^exponent.

    boresight_gain is linear (not dB).  exponent = 0 gives a hemispherical
    radiator.  The boresight points squarely at the array plane, so the
    pattern argument is the element-relative zenith angle; anything behind
    the aperture plane (theta > pi/2) sees zero gain.
    """

    boresight_gain: float = 1.0
    exponent: float = 0.0

    def __post_init__(self):
        if not 0 < self.boresight_gain < math.inf:
            raise ValueError(f"boresight gain must be positive and finite (linear scale), "
                             f"got {self.boresight_gain!r}")
        if not 0 <= self.exponent < math.inf:
            raise ValueError(f"pattern exponent must be finite and >= 0, got {self.exponent!r}")

    def gain_from_cosine(self, cos_zenith):
        """Linear gain toward a direction with cos(zenith) = `cos_zenith` in [0, 1]: G * c^q."""
        return self.boresight_gain * cos_zenith ** self.exponent

    def gain(self, zenith):
        """Linear gain toward `zenith` (radians).  Scalar or ndarray."""
        z = np.asarray(zenith, dtype=float)
        if np.any(z < 0):
            raise ValueError("zenith must be >= 0")
        g = self.gain_from_cosine(np.cos(np.minimum(z, math.pi / 2)))
        out = np.where(z <= math.pi / 2, g, 0.0)
        return out if out.ndim else float(out)


def area_from_cosine(geometric_area: float, cos_zenith):
    """Projected aperture of a unit cell seen at cos(zenith) = `cos_zenith`: A * c."""
    if geometric_area <= 0:
        raise ValueError("geometric area must be positive")
    return geometric_area * cos_zenith


def effective_area(geometric_area: float, zenith) -> float:
    """Projected aperture of a unit cell: geometric area times cos(zenith).

    Valid for zenith in [0, pi/2]; the fold in the geometry helpers keeps
    callers inside that range.
    """
    a = area_from_cosine(geometric_area, np.cos(zenith))
    return a if isinstance(a, np.ndarray) else float(a)


"""The speed of light and the cos^q antenna model of the link's legs."""

from __future__ import annotations

import math
from dataclasses import dataclass


SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class AntennaModel:
    """Rotationally symmetric cos^q pattern: G(theta) = boresight_gain * cos(theta)^exponent.

    boresight_gain is linear (not dB).  exponent = 0 gives a hemispherical
    radiator.  The boresight points squarely at the array plane, so the
    pattern argument is the cosine of the element-relative zenith angle,
    which the geometry folds into [0, 1] on the antenna's side of the plane.
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

"""Array geometry: spherical poses, element placement on the z=0 plane, path lengths."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SphericalPose:
    """Position as (range, zenith, azimuth) relative to the array center.

    Zenith is measured from the +z axis, so theta < pi/2 lands on the
    incidence side of the surface and theta > pi/2 on the transmission
    side.  Angles in radians.
    """

    r: float
    theta: float
    phi: float

    def __post_init__(self):
        if not 0 < self.r < math.inf:
            raise ValueError(f"range must be positive and finite, got {self.r!r}")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"zenith must lie in [0, pi], got {self.theta!r}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"azimuth must lie in [0, 2*pi), got {self.phi!r}")


@dataclass(frozen=True)
class ArrayLayout:
    """Uniform planar array on z=0: n_rows x n_cols unit cells on a regular grid.

    pitch_x is the horizontal (column-to-column) spacing, pitch_y the vertical
    (row-to-row) spacing, both in meters.
    """

    n_rows: int
    n_cols: int
    pitch_x: float = 0.06
    pitch_y: float = 0.06

    def __post_init__(self):
        for name in ("n_rows", "n_cols"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError(f"layout needs at least one row and one column, "
                             f"got {self.n_rows!r} x {self.n_cols!r}")
        for pitch in (self.pitch_x, self.pitch_y):
            if not 0 < pitch < math.inf:
                raise ValueError(f"element pitch must be positive and finite, got {pitch!r}")

    @property
    def n_units(self) -> int:
        return self.n_rows * self.n_cols

    @property
    def element_area(self) -> float:
        """Geometric area of one unit cell in m^2."""
        return self.pitch_x * self.pitch_y


def spherical_to_cartesian(pose: SphericalPose) -> np.ndarray:
    """(r, theta, phi) -> cartesian (x, y, z)."""
    sin_t = math.sin(pose.theta)
    return np.array(
        [
            pose.r * sin_t * math.cos(pose.phi),
            pose.r * sin_t * math.sin(pose.phi),
            pose.r * math.cos(pose.theta),
        ]
    )


def cartesian_points(r, theta, phi) -> np.ndarray:
    """`spherical_to_cartesian` over broadcast arrays of (r, theta, phi): shape (..., 3).

    The same operations in the same order, so the points match bit for bit.
    """
    r, theta, phi = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (r, theta, phi)))
    sin_t = np.sin(theta)
    return np.stack([r * sin_t * np.cos(phi), r * sin_t * np.sin(phi), r * np.cos(theta)], axis=-1)


def element_grid(layout: ArrayLayout) -> np.ndarray:
    """All unit-cell centers, shape (n_units, 3), row-major (row 1 cols 1..N, then row 2, ...)."""
    off_x = (np.arange(1, layout.n_cols + 1) - (layout.n_cols + 1) / 2.0) * layout.pitch_x
    off_y = ((layout.n_rows + 1) / 2.0 - np.arange(1, layout.n_rows + 1)) * layout.pitch_y
    xx, yy = np.meshgrid(off_x, off_y)  # (n_rows, n_cols)
    pts = np.zeros((layout.n_units, 3))
    pts[:, 0] = xx.ravel()
    pts[:, 1] = yy.ravel()
    return pts


def ranges_and_cosines(point, elements) -> tuple[np.ndarray, np.ndarray]:
    """Range and departure cosine from every row of `elements` to `point`.

    The cosine is taken against the unit cell's normal on the point's side
    of the plane, |dz| / r clipped to 1, so it lies in [0, 1]; a point in
    the plane sees 0.  Returns (ranges, cosines), shapes broadcast over
    `point` and `elements` without the last axis.  Raises ValueError on a
    coincident point.
    """
    p, e = np.asarray(point, dtype=float), np.asarray(elements, dtype=float)
    dx, dy, dz = (p[..., i] - e[..., i] for i in range(3))
    # np.linalg.norm's own summation order, without its (..., 3) temporary
    r = np.sqrt((dx * dx + dy * dy) + dz * dz)
    if np.any(r == 0.0):
        raise ValueError("point coincides with an element")
    return r, np.minimum(np.abs(dz) / r, 1.0)

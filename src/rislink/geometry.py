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


def _cell_offsets(layout: ArrayLayout) -> tuple[np.ndarray, np.ndarray]:
    """x offset of each column and y offset of each row of the unit-cell centers."""
    return ((np.arange(1, layout.n_cols + 1) - (layout.n_cols + 1) / 2.0) * layout.pitch_x,
            ((layout.n_rows + 1) / 2.0 - np.arange(1, layout.n_rows + 1)) * layout.pitch_y)


def element_grid(layout: ArrayLayout) -> np.ndarray:
    """All unit-cell centers, shape (n_units, 3), row-major (row 1 cols 1..N, then row 2, ...)."""
    xx, yy = np.meshgrid(*_cell_offsets(layout))  # (n_rows, n_cols)
    return np.stack([xx.ravel(), yy.ravel(), np.zeros(layout.n_units)], axis=1)


def ranges_and_cosines(points, layout: ArrayLayout) -> tuple[np.ndarray, np.ndarray]:
    """Range and departure cosine from every unit cell of `layout` to each of `points`
    (..., 3), each shaped (..., n_units) in `element_grid` order.

    The cells sit at z = 0, so dx varies only by column, dy only by row and dz = p_z
    only by point: r = sqrt((dx^2 + dy^2) + dz^2), np.linalg.norm's own summation
    order, is one broadcast (..., rows, cols) sum.  The cosine is taken against the
    cell's normal on the point's side of the plane, |p_z| / r clipped to 1, so it lies
    in [0, 1].  Raises ValueError on a coincident point.
    """
    p = np.asarray(points, dtype=float)[..., None, None, :]
    off_x, off_y = _cell_offsets(layout)
    dx, dy, dz = p[..., 0] - off_x, p[..., 1] - off_y[:, None], p[..., 2]
    r = dx * dx + dy * dy
    r = np.sqrt(np.add(r, dz * dz, out=r), out=r)
    if not r.all():
        raise ValueError("point coincides with an element")
    cos = np.abs(dz) / r
    flat = r.shape[:-2] + (layout.n_units,)
    return r.reshape(flat), np.minimum(cos, 1.0, out=cos).reshape(flat)

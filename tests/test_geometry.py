"""Poses, element placement, and path-length helpers."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    departure_zenith,
    distance,
    element_grid,
    element_position,
    reference_ranges_and_cosines,
)
from rislink.config import ConfigError, load_run_plan
from rislink.experiments import chamber_scenario
from rislink.geometry import (
    ArrayLayout,
    SphericalPose,
    cartesian_points,
    ranges_and_cosines,
    spherical_to_cartesian,
)


def test_spherical_to_cartesian_boresight():
    p = spherical_to_cartesian(SphericalPose(0.6, 0.0, 0.0))
    assert p[0] == 0.0 and p[1] == 0.0 and p[2] == 0.6


def test_spherical_to_cartesian_diagonal():
    p = spherical_to_cartesian(SphericalPose(1.0, math.pi / 4, math.pi / 4))
    assert np.allclose(p, [0.5, 0.5, math.sqrt(2) / 2], atol=1e-15)


def test_spherical_to_cartesian_transmission_side():
    p = spherical_to_cartesian(SphericalPose(4.0, math.pi, 0.0))
    assert p[2] == -4.0


@pytest.mark.parametrize("r,theta,phi", [
    (0.0, 0.0, 0.0),
    (-1.0, 0.0, 0.0),
    (1.0, -0.1, 0.0),
    (1.0, math.pi + 0.1, 0.0),
    (1.0, 0.0, -0.1),
    (1.0, 0.0, 2 * math.pi),
])
def test_pose_validation(r, theta, phi):
    with pytest.raises(ValueError):
        SphericalPose(r, theta, phi)


def test_layout_validation():
    with pytest.raises(ValueError):
        ArrayLayout(0, 8)
    with pytest.raises(ValueError):
        ArrayLayout(4, 8, -0.06, 0.06)


@pytest.mark.parametrize("keys, line, message", [
    ({"pitch_x_m": 1e-200, "pitch_y_m": 1e-200}, 3,
     "cell area must be positive and finite, got 0.0"),
    ({"n_rows": 1, "n_cols": 1, "pitch_x_m": 1e160, "pitch_y_m": 1e160}, 5,
     "cell area must be positive and finite, got inf"),
    # 7 columns of 1e200 m: a half-width of 3.5e200 m, whose square is past a float
    ({"pitch_x_m": 1e200}, 2, "array half-width must have a finite square, got 3.5e+200"),
], ids=["zero-area", "infinite-area", "wide"])
def test_a_layout_past_a_float_fails_where_it_is_built(tmp_path, keys, line, message):
    """Each pitch is positive and finite, but the cell area or the half-width is not: the
    layout refuses it, so the builder does and a config names the key that tipped it."""
    grid = {"n_rows": 4, "n_cols": 8, "pitch_x_m": 0.06, "pitch_y_m": 0.06, **keys}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ArrayLayout(*grid.values())
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        chamber_scenario(**keys)
    cfg = tmp_path / "layout.cfg"
    cfg.write_text("[scenario]\n" + "".join(f"{k} = {v!r}\n" for k, v in keys.items()))
    with pytest.raises(ConfigError) as exc:
        load_run_plan(cfg)
    assert str(exc.value) == f"{cfg}:{line}: {message}"


def test_layout_derived():
    lay = ArrayLayout(4, 8, 0.06, 0.06)
    assert lay.n_units == 32
    assert lay.element_area == pytest.approx(0.0036, abs=0.0)


def test_element_position_corners():
    lay = ArrayLayout(4, 8, 0.06, 0.06)
    # row 1 / col 1 is the top-left cell seen from +z
    assert np.allclose(element_position(lay, 1, 1), [-0.21, 0.09, 0.0], atol=1e-15)
    assert np.allclose(element_position(lay, 4, 8), [0.21, -0.09, 0.0], atol=1e-15)
    assert np.allclose(element_position(lay, 1, 8), [0.21, 0.09, 0.0], atol=1e-15)


def test_element_position_single_unit_centered():
    assert np.allclose(element_position(ArrayLayout(1, 1), 1, 1), [0.0, 0.0, 0.0])


def test_element_position_bounds():
    lay = ArrayLayout(2, 2)
    for row, col in [(0, 1), (1, 0), (3, 1), (1, 3)]:
        with pytest.raises(ValueError):
            element_position(lay, row, col)


@given(st.integers(1, 5), st.integers(1, 5),
       st.floats(0.01, 0.2), st.floats(0.01, 0.2))
def test_element_grid_matches_scalar_and_is_centered(n_rows, n_cols, px, py):
    lay = ArrayLayout(n_rows, n_cols, px, py)
    grid = element_grid(lay)
    assert grid.shape == (lay.n_units, 3)
    # row-major: n = (row-1)*n_cols + col
    for row in range(1, n_rows + 1):
        for col in range(1, n_cols + 1):
            n = (row - 1) * n_cols + (col - 1)
            assert np.array_equal(grid[n], element_position(lay, row, col))
    assert np.allclose(grid.sum(axis=0), 0.0, atol=1e-12)


def test_distance_example():
    assert distance([0.0, 0.0, 0.6], [-0.21, 0.09, 0.0]) == 0.6420280367709809


point = st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))


@given(point, point)
def test_distance_symmetry(a, b):
    assert distance(a, b) == distance(b, a)
    assert distance(a, b) >= 0.0


def test_departure_zenith_values():
    assert departure_zenith([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]) == 0.0
    assert departure_zenith([0.0, 0.5, 0.5], [0.0, 0.0, 0.0]) == pytest.approx(
        math.pi / 4, abs=1e-12)
    # in-plane point sits at grazing
    assert departure_zenith([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == pytest.approx(
        math.pi / 2, abs=1e-12)


def test_departure_zenith_coincident():
    with pytest.raises(ValueError):
        departure_zenith([0.1, 0.2, 0.0], [0.1, 0.2, 0.0])


@settings(max_examples=200)
@given(point, point)
def test_departure_zenith_folded(p, el):
    el = (el[0], el[1], 0.0)
    if distance(p, el) == 0.0:
        return
    z = departure_zenith(p, el)
    assert 0.0 <= z <= math.pi / 2
    # mirroring the point through the plane leaves the fold unchanged
    mirrored = (p[0], p[1], -p[2])
    assert departure_zenith(mirrored, el) == z


def test_ranges_and_cosines_match_scalars():
    lay = ArrayLayout(3, 4, 0.05, 0.07)
    p = [0.3, -0.2, 1.1]
    r, cos = ranges_and_cosines(p, lay)
    for n in range(lay.n_units):
        row, col = divmod(n, lay.n_cols)
        el = element_position(lay, row + 1, col + 1)
        assert r[n] == distance(p, el)
        assert np.arccos(cos[n]) == departure_zenith(p, el)


def test_ranges_and_cosines_coincident():
    with pytest.raises(ValueError, match="coincides"):
        ranges_and_cosines([0.0, 0.0, 0.0], ArrayLayout(1, 1))
    points = [[0.0, 0.0, 1.0], [0.03, -0.03, 0.0]]  # the second sits on a cell of a 2x2 grid
    with pytest.raises(ValueError, match="coincides"):
        ranges_and_cosines(points, ArrayLayout(2, 2))


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_ranges_and_cosines_match_the_norm_bit_for_bit(side):
    rng = np.random.default_rng(11)
    batch = rng.uniform(-2.0, 2.0, (9, 3))
    batch[:, 2] = side * rng.uniform(0.05, 3.0, 9)
    for lay in (ArrayLayout(5, 7, 0.05, 0.07), ArrayLayout(1, 6, 0.05, 0.07),
                ArrayLayout(6, 1, 0.05, 0.07), ArrayLayout(4, 4, 0.07, 0.05)):
        for point in (np.array([0.3, -0.2, side * 1.1]), batch):
            got = ranges_and_cosines(point, lay)
            want = reference_ranges_and_cosines(point[..., None, :], element_grid(lay))
            for g, w in zip(got, want):
                assert g.shape == w.shape and np.array_equal(g, w)


def test_the_reference_norm_sums_x_and_y_then_z_off_the_plane_too():
    """The order the layout form relies on, over random elements off z = 0, which
    only the generic oracle takes: r = sqrt((dx^2 + dy^2) + dz^2) bit for bit."""
    rng = np.random.default_rng(11)
    elements = rng.normal(size=(20, 3))
    for point in (np.array([0.3, -0.2, 1.1]), rng.uniform(-2.0, 2.0, (9, 1, 3))):
        r, cos = reference_ranges_and_cosines(point, elements)
        dx, dy, dz = (point[..., i] - elements[:, i] for i in range(3))
        assert np.array_equal(r, np.sqrt((dx * dx + dy * dy) + dz * dz))
        assert np.array_equal(cos, np.minimum(np.abs(dz) / r, 1.0))


def test_cartesian_points_match_the_poses_bit_for_bit():
    rng = np.random.default_rng(12)
    r = rng.uniform(0.1, 50.0, 200)
    theta = rng.uniform(0.0, math.pi, 200)
    phi = rng.uniform(0.0, 2.0 * math.pi, 200)
    want = np.array([spherical_to_cartesian(SphericalPose(*p))
                     for p in zip(r.tolist(), theta.tolist(), phi.tolist())])
    assert np.array_equal(cartesian_points(r, theta, phi), want)
    # one direction, many ranges: the distance-sweep case
    want = np.array([spherical_to_cartesian(SphericalPose(x, theta[0], phi[0])) for x in r.tolist()])
    assert np.array_equal(cartesian_points(r, theta[0], phi[0]), want)

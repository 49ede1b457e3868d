"""Antenna pattern and per-element channel coefficients."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import channel_coefficient, element_grid, pose_channel_coefficient
from rislink.channel import SPEED_OF_LIGHT, AntennaModel
from rislink.experiments import chamber_scenario
from rislink.geometry import ArrayLayout, SphericalPose

# Scenario.wavelength is the one wavelength: c / f at the chamber's 2.6 GHz carrier
WL = chamber_scenario(frequency_hz=2.6e9).wavelength


def test_wavelength_value():
    assert WL == 0.11530479153846154
    assert SPEED_OF_LIGHT == 299792458.0


def test_wavelength_validation():
    with pytest.raises(ValueError, match="frequency must be positive"):
        chamber_scenario(frequency_hz=0.0)


def test_antenna_boresight_and_grazing():
    ant = AntennaModel(31.622776601683793, 1.0)
    assert ant.gain_from_cosine(1.0) == 31.622776601683793
    assert ant.gain_from_cosine(0.0) == 0.0


def test_antenna_isotropic_over_hemisphere():
    ant = AntennaModel(2.0, 0.0)
    for z in (0.0, 0.3, 1.0, math.pi / 2):
        assert ant.gain_from_cosine(math.cos(z)) == 2.0
    assert ant.gain_from_cosine(0.0) == 2.0  # 0 ** 0 is 1: the plane itself


def test_antenna_cos_profile():
    ant = AntennaModel(4.0, 2.0)
    assert ant.gain_from_cosine(math.cos(math.pi / 3)) == pytest.approx(1.0, rel=1e-12)


def test_antenna_vectorized():
    ant = AntennaModel(1.0, 1.0)
    c = np.array([1.0, 0.5, 0.0])
    assert np.array_equal(ant.gain_from_cosine(c), [1.0, 0.5, 0.0])


def test_antenna_validation():
    with pytest.raises(ValueError):
        AntennaModel(0.0)
    with pytest.raises(ValueError):
        AntennaModel(1.0, -1.0)


@settings(max_examples=100)
@given(st.floats(0.1, 100.0), st.floats(0.0, 4.0),
       st.floats(0.0, math.pi / 2 - 1e-6), st.floats(1e-6, math.pi / 2))
def test_antenna_monotone_toward_grazing(g0, q, z, dz):
    ant = AntennaModel(g0, q)
    toward_grazing = math.cos(min(z + dz, math.pi / 2))
    assert ant.gain_from_cosine(toward_grazing) <= ant.gain_from_cosine(math.cos(z)) + 1e-15


def test_channel_coefficient_boresight_example():
    # 1x1 cell at the origin, feed 0.6 m above it, unit-gain hemispherical antenna
    f = channel_coefficient([0.0, 0.0, 0.6], AntennaModel(), 0.0036,
                            [0.0, 0.0, 0.0], WL)
    assert abs(f) == pytest.approx(0.028209479177387815, rel=1e-14)
    assert cmath.phase(f) % (2 * math.pi) == pytest.approx(5.003929500631287, rel=1e-12)


def test_channel_coefficient_inverse_range():
    ant = AntennaModel(10.0, 1.0)
    f1 = channel_coefficient([0.0, 0.3, 0.4], ant, 0.0036, [0.0, 0.0, 0.0], WL)
    f2 = channel_coefficient([0.0, 0.6, 0.8], ant, 0.0036, [0.0, 0.0, 0.0], WL)
    assert abs(f2) == pytest.approx(abs(f1) / 2.0, rel=1e-12)


def test_channel_coefficient_coincident():
    with pytest.raises(ValueError):
        channel_coefficient([0.0, 0.0, 0.0], AntennaModel(), 0.0036,
                            [0.0, 0.0, 0.0], 0.1)


def test_channel_coefficient_grazing_is_null():
    # cos(pi/2) is ~6e-17 in floats, so "zero" here means far below boresight
    f = channel_coefficient([1.0, 0.0, 0.0], AntennaModel(), 0.0036,
                            [0.0, 0.0, 0.0], 0.1)
    assert abs(f) < 1e-9


def test_pose_channel_coefficient_matches_cartesian():
    lay = ArrayLayout(4, 8)
    pose = SphericalPose(0.6, 0.2, 1.0)
    got = pose_channel_coefficient(pose, AntennaModel(), lay, 2, 5, WL)
    point = [0.6 * math.sin(0.2) * math.cos(1.0), 0.6 * math.sin(0.2) * math.sin(1.0),
             0.6 * math.cos(0.2)]
    want = channel_coefficient(point, AntennaModel(), lay.element_area,
                               element_grid(lay)[1 * 8 + 4], WL)
    assert got == pytest.approx(want, rel=1e-12)

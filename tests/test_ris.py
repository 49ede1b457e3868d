"""Codebook, amplifier, jitter, the per-unit oracles in helpers, and control words."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import UnitState, decode_control, unit_rcs, unit_transmission_coefficient
from rislink.ris import (
    AmplifierModel,
    ControlWord,
    PhaseCodebook,
    PhaseJitterModel,
    SupplyBudgetError,
    encode_control,
)
from rislink.link import from_db


def test_codebook_default_two_bit():
    cb = PhaseCodebook()
    assert cb.size == 4
    assert np.allclose(cb.phases(), [0.0, math.pi / 2, math.pi, 3 * math.pi / 2],
                       atol=1e-15)


def test_codebook_with_offset():
    cb = PhaseCodebook(2, math.pi / 6)
    assert np.allclose(
        cb.phases(),
        [0.5235987755982988, 2.0943951023931953, 3.665191429188092, 5.235987755982989],
        atol=1e-14)


@given(st.integers(1, 6))
def test_codebook_size_and_range(bits):
    cb = PhaseCodebook(bits)
    ph = cb.phases()
    assert len(ph) == 2 ** bits
    assert np.all(ph >= 0.0) and np.all(ph < 2 * math.pi)
    assert np.allclose(np.diff(ph), math.pi / 2 ** (bits - 1))


def test_codebook_validation():
    with pytest.raises(ValueError):
        PhaseCodebook(0)
    with pytest.raises(ValueError):
        PhaseCodebook(2, math.pi / 2)  # offset would push the top entry past 2*pi
    with pytest.raises(ValueError):
        PhaseCodebook(2, -0.1)


def test_unit_state_validation():
    with pytest.raises(ValueError):
        UnitState(-1, 0.01)
    with pytest.raises(ValueError):
        UnitState(0, -0.01)


def test_amplifier_default_anchors():
    amp = AmplifierModel()
    assert amp.gain_db(0.01 / 32) == 0.0
    assert amp.gain_db(1.4 / 32) == 11.9
    assert amp.top_current == 1.4 / 32


def test_amplifier_interpolates_in_db():
    amp = AmplifierModel(((0.01, 0.0), (0.03, 10.0)))
    assert amp.gain_db(0.02) == pytest.approx(5.0, rel=1e-12)
    assert from_db(amp.gain_db(0.02)) == pytest.approx(10 ** 0.5, rel=1e-12)


def test_amplifier_clamps_outside_anchors():
    amp = AmplifierModel()
    assert amp.gain_db(0.0) == 0.0
    assert amp.gain_db(0.1) == 11.9  # above the top anchor, below the budget


def test_amplifier_budget():
    amp = AmplifierModel()
    with pytest.raises(SupplyBudgetError):
        amp.gain_db(0.121)
    for current in (-1e-6, math.nan, np.array([0.01, math.nan])):  # NaN as a negative one
        with pytest.raises(ValueError, match="^control current must be >= 0$"):
            amp.gain_db(current)
    # SupplyBudgetError is a ValueError so callers may catch broadly
    assert issubclass(SupplyBudgetError, ValueError)


def test_amplifier_sixteen_db_point():
    amp = AmplifierModel(((0.0, 16.0),))
    assert math.sqrt(from_db(amp.gain_db(0.05))) == pytest.approx(6.309573444801933, rel=1e-14)


def test_amplifier_passive():
    amp = AmplifierModel.passive()
    assert from_db(amp.gain_db(0.0)) == 1.0
    assert from_db(amp.gain_db(0.12)) == 1.0


def test_amplifier_validation():
    with pytest.raises(ValueError):
        AmplifierModel(())
    with pytest.raises(ValueError):
        AmplifierModel(((0.02, 0.0), (0.01, 5.0)))
    with pytest.raises(ValueError):
        AmplifierModel(((0.01, 5.0), (0.02, 4.0)))
    with pytest.raises(ValueError):
        AmplifierModel(((0.01, 0.0), (0.2, 10.0)))  # anchor above the budget


@settings(max_examples=100)
@given(st.floats(0.0, 0.12), st.floats(0.0, 0.12))
def test_amplifier_monotone(c1, c2):
    amp = AmplifierModel()
    lo, hi = sorted((c1, c2))
    assert amp.gain_db(lo) <= amp.gain_db(hi) + 1e-15


def test_jitter_bounds_and_determinism():
    jit = PhaseJitterModel(math.radians(8.0), seed=7)
    a = jit.sample(1000)
    b = jit.sample(1000)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= math.radians(8.0))
    assert not np.array_equal(a, PhaseJitterModel(math.radians(8.0), seed=8).sample(1000))


def test_jitter_validation():
    with pytest.raises(ValueError):
        PhaseJitterModel(-0.1)


def test_unit_transmission_coefficient_phase_and_magnitude():
    cb = PhaseCodebook()
    amp = AmplifierModel()
    gamma = unit_transmission_coefficient(UnitState(1, 1.4 / 32), cb, amp)
    assert abs(gamma) == pytest.approx(math.sqrt(10 ** 1.19), rel=1e-14)
    assert cmath.phase(gamma) == pytest.approx(math.pi / 2, abs=1e-12)


def test_unit_transmission_coefficient_index_check():
    with pytest.raises(ValueError):
        unit_transmission_coefficient(UnitState(4, 0.01), PhaseCodebook(), AmplifierModel())


def test_unit_transmission_coefficient_jitter():
    cb = PhaseCodebook()
    amp = AmplifierModel()
    jit = PhaseJitterModel(math.radians(8.0), seed=3)
    gamma = unit_transmission_coefficient(UnitState(0, 1.4 / 32), cb, amp, jit,
                                          np.random.default_rng(3))
    assert abs(cmath.phase(gamma)) <= math.radians(8.0) + 1e-12
    assert abs(gamma) == pytest.approx(math.sqrt(10 ** 1.19), rel=1e-14)


def test_unit_transmission_coefficient_jitter_needs_an_rng():
    # without an rng every unit would get the jitter seed's first draw
    jit = PhaseJitterModel(math.radians(8.0), seed=3)
    with pytest.raises(ValueError, match="needs an rng"):
        unit_transmission_coefficient(UnitState(0, 1.4 / 32), PhaseCodebook(),
                                      AmplifierModel(), jit)


def test_unit_rcs_value():
    sigma = unit_rcs(UnitState(0, 1.4 / 32), AmplifierModel(), 0.0, 0.0, 0.0036)
    assert sigma == pytest.approx(0.014167802716407989, rel=1e-14)


def test_unit_rcs_scales_with_area():
    st0 = UnitState(0, 1.4 / 32)
    amp = AmplifierModel()
    s1 = unit_rcs(st0, amp, 0.3, 0.4, 0.0036)
    assert unit_rcs(st0, amp, 0.3, 0.4, 0.0072) == pytest.approx(2 * s1, rel=1e-14)


def test_unit_rcs_grazing():
    sigma = unit_rcs(UnitState(0, 0.01), AmplifierModel(), math.pi / 2, 0.0, 0.0036)
    assert sigma == pytest.approx(0.0, abs=1e-10)


def test_control_word_table():
    assert str(encode_control(0)) == "011"
    assert str(encode_control(1)) == "001"
    assert str(encode_control(2)) == "000"
    assert str(encode_control(3)) == "010"
    # vcc1 is low in every valid state
    assert all(encode_control(k).vcc1 == 0 for k in range(4))


def test_control_word_round_trip():
    for k in range(4):
        assert decode_control(encode_control(k)) == k
        assert decode_control(str(encode_control(k))) == k


def test_control_word_rejects_invalid():
    for word in ("100", "101", "110", "111"):
        with pytest.raises(ValueError, match="selects no phase state"):
            decode_control(word)
        with pytest.raises(ValueError, match="selects no phase state"):
            decode_control(ControlWord(*map(int, word)))


def test_control_word_parsing():
    assert str(ControlWord(0, 1, 0)) == "010"
    assert decode_control("010") == decode_control(ControlWord(0, 1, 0)) == 3
    for bad in ("01", "0100", "abc", "012"):
        with pytest.raises(ValueError, match="three bits"):
            decode_control(bad)


def test_encode_control_bounds():
    for bad in (-1, 4, 7):
        with pytest.raises(ValueError):
            encode_control(bad)

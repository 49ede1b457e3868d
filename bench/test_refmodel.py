"""Closed-form checks of the reference model (run: python3 -m pytest bench/test_refmodel.py)."""

import math

import numpy as np
import pytest

import refmodel as M


def test_single_element_matches_the_radar_equation():
    # one cell at the origin: P = P_t G_t G_r G_u A^2 cos(t) cos(r) / (16 pi^2 r_t^2 r_r^2)
    link = M.Link(n_rows=1, n_cols=1, tx_distance_m=0.7, tx_zenith_deg=20.0, tx_azimuth_deg=30.0,
                  rx_distance_m=3.0, rx_zenith_deg=-35.0, tx_gain_dbi=12.0, tx_exponent=2.0,
                  rx_gain_dbi=9.0, rx_exponent=1.0, tx_power_w=0.5, pitch_x_m=0.05, pitch_y_m=0.07)
    ct, cr = math.cos(math.radians(20.0)), math.cos(math.radians(35.0))
    g_t = 10 ** 1.2 * ct ** 2
    g_r = 10 ** 0.9 * cr
    g_u = 10 ** 1.19
    area = 0.05 * 0.07
    want = 0.5 * g_t * g_r * g_u * area ** 2 * ct * cr / (16 * math.pi ** 2 * 0.7 ** 2 * 3.0 ** 2)
    w = M.weights(link, M.rx_point(link))
    for phase in (0.0, 1.0, 4.0):
        assert M.power(link, w, [phase]) == pytest.approx(want, rel=1e-13)
    assert M.bound(link, w) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("shape", [(1, 2), (4, 8), (16, 16)])
def test_aligned_phases_give_n_squared_gain_in_the_far_field(shape):
    far = dict(tx_distance_m=1e5, rx_distance_m=2e5)
    one = M.Link(n_rows=1, n_cols=1, **far)
    many = M.Link(n_rows=shape[0], n_cols=shape[1], **far)
    n = many.n_units
    p1 = M.power(one, M.weights(one, M.rx_point(one)), [0.0])
    w = M.weights(many, M.rx_point(many))
    p_aligned = M.power(many, w, M.aligned_phases(many, M.rx_point(many)))
    assert p_aligned == pytest.approx(M.bound(many, w), rel=1e-12)
    assert p_aligned / p1 == pytest.approx(n ** 2, rel=1e-6)
    # a uniform configuration adds the same far-field terms with random phases: far below N^2
    p_uniform = M.power(many, w, np.zeros(n))
    assert p_uniform <= p_aligned * (1 + 1e-12)


def test_power_and_path_loss_sum_to_transmit_power_in_dbm():
    link = M.Link(tx_power_w=0.25)
    w = M.weights(link, M.rx_point(link))
    p = M.power(link, w, np.zeros(link.n_units))
    assert M.dbm(p) + M.path_loss_db(link, p) == pytest.approx(10 * math.log10(250.0), abs=1e-12)


def test_amplifier_swing_between_the_default_anchors_is_the_paper_gain():
    link = M.Link()
    assert M.amplifier_gain_db(link, 1.4 / 32) - M.amplifier_gain_db(link, 0.01 / 32) == \
        pytest.approx(11.9, abs=1e-12)
    assert M.amplifier_gain_db(link, 1.0) == pytest.approx(11.9)  # clamped above the top anchor


def test_quantize_picks_the_circularly_nearest_entry_and_breaks_ties_low():
    link = M.Link(codebook_bits=2)
    q = math.pi / 2
    phases = np.array([0.1, q - 0.1, 2 * math.pi - 0.1, q / 2, 3 * q + q / 2 + 1e-3, 3 * q + q / 2])
    assert M.quantize(link, phases).tolist() == [0, 1, 0, 0, 0, 0]
    offset = M.Link(codebook_bits=2, codebook_offset_deg=30.0)
    assert M.quantize(offset, [math.radians(30.0), math.radians(125.0)]).tolist() == [0, 1]


def test_cell_grid_is_centred_row_major_with_row_one_on_top():
    link = M.Link(n_rows=2, n_cols=3, pitch_x_m=0.1, pitch_y_m=0.2)
    cells = M.cell_centres(link)
    assert np.allclose(cells.sum(axis=0), 0.0)
    assert cells[0].tolist() == pytest.approx([-0.1, 0.1, 0.0])
    assert cells[5].tolist() == pytest.approx([0.1, -0.1, 0.0])


def test_jitter_realization_is_pinned_by_its_seed():
    link = M.Link(phase_jitter_max_deg=8.0, phase_jitter_seed=3)
    a, b = M.jitter(link), M.jitter(link)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= math.radians(8.0))
    assert len(set(a.tolist())) == link.n_units
    assert not M.jitter(M.Link()).any()

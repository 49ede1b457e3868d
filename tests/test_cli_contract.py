"""The command-line contract, fuzzed: `rislink run` over config text built from the
scenario and sweep key vocabulary either succeeds or fails with one `error:` line."""

import contextlib
import csv
import inspect
import io
import math
import os
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

import rislink as rl
from rislink.cli import main
from rislink.config import _AMPLIFIER_KEYS
from rislink.experiments import BEAMFORMING_METHODS

_SCENARIO_KEYS = inspect.signature(rl.chamber_scenario).parameters
# values no key should take quietly: zero, negative, tiny, huge, infinite, NaN, unparsable
_EDGES = ("0", "-1", "1e-300", "1e154", "1e200", "1e308", "inf", "-inf", "nan", "90", "x")
# sane text per key; a key left out takes the chamber default.  Sizes stay at most 8x8,
# so no draw builds a large surface.
_SANE = {
    "frequency_hz": ("2.6e9", "1e9", "28e9"),
    "tx_distance_m": ("0.6", "0.3", "2.5"),
    "rx_distance_m": ("4", "0.5", "12"),
    "n_rows": ("1", "2", "4", "8"),
    "n_cols": ("1", "3", "8"),
    "pitch_x_m": ("0.06", "0.02", "0.3"),
    "pitch_y_m": ("0.06", "0.1"),
    "tx_gain_dbi": ("15", "0", "-3"),
    "rx_gain_dbi": ("15", "8"),
    "tx_exponent": ("0", "1", "2"),
    "rx_exponent": ("0", "1.5"),
    "tx_power_w": ("1", "0.01", "20"),
    "noise_variance_w": ("0", "1e-9", "1e-4"),
    "codebook_bits": ("1", "2", "3"),
    "codebook_offset_deg": ("0", "30"),
    "phase_jitter_max_deg": ("0", "8", "40"),
    "phase_jitter_seed": ("0", "7"),
    "calibration": ("0.0003125:0, 0.04375:11.9", "0:0", "0.01:3", "0:-4000", "0:4000",
                    "0.1:0, 0.05:1", "0.2:1", "0:nan"),
    "max_current_a": ("0.12", "0.05"),
}
_ANGLES = ("tx_zenith_deg", "tx_azimuth_deg", "rx_zenith_deg", "rx_azimuth_deg")
_SANE.update({key: ("0", "20", "-35", "60", "-1e-14") for key in _ANGLES})  # np.mod(-1e-14) is 2 pi
_INTEGER_EDGES = ("0", "-1", "9", "2.5")  # sizes, bits and seeds: no huge surface either
_SWEEP_VALUES = {
    "start": ("0", "0.5", "-30", "10", "-89.9", "1e200", "-1e200", "nan", "inf"),
    "stop": ("0", "5", "40", "85", "1e200", "nan", "-inf"),
    "step": ("0.5", "5", "10", "0", "-1", "1e-9", "1e199", "nan"),
    "steering_deg": ("0", "30", "-45", "90", "nan"),
    "currents_a": ("0.01, 1.4", "0.5", "0", "-1", "nan", "0.01, x", "0.01, 99"),
}


def _values(key: str) -> tuple[str, ...]:
    """Text `key` may take: a sweep key's list, or a scenario key's sane values and edges."""
    if key in _SWEEP_VALUES:
        return _SWEEP_VALUES[key]
    integer = isinstance(_SCENARIO_KEYS[key].default, int)
    return _SANE[key] + (_INTEGER_EDGES if integer else _EDGES)


@st.composite
def config_text(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_SANE)), unique=True, max_size=4))
    lines = []
    for section in ("scenario", "amplifier"):
        lines.append(f"[{section}]")
        lines += [f"{key} = {draw(st.sampled_from(_values(key)))}" for key in keys
                  if (key in _AMPLIFIER_KEYS) == (section == "amplifier")]
    for i in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("distance", "angle", "gain", "pattern", "warp")))
        method = draw(st.sampled_from(BEAMFORMING_METHODS + ("magic",)))
        lines += [f"[sweep s{i}]", f"type = {kind}", f"method = {method}"]
        for key in draw(st.lists(st.sampled_from(sorted(_SWEEP_VALUES)), unique=True,
                                 max_size=3)):
            lines.append(f"{key} = {draw(st.sampled_from(_values(key)))}")
    return "\n".join(lines) + "\n"


def _run(text: str) -> tuple[int, str, list[dict] | None]:
    """Exit code, stderr and the CSV rows written (None: no output directory) of
    `rislink run` over `text`, with every warning an error."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "fuzz.cfg"), os.path.join(tmp, "out")
        with open(cfg, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = main(["run", cfg, "--out", out])
        if not os.path.isdir(out):
            return code, err.getvalue(), None
        rows = []
        for name in sorted(os.listdir(out)):
            if name.endswith(".csv"):
                with open(os.path.join(out, name), newline="") as fh:
                    rows += list(csv.DictReader(fh))
        return code, err.getvalue(), rows


def test_the_fuzz_draws_every_scenario_key():
    assert set(_SANE) == set(_SCENARIO_KEYS)


# one config of each class that once ran on into NaN rows, warnings or a traceback: a
# range whose square overflows a float (a key, a pitch or a distance grid's stop), a
# two-hop phase past a float, a dark surface's all-null cut, an amplifier gain past a
# float in linear scale, a path-loss ratio past a float, and a received power in mW that
# underflows a float while the path loss stays finite; and a sweep name no file can take,
# once refused only when its CSV was written, after the sweeps before it
@example("[scenario]\ntx_distance_m = 1e200\n[sweep s0]\ntype = distance\n")
@example("[scenario]\npitch_x_m = 1e200\n[sweep s0]\ntype = angle\n")
@example("[sweep s0]\ntype = distance\nstart = 0.5\nstop = 1e200\nstep = 1e199\n")
@example("[scenario]\nfrequency_hz = 1e308\ntx_distance_m = 1e10\n[sweep s0]\ntype = distance\n")
@example("[amplifier]\ncalibration = 0:-4000\n[sweep s0]\ntype = pattern\n")
@example("[amplifier]\ncalibration = 0:4000\n[sweep s0]\ntype = gain\ncurrents_a = 0.01\n")
@example("[scenario]\ntx_distance_m = 1e154\n[sweep s0]\ntype = distance\nmethod = none\n")
@example("[scenario]\ntx_distance_m = 1e154\ntx_power_w = 1e-30\n[sweep s0]\ntype = distance\n"
         "method = none\n")
@example("[sweep a]\ntype = distance\n[sweep b\0c]\ntype = distance\n")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(config_text())
def test_a_run_succeeds_or_fails_with_one_error_line(text):
    code, err, rows = _run(text)
    if code == 0:
        assert err == "" and rows is not None
        for row in rows:  # an exact null reads -inf dBm and inf dB, and only it; never NaN
            dbm, db = float(row["received_power_dBm"]), float(row["path_loss_dB"])
            assert not (math.isnan(dbm) or math.isnan(db)), (text, row)
            assert math.isinf(dbm) == math.isinf(db), (text, row)
    else:
        assert code == 2, text
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err and rows is None, text

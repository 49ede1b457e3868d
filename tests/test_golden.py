"""Golden outputs: `rislink run --seed 0` over every shipped config reproduces the
recorded CSVs and summary.json, and `rislink beamform` its recorded stdout and
search trace byte for byte.

The fixtures under tests/data/golden/<config>/ were written by the commit
before the cosine-native kernel and the batched pose sweep.  They are compared
by `scripts/diff_outputs.py`'s rule: the same files and CSV headers, exact row
counts, sweep-grid values and config digests, and every dB column and every
summary.json number within 1e-12 relative, with NaN matching NaN.  A dB value
near 0 gets an absolute floor of 1e-12 dB, which is a ~2e-13 relative change
in the linear power behind it.

The `beamform` stdout under tests/data/golden_beamform/beamform_*/ (from
tests/data/beamform_*.cfg) and chamber/continuous.json were written by the
commit before `beamform` printed its grids from byte tables; they cover
1-, 3- and 4-bit codebooks and one-row and one-column surfaces.
"""

import glob
import importlib.util
import os

import pytest

from rislink.cli import main

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "data", "golden")
GOLDEN_BEAMFORM = os.path.join(HERE, "data", "golden_beamform")
CONFIGS = sorted(glob.glob(os.path.join(HERE, "..", "configs", "*.cfg"))) + [
    os.path.join(HERE, "data", "golden_16x16.cfg")
]
_spec = importlib.util.spec_from_file_location(
    "diff_outputs", os.path.join(HERE, "..", "scripts", "diff_outputs.py"))
diff_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_outputs)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda p: os.path.basename(p))
def test_run_reproduces_golden_outputs(cfg, tmp_path):
    name = os.path.splitext(os.path.basename(cfg))[0]
    assert main(["run", cfg, "--out", str(tmp_path), "--seed", "0"]) == 0
    assert diff_outputs.compare(tmp_path, os.path.join(GOLDEN, name)).problems == []


@pytest.mark.parametrize("run, argv", [
    ("blind_passes4", ["--method", "blind", "--passes", "4"]),
    ("greedy_rounds1", ["--method", "greedy", "--rounds", "1"]),
    ("greedy_rounds3", ["--method", "greedy", "--rounds", "3"]),
])
@pytest.mark.parametrize("config", [None, os.path.join(HERE, "data", "golden_16x16.cfg")],
                         ids=["chamber", "golden_16x16"])
def test_beamform_reproduces_golden_outputs(config, run, argv, tmp_path, capsys):
    want_dir = os.path.join(GOLDEN_BEAMFORM, "chamber" if config is None else "golden_16x16")
    trace = tmp_path / "trace.csv"
    where = [] if config is None else ["--config", config]
    assert main(["beamform", *where, "--seed", "0", *argv, "--trace", str(trace)]) == 0
    with open(os.path.join(want_dir, f"{run}.json")) as fh:
        assert capsys.readouterr().out == fh.read()
    with open(os.path.join(want_dir, f"{run}.csv")) as fh:
        assert trace.read_text() == fh.read()


RENDER_CONFIGS = ["beamform_5x7_1bit", "beamform_5x7_3bit", "beamform_5x7_4bit",
                  "beamform_1x9", "beamform_9x1"]


@pytest.mark.parametrize("run, argv", [
    ("quantized", ["--method", "quantized"]),
    ("greedy_rounds1", ["--method", "greedy", "--rounds", "1"]),
])
@pytest.mark.parametrize("config", RENDER_CONFIGS)
def test_beamform_prints_every_grid_shape_and_codebook_as_recorded(config, run, argv, capsys):
    """1-, 3- and 4-bit index grids (no control words; two-digit indices at 4 bits)
    and one-row and one-column grids, against stdout recorded before the grid printer."""
    cfg = os.path.join(HERE, "data", f"{config}.cfg")
    assert main(["beamform", "--config", cfg, "--seed", "0", *argv]) == 0
    with open(os.path.join(GOLDEN_BEAMFORM, config, f"{run}.json")) as fh:
        assert capsys.readouterr().out == fh.read()


def test_beamform_continuous_prints_its_phases_as_recorded(capsys):
    assert main(["beamform", "--seed", "0", "--method", "continuous"]) == 0
    with open(os.path.join(GOLDEN_BEAMFORM, "chamber", "continuous.json")) as fh:
        assert capsys.readouterr().out == fh.read()

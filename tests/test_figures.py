"""The committed figure data under out/ still follows from the library.

Each CSV written by scripts/sweep_figure.py, optimal_alpha_figure.py and
comparison_figure.py is recomputed here from the same inputs, and the CSVs
of gap_table.py and profile_figure.py come from running those scripts;
all are compared cell by cell within 1e-12, not byte for byte: the last
bits of a sum can differ between machines and BLAS builds. The SVGs, whose
coordinates are rounded, are re-rendered by the scripts and compared byte
for byte.
"""

import csv
import runpy
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from chainfair import ThroughputTrace, compare_normalized, fit_alpha, optimal_alpha_curve, sweep_J

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "out"
TOL = 1e-12
SCRIPTS = ["sweep_figure", "optimal_alpha_figure", "comparison_figure", "gap_table", "profile_figure"]
SVGS = ["sweep_n3", "sweep_n10", "sweep_n50", "optimal_alpha", "profile_n100", "comparison_three_pairs"]


@pytest.fixture(scope="module")
def rerun(tmp_path_factory):
    """The out/ directory that the five scripts write when run from a copy of scripts/."""
    root = tmp_path_factory.mktemp("figures")
    (root / "scripts").mkdir()
    path = list(sys.path)
    try:
        for name in SCRIPTS:
            script = root / "scripts" / f"{name}.py"
            shutil.copy(ROOT / "scripts" / f"{name}.py", script)
            runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.path[:] = path
    return root / "out"


def committed(name, out=OUT):
    with open(out / name, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, np.array([[float(v) for v in row] for row in rows])


def assert_cells_close(recomputed, expected):
    recomputed = np.array(recomputed, dtype=float)
    assert recomputed.shape == expected.shape
    np.testing.assert_allclose(recomputed, expected, rtol=0.0, atol=TOL)


@pytest.mark.parametrize("n", [3, 10, 50])
def test_sweep(n):
    header, expected = committed(f"sweep_n{n}.csv")
    assert header == ["alpha", "J"]
    grid = [0.01 + 0.01 * k for k in range(98)]
    assert_cells_close(sweep_J(n, grid), expected)


def test_optimal_alpha():
    header, expected = committed("optimal_alpha.csv")
    assert header == ["n", "alpha_hat"]
    ns = [int(n) for n in expected[:, 0]]
    assert ns == [3, 5, 7, 10, 15, 20, 30, 50, 75, 100, 150, 200, 350, 500]
    assert_cells_close(optimal_alpha_curve(ns), expected)


def test_comparison_three_pairs():
    header, expected = committed("comparison_three_pairs.csv")
    assert header == ["pair", "observed", "model", "residual"]
    trace = ThroughputTrace(rates=[1.55, 0.04, 1.55], label="three external pairs")
    assert_cells_close(compare_normalized(trace, fit_alpha(trace).alpha_fit), expected)


@pytest.mark.parametrize("name", ["meanfield_gap.csv", "profile_n100.csv"])
def test_script_csv(rerun, name):
    header, expected = committed(name)
    rerun_header, recomputed = committed(name, out=rerun)
    assert rerun_header == header
    assert_cells_close(recomputed, expected)


@pytest.mark.parametrize("name", SVGS)
def test_svg_unchanged(rerun, name):
    assert (rerun / f"{name}.svg").read_bytes() == (OUT / f"{name}.svg").read_bytes()

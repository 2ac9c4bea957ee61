"""The committed figure data under out/ still follows from the library.

Each CSV written by scripts/sweep_figure.py, optimal_alpha_figure.py and
comparison_figure.py is recomputed here from the same inputs and compared
cell by cell within 1e-12, not byte for byte: the last bits of a sum can
differ between machines and BLAS builds.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from chainfair import ThroughputTrace, compare_normalized, fit_alpha, optimal_alpha_curve, sweep_J

OUT = Path(__file__).resolve().parent.parent / "out"
TOL = 1e-12


def committed(name):
    with open(OUT / name, newline="", encoding="utf-8") as fh:
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

"""The committed figure data under out/ still follows from the library.

scripts/figures.py is run from a copy of scripts/, and every file it writes
is compared with the committed one. CSVs are compared cell by cell within
1e-12, not byte for byte: the last bits of a sum can differ between
machines and BLAS builds. The SVGs, whose coordinates are rounded, are
compared byte for byte.
"""

import csv
import runpy
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "out"
TOL = 1e-12
CSVS = sorted(p.name for p in OUT.glob("*.csv"))
SVGS = sorted(p.stem for p in OUT.glob("*.svg"))


@pytest.fixture(scope="module")
def rerun(tmp_path_factory):
    """The out/ directory that scripts/figures.py writes when run from a copy of scripts/."""
    root = tmp_path_factory.mktemp("figures")
    (root / "scripts").mkdir()
    script = root / "scripts" / "figures.py"
    shutil.copy(ROOT / "scripts" / "figures.py", script)
    path = list(sys.path)
    try:
        runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.path[:] = path
    return root / "out"


def committed(name, out=OUT):
    with open(out / name, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, np.array([[float(v) for v in row] for row in rows])


def test_rerun_writes_exactly_the_committed_files(rerun):
    assert sorted(p.name for p in rerun.iterdir()) == sorted(p.name for p in OUT.iterdir())


@pytest.mark.parametrize("name", CSVS)
def test_script_csv(rerun, name):
    header, expected = committed(name)
    rerun_header, recomputed = committed(name, out=rerun)
    assert rerun_header == header
    assert recomputed.shape == expected.shape
    np.testing.assert_allclose(recomputed, expected, rtol=0.0, atol=TOL)


@pytest.mark.parametrize("name", SVGS)
def test_svg_unchanged(rerun, name):
    assert (rerun / f"{name}.svg").read_bytes() == (OUT / f"{name}.svg").read_bytes()

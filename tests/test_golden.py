"""Golden output tables: each CLI command must reproduce its stored CSV.

The files under ``tests/data/`` hold the tables these commands wrote when
the goldens were last regenerated.  Numbers are compared at rel 1e-8
(abs 1e-12), strings and flags exactly.  A change that moves a table on
purpose regenerates the file with the command below and states the drift.

Regenerate one table with, for example::

    quasikp bands --L 5 --a 0.5 --rstar 0.1 --theta-points 21 \
        --out tests/data/bands.csv
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import pytest

from quasikp.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "bands": ["bands", "--L", "5", "--a", "0.5", "--rstar", "0.1",
              "--theta-points", "21"],
    "bands_vs_a": ["bands-vs-a", "--L", "3.37", "--a", "-1", "-0.3", "0.4",
                   "1.2", "--n-bands", "3"],
    "scatlen": ["scatlen", "--a0", "1", "--one-bound-state", "--points", "40"],
    "meff": ["meff", "--L", "5", "--a", "0.6", "--rstar", "0.15",
             "--theta-points", "51"],
    "a1deff": ["a1deff", "--a", "1", "--L", "1", "1.5", "3", "--mode", "both",
               "--theta-points", "19"],
}


def _cells(path: Path) -> list[list[str]]:
    return [line.split(",") for line in
            path.read_text(encoding="utf-8").splitlines()]


def _same_cell(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(w):
        return math.isnan(g)
    return g == pytest.approx(w, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_table_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(GOLDEN[name] + ["--out", str(out)]) == 0
    got, want = _cells(out), _cells(DATA / f"{name}.csv")
    assert got[0] == want[0], "header"
    assert len(got) == len(want), "row count"
    for i, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(g_row) == len(w_row), f"row {i}"
        bad = [(j, g, w) for j, (g, w) in enumerate(zip(g_row, w_row))
               if not _same_cell(g, w)]
        assert not bad, f"row {i} of {name}.csv: (column, got, golden) {bad}"

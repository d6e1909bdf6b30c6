"""Golden CSVs: every experiment at tiny size against committed output.

The files under ``tests/golden/`` were written by the command-line runs in
``RUNS``.  Text and integer cells must match exactly; float cells to 1e-12
relative, so that a different BLAS build does not fail the check.  Two runs
pin diverged cells, whatever the low-order bits: in ``fig2-unsettled`` no tanh
seed settles at sqrt(V)=3, so those rows keep no ``emp_*`` value; in
``train-probe-diverged`` the identity map's forward solve at spectral radius
1.3-2.6 fails at once.  Every other cell settles or clips.  Each run must also write the same bytes at ``--threads 3``
as at one thread.
"""

import csv
import math
from pathlib import Path

import pytest

from deqlab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

RUNS = {
    "fig1": ["fig1", "--n", "60", "--seeds", "2", "--grid", "0.4:0.6:2"],
    "fig2": ["fig2", "--n", "60", "--seeds", "3", "--grid", "0.3:0.6:2"],
    "fig2-unsettled": ["fig2", "--n", "200", "--seeds", "4", "--phi", "tanh", "--families", "random,orthogonal",
                       "--grid", "1.5:3:2"],
    "fig3": ["fig3", "--n", "60", "--seeds", "2", "--grid", "0.2:0.4:2"],
    "fig4": ["fig4", "--n", "100", "--seeds", "3", "--grid", "0.3:1.2:3",
             "--families", "orthogonal", "--phi", "identity"],
    "moments": ["moments", "--n", "40", "--seeds", "2", "--grid", "0.5:0.9:2",
                "--estimator", "hutchinson"],
    "freeprob-check": ["freeprob-check", "--n", "60", "--seeds", "2"],
    "train-probe": ["train-probe", "--n", "8", "--seeds", "2", "--grid", "0.1:0.3:2",
                    "--steps", "3"],
    "train-probe-diverged": ["train-probe", "--n", "12", "--seeds", "3", "--grid", "0.3:1.3:3",
                             "--phi", "identity", "--steps", "0"],
}


def _read(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _same_cell(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        int(want)
        return False  # integer cells must match exactly
    except ValueError:
        pass
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_matches_golden_csv(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert cli.main([*RUNS[name], "--out", str(out)]) == 0
    got, want = _read(out), _read(GOLDEN / f"{name}.csv")
    assert got[0] == want[0]
    assert len(got) == len(want)
    for line, (got_row, want_row) in enumerate(zip(got, want), start=1):
        assert len(got_row) == len(want_row)
        for column, g, w in zip(want[0], got_row, want_row):
            assert _same_cell(g, w), f"line {line}, {column}: {g!r} != golden {w!r}"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_csv_independent_of_threads(name, tmp_path):
    outputs = []
    for threads in ("1", "3"):
        out = tmp_path / f"{name}-{threads}.csv"
        assert cli.main([*RUNS[name], "--threads", threads, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

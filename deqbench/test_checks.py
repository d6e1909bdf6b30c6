"""The benchmark's checks pass on deqlab's output and fail on corrupted output.

    PYTHONPATH=src python3 -m pytest -q deqbench/test_checks.py

Each workload's experiment runs in-process at a tiny size; every cell is
recomputed (``pick=None``).  Corrupting one statistic of a recomputed cell
must make the check report that cell.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from deqlab import cli  # noqa: E402

TINY = {
    "check_length_variance": ("fig1", "--n", "40", "--seeds", "2", "--grid", "0.1:0.6:2"),
    "check_radius_sweep": ("fig3", "--n", "60", "--seeds", "2", "--grid", "0.6:0.6:1"),
    "check_residual_probe": ("fig4", "--n", "300", "--seeds", "3", "--families", "random,orthogonal"),
    "check_train_probe": ("train-probe", "--n", "8", "--seeds", "2", "--grid", "0.05:0.45:3", "--steps", "10"),
}

# (check, row index, column, factor): a statistic each check recomputes or
# bounds; fig4 row 11 is the orthogonal cell at 0.8x, which settles, and
# row 10 the random cell at 1.3x, whose median must stay above 1e-3
CORRUPTIONS = [
    ("check_length_variance", 0, "emp_mean", 1.1),
    ("check_length_variance", -1, "emp_q75", 1.1),
    ("check_radius_sweep", 0, "emp_mean", 1.1),
    ("check_radius_sweep", 2, "emp_median", 0.9),
    ("check_residual_probe", 11, "emp_mean", 1.1),
    ("check_residual_probe", 11, "emp_q75", 1.1),
    ("check_residual_probe", 10, "emp_median", 1e-4),
    ("check_train_probe", 1, "emp_mean", 1.1),
]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = {}
    for name, args in TINY.items():
        path = tmp_path_factory.mktemp(name) / "out.csv"
        assert cli.main([*args, "--seed", "3", "--out", str(path)]) == 0
        config = json.loads(Path(f"{path}.manifest.json").read_text())["config"]
        out[name] = (checks.read_rows(path), config)
    return out


def _run(name, rows, config):
    return getattr(checks, name)(rows, config, None)


@pytest.mark.parametrize("name", sorted(TINY))
def test_check_passes_on_program_output(outputs, name):
    rows, config = outputs[name]
    assert _run(name, rows, config) == []


@pytest.mark.parametrize("name, index, column, factor", CORRUPTIONS)
def test_check_reports_corrupted_cell(outputs, name, index, column, factor):
    rows, config = outputs[name]
    bad = [dict(row) for row in rows]
    bad[index][column] = repr(float(bad[index][column]) * factor)
    problems = _run(name, bad, config)
    assert any(p.startswith(checks.cell_key(bad[index]) + ": ") for p in problems), problems


import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from deqlab import cli, linear_deq, numerics
from deqlab.cli import ConfigError, validate_config
from deqlab.experiments import CSV_COLUMNS, EXPERIMENTS, parse_grid


class TestParseGrid:
    def test_linear(self):
        assert parse_grid("0.1:0.5:5") == (0.1, 0.2, 0.30000000000000004, 0.4, 0.5)

    def test_log(self):
        grid = parse_grid("0.01:1:3:log")
        assert grid[0] == pytest.approx(0.01) and grid[1] == pytest.approx(0.1)

    def test_single_point(self):
        assert parse_grid("0.5:0.5:1") == (0.5,)

    def test_bad_forms(self):
        for bad in ("0.1:0.5", "0.5:0.1:3", "a:b:3", "0:1:3:exp", "-1:1:3:log", "0.1:0.9:1"):
            with pytest.raises(ValueError):
                parse_grid(bad)


class TestValidateConfig:
    def test_defaults_applied_and_recorded(self):
        config = validate_config(None, {"experiment": "fig2"})
        assert config.n == 1000 and config.seeds == 20
        assert any(d.startswith("n=") for d in config.defaulted)
        assert any(d.startswith("seeds=") for d in config.defaulted)

    def test_fig1_dimension_default(self):
        assert validate_config(None, {"experiment": "fig1"}).n == 2000

    def test_train_probe_dimension_default(self):
        assert validate_config(None, {"experiment": "train-probe"}).n == 64

    def test_unknown_key_line_numbered(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("experiment=fig2\nbogus=3\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            validate_config(str(path))
        assert any("line 2" in e and "bogus" in e for e in err.value.errors)

    def test_negative_seeds_rejected(self):
        with pytest.raises(ConfigError) as err:
            validate_config(None, {"experiment": "fig2", "seeds": "-3"})
        assert any("seeds" in e for e in err.value.errors)

    def test_errors_aggregate(self, tmp_path):
        path = tmp_path / "multi.cfg"
        path.write_text("experiment=fig2\nseeds=-1\nthreads=0\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            validate_config(str(path))
        assert len(err.value.errors) >= 2

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("experiment=fig2\nn=64\n# comment line\n", encoding="utf-8")
        config = validate_config(str(path), {"n": "128"})
        assert config.n == 128

    def test_missing_experiment(self):
        with pytest.raises(ConfigError):
            validate_config(None, {})


# A value for every config key but ``experiment``, each unlike its default.
SAMPLE_VALUES = {
    "n": "64",
    "seed": "3",
    "seeds": "7",
    "families": "goe,random",
    "grid": "0.2:0.4:3",
    "out": "x.csv",
    "threads": "2",
    "estimator": "hutchinson",
    "weight_mode": "untied",
    "phi": "identity",
    "lr": "0.125",
    "steps": "9",
    "dataset_size": "16",
}


# The first experiment that reads each optional key; fig1 reads every other key, --estimator at any weight mode.
READER = {key: next(name for name, spec in EXPERIMENTS.items() if key in spec.reads) for key in cli.OPTIONAL_KEYS}


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_experiment_record_drives_validation(experiment):
    spec = EXPERIMENTS[experiment]
    config = validate_config(None, {"experiment": experiment})
    assert (config.n, config.seeds, config.out) == (spec.n, spec.seeds, f"{experiment}.csv")
    assert config.defaulted == (f"n={spec.n}", f"seeds={spec.seeds}", f"out={experiment}.csv")
    for key in sorted(cli.OPTIONAL_KEYS):
        overrides = {"experiment": experiment, key: SAMPLE_VALUES[key]}
        if key in spec.reads:
            assert getattr(validate_config(None, overrides), key) != getattr(config, key), key
        else:
            with pytest.raises(ConfigError) as err:
                validate_config(None, overrides)
            assert err.value.errors == [f"{experiment} does not read {key}"]
    # the grid kind picks the domain check; an experiment without a grid has none
    assert (spec.grid_kind is None) == ("grid" not in spec.reads)
    if spec.grid_kind is not None:
        bad_grid = {"delta": ("1.5:1.5:1", "deltas in (0, 1]"), "sqrt_v": ("-0.5:-0.5:1", "sqrt(V) >= 0")}
        grid, message = bad_grid[spec.grid_kind]
        with pytest.raises(ConfigError) as err:
            validate_config(None, {"experiment": experiment, "grid": grid})
        assert any(e.startswith(f"{experiment} grid values are {message}") for e in err.value.errors)


class TestFlagsMatchConfigKeys:
    def test_every_key_has_a_flag_that_sets_the_same_value(self, tmp_path):
        assert set(cli.SETTINGS) == {"experiment", *SAMPLE_VALUES}
        for key, text in SAMPLE_VALUES.items():
            experiment = READER.get(key, "fig1")
            default = validate_config(None, {"experiment": experiment})
            path = tmp_path / f"{key}.cfg"
            path.write_text(f"experiment={experiment}\n{key}={text}\n", encoding="utf-8")
            from_file = validate_config(str(path))
            flags = vars(cli.build_parser().parse_args([experiment, "--" + key.replace("_", "-"), text]))
            from_flag = validate_config(flags.pop("config"), flags)
            assert getattr(from_flag, key) == getattr(from_file, key) != getattr(default, key), key

    def test_experiment_positional_matches_file_key(self, tmp_path):
        path = tmp_path / "e.cfg"
        path.write_text("experiment=fig3\n", encoding="utf-8")
        flags = vars(cli.build_parser().parse_args(["fig3"]))
        assert validate_config(flags.pop("config"), flags) == validate_config(str(path))


def _run_cli(args):
    return cli.main(args)


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class TestCliRuns:
    def test_moments_theory_dump(self, tmp_path):
        out = tmp_path / "m.csv"
        code = _run_cli(
            [
                "moments",
                "--families",
                "random",
                "--weight-mode",
                "tied",
                "--grid",
                "0.5:0.5:1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]
        lv = [r for r in rows if r["statistic"] == "length_variance_T"]
        assert len(lv) == 1
        assert float(lv[0]["theory"]) == 16.0
        assert float(lv[0]["v"]) == 0.5
        manifest = json.loads(out.with_suffix(".csv.manifest.json").read_text())
        assert manifest["code_version"]
        assert manifest["config"]["experiment"] == "moments"

    def test_fig2_small_run(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = _run_cli(
            ["fig2", "--n", "120", "--seeds", "3", "--grid", "0.3:0.5:2", "--families",
             "orthogonal", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]
        assert len(rows) == 2
        for row in rows:
            assert float(row["emp_mean"]) == pytest.approx(float(row["theory"]), rel=0.4)

    def test_reproducible_across_threads(self, tmp_path):
        outputs = []
        for threads, name in ((1, "a.csv"), (3, "b.csv")):
            out = tmp_path / name
            code = _run_cli(
                ["fig3", "--n", "80", "--seeds", "2", "--grid", "0.2:0.4:2",
                 "--threads", str(threads), "--out", str(out)]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_manifest_isolates_timing(self, tmp_path):
        manifests = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            assert _run_cli(["moments", "--grid", "0.5:0.5:1", "--out", str(out)]) == 0
            manifests.append(json.loads(out.with_suffix(".csv.manifest.json").read_text()))
        for m in manifests:
            m.pop("wall_time_s")
            m.pop("timestamp_unix")
            m["config"].pop("out")
            for record in m["cells"]:
                record.pop("wall_s")
        assert manifests[0] == manifests[1]

    def test_manifest_records_every_cell(self, tmp_path):
        # two families x two grid points: one record per cell, in row order
        records = []
        for threads in ("1", "3"):
            out = tmp_path / f"fig2-{threads}.csv"
            args = ["fig2", "--n", "40", "--seeds", "2", "--grid", "0.3:0.6:2", "--families", "random,goe",
                    "--threads", threads, "--out", str(out)]
            assert _run_cli(args) == 0
            cells = json.loads(out.with_suffix(".csv.manifest.json").read_text())["cells"]
            assert len(cells) == len(_rows(out)) == 4
            assert all(set(record) == {"cell", "wall_s", "diverged"} and record["wall_s"] >= 0 for record in cells)
            records.append([(record["cell"], record["diverged"]) for record in cells])
        assert records[0] == records[1]
        assert [label for label, _ in records[0]] == ["random:0:0.3", "random:1:0.6", "goe:0:0.3", "goe:1:0.6"]
        assert all(set(diverged) == {"sigma_h_sq"} for _, diverged in records[0])

    def test_manifest_sums_fig4_diverged_over_the_grid(self, tmp_path):
        # fig4's cell is one family; its record sums the diverged column over the grid scales
        out = tmp_path / "fig4.csv"
        args = ["fig4", "--n", "60", "--seeds", "3", "--grid", "0.3:1.2:3", "--families", "orthogonal",
                "--phi", "identity", "--out", str(out)]
        assert _run_cli(args) == 0
        (record,) = json.loads(out.with_suffix(".csv.manifest.json").read_text())["cells"]
        assert record["cell"] == "orthogonal"
        assert record["diverged"] == {"residual_at_probe": sum(int(row["diverged"]) for row in _rows(out))}

    def test_manifest_records_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "m.csv"
        assert _run_cli(["moments", "--grid", "0.5:0.5:1", "--out", str(out)]) == 0
        env = json.loads(out.with_suffix(".csv.manifest.json").read_text())["environment"]
        assert set(env) == {"nproc", "blas", "blas_threads", "versions"}
        assert isinstance(env["nproc"], int) and env["nproc"] >= 1
        # numpy and scipy each carry their own BLAS; LAPACK (getrf, getrs, getri, geqrf, orgqr) runs on scipy's
        assert set(env["blas"]) == {"numpy", "scipy"}
        assert all(set(build) == {"name", "version"} and build["version"] for build in env["blas"].values())
        assert set(env["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1" and env["blas_threads"]["MKL_NUM_THREADS"] is None
        assert set(env["versions"]) == {"numpy", "scipy", "python"} and all(env["versions"].values())
        assert "environment" not in out.read_text(encoding="utf-8")

    def test_config_error_exit_code(self, capsys):
        assert _run_cli(["fig2", "--seeds", "-1"]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [["fig1", "--estimator", "foo"], ["moments", "--weight-mode", "x"], ["fig1", "--bogus", "3"], ["fig1", "--n"],
         ["bogus"], []],
        ids=["bad-choice", "bad-weight-mode", "unknown-flag", "missing-value", "unknown-experiment", "empty"],
    )
    def test_command_line_errors_exit_1(self, args, tmp_path, monkeypatch, capsys):
        # every value goes through validate_config; an argparse usage error is a config error too
        monkeypatch.chdir(tmp_path)
        assert _run_cli(args) == 1
        assert "error: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_0_and_shows_choices(self, capsys):
        assert _run_cli(["--help"]) == 0
        out = capsys.readouterr().out
        assert "{exact,hutchinson}" in out and "{tied,untied,both}" in out and "fig1,fig2" in out

    def test_undecodable_config_file_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"experiment=fig1\nn=\xff\n")
        out = tmp_path / "out.csv"
        assert _run_cli(["fig1", "--config", str(path), "--out", str(out)]) == 1
        assert f"config error: cannot read config file {path}: " in capsys.readouterr().err
        assert not out.exists()

    def test_io_error_exit_code(self, tmp_path, capsys):
        missing_dir = tmp_path / "absent" / "out.csv"
        assert _run_cli(["moments", "--grid", "0.5:0.5:1", "--out", str(missing_dir)]) == 2

    def test_missing_output_directory_fails_before_running(self, tmp_path, monkeypatch, capsys):
        def must_not_run(*args):
            pytest.fail("the experiment ran before the output directory was checked")

        untouchable = dataclasses.replace(EXPERIMENTS["fig2"], cells=must_not_run, rows=must_not_run)
        monkeypatch.setitem(cli.EXPERIMENTS, "fig2", untouchable)
        out = tmp_path / "nodir" / "t.csv"
        args = ["fig2", "--n", "40", "--seeds", "2", "--grid", "0.3:0.3:1", "--families", "random"]
        assert _run_cli([*args, "--out", str(out)]) == 2
        assert "cannot write output" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, code", [("fig2", 0), ("fig3", 1), ("fig4", 1)])
    def test_goe_radius_needs_zero_one_gate(self, experiment, code, tmp_path, capsys):
        out = tmp_path / "goe.csv"
        args = [experiment, "--n", "40", "--seeds", "2", "--grid", "0.3:0.3:1", "--families", "goe", "--phi", "tanh"]
        assert _run_cli([*args, "--out", str(out)]) == code
        assert out.exists() == (code == 0)
        if code:
            assert "config error: " + experiment + " on goe needs phi" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["fig2", "fig3"])
    def test_identity_needs_subunit_grid(self, experiment, tmp_path, capsys):
        # s = V (s + 1) has no bounded root at V >= 1, so the scalar solve fails
        out = tmp_path / "id.csv"
        args = [experiment, "--phi", "identity", "--grid", "0.5:1.2:3", "--n", "50", "--seeds", "2"]
        assert _run_cli([*args, "--out", str(out)]) == 1
        assert f"config error: {experiment} with phi identity" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["fig2", "fig3"])
    def test_unrepresentable_variance_root_rejected(self, experiment, tmp_path, capsys):
        # V = 1e308 is finite, but the scalar solve's bracket needs 2 V, which is not
        out = tmp_path / "huge.csv"
        args = [experiment, "--grid", "1e154:1e154:1", "--n", "20", "--seeds", "2", "--out", str(out)]
        assert _run_cli(args) == 1
        assert f"config error: {experiment} variance root 2 V overflows at sqrt(V) [1e+154]" in capsys.readouterr().err
        assert not out.exists()
        assert validate_config(None, {"experiment": experiment, "grid": "9e153:9e153:1"}).grid == (9e153,)

    def test_identity_just_below_unit_scale_has_finite_theory(self, tmp_path, capsys):
        # s = V (s + 1) has the bounded root V / (1 - V) = 99999.25 here; no 20-dim draw settles in 1000 steps
        out = tmp_path / "id.csv"
        args = ["fig2", "--phi", "identity", "--grid", "0.999995:0.999995:1", "--n", "20", "--seeds", "2",
                "--families", "random", "--out", str(out)]
        assert _run_cli(args) == 3
        assert capsys.readouterr().err == "error: every cell diverged\n"
        (row,) = _rows(out)
        v = float(row["v"])
        assert float(row["theory"]) == pytest.approx(v / (1.0 - v), rel=5e-11)

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--dataset-size", "0", "dataset_size"), ("--dataset-size", "-3", "dataset_size"), ("--steps", "-2", "steps")],
    )
    def test_train_probe_sizes_rejected(self, flag, value, message, tmp_path, capsys):
        out = tmp_path / "tp.csv"
        args = ["train-probe", "--n", "8", "--seeds", "1", "--grid", "0.1:0.1:1", flag, value]
        assert _run_cli([*args, "--out", str(out)]) == 1
        assert f"config error: {message} must be >= " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, key",
        [
            (["train-probe", "--grid", "0.1:0.1:2"], "grid"),
            (["fig2", "--grid", "0.3:0.3:3:log"], "grid"),
            # lo and hi one ulp apart: linspace and geomspace repeat an end point
            (["fig2", "--grid", "0.5:0.5000000000000001:3"], "grid"),
            (["fig2", "--grid", "0.5:0.5000000000000001:3:log"], "grid"),
            (["train-probe", "--families", "random,random"], "families"),
            (["fig2", "--families", "goe,random,goe"], "families"),
        ],
        ids=["train-probe-grid", "fig2-log-grid", "fig2-ulp-grid", "fig2-ulp-log-grid", "train-probe-families",
             "fig2-families"],
    )
    def test_repeated_family_or_grid_point_rejected(self, args, key, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        assert _run_cli([*args, "--n", "8", "--seeds", "2", "--out", str(out)]) == 1
        assert f"config error: bad value for '{key}': " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["fig2", "fig3", "fig4", "train-probe"])
    def test_negative_sqrt_v_grid_rejected(self, experiment, tmp_path, capsys):
        out = tmp_path / "neg.csv"
        args = [experiment, "--grid=-0.5:-0.5:1", "--n", "8", "--seeds", "1", "--families", "random"]
        assert _run_cli([*args, "--out", str(out)]) == 1
        assert f"config error: {experiment} grid values are sqrt(V) >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["fig2", "fig3", "fig4", "train-probe"])
    @pytest.mark.parametrize("grid", ["nan:nan:1", "inf:inf:1", "1e160:1e160:1"])
    def test_nonfinite_sqrt_v_grid_rejected(self, experiment, grid, tmp_path, capsys):
        # 1e160 is finite, but V = 1e320 is not
        out = tmp_path / "big.csv"
        args = [experiment, "--grid", grid, "--n", "8", "--seeds", "1", "--families", "random"]
        assert _run_cli([*args, "--out", str(out)]) == 1
        assert f"config error: {experiment} grid values are sqrt(V) >= 0 with a finite square" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["fig1", "moments"])
    def test_delta_at_critical_scale_rejected(self, experiment, tmp_path, capsys):
        # 1 - 1e-300 rounds to 1, so delta_to_scale would return V_c itself
        out = tmp_path / "vc.csv"
        args = [experiment, "--grid", "1e-300:1e-300:1", "--n", "8", "--seeds", "0" if experiment == "moments" else "1"]
        assert _run_cli([*args, "--out", str(out)]) == 1
        assert f"config error: {experiment} deltas [1e-300] map onto the critical scale V_c" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "-inf", "-1", "0"])
    def test_train_probe_bad_lr_rejected(self, lr, tmp_path, capsys):
        out = tmp_path / "lr.csv"
        args = ["train-probe", "--n", "8", "--seeds", "1", "--grid", "0.1:0.1:1", f"--lr={lr}"]
        assert _run_cli([*args, "--out", str(out)]) == 1
        assert "config error: lr must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["fig2"],
            ["fig4"],
            ["train-probe"],
            ["freeprob-check"],
            ["moments", "--weight-mode", "untied", "--seeds", "2"],
            ["moments", "--weight-mode", "tied"],  # theory only: no trace is estimated
        ],
    )
    def test_unread_hutchinson_estimator_rejected(self, args, tmp_path, capsys):
        # setting the key is the error, whatever its value, the default included
        out = tmp_path / "h.csv"
        for estimator in ("hutchinson", "exact"):
            assert _run_cli([*args, "--estimator", estimator, "--n", "8", "--out", str(out)]) == 1
            assert f"config error: estimator {estimator} applies only to" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, flag, value",
        [
            ("fig1", "--weight-mode", "untied"),
            ("fig2", "--weight-mode", "tied"),
            ("train-probe", "--weight-mode", "both"),
            ("fig1", "--phi", "tanh"),
            ("moments", "--phi", "identity"),
            ("freeprob-check", "--phi", "tanh"),
            ("fig4", "--lr", "0.3"),
            ("fig1", "--steps", "5"),
            ("moments", "--dataset-size", "8"),
            ("freeprob-check", "--families", "goe"),
            ("freeprob-check", "--grid", "0.2:0.4:2"),
        ],
    )
    def test_unread_key_rejected(self, experiment, flag, value, tmp_path, capsys):
        out = tmp_path / "unread.csv"
        assert _run_cli([experiment, flag, value, "--n", "8", "--seeds", "2", "--out", str(out)]) == 1
        key = flag[2:].replace("-", "_")
        assert f"config error: {experiment} does not read {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_unread_key_in_file_is_line_numbered(self, tmp_path):
        path = tmp_path / "u.cfg"
        path.write_text("experiment=fig1\nn=64\nweight_mode=tied\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            validate_config(str(path))
        assert err.value.errors == ["line 3: fig1 does not read weight_mode"]

    @pytest.mark.parametrize("phi", ["hard_tanh", "identity"])
    @pytest.mark.parametrize("experiment", ["fig2", "fig3", "fig4"])
    def test_zero_one_gates_run_without_quadrature(self, experiment, phi, tmp_path, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("a 0/1 gate reached numerics.gauss_hermite_expect")

        monkeypatch.setattr(numerics, "gauss_hermite_expect", no_quadrature)
        out = tmp_path / "gate.csv"
        args = [experiment, "--n", "20", "--seeds", "1", "--grid", "0.3:0.6:2", "--phi", phi, "--out", str(out)]
        assert _run_cli(args) == 0

    def test_train_probe_small(self, tmp_path):
        out = tmp_path / "tp.csv"
        code = _run_cli(
            ["train-probe", "--n", "16", "--seeds", "2", "--grid", "0.1:0.3:2",
             "--steps", "4", "--families", "goe", "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        stats = {line.split(",")[8] for line in rows}
        assert "divergence_rate" in stats

    def test_train_probe_honours_n(self, tmp_path):
        out = tmp_path / "tp.csv"
        args = ["train-probe", "--n", "70", "--seeds", "1", "--grid", "0.1:0.1:1", "--steps", "1",
                "--dataset-size", "2", "--families", "random", "--out", str(out)]
        assert _run_cli(args) == 0
        rows = _rows(out)
        assert len(rows) == 3 and all(row["n"] == "70" for row in rows)

    def test_train_probe_all_cells_diverged_exits_3(self, tmp_path, capsys):
        # identity at spectral radius 1.3 fails every forward solve at step 0
        out = tmp_path / "tp.csv"
        args = ["train-probe", "--n", "12", "--seeds", "3", "--grid", "1.3:1.3:1", "--phi", "identity",
                "--steps", "0", "--out", str(out)]
        assert _run_cli(args) == 3
        assert "every cell diverged" in capsys.readouterr().err
        assert all(row["diverged"] == "3" for row in _rows(out))
        cells = json.loads(out.with_suffix(".csv.manifest.json").read_text())["cells"]
        assert len(cells) == 3 and all(set(record["diverged"].values()) == {3} for record in cells)
        assert all(len(record["diverged"]) == 3 for record in cells)

    @pytest.mark.parametrize("experiment", [["fig1"], ["moments", "--weight-mode", "tied"]], ids=["fig1", "moments"])
    def test_every_seed_singular_exits_3(self, experiment, tmp_path, monkeypatch, capsys):
        # W = I makes I - W singular for every seed: each cell counts its seeds and keeps no value
        monkeypatch.setattr(linear_deq, "sample", lambda spec, seed: np.eye(spec.dim))
        out = tmp_path / "singular.csv"
        args = [*experiment, "--n", "4", "--seeds", "2", "--grid", "0.5:0.5:1", "--families", "random"]
        assert _run_cli([*args, "--out", str(out)]) == 3
        assert "every cell diverged" in capsys.readouterr().err
        mc_rows = [row for row in _rows(out) if row["seeds"]]
        assert mc_rows and all(row["diverged"] == "2" for row in mc_rows)
        assert all(row[column] == "" for row in mc_rows for column in CSV_COLUMNS if column.startswith("emp_"))

    def test_freeprob_check_honours_seeds(self, tmp_path):
        mc = {}
        for seeds in ("1", "2"):
            out = tmp_path / f"fp{seeds}.csv"
            assert _run_cli(["freeprob-check", "--n", "2", "--seeds", seeds, "--out", str(out)]) == 0
            mc[seeds] = [r for r in _rows(out) if r["statistic"] in ("cubic_m2_vs_mc", "cubic_m3_vs_mc")]
            assert len(mc[seeds]) == 2 and all(r["seeds"] == seeds for r in mc[seeds])
        # one seed is not averaged with a second one behind the flag's back
        assert all(one["emp_mean"] != two["emp_mean"] for one, two in zip(mc["1"], mc["2"]))

    def test_freeprob_check_mc_rows_fill_every_emp_column(self, tmp_path):
        out = tmp_path / "fp.csv"
        assert _run_cli(["freeprob-check", "--n", "40", "--seeds", "3", "--out", str(out)]) == 0
        mc = [r for r in _rows(out) if r["statistic"] in ("cubic_m2_vs_mc", "cubic_m3_vs_mc")]
        assert len(mc) == 2
        for r in mc:
            assert r["diverged"] == "0"
            for column in ("emp_mean", "emp_median", "emp_stderr", "emp_q25", "emp_q75"):
                assert math.isfinite(float(r[column]))
            assert float(r["emp_q25"]) <= float(r["emp_median"]) <= float(r["emp_q75"])

    def test_freeprob_check_small(self, tmp_path):
        out = tmp_path / "fp.csv"
        assert _run_cli(["freeprob-check", "--n", "400", "--seeds", "2", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]
        by_stat = {r["statistic"]: r for r in rows}
        assert float(by_stat["cubic_m2_at_half"]["emp_mean"]) == 16.0
        peak = by_stat["semicircle_peak_density"]
        assert float(peak["emp_mean"]) == pytest.approx(1 / math.pi, abs=1e-3)
        ks = float(by_stat["hardtanh_continuous_ks"]["emp_mean"])
        assert ks < 0.1

    def test_freeprob_check_without_open_gates(self, tmp_path):
        # at n = 2 and seed 0 both hard-tanh gates are closed: no continuous spectrum is left
        out = tmp_path / "fp.csv"
        assert _run_cli(["freeprob-check", "--n", "2", "--seeds", "1", "--out", str(out)]) == 0
        by_stat = {r["statistic"]: r for r in _rows(out)}
        assert by_stat["hardtanh_atom_mass"]["emp_mean"] == "1.0"
        assert by_stat["hardtanh_continuous_ks"]["emp_mean"] == ""

    def test_fig1_small_run(self, tmp_path):
        out = tmp_path / "fig1.csv"
        code = _run_cli(
            ["fig1", "--n", "150", "--seeds", "3", "--grid", "0.4:0.6:2",
             "--families", "orthogonal,goe", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]
        assert len(rows) == 4
        for row in rows:
            assert float(row["emp_median"]) == pytest.approx(float(row["theory"]), rel=0.5)
            assert row["weight_mode"] == "tied"

    def test_fig3_identity_theory_column(self, tmp_path):
        out = tmp_path / "fig3id.csv"
        code = _run_cli(
            ["fig3", "--n", "60", "--seeds", "2", "--grid", "0.2:0.4:2",
             "--phi", "identity", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]
        for row in rows:
            expected = float(row["sqrt_v"]) * (2.0 if row["family"] == "goe" else 1.0)
            assert float(row["theory"]) == pytest.approx(expected, abs=1e-12)

    def test_fig4_small_run(self, tmp_path):
        out = tmp_path / "fig4.csv"
        code = _run_cli(
            ["fig4", "--n", "100", "--seeds", "3", "--grid", "0.3:1.2:3",
             "--families", "orthogonal", "--phi", "identity", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]
        assert [float(r["sqrt_v"]) for r in rows] == [0.3, 0.75, 1.2]
        assert float(rows[0]["emp_median"]) < 1e-6
        assert float(rows[-1]["emp_median"]) > 1e-3
        assert float(rows[0]["theory"]) == pytest.approx(1.0, abs=2e-4)
        assert all(r["emp_stderr"] == "" for r in rows)

    def test_moments_default_grid(self, tmp_path):
        out = tmp_path / "m.csv"
        assert _run_cli(["moments", "--out", str(out)]) == 0
        rows = _rows(out)
        # 3 families x 2 weight modes x 9 deltas x 2 quantities
        assert len(rows) == 108
        assert min(float(r["delta"]) for r in rows) == 0.05

    def test_one_step_grid_with_two_ends_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert _run_cli(["fig2", "--grid", "0.1:0.9:1", "--out", str(out)]) == 1
        assert "config error: bad value for 'grid': a one-step grid is lo:lo:1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["fig2", "fig3"])
    def test_scalar_solve_at_large_scale(self, experiment, tmp_path):
        # at sqrt(V) = 1e5 (s about 2e10) an absolute 1e-10 residual lies below the float spacing of s
        out = tmp_path / "big.csv"
        args = [experiment, "--n", "20", "--seeds", "2", "--grid", "100000:100000:1", "--out", str(out)]
        assert _run_cli(args) == 0
        rows = _rows(out)
        assert len(rows) == 3 and all(math.isfinite(float(row["theory"])) for row in rows)

    @pytest.mark.parametrize("experiment", ["fig2", "fig3"])
    def test_hard_tanh_scalar_solve_at_huge_scale(self, experiment, tmp_path, capsys):
        # at sqrt(V) = 1e15 (s about 2e30) E[phi^2] is 1 - 4 / (3 sqrt(2 pi s)) and must not cancel;
        # no seed's fixed point settles, so every cell fails
        out = tmp_path / "huge.csv"
        args = [experiment, "--n", "20", "--seeds", "2", "--families", "random", "--grid", "1e15:1e15:1"]
        assert _run_cli([*args, "--out", str(out)]) == 3
        assert "every cell diverged" in capsys.readouterr().err
        (row,) = _rows(out)
        v = 1e30
        s = 2.0 * v  # V (E[phi^2] + 1), with E[phi^2] = 1 to 15 digits
        # p = erf(1 / sqrt(2 s)) ~ sqrt(2 / (pi s)), and the random-family radius is sqrt(V p)
        expected = s if experiment == "fig2" else math.sqrt(v * math.sqrt(2.0 / (math.pi * s)))
        assert float(row["theory"]) == pytest.approx(expected, rel=1e-12)
        assert row["diverged"] == "2"

    @pytest.mark.parametrize("experiment, grid", [("fig2", "9e153:9e153:1"), ("fig4", "1e154:1e154:1")])
    def test_overflow_past_1e154_is_silent(self, experiment, grid, tmp_path, capsys):
        # the fixed-point norms square entries past ~1e154; that overflow reads as divergence, with no
        # RuntimeWarning (which the suite's filter turns into an error)
        args = [experiment, "--grid", grid, "--n", "20", "--seeds", "2", "--out", str(tmp_path / "o.csv")]
        assert _run_cli(args) == 3
        assert capsys.readouterr().err == "error: every cell diverged\n"

    def test_moments_one_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert _run_cli(["moments", "--seeds", "1", "--grid", "0.5:0.5:1", "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, grid", [("fig1", "0.5:0.5:1"), ("fig2", "0.3:0.3:1"), ("fig3", "0.3:0.3:1")])
    def test_one_seed_leaves_stderr_empty(self, experiment, grid, tmp_path):
        out = tmp_path / "one.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = _run_cli(
                [experiment, "--n", "40", "--seeds", "1", "--grid", grid, "--families", "random", "--out", str(out)]
            )
        assert code == 0
        rows = _rows(out)
        assert len(rows) == 1 and rows[0]["emp_stderr"] == ""
        assert rows[0]["emp_mean"] == rows[0]["emp_median"]


def test_launch_loads_no_scipy_subpackage_but_linalg(tmp_path):
    # scipy.optimize, scipy.special and scipy.integrate would add to every launch's start-up time and
    # memory; only tanh's quadrature fallback needs one of them
    script = f"""
import sys
from deqlab import cli
for args in (["fig3", "--grid", "0.5:0.5:1"], ["fig4"]):
    assert cli.main([*args, "--n", "20", "--seeds", "2", "--out", {str(tmp_path / "out.csv")!r}]) == 0
print(sorted(m for m in ("scipy.optimize", "scipy.special", "scipy.integrate") if m in sys.modules))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

"""Command-line experiment driver.

``deqlab <experiment> [--config PATH] [--<key> VALUE ...]``: every key of a
config file is also a flag, with dashes for underscores.

Configs are flat ``key=value`` text files; command-line flags override file
values.  The parser only splits the command line; ``validate_config`` checks
every value once, with each experiment's defaults, grid kind and optional keys
from its ``experiments.EXPERIMENTS`` record.  Every run writes one CSV (UTF-8, header row, '.' decimal, one row
per cell/statistic) and a JSON manifest carrying the resolved config, code
version, wall time, one record per cell (its label, wall time and diverged
counts by statistic) and the machine's setup.
Identical config and seed produce byte-identical CSV at any thread count;
everything time-dependent is isolated in the manifest.

Exit codes: 0 success (``--help`` too), 1 config error (a command-line usage
error too), 2 I/O error, 3 all cells failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .ensembles import Family
from .experiments import CSV_COLUMNS, EXPERIMENTS, ExperimentConfig, ResultRow, run_cells
from .nonlinear_deq import ZERO_ONE_GATES

# config-file key -> ExperimentConfig field, for every settable field
SETTINGS = {f.name: f for f in fields(ExperimentConfig) if "parse" in f.metadata}

# keys that only some experiments read; setting one elsewhere is an error
OPTIONAL_KEYS = frozenset().union(*(e.reads for e in EXPERIMENTS.values()))


class ConfigError(ValueError):
    """Aggregated, line-numbered configuration problems."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def read_config_file(path: str) -> dict[str, tuple[int, str]]:
    """Flat key=value lines; returns {key: (line_number, raw_value)}."""
    entries: dict[str, tuple[int, str]] = {}
    errors: list[str] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key=value, got {line!r}")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in entries:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        entries[key] = (lineno, value)
    if errors:
        raise ConfigError(errors)
    return entries


def validate_config(path: str | None, overrides: dict | None = None) -> ExperimentConfig:
    """Merge file + overrides (flag values, None when unset) into a checked
    config; raises ConfigError."""
    errors: list[str] = []
    raw: dict[str, tuple[str, str]] = {}  # key -> (where it was set, as an error prefix; its text)
    if path is not None:
        try:
            raw.update({key: (f"line {lineno}: ", text) for key, (lineno, text) in read_config_file(path).items()})
        except ConfigError as exc:
            errors.extend(exc.errors)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError([f"cannot read config file {path}: {exc}"]) from exc
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = ("", str(value))

    values: dict[str, object] = {}
    for key, (where, text) in raw.items():
        if key not in SETTINGS:
            errors.append(f"{where}unknown key {key!r}")
            continue
        meta = SETTINGS[key].metadata
        try:
            values[key] = meta["parse"](text)
        except (ValueError, KeyError) as exc:
            errors.append(f"{where}bad value for {key!r}: {exc}")
            continue
        if meta["choices"] and values[key] not in meta["choices"]:
            errors.append(f"{where}{key} must be one of {', '.join(meta['choices'])}, got {text!r}")
    experiment = values.get("experiment")
    if experiment is None:
        errors.append("missing required key 'experiment'")
    elif experiment not in EXPERIMENTS:
        errors.append(f"unknown experiment {experiment!r}; choose from {sorted(EXPERIMENTS)}")
    else:
        spec = EXPERIMENTS[experiment]
        for key, (where, _) in raw.items():
            if key in values and key in OPTIONAL_KEYS and key not in spec.reads:
                errors.append(f"{where}{experiment} does not read {key}")
    if errors:
        raise ConfigError(errors)

    defaults = {"n": spec.n, "seeds": spec.seeds, "out": f"{experiment}.csv"}
    defaulted = tuple(f"{key}={value}" for key, value in defaults.items() if key not in values)
    config = ExperimentConfig(defaulted=defaulted, **(defaults | values))

    if config.n < 2:
        errors.append(f"n must be >= 2, got {config.n}")
    if config.seeds < 0:
        errors.append(f"seeds must be >= 0, got {config.seeds}")
    if config.experiment != "moments" and config.seeds == 0:
        errors.append("seeds must be >= 1 for Monte-Carlo experiments")
    if config.experiment == "moments" and config.seeds == 1:
        errors.append("moments needs seeds = 0 (theory only) or >= 2 (a variance needs two seeds)")
    if config.seed < 0:
        errors.append(f"seed must be >= 0, got {config.seed}")
    if config.threads < 1:
        errors.append(f"threads must be >= 1, got {config.threads}")
    if not config.families:
        errors.append("families must not be empty")
    if spec.grid_kind == "delta" and config.grid is not None:
        bad = [g for g in config.grid if not 0.0 < g <= 1.0]
        if bad:
            errors.append(f"{config.experiment} grid values are deltas in (0, 1]; got {bad}")
        # V = V_c (1 - delta) is V_c itself once 1 - delta rounds to 1
        at_critical = [g for g in config.grid if 0.0 < g and 1.0 - g == 1.0]
        if at_critical:
            errors.append(f"{config.experiment} deltas {at_critical} map onto the critical scale V_c (1 - delta rounds to 1)")
    if spec.grid_kind == "sqrt_v" and config.grid is not None:
        bad = [g for g in config.grid if not (0.0 <= g and math.isfinite(g * g))]
        if bad:
            errors.append(f"{config.experiment} grid values are sqrt(V) >= 0 with a finite square; got {bad}")
    reads_estimator = config.experiment == "fig1" or (
        config.experiment == "moments" and config.weight_mode != "untied" and config.seeds > 0
    )
    if "estimator" in raw and not reads_estimator:
        errors.append(f"estimator {config.estimator} applies only to tied length-variance cells (fig1, moments tied or both)")
    if config.experiment in ("fig3", "fig4") and Family.GOE in config.families and config.phi not in ZERO_ONE_GATES:
        errors.append(f"{config.experiment} on goe needs phi {' or '.join(ZERO_ONE_GATES)} (a 0/1 gate), got {config.phi!r}")
    if config.experiment in ("fig2", "fig3") and config.grid is not None:
        if config.phi == "identity":  # s = V (s + 1) has a bounded root only for V < 1
            bad = [g for g in config.grid if g >= 1.0]
            if bad:
                errors.append(f"{config.experiment} with phi identity has no bounded variance at sqrt(V) >= 1; got {bad}")
        else:  # with |phi| <= 1 the root of s = V (E[phi^2] + 1) can sit at 2 V, where the solve's bracket ends
            huge = [g for g in config.grid if math.isfinite(g * g) and not math.isfinite(2.0 * (g * g))]
            if huge:
                errors.append(f"{config.experiment} variance root 2 V overflows at sqrt(V) {huge}")
    if config.dataset_size < 1:
        errors.append(f"dataset_size must be >= 1, got {config.dataset_size}")
    if config.steps < 0:
        errors.append(f"steps must be >= 0, got {config.steps}")
    if not (config.lr > 0.0 and math.isfinite(config.lr)):
        errors.append(f"lr must be finite and > 0, got {config.lr}")
    if errors:
        raise ConfigError(errors)
    return config


def write_csv(path: Path, rows: list[ResultRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.as_csv())


def _environment() -> dict:
    """Cores, numpy's and scipy's BLAS builds (LAPACK runs on scipy's), BLAS thread variables (None if unset), versions."""
    blas = {lib.__name__: lib.show_config(mode="dicts")["Build Dependencies"]["blas"] for lib in (np, scipy)}
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas": {lib: {"name": b.get("name"), "version": b.get("version")} for lib, b in blas.items()},
        "blas_threads": {name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__, "python": ".".join(map(str, sys.version_info[:3]))},
    }


def write_manifest(
    path: Path, config: ExperimentConfig, rows: list[ResultRow], cells: list[dict], wall_time: float
) -> None:
    manifest = {
        "experiment": config.experiment,
        "config": config.as_manifest_dict(),
        "code_version": __version__,
        "wall_time_s": wall_time,
        "timestamp_unix": time.time(),
        "n_rows": len(rows),
        "cells": cells,
        "environment": _environment(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code."""
    out = Path(config.out)
    if not out.parent.is_dir():
        print(f"error: cannot write output: output directory {out.parent} does not exist", file=sys.stderr)
        return 2
    started = time.monotonic()
    rows, cells = run_cells(config)
    mc_rows = [r for r in rows if r.seeds]
    failed = [r for r in mc_rows if r.diverged is not None and r.diverged >= r.seeds]
    try:
        write_csv(out, rows)
        write_manifest(out.with_suffix(out.suffix + ".manifest.json"), config, rows, cells, time.monotonic() - started)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    if mc_rows and len(failed) == len(mc_rows):
        print("error: every cell diverged", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Splits the command line only; ``validate_config`` checks every value."""
    parser = argparse.ArgumentParser(
        prog="deqlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiment", metavar="{" + ",".join(sorted(EXPERIMENTS)) + "}", help="experiment to run")
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    for name, setting in SETTINGS.items():
        if name != "experiment":
            choices = setting.metadata["choices"]
            metavar = "{" + ",".join(choices) + "}" if choices else None
            parser.add_argument("--" + name.replace("_", "-"), dest=name, metavar=metavar, help=setting.metadata["help"])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        flags = vars(build_parser().parse_args(argv))
    except SystemExit as exc:  # --help exits 0; a usage error is a config error
        return 1 if exc.code else 0
    try:
        config = validate_config(flags.pop("config"), flags)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

"""deqlab benchmark: one workload, measured for a fixed time, then checked.

    python3 deqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a deqlab checkout.  Each workload is one ``deqlab``
experiment, launched again and again in a fresh interpreter (closed loop,
one client, ``--threads 1``, single-threaded BLAS) until the next launch
would end past ``--seconds``.  ``--seed`` is the experiment's ``--seed``, so
it fixes every input.  After the timed part the CSVs are checked (see
checks.py).  The last line of standard output is one JSON object with
``correct``, ``attempted`` and ``failed`` (sweep cells) and ``metrics``:

* ``--trace 0``: ``wall_s``, ``setup_s`` and ``peak_rss_mib``, each the
  median over the run's launches;
* ``--trace 1``: the per-layer metrics of spans.LAYER_METRICS, from launches
  traced by wrapping deqlab's public functions, plus ``trace.overhead_s``
  (traced minus untraced wall time) and ``trace.other_s`` (traced wall time
  not in any listed layer).

Outputs go to ``.deqbench-out/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
SETUP_LAUNCHES = 3  # set-up-only launches per run, after one warm-up launch
LAUNCH_TIMEOUT_S = 150
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]  # deqlab arguments besides --seed and --out
    cells: int  # sweep cells of one experiment
    check: str  # function of checks.py


# Sizes are cut from the acceptance runs so that a launch takes a few
# seconds, with N = 1000 wherever the dense kernels should be BLAS-bound.
WORKLOADS = {
    "length-variance": Workload(
        ("fig1", "--n", "1000", "--seeds", "2", "--grid", "0.05:0.9:3", "--estimator", "exact"),
        9,
        "check_length_variance",
    ),
    "radius-sweep": Workload(
        ("fig3", "--n", "1000", "--seeds", "2", "--grid", "0.6:0.6:1"),
        3,
        "check_radius_sweep",
    ),
    "residual-probe": Workload(
        ("fig4", "--n", "1000", "--seeds", "3", "--families", "random,orthogonal"),
        22,
        "check_residual_probe",
    ),
    "train-probe": Workload(
        ("train-probe", "--n", "64", "--seeds", "1", "--grid", "0.05:0.45:3"),
        9,
        "check_train_probe",
    ),
}


@dataclass
class Launch:
    exit_code: int
    launched: float
    record: dict | None
    csv: Path
    spans: Path | None

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and self.record is not None

    @property
    def setup_s(self) -> float:
        return self.record["marks"]["validated"] - self.launched

    @property
    def wall_s(self) -> float:
        return self.record["marks"]["end"] - self.record["marks"]["start"]


class Runner:
    def __init__(self, root: Path, workload: Workload, seed: int, out: Path):
        self.root, self.workload, self.seed, self.out = root, workload, seed, out
        self.env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(root / "src")}
        self.count = 0

    def launch(self, setup_only: bool = False, traced: bool = False) -> Launch:
        self.count += 1
        stem = self.out / f"launch-{self.count:03d}"
        record_path, csv_path = stem.with_suffix(".json"), stem.with_suffix(".csv")
        spans_path = stem.with_suffix(".spans.json") if traced else None
        own = [str(record_path)]
        if setup_only:
            own.append("--setup-only")
        if spans_path is not None:
            own += ["--trace", str(spans_path)]
        argv = [sys.executable, str(HERE / "child.py"), *own, "--", *self.workload.args]
        argv += ["--seed", str(self.seed), "--threads", "1", "--out", str(csv_path)]
        with open(stem.with_suffix(".log"), "w", encoding="utf-8") as log:
            launched = time.monotonic()
            try:
                code = subprocess.run(
                    argv, cwd=self.root, env=self.env, stdout=log, stderr=log, timeout=LAUNCH_TIMEOUT_S
                ).returncode
            except subprocess.TimeoutExpired:
                code = -1
        record = json.loads(record_path.read_text()) if record_path.exists() else None
        return Launch(code, launched, record, csv_path, spans_path)


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[list[Launch], list[float]]:
    """Set-up samples, then experiment launches until the time is spent.

    In a traced run launches alternate untraced, traced.  A run makes at
    least three launches (two when traced), so that it has a median.
    """
    runner.launch(setup_only=True)  # compiles the checkout's bytecode
    setup = [] if trace else [runner.launch(setup_only=True) for _ in range(SETUP_LAUNCHES)]
    launches: list[Launch] = []
    durations: list[float] = []
    deadline = time.monotonic() + seconds
    minimum = 2 if trace else 3
    while True:
        started = time.monotonic()
        launches.append(runner.launch(traced=trace and len(launches) % 2 == 1))
        durations.append(time.monotonic() - started)
        if len(launches) >= minimum and time.monotonic() + statistics.median(durations) > deadline:
            break
    return launches, [s.setup_s for s in setup if s.ok]


def check(runner: Runner, launches: list[Launch]) -> tuple[int, list[str]]:
    """Failed cells over all launches, and every problem found."""
    import checks  # numpy loads here, with the single-threaded BLAS set in main

    workload = runner.workload
    problems: list[str] = []
    good = [x for x in launches if x.ok and x.csv.exists()]
    reference = good[0].csv.read_bytes() if good else b""
    same = [x for x in good if x.csv.read_bytes() == reference]
    failed = workload.cells * (len(launches) - len(same))
    if len(same) < len(launches):
        problems.append(f"{len(launches) - len(same)} launches failed or wrote a different CSV")
    if not same:
        return failed, problems
    rows = checks.read_rows(same[0].csv)
    manifest = Path(f"{same[0].csv}.manifest.json")
    config = json.loads(manifest.read_text())["config"]
    keys = {checks.cell_key(row) for row in rows}
    if len(keys) != workload.cells:
        problems.append(f"expected {workload.cells} sweep cells, the CSV has {len(keys)}")
    try:
        found = getattr(checks, workload.check)(rows, config, random.Random(runner.seed))
    except Exception:  # a deqlab call inside a check failed: report it, keep the result line
        traceback.print_exc(file=sys.stdout)
        return failed, problems + ["the check raised an exception (traceback above)"]
    bad = {p.split(": ", 1)[0] for p in found} & keys
    problems += found
    return failed + len(bad) * len(same), problems


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(launches: list[Launch], setup: list[float]) -> dict[str, dict]:
    timed = [x for x in launches if x.ok]
    return {
        "wall_s": {"value": median([x.wall_s for x in timed]), "unit": "s"},
        "setup_s": {"value": median(setup + [x.setup_s for x in timed]), "unit": "s"},
        "peak_rss_mib": {"value": median([x.record["peak_rss_kib"] / 1024.0 for x in timed]), "unit": "MiB"},
    }


def per_layer(launches: list[Launch]) -> dict[str, dict]:
    plain = [x.wall_s for x in launches[0::2] if x.ok]
    traced = [x for x in launches[1::2] if x.ok]
    runs = [spans.layer_metrics(json.loads(x.spans.read_text())) for x in traced]
    metrics = {}
    for layer, field in spans.LAYER_METRICS:
        name = f"{layer}.{field}"
        values = [m[name] for m, _ in runs]
        # counts repeat exactly between launches; times take the median
        value = median(values) if field == "self_s" else (values[0] if values else float("nan"))
        metrics[name] = {"value": value, "unit": spans.UNITS[field]}
    metrics["trace.overhead_s"] = {"value": median([x.wall_s for x in traced]) - median(plain), "unit": "s"}
    metrics["trace.other_s"] = {"value": median([other for _, other in runs]), "unit": "s"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    root = Path.cwd()
    if not (root / "src" / "deqlab" / "cli.py").is_file():
        print(f"error: {root} is not a deqlab checkout (no src/deqlab/cli.py)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    os.environ.update(BLAS_ENV)
    out = root / ".deqbench-out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runner = Runner(root, WORKLOADS[args.workload], args.seed, out)

    launches, setup = measure(runner, args.seconds, bool(args.trace))
    if not any(x.ok for x in launches):
        print(f"error: every launch failed; see the logs in {out}", file=sys.stderr)
        return 1
    metrics = per_layer(launches) if args.trace else end_to_end(launches, setup)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        print(f"launches: {len(launches)}, {len(launches) // 2} of them traced")
    else:
        print(f"launches: {len(launches)}, set-up samples: {len(setup) + len(launches)}")

    failed, problems = check(runner, launches)
    for problem in problems:
        print(f"check: {problem}")
    result = {
        "correct": not problems,
        "attempted": runner.workload.cells * len(launches),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

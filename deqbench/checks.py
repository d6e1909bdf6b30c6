"""Correctness checks on the CSV of each workload, run after the timed part.

Each check compares the experiment's rows with a computation written here,
apart from deqlab, or with a property the method must have.  Matrices and
inputs are redrawn from the documented seed derivation
(``SeedSequence(entropy=seed, spawn_key=(family_code, *labels))``) and the
ensemble definitions, not with deqlab's sampler.  Costly recomputations run
on a sample of the run's cells; ``pick=None`` recomputes every cell.

A check takes the CSV rows, the resolved config from the run's manifest and
the sampler of cells to recompute, and returns a list of problems.  A problem tied to a sweep cell starts
with that cell's key ``family:sqrt_v`` or ``family:delta``; any other
problem concerns the run as a whole.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
from pathlib import Path

import numpy as np

FAMILY_CODE = {"random": 0, "goe": 1, "orthogonal": 2}
STAT_COLUMNS = ("emp_mean", "emp_median", "emp_q25", "emp_q75")

# deqlab's fixed-point budgets for the experiments checked here.
FIG3_T_MAX, FIG3_TOL = 1000, 1e-9
FIG4_T_PROBE, FIG4_FLOOR, FIG4_CLIP, FIG4_OVERFLOW = 500, 1e-12, 1e6, 1e120
FIG4_GRID_MULTIPLES = np.linspace(0.8, 1.3, 11)
TRAIN_FORWARD_TOL, TRAIN_T_MAX, TRAIN_LOSS_CAP = 1e-10, 5000, 1e3


def read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def num(row: dict, column: str) -> float:
    text = row[column]
    return math.nan if text == "" else float(text)


def stream(seed: int, *labels: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(labels))
    return np.random.Generator(np.random.PCG64(ss))


def draw(family: str, n: int, v: float, seed: int, *labels: int) -> np.ndarray:
    """The ensemble matrix of the given stream, from the family definitions."""
    rng = stream(seed, FAMILY_CODE[family], *labels)
    a = rng.standard_normal((n, n))
    if family == "orthogonal":
        q, r = np.linalg.qr(a)
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        return math.sqrt(v) * (q * signs)
    if family == "random":
        return a * math.sqrt(v / n)
    w = np.triu(a, 1) * math.sqrt(v / n)
    w = w + w.T
    np.fill_diagonal(w, np.diag(a) * math.sqrt(2.0 * v / n))
    return w


def input_vector(family: str, n: int, seed: int, *labels: int) -> np.ndarray:
    return stream(seed, FAMILY_CODE[family], *labels, 1).standard_normal(n)


def summary(values) -> dict[str, float]:
    arr = np.asarray(values, dtype=float)
    return {
        "emp_mean": float(arr.mean()),
        "emp_median": float(np.median(arr)),
        "emp_q25": float(np.quantile(arr, 0.25)),
        "emp_q75": float(np.quantile(arr, 0.75)),
    }


def cell_key(row: dict) -> str:
    """``family:delta`` for fig1 rows, ``family:sqrt_v`` for the others."""
    return f"{row['family']}:{row['delta'] or row['sqrt_v']}"


def compare(row: dict, expected: dict[str, float], rel: float, atol: float = 0.0) -> list[str]:
    key = cell_key(row)
    problems = []
    for column, value in expected.items():
        got = num(row, column)
        if not abs(got - value) <= rel * abs(value) + atol:
            problems.append(f"{key}: {column} {got!r} != recomputed {value!r} (rel {rel})")
    return problems


def choose(items: list, pick: random.Random | None, k: int) -> list:
    return list(items) if pick is None else pick.sample(list(items), min(k, len(items)))


def _hard_tanh(config: dict) -> list[str]:
    """The references below iterate the hard-tanh map."""
    return [] if config["phi"] == "hard_tanh" else [f"phi is {config['phi']}, the checks need hard_tanh"]


def _finite_rows(rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        key = cell_key(row)
        if not all(math.isfinite(num(row, c)) for c in STAT_COLUMNS + ("theory",)):
            problems.append(f"{key}: non-finite statistic")
        elif not num(row, "emp_q25") <= num(row, "emp_median") <= num(row, "emp_q75"):
            problems.append(f"{key}: quartiles out of order")
    return problems


# ---------------------------------------------------------------------------
# length-variance (fig1): (1/N) sum sigma_i^-4 of I - W, by SVD
# ---------------------------------------------------------------------------


def check_length_variance(rows: list[dict], config: dict, pick: random.Random | None) -> list[str]:
    seed = config["seed"]
    problems = _finite_rows(rows)
    families = sorted({row["family"] for row in rows})
    for row in rows:
        key = cell_key(row)
        vc = 0.25 if row["family"] == "goe" else 1.0
        if not math.isclose(num(row, "v"), (1.0 - num(row, "delta")) * vc, rel_tol=1e-12):
            problems.append(f"{key}: v does not match delta")
        if row["diverged"] != "0":
            problems.append(f"{key}: {row['diverged']} seeds diverged")
    for family in families:
        cells = [(gi, row) for gi, row in enumerate(r for r in rows if r["family"] == family)]
        for gi, row in choose(cells, pick, 1):
            n, seeds, v = int(row["n"]), int(row["seeds"]), num(row, "v")
            values = []
            for rep in range(seeds):
                sv = np.linalg.svd(np.eye(n) - draw(family, n, v, seed, gi, rep), compute_uv=False)
                values.append(float(np.mean(sv**-4.0)))
            problems += compare(row, summary(values), 1e-6)
    orthogonal = [row for row in rows if row["family"] == "orthogonal"]
    if orthogonal:
        problems += _orthogonality(int(orthogonal[0]["n"]), num(orthogonal[0], "v"), seed)
    return problems


def _orthogonality(n: int, v: float, seed: int) -> list[str]:
    """deqlab's orthogonal draws must satisfy W^T W = V I."""
    from deqlab.ensembles import EnsembleSpec, Family, seed_for, sample

    w = sample(EnsembleSpec(Family.ORTHOGONAL, n, v), seed_for(seed, Family.ORTHOGONAL, 0, 0))
    err = float(np.abs(w.T @ w - v * np.eye(n)).max())
    return [] if err <= 1e-10 * max(v, 1.0) else [f"orthogonal draw: |W^T W - V I| = {err:.2e}"]


# ---------------------------------------------------------------------------
# radius-sweep (fig3): max |eig(W diag(phi'(h*)))| with h* from a plain loop
# ---------------------------------------------------------------------------


def hard_tanh_fixed_point(w: np.ndarray, x: np.ndarray, t_max: int, tol: float) -> np.ndarray:
    """h <- W clip(h) + W x from h = 0 until the step norm falls to tol."""
    n = x.size
    wx = w @ x
    h = np.zeros(n)
    for _ in range(t_max):
        h_next = w @ np.clip(h, -1.0, 1.0) + wx
        step = float(np.linalg.norm(h_next - h) / math.sqrt(n))
        h = h_next
        if not np.all(np.isfinite(h)) or np.linalg.norm(h) > FIG4_OVERFLOW or step <= tol:
            break
    return h


def check_radius_sweep(rows: list[dict], config: dict, pick: random.Random | None) -> list[str]:
    seed = config["seed"]
    problems = _hard_tanh(config) + _finite_rows(rows)
    for row in rows:
        if row["family"] == "orthogonal" and num(row, "emp_mean") > num(row, "sqrt_v"):
            problems.append(f"{cell_key(row)}: radius {row['emp_mean']} exceeds sqrt(V)")
    cells = []
    for family in sorted({row["family"] for row in rows}):
        family_rows = [r for r in rows if r["family"] == family]
        cells += [(family, gi, row) for gi, row in enumerate(family_rows)]
    for family, gi, row in choose(cells, pick, 1):
        key = cell_key(row)
        n, seeds, v = int(row["n"]), int(row["seeds"]), num(row, "v")
        values = []
        for rep in range(seeds):
            w = draw(family, n, v, seed, gi, rep)
            h = hard_tanh_fixed_point(w, input_vector(family, n, seed, gi, rep), FIG3_T_MAX, FIG3_TOL)
            gates = (np.abs(h) < 1.0).astype(float)
            radius = float(np.abs(np.linalg.eigvals(w * gates[None, :])).max())
            if family == "orthogonal" and radius > math.sqrt(v) * (1.0 + 1e-12):
                problems.append(f"{key}: eigvals radius {radius} exceeds sqrt(V)")
            values.append(radius)
        # deqlab's squaring estimator stops at a relative step of 1e-3
        problems += compare(row, summary(values), 5e-3)
    return problems


# ---------------------------------------------------------------------------
# residual-probe (fig4): settled grid points against a plain per-scale loop
# ---------------------------------------------------------------------------


def probe_residuals(w_unit: np.ndarray, x: np.ndarray, scale: float) -> list[float]:
    """Residuals deqlab may report for h <- s W (clip(h) + x) at one scale.

    The plain loop stops at the first step norm below FIG4_FLOOR, or after
    FIG4_T_PROBE steps.  deqlab steps all scales in one matrix product,
    which moves the last digits of a settling residual (by about 1e-3), so
    where the loop is within 1% of the floor deqlab may settle a step
    earlier or later: that step's residual is a candidate too.
    """
    n = x.size
    w = scale * w_unit
    state = {"h": np.zeros(n)}

    def step() -> float:
        h = state["h"]
        h_next = w @ (np.clip(h, -1.0, 1.0) + x)
        state["h"] = h_next
        if not np.all(np.isfinite(h_next)) or np.linalg.norm(h_next) > FIG4_OVERFLOW:
            return math.inf
        return min(float(np.linalg.norm(h_next - h) / math.sqrt(n)), FIG4_CLIP)

    trail: list[float] = []
    while len(trail) < FIG4_T_PROBE and (not trail or trail[-1] >= FIG4_FLOOR):
        trail.append(step())
        if trail[-1] == math.inf:
            return [FIG4_CLIP]
    candidates = [trail[-1]]
    if trail[-1] < FIG4_FLOOR:
        if len(trail) > 1 and trail[-2] < 1.01 * FIG4_FLOOR:
            candidates.append(trail[-2])
        if trail[-1] >= 0.99 * FIG4_FLOOR:
            candidates.append(step())
    return candidates


def check_residual_probe(rows: list[dict], config: dict, pick: random.Random | None) -> list[str]:
    seed = config["seed"]
    problems = _hard_tanh(config)
    for row in rows:
        key = cell_key(row)
        values = [num(row, c) for c in STAT_COLUMNS]
        if not all(0.0 <= value <= FIG4_CLIP for value in values):
            problems.append(f"{key}: residual statistic outside [0, {FIG4_CLIP}]")
        elif not num(row, "emp_q25") <= num(row, "emp_median") <= num(row, "emp_q75"):
            problems.append(f"{key}: quartiles out of order")
    families = sorted({row["family"] for row in rows})
    for family in families:
        family_rows = [r for r in rows if r["family"] == family]
        predicted = num(family_rows[0], "theory")
        if len(family_rows) != FIG4_GRID_MULTIPLES.size or any(
            not math.isclose(num(r, "sqrt_v"), predicted * m, rel_tol=1e-12)
            for r, m in zip(family_rows, FIG4_GRID_MULTIPLES)
        ):
            problems.append(f"{family}: grid is not 0.8-1.3 times the predicted critical scale")
            continue
        if family in ("random", "orthogonal"):
            low, high = family_rows[0], family_rows[-1]
            if not num(low, "emp_median") < 1e-3:
                problems.append(f"{cell_key(low)}: median {low['emp_median']} not below 1e-3")
            if not num(high, "emp_median") > 1e-3:
                problems.append(f"{cell_key(high)}: median {high['emp_median']} not above 1e-3")
    for family in choose(families, pick, 1):
        problems += _settled_points(family, [r for r in rows if r["family"] == family], seed)
    return problems


def _settled_points(family: str, family_rows: list[dict], seed: int) -> list[str]:
    """Grid points the CSV shows as settled, and the first one past them."""
    n, seeds = int(family_rows[0]["n"]), int(family_rows[0]["seeds"])
    settled = 0
    while settled < len(family_rows) and num(family_rows[settled], "emp_q75") < FIG4_FLOOR:
        settled += 1
    probed = family_rows[: settled + 1]
    candidates: list[list[list[float]]] = [[] for _ in probed]
    for rep in range(seeds):
        w_unit = draw(family, n, 1.0, seed, 7, rep)
        x = input_vector(family, n, seed, 7, rep)
        for gi, row in enumerate(probed):
            candidates[gi].append(probe_residuals(w_unit, x, num(row, "sqrt_v")))
    problems = []
    for gi, row in enumerate(probed):
        key = cell_key(row)
        all_settled = all(c[0] < FIG4_FLOOR for c in candidates[gi])
        if gi < settled:
            # settled residuals sit at the rounding level of h; 1e-2 holds them
            if not all_settled:
                problems.append(f"{key}: settled in the CSV but not in the per-scale loop")
            elif not any(
                not compare(row, summary(values), 1e-2) for values in itertools.product(*candidates[gi])
            ):
                problems.append(f"{key}: settled residuals differ from the per-scale loop")
        elif all_settled:
            problems.append(f"{key}: settled in the per-scale loop but not in the CSV")
    return problems


# ---------------------------------------------------------------------------
# train-probe: finite-difference gradient, and the smallest-scale cells
# ---------------------------------------------------------------------------


def hard_tanh_forward(w: np.ndarray, x: np.ndarray, tol: float = TRAIN_FORWARD_TOL) -> np.ndarray | None:
    """z <- clip(W z) + x from z = x; None when the budget runs out or z blows up."""
    n = x.size
    z = x.copy()
    for _ in range(TRAIN_T_MAX):
        z_next = np.clip(w @ z, -1.0, 1.0) + x
        step = float(np.linalg.norm(z_next - z) / math.sqrt(n))
        z = z_next
        if not np.all(np.isfinite(z)) or np.linalg.norm(z) > FIG4_OVERFLOW:
            return None
        if step <= tol:
            return z
    return None


def probe_dataset(teacher_seed: int, n_samples: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The training prefix of the synthetic regression task y = u.x + noise."""
    rng = np.random.default_rng(np.random.SeedSequence(teacher_seed))
    u = rng.standard_normal(dim) / math.sqrt(dim)
    xs = rng.standard_normal((n_samples, dim))
    ys = xs @ u + 0.1 * rng.standard_normal(n_samples)
    n_train = max(1, int(0.8 * n_samples))
    return xs[:n_train], ys[:n_train]


def train_cell(family, sqrt_v, rep, seed, dim, n_samples, lr, steps):
    """Final train loss and first step below half the initial loss, or None if diverged."""
    xs, ys = probe_dataset(seed + 1, n_samples, dim)
    w = draw(family, dim, sqrt_v * sqrt_v, seed, 11, rep)
    v = input_vector(family, dim, seed, 11, rep) / math.sqrt(dim)

    def loss_and_grads(w, v):
        z_stars = [hard_tanh_forward(w, x) for x in xs]
        if any(z is None for z in z_stars):
            return math.inf, None, None
        errors = np.array([v @ z for z in z_stars]) - ys
        grad_w, grad_v = np.zeros_like(w), np.zeros_like(v)
        for error, z in zip(errors, z_stars):
            gates = (np.abs(w @ z) < 1.0).astype(float)
            adjoint = np.linalg.solve(np.eye(dim) - (gates[:, None] * w).T, v)
            grad_w += (2.0 * error / len(xs)) * np.outer(gates * adjoint, z)
            grad_v += (2.0 * error / len(xs)) * z
        return float(np.mean(errors**2)), grad_w, grad_v

    loss0 = loss_and_grads(w, v)[0]
    if not math.isfinite(loss0):
        return None
    hit = None
    loss = loss0
    for step in range(1, steps + 1):
        loss, gw, gv = loss_and_grads(w, v)
        if gw is None or loss > TRAIN_LOSS_CAP:
            return None
        if hit is None and loss < 0.5 * loss0:
            hit = step
        w, v = w - lr * gw, v - lr * gv
    return loss, hit


def check_train_probe(rows: list[dict], config: dict, pick: random.Random | None) -> list[str]:
    seed, lr, steps, n_samples = config["seed"], config["lr"], config["steps"], config["dataset_size"]
    problems = _hard_tanh(config) + _vjp_against_finite_differences(seed)
    cells: dict[tuple[str, str], dict[str, dict]] = {}
    for row in rows:
        cells.setdefault((row["family"], row["sqrt_v"]), {})[row["statistic"]] = row
    for (family, sqrt_v), stats in cells.items():
        rate = num(stats["divergence_rate"], "emp_mean")
        loss = num(stats["mean_final_train_loss"], "emp_mean")
        if not 0.0 <= rate <= 1.0 or math.isfinite(loss) != (rate < 1.0):
            problems.append(f"{family}:{sqrt_v}: divergence rate {rate} and final loss {loss} disagree")
    smallest = min(float(s) for _, s in cells)
    low = [(f, s) for f, s in cells if float(s) == smallest]
    for family, sqrt_v in low:
        if num(cells[(family, sqrt_v)]["divergence_rate"], "emp_mean") != 0.0:
            problems.append(f"{family}:{sqrt_v}: the smallest-scale cell diverged")
    for family, sqrt_v in choose(low, pick, 1):
        stats = cells[(family, sqrt_v)]
        dim, seeds = int(stats["divergence_rate"]["n"]), int(stats["divergence_rate"]["seeds"])
        runs = [train_cell(family, float(sqrt_v), rep, seed, dim, n_samples, lr, steps) for rep in range(seeds)]
        if any(r is None for r in runs):
            problems.append(f"{family}:{sqrt_v}: the reference descent diverged")
            continue
        problems += compare(
            stats["mean_final_train_loss"],
            {"emp_mean": float(np.mean([loss for loss, _ in runs]))},
            1e-6,
        )
        hits = [hit for _, hit in runs if hit is not None]
        expected = str(float(np.median(hits))) if hits else ""
        if stats["median_steps_to_half_loss"]["emp_mean"] != expected:
            problems.append(f"{family}:{sqrt_v}: steps to half loss differ from the reference descent")
    return problems


def _vjp_against_finite_differences(seed: int, dim: int = 6) -> list[str]:
    """deqlab's implicit gradient of v . z* against central differences."""
    from deqlab.nonlinear_deq import HARD_TANH
    from deqlab.train_probe import deq_vjp

    rng = stream(seed, 99)
    w = rng.standard_normal((dim, dim))
    w *= 0.5 / np.linalg.norm(w, 2)  # spectral norm 1/2: the forward map contracts
    x, v = rng.standard_normal(dim), rng.standard_normal(dim)
    got = deq_vjp(w, x, HARD_TANH, v)
    eps = 1e-6
    expected = np.empty_like(w)
    for i in range(dim):
        for j in range(dim):
            bump = np.zeros_like(w)
            bump[i, j] = eps
            up = hard_tanh_forward(w + bump, x, tol=1e-14)
            down = hard_tanh_forward(w - bump, x, tol=1e-14)
            expected[i, j] = (v @ up - v @ down) / (2.0 * eps)
    err = float(np.abs(got - expected).max())
    scale = float(np.abs(expected).max())
    return [] if err <= 1e-6 * scale else [f"deq_vjp differs from finite differences by {err:.2e}"]

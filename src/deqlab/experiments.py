"""Experiments behind the command line: cells that each produce tidy result rows.

Each experiment is declared once, as an ``Experiment`` record in
``EXPERIMENTS``: its cells, the rows of one cell, its defaults, the kind of its
grid and the optional keys it reads.  ``run_cells`` runs every cell of a config.
Every Monte-Carlo cell runs its replicates through ``ensembles.over_seeds``,
which derives each stream from (seed, family, label, replicate), and this
module picks every label: the grid index for fig1-fig3 and moments, 7 for
fig4, 11 for train-probe, 21 and 22 for freeprob-check.  Results are
therefore independent of execution order and thread count.
"""

from __future__ import annotations

import concurrent.futures
import math
import time
from dataclasses import KW_ONLY, asdict, dataclass, field, fields, replace
from fractions import Fraction
from functools import partial

import numpy as np

from . import freeprob, numerics
from .analytic_moments import (
    WeightMode,
    catalan_generating,
    delta_to_scale,
    length_variance_theory,
    variance_factor_theory,
)
from .ensembles import EnsembleSpec, Family, over_seeds, sample, seed_for
from .linear_deq import length_variance, variance_factor
from .nonlinear_deq import (
    NONLINEARITIES,
    SIGMA_X_SQ,
    iterate_h,
    predict_critical_v,
    radius_empirical,
    radius_theory,
    residual_sweep,
    sigma_h_selfconsistent,
)
from .train_probe import descend, probe_dataset

DEFAULT_FIG1_DELTAS = (0.05, 0.075, 0.1, 0.15, 0.22, 0.3, 0.5, 0.7, 0.9)
DEFAULT_SQRT_V_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
ALL_FAMILIES = (Family.RANDOM, Family.GOE, Family.ORTHOGONAL)


@dataclass(frozen=True)
class ResultRow:
    """One statistic for one sweep cell, its fields in CSV column order; empty
    fields stay None in the CSV."""

    experiment: str
    _: KW_ONLY
    family: str = ""
    weight_mode: str = ""
    v: float | None = None
    delta: float | None = None
    sqrt_v: float | None = None
    n: int | None = None
    seeds: int | None = None
    statistic: str
    theory: float | None = None
    emp_mean: float | None = None
    emp_median: float | None = None
    emp_stderr: float | None = None
    emp_q25: float | None = None
    emp_q75: float | None = None
    diverged: int | None = None

    def as_csv(self) -> list[str]:
        # str of a float is its shortest round-trip repr
        return ["" if getattr(self, col) is None else str(getattr(self, col)) for col in CSV_COLUMNS]


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


def parse_grid(text: str) -> tuple[float, ...]:
    """``lo:hi:steps`` or ``lo:hi:steps:log`` into an ascending grid."""
    parts = text.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
        raise ValueError(f"grid must be lo:hi:steps or lo:hi:steps:log, got {text!r}")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 1 or hi < lo:
        raise ValueError(f"grid needs steps >= 1 and hi >= lo, got {text!r}")
    if steps == 1:
        if hi > lo:
            raise ValueError(f"a one-step grid is lo:lo:1, got {text!r}")
        return (lo,)
    if len(parts) == 4 and lo <= 0:
        raise ValueError("log grid requires lo > 0")
    grid = tuple(float(g) for g in (np.geomspace if len(parts) == 4 else np.linspace)(lo, hi, steps))
    if len(set(grid)) < steps:
        raise ValueError(f"grid points must be distinct, got {text!r}")
    return grid


def parse_families(text: str) -> tuple[Family, ...]:
    families = tuple(Family(t.strip()) for t in text.split(",") if t.strip())
    if len(set(families)) < len(families):
        raise ValueError(f"families must be distinct, got {text!r}")
    return families


def _setting(default, parse, help: str, choices: tuple[str, ...] | None = None):
    return field(default=default, metadata={"parse": parse, "help": help, "choices": choices})


@dataclass
class ExperimentConfig:
    """Every setting of one experiment run.

    Each field with ``parse`` metadata is a config-file key and a
    command-line flag (``dataset_size`` is ``--dataset-size``); ``parse``
    turns the text into the value.
    """

    experiment: str = field(metadata={"parse": str, "help": "experiment to run", "choices": None})
    n: int = _setting(1000, int, "matrix dimension (per-experiment default)")
    seed: int = _setting(0, int, "base seed for all derived streams (default 0)")
    seeds: int = _setting(20, int, "replicates per cell (per-experiment default)")
    families: tuple[Family, ...] = _setting(
        ALL_FAMILIES, parse_families, "comma list from random,goe,orthogonal (default all)"
    )
    grid: tuple[float, ...] | None = _setting(
        None, parse_grid, "lo:hi:steps or lo:hi:steps:log; deltas for fig1/moments, sqrt(V) for fig2-4"
    )
    out: str = _setting("", str, "CSV output path (default <experiment>.csv)")
    threads: int = _setting(1, int, "cell-level worker threads (default 1)")
    estimator: str = _setting("exact", str, "trace estimator (default exact)", ("exact", "hutchinson"))
    weight_mode: str = _setting("both", str, "moments weight mode (default both)", ("tied", "untied", "both"))
    phi: str = _setting("hard_tanh", str, "nonlinearity (default hard_tanh)", tuple(sorted(NONLINEARITIES)))
    lr: float = _setting(0.05, float, "train-probe learning rate (default 0.05)")
    steps: int = _setting(40, int, "train-probe descent steps (default 40)")
    dataset_size: int = _setting(32, int, "train-probe samples (default 32)")
    defaulted: tuple[str, ...] = field(default_factory=tuple)

    def as_manifest_dict(self) -> dict:
        d = asdict(self)
        d["families"] = [f.value for f in self.families]
        return d


# ---------------------------------------------------------------------------
# fig1, fig2, fig3: one row per (family, grid index, grid point) cell
# ---------------------------------------------------------------------------


def _sweep_cells(default_grid):
    """Family-major (family, grid index, grid point) cells over the config's grid."""
    return lambda config: [(f, gi, float(g)) for f in config.families for gi, g in enumerate(config.grid or default_grid)]


def _emp_columns(values) -> dict:
    """The ``emp_*`` columns of a cell's per-seed values; empty without any."""
    return {f"emp_{name}": value for name, value in asdict(numerics.summarize(values)).items()} if len(values) else {}


def length_variance_cell(config: ExperimentConfig, family: Family, gi: int, delta: float) -> list[ResultRow]:
    """fig1: tied length variance against the closed form."""
    v = delta_to_scale(family, WeightMode.TIED, delta)
    measure = partial(length_variance, EnsembleSpec(family, config.n, v), WeightMode.TIED, estimator=config.estimator)
    values, n_diverged = over_seeds(measure, config.seed, family, gi, config.seeds)
    common = dict(family=family.value, weight_mode=WeightMode.TIED.value, v=v, delta=delta, n=config.n, seeds=config.seeds)
    theory = length_variance_theory(family, WeightMode.TIED, v)
    return [ResultRow("fig1", statistic="length_variance_T", theory=theory, diverged=n_diverged, **common, **_emp_columns(values))]


def fixed_point_cell(config: ExperimentConfig, family: Family, gi: int, sqrt_v: float) -> list[ResultRow]:
    """fig2 and fig3: per seed, draw W and x and solve for h*.

    fig2 keeps ``|h*|^2 / N`` against the self-consistent variance; fig3 the
    spectral radius of ``W diag(phi'(h*))`` against its prediction.  Seeds
    that do not settle within 1000 steps fail."""
    phi = NONLINEARITIES[config.phi]
    v = sqrt_v * sqrt_v
    sigma_h_sq = sigma_h_selfconsistent(v, phi).sigma_h_sq
    if config.experiment == "fig2":
        statistic, theory = "sigma_h_sq", sigma_h_sq
    else:
        statistic, theory = "spectral_radius", radius_theory(family, v, phi, sigma_h_sq)
    spec = EnsembleSpec(family, config.n, v)

    def measure(seed) -> float | None:
        w = sample(spec, seed)
        x = seed.child(1).generator().standard_normal(config.n) * math.sqrt(SIGMA_X_SQ)
        fp = iterate_h(w, x, phi, t_max=1000, tol=1e-9)
        if not fp.converged:
            return None
        h = fp.solution
        return float(h @ h) / config.n if config.experiment == "fig2" else radius_empirical(w, h, phi)

    values, n_diverged = over_seeds(measure, config.seed, family, gi, config.seeds)
    common = dict(family=family.value, v=v, sqrt_v=sqrt_v, n=config.n, seeds=config.seeds, diverged=n_diverged)
    return [ResultRow(config.experiment, statistic=statistic, theory=theory, **common, **_emp_columns(values))]


# ---------------------------------------------------------------------------
# fig4: long-iteration residual and the predicted stability transition
# ---------------------------------------------------------------------------


def residual_cell(config: ExperimentConfig, family: Family) -> list[ResultRow]:
    """One family's grid, stepped as one stack per replicate.

    Default grid: 0.8x to 1.3x the family's predicted critical sqrt(V).
    ``diverged`` counts the replicates whose probe residual exceeds 1e-3.
    The residuals are clipped, so ``emp_stderr`` stays empty.
    """
    phi = NONLINEARITIES[config.phi]
    predicted = predict_critical_v(family, phi)
    grid = [float(g) for g in config.grid or [predicted * m for m in np.linspace(0.8, 1.3, 11)]]
    # every grid point of a replicate shares its draw, under the cell's one label 7
    columns, _ = over_seeds(partial(residual_sweep, family, grid, config.n, phi=phi), config.seed, family, 7, config.seeds)
    residuals = np.ascontiguousarray(np.transpose(columns))  # one row per grid scale
    common = dict(family=family.value, n=config.n, seeds=config.seeds, theory=predicted)
    return [
        ResultRow("fig4", statistic="residual_at_probe", v=sqrt_v**2, sqrt_v=sqrt_v, diverged=int(np.sum(row > 1e-3)),
                  **common, **(_emp_columns(row) | {"emp_stderr": None}))
        for sqrt_v, row in zip(grid, residuals)
    ]


# ---------------------------------------------------------------------------
# moments: closed forms with optional Monte-Carlo attachment
# ---------------------------------------------------------------------------

# (statistic, closed form) in row order; with seeds > 0 each gets Monte-Carlo columns
MOMENT_THEORIES = (
    ("variance_factor", variance_factor_theory),
    ("length_variance_T", length_variance_theory),
)


def _moment_cells(config: ExperimentConfig) -> list[tuple]:
    """(family, weight mode, grid index, delta) cells, family-major."""
    modes = (WeightMode.TIED, WeightMode.UNTIED) if config.weight_mode == "both" else (WeightMode(config.weight_mode),)
    grid = config.grid or DEFAULT_FIG1_DELTAS
    return [(f, mode, gi, float(delta)) for f in config.families for mode in modes for gi, delta in enumerate(grid)]


def moment_cell(config: ExperimentConfig, family: Family, mode: WeightMode, gi: int, delta: float) -> list[ResultRow]:
    v = delta_to_scale(family, mode, delta)
    common = dict(family=family.value, weight_mode=mode.value, v=v, delta=delta, n=config.n)
    out = [ResultRow("moments", statistic=name, theory=theory(family, mode, v), **common) for name, theory in MOMENT_THEORIES]
    if config.seeds > 0:
        spec = EnsembleSpec(family, config.n, v)
        measures = (partial(variance_factor, spec, mode), partial(length_variance, spec, mode, estimator=config.estimator))
        for i, measure in enumerate(measures):
            values, n_diverged = over_seeds(measure, config.seed, family, gi, config.seeds)
            out[i] = replace(out[i], seeds=config.seeds, diverged=n_diverged, **_emp_columns(values))
    return out


# ---------------------------------------------------------------------------
# freeprob-check: transform consistency rows
# ---------------------------------------------------------------------------


def freeprob_check_cell(config: ExperimentConfig) -> list[ResultRow]:
    rows: list[ResultRow] = []
    n = config.n

    def row(statistic, theory, observed, **kw):
        return ResultRow("freeprob-check", statistic=statistic, theory=theory, emp_mean=observed, **kw)

    # semicircle density peak via boundary-value recovery
    _, density = freeprob.density_from_stieltjes(freeprob.semicircle_stieltjes, freeprob.recovery_grid((-2.0, 2.0)))
    rows.append(row("semicircle_peak_density", 1.0 / math.pi, float(density.max())))

    # GOE resolvent moments: the Catalan generating function and the moment
    # recursion against contour coefficients and the closed form of M
    v = 0.1
    rows.append(row("goe_mgf_m1", catalan_generating(v), freeprob.goe_resolvent_moment(v, 1), v=v))
    series = freeprob.goe_resolvent_mgf(v, k_max=48)
    closed = freeprob.goe_resolvent_mgf_value(5.0, v)
    rows.append(row("goe_mgf_closed_vs_series_z5", abs(complex(closed)), abs(series.evaluate(5.0)), v=v))

    # gram-moment cubic: exact low moments and a Monte-Carlo cross-check
    m = freeprob.random_gram_moment_series(Fraction(1, 2), 2)
    rows.append(row("cubic_m1_at_half", 2.0, float(m.coefficient(1)), v=0.5))
    rows.append(row("cubic_m2_at_half", 16.0, float(m.coefficient(2)), v=0.5))
    v_mc = 0.25
    m_mc = freeprob.random_gram_moment_series(Fraction(1, 4), 3)
    spec = EnsembleSpec(Family.RANDOM, n, v_mc)

    def inverse_singular_moments(seed) -> tuple[float, float]:
        sv = np.linalg.svd(np.eye(n) - sample(spec, seed), compute_uv=False)
        return float(np.mean(sv**-4.0)), float(np.mean(sv**-6.0))

    mc, n_failed = over_seeds(inverse_singular_moments, config.seed, Family.RANDOM, 21, config.seeds)
    for k, values in zip((2, 3), zip(*mc)):
        common = dict(v=v_mc, n=n, seeds=config.seeds, diverged=n_failed, **_emp_columns(values))
        rows.append(ResultRow("freeprob-check", statistic=f"cubic_m{k}_vs_mc", theory=float(m_mc.coefficient(k)), **common))

    # contour fourth moment against the tied-GOE length-variance closed form
    grid = np.linspace(0.01, 0.24, 20)
    max_err = max(
        abs(freeprob.goe_resolvent_moment(float(x), 4) - length_variance_theory(Family.GOE, WeightMode.TIED, float(x)))
        for x in grid
    )
    rows.append(row("goe_second_moment_grid_max_abs_err", 0.0, max_err))

    # hard-tanh Jacobian spectrum against one empirical draw
    p, v_j = 0.5, 0.2
    seed = seed_for(config.seed, Family.GOE, 22, 0)
    w = sample(EnsembleSpec(Family.GOE, n, v_j), seed)
    gates = (seed.child(1).generator().random(n) < p).astype(float)
    root = np.sqrt(gates)
    # the full matrix, not radius_empirical's active block: the atom is the count of zero eigenvalues
    eigs = numerics.sym_spectrum(root[:, None] * w * root[None, :])
    zero = np.abs(eigs) < 1e-10
    atom_mass = float(np.mean(zero))
    radius = 2.0 * math.sqrt(v_j * p)
    continuous = eigs[~zero]
    # with every gate closed no eigenvalue is left to compare: the cell stays empty
    ks = freeprob.kolmogorov_distance(continuous, lambda x: freeprob.semicircle_cdf(x, radius)) if continuous.size else None
    rows.append(row("hardtanh_atom_mass", 1.0 - p, atom_mass, v=v_j, n=n))
    rows.append(row("hardtanh_continuous_ks", 0.0, ks, v=v_j, n=n))
    rows.append(row("hardtanh_second_moment", p * p * v_j, float(np.mean(eigs**2)), v=v_j, n=n))

    # spectral support of (I-W)^{-1} recovered from the transform
    lo, hi = freeprob.goe_resolvent_support(0.1)
    g_res = freeprob.goe_resolvent_stieltjes(0.1)
    grid, density = freeprob.density_from_stieltjes(g_res, freeprob.recovery_grid((lo, hi)))
    occupied = grid[density > 1e-3 * density.max()]
    rows.append(row("goe_resolvent_support_lo", lo, float(occupied.min()), v=0.1))
    rows.append(row("goe_resolvent_support_hi", hi, float(occupied.max()), v=0.1))
    return rows


# ---------------------------------------------------------------------------
# train-probe: gradient descent from each seed's draw, per (family, sqrt(V)) cell
# ---------------------------------------------------------------------------


def _train_cells(config: ExperimentConfig) -> list[tuple]:
    """(family, sqrt(V)) cells: families in name order, then sqrt(V) ascending."""
    return [(f, float(sqrt_v)) for f in sorted(config.families) for sqrt_v in config.grid or (0.05, 0.3, 0.6, 0.9, 1.2)]


def train_cell(config: ExperimentConfig, family: Family, sqrt_v: float) -> list[ResultRow]:
    """Descend from each seed's (W, v), drawn alike at every sqrt(V); the loss
    and the steps to half loss are over the runs that did not diverge (empty
    when none is left), and every row's ``diverged`` is the count of runs that did."""
    xs, ys = probe_dataset(config.seed + 1, config.dataset_size, config.n)
    spec = EnsembleSpec(family, config.n, sqrt_v * sqrt_v)

    def measure(seed):
        v = seed.child(1).generator().standard_normal(config.n) / math.sqrt(config.n)
        return descend(sample(spec, seed), v, xs, ys, config.lr, config.steps, NONLINEARITIES[config.phi])

    alive, n_diverged = over_seeds(measure, config.seed, family, 11, config.seeds)
    hits = [hit for _, hit in alive if hit is not None]
    stats = {
        "divergence_rate": n_diverged / config.seeds,
        "mean_final_train_loss": float(np.mean([loss for loss, _ in alive])) if alive else None,
        "median_steps_to_half_loss": float(np.median(hits)) if hits else None,
    }
    common = dict(family=family.value, v=sqrt_v**2, sqrt_v=sqrt_v, n=config.n, seeds=config.seeds, diverged=n_diverged)
    return [ResultRow("train-probe", statistic=name, emp_mean=value, **common) for name, value in stats.items()]


@dataclass(frozen=True)
class Experiment:
    """One experiment: ``cells`` maps a config to its cells and ``rows`` maps
    (config, *cell) to that cell's rows, in cell order; the defaults of ``n``
    and ``seeds``; what its grid holds; the optional keys it reads."""

    cells: object
    rows: object
    n: int
    seeds: int
    grid_kind: str | None = None  # "delta", "sqrt_v" or None (no grid)
    reads: tuple[str, ...] = ()


_SWEEP = ("families", "grid")
_FIXED_POINT = Experiment(_sweep_cells(DEFAULT_SQRT_V_GRID), fixed_point_cell, 1000, 20, "sqrt_v", (*_SWEEP, "phi"))
# name -> Experiment(cells, rows, n, seeds, grid_kind, reads)
EXPERIMENTS = {
    "fig1": Experiment(_sweep_cells(DEFAULT_FIG1_DELTAS), length_variance_cell, 2000, 5, "delta", _SWEEP),
    "fig2": _FIXED_POINT,
    "fig3": _FIXED_POINT,
    "fig4": Experiment(lambda config: [(f,) for f in config.families], residual_cell, 1000, 100, "sqrt_v", (*_SWEEP, "phi")),
    "moments": Experiment(_moment_cells, moment_cell, 1000, 0, "delta", (*_SWEEP, "weight_mode")),
    "freeprob-check": Experiment(lambda config: [()], freeprob_check_cell, 1000, 4),
    "train-probe": Experiment(_train_cells, train_cell, 64, 10, "sqrt_v", (*_SWEEP, "phi", "lr", "steps", "dataset_size")),
}


def run_cells(config: ExperimentConfig) -> tuple[list[ResultRow], list[dict]]:
    """Every cell of the config's experiment: the rows in cell order, and per cell
    ``{"cell": label, "wall_s": seconds, "diverged": {statistic: count}}``.

    ``config.threads`` cells run at once; with one thread they run in the
    calling thread.  A statistic's count sums ``diverged`` over the cell's rows
    (fig4's cell has one row per grid scale); rows without the column are left out.
    """
    experiment = EXPERIMENTS[config.experiment]
    cells = experiment.cells(config)

    def run_cell(cell) -> tuple[list[ResultRow], dict]:
        started = time.monotonic()
        rows = experiment.rows(config, *cell)
        wall_s = time.monotonic() - started
        diverged: dict[str, int] = {}
        for row in rows:
            if row.diverged is not None:
                diverged[row.statistic] = diverged.get(row.statistic, 0) + row.diverged
        label = ":".join(str(getattr(part, "value", part)) for part in cell)
        return rows, {"cell": label, "wall_s": wall_s, "diverged": diverged}

    if config.threads == 1:
        results = [run_cell(cell) for cell in cells]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(run_cell, cells))
    return [row for rows, _ in results for row in rows], [record for _, record in results]

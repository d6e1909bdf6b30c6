"""Acceptance suite: one test per exit criterion, full stated sizes.

Each test prints a single ``criterion NN PASS|FAIL (elapsed)`` line with the
key measured numbers, then asserts.  Run with ``pytest tests/test_acceptance.py
-v -s`` to watch the lines appear; the whole suite is sized for roughly
three-quarters of an hour on one core.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from deqlab import freeprob as fp
from deqlab import numerics
from deqlab.analytic_moments import (
    WeightMode,
    delta_to_scale,
    divergence_exponent,
    goe_tied_asymptotic,
    goe_tied_integral,
    length_variance_theory,
    variance_factor_theory,
)
from deqlab.ensembles import EnsembleSpec, Family, sample, seed_for
from deqlab.experiments import (
    ALL_FAMILIES,
    DEFAULT_FIG1_DELTAS,
    ExperimentConfig,
    run_fig4,
    run_sweep,
)
from deqlab.linear_deq import check_convergence_bound, estimate_moments
from deqlab.nonlinear_deq import (
    HARD_TANH,
    IDENTITY,
    ginibre_edge_factor,
    sigma_h_selfconsistent,
)
from deqlab.train_probe import deq_forward, deq_vjp

TIED = WeightMode.TIED


def _report(num: int, ok: bool, started: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status} ({time.monotonic() - started:.1f}s): {detail}")


def test_criterion_01_exact_formula_suite():
    started = time.monotonic()
    checks = []
    checks.append(abs(variance_factor_theory(Family.RANDOM, TIED, 0.5) - 1.0) < 1e-12)
    expected = {
        (Family.ORTHOGONAL, TIED, 0.5): 12.0,
        (Family.RANDOM, TIED, 0.5): 16.0,
        (Family.ORTHOGONAL, WeightMode.UNTIED, 0.5): 20.0 / 3.0,
        (Family.RANDOM, WeightMode.UNTIED, 0.5): 64.0 / 9.0,
        (Family.GOE, TIED, 0.125): 2.0**2.5,
    }
    for (family, mode, v), target in expected.items():
        got = length_variance_theory(family, mode, v)
        checks.append(abs(got - target) <= 1e-12 * target)
    series = fp.random_gram_moment_series(Fraction(1, 2), 2)
    checks.append(series.coefficient(1) == Fraction(2))
    checks.append(series.coefficient(2) == Fraction(16))
    grid = np.linspace(0.005, 0.245, 20)
    grid_err = max(
        abs(fp.goe_resolvent_moment(float(v), 4) - length_variance_theory(Family.GOE, TIED, float(v)))
        / length_variance_theory(Family.GOE, TIED, float(v))
        for v in grid
    )
    checks.append(grid_err <= 1e-12)
    ok = all(checks)
    _report(1, ok, started, f"exact values all matched; 20-point grid max rel err {grid_err:.2e}")
    assert ok


def test_criterion_02_divergence_exponents_and_edge_ratio():
    started = time.monotonic()
    lo, hi = 1e-3, 1e-2
    slopes = {}
    ok = True
    for family in ALL_FAMILIES:
        for mode in WeightMode:
            t_lo = length_variance_theory(family, mode, delta_to_scale(family, mode, lo))
            t_hi = length_variance_theory(family, mode, delta_to_scale(family, mode, hi))
            slope = (math.log(t_hi) - math.log(t_lo)) / (math.log(hi) - math.log(lo))
            slopes[(family.value, mode.value)] = slope
            ok &= abs(slope - divergence_exponent(family, mode)) <= 0.05
    delta = 0.05
    ratio = goe_tied_integral(((1 - delta) / 2) ** 2) / goe_tied_asymptotic(delta)
    ok &= 0.9 <= ratio <= 1.1
    tied = {k[0]: round(v, 3) for k, v in slopes.items() if k[1] == "tied"}
    _report(2, ok, started, f"tied slopes {tied}, untied ~-2, edge ratio {ratio:.4f}")
    assert ok


def test_criterion_03_length_variance_sweep():
    started = time.monotonic()
    config = ExperimentConfig("fig1", n=2000, seeds=5, seed=0, families=ALL_FAMILIES, grid=DEFAULT_FIG1_DELTAS)
    rows = {(r.family, round(r.delta, 6)): r for r in run_sweep(config)}
    ok = True
    details = []
    for delta in DEFAULT_FIG1_DELTAS:
        orth = rows[("orthogonal", round(delta, 6))]
        if delta >= 0.1:
            ratio = orth.emp_median / orth.theory
            ok &= 0.95 <= ratio <= 1.05
            details.append(f"orth d={delta}: {ratio:.3f}")
        for family, tol in (("goe", 0.10), ("random", 0.15)):
            if delta >= 0.3:
                row = rows[(family, round(delta, 6))]
                ratio = row.emp_median / row.theory
                ok &= abs(ratio - 1.0) <= tol
                details.append(f"{family} d={delta}: {ratio:.3f}")
    goe_mid = rows[("goe", 0.5)].emp_median
    orth_mid = rows[("orthogonal", 0.5)].emp_median
    ok &= goe_mid < orth_mid
    _report(3, ok, started, "; ".join(details) + f"; at d=0.5 goe {goe_mid:.2f} < orth {orth_mid:.2f}")
    assert ok


def test_criterion_04_goe_second_moment_arbitration():
    started = time.monotonic()
    n, v, n_seeds = 2000, 0.125, 200
    series_value = 4 * math.sqrt(2) - 5  # corrected Catalan-series sum
    printed_value = -0.7573593128807148  # uncorrected closed form in circulation
    values, n_diverged = estimate_moments(EnsembleSpec(Family.GOE, n, v), TIED, n_seeds, base_seed=0)
    stats = numerics.summarize(values)
    se = stats.stderr
    near_series = abs(stats.mean - series_value) <= 3 * se
    far_from_printed = abs(stats.mean - printed_value) >= 10 * se
    ok = near_series and far_from_printed and n_diverged == 0
    _report(
        4,
        ok,
        started,
        f"mc {stats.mean:.5f} +- {se:.5f}; series {series_value:.5f} at "
        f"{abs(stats.mean - series_value) / se:.1f} se; printed form at "
        f"{abs(stats.mean - printed_value) / se:.0f} se",
    )
    assert ok


def test_criterion_05_preactivation_variance_sweep():
    started = time.monotonic()
    config = ExperimentConfig("fig2", n=1000, seeds=20, seed=0, families=ALL_FAMILIES)
    rows = run_sweep(config)
    ok = True
    worst = 0.0
    exceed = 0
    goe_rows = [r for r in rows if r.family == "goe"]
    for row in rows:
        if row.family in ("random", "orthogonal") and row.diverged == 0:
            rel = abs(row.emp_mean / row.theory - 1.0)
            worst = max(worst, rel)
            ok &= rel <= 0.05
    for row in goe_rows:
        if row.emp_mean - row.theory > 3 * row.emp_stderr:
            exceed += 1
    ok &= 2 * exceed >= len(goe_rows)
    _report(
        5,
        ok,
        started,
        f"random/orth worst rel dev {worst:.3f} (<=0.05); goe above theory by >3se at "
        f"{exceed}/{len(goe_rows)} grid points",
    )
    assert ok


def test_criterion_06_spectral_radius_sweep():
    started = time.monotonic()
    config = ExperimentConfig("fig3", n=1000, seeds=20, seed=0, families=ALL_FAMILIES)
    rows = run_sweep(config)
    ok = True
    details = []
    for row in rows:
        dev = row.emp_mean / row.theory - 1.0
        if row.family == "random" and row.theory <= 0.9:
            # The N -> inf edge is the wrong reference for an N = 1000 extreme
            # statistic: the active m x m block is Ginibre, whose expected
            # radius overshoots the edge by ginibre_edge_factor(m).  m comes
            # from the predicted gate probability, never the measured one.
            p_active = sigma_h_selfconsistent(row.v, HARD_TANH).p_active
            reference = row.theory * ginibre_edge_factor(p_active * config.n)
            corrected = row.emp_mean / reference - 1.0
            ok &= abs(corrected) <= 0.02
            details.append(f"rand sv={row.sqrt_v:.1f}: {dev:+.3f} (finite-N {corrected:+.3f})")
        elif row.family == "orthogonal" and row.theory <= 0.9:
            ok &= abs(dev) <= 0.02
            details.append(f"orth sv={row.sqrt_v:.1f}: {dev:+.3f}")
        elif row.family == "goe" and row.sqrt_v <= 0.3:
            ok &= abs(dev) <= 0.05
            details.append(f"goe sv={row.sqrt_v:.1f}: {dev:+.3f}")
    _report(6, ok, started, "rel deviations " + ", ".join(details))
    assert ok


def test_criterion_07_residual_transition():
    started = time.monotonic()
    config = ExperimentConfig("fig4", n=1000, seeds=100, seed=0, families=ALL_FAMILIES)
    rows = run_fig4(config)
    ok = True
    details = []
    for family in ("random", "orthogonal", "goe"):
        fam_rows = sorted((r for r in rows if r.family == family), key=lambda r: r.sqrt_v)
        predicted = fam_rows[0].theory
        crossing = next((r.sqrt_v for r in fam_rows if r.emp_median > 1e-3), None)
        if family == "goe":
            ok &= crossing is None or crossing > predicted
            details.append(f"goe: crossing {crossing} vs predicted {predicted:.3f} (must be later)")
        else:
            ok &= crossing is not None and abs(crossing - predicted) <= 0.05 * predicted + 1e-9
            dev = abs(crossing - predicted) / predicted if crossing else math.nan
            details.append(f"{family}: crossing {crossing:.3f} vs predicted {predicted:.3f} ({dev:.1%})")
    _report(7, ok, started, "; ".join(details))
    assert ok


def test_criterion_08_gated_spectrum():
    started = time.monotonic()
    n, p, v = 2000, 0.5, 0.2
    seed = seed_for(0, Family.GOE, 40, 0)
    w = sample(EnsembleSpec(Family.GOE, n, v), seed)
    gates = (seed.child(1).generator().random(n) < p).astype(float)
    root = np.sqrt(gates)
    # the full matrix, not the active block, which would hold the atom by construction
    eigs = numerics.sym_spectrum(root[:, None] * w * root[None, :])
    zero = np.abs(eigs) < 1e-10
    atom_mass = float(np.mean(zero))
    radius = 2.0 * math.sqrt(v * p)
    ks = fp.kolmogorov_distance(eigs[~zero], lambda x: fp.semicircle_cdf(x, radius))
    ok = ks < 0.05 and abs(atom_mass - 0.5) <= 0.02
    _report(8, ok, started, f"KS {ks:.4f} (<0.05); atom mass {atom_mass:.4f} (0.5 +- 0.02)")
    assert ok


def test_criterion_09_implicit_gradient_suite():
    started = time.monotonic()
    worst = 0.0
    rng_sizes = np.random.default_rng(2024)
    ok = True
    for instance in range(50):
        n = int(rng_sizes.integers(5, 21))
        seed = seed_for(100 + instance, Family.RANDOM, 0, 0)
        w = sample(EnsembleSpec(Family.RANDOM, n, 0.09), seed)
        gen = seed.child(1).generator()
        x = gen.standard_normal(n)
        v = gen.standard_normal(n)
        for phi in (IDENTITY, HARD_TANH):
            grad = deq_vjp(w, x, phi, v)
            fd = np.empty_like(w)
            step = 1e-5
            for a in range(n):
                for b in range(n):
                    wp, wm = w.copy(), w.copy()
                    wp[a, b] += step
                    wm[a, b] -= step
                    zp = deq_forward(wp, x, phi, tol=1e-13).solution
                    zm = deq_forward(wm, x, phi, tol=1e-13).solution
                    fd[a, b] = (v @ zp - v @ zm) / (2 * step)
            rel = float(np.linalg.norm(grad - fd) / np.linalg.norm(fd))
            worst = max(worst, rel)
            ok &= rel < 1e-5
    _report(9, ok, started, f"worst relative gradient error {worst:.2e} over 100 checks")
    assert ok


def test_criterion_10_convergence_bound():
    started = time.monotonic()
    n, v, t, n_seeds = 500, 0.5, 15, 200
    x = np.ones(n)
    held = []
    for rep in range(n_seeds):
        w = sample(EnsembleSpec(Family.RANDOM, n, v), seed_for(7, Family.RANDOM, 50, rep))
        held.append(check_convergence_bound(w, x, t, v).holds)
    rate = float(np.mean(held))
    ok = rate >= 0.95
    _report(10, ok, started, f"bound held for {rate:.1%} of {n_seeds} seeds (needs >=95%)")
    assert ok


def test_criterion_11_bit_reproducibility(tmp_path):
    started = time.monotonic()
    from deqlab import cli

    outputs = {}
    for threads in (1, 4):
        for attempt in ("a", "b"):
            out = tmp_path / f"run_{threads}_{attempt}.csv"
            code = cli.main(
                [
                    "fig2",
                    "--n", "200",
                    "--seeds", "4",
                    "--grid", "0.2:0.6:3",
                    "--seed", "3",
                    "--threads", str(threads),
                    "--out", str(out),
                ]
            )
            assert code == 0
            outputs[(threads, attempt)] = out.read_bytes()
    ok = len(set(outputs.values())) == 1
    _report(11, ok, started, f"4 runs (threads 1 and 4, repeated) produced {len(set(outputs.values()))} distinct CSV byte streams")
    assert ok

"""Linear equilibrium layer: exact solutions, iteration, and the one-draw
measurements behind every statistic the closed forms predict.

The fixed point of ``z = W z + x`` is ``z* = (I - W)^{-1} x``.  Each
measurement takes one seed and draws from it alone; the caller picks the seeds
and averages over them.  A draw whose matrix is singular to tolerance raises
SingularMatrixError and one whose iteration overflows returns None, so the
caller can count it as diverged: near threshold, divergence is the phenomenon
under study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .analytic_moments import WeightMode, check_subcritical
from .ensembles import EnsembleSpec, SeedDerivation, sample


def solve_closed_form(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``z* = (I - W)^{-1} x``; raises SingularMatrixError at threshold."""
    w = np.asarray(w, dtype=float)
    return numerics.solve_linear(np.eye(w.shape[0]) - w, np.asarray(x, dtype=float))


def iterate_tied(
    w: np.ndarray, x: np.ndarray, t_max: int = 10_000, tol: float = 1e-10
) -> numerics.FixedPointResult:
    """Run ``z <- W z + x`` from the zero state with ``numerics.fixed_point``.
    Overflow yields a diverged result, not an exception."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    return numerics.fixed_point(lambda z, _: z @ w.T + x, np.zeros_like(x), t_max, tol)


def iterate_untied(spec: EnsembleSpec, x: np.ndarray, t: int, seed: SeedDerivation) -> np.ndarray:
    """State after t weight applications of ``z <- W_k z + x`` with a fresh
    matrix each step, starting from the zero state.

    t = 0 returns the zero initial state; for t >= 1 the deepest term of the
    unrolled sum carries t matrices, so the per-coordinate variance is
    ``(x.x / N) * sum_{k=1..t} V^k``.  Step k uses the stream
    ``seed.child(k)``.
    """
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    x = np.asarray(x, dtype=float)
    if t == 0:
        return np.zeros_like(x)
    z = x.copy()
    for k in range(1, t + 1):
        w = sample(spec, seed.child(k))
        z = w @ z + x
    return z


def untied_propagator(spec: EnsembleSpec, seed: SeedDerivation, t_stop: int) -> np.ndarray:
    """Truncated summed product ``M = I + W_1 + W_2 W_1 + ...`` with t_stop terms."""
    n = spec.dim
    m = np.eye(n)
    prod = np.eye(n)
    for k in range(1, t_stop + 1):
        w = sample(spec, seed.child(k))
        prod = w @ prod
        m += prod
    return m


def untied_truncation_depth(v: float) -> int:
    """Smallest t with ``V^t < 1e-6`` (series tail below the noise floor)."""
    if not 0.0 <= v < 1.0:
        raise ValueError(f"need 0 <= V < 1, got {v}")
    if v == 0.0:
        return 1
    return max(1, math.ceil(math.log(1e-6) / math.log(v)))


def variance_factor(spec: EnsembleSpec, mode: WeightMode, seed: SeedDerivation) -> float | None:
    """One draw's variance factor ``N Var[z*_i] / (x.x)`` for the all-ones
    input x; None when the iterate overflows.

    Uses the identity ``N Var[z*_i] = E[z*.z*] - x.x`` (mean is x), so each
    draw gives the self-averaging statistic ``(z*.z* - x.x)/(x.x)``.  Untied
    mode propagates to the truncation depth instead of solving; a singular
    tied matrix raises SingularMatrixError.  A scale at or beyond the critical
    one raises CriticalScaleError before the draw.
    """
    mode = WeightMode(mode)
    check_subcritical(spec.family, mode, spec.scale)
    x = np.ones(spec.dim)
    xx = float(x @ x)
    if mode is WeightMode.TIED:
        z = solve_closed_form(sample(spec, seed), x)
    else:
        z = iterate_untied(spec, x, untied_truncation_depth(spec.scale), seed)
    return (float(z @ z) - xx) / xx if np.all(np.isfinite(z)) else None


def length_variance(spec: EnsembleSpec, mode: WeightMode, seed: SeedDerivation, estimator: str = "exact") -> float:
    """One draw's fourth-moment factor ``tr[(M^T M)^2] / N``; a singular tied
    matrix raises SingularMatrixError.

    Tied: M = (I - W)^{-1}, the trace exact or Hutchinson (32 probes from the
    stream ``seed.child(10_001)``).  Untied: the summed product truncated where
    the scale bias drops below 1e-6, then the exact normalized trace.  Values
    are heavy-tailed near threshold for the non-orthogonal families, so callers
    report the median and quartiles alongside the mean.  A scale at or beyond
    the critical one raises CriticalScaleError before the draw.
    """
    mode = WeightMode(mode)
    if estimator not in ("exact", "hutchinson"):
        raise ValueError(f"unknown estimator mode {estimator!r}")
    check_subcritical(spec.family, mode, spec.scale)
    if mode is WeightMode.UNTIED:
        m = untied_propagator(spec, seed, untied_truncation_depth(spec.scale))
        gram = m.T @ m
        return float(np.sum(np.square(gram, out=gram))) / spec.dim
    w = sample(spec, seed)
    a = np.subtract(np.eye(spec.dim), w, out=w)  # I - W in the draw's buffer
    if estimator == "exact":
        return numerics.gram_inverse_sq_trace(a)
    return numerics.gram_inverse_sq_trace_hutchinson(a, seed.child(10_001).generator())[0]


@dataclass(frozen=True)
class BoundCheck:
    holds: bool
    lhs: float
    rhs: float
    diverged: bool = False


def check_convergence_bound(w: np.ndarray, x: np.ndarray, t: int, v: float) -> BoundCheck:
    """Check ``max_i |z*_i - (z_t)_i|^2 <= (2t / (1-V)) (x.x) V^{t+1}``.

    The bound is probabilistic over matrix draws, so callers aggregate the
    pass rate over seeds.  A singular ``I - W`` or an iterate that overflows
    within t steps yields a diverged record.
    """
    if not 0.0 <= v < 1.0:
        raise ValueError(f"need 0 <= V < 1, got {v}")
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    x = np.asarray(x, dtype=float)
    rhs = (2.0 * t / (1.0 - v)) * float(x @ x) * v ** (t + 1)
    try:
        z_star = solve_closed_form(w, x)
    except numerics.SingularMatrixError:
        return BoundCheck(False, math.inf, rhs, diverged=True)
    fp = iterate_tied(w, x, t_max=t, tol=0.0)
    if fp.final_residual == math.inf:
        return BoundCheck(False, math.inf, rhs, diverged=True)
    lhs = float(np.max((z_star - fp.solution) ** 2))
    return BoundCheck(lhs <= rhs, lhs, rhs)

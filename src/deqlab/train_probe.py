"""Desk-scale differentiable equilibrium layer.

The scalar readout ``f = v . z*`` with ``z* = phi(W z*) + x`` is
differentiated through the fixed point: one adjoint solve
``(I - (D W)^T) a = v`` with ``D = diag(phi'(W z*))`` gives the rank-one
gradient ``(D a) z*^T``.  A small gradient-descent sweep contrasts how the
matrix families tolerate learning at different initial scales; the sweep
measures, it does not assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .ensembles import EnsembleSpec, Family, sample, seed_for
from .nonlinear_deq import Nonlinearity


@dataclass(frozen=True)
class ProbeTask:
    """Synthetic regression task: targets ``y = u . x + noise``, fixed u and
    noise standard deviation 0.1.

    The readout vector and weights are trained on the first 80% (at least
    one) of the deterministically generated samples.
    """

    teacher_seed: int
    n_samples: int
    dim: int

    def dataset(self) -> tuple[np.ndarray, np.ndarray]:
        """The training inputs and targets."""
        rng = np.random.default_rng(np.random.SeedSequence(self.teacher_seed))
        u = rng.standard_normal(self.dim) / math.sqrt(self.dim)
        xs = rng.standard_normal((self.n_samples, self.dim))
        ys = xs @ u + 0.1 * rng.standard_normal(self.n_samples)
        n_train = max(1, int(0.8 * self.n_samples))
        return xs[:n_train], ys[:n_train]


def deq_forward(
    w: np.ndarray,
    x: np.ndarray,
    phi: Nonlinearity,
    tol: float = 1e-10,
    t_max: int = 5000,
) -> numerics.FixedPointResult:
    """Fixed point of ``z <- phi(W z) + x`` by direct iteration from x, with
    ``numerics.fixed_point``.

    Divergence is flagged (converged=False), not raised.
    """
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    return numerics.fixed_point(lambda z, _: phi.phi(w @ z) + x, x, t_max, tol)


def deq_vjp(
    w: np.ndarray,
    x: np.ndarray,
    phi: Nonlinearity,
    v: np.ndarray,
    z_star: np.ndarray | None = None,
    tol: float = 1e-12,
) -> np.ndarray:
    """Gradient of ``f = v . z*`` with respect to W, via the implicit function
    theorem.

    At the fixed point, ``df = v^T (I - D W)^{-1} D dW z*`` with the gate
    matrix D evaluated at the pre-activations ``W z*``; the returned array is
    ``(D (I - (D W)^T)^{-1} v) z*^T``.  Raises SingularMatrixError when the
    adjoint system is at threshold.
    """
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if z_star is None:
        fp = deq_forward(w, x, phi, tol=tol, t_max=20_000)
        if not fp.converged:
            raise numerics.SingularMatrixError("forward fixed point did not converge")
        z_star = fp.solution
    gates = np.asarray(phi.dphi(w @ z_star), dtype=float)
    adjoint = numerics.solve_linear(np.eye(w.shape[0]) - (gates[:, None] * w).T, v)
    return np.outer(gates * adjoint, z_star)


@dataclass(frozen=True)
class TrainRecord:
    family: Family
    sqrt_scale: float
    final_train_loss: float
    diverged: bool
    steps_to_threshold: int | None


@dataclass(frozen=True)
class TrainCellSummary:
    family: Family
    sqrt_scale: float
    divergence_rate: float
    mean_final_loss: float
    median_steps_to_threshold: float | None
    n_seeds: int


def _mse_and_grads(w, v, xs, ys, phi):
    """Loss, dL/dW, dL/dv over a batch; None gradients signal solver failure."""
    n_samples = xs.shape[0]
    preds = np.empty(n_samples)
    grad_w = np.zeros_like(w)
    grad_v = np.zeros_like(v)
    z_stars = []
    for i in range(n_samples):
        fp = deq_forward(w, xs[i], phi)
        if not fp.converged:
            return math.inf, None, None
        z_stars.append(fp.solution)
        preds[i] = v @ fp.solution
    errors = preds - ys
    loss = float(np.mean(errors**2))
    for i in range(n_samples):
        try:
            grad_w += (2.0 * errors[i] / n_samples) * deq_vjp(
                w, xs[i], phi, v, z_star=z_stars[i]
            )
        except numerics.SingularMatrixError:
            return loss, None, None
        grad_v += (2.0 * errors[i] / n_samples) * z_stars[i]
    return loss, grad_w, grad_v


def train_stability_sweep(
    task: ProbeTask,
    families,
    sqrt_v_grid,
    n_seeds: int,
    lr: float,
    steps: int,
    phi: Nonlinearity,
    base_seed: int = 0,
) -> list[TrainRecord]:
    """Plain gradient descent on (W, v) per (family, sqrt-scale, seed).

    A cell diverges when the forward solver fails or the train loss exceeds
    1e3; steps_to_threshold is the first step at which the train loss
    falls below half its initial value (absent for diverged runs).
    """
    xs_train, ys_train = task.dataset()
    records: list[TrainRecord] = []
    for family in families:
        family = Family(family)
        for sq in sqrt_v_grid:
            sq = float(sq)
            spec = EnsembleSpec(family, task.dim, sq * sq)
            for rep in range(n_seeds):
                seed = seed_for(base_seed, family, 11, rep)
                w = sample(spec, seed)
                v = seed.child(1).generator().standard_normal(task.dim) / math.sqrt(task.dim)
                loss, gw, gv = _mse_and_grads(w, v, xs_train, ys_train, phi)
                loss0 = loss
                diverged = not math.isfinite(loss0)
                steps_hit: int | None = None
                for step in range(1, steps + 1):
                    if step > 1:
                        loss, gw, gv = _mse_and_grads(w, v, xs_train, ys_train, phi)
                    if gw is None or loss > 1e3:
                        diverged = True
                        break
                    if steps_hit is None and loss < 0.5 * loss0:
                        steps_hit = step
                    w = w - lr * gw
                    v = v - lr * gv
                records.append(
                    TrainRecord(
                        family=family,
                        sqrt_scale=sq,
                        final_train_loss=float(loss) if math.isfinite(loss) else math.inf,
                        diverged=diverged,
                        steps_to_threshold=None if diverged else steps_hit,
                    )
                )
    return records


def summarize_sweep(records: list[TrainRecord]) -> list[TrainCellSummary]:
    cells: dict[tuple[Family, float], list[TrainRecord]] = {}
    for rec in records:
        cells.setdefault((rec.family, rec.sqrt_scale), []).append(rec)
    out = []
    for (family, sq), recs in sorted(cells.items(), key=lambda kv: (kv[0][0].value, kv[0][1])):
        alive = [r.final_train_loss for r in recs if not r.diverged]
        hits = [r.steps_to_threshold for r in recs if r.steps_to_threshold is not None]
        out.append(
            TrainCellSummary(
                family=family,
                sqrt_scale=sq,
                divergence_rate=float(np.mean([r.diverged for r in recs])),
                mean_final_loss=float(np.mean(alive)) if alive else math.inf,
                median_steps_to_threshold=float(np.median(hits)) if hits else None,
                n_seeds=len(recs),
            )
        )
    return out

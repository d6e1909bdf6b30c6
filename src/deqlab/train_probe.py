"""Desk-scale differentiable equilibrium layer.

The scalar readout ``f = v . z*`` with ``z* = phi(W z*) + x`` is
differentiated through the fixed point: one adjoint solve
``(I - (D W)^T) a = v`` with ``D = diag(phi'(W z*))`` gives the rank-one
gradient ``(D a) z*^T``.  Plain gradient descent from one draw of (W, v)
shows whether a matrix family tolerates learning at a given initial scale;
it measures, it does not assert.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics
from .nonlinear_deq import Nonlinearity


def probe_dataset(teacher_seed: int, n_samples: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Training inputs and targets of a synthetic regression task.

    Targets are ``y = u . x + noise`` with a fixed teacher u and noise
    standard deviation 0.1; the first 80% (at least one) of the
    deterministically generated samples are returned.
    """
    rng = np.random.default_rng(np.random.SeedSequence(teacher_seed))
    u = rng.standard_normal(dim) / math.sqrt(dim)
    xs = rng.standard_normal((n_samples, dim))
    ys = xs @ u + 0.1 * rng.standard_normal(n_samples)
    n_train = max(1, int(0.8 * n_samples))
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


def descend(w, v, xs, ys, lr: float, steps: int, phi: Nonlinearity) -> tuple[float, int | None] | None:
    """Plain gradient descent on (W, v) from one draw.

    Returns the loss at the last step and the first step whose loss falls
    below half the initial one (None if none does), or None when the run
    diverges: a forward solve fails, or, within the steps, the adjoint is
    singular or the loss exceeds 1e3 or is NaN.
    """
    loss0, gw, gv = _mse_and_grads(w, v, xs, ys, phi)
    if not math.isfinite(loss0):
        return None
    loss, hit = loss0, None
    for step in range(1, steps + 1):
        if step > 1:
            loss, gw, gv = _mse_and_grads(w, v, xs, ys, phi)
        if gw is None or not loss <= 1e3:
            return None
        if hit is None and loss < 0.5 * loss0:
            hit = step
        w = w - lr * gw
        v = v - lr * gv
    return loss, hit

"""Desk-scale differentiable equilibrium layer.

The scalar readout ``f = v . z*`` with ``z* = phi(W z*) + x`` is
differentiated through the fixed point: one adjoint solve
``(I - (D W)^T) a = v`` with ``D = diag(phi'(W z*))`` gives the rank-one
gradient ``(D a) z*^T``.  A step solves its samples' forward passes as one
stacked fixed point and their adjoints as one stacked LU solve.  Plain gradient
descent from one draw of (W, v) shows whether a matrix family tolerates
learning at a given initial scale; it measures, it does not assert.
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
    ``numerics.fixed_point``, for one input x or a (k x N) stack of inputs
    whose rows settle on their own; it converges only if every row settles.
    Divergence is flagged, not raised.
    """
    w = np.asarray(w, dtype=float)
    x_rows = np.array(x, dtype=float, ndmin=2)
    return numerics.fixed_point(lambda z, rows: phi.phi(z @ w.T) + x_rows[rows], x, t_max, tol)


def deq_vjp(
    w: np.ndarray,
    x: np.ndarray,
    phi: Nonlinearity,
    v: np.ndarray,
    z_star: np.ndarray | None = None,
    weights: np.ndarray | float = 1.0,
    tol: float = 1e-12,
) -> np.ndarray:
    """Gradient of ``f = v . z*`` with respect to W, via the implicit function
    theorem.

    At the fixed point, ``df = v^T (I - D W)^{-1} D dW z*`` with the gate
    matrix D evaluated at the pre-activations ``W z*``; the returned array is
    ``(D (I - (D W)^T)^{-1} v) z*^T``.  For a (k x N) stack of fixed points
    z_star, the adjoints are one stacked solve and the result is the
    ``weights``-weighted sum of the k gradients, formed as one product.
    Raises SingularMatrixError when any adjoint system is at threshold.
    """
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    if z_star is None:
        fp = deq_forward(w, x, phi, tol=tol, t_max=20_000)
        if not fp.converged:
            raise numerics.SingularMatrixError("forward fixed point did not converge")
        z_star = fp.solution
    z = np.atleast_2d(z_star)
    gates = np.asarray(phi.dphi(w @ z.T), dtype=float).T
    adjoint = gates[:, None, :] * -w.T  # the stack of I - (D_k W)^T, built in place
    diagonal = np.arange(len(v))
    adjoint[:, diagonal, diagonal] += 1.0
    gates *= numerics.solve_linear(adjoint, v) * np.reshape(weights, (-1, 1))
    return gates.T @ z


def _mse_and_grads(w, v, xs, ys, phi):
    """Loss, dL/dW, dL/dv over a batch; None gradients signal solver failure."""
    fp = deq_forward(w, xs, phi)
    if not fp.converged:
        return math.inf, None, None
    z_stars = fp.solution
    errors = z_stars @ v - ys
    loss = float(np.mean(errors**2))
    weights = 2.0 * errors / xs.shape[0]
    try:
        grad_w = deq_vjp(w, xs, phi, v, z_star=z_stars, weights=weights)
    except numerics.SingularMatrixError:
        return loss, None, None
    return loss, grad_w, weights @ z_stars


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

"""Dense linear-algebra and quadrature kernels used across the package.

All traces are N-normalized.  Kernels are pure functions of their inputs and
hold no shared state, so callers may run them concurrently on disjoint data.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg


class SingularMatrixError(ValueError):
    """Matrix singular to working tolerance (scale at or past threshold)."""


_OVERFLOW_NORM = 1e120


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of :func:`fixed_point`: where each row stopped, its final
    residual, the row-steps taken (summed over rows) and whether every row
    settled."""

    solution: np.ndarray
    iterations: int
    final_residual: np.ndarray | float
    converged: bool


def fixed_point(step, x0: np.ndarray, t_max: int, tol: float) -> FixedPointResult:
    """Iterate ``x <- step(x, rows)`` from x0 until it settles, overflows or
    the budget of t_max steps runs out.

    x0 is a vector or a (k x N) stack of rows; a vector runs as a one-row
    stack.  Each row stops on its own: ``step`` receives the (m x N) rows
    still running and their indices ``rows``.  The residual is the step norm
    ``||x' - x|| / sqrt(N)``; a row settles once it is at most tol, and
    overflows once it is not finite or its norm exceeds 1e120.  A row's final
    residual is ``inf`` after an overflow, or before any step, and the last
    (finite) one when the budget runs out.  ``solution`` has the shape of x0
    and ``final_residual`` that shape without its last axis.
    """
    states = np.array(x0, dtype=float, ndmin=2)
    x, residual, rows = states, math.inf, np.arange(len(states))
    out, sqrt_n, iterations = np.full(len(states), math.inf), math.sqrt(x.shape[-1]), 0
    with np.errstate(over="ignore"):  # squares of entries past ~1e154 overflow; an inf norm reads as overflow
        for _ in range(t_max):
            x_next = step(x, rows)
            iterations += rows.size
            d = x_next - x  # the norms are bit for bit np.linalg.norm(., axis=1), without its dispatch
            residual = np.sqrt(np.add.reduce(d * d, axis=1)) / sqrt_n
            x = x_next
            overflow = ~(np.sqrt(np.add.reduce(x * x, axis=1)) <= _OVERFLOW_NORM)
            stop = overflow | (residual <= tol)
            if not stop.any():
                continue
            out[rows[stop]] = np.where(overflow, math.inf, residual)[stop]
            states[rows[stop]] = x[stop]
            rows, x, residual = rows[~stop], x[~stop], residual[~stop]
            if rows.size == 0:
                break
    states[rows], out[rows] = x, residual
    shape = np.shape(x0)
    return FixedPointResult(states.reshape(shape), iterations, out.reshape(shape[:-1])[()], bool(np.all(out <= tol)))


@dataclass(frozen=True)
class Summary:
    """Mean, median, standard error and quartiles of a Monte-Carlo sample.

    ``stderr`` is None for a single value, which has no spread to report.
    """

    mean: float
    median: float
    stderr: float | None
    q25: float
    q75: float


def summarize(values) -> Summary:
    arr = np.asarray(values, dtype=float)
    return Summary(
        mean=float(arr.mean()),
        median=float(np.median(arr)),
        stderr=float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else None,
        q25=float(np.quantile(arr, 0.25)),
        q75=float(np.quantile(arr, 0.75)),
    )


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")


def _square_finite(a, min_dim: int = 1) -> np.ndarray:
    """a as a float array if it is a finite square matrix of size at least min_dim, else ValueError."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < min_dim:
        raise ValueError(f"expected a square matrix of size >= {min_dim}, got shape {a.shape}")
    _require_finite(a, "matrix")
    return a


def _raise_if_singular(r: np.ndarray) -> None:
    """Singular-to-tolerance test on the diagonal of a triangular factor (LU's U or QR's R)."""
    diag = np.abs(np.diag(r))
    if diag.min() <= r.shape[0] * np.finfo(float).eps * diag.max():
        raise SingularMatrixError("matrix is singular to working precision")


def _lu_factor_checked(a: np.ndarray):
    """LU with partial pivoting (LAPACK getrf), raising on singular-to-tolerance input."""
    lu, piv, _ = scipy.linalg.lapack.dgetrf(a)  # an exactly zero pivot (info > 0) fails the check
    _raise_if_singular(lu)
    return lu, piv


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` by LU with partial pivoting, for one matrix A or a
    (k x N x N) stack of them sharing b; a stack returns its k solutions as rows.

    Raises :class:`SingularMatrixError` when any A is singular to tolerance or
    its solve cannot reach a residual of ``1e-10 * ||b||`` after one step of
    iterative refinement.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _require_finite(a, "matrix")
    _require_finite(b, "right-hand side")
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    stack = a.reshape((-1,) + a.shape[-2:])
    b_norm = np.linalg.norm(b)
    xs = np.zeros((len(stack),) + b.shape)
    for i, m in enumerate(stack):
        lu, piv = _lu_factor_checked(m)
        if b_norm == 0.0:
            continue
        x = scipy.linalg.lapack.dgetrs(lu, piv, b)[0]
        resid = b - m @ x
        if np.linalg.norm(resid) > 1e-10 * b_norm:
            x = x + scipy.linalg.lapack.dgetrs(lu, piv, resid)[0]
            resid = b - m @ x
            if np.linalg.norm(resid) > 1e-10 * b_norm:
                raise SingularMatrixError(
                    f"residual {np.linalg.norm(resid) / b_norm:.3e} exceeds 1e-10; matrix is effectively singular"
                )
        xs[i] = x
    return xs if a.ndim == 3 else xs[0]


def gram_inverse_sq_trace(a: np.ndarray) -> float:
    """``(1/N) tr[((A^T A))^{-2}] = (1/N) sum_i sigma_i^{-4}`` exactly, without an SVD:
    the squared Frobenius norm of ``(A A^T)^{-1} = (R^T R)^{-1}``, with R from the QR
    of ``A^T`` (LAPACK geqrf at its queried workspace; for C-ordered A an F-ordered
    view), inverted in place by potri into its upper triangle.
    """
    a = _square_finite(a)
    n = a.shape[0]
    r = scipy.linalg.lapack.dgeqrf(a.T, lwork=int(scipy.linalg.lapack.dgeqrf_lwork(n, n)[0]))[0]
    _raise_if_singular(r)
    g = scipy.linalg.lapack.dpotri(r, overwrite_c=1)[0]
    np.copyto(g, 0.0, where=np.tri(n, k=-1, dtype=bool))  # the strict lower triangle holds QR's reflectors
    np.square(g, out=g)
    return float((2.0 * np.sum(g) - np.trace(g)) / n)


def gram_inverse_sq_trace_hutchinson(a: np.ndarray, rng: np.random.Generator, n_probes: int = 32) -> tuple[float, float]:
    """Stochastic estimate of ``(1/N) tr[((A^T A))^{-2}]`` with its stderr.

    Rademacher probes z give unbiased samples ``z^T B^2 z = ||B z||^2`` of the
    unnormalized trace, with ``B = (A^T A)^{-1}``; the reported standard error
    is the sample stderr over probes.  Estimator variance is
    ``2 * (||B^2||_F^2 - sum_i (B^2)_ii^2)`` per probe.
    """
    a = _square_finite(a)
    if n_probes < 2:
        raise ValueError("need at least 2 probes to report a standard error")
    n = a.shape[0]
    lu, piv = _lu_factor_checked(a)
    z = rng.integers(0, 2, size=(n, n_probes)) * 2.0 - 1.0
    # B z = A^{-1} (A^{-T} z), one pair of triangular solves per probe batch
    y = scipy.linalg.lapack.dgetrs(lu, piv, z, trans=1)[0]
    bz = scipy.linalg.lapack.dgetrs(lu, piv, y)[0]
    samples = np.sum(bz * bz, axis=0) / n
    est = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / np.sqrt(n_probes))
    return est, stderr


def sym_spectrum(s: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending; none for a 0 x 0 one.

    Rejects input whose asymmetry exceeds ``1e-12 * max(1, max|S|)``.
    """
    s = _square_finite(s, min_dim=0)
    scale = float(np.abs(s).max(initial=1.0))
    if float(np.abs(s - s.T).max(initial=0.0)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric to tolerance")
    return np.linalg.eigvalsh(s)


def spectral_radius_estimate(m: np.ndarray, tol: float = 1e-3) -> float:
    """Spectral radius of a (generally nonsymmetric) square matrix.

    Repeatedly squares a normalized copy of M and tracks
    ``||M^(2^k)||^(1/2^k)``, which converges to the radius regardless of
    complex conjugate-pair dominance.  Highly nonnormal matrices (e.g.
    rotation-times-projection products) hold a norm plateau near ||M|| for
    powers up to roughly the dimension, so the difference-based stopping rule
    is only consulted once the tracked power exceeds ``16 N``; stopping then
    requires successive estimates to agree to ``tol * max(rho, 0.1)``, within
    60 squarings.  The estimate approaches the radius from above.
    """
    m = _square_finite(m, min_dim=0)
    n = m.shape[0]
    norm = float(np.linalg.norm(m, 2)) if n <= 2 else float(np.linalg.norm(m, "fro"))
    if norm == 0.0:
        return 0.0
    b = m / norm
    log_scale = np.log(norm)  # log ||M^(2^k)|| ~= log_scale + log ||b||
    power = 1.0
    min_power = 16.0 * n
    prev = np.inf
    for _ in range(60):
        if 2.0 * power >= min_power:  # the stop rule reads no earlier estimate
            est = np.exp((log_scale + _log_two_norm(b)) / power)
            if power >= min_power and abs(est - prev) <= tol * max(est, 0.1):
                return float(est)
            prev = est
        b = b @ b
        c = float(np.linalg.norm(b, "fro"))
        if c == 0.0:  # nilpotent to machine precision
            return 0.0
        b /= c
        log_scale = 2.0 * log_scale + np.log(c)
        power *= 2.0
    return float(prev)


def _log_two_norm(b: np.ndarray) -> float:
    """log of the spectral norm, via a few power steps on B^T B."""
    n = b.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n))
    s = 0.0
    for _ in range(8):
        v = b.T @ (b @ v)
        s = float(np.linalg.norm(v))
        if s == 0.0:
            return -np.inf
        v /= s
    return 0.5 * np.log(s)


@functools.cache
def _hermgauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.hermite.hermgauss(n)


def gauss_hermite_expect(f, mean: float, variance: float) -> float:
    """``E[f(h)]`` for ``h ~ N(mean, variance)``.

    Gauss-Hermite with 64 nodes and a 128-node check; exact for polynomials
    up to degree 127.  When the two rules disagree (for tanh, from a variance
    of about 0.5 up), falls back to adaptive Gauss-Kronrod
    (``scipy.integrate.quad``, imported only then) on the standardized
    variable over 15 standard deviations: ~1e-15 absolute for smooth bounded
    f such as tanh.  Kinks are not located, so a window much narrower than
    the standard deviation (the hard-tanh gate ``|h| < 1`` at variance ~30
    and above) is missed; the 0/1 gates use ``Nonlinearity.gaussian_moments``
    instead.
    """
    if not np.isfinite(variance) or variance < 0:
        raise ValueError(f"variance must be finite and >= 0, got {variance}")
    if variance == 0.0:
        return float(f(np.asarray(mean)))
    sd = np.sqrt(variance)

    def rule(n: int) -> float:
        x, w = _hermgauss(n)
        vals = np.asarray(f(mean + np.sqrt(2.0) * sd * x), dtype=float)
        return float(np.sum(w * vals) / np.sqrt(np.pi))

    coarse, fine = rule(64), rule(128)
    if abs(fine - coarse) <= 1e-12 * max(1.0, abs(fine)):
        return fine

    def integrand(t: float) -> float:
        return float(f(np.asarray(mean + sd * t))) * np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)

    import scipy.integrate  # here, not at the top: its import would slow every launch, and only quad needs it

    with warnings.catch_warnings():
        # tolerance is requested at the roundoff floor; the warning that it
        # cannot be met is expected and the result is still ~1e-15 accurate
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        val, _ = scipy.integrate.quad(
            integrand, -15.0, 15.0, epsabs=1e-12, epsrel=1e-12, limit=500
        )
    return float(val)


"""Nonlinear equilibrium layer: pre-activation iteration, the scalar
self-consistent variance, and fixed-point stability theory vs. measurement.

The pre-activation map is ``h <- W phi(h) + W x``; its fixed point h* has
``z* = phi(h*) + x``.  Stability is governed by the spectral radius of
``W diag(phi'(h*))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .ensembles import EnsembleSpec, Family, SeedDerivation, sample

_RESIDUAL_CLIP = 1e6
_CONVERGE_FLOOR = 1e-12  # residual at which the fig4 probe stops a scale

SIGMA_X_SQ = 1.0  # input coordinate variance of every Monte-Carlo sweep


@dataclass(frozen=True)
class Nonlinearity:
    """Elementwise map with its derivative; monotone nondecreasing, phi(0)=0.

    ``gaussian_moments``, set for the 0/1 gates only (so E[phi'^2] = E[phi']),
    maps s to the closed forms ``(E[phi(h)^2], E[phi'(h)])``, h ~ N(0, s).
    """

    name: str
    phi: object
    dphi: object
    gaussian_moments: object = None


def _hard_tanh_moments(s: float) -> tuple[float, float]:
    """With a = 1/sqrt(2s): E[phi'] = erf(a) and E[phi^2] = E[h^2; |h| < 1] + erfc(a), where
    E[h^2; |h| < 1] = s P(3/2, a^2) = s Pr(chi^2_3 < 1/s) (Poole et al. 2016; Schoenholz et al. 2017).

    For a^2 < 1, s P(3/2, a^2) is the series (2a / (3 sqrt(pi))) e^{-a^2} sum_k a^{2k} / ((5/2)(7/2)...),
    whose terms are all positive, so the s -> inf tail does not cancel; otherwise it is
    s (erf(a) - (2a / sqrt(pi)) e^{-a^2}).
    """
    if s == 0.0:
        return 0.0, 1.0
    a = 1.0 / math.sqrt(s) / math.sqrt(2.0)
    z = 1.0 / (2.0 * s)
    if z < 1.0:
        term = total = 1.0
        k = 2.5
        while term > 1e-17 * total:
            term *= z / k
            total += term
            k += 1.0
        inside = 2.0 * a / (3.0 * math.sqrt(math.pi)) * math.exp(-z) * total
    else:
        inside = s * (math.erf(a) - 2.0 * a / math.sqrt(math.pi) * math.exp(-z))
    return inside + math.erfc(a), math.erf(a)


def _sech_sq(h):
    with np.errstate(over="ignore"):  # cosh(h)**2 overflows past |h| ~ 355, and 1/inf = 0 is the limit
        return 1.0 / np.cosh(np.asarray(h, dtype=float)) ** 2


IDENTITY = Nonlinearity("identity", lambda h: np.asarray(h, dtype=float), lambda h: np.ones_like(np.asarray(h, dtype=float)), lambda s: (s, 1.0))
HARD_TANH = Nonlinearity("hard_tanh", lambda h: np.clip(h, -1.0, 1.0), lambda h: (np.abs(np.asarray(h, dtype=float)) < 1.0).astype(float), _hard_tanh_moments)
TANH = Nonlinearity("tanh", np.tanh, _sech_sq)

NONLINEARITIES = {f.name: f for f in (IDENTITY, HARD_TANH, TANH)}
ZERO_ONE_GATES = tuple(f.name for f in NONLINEARITIES.values() if f.gaussian_moments)  # GOE radius in closed form


class SelfConsistencyError(RuntimeError):
    """The self-consistent variance has no bounded root."""


class UnsupportedNonlinearityError(ValueError):
    """GOE radius for this nonlinearity requires numerical free convolution."""


@dataclass(frozen=True)
class SelfConsistentState:
    """Solution of ``sigma_h^2 = V (E[phi(h)^2] + sigma_x^2)``.

    ``p_active`` is the mean derivative gate E[phi'(h)] under
    ``h ~ N(0, sigma_h^2)`` (the active-set probability for hard-tanh);
    ``iterations`` counts the bisection's halvings (0 when the excess at
    V sigma_x^2 is already >= 0, as at V = 0).
    """

    sigma_h_sq: float
    p_active: float
    iterations: int


def iterate_h(
    w: np.ndarray,
    x: np.ndarray,
    phi: Nonlinearity,
    t_max: int = 1000,
    tol: float = 1e-9,
) -> numerics.FixedPointResult:
    """Iterate ``h <- W phi(h) + W x`` from zero with ``numerics.fixed_point``.

    Divergence is recorded (converged=False), never raised.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("input vector contains non-finite entries")
    w = np.asarray(w, dtype=float)
    wx = w @ x
    return numerics.fixed_point(lambda h, _: phi.phi(h) @ w.T + wx, np.zeros(x.shape[0]), t_max, tol)


def sigma_h_selfconsistent(v: float, phi: Nonlinearity) -> SelfConsistentState:
    """Solve the scalar fixed point for the pre-activation variance.

    Models ``h_i ~ N(0, s)`` with inputs of coordinate variance SIGMA_X_SQ
    and finds the root of ``excess(s) = s - V (E[phi(h)^2] + SIGMA_X_SQ)``
    by bisection.  The bracket starts at V SIGMA_X_SQ, where the excess is
    -V E[phi^2] <= 0, and doubles until the excess is >= 0; past
    1e12 max(1, V) there is no bounded root.  About 50 halvings then narrow
    it to 4 eps times its lower end.  The 0/1 gates read their Gaussian
    moments in closed form; other maps go through quadrature.
    """
    if v < 0:
        raise ValueError("scale must be >= 0")
    closed = phi.gaussian_moments

    def excess(s: float) -> float:
        sig_phi = closed(s)[0] if closed else numerics.gauss_hermite_expect(lambda h: phi.phi(h) ** 2, 0.0, s)
        return s - v * (sig_phi + SIGMA_X_SQ)

    lo = hi = v * SIGMA_X_SQ
    while excess(hi) < 0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e12 * max(1.0, v) or math.isinf(hi):
            raise SelfConsistencyError(f"no self-consistent variance below {hi:.3g} at V={v}")
    s, halvings = _bisect(excess, lo, hi, 4.0 * np.finfo(float).eps * lo)
    p = closed(s)[1] if closed else numerics.gauss_hermite_expect(phi.dphi, 0.0, s)
    return SelfConsistentState(s, p, halvings)


def _bisect(f, lo: float, hi: float, width: float) -> tuple[float, int]:
    """Midpoint of ``[lo, hi]``, ``f(lo) < 0 <= f(hi)``, halved to at most ``width`` wide, and the
    halvings taken; ``0.5 * lo + 0.5 * hi`` rounds as ``0.5 * (lo + hi)`` but cannot overflow."""
    halvings = 0
    while hi - lo > width:
        mid = 0.5 * lo + 0.5 * hi
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
        halvings += 1
    return 0.5 * lo + 0.5 * hi, halvings


def radius_theory(family: Family, v: float, phi: Nonlinearity, sigma_h_sq: float) -> float:
    """Predicted spectral radius of ``W diag(phi'(h*))`` at the fixed point.

    This is the N -> infinity spectral edge; at finite N the largest
    eigenvalue modulus is an extreme statistic that sits above it (for the
    random family see ``ginibre_edge_factor``).

    Random/orthogonal: ``sqrt(V E[phi'(h)^2])`` with ``h ~ N(0, sigma_h^2)``.
    GOE with a 0/1 derivative gate (identity, hard-tanh): ``2 sqrt(V p)``.
    GOE with other monotone maps is not supported here; computing that radius
    needs a numerical free multiplicative convolution.
    """
    family = Family(family)
    if sigma_h_sq < 0:
        raise ValueError("sigma_h_sq must be >= 0")
    if phi.gaussian_moments is not None:
        p = phi.gaussian_moments(sigma_h_sq)[1]  # = E[phi'^2] for a 0/1 gate
        return (2.0 if family is Family.GOE else 1.0) * math.sqrt(v * p)
    if family is Family.GOE:
        raise UnsupportedNonlinearityError(f"GOE radius for {phi.name!r} requires numerical free convolution")
    gate_sq = numerics.gauss_hermite_expect(lambda h: phi.dphi(h) ** 2, 0.0, sigma_h_sq)
    return math.sqrt(v * gate_sq)


_EDGE_FACTOR_MIN_DIM = 500
_EULER_GAMMA = 0.5772156649015329


def ginibre_edge_factor(m: float) -> float:
    """Expected finite-size overshoot of a Ginibre spectral radius.

    For an m x m matrix with i.i.d. entries of variance ``r^2 / m`` the
    largest eigenvalue modulus is, to leading order (Rider, J. Phys. A 36
    (2003) 3401; real case: Rider & Sinclair, Ann. Appl. Probab. 24 (2014)
    1621),

        rho ~ r (1 + sqrt(g / 4m) + G / sqrt(4 m g)),
        g = log(m / 2 pi) - 2 log log m,

    with G a standard Gumbel variable.  Taking ``E[G]`` = Euler's gamma gives
    the returned factor ``E[rho] / r``.

    Applies only to the random family with a 0/1 derivative gate (identity,
    hard-tanh): the nonzero spectrum of ``W diag(g)`` is then that of the
    active m x m block, with ``m = p N`` and ``p`` the gate probability.  The
    expansion is asymptotic; below m = 500 its error grows past the
    Monte-Carlo spread (about 1% at m = 250), so such m raise ValueError.
    """
    m = float(m)
    if not math.isfinite(m) or m < _EDGE_FACTOR_MIN_DIM:
        raise ValueError(f"edge factor needs a finite dimension >= {_EDGE_FACTOR_MIN_DIM}, got {m}")
    g = math.log(m / (2.0 * math.pi)) - 2.0 * math.log(math.log(m))
    return 1.0 + math.sqrt(g / (4.0 * m)) + _EULER_GAMMA / math.sqrt(4.0 * m * g)


def radius_empirical(w: np.ndarray, h_star: np.ndarray, phi: Nonlinearity) -> float:
    """Spectral radius of ``W diag(phi'(h*))``, measured on its active block.

    Let A be the indices where ``g = phi'(h*)`` is nonzero, m = |A|.  With A
    put first, ``W diag(g)`` is block lower triangular,
    ``[[W_AA diag(g_A), 0], [W_BA diag(g_A), 0]]``, so its nonzero spectrum
    is that of the m x m block ``W_AA diag(g_A)``.  A 0/1 gate gives m ~ pN;
    tanh's gates vanish only past overflow, so there m = N and the result is
    that of the full matrix.

    Symmetric W (tested on the full matrix): same spectrum as
    ``diag(sqrt(g_A)) W_AA diag(sqrt(g_A))``, handled by the symmetric
    eigensolver (requires phi' >= 0 on every index).  Otherwise the
    normalized-squaring radius estimator on the block.  With every gate
    closed the radius is 0.
    """
    w = np.asarray(w, dtype=float)
    gates = np.asarray(phi.dphi(h_star), dtype=float)
    active = np.flatnonzero(gates)
    block = w[np.ix_(active, active)]  # a copy of W_AA
    scale = max(1.0, float(np.abs(w).max()))
    if float(np.abs(w - w.T).max()) <= 1e-12 * scale:
        if np.any(gates < 0):
            raise ValueError("symmetric path requires nonnegative phi' entries")
        root = np.sqrt(gates[active])
        eigs = numerics.sym_spectrum(root[:, None] * block * root[None, :])
        return float(np.abs(eigs).max(initial=0.0))
    block *= gates[active]
    return numerics.spectral_radius_estimate(block)


def predict_critical_v(
    family: Family,
    phi: Nonlinearity,
    bracket: tuple[float, float] = (0.05, 4.0),
) -> float:
    """Critical root scale: the sqrt(V) at which the predicted radius hits 1.

    Bisection on sqrt(V) of the coupled system (self-consistent variance,
    radius = 1) down to a width of 1e-4; returns the midpoint in sqrt(V) units.
    """

    def excess(sq: float) -> float:
        v = sq * sq
        try:
            state = sigma_h_selfconsistent(v, phi)
        except SelfConsistencyError:
            # No bounded variance solution: the layer is certainly unstable.
            return math.inf
        return radius_theory(family, v, phi, state.sigma_h_sq) - 1.0

    lo, hi = bracket
    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo >= 0 or f_hi <= 0:
        raise ValueError(
            f"radius does not cross 1 on the bracket {bracket}: "
            f"excess({lo})={f_lo:.3f}, excess({hi})={f_hi:.3f}"
        )
    return _bisect(excess, lo, hi, 1e-4)[0]


def residual_sweep(
    family: Family,
    sqrt_v_grid,
    n: int,
    seed: SeedDerivation,
    t_probe: int = 500,
    phi: Nonlinearity = HARD_TANH,
) -> np.ndarray:
    """Step-norm residual after t_probe iterations of one draw, one entry per
    sqrt(V) of the grid.

    The draw is one unit-scale base matrix from ``seed`` and an input with
    i.i.d. N(0, SIGMA_X_SQ) coordinates from ``seed.child(1)``; the matrix is
    rescaled across the grid (the sweep probes scale dependence at fixed
    disorder), so each grid point's marginal law is exact.  The scales share
    one matrix, so each step is a single product of the states still running
    (one row per scale) with ``W_unit^T``; a row leaves once it overflows or
    settles at a residual of 1e-12.  Residuals are clipped at 1e6.
    """
    w_unit = sample(EnsembleSpec(family, n, 1.0), seed)
    x = seed.child(1).generator().standard_normal(n) * math.sqrt(SIGMA_X_SQ)
    scales = np.asarray(sqrt_v_grid, dtype=float)
    fp = numerics.fixed_point(
        lambda h, rows: ((phi.phi(h) + x) @ w_unit.T) * scales[rows, None],
        np.zeros((scales.size, n)),
        t_probe,
        _CONVERGE_FLOOR,
    )
    return np.minimum(fp.final_residual, _RESIDUAL_CLIP)

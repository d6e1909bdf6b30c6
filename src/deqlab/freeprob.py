"""Resolvent transforms, moment recursions, and spectral-density recovery.

Branch conventions.  Every square root of a quadratic ``(z - a)(z - b)`` is
evaluated as ``sqrt(z - a) * sqrt(z - b)`` with principal-branch square roots,
which places the cut exactly on the real segment ``[a, b]`` and selects the
sheet on which the transform behaves like ``1/z`` at infinity.  With that
choice every transform here maps the upper half plane into the closed lower
half plane (Herglotz property), so spectral densities recovered from boundary
values are non-negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .analytic_moments import CriticalScaleError, length_variance_theory
from .ensembles import Family
from .numerics import SpectralDensity


@dataclass(frozen=True)
class PowerSeries:
    """Truncated series ``sum_{k>=1} c_k z^{-k}`` (moment generating function).

    The constant coefficient is stored and must be zero.  Coefficients may be
    exact :class:`fractions.Fraction` values or floats.
    """

    coefficients: tuple

    def __post_init__(self) -> None:
        coeffs = tuple(self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if not coeffs or coeffs[0] != 0:
            raise ValueError("moment generating series must have zero constant term")

    def coefficient(self, k: int):
        return self.coefficients[k]

    def evaluate(self, z: complex) -> complex:
        """Partial sum at z (Horner in 1/z)."""
        w = 1.0 / z
        acc = 0.0 + 0.0j
        for c in reversed(self.coefficients):
            acc = acc * w + complex(c)
        return acc


def _sqrt_two_cuts(z, a: float, b: float):
    """Principal-branch ``sqrt(z - a) * sqrt(z - b)``; cut on [a, b], ~ z at infinity."""
    z = np.asarray(z, dtype=complex)
    return np.sqrt(z - a) * np.sqrt(z - b)


def semicircle_stieltjes(z, v: float = 1.0):
    """Stieltjes transform of the semicircle of radius ``2 sqrt(V)``.

    ``G(z) = (z - sqrt(z^2 - 4V)) / (2V)``; behaves like ``1/z`` at infinity
    and has negative imaginary part just above the cut.  Real z inside the
    open support is rejected (on-cut evaluation is undefined).
    """
    if v < 0:
        raise ValueError(f"scale must be >= 0, got {v}")
    z = np.asarray(z, dtype=complex)
    r = 2.0 * math.sqrt(v)
    on_cut = (z.imag == 0) & (np.abs(z.real) < r)
    if np.any(on_cut):
        raise ValueError("on-cut real argument; evaluate off the real axis")
    if v == 0.0:
        out = 1.0 / z
    else:
        out = (z - _sqrt_two_cuts(z, -r, r)) / (2.0 * v)
    return complex(out) if out.ndim == 0 else out


def semicircle_density(x, radius: float, mass: float = 1.0):
    x = np.asarray(x, dtype=float)
    inside = np.clip(radius * radius - x * x, 0.0, None)
    return 2.0 * mass / (math.pi * radius * radius) * np.sqrt(inside)


def semicircle_cdf(x, radius: float):
    x = np.asarray(x, dtype=float)
    t = np.clip(x / radius, -1.0, 1.0)
    return 0.5 + (t * np.sqrt(1.0 - t * t) + np.arcsin(t)) / math.pi


def kolmogorov_distance(samples: np.ndarray, cdf) -> float:
    """sup-norm distance between the empirical CDF of samples and a CDF."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


# ---------------------------------------------------------------------------
# GOE resolvent of (I - W)^{-1}
# ---------------------------------------------------------------------------


def goe_resolvent_support(v: float) -> tuple[float, float]:
    """Spectral support of ``(I - W)^{-1}`` for GOE W at scale V < 1/4."""
    if not 0.0 <= v < 0.25:
        raise CriticalScaleError(v, 0.25)
    s = 2.0 * math.sqrt(v)
    return 1.0 / (1.0 + s), 1.0 / (1.0 - s)


def goe_resolvent_mgf_value(z, v: float):
    """Closed-form MGF ``M(z) = sum_k tr[(I-W)^{-k}] z^{-k}`` for GOE W.

    Root of ``(z - 1) M = 1 + V z^2 M^2`` that vanishes like
    ``f_c(V)/z`` at infinity:
    ``M(z) = ((z-1) - sqrt((z-1)^2 - 4 V z^2)) / (2 V z^2)``.
    The discriminant factors through the support edges, so the square root is
    taken as ``sqrt(1-4V) * sqrt(z - a) * sqrt(z - b)`` (principal branches).
    """
    if not 0.0 <= v < 0.25:
        raise CriticalScaleError(v, 0.25)
    z = np.asarray(z, dtype=complex)
    if v == 0.0:
        out = 1.0 / (z - 1.0)
    else:
        a, b = goe_resolvent_support(v)
        root = math.sqrt(1.0 - 4.0 * v) * _sqrt_two_cuts(z, a, b)
        out = ((z - 1.0) - root) / (2.0 * v * z * z)
    return complex(out) if out.ndim == 0 else out


def goe_resolvent_stieltjes(v: float):
    """``G(z) = (M(z) + 1) / z`` for the spectrum of ``(I - W)^{-1}``."""

    def g(z):
        z = np.asarray(z, dtype=complex)
        return (goe_resolvent_mgf_value(z, v) + 1.0) / z

    return g


def goe_resolvent_mgf(v: float, k_max: int = 8) -> PowerSeries:
    """Moment series of ``(I - W)^{-1}`` extracted order by order.

    In ``w = 1/z`` the defining quadratic reads
    ``V M^2 - w (1 - w) M + w^2 = 0``; matching powers of w gives
    ``m_1 = f_c(V)`` and, for k >= 2,
    ``m_k = (m_{k-1} + V sum_{i=2}^{k-1} m_i m_{k+1-i}) / sqrt(1 - 4V)``.
    """
    if not 0.0 <= v < 0.25:
        raise CriticalScaleError(v, 0.25)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    disc = math.sqrt(1.0 - 4.0 * v)
    m = [0.0, (1.0 - disc) / (2.0 * v) if v > 0 else 1.0]
    for k in range(2, k_max + 1):
        conv = sum(m[i] * m[k + 1 - i] for i in range(2, k))
        m.append((m[k - 1] + v * conv) / disc)
    return PowerSeries(tuple(m))


def goe_gram_second_moment(v: float) -> float:
    """``tr[((I-W)^{-T}(I-W)^{-1})^2] / N`` for GOE W, closed form.

    Evaluates ``(1/4V) ((1-4V)^{-5/2} - (1-4V)^{-3/2})`` (limit 1 at V = 0)
    and cross-checks it against the numerically differentiated series
    generator: ``(1/4!) d^4 M / dw^4`` at ``w = 0``, read off as the fourth
    contour coefficient of ``M(w)`` on a circle of half the convergence
    radius.  Real-step stencils lose up to three digits near threshold; the
    contour rule is uniformly accurate, so the two sides must agree to 1e-6
    relative everywhere below threshold.
    """
    if not 0.0 <= v < 0.25:
        raise CriticalScaleError(v, 0.25)
    if v == 0.0:
        return 1.0
    u = 1.0 - 4.0 * v
    closed = (u**-2.5 - u**-1.5) / (4.0 * v)

    def m_of_w(w):
        # M(w) = w * g(w - 1) with the rationalized, cancellation-free form
        # g(x) = 2 / (-x + sqrt(x^2 - 4V)).
        x = w - 1.0
        return w * 2.0 / (-x + np.sqrt(x * x - 4.0 * v))

    # M is analytic in |w| < 1 - 2 sqrt(V); sample at half that radius.
    radius = 0.5 * (1.0 - 2.0 * math.sqrt(v))
    theta = 2.0 * np.pi * np.arange(128) / 128
    ring = radius * np.exp(1j * theta)
    numeric = float(np.mean(m_of_w(ring) * np.exp(-4j * theta)).real / radius**4)
    if abs(numeric - closed) > 1e-6 * max(1.0, abs(closed)):
        raise AssertionError(
            f"fourth-derivative check {numeric!r} disagrees with closed form {closed!r}"
        )
    return closed


# ---------------------------------------------------------------------------
# Moment series of ((I - W)^T (I - W))^{-1} for i.i.d. random W
# ---------------------------------------------------------------------------


def random_gram_moment_series(v, k_max: int) -> PowerSeries:
    """Moments ``m_k = tr[((I-W)^T(I-W))^{-k}] / N`` for i.i.d. Gaussian W.

    The MGF satisfies the cubic ``V^2 M^3 + 2 V w M^2 + ((V-1) w + w^2) M
    + w^2 = 0`` in ``w = 1/z``; matching powers of w yields a second-order
    recursion whose order-k equation is linear in ``m_{k-1}``.  Arithmetic is
    exact (fractions) when V is given as a Rational, float otherwise.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    exact = isinstance(v, Rational) and not isinstance(v, float)
    vv = Fraction(v) if exact else float(v)
    if not 0 <= vv < 1:
        raise CriticalScaleError(float(vv), 1.0)
    one = Fraction(1) if exact else 1.0
    m = {1: one / (1 - vv)}
    for k in range(3, k_max + 2):
        m3 = sum(
            m[i] * m[j] * m[k - i - j]
            for i in range(1, k - 1)
            for j in range(1, k - i)
            if k - i - j >= 1
        )
        m2 = sum(m[i] * m[k - 1 - i] for i in range(1, k - 1))
        low = m[k - 2] if k - 2 >= 1 else 0
        m[k - 1] = (vv * vv * m3 + 2 * vv * m2 + low) / (1 - vv)
    zero = Fraction(0) if exact else 0.0
    return PowerSeries((zero,) + tuple(m[k] for k in range(1, k_max + 1)))


# ---------------------------------------------------------------------------
# Hard-tanh Jacobian spectrum and density recovery
# ---------------------------------------------------------------------------


def hardtanh_jacobian_density(p: float, v: float) -> SpectralDensity:
    """Spectrum of ``diag(phi') W`` for GOE W at scale V, hard-tanh phi.

    An atom at 0 of mass ``1 - p`` plus a semicircle of mass p and radius
    ``2 sqrt(V p)``; p is the active-gate probability P(|h| < 1).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"active probability must lie in [0, 1], got {p}")
    if v < 0:
        raise ValueError(f"scale must be >= 0, got {v}")
    radius = 2.0 * math.sqrt(v * p)
    if p == 0.0 or radius == 0.0:
        return SpectralDensity(atoms=((0.0, 1.0),), grid=np.array([-1.0, 1.0]), density=np.zeros(2))
    grid = np.linspace(-radius, radius, 2001)
    density = semicircle_density(grid, radius, mass=p)
    density *= p / np.trapezoid(density, grid)  # pin the trapezoidal mass to p exactly
    atoms = ((0.0, 1.0 - p),) if p < 1.0 else ()
    return SpectralDensity(atoms=atoms, grid=grid, density=density)


def density_from_stieltjes(g, grid: np.ndarray) -> SpectralDensity:
    """Recover a spectral density from the boundary values ``-Im G(x + i eps)/pi``
    of any callable transform G.

    Evaluates at eps = 1e-3 and 2 eps and extrapolates linearly to the axis.
    Raises on Herglotz violations.  The transform must have no atoms (their
    1/eps spikes are not separated out).  The recovered density carries
    smoothing error O(eps), so normalization is only enforced loosely.
    """
    eps = 1e-3
    grid = np.asarray(grid, dtype=float)
    g1 = np.asarray(g(grid + 1j * eps), dtype=complex)
    g2 = np.asarray(g(grid + 2j * eps), dtype=complex)
    tol = 1e-9 * max(1.0, float(np.abs(g1).max()))
    if np.any(g1.imag > tol) or np.any(g2.imag > tol):
        raise ValueError("Herglotz violation: Im G > 0 in the upper half plane")
    rho1 = -g1.imag / math.pi
    rho2 = -g2.imag / math.pi
    density = np.clip(2.0 * rho1 - rho2, 0.0, None)
    return SpectralDensity(atoms=(), grid=grid, density=density, norm_tol=0.05)


def recovery_grid(support: tuple[float, float], n_grid: int = 2001) -> np.ndarray:
    """Default recovery grid: n points over 1.2x the predicted support."""
    lo, hi = support
    center, half = 0.5 * (lo + hi), 0.6 * (hi - lo)
    return np.linspace(center - half, center + half, n_grid)


def goe_gram_length_variance_consistency(v: float) -> float:
    """|goe_gram_second_moment - tied-GOE T(V)|; the two are one formula."""
    return abs(goe_gram_second_moment(v) - length_variance_theory(Family.GOE, "tied", v))

"""Closed-form moment predictions per (family, weight mode, scale).

Conventions used throughout:

* ``V`` is the squared scale (normalized trace of ``W^T W``).
* ``V_c`` is the critical scale: 1/4 for tied GOE, 1 otherwise.
* ``delta = 1 - V / V_c`` is the distance to threshold.
* ``T(V)`` is the normalized-trace fourth-moment factor
  ``E tr[(M^T M)^2] / N`` of the relevant propagator M; the length variance
  of an output ``z = M x`` with unit-variance Gaussian input is
  ``2 * sigma_x^4 * T / N``.

All functions are pure and cheap.
"""

from __future__ import annotations

import math
from enum import Enum

from .ensembles import Family


class WeightMode(str, Enum):
    TIED = "tied"
    UNTIED = "untied"


class CriticalScaleError(ValueError):
    """Requested scale at or beyond the family's critical value."""

    def __init__(self, scale: float, critical: float, what: str = "scale"):
        self.scale = scale
        self.critical_scale = critical
        super().__init__(f"{what} {scale} is at or beyond the critical value {critical}")


def critical_scale(family: Family, weight_mode: WeightMode) -> float:
    """Scale V at which the tied/untied statistics diverge."""
    family = Family(family)
    if WeightMode(weight_mode) is WeightMode.TIED and family is Family.GOE:
        return 0.25
    return 1.0


def delta_to_scale(family: Family, weight_mode: WeightMode, delta: float) -> float:
    """Map distance-to-threshold delta in (0, 1] to the scale V."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return critical_scale(family, weight_mode) * (1.0 - delta)


def check_subcritical(family: Family, weight_mode: WeightMode, v: float) -> None:
    """ValueError for a negative or non-finite V, CriticalScaleError at or beyond V_c."""
    if v < 0 or not math.isfinite(v):
        raise ValueError(f"scale must be finite and >= 0, got {v}")
    vc = critical_scale(family, weight_mode)
    if v >= vc:
        raise CriticalScaleError(v, vc)


def catalan_generating(x: float) -> float:
    """``sum_k C_k x^k = (1 - sqrt(1 - 4x)) / (2x)`` for ``x < 1/4``."""
    if x == 0.0:
        return 1.0
    if x >= 0.25:
        raise CriticalScaleError(x, 0.25, what="series argument")
    return (1.0 - math.sqrt(1.0 - 4.0 * x)) / (2.0 * x)


def variance_factor_theory(family: Family, weight_mode: WeightMode, v: float) -> float:
    """``N Var[z*_i] / (x . x)`` for the linear fixed point.

    ``V / (1 - V)`` in the untied case for any rotationally invariant family
    and in the tied case for the random and orthogonal families.  Tied GOE is
    the Catalan series ``sum_{i>=1} (2i+1) C_i V^i``, evaluated in closed form
    as ``2 / sqrt(1 - 4V) - f_c(V) - 1`` with ``f_c`` the Catalan generating
    function (``tests/test_analytic_moments.py`` sums the series term by
    term against it).
    """
    family, weight_mode = Family(family), WeightMode(weight_mode)
    check_subcritical(family, weight_mode, v)
    if v == 0.0:
        return 0.0
    if weight_mode is WeightMode.UNTIED or family is not Family.GOE:
        return v / (1.0 - v)
    return 2.0 / math.sqrt(1.0 - 4.0 * v) - catalan_generating(v) - 1.0


def length_variance_theory(family: Family, weight_mode: WeightMode, v: float) -> float:
    """Fourth-moment factor ``T(V) = E tr[(M^T M)^2] / N`` of the propagator.

    Tied M is ``(I - W)^{-1}``; untied M is the limit of summed step
    products.  T(0) = 1 for every family and mode.
    """
    family, weight_mode = Family(family), WeightMode(weight_mode)
    check_subcritical(family, weight_mode, v)
    if v == 0.0:
        return 1.0
    if weight_mode is WeightMode.UNTIED:
        if family is Family.ORTHOGONAL:
            return 2.0 / (1.0 - v) ** 2 - 1.0 / (1.0 - v * v)
        return 2.0 / (1.0 - v) ** 2 + 1.0 / (1.0 - v * v) ** 2 - 2.0 / (1.0 - v * v)
    if family is Family.ORTHOGONAL:
        return 2.0 / (1.0 - v) ** 3 - 1.0 / (1.0 - v) ** 2
    if family is Family.RANDOM:
        return v * v / (1.0 - v) ** 4 + 2.0 * v / (1.0 - v) ** 3 + 1.0 / (1.0 - v) ** 2
    # Tied GOE: (1/4V) ((1-4V)^{-5/2} - (1-4V)^{-3/2}), which simplifies to
    # (1-4V)^{-5/2}; the V -> 0 limit is 1.
    return (1.0 - 4.0 * v) ** -2.5


def goe_tied_integral(v: float) -> float:
    """Semicircle quadrature for the tied-GOE fourth-moment factor.

    ``(2/pi) * integral_{-1}^{1} (1 - 2 sqrt(V) x)^{-4} sqrt(1 - x^2) dx``,
    via adaptive quadrature to absolute error below 1e-9.  Converges for
    ``sqrt(V) < 1/2`` and agrees with the closed form ``(1-4V)^{-5/2}``.
    """
    if v < 0:
        raise ValueError(f"scale must be >= 0, got {v}")
    if math.sqrt(v) >= 0.5:
        raise CriticalScaleError(v, 0.25)
    if v == 0.0:
        return 1.0
    import scipy.integrate  # here, not at the top: its import would slow every launch, and only quad needs it

    a = 2.0 * math.sqrt(v)

    def integrand(x: float) -> float:
        return (1.0 - a * x) ** -4 * math.sqrt(1.0 - x * x)

    val, err = scipy.integrate.quad(integrand, -1.0, 1.0, epsabs=1e-11, epsrel=1e-11, limit=400)
    if err > 1e-9 * max(1.0, abs(val)):
        raise RuntimeError(f"quadrature error estimate {err:.2e} too large")
    return 2.0 / math.pi * val


def goe_tied_asymptotic(delta: float) -> float:
    """Leading small-delta behavior of the tied-GOE factor, ``(2 delta)^{-5/2}``.

    delta here is ``1 - 2 sqrt(V)``, the edge gap of the shifted semicircle;
    the ratio integral/asymptotic equals ``(1 - delta/2)^{-5/2} -> 1`` as
    delta -> 0.  The coefficient 2^{-5/2} follows from the edge integral
    ``(1/(2 pi)) * integral_0^inf sqrt(y) (1+y)^{-4} dy = 1/32`` after
    rescaling.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return (2.0 * delta) ** -2.5


def divergence_exponent(family: Family, weight_mode: WeightMode) -> float:
    """Exact log-log slope of T(delta) as delta -> 0."""
    family, weight_mode = Family(family), WeightMode(weight_mode)
    if weight_mode is WeightMode.UNTIED:
        return -2.0
    return {Family.ORTHOGONAL: -3.0, Family.RANDOM: -4.0, Family.GOE: -2.5}[family]

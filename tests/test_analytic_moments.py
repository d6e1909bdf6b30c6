import itertools
import math

import numpy as np
import pytest

from deqlab import analytic_moments as am
from deqlab.analytic_moments import WeightMode
from deqlab.ensembles import Family

TIED, UNTIED = WeightMode.TIED, WeightMode.UNTIED


def catalan(k: int) -> int:
    """k-th Catalan number, exact integer arithmetic."""
    if k < 0:
        raise ValueError(f"Catalan index must be >= 0, got {k}")
    return math.comb(2 * k, k) // (k + 1)


_SERIES_CAP = 200_000


def _sum_series(terms, v: float) -> float:
    """Sum the series at scale v until a term drops below 1e-14 of the total."""
    total = 0.0
    for i, t in zip(range(_SERIES_CAP), terms):
        total += t
        if i > 4 and abs(t) < 1e-14 * max(abs(total), 1e-300):
            return total
    raise RuntimeError(f"series did not converge within {_SERIES_CAP} terms at scale {v}")


def _goe_gram_trace_series(v: float) -> float:
    """``sum_i (2i+1) C_i V^i`` summed term by term.

    ``C_i V^i`` is carried as one float through the ratio
    ``C_{i+1} / C_i = 2 (2i+1) / (i+2)``: the exact integer C_i no longer
    converts to a float past i ~ 510, and V^i alone underflows, while near
    threshold the series needs hundreds of terms (about 630 at V = 0.2375).
    """

    def terms():
        c = 1.0
        for i in itertools.count():
            yield (2 * i + 1) * c
            c *= 2.0 * (2 * i + 1) / (i + 2) * v

    return _sum_series(terms(), v)


def tied_orthogonal_series(v: float) -> float:
    """``sum_i (i+1)^2 V^i``, the series route to the tied-orthogonal T(V)."""

    def terms():
        vi = 1.0
        for i in itertools.count():
            yield (i + 1) ** 2 * vi
            vi *= v

    return _sum_series(terms(), v)


def test_catalan_numbers():
    assert [catalan(k) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    with pytest.raises(ValueError):
        catalan(-1)


def test_catalan_partial_sums_match_generating_function():
    x = 0.125
    partial = sum(catalan(k) * x**k for k in range(120))
    assert partial == pytest.approx(am.catalan_generating(x), abs=1e-12)
    assert am.catalan_generating(x) == pytest.approx(1.1715728752538097, abs=1e-14)


def test_critical_scales():
    assert am.critical_scale(Family.GOE, TIED) == 0.25
    assert am.critical_scale(Family.GOE, UNTIED) == 1.0
    assert am.critical_scale(Family.RANDOM, TIED) == 1.0
    assert am.critical_scale(Family.ORTHOGONAL, TIED) == 1.0


def test_delta_scale_roundtrip():
    v = am.delta_to_scale(Family.GOE, TIED, 0.5)
    assert v == pytest.approx(0.125)
    assert 1.0 - v / am.critical_scale(Family.GOE, TIED) == pytest.approx(0.5)


class TestVarianceFactor:
    def test_zero_scale(self):
        for family in Family:
            for mode in WeightMode:
                assert am.variance_factor_theory(family, mode, 0.0) == 0.0

    def test_random_tied_half(self):
        assert am.variance_factor_theory(Family.RANDOM, TIED, 0.5) == pytest.approx(1.0)

    def test_untied_is_family_independent(self):
        for family in Family:
            assert am.variance_factor_theory(family, UNTIED, 0.3) == pytest.approx(0.3 / 0.7)

    def test_goe_tied_catalan_value(self):
        # sum_{i>=1} (2i+1) C_i V^i at V = 1/8 equals 4 sqrt(2) - 5
        got = am.variance_factor_theory(Family.GOE, TIED, 0.125)
        assert got == pytest.approx(4 * math.sqrt(2) - 5, abs=1e-10)
        assert got == pytest.approx(0.6568542494923806, abs=1e-10)

    def test_goe_tied_near_threshold(self):
        # delta 0.05: the series cross-check needs about 630 terms, past the
        # point where an exact Catalan number still converts to a float
        v = 0.2375
        closed = 2.0 / math.sqrt(1.0 - 4.0 * v) - am.catalan_generating(v) - 1.0
        assert am.variance_factor_theory(Family.GOE, TIED, v) == closed
        assert _goe_gram_trace_series(v) - 1.0 == pytest.approx(closed, rel=1e-10)

    @pytest.mark.parametrize("delta", [0.01, 0.05, 0.1, 0.22, 0.5, 0.9, 1.0])
    def test_goe_tied_series_matches_closed_form(self, delta):
        # the check variance_factor_theory used to run on every tied-GOE call
        v = am.delta_to_scale(Family.GOE, TIED, delta)
        closed = am.variance_factor_theory(Family.GOE, TIED, v)
        assert abs(_goe_gram_trace_series(v) - 1.0 - closed) <= 1e-10 * max(1.0, abs(closed))

    def test_beyond_critical_raises_with_value(self):
        with pytest.raises(am.CriticalScaleError) as err:
            am.variance_factor_theory(Family.GOE, TIED, 0.3)
        assert err.value.critical_scale == 0.25
        with pytest.raises(am.CriticalScaleError):
            am.variance_factor_theory(Family.RANDOM, TIED, 1.0)


class TestLengthVariance:
    def test_zero_scale_is_one(self):
        for family in Family:
            for mode in WeightMode:
                assert am.length_variance_theory(family, mode, 0.0) == 1.0

    @pytest.mark.parametrize(
        "family,mode,v,expected",
        [
            (Family.ORTHOGONAL, TIED, 0.5, 12.0),
            (Family.RANDOM, TIED, 0.5, 16.0),
            (Family.ORTHOGONAL, UNTIED, 0.5, 6.0 + 2.0 / 3.0),
            (Family.RANDOM, UNTIED, 0.5, 64.0 / 9.0),
            (Family.GOE, UNTIED, 0.5, 64.0 / 9.0),
            (Family.GOE, TIED, 0.125, 2.0**2.5),
        ],
    )
    def test_closed_forms(self, family, mode, v, expected):
        assert am.length_variance_theory(family, mode, v) == pytest.approx(expected, rel=1e-12)

    def test_orthogonal_series_duality(self):
        for v in (0.1, 0.5, 0.9):
            series = tied_orthogonal_series(v)
            closed = am.length_variance_theory(Family.ORTHOGONAL, TIED, v)
            assert series == pytest.approx(closed, rel=1e-10)

    def test_ordering_at_matched_delta(self):
        for delta in np.linspace(0.15, 0.85, 8):
            vals = {
                family: am.length_variance_theory(
                    family, TIED, am.delta_to_scale(family, TIED, delta)
                )
                for family in Family
            }
            assert vals[Family.GOE] < vals[Family.ORTHOGONAL] < vals[Family.RANDOM]

    def test_monotone_in_scale(self):
        for family in Family:
            for mode in WeightMode:
                vc = am.critical_scale(family, mode)
                grid = np.linspace(0.0, 0.95 * vc, 30)
                vals = [am.length_variance_theory(family, mode, v) for v in grid]
                assert all(b > a for a, b in zip(vals, vals[1:]))


class TestGoeIntegralAndAsymptotic:
    def test_small_scale_limit(self):
        assert am.goe_tied_integral(0.0) == 1.0
        assert am.goe_tied_integral(1e-6) == pytest.approx((1 - 4e-6) ** -2.5, rel=1e-9)

    def test_integral_matches_closed_form(self):
        for v in (0.01, 0.1, 0.2, 0.24):
            assert am.goe_tied_integral(v) == pytest.approx((1 - 4 * v) ** -2.5, rel=1e-9)

    def test_asymptotic_value(self):
        # (2 * 0.01)^{-5/2} = 1e5 / 2^{5/2}
        assert am.goe_tied_asymptotic(0.01) == pytest.approx(17677.669529663689, rel=1e-12)

    def test_integral_over_asymptotic_near_one(self):
        delta = 0.05
        sqrt_v = (1.0 - delta) / 2.0
        ratio = am.goe_tied_integral(sqrt_v**2) / am.goe_tied_asymptotic(delta)
        assert 0.9 < ratio < 1.1
        assert ratio == pytest.approx((1 - delta / 2) ** -2.5, rel=1e-8)

    def test_supercritical_raises(self):
        with pytest.raises(am.CriticalScaleError):
            am.goe_tied_integral(0.25)
        with pytest.raises(ValueError):
            am.goe_tied_asymptotic(0.0)


def test_divergence_exponents_from_log_slopes():
    lo, hi = 1e-3, 1e-2
    for family in Family:
        for mode in WeightMode:
            t_lo = am.length_variance_theory(family, mode, am.delta_to_scale(family, mode, lo))
            t_hi = am.length_variance_theory(family, mode, am.delta_to_scale(family, mode, hi))
            slope = (math.log(t_hi) - math.log(t_lo)) / (math.log(hi) - math.log(lo))
            assert slope == pytest.approx(am.divergence_exponent(family, mode), abs=0.05)


def test_moment_query_validation_and_dispatch():
    assert am.length_variance_theory(Family.RANDOM, TIED, 0.5) == pytest.approx(16.0)
    with pytest.raises(am.CriticalScaleError):
        am.variance_factor_theory(Family.GOE, TIED, 0.25)

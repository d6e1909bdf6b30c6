import math
from fractions import Fraction

import numpy as np
import pytest

from deqlab import freeprob as fp
from deqlab import numerics
from deqlab.analytic_moments import CriticalScaleError, catalan_generating, length_variance_theory
from deqlab.ensembles import EnsembleSpec, Family, sample, seed_for


def test_power_series_requires_zero_constant():
    s = fp.PowerSeries((0, 1, 2))
    assert s.coefficient(2) == 2
    with pytest.raises(ValueError):
        fp.PowerSeries((1, 2))
    with pytest.raises(ValueError):
        fp.PowerSeries(())


class TestSemicircle:
    def test_value_at_ten(self):
        # (10 - sqrt(96)) / 2
        got = fp.semicircle_stieltjes(10.0, 1.0)
        assert got.real == pytest.approx(0.1010205144336438, abs=1e-14)
        assert got.imag == 0.0

    def test_series_oracle(self):
        # G(z) = sum_k C_k z^{-(2k+1)} for the unit-scale semicircle, with the
        # Catalan number C_k = binom(2k, k) / (k + 1)
        z = 3.0
        series = sum(math.comb(2 * k, k) // (k + 1) * z ** -(2 * k + 1) for k in range(60))
        assert fp.semicircle_stieltjes(z, 1.0).real == pytest.approx(series, abs=1e-12)

    def test_decay_at_infinity(self):
        z = 1e6
        assert abs(fp.semicircle_stieltjes(z, 1.0) - 1.0 / z) < 1e-5 / z

    def test_on_cut_rejected(self):
        with pytest.raises(ValueError):
            fp.semicircle_stieltjes(0.5, 1.0)

    def test_herglotz_on_ring(self):
        theta = np.linspace(0.05, math.pi - 0.05, 40)
        for radius in (0.5, 3.0, 50.0):
            z = radius * np.exp(1j * theta)
            vals = fp.semicircle_stieltjes(z, 0.7)
            assert np.all(vals.imag < 0)

    def test_density_recovery_peak(self):
        dens = fp.density_from_stieltjes(lambda z: fp.semicircle_stieltjes(z, 1.0), fp.recovery_grid((-2, 2)))
        assert dens.density.max() == pytest.approx(1.0 / math.pi, abs=1e-3)
        assert not dens.atoms

    def test_recovered_moments_match_series(self):
        # moments C_{k/2} V^{k/2} for even k, 0 for odd k, at V = 1
        dens = fp.density_from_stieltjes(lambda z: fp.semicircle_stieltjes(z, 1.0), fp.recovery_grid((-2, 2), 4001))
        assert abs(dens.moment(1)) < 1e-3
        assert dens.moment(2) == pytest.approx(1.0, rel=1e-3)
        assert abs(dens.moment(3)) < 1e-2
        assert dens.moment(4) == pytest.approx(2.0, rel=1e-3)


class TestGoeResolventMgf:
    def test_first_moment_is_catalan_generating(self):
        series = fp.goe_resolvent_mgf(0.125, k_max=4)
        assert series.coefficient(1) == pytest.approx(catalan_generating(0.125), abs=1e-12)

    def test_zero_scale_geometric(self):
        series = fp.goe_resolvent_mgf(0.0, k_max=6)
        assert np.allclose(series.coefficients[1:], 1.0)
        assert fp.goe_resolvent_mgf_value(4.0, 0.0) == pytest.approx(1.0 / 3.0)

    def test_closed_form_matches_series(self):
        v, z = 0.1, 5.0
        series = fp.goe_resolvent_mgf(v, k_max=48)
        assert abs(fp.goe_resolvent_mgf_value(z, v) - series.evaluate(z)) < 1e-10

    def test_moments_match_recovered_density(self):
        v = 0.1
        series = fp.goe_resolvent_mgf(v, k_max=4)
        g = fp.goe_resolvent_stieltjes(v)
        dens = fp.density_from_stieltjes(g, fp.recovery_grid(fp.goe_resolvent_support(v), 4001))
        for k in range(1, 5):
            assert dens.moment(k) == pytest.approx(float(series.coefficient(k)), rel=1e-3)

    def test_support_endpoints(self):
        lo, hi = fp.goe_resolvent_support(0.1)
        assert lo == pytest.approx(1.0 / (1.0 + 2.0 * math.sqrt(0.1)), abs=1e-15)
        assert hi == pytest.approx(1.0 / (1.0 - 2.0 * math.sqrt(0.1)), abs=1e-15)

    def test_recovered_support(self):
        v = 0.1
        g = fp.goe_resolvent_stieltjes(v)
        lo, hi = fp.goe_resolvent_support(v)
        grid = fp.recovery_grid((lo, hi), 2001)
        dens = fp.density_from_stieltjes(g, grid)
        occupied = dens.grid[dens.density > 1e-3 * dens.density.max()]
        resolution = 3 * (grid[1] - grid[0]) + 0.01
        assert occupied.min() == pytest.approx(lo, abs=resolution)
        assert occupied.max() == pytest.approx(hi, abs=resolution)

    def test_supercritical_rejected(self):
        with pytest.raises(CriticalScaleError):
            fp.goe_resolvent_mgf(0.25, k_max=2)


class TestGoeGramSecondMoment:
    def test_small_scale_limit(self):
        assert fp.goe_gram_second_moment(0.0) == 1.0
        assert fp.goe_gram_second_moment(1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_value_at_eighth(self):
        assert fp.goe_gram_second_moment(0.125) == pytest.approx(2.0**2.5, rel=1e-12)

    def test_equals_length_variance_formula(self):
        for v in np.linspace(0.005, 0.245, 20):
            lv = length_variance_theory(Family.GOE, "tied", float(v))
            assert fp.goe_gram_second_moment(float(v)) == pytest.approx(lv, rel=1e-12)

    def test_supercritical_rejected(self):
        with pytest.raises(CriticalScaleError):
            fp.goe_gram_second_moment(0.25)


class TestRandomGramMomentSeries:
    def test_first_two_moments_exact_at_half(self):
        series = fp.random_gram_moment_series(Fraction(1, 2), 2)
        assert series.coefficient(1) == Fraction(2)
        assert series.coefficient(2) == Fraction(16)

    def test_first_moment_any_scale(self):
        for v in (0.1, 0.3, 0.7):
            series = fp.random_gram_moment_series(v, 1)
            assert series.coefficient(1) == pytest.approx(1.0 / (1.0 - v))

    def test_second_moment_matches_closed_form(self):
        for v in (0.2, 0.5, 0.8):
            series = fp.random_gram_moment_series(v, 2)
            expected = v * v / (1 - v) ** 4 + 2 * v / (1 - v) ** 3 + 1 / (1 - v) ** 2
            assert series.coefficient(2) == pytest.approx(expected, rel=1e-12)

    def test_third_moment_exact_rational(self):
        series = fp.random_gram_moment_series(Fraction(1, 4), 3)
        assert series.coefficient(3) == Fraction(8192, 729)

    def test_third_moment_against_monte_carlo(self):
        # tr_N[gram^{-3}] over two draws at N = 2000
        n, v = 2000, 0.25
        series = fp.random_gram_moment_series(Fraction(1, 4), 3)
        vals = []
        for rep in range(2):
            w = sample(EnsembleSpec(Family.RANDOM, n, v), seed_for(0, Family.RANDOM, 31, rep))
            b = np.eye(n) - w
            eigs = np.linalg.eigvalsh(b.T @ b)
            vals.append(float(np.mean(eigs**-3.0)))
        assert np.mean(vals) == pytest.approx(float(series.coefficient(3)), rel=0.05)

    def test_second_moment_against_monte_carlo_high_scale(self):
        n, v = 1500, 0.6
        series = fp.random_gram_moment_series(v, 2)
        w = sample(EnsembleSpec(Family.RANDOM, n, v), seed_for(2, Family.RANDOM, 33, 0))
        b = np.eye(n) - w
        eigs = np.linalg.eigvalsh(b.T @ b)
        assert float(np.mean(eigs**-2.0)) == pytest.approx(series.coefficient(2), rel=0.10)

    def test_supercritical_rejected(self):
        with pytest.raises(CriticalScaleError):
            fp.random_gram_moment_series(1.0, 2)


class TestHardtanhJacobianDensity:
    def test_fully_active_is_pure_semicircle(self):
        dens = fp.hardtanh_jacobian_density(1.0, 0.36)
        radius = 2 * math.sqrt(0.36)
        assert not dens.atoms
        assert dens.grid[0] == pytest.approx(-radius)
        assert dens.grid[-1] == pytest.approx(radius)
        assert dens.continuous_mass() == pytest.approx(1.0, abs=1e-12)

    def test_fully_saturated_is_unit_atom(self):
        dens = fp.hardtanh_jacobian_density(0.0, 0.5)
        assert dens.atoms == ((0.0, 1.0),)
        assert dens.continuous_mass() == 0.0

    def test_second_moment(self):
        dens = fp.hardtanh_jacobian_density(0.5, 1.0)
        assert dens.moment(2) == pytest.approx(0.25, abs=1e-4)

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            fp.hardtanh_jacobian_density(1.5, 1.0)


class TestDensityRecovery:
    def test_herglotz_violation_detected(self):
        bad = lambda z: 1j * np.ones_like(np.asarray(z, dtype=complex))
        with pytest.raises(ValueError):
            fp.density_from_stieltjes(bad, np.linspace(-1, 1, 51))

    def test_empirical_bernoulli_gated_spectrum(self):
        # diag(sqrt(gates)) W diag(sqrt(gates)) against the atom+semicircle law
        n, p, v = 800, 0.5, 0.2
        seed = seed_for(1, Family.GOE, 32, 0)
        w = sample(EnsembleSpec(Family.GOE, n, v), seed)
        gates = (seed.child(1).generator().random(n) < p).astype(float)
        root = np.sqrt(gates)
        eigs = numerics.sym_spectrum(root[:, None] * w * root[None, :])
        zero = np.abs(eigs) < 1e-10
        assert np.mean(zero) == pytest.approx(1 - p, abs=0.05)
        radius = 2 * math.sqrt(v * p)
        ks = fp.kolmogorov_distance(eigs[~zero], lambda x: fp.semicircle_cdf(x, radius))
        assert ks < 0.08


def test_kolmogorov_distance_sanity():
    rng = np.random.default_rng(0)
    u = rng.random(4000)
    assert fp.kolmogorov_distance(u, lambda x: np.clip(x, 0, 1)) < 0.03
    assert fp.kolmogorov_distance(u * 0.5, lambda x: np.clip(x, 0, 1)) > 0.4

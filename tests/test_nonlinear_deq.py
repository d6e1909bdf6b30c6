import functools
import math
import warnings

import numpy as np
import pytest
import scipy.special

from deqlab import nonlinear_deq as nl
from deqlab import numerics
from deqlab.numerics import summarize
from deqlab.ensembles import EnsembleSpec, Family, over_seeds, sample, seed_for
from deqlab.nonlinear_deq import HARD_TANH, IDENTITY, TANH


def _x(n, seed=0, sigma=1.0):
    return np.random.default_rng(seed).standard_normal(n) * sigma


class TestIterateH:
    def test_zero_weights_fixed_point_is_zero(self):
        res = nl.iterate_h(np.zeros((12, 12)), _x(12), HARD_TANH, tol=1e-12)
        assert res.converged and np.allclose(res.solution, 0.0)

    def test_identity_reduces_to_linear(self):
        n = 200
        w = sample(EnsembleSpec(Family.ORTHOGONAL, n, 0.49), seed_for(0, Family.ORTHOGONAL, 0, 0))
        x = _x(n)
        res = nl.iterate_h(w, x, IDENTITY, tol=1e-11, t_max=3000)
        assert res.converged
        assert np.abs(res.solution - w @ (res.solution + x)).max() < 1e-9

    def test_orthogonal_hardtanh_matches_selfconsistent_variance(self):
        n, sq = 1000, 0.5
        w = sample(EnsembleSpec(Family.ORTHOGONAL, n, sq * sq), seed_for(1, Family.ORTHOGONAL, 0, 0))
        x = _x(n, 5)
        res = nl.iterate_h(w, x, HARD_TANH, tol=1e-10, t_max=2000)
        assert res.converged
        state = nl.sigma_h_selfconsistent(sq * sq, HARD_TANH)
        assert float(res.solution @ res.solution) / n == pytest.approx(state.sigma_h_sq, rel=0.05)

    def test_orthogonal_norm_identity_per_sample(self):
        # W^T W = V I makes the variance balance exact per converged sample
        n, v = 400, 0.36
        w = sample(EnsembleSpec(Family.ORTHOGONAL, n, v), seed_for(2, Family.ORTHOGONAL, 0, 0))
        x = _x(n, 6)
        res = nl.iterate_h(w, x, HARD_TANH, tol=1e-13, t_max=5000)
        assert res.converged
        h = res.solution
        lhs = float(h @ h) / n
        gated = HARD_TANH.phi(h) + x
        rhs = v * float(gated @ gated) / n
        assert abs(lhs - rhs) < 1e-10

    def test_nonfinite_input_rejected(self):
        x = np.ones(4)
        x[2] = np.inf
        with pytest.raises(ValueError):
            nl.iterate_h(np.zeros((4, 4)), x, HARD_TANH)


class TestSigmaHSelfConsistent:
    def test_identity_geometric(self):
        state = nl.sigma_h_selfconsistent(0.5, IDENTITY)
        assert state.sigma_h_sq == pytest.approx(1.0, abs=1e-9)

    def test_identity_just_below_unit_scale(self):
        # the root of s = V (s + 1) is V / (1 - V) = 99999.0000004551 for the float V = 0.99999; its
        # condition number 1 / (1 - V) = 1e5 turns rounding of the excess (a few ulp of s) into ~2e-11 relative
        v = 0.99999
        assert nl.sigma_h_selfconsistent(v, IDENTITY).sigma_h_sq == pytest.approx(v / (1.0 - v), rel=5e-11)

    @pytest.mark.parametrize(
        "phi, sqrt_v",
        [(phi, sq) for phi in (HARD_TANH, TANH) for sq in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.2, 2.0, 6.0)]
        + [(IDENTITY, sq) for sq in (0.1, 0.5, 0.9, 0.99, 0.999, 0.99999)]
        + [(phi, 0.0) for phi in (HARD_TANH, TANH, IDENTITY)]
        # the bracket [V, 2V] is near the float limit, where the sum V + 2V overflows
        + [(phi, 9e153) for phi in (HARD_TANH, TANH)],
        ids=lambda p: getattr(p, "name", str(p)),
    )
    def test_root_solves_the_equation(self, phi, sqrt_v):
        v = sqrt_v * sqrt_v
        state = nl.sigma_h_selfconsistent(v, phi)
        s = state.sigma_h_sq
        if phi.gaussian_moments:
            second = phi.gaussian_moments(s)[0]
        else:
            second = numerics.gauss_hermite_expect(lambda h: phi.phi(h) ** 2, 0.0, s)
        assert abs(s - v * (second + nl.SIGMA_X_SQ)) <= 1e-13 * max(1.0, s)
        # halving a doubling bracket [lo, 2 lo] to 4 eps lo takes about 50 steps; at V = 0 the
        # bracket's end is the root, and none is taken
        assert (0 < state.iterations <= 60) if v > 0 else state.iterations == 0

    def test_hardtanh_small_scale_is_linear(self):
        state = nl.sigma_h_selfconsistent(0.01, HARD_TANH)
        assert state.sigma_h_sq == pytest.approx(0.01 / 0.99, rel=1e-3)

    def test_hardtanh_quarter(self):
        # damped-iteration + erf oracle value: 0.3193533949
        state = nl.sigma_h_selfconsistent(0.25, HARD_TANH)
        assert state.sigma_h_sq == pytest.approx(0.3193533949, abs=0.002)
        assert state.p_active == pytest.approx(math.erf(1 / math.sqrt(2 * state.sigma_h_sq)), abs=1e-6)
        assert state.sigma_h_sq == pytest.approx(
            0.25 * (HARD_TANH.gaussian_moments(state.sigma_h_sq)[0] + 1.0), abs=1e-9
        )

    def test_no_bounded_solution_raises(self):
        with pytest.raises(nl.SelfConsistencyError):
            nl.sigma_h_selfconsistent(1.2, IDENTITY)


class TestTanhDerivative:
    def test_far_tail_is_zero_without_overflow(self):
        # cosh(h)**2 overflows past |h| ~ 355; sech(h)**2 is then 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = TANH.dphi([0.5, 400.0, -800.0])
            state = nl.sigma_h_selfconsistent(900.0, TANH)
        assert list(got) == [1.0 / np.cosh(0.5) ** 2, 0.0, 0.0]
        assert math.isfinite(state.sigma_h_sq)


class TestGaussianMoments:
    @pytest.mark.parametrize("s", [0.01, 0.3, 1.0, 2.5, 10.0, 36.0, 100.0, 1e4])
    def test_hard_tanh_closed_forms_match_quadrature_in_h(self, s, quad_expect):
        sq, gate = HARD_TANH.gaussian_moments(s)
        assert abs(sq - quad_expect(lambda h: min(h * h, 1.0), s)) <= 1e-12
        assert abs(gate - quad_expect(lambda h: float(abs(h) < 1.0), s)) <= 1e-12

    # the series for E[h^2; |h| < 1] serves s > 1/2, the erf form the rest
    @pytest.mark.parametrize("s", [*np.logspace(-6, 32, 39), 0.5 * (1 - 1e-15), 0.5, 0.5 * (1 + 1e-15)])
    def test_hard_tanh_matches_the_incomplete_gamma_form(self, s):
        s = float(s)
        reference = s * float(scipy.special.gammainc(1.5, 1.0 / (2.0 * s))) + math.erfc(1.0 / math.sqrt(2.0 * s))
        assert HARD_TANH.gaussian_moments(s)[0] == pytest.approx(reference, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("s", [1e28, 1e29, 1e30, 1e31, 1e32])
    def test_hard_tanh_far_tail_does_not_cancel(self, s):
        # E[min(h^2, 1)] = 1 - E[(1 - h^2); |h| < 1] = 1 - 4 / (3 sqrt(2 pi s)) + O(s^-3/2)
        sq, gate = HARD_TANH.gaussian_moments(s)
        assert sq == pytest.approx(1.0 - 4.0 / (3.0 * math.sqrt(2.0 * math.pi * s)), abs=3e-16)
        assert gate == pytest.approx(math.sqrt(2.0 / (math.pi * s)), rel=1e-12)

    def test_zero_variance(self):
        assert HARD_TANH.gaussian_moments(0.0) == (0.0, 1.0)
        assert IDENTITY.gaussian_moments(0.0) == (0.0, 1.0)
        assert TANH.gaussian_moments is None

    def test_large_scale_self_consistent_state(self):
        # 40-digit mpmath solve of s = 36 (E[phi^2] + 1): s = 69.709754529204864,
        # p = erf(1 / sqrt(2 s)) = 0.095335782932858061
        state = nl.sigma_h_selfconsistent(36.0, HARD_TANH)
        assert state.sigma_h_sq == pytest.approx(69.709754529204864, rel=1e-12)
        assert state.p_active == pytest.approx(0.095335782932858061, rel=1e-12)
        radius = nl.radius_theory(Family.RANDOM, 36.0, HARD_TANH, state.sigma_h_sq)
        assert radius == pytest.approx(1.8525895890841258, rel=1e-12)

    def test_zero_one_gates_never_reach_quadrature(self, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("a 0/1 gate reached numerics.gauss_hermite_expect")

        monkeypatch.setattr(nl.numerics, "gauss_hermite_expect", no_quadrature)
        for phi in (HARD_TANH, IDENTITY):
            for family in Family:
                assert 0.05 < nl.predict_critical_v(family, phi) < 4.0
            state = nl.sigma_h_selfconsistent(0.36, phi)
            assert nl.radius_theory(Family.GOE, 0.36, phi, state.sigma_h_sq) > 0.0


class TestRadiusTheory:
    def test_identity_random(self):
        assert nl.radius_theory(Family.RANDOM, 0.81, IDENTITY, 1.0) == pytest.approx(0.9)

    def test_identity_goe_doubled(self):
        assert nl.radius_theory(Family.GOE, 0.25, IDENTITY, 3.0) == pytest.approx(1.0)

    def test_hardtanh_goe_quarter(self):
        r = nl.radius_theory(Family.GOE, 0.25, HARD_TANH, 0.319)
        p = math.erf(1 / math.sqrt(2 * 0.319))
        assert r == pytest.approx(2 * math.sqrt(0.25 * p), abs=1e-6)
        assert r == pytest.approx(0.961, abs=1e-3)

    def test_goe_tanh_unsupported(self):
        with pytest.raises(nl.UnsupportedNonlinearityError):
            nl.radius_theory(Family.GOE, 0.2, TANH, 0.5)


class TestGinibreEdgeFactor:
    def test_value_at_1000(self):
        assert abs(nl.ginibre_edge_factor(1000) - 1.025669) <= 1e-6

    def test_strictly_decreasing(self):
        values = [nl.ginibre_edge_factor(m) for m in np.linspace(500, 4000, 351)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("m", [499.9, 250, 0, -10, math.nan, math.inf])
    def test_out_of_range_rejected(self, m):
        with pytest.raises(ValueError):
            nl.ginibre_edge_factor(m)


class TestRadiusEmpirical:
    def test_unit_gates_orthogonal(self):
        n = 300
        w = sample(EnsembleSpec(Family.ORTHOGONAL, n, 0.49), seed_for(3, Family.ORTHOGONAL, 0, 0))
        r = nl.radius_empirical(w, np.zeros(n), IDENTITY)
        assert abs(r - 0.7) <= 1e-3

    def test_zero_gates(self):
        n = 50
        h_far = 10.0 * np.ones(n)  # saturates the gate everywhere
        for family in (Family.RANDOM, Family.GOE):  # the estimator's and the eigensolver's path
            w = sample(EnsembleSpec(family, n, 0.5), seed_for(4, family, 0, 0))
            assert nl.radius_empirical(w, h_far, HARD_TANH) == 0.0

    def test_goe_hardtanh_matches_theory_at_small_scale(self):
        n, sq = 1000, 0.2
        w = sample(EnsembleSpec(Family.GOE, n, sq * sq), seed_for(5, Family.GOE, 0, 0))
        x = _x(n, 9)
        res = nl.iterate_h(w, x, HARD_TANH, tol=1e-10, t_max=2000)
        assert res.converged
        state = nl.sigma_h_selfconsistent(sq * sq, HARD_TANH)
        theory = nl.radius_theory(Family.GOE, sq * sq, HARD_TANH, state.sigma_h_sq)
        emp = nl.radius_empirical(w, res.solution, HARD_TANH)
        assert emp == pytest.approx(theory, rel=0.05)

    @staticmethod
    def _gated_input(n, seed):
        # hard-tanh pre-activations with about 40% of the gates closed (|h| >= 1)
        rng = np.random.default_rng(seed)
        h = rng.uniform(-0.9, 0.9, n)
        h[rng.random(n) < 0.4] = 2.0
        return h

    @pytest.mark.parametrize("family", [Family.RANDOM, Family.ORTHOGONAL])
    def test_gated_block_matches_full_eigenvalues(self, family):
        n = 300
        w = sample(EnsembleSpec(family, n, 0.81), seed_for(7, family, 0, 0))
        h = self._gated_input(n, 11)
        gates = HARD_TANH.dphi(h)
        assert 0.3 < 1.0 - gates.mean() < 0.5
        full = float(np.abs(np.linalg.eigvals(w * gates[None, :])).max())
        assert nl.radius_empirical(w, h, HARD_TANH) == pytest.approx(full, rel=1e-3)

    def test_gated_goe_block_matches_full_eigenvalues(self):
        n = 300
        w = sample(EnsembleSpec(Family.GOE, n, 0.09), seed_for(8, Family.GOE, 0, 0))
        h = self._gated_input(n, 12)
        gates = HARD_TANH.dphi(h)
        full = float(np.abs(np.linalg.eigvals(w * gates[None, :])).max())
        assert abs(nl.radius_empirical(w, h, HARD_TANH) - full) <= 1e-12

    @pytest.mark.parametrize("family", [Family.RANDOM, Family.GOE])
    def test_tanh_without_zero_gates_matches_full_matrix_bit_for_bit(self, family):
        n = 200
        w = sample(EnsembleSpec(family, n, 0.25), seed_for(9, family, 0, 0))
        h = np.random.default_rng(13).standard_normal(n) * 3.0
        gates = TANH.dphi(h)
        assert np.all(gates > 0.0)
        if family is Family.GOE:
            root = np.sqrt(gates)
            full = float(np.max(np.abs(numerics.sym_spectrum(root[:, None] * w * root[None, :]))))
        else:
            full = numerics.spectral_radius_estimate(w * gates[None, :])
        assert nl.radius_empirical(w, h, TANH) == full

    def test_negative_gates_rejected_on_symmetric_path(self):
        backwards = nl.Nonlinearity("backwards", lambda h: -h, lambda h: -np.ones_like(np.asarray(h, dtype=float)))
        w = sample(EnsembleSpec(Family.GOE, 20, 0.1), seed_for(6, Family.GOE, 0, 0))
        with pytest.raises(ValueError):
            nl.radius_empirical(w, np.zeros(20), backwards)


class TestPredictCritical:
    def test_identity_families(self):
        # half the bisection's final width of 1e-4
        assert nl.predict_critical_v(Family.RANDOM, IDENTITY) == pytest.approx(1.0, abs=5e-5)
        assert nl.predict_critical_v(Family.ORTHOGONAL, IDENTITY) == pytest.approx(1.0, abs=5e-5)
        assert nl.predict_critical_v(Family.GOE, IDENTITY) == pytest.approx(0.5, abs=2e-4)

    def test_hardtanh_values_from_bisection_oracle(self):
        # frozen from an independent erf-based bisection: 1.7215807, 0.5257253
        got = nl.predict_critical_v(Family.RANDOM, HARD_TANH)
        assert got == pytest.approx(1.7215807, abs=3e-4)
        got_goe = nl.predict_critical_v(Family.GOE, HARD_TANH)
        assert got_goe == pytest.approx(0.5257253, abs=3e-4)

    @pytest.mark.parametrize(
        "phi, family, expected",
        [
            (HARD_TANH, Family.RANDOM, 1.7215595245361328),
            (HARD_TANH, Family.ORTHOGONAL, 1.7215595245361328),
            (HARD_TANH, Family.GOE, 0.5256984710693359),
            (IDENTITY, Family.RANDOM, 0.9999805450439451),
            (IDENTITY, Family.ORTHOGONAL, 0.9999805450439451),
            (IDENTITY, Family.GOE, 0.5000225067138672),
        ],
        ids=lambda p: getattr(p, "name", str(p)),
    )
    def test_exact_midpoints_of_the_default_bracket(self, phi, family, expected):
        # the midpoints the bisection of (0.05, 4.0) down to a width of 1e-4 lands on, frozen
        # bit for bit: fig4's theory column and its default grids are built from them
        assert nl.predict_critical_v(family, phi) == expected

    def test_bad_bracket_reported(self):
        with pytest.raises(ValueError, match="bracket"):
            nl.predict_critical_v(Family.RANDOM, HARD_TANH, bracket=(0.01, 0.02))


def _residual_rows(family, grid, n, n_seeds, t_probe, phi=HARD_TANH):
    """Residuals of the draws of base seed 0 under fig4's label 7, one row per
    grid scale and one column per replicate."""
    measure = functools.partial(nl.residual_sweep, family, grid, n, t_probe=t_probe, phi=phi)
    return np.transpose(over_seeds(measure, 0, family, 7, n_seeds)[0])


class TestResidualSweep:
    def test_deep_subcritical_all_converge(self):
        for family in (Family.RANDOM, Family.GOE, Family.ORTHOGONAL):
            (row,) = _residual_rows(family, [0.1], n=300, n_seeds=5, t_probe=400)
            assert summarize(row).q75 < 1e-8
            assert np.mean(row > 1e-3) == 0.0

    def test_identity_transition_at_unit_scale(self):
        below, above = _residual_rows(Family.ORTHOGONAL, [0.9, 1.1], n=200, n_seeds=5, t_probe=400, phi=IDENTITY)
        assert summarize(below).median < 1e-6
        assert summarize(above).median > 1e-3

    def test_stability_tracks_predicted_radius(self):
        # theory radius < 0.95 -> nearly every seed settles by the probe
        # horizon; theory radius > 1.05 -> nearly none do
        n, n_seeds = 1000, 20
        for family in (Family.RANDOM, Family.ORTHOGONAL):
            for sq, stable in ((1.3, True), (2.05, False)):
                state = nl.sigma_h_selfconsistent(sq * sq, HARD_TANH)
                r = nl.radius_theory(family, sq * sq, HARD_TANH, state.sigma_h_sq)
                assert (r < 0.95) if stable else (r > 1.05)
                (row,) = _residual_rows(family, [sq], n=n, n_seeds=n_seeds, t_probe=500)
                frac_converged = 1.0 - float(np.mean(row > 1e-3))
                if stable:
                    assert frac_converged >= 0.95
                    assert summarize(row).q75 < 1e-8
                else:
                    assert frac_converged < 0.05

    @pytest.mark.parametrize(
        "phi, scales, t_probe",
        [(IDENTITY, [0.05, 0.5, 1.5, 3.0], 400), (HARD_TANH, [0.3, 0.9, 1.2], 25)],
    )
    def test_batched_probe_matches_per_scale_loop(self, phi, scales, t_probe):
        # covers settling below the floor, a budget run-out and an overflow
        n, floor = 120, 1e-12
        seed = seed_for(5, Family.RANDOM, 0, 0)
        w_unit = sample(EnsembleSpec(Family.RANDOM, n, 1.0), seed)
        x = seed.child(1).generator().standard_normal(n)
        got = nl.residual_sweep(Family.RANDOM, scales, n, seed, t_probe, phi)
        for sq, value in zip(scales, got):
            w = sq * w_unit
            h = np.zeros(n)
            expected = 1e6
            for _ in range(t_probe):
                h_next = w @ phi.phi(h) + w @ x
                expected = min(float(np.linalg.norm(h_next - h) / math.sqrt(n)), 1e6)
                h = h_next
                if not np.all(np.isfinite(h)) or np.linalg.norm(h) > 1e120:
                    expected = 1e6
                    break
                if expected < floor:
                    break
            if expected < floor:
                assert value < floor
            else:
                assert value == pytest.approx(expected, rel=1e-9)


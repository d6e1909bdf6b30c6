import math

import numpy as np
import pytest

from deqlab import numerics
from deqlab.analytic_moments import WeightMode, delta_to_scale
from deqlab.ensembles import EnsembleSpec, Family, sample, seed_for
from deqlab.freeprob import kolmogorov_distance, semicircle_cdf
from deqlab.nonlinear_deq import TANH


def _affine_step(a):
    """``x <- a x + 1``, with a per row of the stack when a is an array."""
    return lambda x, rows: (a[rows, None] if np.ndim(a) else a) * x + 1.0


def _radius_every_squaring(m, tol):
    """Reference: spectral_radius_estimate as written before it skipped
    unread norms, with an estimate after every squaring."""
    n = m.shape[0]
    norm = float(np.linalg.norm(m, 2)) if n <= 2 else float(np.linalg.norm(m, "fro"))
    if norm == 0.0:
        return 0.0
    b = m / norm
    log_scale, power, prev = np.log(norm), 1.0, np.inf
    for _ in range(60):
        est = np.exp((log_scale + numerics._log_two_norm(b)) / power)
        if power >= 16.0 * n and abs(est - prev) <= tol * max(est, 0.1):
            return float(est)
        prev = est
        b = b @ b
        c = float(np.linalg.norm(b, "fro"))
        if c == 0.0:
            return 0.0
        b /= c
        log_scale = 2.0 * log_scale + np.log(c)
        power *= 2.0
    return float(prev)


class TestFixedPoint:
    n = 4

    def test_single_vector_converges(self):
        res = numerics.fixed_point(_affine_step(0.5), np.zeros(self.n), 1000, 1e-10)
        # the step norm halves each step from 1: the first one <= 1e-10 is 0.5**34
        assert res.converged and res.iterations == 35
        assert res.final_residual == 0.5**34
        assert np.allclose(res.solution, 2.0)

    def test_single_vector_budget_runs_out(self):
        res = numerics.fixed_point(_affine_step(-1.0), np.zeros(self.n), 7, 1e-10)
        assert not res.converged and res.iterations == 7
        assert res.final_residual == 1.0

    def test_single_vector_overflow(self):
        res = numerics.fixed_point(_affine_step(10.0), np.zeros(self.n), 1000, 1e-10)
        # ||x_t|| = 2 (10**t - 1) / 9 first exceeds 1e120 at t = 121
        assert not res.converged and res.iterations == 121
        assert res.final_residual == math.inf

    def test_single_vector_is_a_one_row_stack(self):
        seen = []

        def recording_step(x, rows):
            seen.append((x.shape, rows.tolist()))
            return 0.5 * x + 1.0

        res = numerics.fixed_point(recording_step, np.zeros(self.n), 1000, 1e-10)
        assert seen == [((1, self.n), [0])] * 35
        assert res.solution.shape == (self.n,) and np.ndim(res.final_residual) == 0

    def test_nonfinite_state_is_overflow(self):
        res = numerics.fixed_point(lambda x, _: x + np.nan, np.zeros(self.n), 10, 1e-10)
        assert not res.converged and res.iterations == 1 and res.final_residual == math.inf

    def test_stacked_rows_leave_on_their_own(self):
        a = np.array([0.5, -1.0, 10.0])  # settles at 35, runs out of budget, overflows at 121
        seen = []
        step = _affine_step(a)

        def recording_step(x, rows):
            seen.append(rows.copy())
            return step(x, rows)

        got = numerics.fixed_point(recording_step, np.zeros((3, self.n)), 200, 1e-10)
        assert len(seen) == 200
        assert [sum(row in rows for rows in seen) for row in range(3)] == [35, 200, 121]
        assert got.iterations == 35 + 200 + 121 and got.converged is False
        states, residuals = got.solution, got.final_residual
        assert states.shape == (3, self.n) and residuals.shape == (3,)
        for row in range(3):
            single = numerics.fixed_point(_affine_step(a[row]), np.zeros(self.n), 200, 1e-10)
            assert residuals[row] == single.final_residual
            assert np.array_equal(states[row], single.solution)
        assert residuals[0] <= 1e-10 and residuals[1] == 1.0 and residuals[2] == math.inf
        # where each row stopped: settled near 2, out of budget at 0 after an even count, overflowed
        assert np.allclose(states[0], 2.0) and np.all(states[1] == 0.0) and np.all(states[2] > 1e119)

    def test_stacked_zero_budget_keeps_the_start(self):
        x0 = np.arange(8.0).reshape(2, self.n)
        res = numerics.fixed_point(_affine_step(np.array([0.5, 2.0])), x0, 0, 1e-10)
        assert np.array_equal(res.solution, x0) and res.solution is not x0 and np.all(res.final_residual == math.inf)
        assert res.iterations == 0 and res.converged is False

    @pytest.mark.parametrize("x0", [np.zeros(4), np.zeros((3, 4))], ids=["vector", "stack"])
    @pytest.mark.parametrize("a", [0.5, 10.0])
    def test_counts_are_python_scalars(self, x0, a):
        # a tracer keeps iterations only when it is an int, and calls bool(converged)
        res = numerics.fixed_point(_affine_step(a), x0, 200, 1e-10)
        assert type(res.iterations) is int and type(res.converged) is bool
        assert res.iterations == (35 if a == 0.5 else 121) * (x0.size // self.n)
        assert res.converged is (a == 0.5)


class TestSolveLinear:
    def test_identity(self):
        b = np.arange(1.0, 6.0)
        assert np.allclose(numerics.solve_linear(np.eye(5), b), b)

    def test_scaled_identity(self):
        x = numerics.solve_linear(2 * np.eye(4), np.ones(4))
        assert np.allclose(x, 0.5)

    def test_orthogonal_shift_residual(self):
        n = 300
        w = sample(EnsembleSpec(Family.ORTHOGONAL, n, 0.25), seed_for(0, Family.ORTHOGONAL, 0, 0))
        a = np.eye(n) - w
        b = seed_for(0, Family.ORTHOGONAL, 0, 1).generator().standard_normal(n)
        x = numerics.solve_linear(a, b)
        assert np.linalg.norm(a @ x - b) < 1e-10 * np.linalg.norm(b)

    def test_singular_raises(self):
        a = np.ones((3, 3))
        with pytest.raises(numerics.SingularMatrixError):
            numerics.solve_linear(a, np.ones(3))

    def test_nonfinite_rejected(self):
        a = np.eye(2)
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            numerics.solve_linear(a, np.ones(2))

    @staticmethod
    def _stack(k=4, n=40):
        """I - W for k draws at scales up to sqrt(V) = 0.9."""
        return np.stack([
            np.eye(n) - sample(EnsembleSpec(Family.RANDOM, n, (0.3 * (i + 1)) ** 2), seed_for(5, Family.RANDOM, i, 0))
            for i in range(k)
        ])

    def test_stack_rows_match_single_calls(self):
        a = self._stack()
        b = seed_for(5, Family.RANDOM, 0, 1).generator().standard_normal(a.shape[1])
        got = numerics.solve_linear(a, b)
        assert got.shape == (len(a), a.shape[1])
        for row, m in zip(got, a):
            assert np.array_equal(row, numerics.solve_linear(m, b))

    def test_stack_with_a_singular_member_raises(self):
        a = self._stack()
        a[2] = np.ones_like(a[2])
        for b in (np.ones(a.shape[1]), np.zeros(a.shape[1])):
            with pytest.raises(numerics.SingularMatrixError):
                numerics.solve_linear(a, b)

    def test_stack_zero_rhs_gives_zeros(self):
        a = self._stack()
        got = numerics.solve_linear(a, np.zeros(a.shape[1]))
        assert got.shape == (len(a), a.shape[1]) and np.all(got == 0.0)


class TestGramInverseSqTrace:
    def test_identity(self):
        assert numerics.gram_inverse_sq_trace(np.eye(12)) == pytest.approx(1.0)

    def test_scaled_identity(self):
        assert numerics.gram_inverse_sq_trace(2 * np.eye(9)) == pytest.approx(0.0625)

    def test_orthogonal_shift_matches_closed_form(self):
        # I - W for an orthogonal draw at scale 0.5: the normalized trace of
        # the squared inverse gram equals 2/(1-V)^3 - 1/(1-V)^2 = 12.
        n = 2000
        w = sample(EnsembleSpec(Family.ORTHOGONAL, n, 0.5), seed_for(1, Family.ORTHOGONAL, 0, 0))
        val = numerics.gram_inverse_sq_trace(np.eye(n) - w)
        assert val == pytest.approx(12.0, rel=0.05)

    def test_singular_raises(self):
        with pytest.raises(numerics.SingularMatrixError):
            numerics.gram_inverse_sq_trace(np.diag([1.0, 0.0, 2.0]))

    @pytest.mark.parametrize("family", list(Family))
    def test_blocked_inverse_matches_svd(self, family):
        # N = 300 is above LAPACK's inverse block size, so the blocked getri path runs
        n = 300
        v = delta_to_scale(family, WeightMode.TIED, 0.05)
        a = np.eye(n) - sample(EnsembleSpec(family, n, v), seed_for(5, family, 0, 0))
        sigma = np.linalg.svd(a, compute_uv=False)
        assert numerics.gram_inverse_sq_trace(a) == pytest.approx(np.mean(sigma**-4.0), rel=1e-12)

    def test_rank_deficient_blocked_size_raises(self):
        n = 300
        a = np.eye(n) - sample(EnsembleSpec(Family.RANDOM, n, 0.5), seed_for(6, Family.RANDOM, 0, 0))
        a[-1] = a[0]
        with pytest.raises(numerics.SingularMatrixError):
            numerics.gram_inverse_sq_trace(a)

    def test_leaves_its_argument_unchanged(self):
        n = 300
        a = np.eye(n) - sample(EnsembleSpec(Family.GOE, n, 0.1), seed_for(7, Family.GOE, 0, 0))
        for given in (a, np.asfortranarray(a)):
            before = given.copy()
            numerics.gram_inverse_sq_trace(given)
            assert np.array_equal(given, before)

    def test_hutchinson_agrees_within_three_sigma(self):
        n = 500
        w = sample(EnsembleSpec(Family.RANDOM, n, 0.4), seed_for(2, Family.RANDOM, 0, 0))
        a = np.eye(n) - w
        exact = numerics.gram_inverse_sq_trace(a)
        est, stderr = numerics.gram_inverse_sq_trace_hutchinson(
            a, n_probes=64, rng=np.random.default_rng(42)
        )
        assert abs(est - exact) < 3 * stderr


class TestSymSpectrum:
    def test_diagonal(self):
        assert np.allclose(numerics.sym_spectrum(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_zero(self):
        assert np.allclose(numerics.sym_spectrum(np.zeros((5, 5))), 0.0)

    def test_empty_matrix_has_no_eigenvalues(self):
        eigs = numerics.sym_spectrum(np.zeros((0, 0)))
        assert eigs.shape == (0,)
        assert numerics.spectral_radius_estimate(np.zeros((0, 0))) == 0.0

    def test_goe_semicircle_ks(self):
        n, v = 2000, 1.0
        w = sample(EnsembleSpec(Family.GOE, n, v), seed_for(3, Family.GOE, 0, 0))
        eigs = numerics.sym_spectrum(w)
        assert kolmogorov_distance(eigs, lambda x: semicircle_cdf(x, 2.0 * np.sqrt(v))) < 0.05

    def test_eigenpair_residuals(self):
        n = 300
        w = sample(EnsembleSpec(Family.GOE, n, 0.5), seed_for(4, Family.GOE, 0, 0))
        eigs, vecs = np.linalg.eigh(w)
        lib_eigs = numerics.sym_spectrum(w)
        assert np.allclose(lib_eigs, eigs)
        residual = np.linalg.norm(w @ vecs - vecs * eigs, axis=0).max()
        assert residual <= 1e-8 * np.linalg.norm(w, 2)

    def test_asymmetric_rejected(self):
        m = np.eye(3)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError):
            numerics.sym_spectrum(m)


class TestSpectralRadius:
    def test_diagonal(self):
        r = numerics.spectral_radius_estimate(np.diag([0.3, -0.9]))
        assert abs(r - 0.9) <= 1e-3

    def test_scaled_rotation_complex_pair(self):
        m = 0.7 * np.array([[0.0, -1.0], [1.0, 0.0]])
        assert abs(numerics.spectral_radius_estimate(m) - 0.7) <= 1e-3

    def test_scaled_orthogonal(self):
        w = sample(EnsembleSpec(Family.ORTHOGONAL, 200, 0.49), seed_for(5, Family.ORTHOGONAL, 0, 0))
        assert abs(numerics.spectral_radius_estimate(w) - 0.7) <= 1e-3

    def test_zero_matrix(self):
        assert numerics.spectral_radius_estimate(np.zeros((4, 4))) == 0.0

    def test_matches_symmetric_solver(self):
        w = sample(EnsembleSpec(Family.GOE, 400, 0.3), seed_for(6, Family.GOE, 0, 0))
        direct = np.abs(numerics.sym_spectrum(w)).max()
        assert abs(numerics.spectral_radius_estimate(w, tol=1e-3) - direct) <= 1e-3 * direct

    def test_matches_dense_eigvals_on_gated_random(self):
        # nonsymmetric W diag(g) with about half the gates open, the shape of
        # the nonlinear-layer Jacobian
        n = 300
        seed = seed_for(8, Family.RANDOM, 0, 0)
        w = sample(EnsembleSpec(Family.RANDOM, n, 0.64), seed)
        gates = (seed.child(1).generator().random(n) < 0.5).astype(float)
        jac = w * gates[None, :]
        direct = float(np.abs(np.linalg.eigvals(jac)).max())
        assert abs(numerics.spectral_radius_estimate(jac) - direct) <= 1e-3 * direct

    @pytest.mark.parametrize("case", ["random", "orthogonal-block", "nilpotent", "rotation-projection", "2x2"])
    def test_equals_the_estimate_taken_after_every_squaring(self, case):
        # the estimator skips the norms its stop rule never reads; the result
        # stays bit for bit that of the loop that took them all
        n = 120
        rng = np.random.default_rng(31)
        q = sample(EnsembleSpec(Family.ORTHOGONAL, n, 1.0), seed_for(31, Family.ORTHOGONAL, 0, 0))
        if case == "random":
            m = sample(EnsembleSpec(Family.RANDOM, n, 0.5), seed_for(31, Family.RANDOM, 0, 0))
        elif case == "orthogonal-block":
            m = 0.8 * q[:60, :60]
        elif case == "nilpotent":
            m = np.triu(rng.standard_normal((n, n)), 1)
        elif case == "rotation-projection":
            m = 0.9 * q * (rng.random(n) < 0.5)[None, :]
        else:
            m = np.array([[0.5, 3.0], [0.0, -0.4]])
        for tol in (1e-3, 1e-6):
            assert numerics.spectral_radius_estimate(m, tol) == _radius_every_squaring(m, tol)

    def test_nonfinite_rejected(self):
        m = np.eye(2)
        m[1, 1] = np.inf
        with pytest.raises(ValueError):
            numerics.spectral_radius_estimate(m)


class TestGaussHermiteExpect:
    def test_second_moment(self):
        for s in (0.3, 1.0, 7.0, 100.0):
            val = numerics.gauss_hermite_expect(lambda h: h**2, 0.0, s)
            assert val == pytest.approx(s, rel=1e-10)

    def test_polynomial_moments_exact(self):
        # E[h^4] = 3 s^2, E[h^6] = 15 s^3 for centered Gaussians
        s = 2.5
        assert numerics.gauss_hermite_expect(lambda h: h**4, 0.0, s) == pytest.approx(3 * s * s, rel=1e-12)
        assert numerics.gauss_hermite_expect(lambda h: h**6, 0.0, s) == pytest.approx(15 * s**3, rel=1e-12)

    def test_mean_shift(self):
        val = numerics.gauss_hermite_expect(lambda h: h, 1.7, 0.9)
        assert val == pytest.approx(1.7, rel=1e-12)

    def test_hard_tanh_square_vanishes_at_zero_variance(self):
        val = numerics.gauss_hermite_expect(lambda h: np.clip(h, -1, 1) ** 2, 0.0, 0.0)
        assert val == 0.0

    def test_indicator_matches_erf(self):
        val = numerics.gauss_hermite_expect(lambda h: (np.abs(h) < 1).astype(float), 0.0, 0.319)
        assert abs(val - math.erf(1 / math.sqrt(2 * 0.319))) < 1e-3
        # erf(1/sqrt(2*0.319)) = 0.9233620372384727
        assert val == pytest.approx(0.9233620372384727, abs=1e-6)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            numerics.gauss_hermite_expect(lambda h: h, 0.0, -1.0)

    @pytest.mark.parametrize("s", [0.5, 2.0, 30.0, 100.0, 1000.0])
    def test_tanh_moments_match_quadrature_in_h(self, s, quad_expect):
        # the expectations the scalar solve and the radius read for tanh
        cases = [
            (lambda h: TANH.phi(h) ** 2, lambda h: math.tanh(h) ** 2),
            (TANH.dphi, lambda h: 1.0 - math.tanh(h) ** 2),
            (lambda h: TANH.dphi(h) ** 2, lambda h: (1.0 - math.tanh(h) ** 2) ** 2),
        ]
        for f, oracle in cases:
            with np.errstate(over="ignore"):  # cosh(h)^2 overflows far out, where sech^2 is 0
                got = numerics.gauss_hermite_expect(f, 0.0, s)
            assert abs(got - quad_expect(oracle, s)) <= 1e-12


import functools
import math
import tracemalloc

import numpy as np
import pytest

from deqlab import linear_deq as ld
from deqlab.analytic_moments import CriticalScaleError, WeightMode, length_variance_theory, variance_factor_theory
from deqlab import numerics
from deqlab.ensembles import EnsembleSpec, Family, over_seeds, sample, seed_for
from deqlab.numerics import SingularMatrixError, summarize

TIED, UNTIED = WeightMode.TIED, WeightMode.UNTIED


def _x(n, seed=123, sigma=1.0):
    return np.random.default_rng(seed).standard_normal(n) * sigma


def _over_draws(measure, spec, n_seeds):
    """Values of measure(seed) over the draws of base seed 0 and grid label 0,
    as the first cell of a sweep takes them."""
    return over_seeds(measure, 0, spec.family, 0, n_seeds)[0]


def _variance_factors(spec, mode, n_seeds):
    return _over_draws(functools.partial(ld.variance_factor, spec, mode), spec, n_seeds)


def _length_variances(spec, mode, n_seeds):
    return _over_draws(functools.partial(ld.length_variance, spec, mode), spec, n_seeds)


class TestSolveClosedForm:
    def test_zero_weights(self):
        x = _x(20)
        assert np.allclose(ld.solve_closed_form(np.zeros((20, 20)), x), x)

    def test_half_identity_geometric_sum(self):
        z = ld.solve_closed_form(0.5 * np.eye(8), np.ones(8))
        assert np.allclose(z, 2.0)

    def test_matches_iteration(self):
        n = 500
        w = sample(EnsembleSpec(Family.RANDOM, n, 0.25), seed_for(0, Family.RANDOM, 0, 0))
        x = _x(n)
        z_direct = ld.solve_closed_form(w, x)
        z_iter = ld.iterate_tied(w, x, tol=1e-12, t_max=200).solution
        assert np.abs(z_direct - z_iter).max() < 1e-8

    def test_singular_shift(self):
        with pytest.raises(SingularMatrixError):
            ld.solve_closed_form(np.eye(5), np.ones(5))


class TestIterateTied:
    def test_zero_weights_one_step(self):
        x = _x(10)
        res = ld.iterate_tied(np.zeros((10, 10)), x, tol=1e-12)
        assert res.converged and res.iterations <= 2
        assert np.allclose(res.solution, x)

    def test_orthogonal_converges_and_matches_closed_form(self):
        n, tol = 400, 1e-9
        w = sample(EnsembleSpec(Family.ORTHOGONAL, n, 0.81), seed_for(1, Family.ORTHOGONAL, 0, 0))
        x = _x(n)
        res = ld.iterate_tied(w, x, tol=tol)
        assert res.converged
        assert np.abs(res.solution - ld.solve_closed_form(w, x)).max() <= 10 * tol

    def test_orthogonal_every_seed_converges_below_threshold(self):
        n = 200
        for rep in range(6):
            w = sample(EnsembleSpec(Family.ORTHOGONAL, n, 0.97), seed_for(2, Family.ORTHOGONAL, 0, rep))
            assert ld.iterate_tied(w, _x(n, rep), tol=1e-8, t_max=2000).converged

    def test_supercritical_orthogonal_diverges_without_raising(self):
        n = 200
        w = sample(EnsembleSpec(Family.ORTHOGONAL, n, 1.21), seed_for(3, Family.ORTHOGONAL, 0, 0))
        x = _x(n)
        res = ld.iterate_tied(w, x, tol=1e-9, t_max=60)
        assert not res.converged
        # every eigenvalue has magnitude 1.1, so the step norm grows ~1.1/step
        res_long = ld.iterate_tied(w, x, tol=1e-9, t_max=80)
        assert res_long.final_residual > res.final_residual

    def test_overflow_flagged(self):
        w = 3.0 * np.eye(4)
        res = ld.iterate_tied(w, np.ones(4), t_max=10_000, tol=1e-9)
        assert not res.converged and res.final_residual == math.inf


class TestIterateUntied:
    def test_zero_steps_returns_origin(self):
        spec = EnsembleSpec(Family.RANDOM, 30, 0.5)
        assert np.array_equal(ld.iterate_untied(spec, _x(30), 0, seed_for(0, Family.RANDOM, 0, 0)), np.zeros(30))

    def test_single_step_reconstruction(self):
        spec = EnsembleSpec(Family.GOE, 40, 0.3)
        seed = seed_for(4, Family.GOE, 0, 0)
        x = _x(40)
        z1 = ld.iterate_untied(spec, x, 1, seed)
        w1 = sample(spec, seed.child(1))
        assert np.allclose(z1, w1 @ x + x)

    def test_deep_variance_matches_geometric_sum(self):
        n, t, v, n_seeds = 600, 40, 0.5, 120
        spec = EnsembleSpec(Family.RANDOM, n, v)
        x = _x(n)
        expected = (x @ x / n) * sum(v**k for k in range(1, t + 1))
        per_seed = []
        for rep in range(n_seeds):
            z = ld.iterate_untied(spec, x, t, seed_for(5, Family.RANDOM, 0, rep))
            per_seed.append(float((z - x) @ (z - x)) / n)
        se = np.std(per_seed, ddof=1) / math.sqrt(n_seeds)
        assert abs(np.mean(per_seed) - expected) < 3 * se

    def test_norm_recursion_invariant(self, monkeypatch):
        # E[z_{t+1} . z_{t+1}] = x.x + V E[z_t . z_t] at each step.  Depths
        # 1-4 of one seed reuse its four step matrices, so the sampler is
        # memoized: sample is pure in (spec, seed), the draws are unchanged.
        monkeypatch.setattr(ld, "sample", functools.lru_cache(maxsize=4)(ld.sample))
        n, v, n_seeds = 500, 0.4, 120
        spec = EnsembleSpec(Family.ORTHOGONAL, n, v)
        x = _x(n, 7)
        xx = float(x @ x)
        sq_norms = np.empty((n_seeds, 4))
        for rep in range(n_seeds):
            seed = seed_for(6, Family.ORTHOGONAL, 0, rep)
            for ti, t in enumerate((1, 2, 3, 4)):
                z = ld.iterate_untied(spec, x, t, seed)
                sq_norms[rep, ti] = z @ z
        for ti in range(3):
            lhs = sq_norms[:, ti + 1]
            rhs = xx + v * sq_norms[:, ti]
            se = np.std(lhs - rhs, ddof=1) / math.sqrt(n_seeds)
            assert abs(np.mean(lhs - rhs)) < 3 * se + 1e-9 * xx


class TestEstimateMoments:
    def test_zero_scale(self):
        spec = EnsembleSpec(Family.RANDOM, 50, 0.0)
        values = _variance_factors(spec, TIED, 4)
        assert summarize(values).mean == 0.0 and variance_factor_theory(spec.family, TIED, spec.scale) == 0.0

    def test_random_tied_half(self):
        spec = EnsembleSpec(Family.RANDOM, 600, 0.5)
        stats = summarize(_variance_factors(spec, TIED, 50))
        assert variance_factor_theory(spec.family, TIED, spec.scale) == pytest.approx(1.0)
        assert abs(stats.mean - 1.0) < 3 * stats.stderr

    def test_goe_tied_eighth_matches_catalan_series(self):
        spec = EnsembleSpec(Family.GOE, 600, 0.125)
        stats = summarize(_variance_factors(spec, TIED, 40))
        theory = variance_factor_theory(spec.family, TIED, spec.scale)
        assert theory == pytest.approx(4 * math.sqrt(2) - 5)
        assert abs(stats.mean - theory) < 3 * stats.stderr

    def test_untied_matches_tied_for_random(self):
        spec = EnsembleSpec(Family.RANDOM, 400, 0.4)
        stats = summarize(_variance_factors(spec, UNTIED, 40))
        theory = variance_factor_theory(spec.family, UNTIED, spec.scale)
        assert theory == pytest.approx(0.4 / 0.6)
        assert abs(stats.mean - theory) < 4 * stats.stderr

    def test_mean_projections_match_resolvent_trace(self):
        # E[z*] = gamma x with gamma the mean normalized resolvent trace:
        # 1 for random/orthogonal (odd-moment cancellation), but the Catalan
        # generating function f_c(V) for tied symmetric matrices, whose even
        # powers have order-one traces.  Checked via projections onto x and
        # an independent direction.
        from deqlab.analytic_moments import catalan_generating

        n, n_seeds = 300, 80
        x = _x(n, 11)
        u = _x(n, 12)
        cases = (
            (Family.RANDOM, 0.4, 1.0),
            (Family.GOE, 0.1, catalan_generating(0.1)),
            (Family.ORTHOGONAL, 0.5, 1.0),
        )
        for family, v, gamma in cases:
            spec = EnsembleSpec(family, n, v)
            proj_x, proj_u = [], []
            for rep in range(n_seeds):
                z = ld.solve_closed_form(sample(spec, seed_for(13, family, 0, rep)), x)
                proj_x.append((z - gamma * x) @ x)
                proj_u.append((z - gamma * x) @ u)
            for vals in (proj_x, proj_u):
                se = np.std(vals, ddof=1) / math.sqrt(n_seeds)
                # 1/N trace corrections put a small floor under the bias
                assert abs(np.mean(vals)) < 4 * se + 10.0 / n * (x @ x) * v


@pytest.mark.parametrize("measure", [ld.variance_factor, ld.length_variance])
def test_supercritical_scale_raises_before_any_draw(measure, monkeypatch):
    # tied GOE diverges at V = 1/4
    monkeypatch.setattr(ld, "sample", lambda *args: pytest.fail("a matrix was drawn"))
    with pytest.raises(CriticalScaleError):
        measure(EnsembleSpec(Family.GOE, 20, 0.3), TIED, seed_for(0, Family.GOE, 0, 0))


class TestEstimateLengthVariance:
    def test_zero_scale_is_one(self):
        spec = EnsembleSpec(Family.GOE, 60, 0.0)
        values = _length_variances(spec, TIED, 3)
        assert summarize(values).mean == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_tied_half(self):
        spec = EnsembleSpec(Family.ORTHOGONAL, 600, 0.5)
        values = _length_variances(spec, TIED, 5)
        assert length_variance_theory(spec.family, TIED, spec.scale) == pytest.approx(12.0)
        assert summarize(values).median == pytest.approx(12.0, rel=0.05)

    def test_untied_orthogonal_half(self):
        spec = EnsembleSpec(Family.ORTHOGONAL, 300, 0.5)
        stats = summarize(_length_variances(spec, UNTIED, 50))
        theory = length_variance_theory(spec.family, UNTIED, spec.scale)
        assert theory == pytest.approx(20.0 / 3.0)
        assert abs(stats.mean - theory) < 3 * stats.stderr

    def test_hutchinson_mode_consistent(self):
        spec = EnsembleSpec(Family.RANDOM, 300, 0.3)
        exact = _length_variances(spec, TIED, 8)

        def hutchinson_64(seed):  # the tied Hutchinson measurement at 64 probes
            a = np.eye(spec.dim) - sample(spec, seed)
            return numerics.gram_inverse_sq_trace_hutchinson(a, seed.child(10_001).generator(), n_probes=64)[0]

        noisy = _over_draws(hutchinson_64, spec, 8)
        assert summarize(noisy).mean == pytest.approx(summarize(exact).mean, rel=0.15)

    @pytest.mark.parametrize("estimator", ["exact", "hutchinson"])
    def test_leaves_earlier_draws_unchanged(self, estimator):
        # the draw is overwritten with I - W inside; a caller's own draw of
        # the same seed is a separate array
        spec = EnsembleSpec(Family.ORTHOGONAL, 80, 0.3)
        seed = seed_for(9, Family.ORTHOGONAL, 0, 0)
        w = sample(spec, seed)
        before = w.copy()
        ld.length_variance(spec, TIED, seed, estimator)
        assert np.array_equal(w, before)
        assert np.array_equal(sample(spec, seed), before)

    @pytest.mark.parametrize("family", list(Family))
    def test_tied_exact_draw_holds_three_square_arrays(self, family):
        # the draw, the LU inverse and its gram: I - W, the scaling and the
        # squares are formed in place.  tracemalloc sees numpy's buffers.
        n = 300
        spec = EnsembleSpec(family, n, 0.16)
        ld.length_variance(spec, TIED, seed_for(3, family, 0, 0))  # warm caches and imports
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ld.length_variance(spec, TIED, seed_for(3, family, 0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 3.2 * n * n * 8

    def test_truncation_depth(self):
        assert ld.untied_truncation_depth(0.5) == 20
        assert ld.untied_truncation_depth(0.0) == 1
        with pytest.raises(ValueError):
            ld.untied_truncation_depth(1.0)


class TestConvergenceBound:
    def test_bound_arithmetic(self):
        n = 500
        w = sample(EnsembleSpec(Family.RANDOM, n, 0.5), seed_for(14, Family.RANDOM, 0, 0))
        check = ld.check_convergence_bound(w, np.ones(n), t=10, v=0.5)
        assert check.rhs == pytest.approx((2 * 10 / 0.5) * n * 0.5**11)
        assert check.rhs == pytest.approx(9.765625)

    def test_bound_tightens_with_depth(self):
        n = 300
        w = sample(EnsembleSpec(Family.RANDOM, n, 0.5), seed_for(15, Family.RANDOM, 0, 0))
        x = np.ones(n)
        deep = ld.check_convergence_bound(w, x, t=40, v=0.5)
        assert deep.holds and deep.lhs < 1e-8 and deep.rhs < 1e-6

    def test_bound_holds_for_most_seeds(self):
        n, n_seeds = 300, 60
        spec = EnsembleSpec(Family.RANDOM, n, 0.5)
        x = np.ones(n)
        held = [
            ld.check_convergence_bound(sample(spec, seed_for(16, Family.RANDOM, 0, rep)), x, 15, 0.5).holds
            for rep in range(n_seeds)
        ]
        assert np.mean(held) >= 0.95

    def test_overflowing_iterate_is_diverged(self):
        check = ld.check_convergence_bound(3.0 * np.eye(4), np.ones(4), t=500, v=0.5)
        assert check.diverged and not check.holds and check.lhs == math.inf

    def test_depth_below_one_rejected(self):
        with pytest.raises(ValueError):
            ld.check_convergence_bound(np.zeros((4, 4)), np.ones(4), t=0, v=0.5)


import csv
import math

import numpy as np
import pytest

from deqlab import cli
from deqlab import train_probe as tp
from deqlab.ensembles import EnsembleSpec, Family, sample, seed_for
from deqlab.linear_deq import solve_closed_form
from deqlab.nonlinear_deq import HARD_TANH, IDENTITY, TANH
from deqlab.numerics import SingularMatrixError


def _x(n, seed=0):
    return np.random.default_rng(seed).standard_normal(n)


def finite_difference_grad(w, x, phi, v, step=1e-5):
    """Central-difference reference gradient; solves to near machine precision."""
    n = w.shape[0]
    grad = np.empty_like(w)
    for a in range(n):
        for b in range(n):
            wp, wm = w.copy(), w.copy()
            wp[a, b] += step
            wm[a, b] -= step
            fp = tp.deq_forward(wp, x, phi, tol=1e-13)
            fm = tp.deq_forward(wm, x, phi, tol=1e-13)
            assert fp.converged and fm.converged
            grad[a, b] = (v @ fp.solution - v @ fm.solution) / (2 * step)
    return grad


class TestDeqForward:
    def test_zero_weights(self):
        x = _x(9)
        res = tp.deq_forward(np.zeros((9, 9)), x, HARD_TANH, tol=1e-12)
        assert res.converged and np.allclose(res.solution, x)

    def test_identity_matches_closed_form(self):
        n = 120
        w = sample(EnsembleSpec(Family.RANDOM, n, 0.2), seed_for(0, Family.RANDOM, 0, 0))
        x = _x(n, 1)
        res = tp.deq_forward(w, x, IDENTITY, tol=1e-12)
        assert res.converged
        assert np.abs(res.solution - solve_closed_form(w, x)).max() < 1e-9

    def test_hardtanh_residual(self):
        n = 300
        w = sample(EnsembleSpec(Family.ORTHOGONAL, n, 0.25), seed_for(1, Family.ORTHOGONAL, 0, 0))
        x = _x(n, 2)
        res = tp.deq_forward(w, x, HARD_TANH, tol=1e-11)
        assert res.converged
        assert np.abs(res.solution - HARD_TANH.phi(w @ res.solution) - x).max() < 1e-9

    def test_supercritical_flagged_not_raised(self):
        n = 60
        w = sample(EnsembleSpec(Family.ORTHOGONAL, n, 1.44), seed_for(2, Family.ORTHOGONAL, 0, 0))
        res = tp.deq_forward(w, _x(n, 3), IDENTITY, t_max=500)
        assert not res.converged


class TestDeqVjp:
    def test_zero_weights_identity(self):
        n = 7
        x, v = _x(n, 4), _x(n, 5)
        grad = tp.deq_vjp(np.zeros((n, n)), x, IDENTITY, v)
        assert np.allclose(grad, np.outer(v, x))

    def test_identity_closed_form(self):
        n = 40
        w = sample(EnsembleSpec(Family.RANDOM, n, 0.25), seed_for(3, Family.RANDOM, 0, 0))
        x, v = _x(n, 6), _x(n, 7)
        grad = tp.deq_vjp(w, x, IDENTITY, v)
        eye = np.eye(n)
        expected = np.outer(np.linalg.solve(eye - w.T, v), np.linalg.solve(eye - w, x))
        assert np.abs(grad - expected).max() < 1e-10 * np.abs(expected).max()

    @pytest.mark.parametrize("phi", [IDENTITY, HARD_TANH])
    def test_matches_finite_differences(self, phi):
        n = 10
        w = sample(EnsembleSpec(Family.RANDOM, n, 0.09), seed_for(4, Family.RANDOM, 0, 0))
        x, v = _x(n, 8), _x(n, 9)
        grad = tp.deq_vjp(w, x, phi, v)
        fd = finite_difference_grad(w, x, phi, v)
        rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
        assert rel < 1e-5

    def test_singular_adjoint_raises(self):
        n = 5
        with pytest.raises(SingularMatrixError):
            tp.deq_vjp(np.eye(n), _x(n, 10), IDENTITY, _x(n, 11), z_star=np.zeros(n))


def _draw(family, sqrt_v, dim, rep=0, base_seed=0):
    """A seed's (W, v) as train-probe draws them."""
    seed = seed_for(base_seed, family, 11, rep)
    w = sample(EnsembleSpec(family, dim, sqrt_v * sqrt_v), seed)
    return w, seed.child(1).generator().standard_normal(dim) / math.sqrt(dim)


def _per_sample_mse_and_grads(w, v, xs, ys, phi):
    """Reference for ``tp._mse_and_grads``: one forward and one adjoint per
    sample, the adjoint by ``np.linalg.solve`` of ``(I - (D W)^T) a = v``."""
    z_stars = []
    for x in xs:
        fp = tp.deq_forward(w, x, phi)
        if not fp.converged:
            return math.inf, None, None
        z_stars.append(fp.solution)
    weights = [2.0 * (v @ z - y) / len(xs) for z, y in zip(z_stars, ys)]
    grad_w = np.zeros_like(w)
    for c, z in zip(weights, z_stars):
        gates = phi.dphi(w @ z)
        grad_w += c * np.outer(gates * np.linalg.solve(np.eye(len(v)) - (gates[:, None] * w).T, v), z)
    grad_v = sum(c * z for c, z in zip(weights, z_stars))
    return float(np.mean([(v @ z - y) ** 2 for z, y in zip(z_stars, ys)])), grad_w, grad_v


class TestStackedForward:
    @pytest.mark.parametrize("phi", [HARD_TANH, TANH])
    @pytest.mark.parametrize("family, sqrt_v", [(Family.RANDOM, 0.3), (Family.ORTHOGONAL, 0.6), (Family.RANDOM, 0.9)])
    def test_batched_loss_and_grads_match_per_sample(self, phi, family, sqrt_v):
        xs, ys = tp.probe_dataset(teacher_seed=4, n_samples=15, dim=24)
        w, v = _draw(family, sqrt_v, 24, rep=1)
        loss, grad_w, grad_v = tp._mse_and_grads(w, v, xs, ys, phi)
        want_loss, want_w, want_v = _per_sample_mse_and_grads(w, v, xs, ys, phi)
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=0.0)
        assert np.linalg.norm(grad_w - want_w) <= 1e-12 * np.linalg.norm(want_w)
        assert np.linalg.norm(grad_v - want_v) <= 1e-12 * np.linalg.norm(want_v)
        # the stacked adjoint against one single-vector deq_vjp call per sample
        z_stars = tp.deq_forward(w, xs, phi).solution
        weights = 2.0 * (z_stars @ v - ys) / len(ys)
        single = sum(c * tp.deq_vjp(w, x, phi, v, z_star=z) for c, x, z in zip(weights, xs, z_stars))
        assert np.linalg.norm(grad_w - single) <= 1e-12 * np.linalg.norm(single)

    def test_one_settled_row_does_not_save_the_batch(self):
        # identity at spectral radius 1.2: the zero input settles at step one, the others overflow
        xs, ys = tp.probe_dataset(teacher_seed=1, n_samples=10, dim=24)
        xs = np.vstack([np.zeros(24), xs])
        w, v = _draw(Family.ORTHOGONAL, 1.2, 24)
        assert tp.deq_forward(w, xs[0], IDENTITY).converged
        assert not tp.deq_forward(w, xs[1], IDENTITY).converged
        assert tp._mse_and_grads(w, v, xs, np.append(0.0, ys), IDENTITY) == (math.inf, None, None)


class TestAdjointAtThreshold:
    """D W with an eigenvalue of 1 - 1e-15 for one sample only: hard-tanh's
    first gate stays open where x_0 = 0 and shuts where x_0 = 5.  That
    sample's adjoint matrix has a pivot of 1e-15, singular to the pivot test
    (below N eps times the largest pivot, 1), though not exactly singular."""

    n = 6
    w = np.diag([1.0 - 1e-15] + [0.5] * (n - 1))
    xs = np.full((3, n), 5.0)
    xs[1, 0] = 0.0
    v = np.ones(n) / math.sqrt(n)

    def test_one_singular_sample_fails_the_stacked_adjoint(self):
        fp = tp.deq_forward(self.w, self.xs, HARD_TANH)
        assert fp.converged
        z_stars = fp.solution
        for k in (0, 2):
            assert np.all(np.isfinite(tp.deq_vjp(self.w, self.xs[k], HARD_TANH, self.v, z_star=z_stars[k])))
        with pytest.raises(SingularMatrixError):
            tp.deq_vjp(self.w, self.xs[1], HARD_TANH, self.v, z_star=z_stars[1])
        with pytest.raises(SingularMatrixError):
            tp.deq_vjp(self.w, self.xs, HARD_TANH, self.v, z_star=z_stars, weights=np.ones(3))

    def test_adjoint_at_threshold_ends_the_descent(self):
        ys = np.zeros(3)
        loss, grad_w, grad_v = tp._mse_and_grads(self.w, self.v, self.xs, ys, HARD_TANH)
        assert math.isfinite(loss) and grad_w is None and grad_v is None
        assert tp.descend(self.w, self.v, self.xs, ys, lr=0.05, steps=3, phi=HARD_TANH) is None


class TestProbeDataset:
    def test_dataset_deterministic_and_split(self):
        xs1, ys1 = tp.probe_dataset(teacher_seed=3, n_samples=20, dim=6)
        xs2, ys2 = tp.probe_dataset(teacher_seed=3, n_samples=20, dim=6)
        assert np.array_equal(xs1, xs2) and np.array_equal(ys1, ys2)
        assert xs1.shape == (16, 6) and ys1.shape == (16,)


class TestTrainSweep:
    def test_deep_subcritical_never_diverges(self):
        xs, ys = tp.probe_dataset(teacher_seed=1, n_samples=12, dim=24)
        for rep in range(10):
            w, v = _draw(Family.RANDOM, 0.05, 24, rep)
            assert tp.descend(w, v, xs, ys, lr=0.05, steps=8, phi=HARD_TANH) is not None

    def test_supercritical_identity_fails_at_step_zero(self):
        xs, ys = tp.probe_dataset(teacher_seed=1, n_samples=8, dim=24)
        for rep in range(5):
            w, v = _draw(Family.ORTHOGONAL, 1.2, 24, rep)
            assert tp.descend(w, v, xs, ys, lr=0.01, steps=5, phi=IDENTITY) is None
            assert tp.descend(w, v, xs, ys, lr=0.01, steps=0, phi=IDENTITY) is None

    def test_zero_steps_keep_the_initial_loss(self):
        xs, ys = tp.probe_dataset(teacher_seed=1, n_samples=10, dim=16)
        w, v = _draw(Family.RANDOM, 0.2, 16)
        loss0 = float(np.mean([(v @ tp.deq_forward(w, x, HARD_TANH).solution - y) ** 2 for x, y in zip(xs, ys)]))
        loss, hit = tp.descend(w, v, xs, ys, lr=0.05, steps=0, phi=HARD_TANH)
        assert loss == pytest.approx(loss0, rel=1e-12) and hit is None

    def test_loss_decreases_in_subcritical_regime(self):
        # ten plain descent steps through the implicit gradient
        xs, ys = tp.probe_dataset(teacher_seed=2, n_samples=12, dim=20)
        for sq in (0.1, 0.2):
            spec = EnsembleSpec(Family.RANDOM, 20, sq * sq)
            seed = seed_for(10, Family.RANDOM, 0, 0)
            w = sample(spec, seed)
            v = seed.child(1).generator().standard_normal(20) / math.sqrt(20)
            losses = []
            for _ in range(10):
                preds = np.empty(len(ys))
                grad_w = np.zeros_like(w)
                grad_v = np.zeros_like(v)
                z_stars = []
                for i in range(len(ys)):
                    fp = tp.deq_forward(w, xs[i], HARD_TANH, tol=1e-12)
                    z_stars.append(fp.solution)
                    preds[i] = v @ fp.solution
                errs = preds - ys
                losses.append(float(np.mean(errs**2)))
                for i in range(len(ys)):
                    grad_w += (2 * errs[i] / len(ys)) * tp.deq_vjp(w, xs[i], HARD_TANH, v, z_star=z_stars[i])
                    grad_v += (2 * errs[i] / len(ys)) * z_stars[i]
                w = w - 0.05 * grad_w
                v = v - 0.05 * grad_v
            assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_summary_shapes(self, tmp_path):
        out = tmp_path / "tp.csv"
        args = ["train-probe", "--n", "16", "--seeds", "3", "--grid", "0.1:0.4:2", "--steps", "5",
                "--dataset-size", "10", "--families", "orthogonal,goe"]
        assert cli.main([*args, "--out", str(out)]) == 0
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        cells = [(row["family"], row["sqrt_v"]) for row in rows[::3]]
        assert cells == [("goe", "0.1"), ("goe", "0.4"), ("orthogonal", "0.1"), ("orthogonal", "0.4")]
        for i, cell in enumerate(cells):
            stats = rows[3 * i : 3 * i + 3]
            assert all((row["family"], row["sqrt_v"]) == cell for row in stats)
            assert [row["statistic"] for row in stats] == [
                "divergence_rate", "mean_final_train_loss", "median_steps_to_half_loss"
            ]
            assert 0.0 <= float(stats[0]["emp_mean"]) <= 1.0

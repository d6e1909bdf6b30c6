import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deqlab.ensembles import (
    EnsembleSpec,
    Family,
    SeedDerivation,
    haar_orthogonal,
    over_seeds,
    sample,
    seed_for,
)
from deqlab.numerics import SingularMatrixError


def test_orthogonal_gram_is_exact():
    spec = EnsembleSpec(Family.ORTHOGONAL, 50, 4.0)
    w = sample(spec, seed_for(0, Family.ORTHOGONAL, 0, 0))
    assert np.abs(w.T @ w - 4.0 * np.eye(50)).max() < 1e-12


def test_goe_is_exactly_symmetric():
    w = sample(EnsembleSpec(Family.GOE, 100, 1.0), seed_for(0, Family.GOE, 0, 0))
    assert np.array_equal(w, w.T)


def test_goe_entry_variances():
    n = 400
    w = sample(EnsembleSpec(Family.GOE, n, 2.0), seed_for(3, Family.GOE, 0, 0))
    off = w[~np.eye(n, dtype=bool)]
    diag = np.diag(w)
    assert np.var(off) == pytest.approx(2.0 / n, rel=0.05)
    assert np.var(diag) == pytest.approx(4.0 / n, rel=0.35)


def test_random_gram_trace_matches_scale():
    spec = EnsembleSpec(Family.RANDOM, 1000, 0.5)
    vals = []
    for rep in range(100):
        w = sample(spec, seed_for(0, Family.RANDOM, 0, rep))
        vals.append(float(np.sum(w * w)) / 1000)  # normalized trace of W^T W
    se = np.std(vals, ddof=1) / np.sqrt(len(vals))
    assert abs(np.mean(vals) - 0.5) < 3 * se


def test_haar_preserves_norms_and_centers_coordinates():
    n, v = 16, 2.0
    u = np.zeros(n)
    u[0] = 1.0
    spec = EnsembleSpec(Family.ORTHOGONAL, n, v)
    images = []
    for rep in range(1000):
        w = sample(spec, seed_for(5, Family.ORTHOGONAL, 0, rep))
        y = (w @ u) / np.sqrt(v)
        assert abs(np.linalg.norm(y) - 1.0) < 1e-10
        images.append(y)
    images = np.asarray(images)
    se = images.std(axis=0, ddof=1) / np.sqrt(images.shape[0])
    assert np.all(np.abs(images.mean(axis=0)) < 4 * se)


def test_goe_spectrum_concentrates_in_semicircle_support():
    n, v = 2000, 0.7
    w = sample(EnsembleSpec(Family.GOE, n, v), seed_for(2, Family.GOE, 0, 0))
    eigs = np.linalg.eigvalsh(w)
    edge = 2 * np.sqrt(v)
    outside = np.mean((eigs < -edge - 0.1) | (eigs > edge + 0.1))
    assert outside < 1e-3


def test_determinism_and_stream_separation():
    spec = EnsembleSpec(Family.RANDOM, 40, 1.0)
    a = sample(spec, seed_for(7, Family.RANDOM, 1, 2))
    b = sample(spec, seed_for(7, Family.RANDOM, 1, 2))
    assert np.array_equal(a, b)
    c = sample(spec, seed_for(7, Family.RANDOM, 1, 3))
    d = sample(spec, seed_for(7, Family.RANDOM, 2, 2))
    e = sample(spec, seed_for(8, Family.RANDOM, 1, 2))
    for other in (c, d, e):
        assert not np.array_equal(a, other)


def test_seed_child_extends_labels():
    seed = SeedDerivation(11, (1, 2))
    assert seed.child(3).labels == (1, 2, 3)
    assert seed.labels == (1, 2)


def test_haar_sign_correction_mixes_reflections():
    # Raw QR would pin the determinant-carrying signs; corrected draws should
    # produce both determinant signs across seeds.
    dets = []
    for rep in range(40):
        rng = SeedDerivation(9, (rep,)).generator()
        dets.append(np.sign(np.linalg.det(haar_orthogonal(9, rng))))
    assert len(set(dets)) == 2


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        EnsembleSpec(Family.RANDOM, 0, 1.0)
    with pytest.raises(ValueError):
        EnsembleSpec(Family.RANDOM, 10, -0.5)
    with pytest.raises(ValueError):
        EnsembleSpec("not-a-family", 10, 0.5)


class TestOverSeeds:
    def test_values_in_replicate_order_from_each_replicates_seed(self):
        seen = []

        def measure(seed):
            seen.append(seed)
            return seed.labels[-1] * 10

        values, n_failed = over_seeds(measure, 5, Family.GOE, 3, 4)
        assert values == [0, 10, 20, 30] and n_failed == 0
        assert seen == [seed_for(5, Family.GOE, 3, k) for k in range(4)]

    def test_none_and_singular_seeds_fail(self):
        def measure(seed):
            rep = seed.labels[-1]
            if rep == 1:
                return None
            if rep == 3:
                raise SingularMatrixError("singular")
            return rep

        assert over_seeds(measure, 0, Family.RANDOM, 0, 5) == ([0, 2, 4], 2)

    def test_other_errors_propagate(self):
        def measure(seed):
            raise ValueError("not a seed failure")

        with pytest.raises(ValueError):
            over_seeds(measure, 0, Family.RANDOM, 0, 2)


BASES = st.integers(0, 2**63 - 1)
FAMILIES = st.sampled_from(list(Family))
LABELS = st.lists(st.integers(0, 2**32 - 1), max_size=4).map(tuple)


def _stream(base, family, labels):
    return seed_for(base, family, *labels).generator().standard_normal(6)


@settings(deadline=None)
@given(base=BASES, family=FAMILIES, tuples=st.lists(LABELS, min_size=1, max_size=5, unique=True), data=st.data())
def test_stream_independent_of_earlier_draws_and_order(base, family, tuples, data):
    alone = {labels: _stream(base, family, labels) for labels in tuples}
    started = []
    for labels in data.draw(st.permutations(tuples)):
        for gen in started:  # advance every stream opened before this one
            gen.standard_normal(data.draw(st.integers(0, 5)))
        gen = seed_for(base, family, *labels).generator()
        assert np.array_equal(gen.standard_normal(6), alone[labels])
        started.append(gen)


@settings(deadline=None)
@given(a=st.tuples(BASES, FAMILIES, LABELS), b=st.tuples(BASES, FAMILIES, LABELS))
def test_distinct_label_tuples_give_distinct_streams(a, b):
    if a != b:
        assert not np.array_equal(_stream(*a), _stream(*b))


@settings(deadline=None)
@given(base=BASES, family=FAMILIES, a=LABELS, b=LABELS)
def test_child_of_child_equals_one_child(base, family, a, b):
    seed = seed_for(base, family)
    assert seed.child(*a).child(*b) == seed.child(*a, *b)
    assert np.array_equal(seed.child(*a).child(*b).generator().random(4), seed.child(*a, *b).generator().random(4))

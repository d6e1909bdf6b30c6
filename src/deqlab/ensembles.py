"""Seeded samplers for the three weight-matrix families.

Every matrix is a pure function of an :class:`EnsembleSpec` and a
:class:`SeedDerivation`; identical inputs reproduce the matrix bit for bit,
and distinct label tuples never share a random stream.  This makes grid
sweeps safe to parallelise without seed bookkeeping at the call sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
import scipy.linalg

from .numerics import SingularMatrixError


class Family(str, Enum):
    """Weight-matrix family.

    RANDOM     entries i.i.d. Gaussian, variance ``scale / dim``
    GOE        symmetric Gaussian, variance ``scale/dim`` off-diagonal and
               ``2*scale/dim`` on the diagonal
    ORTHOGONAL ``sqrt(scale)`` times a Haar-distributed orthogonal matrix
    """

    RANDOM = "random"
    GOE = "goe"
    ORTHOGONAL = "orthogonal"


#: Stable integer codes used in seed-stream labels (never reorder).
FAMILY_CODE = {Family.RANDOM: 0, Family.GOE: 1, Family.ORTHOGONAL: 2}


@dataclass(frozen=True)
class EnsembleSpec:
    """Which family to draw from, at which dimension and squared scale.

    ``scale`` is the mean squared singular value: the normalized trace of
    ``W^T W`` equals ``scale`` in expectation (exactly, for ORTHOGONAL).
    """

    family: Family
    dim: int
    scale: float

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            object.__setattr__(self, "family", Family(self.family))
        if self.dim < 1:
            raise ValueError(f"ensemble dim must be >= 1, got {self.dim}")
        if not np.isfinite(self.scale) or self.scale < 0:
            raise ValueError(f"ensemble scale must be finite and >= 0, got {self.scale}")


@dataclass(frozen=True)
class SeedDerivation:
    """A base seed plus a tuple of integer stream labels.

    Streams are derived with ``numpy.random.SeedSequence(entropy=base_seed,
    spawn_key=labels)``.  SeedSequence hashes the full ``(entropy, spawn_key)``
    pair, so two distinct label tuples never collide and the same tuple always
    reproduces the same stream.  Conventional label order used throughout the
    package: ``(family_code, grid_index, replicate_index, step_index...)``.
    """

    base_seed: int
    labels: tuple[int, ...] = field(default=())

    def child(self, *labels: int) -> "SeedDerivation":
        """Return a derivation with extra labels appended."""
        return replace(self, labels=self.labels + tuple(int(v) for v in labels))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.base_seed, spawn_key=self.labels)
        return np.random.Generator(np.random.PCG64(ss))


def seed_for(base_seed: int, family: Family, *labels: int) -> SeedDerivation:
    """Derivation tagged with the family code followed by caller labels."""
    return SeedDerivation(base_seed, (FAMILY_CODE[Family(family)],) + tuple(int(v) for v in labels))


def over_seeds(measure, base_seed: int, family: Family, label: int, n_seeds: int) -> tuple[list, int]:
    """One Monte-Carlo cell: ``measure(seed_for(base_seed, family, label, rep))``
    for each rep below n_seeds.  Returns the values in replicate order and the
    count of failed seeds, those whose measure returned None or raised
    SingularMatrixError; their values are left out."""
    values = []
    for rep in range(n_seeds):
        try:
            value = measure(seed_for(base_seed, family, label, rep))
        except SingularMatrixError:
            value = None
        if value is not None:
            values.append(value)
    return values, n_seeds - len(values)


def haar_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix.

    QR of a standard Gaussian draw, with each column of Q multiplied by the
    sign of the corresponding diagonal entry of R.  The sign correction is
    required for exact Haar measure; the raw QR factor is biased.  LAPACK
    geqrf and orgqr get their queried workspace (scipy's default of N doubles
    runs orgqr unblocked), and Q is C-ordered: later products' bits depend on
    the layout.
    """
    lapack = scipy.linalg.lapack
    qr, tau = lapack.dgeqrf(rng.standard_normal((dim, dim)), lwork=int(lapack.dgeqrf_lwork(dim, dim)[0]), overwrite_a=1)[:2]
    d = np.sign(np.diag(qr))  # the diagonal of R
    d[d == 0] = 1.0
    lwork = int(lapack.dorgqr(qr, tau, lwork=-1, overwrite_a=1)[1][0])
    return np.multiply(lapack.dorgqr(qr, tau, lwork=lwork, overwrite_a=1)[0], d, order="C")


def sample(spec: EnsembleSpec, seed: SeedDerivation) -> np.ndarray:
    """Draw one matrix from the ensemble. Pure in (spec, seed); the caller owns the fresh array."""
    rng = seed.generator()
    n, v = spec.dim, spec.scale
    if spec.family is Family.ORTHOGONAL:
        q = haar_orthogonal(n, rng)
        return np.multiply(q, np.sqrt(v), out=q)
    a = rng.standard_normal((n, n))
    if spec.family is Family.RANDOM:
        return np.multiply(a, np.sqrt(v / n), out=a)
    # GOE: mirror the strict upper triangle, separate diagonal scaling.
    # Symmetrizing a full draw instead would halve the off-diagonal variance.
    diag = np.diag(a) * np.sqrt(2.0 * v / n)
    upper = np.triu(a, 1)
    upper *= np.sqrt(v / n)
    w = np.add(upper, upper.T, out=a)
    np.fill_diagonal(w, diag)
    return w

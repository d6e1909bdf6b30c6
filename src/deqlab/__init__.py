"""Numerical laboratory for equilibrium-layer initialization statistics.

Closed-form moment predictions per random-matrix ensemble, resolvent-based
spectrum computations, fixed-point stability thresholds, and seeded
Monte-Carlo verification of all of them.
"""

__version__ = "0.1.0"

from .analytic_moments import (
    CriticalScaleError,
    WeightMode,
    critical_scale,
    length_variance_theory,
    variance_factor_theory,
)
from .ensembles import EnsembleSpec, Family, SeedDerivation, sample
from .numerics import SingularMatrixError, SpectralDensity

__all__ = [
    "CriticalScaleError",
    "EnsembleSpec",
    "Family",
    "SeedDerivation",
    "SingularMatrixError",
    "SpectralDensity",
    "WeightMode",
    "critical_scale",
    "length_variance_theory",
    "sample",
    "variance_factor_theory",
    "__version__",
]

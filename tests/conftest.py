import math
import warnings

import pytest
import scipy.integrate


@pytest.fixture
def quad_expect():
    """``E[f(h)]`` for ``h ~ N(0, s)`` by adaptive quadrature in h.

    The range reaches 40 standard deviations past the hard-tanh kinks at
    +-1, which are passed to ``quad`` as break points, so a gate window much
    narrower than the Gaussian is still resolved.  f takes a Python float.
    """

    def expect(f, s: float) -> float:
        lim = 1.0 + 40.0 * math.sqrt(s)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
            val, _ = scipy.integrate.quad(
                lambda h: f(h) * math.exp(-h * h / (2.0 * s)) / math.sqrt(2.0 * math.pi * s),
                -lim,
                lim,
                points=(-1.0, 1.0),
                epsabs=1e-14,
                epsrel=1e-14,
                limit=1000,
            )
        return val

    return expect

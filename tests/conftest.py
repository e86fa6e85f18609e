import numpy as np
import pytest
from hypothesis import settings

from subnewton.core import operator_from_dense

# Deterministic example generation: the suite's outcomes should not depend
# on the run's entropy.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def random_symmetric(rng, d, scale=1.0):
    m = rng.standard_normal((d, d))
    return scale * 0.5 * (m + m.T)


def dense_operator(matrix, norm_bound=None):
    return operator_from_dense(np.asarray(matrix, dtype=float), norm_bound=norm_bound)


class CountingSource:
    """A Hessian source that counts its builds."""

    def __init__(self, source):
        self.source = source
        self.builds = 0

    def __call__(self, x, eps, delta, rng):
        self.builds += 1
        return self.source(x, eps, delta, rng)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)

import numpy as np
import pytest

from edspec.validate import pseudo_hermitian_pair, shifted_random_matrix  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(0)

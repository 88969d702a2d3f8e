import numpy as np
import pytest
from hypothesis import settings

from fermigas.model import SpatialGrid, harmonic_potential

# property tests draw the same examples on every run
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def harmonic_1d():
    return harmonic_potential(1)


@pytest.fixture(scope="session")
def harmonic_2d():
    return harmonic_potential(2)


@pytest.fixture(scope="session")
def grid_1d():
    return SpatialGrid(1, 3.0, 1024)


@pytest.fixture(scope="session")
def grid_2d():
    return SpatialGrid(2, 2.5, 96)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

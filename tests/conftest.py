import numpy as np
import pytest

import msshadow as ms
from msshadow import xcli


@pytest.fixture(autouse=True)
def _cold_pipeline():
    """Each test starts without a kept Problem and leaves none behind, so
    no test sees a trajectory prepared under another test's patches."""
    xcli.drop_problem()
    yield
    xcli.drop_problem()


@pytest.fixture(scope="session")
def lorenz28():
    return ms.Lorenz(sigma=10.0, rho=28.0, beta=8.0 / 3.0)


@pytest.fixture(scope="session")
def lorenz_traj(lorenz28):
    """Short on-attractor Lorenz trajectory, K=5 segments of 1 time unit."""
    u0 = ms.advance(lorenz28, np.array([1.0, 1.0, 1.0]), -20.0, 0.0, 0.002)
    return ms.integrate(lorenz28, u0, 0.0, 5.0, 0.002, stride=500)


@pytest.fixture(scope="session")
def ks_small():
    return ms.KuramotoSivashinsky(n=31, length=32.0, c=0.5)


@pytest.fixture(scope="session")
def ks_traj(ks_small):
    """Small KS trajectory for operator tests, K=4 segments."""
    rng = np.random.default_rng(3)
    u0 = ms.advance(ks_small, rng.uniform(0.0, 1.0, 31), -50.0, 0.0, 0.02)
    return ms.integrate(ks_small, u0, 0.0, 8.0, 0.02, stride=100)

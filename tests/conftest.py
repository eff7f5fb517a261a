import numpy as np
import pytest
from hypothesis import settings

from ccbilliards import NUMBA_ENABLED, hyperbolic_pentagon, sphere_triangle, square
from ccbilliards import _kernels as K
from ccbilliards import geometry as G

# every run draws the same examples and keeps no example database, so the
# lines a run covers change only with the tests or the code
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def pytest_report_header(config):
    return (f"ccbilliards NUMBA_ENABLED: {NUMBA_ENABLED} "
            "(the kernels are plain Python; there is no compiled path)")


@pytest.fixture(scope="session")
def sq():
    return square()


@pytest.fixture(scope="session")
def pentagon():
    return hyperbolic_pentagon()


@pytest.fixture(scope="session")
def tri1():
    """The spherical triangle with opening angle 1 rad (no periodic orbits)."""
    return sphere_triangle(1.0)


def random_point(rng, k):
    if k == 0:
        return G.plane_point(*(rng.uniform(-2, 2, size=2)))
    if k == 1:
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)
    u = rng.uniform(-0.8, 0.8, size=2)
    while u @ u >= 0.8:
        u = rng.uniform(-0.8, 0.8, size=2)
    return G.poincare_to_hyperboloid(*u)


def random_tangent(rng, k, p=None):
    if p is None:
        p = random_point(rng, k)
    v = rng.normal(size=3)
    if k == 0:
        v[2] = 0.0
    return G.Geodesic(p, np.array(K.renorm_tangent(k, p, v)))

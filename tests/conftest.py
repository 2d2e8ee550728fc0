import pytest

from carnotlab.carnot import euclidean_group, heisenberg_group
from carnotlab.quad import QuadratureScheme


@pytest.fixture(scope="session")
def e1():
    return euclidean_group(1)


@pytest.fixture(scope="session")
def e2():
    return euclidean_group(2)


@pytest.fixture(scope="session")
def e3():
    return euclidean_group(3)


@pytest.fixture(scope="session")
def h1():
    return heisenberg_group(1)


@pytest.fixture(scope="session")
def h2():
    return heisenberg_group(2)


@pytest.fixture
def mc_scheme():
    return QuadratureScheme(kind="uniform", samples=20000, seed=1234)


@pytest.fixture
def small_scheme():
    return QuadratureScheme(kind="uniform", samples=2048, seed=1234)


@pytest.fixture
def annuli_scheme():
    return QuadratureScheme(kind="annuli", samples=24000, levels=24, seed=1234)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name, record=None) wraps the attribute `name` of a
    module or class with a counter for the test's duration.  It returns the
    list that gets one entry per call: record(*args, **kwargs), or None."""

    def install(owner, name, record=None):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(record(*args, **kwargs) if record else None)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return install


def random_points(group, rng, count, scale=1.0):
    pts = rng.uniform(-scale, scale, size=(count, group.n))
    return pts * scale ** (group.weights - 1.0)

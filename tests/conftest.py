import numpy as np
import pytest

from geodev.geometry import ChartPoint, PathCurve
from geodev.scenarios import ScenarioSpec, build
from geodev.transport import DEFAULT_ODE_CONFIG, TransportLaw, _pullbacks


def stacked(field_at):
    """A field on a stack of coordinates (``ConnectionField.gamma_at``,
    ``MetricField.g_at``, ...) from one stated at one ChartPoint, read at
    each row."""
    return lambda coords: np.array([field_at(ChartPoint(x)) for x in coords])


def point_law(coeff_at) -> TransportLaw:
    """TransportLaw of a coefficient field stated at one path parameter,
    ``coeff_at(u, path)``, read at each parameter of a stack."""
    return TransportLaw(lambda us, path, coords: np.array([coeff_at(u, path) for u in us]))


def point_path(jets, domain) -> PathCurve:
    """A PathCurve stated at one parameter, ``jets(u) -> (coords,
    velocity)``, read at each row of a stack: the path is the only line of
    its family, its key unread."""
    def read(keys, us):
        coords, velocity = zip(*map(jets, us.tolist()))
        return np.array(coords), np.array(velocity)
    return PathCurve(read, 0.0, domain)


def one_pullback(law, path, s, t, cfg=DEFAULT_ODE_CONFIG):
    """``(L_{t->s}, h)`` of the bare one-lane pull-back solve,
    ``_pullbacks(law, [path], d, s, [t], cfg)``, d read from the path at
    s."""
    pullbacks, h = _pullbacks(law, [path], path.map(s).dimension, s, [t], cfg)
    return pullbacks[0, 0], h[0, 0]


@pytest.fixture(scope="session")
def sphere():
    return build(ScenarioSpec("sphere"))


@pytest.fixture(scope="session")
def sphere_accel():
    return build(ScenarioSpec("sphere", {"accel": 0.3}))


@pytest.fixture(scope="session")
def flat_torsion():
    return build(ScenarioSpec("flat-torsion"))


@pytest.fixture(scope="session")
def flat_ruled():
    return build(ScenarioSpec("flat-euclidean/ruled"))


@pytest.fixture(scope="session")
def flat_quadratic():
    return build(ScenarioSpec("flat-euclidean/quadratic"))


@pytest.fixture(scope="session")
def offset_transport():
    return build(ScenarioSpec("offset-transport"))


@pytest.fixture(scope="session")
def minkowski():
    return build(ScenarioSpec("minkowski"))


@pytest.fixture(scope="session")
def exp_transport():
    return build(ScenarioSpec("exp-transport"))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)

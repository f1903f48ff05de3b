"""Stacked evaluation of the transport nodes against the point reads.

A Magnus attempt reads all its Gauss nodes, and a DOP853 step all its stage
nodes, in one ``PathCurve.points`` and one ``TransportLaw.coefficients``
call; where a path states a stacked form (the sphere and flat-quadratic
surfaces' connecting paths, the latitude circles), it must give ``map`` and
``tangent`` bit for bit; a law's stack must equal its stacks of one, the
sphere's Gamma its closed form at each point, and the errors of a bad node
must be the point reads' errors at that node.  The relative quantities of a
ladder of separations must equal, lane by lane, those of its ladders of one.
"""

import math

import numpy as np
import pytest

import geodev.transport as transport
from geodev.cli import _latitude_path
from geodev.errors import DomainError, EvaluationError
from geodev.geometry import ChartPoint, PathCurve
from geodev.equations import DEFAULT_LADDER
from geodev.kinematics import _Ladder, connecting_path, worldline
from geodev.scenarios import (LINEAR_DRIFT_MASSES, ScenarioSpec, build,
                              family_names, list_scenarios)
from geodev.transport import (TransportLaw, law_from_connection, pullback_integral,
                              transport_matrix)

from conftest import point_law
from oracles import coordinate_probes
from test_transport import point_coefficients, record_rhs_calls

STACKED_SURFACES = {"flat-euclidean/quadratic", "flat-torsion", "sphere",
                    "offset-transport", "exp-transport"}


def random_scenarios(name, rng, count=4):
    """The family at its defaults and at ``count`` parameter draws from the
    ranges it publishes (``dim`` drawn from its integers)."""
    [entry] = [e for e in list_scenarios() if e["name"] == name]
    yield build(ScenarioSpec(name))
    for _ in range(count):
        params = {key: (float(rng.integers(spec["min"], spec["max"] + 1))
                        if key == "dim" else float(rng.uniform(spec["min"], spec["max"])))
                  for key, spec in entry["parameters"].items()}
        yield build(ScenarioSpec(name, params))


def family_paths(sc, rng):
    """Connecting paths at several s, and both worldlines."""
    lo, hi = sc.surface.s_domain
    for s in (sc.s_eval, *rng.uniform(lo, hi, 3)):
        yield connecting_path(sc, float(s))
    yield worldline(sc, 1)
    yield worldline(sc, 2, 0.05)


def stack_of(path, rng, n=21):
    lo, hi = path.domain
    return rng.uniform(lo, hi, n).tolist() + [lo, hi, 0.5 * (lo + hi)]


def point_reads(path, us):
    """(coords, velocity) from ``map`` and ``tangent`` at each of ``us``."""
    return (np.array([path.map(u).coords for u in us]),
            np.array([path.tangent(u) for u in us]))


@pytest.mark.parametrize("name", family_names())
def test_points_equal_map_and_tangent(name, rng):
    # every built-in family, 4-d minkowski and flat 3- and 4-d charts
    # included, at its defaults and at random parameters
    for sc in random_scenarios(name, rng):
        assert (sc.surface.along_r is not None) == (name in STACKED_SURFACES)
        for path in family_paths(sc, rng):
            us = stack_of(path, rng)
            coords, velocity = path.points(us)
            ref_coords, ref_velocity = point_reads(path, us)
            assert np.array_equal(coords, ref_coords)
            assert np.array_equal(velocity, ref_velocity)
            assert coords.shape == velocity.shape == (len(us), sc.dimension)


def test_points_of_latitude_and_probe_paths(rng):
    # the latitude circles state a stacked form; the probe paths state none
    # and read their point jets at each node
    latitudes = [_latitude_path(0.7), _latitude_path(2.9)]
    probes = coordinate_probes(ChartPoint([0.3, -0.2, 0.5, 0.1]))
    for path in latitudes + probes:
        assert (path.points_at is None) == (path in probes)
        us = stack_of(path, rng)
        coords, velocity = path.points(us)
        ref_coords, ref_velocity = point_reads(path, us)
        assert np.array_equal(coords, ref_coords)
        assert np.array_equal(velocity, ref_velocity)


@pytest.mark.parametrize("name", family_names())
def test_stacked_law_equals_coefficients_per_node(name, rng):
    for sc in random_scenarios(name, rng):
        for path in family_paths(sc, rng):
            us = stack_of(path, rng)
            coords, _ = path.points(us)
            stacked = sc.law.coefficients(us, path, coords)
            alone = np.array([point_coefficients(sc.law, u, path) for u in us])
            assert np.array_equal(stacked, alone)


def sphere_gamma(theta: float) -> np.ndarray:
    """The sphere's Gamma at one theta, in closed form with ``math``."""
    g = np.zeros((2, 2, 2))
    g[0, 1, 1] = -math.sin(theta) * math.cos(theta)
    g[1, 0, 1] = g[1, 1, 0] = 1.0 / math.tan(theta)
    return g


def test_sphere_stacked_gamma_equals_gamma_at(rng):
    conn = build(ScenarioSpec("sphere")).conn
    theta = np.concatenate([rng.uniform(1e-3, math.pi - 1e-3, 4000),
                            rng.uniform(-3.0, 3.0, 1000),
                            [1e-300, 5e-324, -1e-12, math.pi, math.pi / 2, 3.5]])
    coords = np.stack([theta, rng.uniform(-3.0, 3.0, theta.size)], axis=1)
    stacked = conn.gamma_at(coords)
    alone = np.array([sphere_gamma(t) for t in theta.tolist()])
    assert np.array_equal(stacked, alone)
    # the first singular theta of a stack is named
    coords[[7, 9, 12], 0] = 0.0, -0.0, 0.0
    with pytest.raises(DomainError, match=r"^sphere chart is singular at theta = -0\.0$"):
        conn.gamma_at(coords[8:])


def start_law(sc, seen=None) -> TransportLaw:
    """H = -Gamma - (1 + 0.8 gamma^0(lo)) sigma with an asymmetric sigma, a
    law that depends on where the path starts, not only on the point; it
    records the paths it reads in ``seen``, unless None."""
    sigma = np.zeros((2, 2, 2))
    sigma[0, 1, 1], sigma[0, 0, 1], sigma[1, 0, 1] = 0.2, 0.1, -0.15
    weight = lambda path: 1.0 + 0.8 * path.map(path.domain[0]).coords[0]
    law = law_from_connection(sc.conn)

    def coeffs_at(us, path, coords):
        if seen is not None:
            seen.append(path)
        return law.coeffs_at(us, path, coords) - weight(path) * sigma
    return TransportLaw(coeffs_at)


def test_stacked_law_receives_the_path(rng):
    # a path-dependent law reads the solve's own path in the stacked call,
    # and its stacks and its stacks of one agree bit for bit
    sc = build(ScenarioSpec("offset-transport"))
    path, r1, seen = connecting_path(sc, sc.s_eval), sc.surface.r_base, []
    stacked = start_law(sc, seen)
    point_only = point_law(lambda u, path: point_coefficients(start_law(sc), u, path))
    us = stack_of(path, rng)
    coords, _ = path.points(us)
    assert np.array_equal(stacked.coefficients(us, path, coords),
                          np.array([point_coefficients(stacked, u, path) for u in us]))
    ends = [r1 + 0.1, r1 + 0.01]
    seen.clear()
    lanes = transport._pullbacks(stacked, path, r1, ends, transport.DEFAULT_ODE_CONFIG)
    assert len(seen) == 1 and seen[0] is path
    for t, lane in zip(ends, zip(*lanes)):
        assert all(map(np.array_equal, lane, pullback_integral(point_only, path, r1, t)))
    weightless = pullback_integral(build(ScenarioSpec("offset-transport")).law,
                                   path, r1, r1 + 0.1)
    assert not np.array_equal(weightless[0], lanes[0][0])


def spoilt_line(d: int, spoilt: str, stacked: bool, from_u: float):
    """A straight path in d dimensions whose coordinates or velocity are NaN
    from the parameter ``from_u`` on; read by ``points_at`` or by ``jets``."""
    start, direction = np.full(d, 0.3), np.linspace(1.0, 0.5, d)

    def jets(u):
        coords, velocity = start + u * direction, direction.copy()
        if u >= from_u:
            (coords if spoilt == "coords" else velocity)[d - 1] = math.nan
        return coords, velocity

    def points_at(us):
        coords, velocity = zip(*map(jets, us))
        return np.array(coords), np.array(velocity)
    return PathCurve(jets, (-1.0, 1.0), points_at if stacked else None)


def raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return info.value


def same_error(got, expected):
    assert type(got) is type(expected)
    assert str(got) == str(expected)
    if isinstance(expected, EvaluationError) and expected.point is not None:
        assert np.array_equal(got.point.coords, expected.point.coords)
    else:
        assert getattr(got, "point", None) is None


def bad_node_error(solve, d: int, stacked: bool, spoilt: str, monkeypatch):
    """Check that ``solve(law, path, 0, 1)`` on a line whose nodes are bad
    from 0.8 on raises the error the point reads raise at the first bad node
    that a clean solve reads, and return that node."""
    gamma = np.full((d, d, d), 0.01)

    def case(from_u):  # the law and the path, bad from from_u on
        def coeff_at(u, path):
            return gamma * math.nan if spoilt == "coefficients" and u >= from_u else gamma
        return point_law(coeff_at), spoilt_line(d, spoilt, stacked, from_u)

    calls = record_rhs_calls(monkeypatch)
    solve(*case(math.inf), 0.0, 1.0)
    first = next(u for u, _ in calls if u >= 0.8)
    got = raised(lambda: solve(*case(0.8), 0.0, 1.0))
    law, fresh = case(0.8)
    expected = raised(lambda: point_coefficients(law, first, fresh))
    same_error(got, expected)
    assert isinstance(got, EvaluationError)
    if spoilt != "coords":
        assert np.array_equal(got.point.coords, np.full(d, 0.3) + first * np.linspace(1.0, 0.5, d))
    return first


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("stacked", [True, False])
@pytest.mark.parametrize("spoilt", ["coords", "velocity", "coefficients"])
def test_a_bad_node_raises_the_point_error(d, stacked, spoilt, monkeypatch):
    # the one-lane pull-back from 0 to 1 reads its Gauss nodes 0.11, 0.5 and
    # 0.89 in one stack; only the last one is bad, and the error is the one
    # the point reads raise there, naming its point
    last = bad_node_error(pullback_integral, d, stacked, spoilt, monkeypatch)
    assert last == transport._Magnus.c[2]


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("stacked", [True, False])
@pytest.mark.parametrize("spoilt", ["coords", "velocity", "coefficients"])
def test_a_bad_stage_node_of_a_transport_raises_the_point_error(d, stacked, spoilt,
                                                                monkeypatch):
    # the transport from 0 to 1 reads its start nodes, then each DOP853
    # step's 11 stage nodes in one stack; the first bad node of a stack
    # raises the point reads' error there
    first = bad_node_error(transport_matrix, d, stacked, spoilt, monkeypatch)
    assert 0.8 <= first < 1.0


def pole_path(stacked: bool):
    """The line theta = u, phi = 0.3: the sphere's pole at u = 0."""
    def jets(u):
        return np.array([u, 0.3]), np.array([1.0, 0.0])

    def points_at(us):
        return np.stack([us, np.full(len(us), 0.3)], axis=1), np.tile([1.0, 0.0], (len(us), 1))
    return PathCurve(jets, (-1.0, 1.0), points_at if stacked else None)


@pytest.mark.parametrize("family", ["sphere", "offset-transport"])
@pytest.mark.parametrize("stacked", [True, False])
def test_a_sphere_node_at_the_pole_raises_the_domain_error(family, stacked):
    # the middle Gauss node of the pull-back from -0.5 to 0.5 sits at theta = 0
    law = build(ScenarioSpec(family)).law
    got = raised(lambda: pullback_integral(law, pole_path(stacked), -0.5, 0.5))
    expected = raised(lambda: point_coefficients(law, 0.0, pole_path(False)))
    assert isinstance(expected, DomainError)
    same_error(got, expected)


@pytest.mark.parametrize("family", ["sphere", "offset-transport"])
@pytest.mark.parametrize("stacked", [True, False])
def test_a_transport_from_the_pole_raises_the_domain_error(family, stacked):
    # the transport from 0 to 0.5 reads its start node at theta = 0 first
    law = build(ScenarioSpec(family)).law
    got = raised(lambda: transport_matrix(law, pole_path(stacked), 0.0, 0.5))
    expected = raised(lambda: point_coefficients(law, 0.0, pole_path(False)))
    assert isinstance(expected, DomainError)
    same_error(got, expected)


def ladder_quantities(ladder, s):
    """Every relative quantity of ``ladder`` at s, by name, stacked by lane."""
    pullbacks, h = ladder.transport(s)
    out = {"L": pullbacks, "h": h, "dV": ladder.delta_v(s), "dp": ladder.delta_p(s),
           "dA": ladder.delta_a(s), "dK": ladder.delta_k(s),
           "h - zeta": ladder.dev_difference(s)}
    if ladder.sc.metric is not None:
        out["energy"] = ladder.energy(s)
    return out


@pytest.mark.parametrize("name", family_names())
def test_each_lane_of_a_ladder_is_its_ladder_of_one(name):
    # the public relative_* functions read lane 0 of a ladder of one, and a
    # study reads its whole ladder: both give the same values only if each
    # lane is computed bit for bit as its separation alone would be
    sc = build(ScenarioSpec(name, LINEAR_DRIFT_MASSES))
    cfg, s = transport.DEFAULT_ODE_CONFIG, sc.s_eval
    stacked = ladder_quantities(_Ladder(sc, DEFAULT_LADDER, cfg), s)
    for k, eps in enumerate(DEFAULT_LADDER):
        alone = ladder_quantities(_Ladder(sc, (eps,), cfg), s)
        assert alone.keys() == stacked.keys()
        for key, value in alone.items():
            assert np.array_equal(stacked[key][k], value[0]), (key, eps)

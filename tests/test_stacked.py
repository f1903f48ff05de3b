"""Stacked evaluation of the Magnus nodes against the point forms.

A Magnus attempt reads all its Gauss nodes in one ``PathCurve.points`` and
one ``TransportLaw.stacked_coefficients`` call; where a family states a
stacked form (the sphere and flat-quadratic surfaces, the sphere's Gamma),
it must give the point forms' values bit for bit, and the errors of a bad
node must be the point forms' errors at that node.
"""

import math

import numpy as np
import pytest

import geodev.transport as transport
from geodev.cli import _latitude_path
from geodev.errors import DomainError, EvaluationError
from geodev.geometry import ChartPoint, PathCurve
from geodev.kinematics import connecting_path, worldline
from geodev.scenarios import ScenarioSpec, build, family_names, list_scenarios
from geodev.transport import (TransportLaw, coordinate_probes, law_from_connection,
                              pullback_integral)

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
    """(coords, velocity) from ``map`` and ``tangent`` on a fresh copy of
    ``path``, whose memos the stacked reads did not fill."""
    fresh = PathCurve(path.jets, path.domain)
    return (np.array([fresh.map(u).coords for u in us]),
            np.array([fresh.tangent(u) for u in us]))


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
    # paths that state no stacked form read their point jets at each node
    paths = [_latitude_path(0.7), _latitude_path(2.9),
             *coordinate_probes(ChartPoint([0.3, -0.2, 0.5, 0.1]))]
    for path in paths:
        assert path.points_at is None
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
            stacked = sc.law.stacked_coefficients(us, path, coords)
            alone = np.array([sc.law.coefficients(u, path) for u in us])
            assert np.array_equal(stacked, alone)


def test_sphere_stacked_gamma_equals_gamma_at(rng):
    conn = build(ScenarioSpec("sphere")).conn
    theta = np.concatenate([rng.uniform(1e-3, math.pi - 1e-3, 4000),
                            rng.uniform(-3.0, 3.0, 1000),
                            [1e-300, 5e-324, -1e-12, math.pi, math.pi / 2, 3.5]])
    coords = np.stack([theta, rng.uniform(-3.0, 3.0, theta.size)], axis=1)
    stacked = conn.gammas_at(coords)
    alone = np.array([conn.gamma_at(ChartPoint(x)) for x in coords])
    assert np.array_equal(stacked, alone)


def test_point_only_custom_law_loops_coeff_at():
    # a law that states no stacked form is read by coeff_at at each node;
    # its pull-backs equal those of the built-in law it wraps, bit for bit
    sc = build(ScenarioSpec("offset-transport"))
    path, r1 = connecting_path(sc, sc.s_eval), sc.surface.r_base
    nodes = []

    def coeff_at(u, path):
        nodes.append(u)
        return sc.law.coeff_at(u, path)

    custom = TransportLaw(coeff_at)
    assert custom.coeffs_at is None
    got = pullback_integral(custom, path, r1, r1 + 0.1)
    assert len(nodes) == 3
    assert all(map(np.array_equal, got, pullback_integral(sc.law, path, r1, r1 + 0.1)))


def start_law(sc, seen=None) -> TransportLaw:
    """H = -Gamma - (1 + 0.8 gamma^0(lo)) sigma with an asymmetric sigma, a
    law that depends on where the path starts, not only on the point; with
    a stacked form that records the paths it reads in ``seen``, unless None."""
    sigma = np.zeros((2, 2, 2))
    sigma[0, 1, 1], sigma[0, 0, 1], sigma[1, 0, 1] = 0.2, 0.1, -0.15
    weight = lambda path: 1.0 + 0.8 * path.map(path.domain[0]).coords[0]
    law = law_from_connection(sc.conn)

    def coeff_at(u, path):
        return law.coeff_at(u, path) - weight(path) * sigma

    def coeffs_at(us, path, coords):
        seen.append(path)
        return law.coeffs_at(us, path, coords) - weight(path) * sigma
    return TransportLaw(coeff_at, None if seen is None else coeffs_at)


def test_stacked_law_receives_the_path(rng):
    # a path-dependent law reads the solve's own path in the stacked call,
    # and its stacked and point-only forms agree bit for bit
    sc = build(ScenarioSpec("offset-transport"))
    path, r1, seen = connecting_path(sc, sc.s_eval), sc.surface.r_base, []
    stacked, point_only = start_law(sc, seen), start_law(sc)
    us = stack_of(path, rng)
    coords, _ = path.points(us)
    assert np.array_equal(stacked.stacked_coefficients(us, path, coords),
                          np.array([stacked.coefficients(u, path) for u in us]))
    ends = [r1 + 0.1, r1 + 0.01]
    seen.clear()
    lanes = transport._pullbacks(stacked, path, r1, ends, transport.DEFAULT_ODE_CONFIG)
    assert len(seen) == 1 and seen[0] is path
    for t, lane in zip(ends, lanes):
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


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("stacked", [True, False])
@pytest.mark.parametrize("spoilt", ["coords", "velocity", "coefficients"])
def test_a_bad_node_raises_the_point_error(d, stacked, spoilt):
    # the one-lane pull-back from 0 to 1 reads its Gauss nodes 0.11, 0.5 and
    # 0.89 in one stack; only the last one is bad, and the error is the one
    # the point reads raise there, naming its point
    last = transport._Magnus.c[2]
    gamma = np.full((d, d, d), 0.01)

    def coeff_at(u, path):
        return gamma * math.nan if spoilt == "coefficients" and u >= 0.8 else gamma
    law = TransportLaw(coeff_at, (lambda us, path, coords: [coeff_at(u, path) for u in us])
                       if stacked else None)
    path = spoilt_line(d, spoilt, stacked, 0.8)
    got = raised(lambda: pullback_integral(law, path, 0.0, 1.0))
    fresh = spoilt_line(d, spoilt, stacked, 0.8)
    expected = raised(lambda: law.coefficients(last, fresh))
    same_error(got, expected)
    assert isinstance(got, EvaluationError)
    if spoilt != "coords":
        assert np.array_equal(got.point.coords, np.full(d, 0.3) + last * np.linspace(1.0, 0.5, d))


@pytest.mark.parametrize("family", ["sphere", "offset-transport"])
@pytest.mark.parametrize("stacked", [True, False])
def test_a_sphere_node_at_the_pole_raises_the_domain_error(family, stacked):
    # the middle Gauss node of the pull-back from -0.5 to 0.5 sits at theta = 0
    law = build(ScenarioSpec(family)).law

    def jets(u):
        return np.array([u, 0.3]), np.array([1.0, 0.0])

    def points_at(us):
        return np.stack([us, np.full(len(us), 0.3)], axis=1), np.tile([1.0, 0.0], (len(us), 1))
    path = PathCurve(jets, (-1.0, 1.0), points_at if stacked else None)
    got = raised(lambda: pullback_integral(law, path, -0.5, 0.5))
    expected = raised(lambda: law.coefficients(0.0, PathCurve(jets, (-1.0, 1.0))))
    assert isinstance(expected, DomainError)
    same_error(got, expected)

"""Stacked evaluation of the transport nodes against the point reads.

A Magnus attempt reads all its Gauss nodes in one ``geometry.read_points``
and one ``TransportLaw.coefficients`` call per path; where a path is a line
of a family (the surfaces' connecting paths, the latitude circles), the
family's row read must give ``map`` and ``tangent`` bit for bit; a law's
stack must equal its stacks of one, the sphere's Gamma its closed form at
each point, and the errors of a bad node must be the point reads' errors at
that node.  The relative quantities of a ladder of separations must equal,
lane by lane, those of its ladders of one.
"""

import math

import numpy as np
import pytest

import geodev.transport as transport
from geodev.cli import _latitude_path, _latitude_points
from geodev.errors import DomainError, EvaluationError
from geodev.geometry import ChartPoint, PathCurve, read_points
from geodev.equations import DEFAULT_LADDER
from geodev.kinematics import _Ladder, connecting_path, worldline
from geodev.scenarios import (LINEAR_DRIFT_MASSES, ScenarioSpec, build,
                              family_names, list_scenarios)
from geodev.transport import TransportLaw, law_from_connection, transport_matrix

from conftest import one_pullback, point_law
from oracles import coordinate_probes
from test_transport import point_coefficients, record_rhs_calls

STACKED_SURFACES = {"flat-euclidean/ruled", "flat-euclidean/quadratic", "flat-torsion",
                    "sphere", "minkowski", "offset-transport", "exp-transport"}


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


def same_bits(got, expected) -> bool:
    """Whether two float arrays are equal bit for bit, -0.0 apart from 0.0."""
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


def families(name, rng):
    """(read, point jets, keys, u domain, d) of a family of paths: the
    connecting paths of the scenario ``name`` at its defaults and at random
    parameters (keys in s), or the latitude circles (keys in theta)."""
    if name == "latitude":
        yield (_latitude_points, lambda theta, t: _latitude_path(theta).jets(t),
               [0.7, 2.9, *rng.uniform(0.1, 3.0, 4)], (0.0, 2.0 * math.pi), 2)
        return
    for sc in random_scenarios(name, rng):
        surf = sc.surface
        yield (surf.along_r, lambda s, r, surf=surf: (surf.map(s, r), surf.d_r(s, r)),
               [*surf.s_domain, sc.s_eval, *rng.uniform(*surf.s_domain, 4)],
               surf.r_domain, sc.dimension)


@pytest.mark.parametrize("name", sorted(STACKED_SURFACES) + ["latitude"])
def test_along_r_rows_equal_point_jets(name, rng):
    # one key per row, several rows per key, in one call: each row is the
    # point jets' (x, x_r) at its (key, u), bit for bit; the domains' ends
    # are among the draws, and a second call mixes keys 0.0 and -0.0
    for read, jets, key_values, domain, d in families(name, rng):
        signed = ([0.0, -0.0], rng.integers(0, 2, 12))
        for values, picks in ((key_values, rng.integers(0, len(key_values), 40)), signed):
            keys = np.array([values[i] for i in picks])
            us = np.concatenate([domain, [-0.0, 0.0], rng.uniform(*domain, len(keys) - 4)])
            x, x_r = read(keys, us)
            assert x.shape == x_r.shape == (len(us), d)
            for key, u, row, row_r in zip(keys.tolist(), us.tolist(), x, x_r):
                assert all(map(same_bits, (row, row_r), jets(key, u)))


def test_along_r_keeps_the_sign_of_a_zero_s():
    # f(s) = s + accel s^2 / 2 is -0.0 at s = -0.0 for accel < 0, and sin
    # keeps that sign, which phi keeps at r = -0.0: rows at s = 0.0 and
    # s = -0.0 of one call each read their own s, as the point jets do
    surf = build(ScenarioSpec("sphere", {"accel": -0.5})).surface
    ss, rs = np.array([0.0, 0.0, -0.0, -0.0]), np.array([-0.0, 0.1, -0.0, 0.1])
    x, x_r = surf.along_r(ss, rs)
    assert not np.signbit(x[0, 1]) and np.signbit(x[2, 1])
    for s, r, row, row_r in zip(ss.tolist(), rs.tolist(), x, x_r):
        assert same_bits(row, surf.map(s, r)) and same_bits(row_r, surf.d_r(s, r))


def test_surface_memo_tells_a_signed_zero_apart():
    # the memo is keyed by the bits of (s, r): after the jets at s = 0.0 a
    # read at s = -0.0 is its own, as on a fresh surface
    spec = ScenarioSpec("sphere", {"accel": -0.5})
    fresh = build(spec).surface.map(-0.0, -0.0)
    surf = build(spec).surface
    assert not np.signbit(surf.map(0.0, -0.0)[1])
    assert np.signbit(fresh[1]) and same_bits(surf.map(-0.0, -0.0), fresh)
    with transport.work_counts() as counts:
        surf.map(-0.0, -0.0), surf.map(0.0, -0.0)
    assert counts["jets_order_1"] == 0


def test_points_of_latitude_and_probe_paths(rng):
    # the latitude circles are lines of one family; the probe paths are
    # not, and read their point jets at each node
    latitudes = [_latitude_path(0.7), _latitude_path(2.9)]
    probes = coordinate_probes(ChartPoint([0.3, -0.2, 0.5, 0.1]))
    for path in latitudes + probes:
        assert (path.along is None) == (path in probes)
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
    lanes = [a[0] for a in transport._pullbacks(stacked, [path], r1, ends,
                                                 transport.DEFAULT_ODE_CONFIG)]
    assert len(seen) == 1 and seen[0] is path
    for t, lane in zip(ends, zip(*lanes)):
        assert all(map(np.array_equal, lane, one_pullback(point_only, path, r1, t)))
    weightless = one_pullback(build(ScenarioSpec("offset-transport")).law,
                              path, r1, r1 + 0.1)
    assert not np.array_equal(weightless[0], lanes[0][0])


def family_of(jets):
    """A family read, ``read(keys, us)``, whose every line is ``jets``."""
    def read(keys, us):
        coords, velocity = zip(*map(jets, us.tolist()))
        return np.array(coords), np.array(velocity)
    return read


def spoilt_line(d: int, spoilt: str, family_path: bool, from_u: float):
    """A straight path in d dimensions whose coordinates or velocity are NaN
    from the parameter ``from_u`` on: a line of a family, or a path read by
    its ``jets`` alone."""
    start, direction = np.full(d, 0.3), np.linspace(1.0, 0.5, d)

    def jets(u):
        coords, velocity = start + u * direction, direction.copy()
        if u >= from_u:
            (coords if spoilt == "coords" else velocity)[d - 1] = math.nan
        return coords, velocity
    return PathCurve(jets, (-1.0, 1.0), (family_of(jets), 0.0) if family_path else None)


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


def bad_node_error(solve, d: int, family_path: bool, spoilt: str, monkeypatch):
    """Check that ``solve(law, path, 0, 1)`` on a line whose nodes are bad
    from 0.8 on raises the error the point reads raise at the first bad node
    that a clean solve reads, and return that node."""
    gamma = np.full((d, d, d), 0.01)

    def case(from_u):  # the law and the path, bad from from_u on
        def coeff_at(u, path):
            return gamma * math.nan if spoilt == "coefficients" and u >= from_u else gamma
        return point_law(coeff_at), spoilt_line(d, spoilt, family_path, from_u)

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


# family_path: True is a line of a family, False a path read by its jets alone
@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("family_path", [True, False])
@pytest.mark.parametrize("spoilt", ["coords", "velocity", "coefficients"])
def test_a_bad_node_raises_the_point_error(d, family_path, spoilt, monkeypatch):
    # the one-lane pull-back from 0 to 1 reads its Gauss nodes 0.11, 0.5 and
    # 0.89 in one stack; only the last one is bad, and the error is the one
    # the point reads raise there, naming its point
    last = bad_node_error(one_pullback, d, family_path, spoilt, monkeypatch)
    assert last == transport._Magnus.c[2]


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("family_path", [True, False])
@pytest.mark.parametrize("spoilt", ["coords", "velocity", "coefficients"])
def test_a_bad_stage_node_of_a_transport_raises_the_point_error(d, family_path, spoilt,
                                                                monkeypatch):
    # the transport from 0 to 1 reads its start node as the law's check,
    # then each Magnus attempt's 3 Gauss nodes in one stack; the first bad
    # node of a stack raises the point reads' error there
    first = bad_node_error(transport_matrix, d, family_path, spoilt, monkeypatch)
    assert 0.8 <= first < 1.0


def pole_path(family_path: bool):
    """The line theta = u, phi = 0.3: the sphere's pole at u = 0."""
    def jets(u):
        return np.array([u, 0.3]), np.array([1.0, 0.0])

    def read(keys, us):
        return np.stack([us, keys], axis=1), np.tile([1.0, 0.0], (len(us), 1))
    return PathCurve(jets, (-1.0, 1.0), (read, 0.3) if family_path else None)


@pytest.mark.parametrize("family", ["sphere", "offset-transport"])
@pytest.mark.parametrize("family_path", [True, False])
def test_a_sphere_node_at_the_pole_raises_the_domain_error(family, family_path):
    # the middle Gauss node of the pull-back from -0.5 to 0.5 sits at theta = 0
    law = build(ScenarioSpec(family)).law
    got = raised(lambda: one_pullback(law, pole_path(family_path), -0.5, 0.5))
    expected = raised(lambda: point_coefficients(law, 0.0, pole_path(False)))
    assert isinstance(expected, DomainError)
    same_error(got, expected)


@pytest.mark.parametrize("family", ["sphere", "offset-transport"])
@pytest.mark.parametrize("family_path", [True, False])
def test_a_transport_from_the_pole_raises_the_domain_error(family, family_path):
    # the transport from 0 to 0.5 reads its start node at theta = 0 first
    law = build(ScenarioSpec(family)).law
    got = raised(lambda: transport_matrix(law, pole_path(family_path), 0.0, 0.5))
    expected = raised(lambda: point_coefficients(law, 0.0, pole_path(False)))
    assert isinstance(expected, DomainError)
    same_error(got, expected)


def mixed_reads(rng):
    """(path, us) of two connecting paths of the sphere, one of
    offset-transport, a latitude circle and a coordinate probe (jets only)."""
    sphere, offset = build(ScenarioSpec("sphere")), build(ScenarioSpec("offset-transport"))
    paths = [connecting_path(sphere, 0.1), connecting_path(sphere, -0.2),
             connecting_path(offset, 0.15), _latitude_path(0.7),
             coordinate_probes(ChartPoint([0.3, -0.2]))[1]]
    return [(path, stack_of(path, rng, 5)) for path in paths]


def test_read_points_equals_the_point_reads_of_each_path(rng):
    # one call reads the runs of family paths in one family read each and
    # the probe by its jets, bit for bit as each path's point reads
    reads = mixed_reads(rng)
    with transport.work_counts() as counts:
        coords, velocity = read_points(reads)
    assert counts["surface_stacks"] == 2
    assert counts["surface_stack_points"] == 3 * 8
    assert not coords.flags.writeable
    ref_coords, ref_velocity = (np.concatenate(part) for part in
                                zip(*(point_reads(path, us) for path, us in reads)))
    assert same_bits(coords, ref_coords) and same_bits(velocity, ref_velocity)


@pytest.mark.parametrize("family_path", [True, False])
@pytest.mark.parametrize("spoilt", ["coords", "velocity"])
def test_read_points_raises_the_point_error_of_a_later_path(spoilt, family_path, rng):
    # a NaN row in the last path of a mixed read raises the error that map
    # or tangent raises at that node
    line = spoilt_line(2, spoilt, family_path, 0.5)
    reads = mixed_reads(rng) + [(line, [-0.5, 0.6, 0.2, 0.7])]
    got = raised(lambda: read_points(reads))
    same_error(got, raised(lambda: (line.map if spoilt == "coords" else line.tangent)(0.6)))


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

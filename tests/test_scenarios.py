import math
import sys
import threading

import numpy as np
import pytest

from geodev.errors import ConfigError
from geodev.geometry import ChartPoint, curvature_at, torsion_at
from geodev.kinematics import WorldSurface, connecting_path
from geodev.scenarios import (EQUATION_SCENARIOS, LINEAR_DRIFT_MASSES,
                              ScenarioSpec, build, family_names, list_scenarios)
from geodev.transport import s_tensor, work_counts

ALL_FAMILIES = ("flat-euclidean/ruled", "flat-euclidean/quadratic",
                "flat-torsion", "sphere", "minkowski", "offset-transport",
                "exp-transport")


def test_registry_has_seven_families_in_stable_order():
    assert family_names() == ALL_FAMILIES
    listed = [entry["name"] for entry in list_scenarios()]
    assert tuple(listed) == ALL_FAMILIES


def test_every_family_builds_with_defaults():
    for name in family_names():
        sc = build(ScenarioSpec(name))
        assert sc.label == name
        assert sc.metric is not None
        assert sc.probe_field is not None


def test_unknown_scenario_name():
    with pytest.raises(ConfigError, match="unknown scenario"):
        build(ScenarioSpec("klein-bottle"))


def test_unknown_parameter_named_in_error():
    with pytest.raises(ConfigError, match="warp"):
        build(ScenarioSpec("sphere", {"warp": 1.0}))


def test_out_of_range_parameter_named_in_error():
    with pytest.raises(ConfigError, match="tilt"):
        build(ScenarioSpec("sphere", {"tilt": 9.0}))


@pytest.mark.parametrize("spec, named", [
    (ScenarioSpec("sphere", {"tilt": 10**400}), "parameter 'tilt'"),
    (ScenarioSpec("flat-euclidean/ruled", {"dim": -10**400}), "parameter 'dim'"),
    (ScenarioSpec("sphere", r_base=-10**400), "r_base"),
    (ScenarioSpec("sphere", s_eval=10**400), "s_eval"),
], ids=["tilt", "dim", "r_base", "s_eval"])
def test_an_integer_too_large_for_a_float_is_out_of_range(spec, named):
    # the range is compared before float(), which would raise OverflowError
    with pytest.raises(ConfigError, match=named):
        build(spec)


def test_non_integer_dimension_rejected():
    with pytest.raises(ConfigError, match="dim"):
        build(ScenarioSpec("flat-euclidean/ruled", {"dim": 2.5}))


def test_schema_round_trip():
    for entry in list_scenarios():
        defaults = {k: v["default"] for k, v in entry["parameters"].items()}
        sc = build(ScenarioSpec(entry["name"], defaults))
        assert sc.label == entry["name"]


def test_build_is_deterministic():
    a = build(ScenarioSpec("sphere", {"accel": 0.2}))
    b = build(ScenarioSpec("sphere", {"accel": 0.2}))
    for (s, r) in ((0.1, 0.05), (-0.3, -0.2)):
        assert np.array_equal(a.surface.map(s, r), b.surface.map(s, r))
        assert np.array_equal(a.surface.d_sr(s, r), b.surface.d_sr(s, r))


def test_r_base_override():
    sc = build(ScenarioSpec("sphere", r_base=0.05))
    assert sc.surface.r_base == 0.05
    with pytest.raises(ConfigError):
        build(ScenarioSpec("sphere", r_base=2.0))


def test_surface_jets_evaluated_once_per_point():
    # each accessor derived from a surface's jets is one jets call at its
    # point, a row of one, at its own order, counted in work_counts
    calls = []

    def jets(s, r, order):
        calls.append((s.tolist(), r.tolist(), order))
        return tuple(np.column_stack([i + s + r] * 2) for i in range(3 * order))

    surf = WorldSurface(jets, s_domain=(-1.0, 1.0), r_domain=(-1.0, 1.0))
    with work_counts() as counts:
        first = [f(0.25, 0.5) for f in (surf.map, surf.d_s, surf.d_r)]
        assert calls == [([0.25], [0.5], 1)] * 3  # order-1 reads never ask for order 2
        second = [f(0.25, 0.5) for f in (surf.d_ss, surf.d_sr, surf.d_rr)]
    assert calls[3:] == [([0.25], [0.5], 2)] * 3
    assert counts == {"surface_stacks": 6, "surface_stack_points": 6}
    assert [v.tolist() for v in first + second] == [[v, v] for v in (0.75, 1.75, 2.75,
                                                                     3.75, 4.75, 5.75)]
    assert surf.d_r(0.125, 0.5)[0] == 2.625
    assert calls[6:] == [([0.125], [0.5], 1)]


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_order_one_jets_equal_the_first_order_two_jets(name):
    # a path's nodes are read at order 1 and a study's surface at order 2,
    # so a family's order-1 jets must be the first three of its order-2
    # jets, bit for bit, for both to describe one surface
    rng = np.random.default_rng(13)
    schema = {e["name"]: e["parameters"] for e in list_scenarios()}[name]
    for _ in range(20):
        params = {key: (float(rng.integers(spec["min"], spec["max"] + 1))
                        if key == "dim" else rng.uniform(spec["min"], spec["max"]))
                  for key, spec in schema.items()}
        surf = build(ScenarioSpec(name, params)).surface
        s, r = rng.uniform(*surf.s_domain, 8), rng.uniform(*surf.r_domain, 8)
        order_1, order_2 = surf.jets(s, r, 1), surf.jets(s, r, 2)
        assert len(order_1) == 3 and all(map(np.array_equal, order_1, order_2[:3]))


def _numpy_sphere_jets(tilt, accel, s, r):
    # reference: the sphere jets in numpy 3-vector arithmetic, as the family
    # computed them before its scalar form; same operations, same order
    cb, sb = math.cos(tilt), math.sin(tilt)
    u = np.array([math.cos(r), math.sin(r), 0.0])
    w = np.array([-math.sin(r) * cb, math.cos(r) * cb, sb])
    du = np.array([-math.sin(r), math.cos(r), 0.0])
    dw = np.array([-math.cos(r) * cb, -math.sin(r) * cb, 0.0])
    f = s + 0.5 * accel * s * s
    fp = 1.0 + accel * s
    cf, sf = math.cos(f), math.sin(f)
    e = cf * u + sf * w
    e_s = fp * (-sf * u + cf * w)
    e_ss = accel * (-sf * u + cf * w) + fp * fp * (-cf * u - sf * w)
    e_r = cf * du + sf * dw
    e_sr = fp * (-sf * du + cf * dw)
    e_rr = cf * (-u) + sf * (-np.array([w[0], w[1], 0.0]))
    x, y, z = e
    rho2 = x * x + y * y
    sth = math.sqrt(rho2)

    def first(e_a):
        return np.array([-e_a[2] / sth, (x * e_a[1] - y * e_a[0]) / rho2])

    def second(e_a, e_b, e_ab):
        th_a, th_b = -e_a[2] / sth, -e_b[2] / sth
        num = e_b[0] * e_a[1] + x * e_ab[1] - e_b[1] * e_a[0] - y * e_ab[0]
        corr = (x * e_a[1] - y * e_a[0]) * (2.0 * x * e_b[0] + 2.0 * y * e_b[1])
        return np.array([-(e_ab[2] + z * th_a * th_b) / sth,
                         num / rho2 - corr / (rho2 * rho2)])

    return (np.array([math.acos(z), math.atan2(y, x)]), first(e_s), first(e_r),
            second(e_s, e_s, e_ss), second(e_r, e_s, e_sr),
            second(e_r, e_r, e_rr))


def test_sphere_jets_match_the_numpy_reference():
    # the scalar sphere jets keep the numpy form's operations in order, so
    # every partial is the same float, signed zeros included
    rng = np.random.default_rng(17)
    for _ in range(300):
        tilt, accel = rng.uniform(0.2, 1.2), rng.uniform(-1.0, 1.0)
        surf = build(ScenarioSpec("sphere", {"tilt": tilt, "accel": accel})).surface
        s, r = rng.uniform(*surf.s_domain), rng.uniform(*surf.r_domain)
        got = [f(s, r) for f in (surf.d_rr, surf.map, surf.d_s, surf.d_r,
                                 surf.d_ss, surf.d_sr)]
        got = got[1:] + got[:1]
        for value, expected in zip(got, _numpy_sphere_jets(tilt, accel, s, r)):
            assert value.tobytes() == expected.tobytes()


def _bilinear_jets(p, dim, s, r):
    # reference: the ruled family's own closed form before the flat families
    # shared one surface, gamma^i = alpha_i s + beta_i r + kappa_i s r, with
    # its partials (x, x_s, x_r, x_ss, x_sr, x_rr); r may be an array
    alpha, beta, kappa = np.zeros((3, dim))
    alpha[0] = 1.0
    beta[0], kappa[0] = p["shear"], p["cross_0"]
    beta[1], kappa[1] = p["spread"], p["cross_1"]
    for i in range(2, dim):
        beta[i] = 0.25 + 0.1 * (i - 2)
        kappa[i] = 0.15 - 0.05 * (i - 2)
    r = np.asarray(r)[..., None]
    return (alpha * s + beta * r + kappa * s * r, alpha + kappa * r, beta + kappa * s,
            np.zeros(dim), kappa, np.zeros(dim))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_ruled_surface_is_the_bilinear_closed_form(dim):
    # the ruled family reads the flat families' one surface with the
    # coefficients it does not publish at 0; its jets at either order and
    # its stacked connecting paths must be its own bilinear form, bit for bit
    rng = np.random.default_rng(29 + dim)
    schema = {e["name"]: e["parameters"] for e in list_scenarios()}["flat-euclidean/ruled"]
    for _ in range(50):
        p = {key: rng.uniform(spec["min"], spec["max"]) for key, spec in schema.items()}
        p["dim"] = float(dim)
        surf = build(ScenarioSpec("flat-euclidean/ruled", p)).surface
        s, r = rng.uniform(*surf.s_domain), rng.uniform(*surf.r_domain)
        expected = _bilinear_jets(p, dim, s, r)
        order_1 = [f(s, r) for f in (surf.map, surf.d_s, surf.d_r)]
        order_2 = [f(s, r) for f in (surf.d_ss, surf.d_sr, surf.d_rr)]
        for value, want in zip(order_1 + order_2, expected):
            assert np.array_equal(value, want)
        rs = rng.uniform(*surf.r_domain, 9)
        x, x_r = surf.along_r(np.full(len(rs), s), rs)
        stacked = _bilinear_jets(p, dim, s, rs)
        assert np.array_equal(x, stacked[0])
        assert np.array_equal(x_r, np.broadcast_to(stacked[2], x_r.shape))


def test_surface_memo_is_safe_across_threads():
    # threads evaluating one surface at different points each get the jets
    # of their own point, never the values another thread's read left behind
    surf = build(ScenarioSpec("sphere", {"accel": 0.3})).surface
    points = [(0.02 * i - 0.3, 0.01 * i - 0.1) for i in range(20)]
    expected = {pt: surf.d_sr(*pt).copy() for pt in points}
    errors = []

    def work(offset):
        for k in range(400):
            pt = points[(offset + k) % len(points)]
            if not np.array_equal(surf.d_sr(*pt), expected[pt]):
                errors.append(pt)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_higher_dimensional_flat_families():
    for dim in (3, 4):
        sc = build(ScenarioSpec("flat-euclidean/quadratic", {"dim": dim}))
        assert sc.dimension == dim
        assert sc.surface.map(0.1, 0.1).shape == (dim,)


# ----------------------------------------------- structure coverage matrix

def _max_structure(scenario, fn, n=25):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(n):
        s = rng.uniform(*scenario.surface.s_domain)
        r = rng.uniform(*scenario.surface.r_domain)
        worst = max(worst, fn(s, r))
    return worst


def _torsion_mag(scenario):
    def fn(s, r):
        pt = ChartPoint(scenario.surface.map(s, r))
        return np.abs(torsion_at(scenario.conn, pt)).max()
    return _max_structure(scenario, fn)


def _curvature_mag(scenario):
    def fn(s, r):
        pt = ChartPoint(scenario.surface.map(s, r))
        return np.abs(curvature_at(scenario.conn, pt)).max()
    return _max_structure(scenario, fn)


def _s_tensor_mag(scenario):
    def fn(s, r):
        cpath = connecting_path(scenario, s)
        return np.abs(s_tensor(scenario.law, scenario.conn, cpath, r)).max()
    return _max_structure(scenario, fn, n=8)


@pytest.mark.parametrize("name,torsion,curv,s_ten", [
    ("flat-euclidean/ruled", False, False, False),
    ("flat-euclidean/quadratic", False, False, False),
    ("flat-torsion", True, False, False),
    ("sphere", False, True, False),
    ("minkowski", False, False, False),
    ("offset-transport", False, True, True),
    ("exp-transport", False, False, True),
])
def test_structure_matrix(name, torsion, curv, s_ten):
    sc = build(ScenarioSpec(name))
    assert (_torsion_mag(sc) > 1e-3) == torsion
    if curv:
        assert _curvature_mag(sc) > 1e-3
    else:
        assert _curvature_mag(sc) < 1e-10
    assert (_s_tensor_mag(sc) > 1e-3) == s_ten


def test_flat_torsion_values():
    sc = build(ScenarioSpec("flat-torsion", {"torsion_c": 0.3}))
    pt = ChartPoint(sc.surface.map(0.1, 0.0))
    t = torsion_at(sc.conn, pt)
    assert t[0, 1, 0] == pytest.approx(0.3)
    assert t[0, 0, 1] == pytest.approx(-0.3)


def test_sphere_curvature_everywhere_on_surface():
    sc = build(ScenarioSpec("sphere"))
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = rng.uniform(*sc.surface.s_domain)
        r = rng.uniform(*sc.surface.r_domain)
        pt = ChartPoint(sc.surface.map(s, r))
        assert np.abs(curvature_at(sc.conn, pt)).max() > 0.5


# ----------------------------------------------- analytic data consistency

@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_surface_partials_match_finite_differences(name):
    sc = build(ScenarioSpec(name))
    surf = sc.surface
    rng = np.random.default_rng(11)
    h = 1e-6
    lo_s, hi_s = surf.s_domain
    lo_r, hi_r = surf.r_domain
    for _ in range(100):
        s = rng.uniform(lo_s + 2 * h, hi_s - 2 * h)
        r = rng.uniform(lo_r + 2 * h, hi_r - 2 * h)
        fd_s = (surf.map(s + h, r) - surf.map(s - h, r)) / (2 * h)
        fd_r = (surf.map(s, r + h) - surf.map(s, r - h)) / (2 * h)
        assert np.abs(fd_s - surf.d_s(s, r)).max() < 1e-6
        assert np.abs(fd_r - surf.d_r(s, r)).max() < 1e-6
        fd_ss = (surf.d_s(s + h, r) - surf.d_s(s - h, r)) / (2 * h)
        fd_sr = (surf.d_s(s, r + h) - surf.d_s(s, r - h)) / (2 * h)
        fd_rr = (surf.d_r(s, r + h) - surf.d_r(s, r - h)) / (2 * h)
        assert np.abs(fd_ss - surf.d_ss(s, r)).max() < 1e-6
        assert np.abs(fd_sr - surf.d_sr(s, r)).max() < 1e-6
        assert np.abs(fd_rr - surf.d_rr(s, r)).max() < 1e-6


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_connection_and_metric_partials_match_central_differences(name):
    # every family states d_l Gamma and d_l g analytically; each is checked
    # against a central difference of the coefficients and of the matrix, in
    # each chart direction, at points on the family's surface
    sc = build(ScenarioSpec(name))
    surf = sc.surface
    rng = np.random.default_rng(13)
    h = 1e-5
    for _ in range(20):
        x = surf.map(rng.uniform(*surf.s_domain), rng.uniform(*surf.r_domain))
        for field, read in ((sc.conn, sc.conn.coefficients), (sc.metric, sc.metric.matrix)):
            fd = np.stack([(read((x + step)[None])[0] - read((x - step)[None])[0]) / (2 * h)
                           for step in h * np.eye(sc.dimension)], axis=-1)
            assert np.abs(fd - field.partials(x[None])[0]).max() < 1e-9


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_mass_and_metric_invariants_on_probe_grid(name):
    sc = build(ScenarioSpec(name, LINEAR_DRIFT_MASSES))
    rng = np.random.default_rng(5)
    h = 1e-6
    s = rng.uniform(*sc.surface.s_domain, 100)
    r = rng.uniform(*sc.surface.r_domain, 100)
    assert np.all(np.abs(sc.mass.mu(s, r)) > 0.5)
    fd = (sc.mass.mu(s + h, r) - sc.mass.mu(s - h, r)) / (2 * h)
    assert np.all(np.abs(fd - sc.mass.d_s_mu(s, r)) < 1e-8)
    coords = sc.surface.jets(s, r, 1)[0]
    g = sc.metric.matrix(coords)  # validates symmetry and nondegeneracy
    assert np.all(np.isfinite(g))
    gamma = sc.conn.coefficients(coords)
    assert np.all(np.isfinite(gamma))


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_probe_field_r_partial(name):
    sc = build(ScenarioSpec(name))
    h = 1e-6
    s, r = np.array([0.1, -0.2]), np.array([0.05, -0.1])
    fd = (sc.probe_field.value(s, r + h) - sc.probe_field.value(s, r - h)) / (2 * h)
    assert fd.shape == (2, sc.dimension)
    assert np.abs(fd - sc.probe_field.d_r(s, r)).max() < 1e-8


def test_sphere_chart_stays_away_from_poles():
    sc = build(ScenarioSpec("sphere", {"accel": 0.5}))
    rng = np.random.default_rng(9)
    for _ in range(200):
        s = rng.uniform(*sc.surface.s_domain)
        r = rng.uniform(*sc.surface.r_domain)
        theta = sc.surface.map(s, r)[0]
        assert 0.3 <= theta <= math.pi - 0.3


def test_minkowski_worldlines_timelike():
    sc = build(ScenarioSpec("minkowski"))
    g = np.diag([1.0, -1.0, -1.0, -1.0])
    rng = np.random.default_rng(13)
    for _ in range(50):
        s = rng.uniform(*sc.surface.s_domain)
        r = rng.uniform(*sc.surface.r_domain)
        v = sc.surface.d_s(s, r)
        assert v @ g @ v > 0.3


def test_equation_scenario_assignments_build():
    for eq, specs in EQUATION_SCENARIOS.items():
        for spec in specs:
            sc = build(spec)
            assert sc.label == spec.name

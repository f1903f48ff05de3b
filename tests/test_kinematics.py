from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad_vec

from geodev.errors import DomainError, EvaluationError, NullVectorError
from geodev.geometry import (ChartPoint, cov_tensor_components, metric_dot,
                             sign_of_square)
from geodev.equations import EquationId, _Workspace, residual
from geodev.kinematics import (MassSurface, Scenario, WorldSurface,
                               back_transport, connecting_path, delta_field, deviation_vector,
                               force_field, infinitesimal_deviation, momentum,
                               relative_acceleration, relative_energy,
                               relative_force, relative_momentum,
                               relative_velocity, worldline)
from geodev.scenarios import LINEAR_DRIFT_MASSES, ScenarioSpec, _identity_metric, build
from geodev.transport import (DEFAULT_ODE_CONFIG, law_from_connection,
                              transport_matrix)

from conftest import one_pullback
from oracles import scipy_transport
from test_geometry import zero_connection

EPS = 0.05


def close(a, b, tol) -> bool:
    """Whether two coordinate arrays have one shape and entries within tol."""
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def simple_flat_scenario(map_fn, d_s, d_r, d_ss=None, d_sr=None, d_rr=None,
                         metric=None, mass=None, label="test"):
    dim = len(map_fn(0.0, 0.0))
    zero = lambda s, r: np.zeros(dim)
    surf = WorldSurface(
        map=map_fn, d_s=d_s, d_r=d_r,
        d_ss=d_ss or zero, d_sr=d_sr or zero, d_rr=d_rr or zero,
        s_domain=(-1.0, 1.0), r_domain=(-0.5, 0.5))
    conn = zero_connection(dim)
    return Scenario(
        dimension=dim, conn=conn,
        metric=metric or _identity_metric(dim),
        law=law_from_connection(conn), surface=surf,
        mass=mass or MassSurface(lambda s, r: 1.0, lambda s, r: 0.0),
        label=label)


@pytest.fixture(scope="module")
def grid_scenario():
    # gamma(s, r) = (s, r)
    return simple_flat_scenario(
        lambda s, r: np.array([s, r]),
        lambda s, r: np.array([1.0, 0.0]),
        lambda s, r: np.array([0.0, 1.0]))


@pytest.fixture(scope="module")
def shear_scenario():
    # gamma(s, r) = (s (1 + r), r): hand-computed Delta V = (eps, 0)
    return simple_flat_scenario(
        lambda s, r: np.array([s * (1.0 + r), r]),
        lambda s, r: np.array([1.0 + r, 0.0]),
        lambda s, r: np.array([s, 1.0]),
        d_sr=lambda s, r: np.array([1.0, 0.0]))


# ------------------------------------------------------------------ worldline

def test_worldlines_coincide_at_zero_separation(sphere):
    w1 = worldline(sphere, 1)
    w2 = worldline(sphere, 2, 0.0)
    for s in (-0.3, 0.0, 0.25):
        assert close(w1.map(s).coords, w2.map(s).coords, 1e-15)


def test_worldline_flat_grid(grid_scenario):
    line = worldline(grid_scenario, 1)
    assert np.allclose(line.map(0.7).coords, [0.7, 0.0])
    assert np.allclose(line.tangent(0.7), [1.0, 0.0])


def test_velocity_is_worldline_tangent(sphere):
    for which in (1, 2):
        line = worldline(sphere, which, EPS)
        tan = line.tangent(0.2)
        r = sphere.surface.r_base + (0.0 if which == 1 else EPS)
        assert np.allclose(tan, sphere.surface.d_s(0.2, r))


def test_worldline_invalid_particle(sphere):
    with pytest.raises(ValueError):
        worldline(sphere, 3)


def test_worldline_separation_outside_domain(sphere):
    with pytest.raises(DomainError):
        worldline(sphere, 2, 5.0)


@pytest.mark.parametrize("which", ["path", "r", "s"])
def test_domain_checks_allow_1e_12_past_each_end(flat_ruled, which):
    # PathCurve.require, WorldSurface.require_r and require_s are one check:
    # 0.5e-12 past an end passes, 2e-12 past raises, with the message each
    # has always given
    surf = flat_ruled.surface
    require, (lo, hi), message = {
        "path": (worldline(flat_ruled, 1).require, surf.s_domain, "parameter {} outside path domain"),
        "r": (surf.require_r, surf.r_domain, "r = {} outside surface r-domain"),
        "s": (surf.require_s, surf.s_domain, "s = {} outside surface s-domain")}[which]
    for end, out in ((lo, -1.0), (hi, 1.0)):
        require(end + out * 0.5e-12)
        value = end + out * 2e-12
        with pytest.raises(DomainError) as info:
            require(value)
        assert str(info.value) == message.format(value) + f" [{lo}, {hi}]"


def test_path_tangent_base_consistency(sphere):
    # point and velocity of a path come from the surface at one parameter
    surf = sphere.surface
    line = worldline(sphere, 1)
    cpath = connecting_path(sphere, 0.1)
    for s in (-0.2, 0.0, 0.3):
        assert close(line.map(s).coords, surf.map(s, surf.r_base), 1e-15)
        assert np.array_equal(line.tangent(s), surf.d_s(s, surf.r_base))
    for r in (-0.1, 0.0, 0.2):
        assert close(cpath.map(r).coords, surf.map(0.1, r), 1e-15)
        assert np.array_equal(cpath.tangent(r), surf.d_r(0.1, r))


# ---------------------------------------------------------------- force field

def test_force_field_straight_lines(grid_scenario):
    f = force_field(grid_scenario, 0.2, 0.1)
    assert np.all(f == 0.0)


def test_force_field_uniform_acceleration():
    a = 0.8
    sc = simple_flat_scenario(
        lambda s, r: np.array([s, r + 0.5 * a * s * s]),
        lambda s, r: np.array([1.0, a * s]),
        lambda s, r: np.array([0.0, 1.0]),
        d_ss=lambda s, r: np.array([0.0, a]))
    f = force_field(sc, 0.3, 0.1)
    assert np.allclose(f, [0.0, a])


def test_force_field_great_circles_vanishes(sphere):
    for (s, r) in ((0.0, 0.0), (0.2, -0.1), (-0.3, 0.2)):
        f = force_field(sphere, s, r)
        assert np.abs(f).max() < 1e-8


@pytest.mark.parametrize("bad", [np.zeros(3), np.array([0.0, np.nan])])
def test_surface_vectors_are_checked_where_they_arrive(bad):
    # a surface partial of the wrong shape or with a non-finite entry is named
    # by the public function that reads it, not passed on as an array; a
    # residual names it too (E3_1 reads no pull-back, whose path would meet
    # a bad d_r first, as a tangent)
    grid = {"map_fn": lambda s, r: np.array([s, r]),
            "d_s": lambda s, r: np.array([1.0, 0.0]),
            "d_r": lambda s, r: np.array([0.0, 1.0])}
    cases = [("d_ss", lambda sc: force_field(sc, 0.1, 0.0), "d_ss components"),
             ("d_s", lambda sc: force_field(sc, 0.1, 0.0), "d_s components"),
             ("d_s", lambda sc: momentum(sc, 1, 0.1), "d_s components"),
             ("d_r", lambda sc: infinitesimal_deviation(sc, 0.1, EPS),
              "d_r components"),
             ("d_sr", lambda sc: residual(EquationId.E4_3, sc, 0.1, EPS), "d_sr components"),
             ("d_r", lambda sc: residual(EquationId.E3_1, sc, 0.1, EPS), "d_r components")]
    for partial, call, message in cases:
        sc = simple_flat_scenario(**{**grid, partial: lambda s, r: bad})
        with pytest.raises(EvaluationError, match=message):
            call(sc)


@pytest.mark.parametrize("datum,bad,message", [
    ("probe", np.zeros(3), r"probe field d_r components have shape \(3,\)"),
    ("probe", np.array([0.0, np.nan]), "non-finite probe field d_r components"),
    ("mass", np.nan, "non-finite d_s_mu values"),
    ("mass", np.zeros(2), r"d_s_mu values have shape \(2,\)"),
    ("mu", np.nan, "non-finite mu values"),
    ("mu", np.zeros(2), r"mu values have shape \(2,\)")],
    ids=["probe-shape", "probe-nan", "mass-nan", "mass-shape", "mu-nan", "mu-shape"])
def test_probe_and_mass_rates_are_checked_where_they_arrive(sphere, datum, bad, message):
    # the probe field's d_r at (s, r'), the mass's d_s_mu at r' and the r''
    # and the mass itself are named where a residual reads them, not passed
    # on to a broadcast error, a float() error, a NaN residual norm or, for
    # a NaN mass, a "mass function vanished"
    if datum == "probe":
        sc = replace(sphere, probe_field=replace(sphere.probe_field, d_r=lambda s, r: bad))
        equations = [EquationId.E2_10]
    elif datum == "mass":
        sc = replace(sphere, mass=replace(sphere.mass, d_s_mu=lambda s, r: bad))
        equations = [EquationId.E5_2, EquationId.E7_2]
    else:
        sc = replace(sphere, mass=replace(sphere.mass, mu=lambda s, r: bad))
        equations = [EquationId.E5_1, EquationId.E7_1]
    for eq in equations:
        with pytest.raises(EvaluationError, match=message):
            residual(eq, sc, 0.1, EPS)


def test_accelerations_are_force_field_values(sphere_accel):
    line2 = worldline(sphere_accel, 2, EPS)
    r2 = sphere_accel.surface.r_base + EPS
    gamma2 = sphere_accel.conn.coefficients(line2.map(0.1).coords[None])[0]
    a2 = cov_tensor_components(gamma2, line2.tangent(0.1), line2.tangent(0.1),
                               sphere_accel.surface.d_ss(0.1, r2), (1, 0))
    f2 = force_field(sphere_accel, 0.1, r2)
    assert np.abs(a2 - f2).max() < 1e-10


# ----------------------------------------------------------------- deviation

def test_deviation_vector_zero_separation(sphere):
    h = deviation_vector(sphere, 0.1, 0.0)
    assert np.all(h == 0.0)


def test_deviation_vector_flat_grid(grid_scenario):
    h = deviation_vector(grid_scenario, 0.3, EPS)
    assert np.abs(h - np.array([0.0, EPS])).max() < 1e-12


def test_deviation_vector_quadratic_r_closed_form():
    # flat chart, parallel law, gamma = (s, r + w r^2 / 2):
    # h = (0, eps + w((r'+eps)^2 - r'^2)/2), zeta = (0, eps(1 + w r')),
    # so h - zeta = (0, w eps^2 / 2) exactly
    w = 0.6
    sc = simple_flat_scenario(
        lambda s, r: np.array([s, r + 0.5 * w * r * r]),
        lambda s, r: np.array([1.0, 0.0]),
        lambda s, r: np.array([0.0, 1.0 + w * r]),
        d_rr=lambda s, r: np.array([0.0, w]))
    for eps in (0.2, 0.1, 0.05):
        h = deviation_vector(sc, 0.1, eps)
        zeta = infinitesimal_deviation(sc, 0.1, eps)
        diff = h - zeta
        assert abs(diff[0]) < 1e-13
        assert diff[1] == pytest.approx(0.5 * w * eps * eps, rel=1e-8)


@pytest.mark.parametrize("name", ["sphere", "offset-transport",
                                  "flat-euclidean/quadratic", "minkowski"])
def test_deviation_vector_matches_gauss_kronrod_oracle(name):
    # independent oracle: adaptive gk15 quadrature of the connecting-path
    # tangents, each node back-transported by its own SciPy DOP853 solve
    # (tests/oracles.py), none of it the package's stepper
    sc = build(ScenarioSpec(name))
    s0 = sc.s_eval
    r1 = sc.surface.r_base
    cpath = connecting_path(sc, s0)
    rdot = lambda u: np.asarray(sc.surface.d_r(s0, u), float)
    for eps in (1e-1, 1e-2, 1e-3):
        oracle, _ = quad_vec(
            lambda u: scipy_transport(sc.law, cpath, u, r1, rdot(u)),
            r1, r1 + eps, epsabs=1e-13, epsrel=1e-14, quadrature="gk15")
        h = deviation_vector(sc, s0, eps)
        assert np.abs(h - oracle).max() < 1e-12
        back, integral = one_pullback(sc.law, cpath, r1, r1 + eps)
        assert np.array_equal(integral, h)
        assert all(map(np.array_equal, back_transport(sc, s0, eps), (back, h)))
        expected = scipy_transport(sc.law, cpath, r1 + eps, r1, np.eye(sc.dimension))
        assert np.abs(back - expected).max() < 1e-10


def test_deviation_vector_interval_additivity(sphere):
    # split [r', r'+eps] at the midpoint: the far chunk is the deviation
    # vector of the rebased scenario, pulled back from the midpoint
    eps = 0.2
    s0 = 0.1
    mid = sphere.surface.r_base + 0.5 * eps
    whole = deviation_vector(sphere, s0, eps)
    near = deviation_vector(sphere, s0, 0.5 * eps)
    rebased = build(ScenarioSpec("sphere", r_base=mid))
    far_at_mid = deviation_vector(rebased, s0, 0.5 * eps)
    cpath = connecting_path(sphere, s0)
    pull = transport_matrix(sphere.law, cpath, mid, sphere.surface.r_base)
    assert np.abs(whole - (near + pull @ far_at_mid)).max() < 1e-10


def test_deviation_vs_infinitesimal_second_order(sphere):
    s0 = 0.1
    errs = []
    for eps in (0.08, 0.04, 0.02):
        h = deviation_vector(sphere, s0, eps)
        z = infinitesimal_deviation(sphere, s0, eps)
        errs.append(np.abs(h - z).max())
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


def test_infinitesimal_deviation_basics(grid_scenario):
    z = infinitesimal_deviation(grid_scenario, 0.4, 0.0)
    assert np.all(z == 0.0)
    z = infinitesimal_deviation(grid_scenario, 0.4, EPS)
    assert np.allclose(z, [0.0, EPS])


@settings(max_examples=20, deadline=None)
@given(st.floats(1e-4, 0.14))
def test_infinitesimal_deviation_linear_in_eps(eps):
    sc = build(ScenarioSpec("sphere"))
    single = infinitesimal_deviation(sc, 0.1, eps)
    double = infinitesimal_deviation(sc, 0.1, 2.0 * eps)
    assert np.abs(double - 2.0 * single).max() < 1e-14


def test_ratio_h_over_eps_converges_to_r_tangent(sphere):
    s0 = 0.1
    target = sphere.surface.d_r(s0, sphere.surface.r_base)
    errs = []
    for eps in (0.04, 0.02, 0.01):
        h = deviation_vector(sphere, s0, eps)
        errs.append(np.abs(h / eps - target).max())
    assert 1.7 < errs[0] / errs[1] < 2.3
    assert 1.7 < errs[1] / errs[2] < 2.3


# --------------------------------------------------------------- delta field

def test_delta_field_zero_separation(sphere):
    d = delta_field(sphere, 0.1, 0.0, sphere.surface.d_s)
    assert np.all(d == 0.0)


def test_delta_field_transport_invariant_field(sphere):
    # build B by transporting a fixed vector along gamma_s: Delta B = 0
    s0 = 0.2
    cpath = connecting_path(sphere, s0)
    r0 = sphere.surface.r_base
    seed = np.array([0.4, -0.9])

    def field(s, r):
        assert s == s0
        mat = transport_matrix(sphere.law, cpath, r0, r)
        return mat @ seed

    d = delta_field(sphere, s0, 0.15, field)
    assert np.abs(d).max() < 1e-9


def test_delta_field_takes_an_unhashable_callable(sphere):
    @dataclass
    class Velocity:  # eq=True leaves its instances unhashable
        surf: WorldSurface

        def __call__(self, s, r):
            return self.surf.d_s(s, r)

    assert np.array_equal(delta_field(sphere, 0.1, EPS, Velocity(sphere.surface)),
                          delta_field(sphere, 0.1, EPS, sphere.surface.d_s))


@pytest.mark.parametrize("value,message", [
    (np.array([1.0, 0.0, 0.0]), "field components have shape"),
    (np.array([1.0, np.nan]), "non-finite field components")],
    ids=["wrong-shape", "non-finite"])
def test_delta_field_rejects_bad_field_components(sphere, value, message):
    # a bad value at r' or at r'' alike: each is checked once
    for at_r2 in (True, False):
        r2 = sphere.surface.r_base + 0.1
        bad = lambda s, r: value if (r == r2) == at_r2 else np.array([1.0, 0.0])
        with pytest.raises(EvaluationError, match=message):
            delta_field(sphere, 0.1, 0.1, bad)


def test_relative_quantities_are_one_pull_back_minus_the_value_at_r1():
    sc = build(ScenarioSpec("offset-transport",
                            {"accel": 0.3, **LINEAR_DRIFT_MASSES}))
    s0, surf, mass = 0.1, sc.surface, sc.mass
    r1, r2 = sc.separation_endpoints(EPS)
    pull = back_transport(sc, s0, EPS)[0]
    fields = {
        relative_velocity: surf.d_s,
        relative_acceleration: lambda s, r: force_field(sc, s, r),
        relative_momentum: lambda s, r: mass.value(s, r) * surf.d_s(s, r),
        relative_force: lambda s, r: (mass.value(s, r)
                                      * force_field(sc, s, r)),
    }
    for fn, field in fields.items():
        by_hand = pull @ field(s0, r2) - field(s0, r1)
        assert np.array_equal(fn(sc, s0, EPS), by_hand)
    x1 = ChartPoint(surf.map(s0, r1))
    v1 = surf.d_s(s0, r1)
    pulled_p2 = pull @ (mass.value(s0, r2) * surf.d_s(s0, r2))
    by_hand = (sign_of_square(sc.metric, x1, v1)
               * metric_dot(sc.metric, x1, pulled_p2, v1))
    assert relative_energy(sc, s0, EPS) == by_hand
    # a study's workspace, which takes F_s(r') and the metric at x_1 from its
    # memo and reads them on its ladder stack, gives the same values on a
    # ladder of one
    w = _Workspace(sc, (EPS,), DEFAULT_ODE_CONFIG)
    for fn, stacked in ((relative_velocity, w.delta_v), (relative_acceleration, w.delta_a),
                        (relative_momentum, w.delta_p), (relative_force, w.delta_k)):
        assert np.array_equal(stacked(s0)[0], fn(sc, s0, EPS))
    assert w.energy(s0)[0, 0] == by_hand


def test_relative_velocity_equals_delta_of_velocity_field(sphere):
    via_delta = delta_field(sphere, 0.1, EPS, sphere.surface.d_s)
    direct = relative_velocity(sphere, 0.1, EPS)
    assert np.abs(via_delta - direct).max() < 1e-12


def test_relative_quantities_equal_delta_of_their_fields(sphere_accel):
    sc = build(ScenarioSpec("offset-transport", {"accel": 0.3},
                            s_eval=0.1))
    surf, mass = sc.surface, sc.mass
    cases = {
        relative_acceleration: lambda s, r: force_field(sc, s, r),
        relative_momentum: lambda s, r: mass.value(s, r) * surf.d_s(s, r),
        relative_force: lambda s, r: (mass.value(s, r)
                                      * force_field(sc, s, r)),
    }
    for direct_fn, field in cases.items():
        via_delta = delta_field(sc, 0.1, EPS, field)
        direct = direct_fn(sc, 0.1, EPS)
        assert np.abs(via_delta - direct).max() < 1e-12


# ------------------------------------------------------- relative quantities

def test_relative_velocity_hand_value(shear_scenario):
    dv = relative_velocity(shear_scenario, 0.3, EPS)
    assert np.abs(dv - np.array([EPS, 0.0])).max() < 1e-12


def test_relative_quantities_vanish_at_zero_separation(sphere):
    for fn in (relative_velocity, relative_acceleration, relative_momentum,
               relative_force):
        out = fn(sphere, 0.15, 0.0)
        assert np.all(out == 0.0)


def test_relative_acceleration_flat_geodesics(flat_ruled):
    da = relative_acceleration(flat_ruled, 0.1, EPS)
    assert np.abs(da).max() < 1e-12


def test_momentum_and_exact_identity():
    sc = build(ScenarioSpec("sphere", {"mass_drift_s": 0.2,
                                       "mass_drift_r": 0.3}))
    s0, eps = 0.1, 0.12
    mu1 = sc.mass.value(s0, sc.surface.r_base)
    mu2 = sc.mass.value(s0, sc.surface.r_base + eps)
    p1 = momentum(sc, 1, s0, eps)
    assert np.allclose(p1, mu1 * sc.surface.d_s(s0, sc.surface.r_base))
    dp = relative_momentum(sc, s0, eps)
    dv = relative_velocity(sc, s0, eps)
    identity = mu2 * dv + (mu2 / mu1 - 1.0) * p1
    assert np.abs(dp - identity).max() < 1e-12


def test_unit_masses_momentum_equals_velocity(sphere):
    dp = relative_momentum(sphere, 0.2, EPS)
    dv = relative_velocity(sphere, 0.2, EPS)
    assert np.abs(dp - dv).max() < 1e-12


def test_unit_masses_force_equals_acceleration(sphere_accel):
    dk = relative_force(sphere_accel, 0.2, EPS)
    da = relative_acceleration(sphere_accel, 0.2, EPS)
    assert np.abs(dk - da).max() < 1e-12


def test_relative_force_vanishes_without_force(flat_ruled):
    dk = relative_force(flat_ruled, 0.1, EPS)
    assert np.abs(dk).max() < 1e-12


# -------------------------------------------------------------------- energy

def test_relative_energy_flat_unit_speed(flat_ruled):
    # at eps = 0 with unit masses the energy reduces to (V1)^2 = 1
    e = relative_energy(flat_ruled, 0.0, 0.0)
    assert e == pytest.approx(1.0, abs=1e-12)


def test_relative_energy_two_forms_agree(minkowski):
    s0, eps = 0.1, 0.1
    e = relative_energy(minkowski, s0, eps)
    dp = relative_momentum(minkowski, s0, eps)
    p1 = momentum(minkowski, 1, s0)
    line = worldline(minkowski, 1)
    v1 = line.tangent(s0)
    x1 = line.map(s0)
    sign = sign_of_square(minkowski.metric, x1, v1)
    other = sign * (metric_dot(minkowski.metric, x1, dp, v1)
                    + metric_dot(minkowski.metric, x1, p1, v1))
    assert e == pytest.approx(other, abs=1e-12)


def test_relative_energy_static_particle_mass_limit():
    m = 2.5
    sc = build(ScenarioSpec("minkowski", {"boost": 0.0, "accel": 0.0,
                                          "mass_scale": m}))
    e = relative_energy(sc, 0.1, 1e-6)
    assert e == pytest.approx(m, abs=1e-5)


def test_relative_energy_requires_metric(grid_scenario):
    bare = Scenario(dimension=grid_scenario.dimension, conn=grid_scenario.conn,
                    metric=None, law=grid_scenario.law,
                    surface=grid_scenario.surface, mass=grid_scenario.mass,
                    label="bare")
    with pytest.raises(EvaluationError):
        relative_energy(bare, 0.1, 0.1)


def test_relative_energy_null_worldline_raises():
    lorentz = _identity_metric(2, np.array([1.0, -1.0]))
    sc = simple_flat_scenario(
        lambda s, r: np.array([s, s + r]),
        lambda s, r: np.array([1.0, 1.0]),  # null tangent
        lambda s, r: np.array([0.0, 1.0]),
        metric=lorentz)
    with pytest.raises(NullVectorError):
        relative_energy(sc, 0.1, 0.05)

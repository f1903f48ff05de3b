import math
import os
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as dop853
from scipy.linalg import expm

import geodev.geometry
import geodev.transport as transport
from geodev.cli import _latitude_path
from geodev.errors import EvaluationError, TransportError
from geodev.geometry import ChartPoint, ConnectionField, PathCurve, metric_dot
from geodev.equations import DEFAULT_LADDER
from geodev.kinematics import back_transport, connecting_path, worldline
from geodev.scenarios import (LINEAR_DRIFT_MASSES, ScenarioSpec, build,
                              exp_law_generator)
from geodev.transport import (MIN_REL_TOL, OdeConfig, TransportLaw,
                              approx_transport, coordinate_probes,
                              extract_first_coeff, law_from_connection,
                              law_with_offset, pullback_integral, s_tensor,
                              transport_components, transport_matrix)

from test_geometry import (constant_connection, line_path, sphere_connection,
                           zero_connection)


def test_ode_config_validation():
    with pytest.raises(ValueError):
        OdeConfig(rel_tol=-1.0)
    with pytest.raises(ValueError):
        OdeConfig(max_steps=0)
    with pytest.raises(ValueError, match="100 machine epsilons"):
        OdeConfig(rel_tol=1e-16)
    assert OdeConfig(rel_tol=MIN_REL_TOL).rel_tol == MIN_REL_TOL


def test_identity_at_equal_parameters(sphere):
    line = worldline(sphere, 1)
    mat = transport_matrix(sphere.law, line, 0.2, 0.2)
    assert np.array_equal(mat, np.eye(2))


def test_flat_parallel_transport_is_identity(flat_ruled):
    line = worldline(flat_ruled, 1)
    mat = transport_matrix(flat_ruled.law, line, -0.3, 0.4)
    assert np.abs(mat - np.eye(2)).max() < 1e-12


def test_flow_property_random_triples(sphere, rng):
    line = worldline(sphere, 1)
    lo, hi = line.domain
    for _ in range(10):
        r, s, t = rng.uniform(lo, hi, size=3)
        lhs = (transport_matrix(sphere.law, line, r, t)
               @ transport_matrix(sphere.law, line, s, r))
        rhs = transport_matrix(sphere.law, line, s, t)
        assert np.abs(lhs - rhs).max() < 1e-8


def test_round_trip_is_identity(sphere):
    line = worldline(sphere, 1)
    fwd = transport_matrix(sphere.law, line, -0.2, 0.35)
    back = transport_matrix(sphere.law, line, 0.35, -0.2)
    assert np.abs(back @ fwd - np.eye(2)).max() < 1e-9


def test_transport_components_matches_matrix_and_linearity(sphere):
    # the vector ODE and the matrix ODE are separate adaptive solves, so
    # they agree (and the vector map is linear) within solver tolerance
    line = worldline(sphere, 1)
    s, t = -0.1, 0.3
    mat = transport_matrix(sphere.law, line, s, t)
    u = np.array([0.7, -0.4])
    v = np.array([0.1, 1.2])
    for comps in (u, v, 2.5 * u - 1.25 * v):
        moved = transport_components(sphere.law, line, s, t, comps)
        assert np.abs(moved - mat @ comps).max() < 1e-9


def test_one_path_evaluation_per_rhs_parameter(monkeypatch):
    # a new stage parameter of a parallel transport costs one jets call, one
    # ChartPoint, one TransportLaw.coefficients and one coeff_at of the law;
    # a parameter met again costs none of them
    counts = Counter()

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(ChartPoint, "__init__",
                        counted("ChartPoint", ChartPoint.__init__))
    monkeypatch.setattr(TransportLaw, "coefficients",
                        counted("coefficients", TransportLaw.coefficients))
    calls = record_rhs_calls(monkeypatch)
    law = law_from_connection(sphere_connection())
    path = PathCurve(counted("jets", lambda t: (np.array([0.8, t]),
                                                np.array([0.0, 1.0]))),
                     (0.0, 2.0 * math.pi))
    transport_matrix(TransportLaw(counted("coeff_at", law.coeff_at)), path,
                     0.0, 2.0 * math.pi)
    new = len({u for u, _ in calls})
    assert new > 50 and len(calls) > new
    assert counts == {"jets": new, "ChartPoint": new, "coefficients": new,
                      "coeff_at": new}


@pytest.mark.parametrize("d", [2, 4])
def test_non_finite_values_met_inside_a_solve_are_named(d):
    # NaN, +inf and -inf at each entry of H, of the path velocity and of the
    # path coordinates, from the third new parameter of a transport_matrix
    # solve on, raise the EvaluationError of the check that meets them; d = 4
    # gives H 64 entries, so both sizes of finiteness test are met
    gamma, start = np.full((d, d, d), 0.01), np.full(d, 0.1)
    direction = np.linspace(1.0, 0.5, d)
    checks = {"gamma": ((d, d, d), "non-finite transport coefficients"),
              "velocity": ((d,), "non-finite tangent components"),
              "coords": ((d,), "chart coordinates must be flat and finite")}

    def solve(spoilt, index, bad):
        seen = Counter()

        def value(name, values):
            seen[name] += 1
            if name == spoilt and seen[name] >= 3:
                values = values.copy()
                values[index] = bad
            return values

        law = law_from_connection(ConnectionField(lambda pt: value("gamma", gamma)))
        path = PathCurve(lambda u: (value("coords", start + u * direction),
                                    value("velocity", direction)), (0.0, 1.0))
        try:
            transport_matrix(law, path, 0.0, 1.0)
        finally:
            assert seen[spoilt] == 3

    for spoilt, (shape, message) in checks.items():
        for index in np.ndindex(shape):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(EvaluationError, match=message):
                    solve(spoilt, index, bad)


def test_pullback_along_a_shared_path_is_safe_across_threads(monkeypatch):
    # more threads than cores solve along one connecting path to different
    # endpoints.  The law and the path yield the GIL inside every evaluation,
    # so other threads run while a memo entry is being computed, and the
    # memos (path points, generators, surface points) are bounded at 8
    # entries here, so they are emptied and refilled under the readers;
    # every thread must still get the serial result, and no error
    monkeypatch.setattr(geodev.geometry, "MEMO_SIZE", 8)
    sc = build(ScenarioSpec("offset-transport", LINEAR_DRIFT_MASSES))
    surf, s, r1 = sc.surface, sc.s_eval, sc.surface.r_base

    def yielding(value):
        time.sleep(0)
        return value

    law = TransportLaw(lambda u, path: yielding(sc.law.coeff_at(u, path)))
    ends = [r1 + eps for eps in DEFAULT_LADDER]
    serial = {t: pullback_integral(sc.law, connecting_path(sc, s), r1, t)
              for t in ends}
    shared = PathCurve(lambda r: yielding((surf.map(s, r), surf.d_r(s, r))),
                       surf.r_domain)
    errors = []

    def work(offset):
        try:
            for k in range(2 * len(ends)):
                t = ends[(offset + k) % len(ends)]
                got = pullback_integral(law, shared, r1, t)
                if not all(map(np.array_equal, got, serial[t])):
                    errors.append(t)
        except Exception as exc:  # an error in a thread fails the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range((os.cpu_count() or 1) + 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_step_budget_exhaustion(sphere):
    line = worldline(sphere, 1)
    tiny = OdeConfig(rel_tol=1e-13, abs_tol=1e-14, max_steps=1)
    with pytest.raises(TransportError):
        transport_matrix(sphere.law, line, line.domain[0], line.domain[1], tiny)


def bump_law() -> TransportLaw:
    """A rotation generator switched on by a Gaussian bump at u = 0.3: the
    steps grow on the flat part and are rejected at the bump."""
    gen = np.zeros((2, 2, 2))
    gen[0, 1, 0], gen[1, 0, 0] = 1.0, -1.0
    return TransportLaw(lambda u, path: 5.0 * math.exp(-((u - 0.3) / 0.1) ** 2) * gen)


X_AXIS = line_path([0.0, 0.0], [1.0, 0.0])
REJECTING = OdeConfig(rel_tol=1e-6, abs_tol=1e-8)


def record_rhs_calls(monkeypatch) -> list:
    """Wrap ``transport._integrate`` so that each RHS call of every later
    solve appends its parameter and generator ``(u, M)`` to the returned
    list."""
    calls, integrate = [], transport._integrate

    def recording(law, path, rhs, *args):
        def recorded(u, m, y):
            calls.append((u, m))
            return rhs(u, m, y)
        return integrate(law, path, recorded, *args)

    monkeypatch.setattr(transport, "_integrate", recording)
    return calls


def test_step_budget_counts_attempted_steps(monkeypatch):
    # 2 RHS calls pick the first step, then 12 per attempted DOP853 step;
    # this solve rejects steps (test_stepper_matches_scipy_rk45), and they
    # count too
    calls = record_rhs_calls(monkeypatch)
    law = bump_law()
    free = transport_matrix(law, X_AXIS, 0.9, 0.02, REJECTING)
    attempts, rest = divmod(len(calls) - 2, 12)
    assert rest == 0 and attempts > 10
    exact = replace(REJECTING, max_steps=attempts)
    assert np.array_equal(transport_matrix(law, X_AXIS, 0.9, 0.02, exact), free)
    short = replace(REJECTING, max_steps=attempts - 1)
    with pytest.raises(TransportError, match=f"exceeded {attempts - 1} steps"):
        transport_matrix(law, X_AXIS, 0.9, 0.02, short)


def test_one_generator_per_rhs_parameter(monkeypatch):
    # DOP853's stage 12 (c = 1) and the FSAL stage share u + h, and so one
    # evaluation of M; the M an RHS receives is read-only, so no RHS can
    # corrupt the memo
    sphere_law, coeff_calls = build(ScenarioSpec("sphere")).law, []

    def coeff_at(u, path):
        coeff_calls.append(u)
        return sphere_law.coeff_at(u, path)

    calls = record_rhs_calls(monkeypatch)
    transport_matrix(TransportLaw(coeff_at), _latitude_path(math.pi / 4),
                     0.0, 2.0 * math.pi)
    attempts, rest = divmod(len(calls) - 2, 12)
    assert rest == 0
    assert len(coeff_calls) == len({u for u, _ in calls}) == 2 + 11 * attempts
    assert attempts > 10
    for _, m in calls:
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 0.0


def test_holonomy_rhs_calls(monkeypatch):
    # the sphere's latitude holonomy with DOP853 at the default tolerances;
    # these counts pin the pair's gain, as RK 5(4) needs 1,196 / 854 / 212
    calls = record_rhs_calls(monkeypatch)
    law = build(ScenarioSpec("sphere")).law
    counts = []
    for theta0 in (0.15, math.pi / 4, 1.4):
        calls.clear()
        transport_matrix(law, _latitude_path(theta0), 0.0, 2.0 * math.pi)
        counts.append(len(calls))
    assert counts == [266, 194, 74]


def test_dop853_coefficients_match_scipy():
    tab = transport._DOP853
    assert len(tab.c) == len(tab.a) == len(tab.b) == dop853.N_STAGES == 12
    np.testing.assert_array_equal(tab.c, dop853.C[:12])
    for i, row in enumerate(tab.a):
        np.testing.assert_array_equal(row, dop853.A[i, :i])
    np.testing.assert_array_equal(tab.b, dop853.B)
    np.testing.assert_array_equal(transport._DOP853_E3, dop853.E3)
    np.testing.assert_array_equal(transport._DOP853_E5, dop853.E5)
    assert tab.order == 7


SCIPY_METHODS = ((transport._RK45, "RK45"), (transport._DOP853, "DOP853"))


def scipy_integrate(params: list, accepted: list, methods: list):
    """Stand-in for ``transport._integrate`` that solves the same ODE with
    ``solve_ivp`` and the method of the given tableau, recording each RHS
    parameter, the accepted steps and the method."""
    def integrate(law, path, rhs, y0, s, t, cfg, tableau):
        def fun(u, y):
            params.append(u)
            coeff = law.coefficients(u, path)
            return rhs(u, np.einsum("ijk,k->ij", coeff, path.tangent(u)), y)
        [method] = [name for tab, name in SCIPY_METHODS if tab is tableau]
        sol = solve_ivp(fun, (s, t), y0, method=method, rtol=cfg.rel_tol,
                        atol=cfg.abs_tol)
        assert sol.success, sol.message
        accepted.append(len(sol.t) - 1)
        methods.append(method)
        return sol.y[:, -1]
    return integrate


def backward_worldline() -> np.ndarray:
    """One vector carried from s = 0.4 back to s = -0.3 along particle 1."""
    sc = build(ScenarioSpec("offset-transport"))
    return transport_components(sc.law, worldline(sc, 1), 0.4, -0.3,
                                np.array([0.3, -0.7]))


def minkowski_pullback() -> np.ndarray:
    """L_{r''->r'} (16 components) and h (4 more), riding along in one solve."""
    sc = build(ScenarioSpec("minkowski"))
    pull, h = back_transport(sc, sc.s_eval, 0.1)
    return np.concatenate((pull.reshape(-1), h))


ORACLE_CASES = {  # each case: the solve, and the solve_ivp method it uses
    "latitude-holonomy": (lambda: transport_matrix(
        build(ScenarioSpec("sphere")).law, _latitude_path(math.pi / 4),
        0.0, 2.0 * math.pi), "DOP853"),
    "backward-worldline": (backward_worldline, "DOP853"),
    "minkowski-pullback": (minkowski_pullback, "RK45"),
    # rejects steps, caps the growth of steps accepted right after a
    # rejection, and its clipped last step has u + h != t in floating point
    "rejecting": (lambda: transport_matrix(
        bump_law(), X_AXIS, 0.9, 0.02, REJECTING), "DOP853"),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_stepper_matches_scipy_rk45(case, monkeypatch):
    # each case names the solve_ivp method of the pair its call site fixes:
    # DOP853 for transport_components, RK45 for pullback_integral
    solve, method = ORACLE_CASES[case]
    ours_params, oracle_params, accepted, methods = [], [], [], []
    integrate = transport._integrate

    def counting(law, path, rhs, *args):
        def counted(u, m, y):
            ours_params.append(u)
            return rhs(u, m, y)
        return integrate(law, path, counted, *args)

    monkeypatch.setattr(transport, "_integrate", counting)
    ours = solve()
    monkeypatch.setattr(transport, "_integrate",
                        scipy_integrate(oracle_params, accepted, methods))
    theirs = solve()
    assert methods == [method]
    np.testing.assert_array_equal(ours, theirs)
    assert ours_params == oracle_params
    if case == "rejecting":
        [steps] = accepted
        assert (len(oracle_params) - 2) // 12 > steps


def test_non_finite_initial_state_error(sphere):
    with pytest.raises(EvaluationError, match="non-finite initial transport state"):
        transport_components(sphere.law, worldline(sphere, 1), 0.0, 0.2,
                             [math.nan, 1.0])


def test_non_finite_coefficients_error():
    law = TransportLaw(coeff_at=lambda s, path: np.full((2, 2, 2), np.nan))
    path = line_path([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(EvaluationError):
        transport_matrix(law, path, 0.0, 0.5)


@pytest.mark.parametrize("make_law", [
    law_from_connection,
    lambda conn: law_with_offset(conn, lambda pt: np.zeros((2, 2, 2)))],
    ids=["parallel", "offset"])
def test_connection_laws_leave_the_check_to_the_law(make_law, monkeypatch):
    # the laws read Gamma unchecked; TransportLaw.coefficients checks H once,
    # so a Gamma that turns non-finite inside a solve is named by the law
    def gamma_at(pt):
        return np.full((2, 2, 2), np.nan if pt.coords[0] > 0.3 else 0.0)

    law = make_law(ConnectionField(gamma_at=gamma_at))
    monkeypatch.setattr(ConnectionField, "coefficients",
                        lambda self, point: pytest.fail("Gamma checked twice"))
    path = line_path([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(EvaluationError, match="non-finite transport coefficients"):
        transport_matrix(law, path, 0.0, 0.5)


@pytest.mark.parametrize("shape", [(3, 3, 3), (2, 2), (2, 2, 3)])
def test_coefficients_must_be_a_cube_of_the_path_dimension(shape):
    # a cube of the wrong side used to reach the RHS einsum and fail there
    law = TransportLaw(coeff_at=lambda s, path: np.zeros(shape))
    path = line_path([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(EvaluationError, match=r"expected \(2, 2, 2\)"):
        transport_matrix(law, path, 0.0, 0.5)


def test_parallel_law_zero_connection():
    law = law_from_connection(zero_connection())
    path = line_path([0.0, 0.0], [1.0, 0.0])
    assert np.all(law.coefficients(0.3, path) == 0.0)


def test_parallel_law_coefficient_sign():
    # dH(t,s)/dt at t=s equals -Gamma_k xdot^k for the parallel law
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 0] = 0.5
    gamma[1, 0, 1] = -0.2
    conn = constant_connection(gamma)
    law = law_from_connection(conn)
    direction = np.array([0.6, 0.8])
    path = line_path([0.0, 0.0], direction)
    h = 1e-6
    plus = transport_matrix(law, path, 0.0, h)
    minus = transport_matrix(law, path, 0.0, -h)
    deriv = (plus - minus) / (2 * h)
    expected = -np.einsum("ijk,k->ij", gamma, direction)
    assert np.abs(deriv - expected).max() < 1e-9


def test_parallel_transport_preserves_sphere_metric(sphere):
    line = worldline(sphere, 1)
    s, t = -0.4, 0.5
    u = np.array([0.3, 1.1])
    v = np.array([-0.8, 0.2])
    before = metric_dot(sphere.metric, line.map(s), u, v)
    mat = transport_matrix(sphere.law, line, s, t)
    lu = mat @ u
    lv = mat @ v
    after = metric_dot(sphere.metric, line.map(t), lu, lv)
    assert abs(after - before) < 1e-9


def test_law_with_offset_reduces_to_parallel():
    conn = sphere_connection()
    law0 = law_from_connection(conn)
    law = law_with_offset(conn, lambda pt: np.zeros((2, 2, 2)))
    path = line_path([1.0, 0.3], [0.2, 1.0])
    assert np.array_equal(law.coefficients(0.1, path),
                          law0.coefficients(0.1, path))


def test_law_with_offset_matrix_exponential_oracle():
    # flat chart, constant sigma: the transport over a coordinate-line gap
    # equals expm(-(sigma contracted with the tangent) * gap)
    sigma = np.zeros((2, 2, 2))
    sigma[0, 1, 1] = 0.4
    sigma[1, 0, 0] = -0.3
    law = law_with_offset(zero_connection(), lambda pt: sigma)
    direction = np.array([1.0, 0.8])
    path = line_path([0.0, 0.0], direction)
    gap = 0.7
    mat = transport_matrix(law, path, 0.0, gap)
    gen = -np.einsum("ijk,k->ij", sigma, direction)
    assert np.abs(mat - expm(gen * gap)).max() < 1e-9


def test_s_tensor_parallel_law_vanishes(sphere):
    line = worldline(sphere, 1)
    s = s_tensor(sphere.law, sphere.conn, line, 0.2)
    assert np.all(s == 0.0)


def test_s_tensor_offset_round_trip():
    conn = sphere_connection()
    sigma = np.zeros((2, 2, 2))
    sigma[0, 1, 1] = 0.25
    law = law_with_offset(conn, lambda pt: sigma)
    path = line_path([1.1, 0.0], [0.0, 1.0])
    s = s_tensor(law, conn, path, 0.4)
    assert np.abs(s - sigma).max() < 1e-12


def test_s_tensor_exp_law(exp_transport):
    # with a zero connection, S = -H
    line = worldline(exp_transport, 1)
    gen = exp_law_generator({"a00": 0.1, "a01": 0.4, "a10": -0.3, "a11": 0.2})
    s = s_tensor(exp_transport.law, exp_transport.conn, line, 0.1)
    expected = np.zeros((2, 2, 2))
    expected[:, :, 0] = -gen
    assert np.abs(s - expected).max() < 1e-12


def test_extract_first_coeff_parallel_matches_gamma():
    conn = sphere_connection()
    law = law_from_connection(conn)
    pt = ChartPoint([1.2, 0.5])
    coeff = extract_first_coeff(law, pt, coordinate_probes(pt))
    assert np.abs(coeff + conn.coefficients(pt)).max() < 1e-6


def test_extract_first_coeff_offset():
    conn = sphere_connection()
    sigma = np.zeros((2, 2, 2))
    sigma[0, 1, 1] = 0.3
    sigma[1, 0, 1] = -0.15
    law = law_with_offset(conn, lambda pt: sigma)
    pt = ChartPoint([1.0, -0.2])
    coeff = extract_first_coeff(law, pt, coordinate_probes(pt))
    assert np.abs(coeff + conn.coefficients(pt) + sigma).max() < 1e-6


def test_extract_first_coeff_exp_law(exp_transport):
    # oracle: the closed form H(t,s) = expm(A (x^0(t)-x^0(s))) differentiates
    # to H_k = A delta_{k0}
    pt = ChartPoint([0.15, 0.1])
    gen = exp_law_generator({"a00": 0.1, "a01": 0.4, "a10": -0.3, "a11": 0.2})
    coeff = extract_first_coeff(exp_transport.law, pt, coordinate_probes(pt))
    expected = np.zeros((2, 2, 2))
    expected[:, :, 0] = gen
    assert np.abs(coeff - expected).max() < 1e-6


def test_extract_first_coeff_rank_deficient(sphere):
    pt = ChartPoint([1.0, 0.0])
    probes = coordinate_probes(pt)
    with pytest.raises(EvaluationError):
        extract_first_coeff(sphere.law, pt, [probes[0], probes[0]])


def test_approx_transport_order_zero_is_identity(sphere):
    line = worldline(sphere, 1)
    mat = approx_transport(sphere.law, line, -0.2, 0.4, 0)
    assert np.array_equal(mat, np.eye(2))


def test_approx_transport_first_order_constant_gamma():
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 0] = 0.5
    conn = constant_connection(gamma)
    law = law_from_connection(conn)
    direction = np.array([1.0, 0.0])
    path = line_path([0.0, 0.0], direction)
    gap = 0.3
    mat = approx_transport(law, path, 0.0, gap, 1)
    expected = np.eye(2) - np.einsum("ijk,k->ij", gamma, direction) * gap
    assert np.abs(mat - expected).max() < 1e-14


def test_approx_transport_error_halving(exp_transport):
    line = worldline(exp_transport, 1)
    s0 = 0.0
    for order, band in ((0, (1.8, 2.2)), (1, (3.5, 4.5))):
        errs = []
        for gap in (0.1, 0.05, 0.025):
            full = transport_matrix(exp_transport.law, line, s0, s0 + gap)
            approx = approx_transport(exp_transport.law, line, s0, s0 + gap,
                                      order)
            errs.append(np.abs(full - approx).max())
        for big, small in zip(errs, errs[1:]):
            assert band[0] <= big / small <= band[1]


def test_approx_transport_rejects_higher_orders(sphere):
    line = worldline(sphere, 1)
    with pytest.raises(ValueError):
        approx_transport(sphere.law, line, 0.0, 0.1, 2)


def test_determinant_liouville_bound(sphere):
    # det H(t,s) = exp(int tr M); |tr M| is bounded by the nuclear norm,
    # giving the sanity window [exp(-int ||M||), exp(+int ||M||)]
    line = worldline(sphere, 1)
    s, t = -0.4, 0.5
    mat = transport_matrix(sphere.law, line, s, t)
    det = np.linalg.det(mat)
    us = np.linspace(s, t, 201)
    norms = []
    for u in us:
        coeff = sphere.law.coefficients(u, line)
        m = np.einsum("ijk,k->ij", coeff, line.tangent(u))
        norms.append(np.linalg.svd(m, compute_uv=False).sum())
    bound = np.trapezoid(norms, us)
    assert math.exp(-bound) <= det <= math.exp(bound)

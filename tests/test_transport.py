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
from geodev.kinematics import connecting_path, worldline
from geodev.scenarios import (LINEAR_DRIFT_MASSES, ScenarioSpec, build,
                              exp_law_generator, family_names)
from geodev.transport import (DEFAULT_ODE_CONFIG, MIN_REL_TOL, OdeConfig, TransportLaw,
                              law_from_connection, law_with_offset,
                              pullback_integral, s_tensor, transport_components,
                              transport_matrix)

from conftest import point_law, stacked_gamma
from oracles import approx_transport, coordinate_probes, extract_first_coeff
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
    # each generator read of a parallel transport is one PathCurve.points and
    # one TransportLaw.coefficients call, and costs one jets call and one
    # ChartPoint (for this connection's Gamma, stated at a point) per node;
    # no node is read twice,
    # and transport_matrix reads the start point once more for the dimension
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
    monkeypatch.setattr(PathCurve, "points", counted("points", PathCurve.points))
    calls = record_rhs_calls(monkeypatch)
    path = PathCurve(counted("jets", lambda t: (np.array([0.8, t]),
                                                np.array([0.0, 1.0]))),
                     (0.0, 2.0 * math.pi))
    transport_matrix(law_from_connection(sphere_connection()), path, 0.0, 2.0 * math.pi)
    nodes, (attempts, rest) = len(calls), divmod(len(calls) - 2, 11)
    assert rest == 0 and nodes > 50 and len({u for u, _ in calls}) == nodes
    assert counts == {"jets": nodes + 1, "ChartPoint": nodes + 1,
                      "coefficients": 2 + attempts, "points": 2 + attempts}


@pytest.mark.parametrize("d", [2, 4])
def test_non_finite_values_met_inside_a_solve_are_named(d):
    # NaN, +inf and -inf at each entry of H, of the path velocity and of the
    # path coordinates, from their third evaluation in a transport_matrix
    # solve on, raise the EvaluationError of the check that meets them, and
    # the solve reads nothing past that generator read: the path's third
    # jets call is the start's second read at u + h0 (the first was
    # transport_matrix's map(s)), Gamma's third is in the first step's read
    # of 11 nodes; d = 4 gives H 64 entries, so both sizes of finiteness
    # test are met
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

        law = law_from_connection(ConnectionField(stacked_gamma(
            lambda pt: value("gamma", gamma))))
        path = PathCurve(lambda u: (value("coords", start + u * direction),
                                    value("velocity", direction)), (0.0, 1.0))
        try:
            transport_matrix(law, path, 0.0, 1.0)
        finally:
            assert seen[spoilt] == {"gamma": 13, "velocity": 3, "coords": 3}[spoilt]

    for spoilt, (shape, message) in checks.items():
        for index in np.ndindex(shape):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(EvaluationError, match=message):
                    solve(spoilt, index, bad)


def test_pullback_along_a_shared_path_is_safe_across_threads(monkeypatch):
    # more threads than cores solve along one connecting path to different
    # endpoints.  The law and the path yield the GIL inside every evaluation,
    # so other threads run while a memo entry is being computed, and the
    # surface memo is bounded at 8 entries here, so it is emptied and
    # refilled under the readers; every thread must still get the serial
    # result, and no error
    monkeypatch.setattr(geodev.geometry, "MEMO_SIZE", 8)
    sc = build(ScenarioSpec("offset-transport", LINEAR_DRIFT_MASSES))
    surf, s, r1 = sc.surface, sc.s_eval, sc.surface.r_base

    def yielding(value):
        time.sleep(0)
        return value

    law = TransportLaw(lambda us, path, coords: yielding(sc.law.coeffs_at(us, path, coords)))
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
    return point_law(lambda u, path: 5.0 * math.exp(-((u - 0.3) / 0.1) ** 2) * gen)


X_AXIS = line_path([0.0, 0.0], [1.0, 0.0])
REJECTING = OdeConfig(rel_tol=1e-6, abs_tol=1e-8)


def record_rhs_calls(monkeypatch) -> list:
    """Wrap ``transport._integrate`` so that every later solve appends the
    parameter and ``M(u)`` of each generator value to the returned list, in
    node order: one per node of a generator read (a DOP853 start's node, a
    DOP853 step's 11 stage nodes, a Magnus attempt's Gauss nodes)."""
    calls, integrate = [], transport._integrate

    def recording(law, path, generator, *args):
        def recorded(us, m, xdot):
            calls.extend(zip(us, m))
            return generator(us, m, xdot)
        return integrate(law, path, recorded, *args)

    monkeypatch.setattr(transport, "_integrate", recording)
    return calls


def test_step_budget_counts_attempted_steps(monkeypatch):
    # 2 generator values pick the first step, then 11 per attempted DOP853
    # step; this solve rejects steps (test_stepper_matches_scipy_rk45), and
    # they count too
    calls = record_rhs_calls(monkeypatch)
    law = bump_law()
    free = transport_matrix(law, X_AXIS, 0.9, 0.02, REJECTING)
    attempts, rest = divmod(len(calls) - 2, 11)
    assert rest == 0 and attempts > 10
    exact = replace(REJECTING, max_steps=attempts)
    assert np.array_equal(transport_matrix(law, X_AXIS, 0.9, 0.02, exact), free)
    short = replace(REJECTING, max_steps=attempts - 1)
    with pytest.raises(TransportError, match=f"exceeded {attempts - 1} steps"):
        transport_matrix(law, X_AXIS, 0.9, 0.02, short)


def test_one_generator_per_rhs_parameter(monkeypatch):
    # DOP853's stage 12 (c = 1) and the FSAL stage share u + h, and so one
    # node of the step's generator read: a law stated at one parameter is
    # read once per node, and no node twice
    sphere_law, coeff_calls = build(ScenarioSpec("sphere")).law, []

    def coeff_at(u, path):
        coeff_calls.append(u)
        return point_coefficients(sphere_law, u, path)

    calls = record_rhs_calls(monkeypatch)
    transport_matrix(point_law(coeff_at), _latitude_path(math.pi / 4),
                     0.0, 2.0 * math.pi)
    attempts, rest = divmod(len(calls) - 2, 11)
    assert rest == 0
    assert coeff_calls == [u for u, _ in calls]
    assert len(coeff_calls) == len(set(coeff_calls)) == 2 + 11 * attempts
    assert attempts > 10


def test_holonomy_rhs_calls(monkeypatch):
    # the sphere's latitude holonomy with DOP853 at the default tolerances:
    # 2 + 11 generator values per attempted step (22 / 16 / 6 steps); these
    # counts pin the pair's gain, as RK 5(4) needs 1,196 / 854 / 212 RHS
    # calls; work_counts' generator_evals counts the same values
    calls = record_rhs_calls(monkeypatch)
    law = build(ScenarioSpec("sphere")).law
    counts = []
    for theta0 in (0.15, math.pi / 4, 1.4):
        calls.clear()
        with transport.work_counts() as work:
            transport_matrix(law, _latitude_path(theta0), 0.0, 2.0 * math.pi)
        assert work["generator_evals"] == len(calls)
        counts.append(len(calls))
    assert counts == [244, 178, 68]


def test_dop853_coefficients_match_scipy():
    tab = transport._DOP853
    assert len(tab.c) == len(tab.a) == len(tab.b) == dop853.N_STAGES == 12
    np.testing.assert_array_equal(tab.c, dop853.C[:12])
    for i, row in enumerate(tab.a):
        np.testing.assert_array_equal(row, dop853.A[i, :i])
    np.testing.assert_array_equal(tab.b, dop853.B)
    np.testing.assert_array_equal(tab.e3, dop853.E3)
    np.testing.assert_array_equal(tab.e5, dop853.E5)
    assert tab.order == 7


def point_coefficients(law: TransportLaw, u: float, path: PathCurve) -> np.ndarray:
    """The law's checked H at one parameter: its read of a stack of one node."""
    return law.coefficients([u], path, path.map(u).coords[None])[0]


SCIPY_METHODS = ((transport._DOP853, "DOP853"),)


def scipy_integrate(params: list, accepted: list, methods: list):
    """Stand-in for ``transport._integrate`` that solves the same ODE with
    ``solve_ivp`` and the method of the given stepper, recording each RHS
    parameter, the accepted steps and the method."""
    def integrate(law, path, generator, y0, s, ends, cfg, stepper):
        [t] = ends
        def fun(u, y):
            params.append(u)
            coeff, xdot = point_coefficients(law, u, path), path.tangent(u)
            [m] = generator([u], np.einsum("ijk,k->ij", coeff, xdot)[None], xdot[None])
            return (m @ y.reshape(m.shape[0], -1)).reshape(-1)
        [method] = [name for tab, name in SCIPY_METHODS if tab is stepper]
        sol = solve_ivp(fun, (s, t), y0, method=method, rtol=cfg.rel_tol,
                        atol=cfg.abs_tol)
        assert sol.success, sol.message
        accepted.append(len(sol.t) - 1)
        methods.append(method)
        return [sol.y[:, -1]]
    return integrate


def backward_worldline() -> np.ndarray:
    """One vector carried from s = 0.4 back to s = -0.3 along particle 1."""
    sc = build(ScenarioSpec("offset-transport"))
    return transport_components(sc.law, worldline(sc, 1), 0.4, -0.3,
                                np.array([0.3, -0.7]))


ORACLE_CASES = {  # each case: the solve, and the solve_ivp method it uses
    "latitude-holonomy": (lambda: transport_matrix(
        build(ScenarioSpec("sphere")).law, _latitude_path(math.pi / 4),
        0.0, 2.0 * math.pi), "DOP853"),
    "backward-worldline": (backward_worldline, "DOP853"),
    # rejects steps, caps the growth of steps accepted right after a
    # rejection, and its clipped last step has u + h != t in floating point
    "rejecting": (lambda: transport_matrix(
        bump_law(), X_AXIS, 0.9, 0.02, REJECTING), "DOP853"),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_stepper_matches_scipy_rk45(case, monkeypatch):
    # each case names the solve_ivp method of the pair its call site fixes:
    # DOP853 for transport_components (pullback_integral's Magnus pair has
    # its own oracle, test_magnus_pullback_matches_tight_dop853); our nodes
    # are the oracle's RHS parameters with each step's u + h, where its last
    # stage and its FSAL call both sit, taken once
    solve, method = ORACLE_CASES[case]
    oracle_params, accepted, methods = [], [], []
    calls = record_rhs_calls(monkeypatch)
    ours = solve()
    monkeypatch.setattr(transport, "_integrate",
                        scipy_integrate(oracle_params, accepted, methods))
    theirs = solve()
    assert methods == [method]
    np.testing.assert_array_equal(ours, theirs)
    assert (len(oracle_params) - 2) % 12 == 0
    assert all(oracle_params[i] == oracle_params[i + 1]
               for i in range(12, len(oracle_params), 12))
    assert [u for u, _ in calls] == [u for i, u in enumerate(oracle_params)
                                     if i < 2 or (i - 2) % 12 != 11]
    if case == "rejecting":
        [steps] = accepted
        assert (len(oracle_params) - 2) // 12 > steps


def expm_generators():
    """(kind, generator) pairs of 1-norm 1e-3 to 30: rotations, nilpotent
    and zero generators, and 5 x 5 blocks shaped as a 4-d pull-back's G."""
    rng = np.random.default_rng(7)
    block = np.zeros((5, 5))
    block[:4, :4], block[4, :4] = -rng.normal(size=(4, 4)).T, rng.normal(size=4)
    kinds = {"rotation": np.array([[0.0, 1.0], [-1.0, 0.0]]),
             "nilpotent": np.triu(rng.normal(size=(4, 4)), 1), "block": block}
    for norm in np.geomspace(1e-3, 30.0, 13):
        for kind, gen in kinds.items():
            yield kind, gen * norm / np.abs(gen).sum(axis=0).max()


def test_expm_matches_scipy():
    # norms above 0.54 take the scaling and squaring branch (7 squarings at
    # the top); a rotation's reference is its closed form, since SciPy's
    # expm is itself 1.9e-13 off it at angle 30
    assert np.array_equal(transport._expm(np.zeros((3, 3))), np.eye(3))
    for kind, gen in expm_generators():
        if kind == "rotation":
            c, s = math.cos(gen[0, 1]), math.sin(gen[0, 1])
            ref = np.array([[c, s], [-s, c]])
        else:
            ref = expm(gen)
        got = transport._expm(gen)
        assert np.abs(got - ref).sum(axis=0).max() <= 1e-13 * np.abs(ref).sum(axis=0).max()


def test_stacked_expm_equals_each_matrix_alone():
    # one stack of 5 x 5 blocks at Frobenius norms 1e-3 to 30, interleaved,
    # so its lanes take 0 to 7 squarings: each lane equals its 2-D exp
    blocks = [gen for kind, gen in expm_generators() if kind == "block"]
    stack = np.array(blocks[::2] + blocks[1::2])
    squarings = {max(0, math.ceil(math.log2(np.linalg.norm(a) / 0.54))) for a in stack}
    assert len(squarings) > 5
    for lane, gen in zip(transport._expm(stack), stack):
        assert np.array_equal(lane, transport._expm(gen))


def tight_pullback(law: TransportLaw, path: PathCurve, s: float, t: float):
    """``pullback_integral`` by ``solve_ivp``'s DOP853 at ``rtol`` 3e-14, on
    the flattened ``(Phi, h)`` of dPhi/du = -Phi M, dh/du = Phi xdot."""
    d = path.map(s).dimension

    def fun(u, y):
        phi = y[:d * d].reshape(d, d)
        m = point_coefficients(law, u, path) @ path.tangent(u)
        return np.concatenate(((-phi @ m).reshape(-1), phi @ path.tangent(u)))
    sol = solve_ivp(fun, (s, t), np.concatenate((np.eye(d).reshape(-1), np.zeros(d))),
                    method="DOP853", rtol=3e-14, atol=1e-16)
    assert sol.success, sol.message
    return sol.y[:d * d, -1].reshape(d, d), sol.y[d * d:, -1]


def pullback_cases():
    """(label, law, path, s, t, cfg): on each family's connecting path from
    r_base to eps 0.1 and to 96% of the r-domain on each side, and across
    the bump of ``bump_law``, where steps are rejected."""
    for name in family_names():
        sc = build(ScenarioSpec(name))
        path, r1 = connecting_path(sc, sc.s_eval), sc.surface.r_base
        lo, hi = sc.surface.r_domain
        for label, t in (("eps", r1 + 0.1), ("high", r1 + 0.96 * (hi - r1)),
                         ("low", r1 - 0.96 * (r1 - lo))):
            yield f"{name}-{label}", sc.law, path, r1, t, DEFAULT_ODE_CONFIG
    yield "bump", bump_law(), X_AXIS, 0.9, 0.02, REJECTING


def magnus_steps(calls: list) -> tuple:
    """Attempted and rejected Magnus steps from the generator calls of one
    solve: each attempt evaluates 3 Gauss nodes, and a rejected attempt is
    retried from the same u."""
    c = transport._Magnus.c
    us = [u for u, _ in calls]
    starts = [a - c[0] * (b - a) / (c[2] - c[0]) for a, b in zip(us[0::3], us[2::3])]
    return len(starts), sum(math.isclose(a, b, rel_tol=0.0, abs_tol=1e-12)
                            for a, b in zip(starts, starts[1:]))


@pytest.mark.parametrize("case", list(pullback_cases()), ids=lambda case: case[0])
def test_magnus_pullback_matches_tight_dop853(case, monkeypatch):
    label, law, path, s, t, cfg = case
    calls = record_rhs_calls(monkeypatch)
    ours = pullback_integral(law, path, s, t, cfg)
    assert len(calls) % 3 == 0
    if label == "bump":
        attempts, rejected = magnus_steps(calls)
        assert attempts > 10 and rejected > 0
    for got, ref in zip(ours, tight_pullback(law, path, s, t)):
        assert np.all(np.abs(got - ref) <= 10 * cfg.rel_tol * np.maximum(1.0, np.abs(ref)))


def ladder_lanes():
    """(label, law, path, s, ends, cfg): each family's connecting path from
    r_base to the end of every separation of ``DEFAULT_LADDER``, and lanes
    across the bump of ``bump_law``, where steps are rejected."""
    for name in family_names():
        sc = build(ScenarioSpec(name))
        r1 = sc.surface.r_base
        yield (name, sc.law, connecting_path(sc, sc.s_eval), r1,
               [r1 + eps for eps in DEFAULT_LADDER], DEFAULT_ODE_CONFIG)
    yield ("bump", bump_law(), X_AXIS, 0.9, [0.9 - 8.8 * eps for eps in DEFAULT_LADDER],
           REJECTING)


@pytest.mark.parametrize("case", list(ladder_lanes()), ids=lambda case: case[0])
def test_stacked_pullbacks_equal_one_lane_solves(case):
    # the lanes of one stacked solve equal the per-endpoint solves bit for
    # bit; exp-transport's and the bump's lanes take further steps after
    # their stacked first attempt
    label, law, path, s, ends, cfg = case
    with transport.work_counts() as counts:
        stacked = transport._pullbacks(law, path, s, ends, cfg)
    assert counts["solves"] == len(ends)
    assert (counts["continued_lanes"] > 0) == (label in ("exp-transport", "bump"))
    for t, lane in zip(ends, zip(*stacked)):
        alone = pullback_integral(law, path, s, t, cfg)
        assert all(map(np.array_equal, lane, alone))


def test_work_counts_are_context_local():
    # a block counts the solves of its own context inside it, and a
    # thread's solves run in another context
    sc = build(ScenarioSpec("offset-transport"))
    path, r1 = connecting_path(sc, sc.s_eval), sc.surface.r_base
    pullback_integral(sc.law, path, r1, r1 + 0.1)
    with transport.work_counts() as counts:
        pullback_integral(sc.law, path, r1, r1 + 0.05)
        thread = threading.Thread(target=pullback_integral,
                                  args=(sc.law, path, r1, r1 + 0.02))
        thread.start()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert dict(counts) == {"solves": 1, "generator_evals": 3, "stacked_attempts": 1,
                            "attempted_steps": 1, "continued_lanes": 0,
                            "surface_stacks": 1, "surface_stack_points": 3}


def test_magnus_step_budget_counts_attempted_steps(monkeypatch):
    # 3 generator values per attempted Magnus step and none to pick the
    # first; this solve rejects steps (test_magnus_pullback_matches_tight_
    # dop853), and they count too, in the budget and in work_counts
    calls = record_rhs_calls(monkeypatch)
    law = bump_law()
    with transport.work_counts() as work:
        free = pullback_integral(law, X_AXIS, 0.9, 0.02, REJECTING)
    attempts, rest = divmod(len(calls), 3)
    assert rest == 0 and attempts > 10
    assert work == {"solves": 1, "generator_evals": len(calls), "continued_lanes": 1,
                    "stacked_attempts": attempts, "attempted_steps": attempts}
    exact = replace(REJECTING, max_steps=attempts)
    got = pullback_integral(law, X_AXIS, 0.9, 0.02, exact)
    assert all(map(np.array_equal, got, free))
    short = replace(REJECTING, max_steps=attempts - 1)
    with pytest.raises(TransportError, match=f"exceeded {attempts - 1} steps"):
        pullback_integral(law, X_AXIS, 0.9, 0.02, short)


def test_non_finite_initial_state_error(sphere):
    with pytest.raises(EvaluationError, match="non-finite initial transport state"):
        transport_components(sphere.law, worldline(sphere, 1), 0.0, 0.2,
                             [math.nan, 1.0])


def test_non_finite_coefficients_error():
    law = point_law(lambda s, path: np.full((2, 2, 2), np.nan))
    path = line_path([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(EvaluationError):
        transport_matrix(law, path, 0.0, 0.5)


@pytest.mark.parametrize("make_law", [
    law_from_connection,
    lambda conn: law_with_offset(conn, np.zeros((2, 2, 2)))],
    ids=["parallel", "offset"])
def test_connection_laws_leave_the_check_to_the_law(make_law, monkeypatch):
    # the laws read Gamma unchecked; TransportLaw.coefficients checks H once,
    # so a Gamma that turns non-finite inside a solve is named by the law
    def gamma_at(pt):
        return np.full((2, 2, 2), np.nan if pt.coords[0] > 0.3 else 0.0)

    law = make_law(ConnectionField(gamma_at=stacked_gamma(gamma_at)))
    monkeypatch.setattr(ConnectionField, "coefficients",
                        lambda self, point: pytest.fail("Gamma checked twice"))
    path = line_path([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(EvaluationError, match="non-finite transport coefficients"):
        transport_matrix(law, path, 0.0, 0.5)


@pytest.mark.parametrize("shape", [(3, 3, 3), (2, 2), (2, 2, 3)])
def test_coefficients_must_be_a_cube_of_the_path_dimension(shape):
    # a cube of the wrong side used to reach the RHS einsum and fail there
    law = point_law(lambda s, path: np.zeros(shape))
    path = line_path([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(EvaluationError, match=r"expected \(2, 2, 2\)"):
        transport_matrix(law, path, 0.0, 0.5)


def test_parallel_law_zero_connection():
    law = law_from_connection(zero_connection())
    path = line_path([0.0, 0.0], [1.0, 0.0])
    assert np.all(point_coefficients(law, 0.3, path) == 0.0)


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
    law = law_with_offset(conn, np.zeros((2, 2, 2)))
    path = line_path([1.0, 0.3], [0.2, 1.0])
    assert np.array_equal(point_coefficients(law, 0.1, path),
                          point_coefficients(law0, 0.1, path))


def test_law_with_offset_matrix_exponential_oracle():
    # flat chart, constant sigma: the transport over a coordinate-line gap
    # equals expm(-(sigma contracted with the tangent) * gap)
    sigma = np.zeros((2, 2, 2))
    sigma[0, 1, 1] = 0.4
    sigma[1, 0, 0] = -0.3
    law = law_with_offset(zero_connection(), sigma)
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
    law = law_with_offset(conn, sigma)
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
    law = law_with_offset(conn, sigma)
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
        coeff = point_coefficients(sphere.law, u, line)
        m = np.einsum("ijk,k->ij", coeff, line.tangent(u))
        norms.append(np.linalg.svd(m, compute_uv=False).sum())
    bound = np.trapezoid(norms, us)
    assert math.exp(-bound) <= det <= math.exp(bound)

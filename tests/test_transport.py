import math
import os
import sys
import threading
import time
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import geodev.geometry
import geodev.transport as transport
from geodev.cli import _latitude_path
from geodev.errors import EvaluationError, TransportError
from geodev.geometry import ChartPoint, ConnectionField, PathCurve, metric_dot
from geodev.equations import DEFAULT_LADDER, EquationId, equation_info
from geodev.kinematics import connecting_path, worldline
from geodev.scenarios import (LINEAR_DRIFT_MASSES, ScenarioSpec, build,
                              exp_law_generator, family_names)
from geodev.transport import (DEFAULT_ODE_CONFIG, MIN_REL_TOL, OdeConfig, TransportLaw,
                              law_from_connection, law_with_offset,
                              s_tensor, transport_components,
                              transport_matrix)

from conftest import one_pullback, point_law, point_path, stacked
from oracles import approx_transport, coordinate_probes, extract_first_coeff, scipy_transport
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
    # each generator read of a parallel transport is one read_points and
    # one TransportLaw.coefficients call, and costs one jets call and one
    # ChartPoint (for this connection's Gamma, stated at a point) per node;
    # no node is read twice; the start is read once more, for the dimension
    # and the law's check at s (one of each, read_points through
    # PathCurve.points).  The path crosses latitudes, so the generator
    # varies and the Magnus pair takes many steps
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
    for module in (geodev.geometry, transport):
        monkeypatch.setattr(module, "read_points", counted("read_points", module.read_points))
    calls = record_rhs_calls(monkeypatch)
    path = point_path(counted("jets", lambda t: (np.array([0.8 + 0.1 * t, t]),
                                                 np.array([0.1, 1.0]))),
                      (0.0, 2.0 * math.pi))
    transport_matrix(law_from_connection(sphere_connection()), path, 0.0, 2.0 * math.pi)
    nodes, (attempts, rest) = len(calls), divmod(len(calls), 3)
    assert rest == 0 and attempts > 10 and len({u for u, _ in calls}) == nodes
    assert counts == {"jets": nodes + 1, "ChartPoint": nodes + 1,
                      "coefficients": 1 + attempts, "read_points": 1 + attempts}


@pytest.mark.parametrize("d", [2, 4])
def test_non_finite_values_met_inside_a_solve_are_named(d):
    # NaN, +inf and -inf at each entry of H, of the path velocity and of the
    # path coordinates, from their third evaluation in a transport_matrix
    # solve on, raise the EvaluationError of the check that meets them, and
    # the solve reads nothing past that generator read: the path's third
    # jets call and Gamma's third are the second Gauss node of the first
    # Magnus attempt's read of 3 (the first of each was the start's read,
    # for the dimension and the law's check at s); d = 4 gives H 64
    # entries, so both sizes of finiteness test are met
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

        law = law_from_connection(ConnectionField(stacked(
            lambda pt: value("gamma", gamma)), stacked(lambda pt: np.zeros((d,) * 4))))
        path = point_path(lambda u: (value("coords", start + u * direction),
                                     value("velocity", direction)), (0.0, 1.0))
        try:
            transport_matrix(law, path, 0.0, 1.0)
        finally:
            assert seen[spoilt] == 4

    for spoilt, (shape, message) in checks.items():
        for index in np.ndindex(shape):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(EvaluationError, match=message):
                    solve(spoilt, index, bad)


def test_pullback_along_a_shared_path_is_safe_across_threads():
    # more threads than cores solve along one connecting path to different
    # endpoints.  The law and the path yield the GIL inside every evaluation,
    # so other threads run while one is computing a value; every thread must
    # still get the serial result, and no error
    sc = build(ScenarioSpec("offset-transport", LINEAR_DRIFT_MASSES))
    surf, s, r1 = sc.surface, sc.s_eval, sc.surface.r_base

    def yielding(value):
        time.sleep(0)
        return value

    law = TransportLaw(lambda us, path, coords: yielding(sc.law.coeffs_at(us, path, coords)))
    ends = [r1 + eps for eps in DEFAULT_LADDER]
    serial = {t: one_pullback(sc.law, connecting_path(sc, s), r1, t)
              for t in ends}
    shared = point_path(lambda r: yielding((surf.map(s, r), surf.d_r(s, r))), surf.r_domain)
    errors = []

    def work(offset):
        try:
            for k in range(2 * len(ends)):
                t = ends[(offset + k) % len(ends)]
                got = one_pullback(law, shared, r1, t)
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


def bump_law() -> TransportLaw:
    """A rotation generator switched on by a Gaussian bump at u = 0.3: the
    steps grow on the flat part and are rejected at the bump."""
    gen = np.zeros((2, 2, 2))
    gen[0, 1, 0], gen[1, 0, 0] = 1.0, -1.0
    return point_law(lambda u, path: 5.0 * math.exp(-((u - 0.3) / 0.1) ** 2) * gen)


X_AXIS = line_path([0.0, 0.0], [1.0, 0.0])
REJECTING = OdeConfig(rel_tol=1e-6, abs_tol=1e-8)


def test_step_budget_exhaustion():
    # the bump's generator varies, so its first attempt, the whole interval,
    # is rejected and a second one exceeds the budget of 1
    tiny = OdeConfig(rel_tol=1e-13, abs_tol=1e-14, max_steps=1)
    with pytest.raises(TransportError, match="exceeded 1 steps"):
        transport_matrix(bump_law(), X_AXIS, 0.9, 0.02, tiny)


def record_rhs_calls(monkeypatch) -> list:
    """Wrap ``transport._integrate`` so that every later solve appends the
    parameter and ``M(u)`` of each generator value to the returned list, in
    node order: one per Gauss node of a Magnus attempt's read."""
    calls, integrate = [], transport._integrate

    def recording(law, path, generator, *args):
        def recorded(us, m, xdot):
            calls.extend(zip(us, m))
            return generator(us, m, xdot)
        return integrate(law, path, recorded, *args)

    monkeypatch.setattr(transport, "_integrate", recording)
    return calls


def test_step_budget_counts_attempted_steps(monkeypatch):
    # 3 generator values per attempted Magnus step of transport_matrix, and
    # none to pick the first; this solve rejects steps
    # (test_stepper_matches_scipy_rk45), and they count too, in the budget
    # and in work_counts
    calls = record_rhs_calls(monkeypatch)
    law = bump_law()
    with transport.work_counts() as work:
        free = transport_matrix(law, X_AXIS, 0.9, 0.02, REJECTING)
    attempts, rest = divmod(len(calls), 3)
    assert rest == 0 and attempts > 10
    assert work == {"solves": 1, "generator_evals": len(calls), "continued_lanes": 1,
                    "stacked_attempts": attempts, "attempted_steps": attempts}
    exact = replace(REJECTING, max_steps=attempts)
    assert np.array_equal(transport_matrix(law, X_AXIS, 0.9, 0.02, exact), free)
    short = replace(REJECTING, max_steps=attempts - 1)
    with pytest.raises(TransportError, match=f"exceeded {attempts - 1} steps"):
        transport_matrix(law, X_AXIS, 0.9, 0.02, short)


def test_one_generator_per_rhs_parameter(monkeypatch):
    # a law stated at one parameter is read once at the start, as the
    # check, and then once per Gauss node of each attempt, retries from the
    # same u included, and no node twice
    coeff_calls, bump = [], bump_law()

    def coeff_at(u, path):
        coeff_calls.append(u)
        return bump.coeffs_at([u], path, None)[0]

    calls = record_rhs_calls(monkeypatch)
    transport_matrix(point_law(coeff_at), X_AXIS, 0.9, 0.02, REJECTING)
    attempts, rest = divmod(len(calls), 3)
    assert rest == 0 and attempts > 10
    assert coeff_calls == [0.9] + [u for u, _ in calls]
    assert len(coeff_calls) == len(set(coeff_calls)) == 1 + 3 * attempts


def test_holonomy_rhs_calls(monkeypatch):
    # along a latitude the sphere's generator is constant, so the Magnus
    # pair, exact for a constant generator, takes its whole first attempt:
    # 3 generator values per holonomy (DOP853 took 244 / 178 / 68 and RK
    # 5(4) 1,196 / 854 / 212 RHS calls), and the holonomy is the closed-form
    # rotation by 2 pi cos(theta0) to 1e-12; work_counts' generator_evals
    # counts the same values
    calls = record_rhs_calls(monkeypatch)
    law = build(ScenarioSpec("sphere")).law
    counts = []
    for theta0 in (0.15, math.pi / 4, 1.4):
        calls.clear()
        with transport.work_counts() as work:
            got = transport_matrix(law, _latitude_path(theta0), 0.0, 2.0 * math.pi)
        assert work["generator_evals"] == len(calls)
        counts.append(len(calls))
        alpha, sin = 2.0 * math.pi * math.cos(theta0), math.sin(theta0)
        closed = np.array([[math.cos(alpha), math.sin(alpha) * sin],
                           [-math.sin(alpha) / sin, math.cos(alpha)]])
        assert np.abs(got - closed).max() < 1e-12
    assert counts == [3, 3, 3]


def point_coefficients(law: TransportLaw, u: float, path: PathCurve) -> np.ndarray:
    """The law's checked H at one parameter: its read of a stack of one node."""
    return law.coefficients([u], path, path.map(u).coords[None])[0]


def oracle_cases():
    """case: (law, path, s, t, components, cfg, check of the (attempted,
    rejected) Magnus steps) of a transport_components solve: the latitude
    holonomy, whose constant generator takes one step; one vector carried
    back along particle 1 of offset-transport, whose generator varies; and
    the bump, which rejects steps, caps the growth of steps accepted right
    after a rejection, and whose clipped last step has u + h != t in
    floating point."""
    offset = build(ScenarioSpec("offset-transport"))
    return {
        "latitude-holonomy": (build(ScenarioSpec("sphere")).law, _latitude_path(math.pi / 4),
                              0.0, 2.0 * math.pi, np.eye(2), DEFAULT_ODE_CONFIG,
                              lambda steps: steps == (1, 0)),
        "backward-worldline": (offset.law, worldline(offset, 1), 0.4, -0.3,
                               np.array([0.3, -0.7]), DEFAULT_ODE_CONFIG,
                               lambda steps: steps[0] > 10),
        "rejecting": (bump_law(), X_AXIS, 0.9, 0.02, np.eye(2), REJECTING,
                      lambda steps: steps[0] > 10 and steps[1] > 0),
    }


@pytest.mark.parametrize("case", ["latitude-holonomy", "backward-worldline", "rejecting"])
def test_stepper_matches_scipy_rk45(case, monkeypatch):
    # transport_components against the SciPy oracle (DOP853 at rtol 3e-14,
    # tests/oracles.py), within rel_tol of max(1, |entry|) at each entry (the
    # worst case, the bump, reads 0.16 rel_tol), stepping as oracle_cases says
    law, path, s, t, components, cfg, stepped = oracle_cases()[case]
    calls = record_rhs_calls(monkeypatch)
    ours = transport_components(law, path, s, t, components, cfg)
    ref = scipy_transport(law, path, s, t, components)
    assert ours.shape == ref.shape == np.shape(components)
    assert np.all(np.abs(ours - ref) <= cfg.rel_tol * np.maximum(1.0, np.abs(ref)))
    assert stepped(magnus_steps(calls))


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


def test_expm_squares_each_lane_its_own_count():
    # one stack of pull-back-shaped lanes that need 0, 1 and 7 squarings,
    # and a zero lane: each lane is its matrix alone and the Pade
    # approximant at a / 2^s squared s = ceil(log2(|a|_F / 0.54)) times, bit
    # for bit, and SciPy's expm within 1e-13 relative; the zero lane makes
    # no log2(0) and no warning at all
    block = [gen for kind, gen in expm_generators() if kind == "block"][-1]
    stack = np.array([block * norm / np.linalg.norm(block) for norm in (0.3, 0.8, 50.0)]
                     + [np.zeros((5, 5))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = transport._expm(stack)
    norms = [math.sqrt(np.vdot(a, a)) for a in stack]
    squarings = [math.ceil(math.log2(n / 0.54)) if n > 0.54 else 0 for n in norms]
    assert squarings == [0, 1, 7, 0]
    for lane, a, s in zip(got, stack, squarings):
        assert np.array_equal(lane, transport._expm(a))
        e = transport._expm(a / 2.0 ** s)
        for _ in range(s):
            e = e @ e
        assert np.array_equal(lane, e)
        ref = expm(a)
        assert np.linalg.norm(lane - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("shape", [(2000, 3, 3), (500, 5, 5), (300, 9, 9), (500, 3, 2),
                                   (400, 10), (1, 4, 4)])
def test_stacked_squared_norms_equal_vdot(shape, rng):
    # the Magnus lanes' norms and errors are taken as one stacked matmul of
    # the flattened rows: each lane bit for bit np.vdot (and np.dot) of it
    # with itself, also on a transposed view and at magnitudes 1e-3 to 1e3
    x = rng.normal(size=shape) * np.geomspace(1e-3, 1e3, shape[0]).reshape(-1, *[1] * (len(shape) - 1))
    for stack in (x, x.swapaxes(1, -1)):
        got = transport._squared_norms(stack).tolist()
        assert got == [np.vdot(a, a) for a in stack]
        assert got == [np.dot(a.ravel(), a.ravel()) for a in stack]


def tight_pullback(law: TransportLaw, path: PathCurve, s: float, t: float):
    """``one_pullback`` by ``solve_ivp``'s DOP853 at ``rtol`` 3e-14, on
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
    ours = one_pullback(law, path, s, t, cfg)
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
    d = path.map(s).dimension
    with transport.work_counts() as counts:
        stacked = [a[0] for a in transport._pullbacks(law, [path], d, s, ends, cfg)]
    assert counts["solves"] == len(ends)
    assert (counts["continued_lanes"] > 0) == (label in ("exp-transport", "bump"))
    for t, lane in zip(ends, zip(*stacked)):
        alone = one_pullback(law, path, s, t, cfg)
        assert all(map(np.array_equal, lane, alone))
    # the path among paths of other reads, its twin that reads it through
    # a read of its own and a path of 1.01 times its coordinates and
    # velocity: each run of paths of one read is read in one call, a
    # connecting path's in one surface call, and each lane is still its
    # solve alone
    twin = PathCurve(lambda keys, us: path.read(keys, us), path.key, path.domain)
    scaled = PathCurve(lambda keys, us: tuple(1.01 * x for x in path.read(keys, us)),
                       path.key, path.domain)
    mixed = [scaled, path, path, twin, scaled, path]
    with transport.work_counts() as counts:
        stacked = transport._pullbacks(law, mixed, d, s, ends, cfg)
    if label != "bump" and not counts["continued_lanes"]:
        assert (counts["surface_stacks"], counts["surface_stack_points"]) == (5, 18 * len(ends))
    for k, p in enumerate(mixed):
        for j, t in enumerate(ends):
            alone = one_pullback(law, p, s, t, cfg)
            assert all(np.array_equal(a[k, j], b) for a, b in zip(stacked, alone))


def path_stacks():
    """(label, law, paths, s, ends, cfg): each family's connecting paths at
    the s of E6_3's stencil, from r_base to the end of every separation of
    ``DEFAULT_LADDER``, also at a tight ``rel_tol`` on exp-transport, and two
    lines across the bump of ``bump_law``."""
    for name in family_names():
        sc = build(ScenarioSpec(name))
        r1 = sc.surface.r_base
        paths = [connecting_path(sc, u)
                 for u in equation_info(EquationId.E6_3).pullback_s(sc.s_eval)]
        ends = [r1 + eps for eps in DEFAULT_LADDER]
        yield name, sc.law, paths, r1, ends, DEFAULT_ODE_CONFIG
        if name == "exp-transport":
            yield "exp-transport-tight", sc.law, paths, r1, ends, OdeConfig(rel_tol=1e-12)
    yield ("bump", bump_law(), [X_AXIS, line_path([0.0, 0.0], [0.5, 1.0])], 0.9,
           [0.9 - 8.8 * eps for eps in DEFAULT_LADDER], REJECTING)


@pytest.mark.parametrize("case", list(path_stacks()), ids=lambda case: case[0])
def test_stacked_paths_equal_one_path_solves(case):
    # one solve along several paths, whose first attempt stacks the lanes of
    # all of them, equals the one-path solves and the one-lane solves bit for
    # bit; on exp-transport and across the bump some lanes fail their
    # stacked first attempt and go on stepping along their own path, one
    # attempt at a time, a retry from s included
    label, law, paths, s, ends, cfg = case
    d = paths[0].map(s).dimension
    with transport.work_counts() as counts:
        stacked = transport._pullbacks(law, paths, d, s, ends, cfg)
    assert len(paths) > 1 and stacked[0].shape[:2] == (len(paths), len(ends))
    lanes = len(paths) * len(ends)
    assert counts["solves"] == lanes
    assert 1 <= counts["stacked_attempts"] <= 1 + counts["attempted_steps"] - lanes
    continued = label.startswith(("exp-transport", "bump"))
    assert (0 < counts["continued_lanes"] < lanes) == continued
    for k, path in enumerate(paths):
        alone = transport._pullbacks(law, [path], d, s, ends, cfg)
        assert all(np.array_equal(a[k], b[0]) for a, b in zip(stacked, alone))
        for j, t in enumerate(ends):
            lane = one_pullback(law, path, s, t, cfg)
            assert all(np.array_equal(a[k, j], b) for a, b in zip(stacked, lane))


def first_attempt_cases():
    """(label, law, paths, s, ends, cfg): the 49 lanes of a deviation study
    on the sphere (the 7 paths of E2_13, E4_1 and E6_3 to the 7 ends of
    ``DEFAULT_LADDER``), each accepted on its first attempt, also with
    ``max_steps`` 1; the lanes
    across the bump of ``bump_law``, some first attempts rejected; and, on a
    constant generator, a lane from 0.9 to 0.001, where 0.9 + (0.001 - 0.9)
    rounds short of 0.001, beside one that ends where it aims."""
    sc = build(ScenarioSpec("sphere"))
    r1 = sc.surface.r_base
    stencil = dict.fromkeys(u for eq in (EquationId.E2_13, EquationId.E4_1, EquationId.E6_3)
                            for u in equation_info(eq).pullback_s(sc.s_eval))
    paths = [connecting_path(sc, u) for u in stencil]
    ends = [r1 + eps for eps in DEFAULT_LADDER]
    yield "deviation", sc.law, paths, r1, ends, DEFAULT_ODE_CONFIG
    yield "deviation-max-steps-1", sc.law, paths, r1, ends, OdeConfig(max_steps=1)
    yield ("bump", bump_law(), [X_AXIS], 0.9, [0.9 - 8.8 * eps for eps in DEFAULT_LADDER],
           REJECTING)
    rotation = bump_law().coeffs_at([0.3], X_AXIS, None)[0]
    yield "short", point_law(lambda u, path: rotation), [X_AXIS], 0.9, [0.001, 0.5], REJECTING


@pytest.mark.parametrize("case", list(first_attempt_cases()), ids=lambda case: case[0])
def test_lanes_from_the_stack_equal_their_step_loop(case, monkeypatch):
    # a lane whose stacked first attempt is accepted and reaches t takes it
    # as it is, with 1 attempt, where _solve would stop; every other lane
    # steps on in _solve: each lane equals _solve handed its first attempt,
    # y bit for bit and its attempts, and the work counts follow
    label, law, paths, s, ends, cfg = case
    attempts, solve = transport._Magnus.attempts, transport._solve
    stacks, solved = [], {}

    def recording_attempts(matrices, lanes, cfg):
        stacks.append((matrices, attempts(matrices, lanes, cfg)))
        return stacks[-1][1]

    def recording_solve(u, t, y, cfg, step, first):
        y_t, n = solve(u, t, y, cfg, step, first)
        solved[id(first)] = n
        return y_t, n

    monkeypatch.setattr(transport._Magnus, "attempts", recording_attempts)
    monkeypatch.setattr(transport, "_solve", recording_solve)
    y0 = np.eye(2)
    with transport.work_counts() as counts:
        got = transport._integrate(law, paths, lambda us, m, xdot: m, y0, s, ends, cfg)
    counted = dict(counts)
    monkeypatch.undo()
    matrices, firsts = stacks[0]
    lanes = [(first, solve(s, t, y0, cfg, lambda u, h, y, path=path: attempts(
                 matrices, [(path, u, [h], y)], cfg)[0], first))
             for (path, t), first in zip([(p, t) for p in paths for t in ends], firsts)]
    assert len(got) == len(lanes) == len(paths) * len(ends)
    for y, (first, (y_ref, n)) in zip(got, lanes):
        assert y.tobytes() == y_ref.tobytes()
        assert solved.get(id(first), 1) == n and (id(first) in solved) == (n > 1)
    n = [n for _, (_, n) in lanes]
    assert {key: counted[key] for key in ("solves", "attempted_steps", "continued_lanes",
                                          "stacked_attempts", "generator_evals")} == {
        "solves": len(n), "attempted_steps": sum(n), "continued_lanes": sum(k > 1 for k in n),
        "stacked_attempts": 1 + sum(n) - len(n), "generator_evals": 3 * sum(n)}
    assert {"deviation": n == [1] * 49, "deviation-max-steps-1": n == [1] * 49,
            "bump": 1 < max(n) and min(n) == 1, "short": n == [2, 1]}[label]
    if label == "short":  # its second attempt is past a budget of 1, stacked or not
        with pytest.raises(TransportError, match="exceeded 1 steps"):
            transport._integrate(law, paths, lambda us, m, xdot: m, y0, s, ends,
                                 replace(cfg, max_steps=1))


def test_work_counts_are_context_local():
    # a block counts the solves of its own context inside it, and a
    # thread's solves run in another context; a pull-back reads its path at
    # the Gauss nodes alone, in one stack, and no point through the jets
    sc = build(ScenarioSpec("offset-transport"))
    path, r1 = connecting_path(sc, sc.s_eval), sc.surface.r_base
    pullback = lambda t: transport._pullbacks(sc.law, [path], sc.dimension, r1, [t],
                                              DEFAULT_ODE_CONFIG)
    pullback(r1 + 0.1)
    with transport.work_counts() as counts:
        pullback(r1 + 0.05)
        thread = threading.Thread(target=pullback, args=(r1 + 0.02,))
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
        free = one_pullback(law, X_AXIS, 0.9, 0.02, REJECTING)
    attempts, rest = divmod(len(calls), 3)
    assert rest == 0 and attempts > 10
    assert work == {"solves": 1, "generator_evals": len(calls), "continued_lanes": 1,
                    "stacked_attempts": attempts, "attempted_steps": attempts}
    exact = replace(REJECTING, max_steps=attempts)
    got = one_pullback(law, X_AXIS, 0.9, 0.02, exact)
    assert all(map(np.array_equal, got, free))
    short = replace(REJECTING, max_steps=attempts - 1)
    with pytest.raises(TransportError, match=f"exceeded {attempts - 1} steps"):
        one_pullback(law, X_AXIS, 0.9, 0.02, short)


def test_non_finite_initial_state_error(sphere):
    with pytest.raises(EvaluationError, match="non-finite initial transport state"):
        transport_components(sphere.law, worldline(sphere, 1), 0.0, 0.2,
                             [math.nan, 1.0])


@pytest.mark.parametrize("t", [0.2, 0.0], ids=["solve", "t-equals-s"])
@pytest.mark.parametrize("components,message", [
    (np.ones(3), r"have shape \(3,\), expected \(2,\)$"),
    (np.ones((3, 2)), r"have shape \(3, 2\), expected \(2, 2\)$"),
    (np.ones((2, 2, 1)), r"have shape \(2, 2, 1\), expected \(2,\)$"),
    (np.ones((2, 0)), r"have shape \(2, 0\), expected \(2,\)$"),
    (1.0, r"have shape \(\), expected \(2,\)$"),
    (np.array([[1.0], [math.inf]]), "^non-finite initial transport state$")],
    ids=["long", "long-block", "rank-3", "no-columns", "scalar", "non-finite-block"])
def test_transport_components_are_checked_against_the_path(sphere, components, message, t):
    # only (d,) or (d, k) finite components at path(s) are carried, also
    # when t == s and no solve is made: any others raise EvaluationError
    # naming their shape, not NumPy's error or an unchecked copy
    with pytest.raises(EvaluationError, match=message):
        transport_components(sphere.law, worldline(sphere, 1), 0.0, t, components)
    block = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(transport_components(sphere.law, worldline(sphere, 1), 0.0, 0.0,
                                               block), block)


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

    law = make_law(ConnectionField(stacked(gamma_at), stacked(lambda pt: np.zeros((2,) * 4))))
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
    assert np.abs(coeff + conn.coefficients(pt.coords[None])[0]).max() < 1e-6


def test_extract_first_coeff_offset():
    conn = sphere_connection()
    sigma = np.zeros((2, 2, 2))
    sigma[0, 1, 1] = 0.3
    sigma[1, 0, 1] = -0.15
    law = law_with_offset(conn, sigma)
    pt = ChartPoint([1.0, -0.2])
    coeff = extract_first_coeff(law, pt, coordinate_probes(pt))
    assert np.abs(coeff + conn.coefficients(pt.coords[None])[0] + sigma).max() < 1e-6


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

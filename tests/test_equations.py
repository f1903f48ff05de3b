import dataclasses
import importlib.util
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import geodev.equations
import geodev.kinematics
import geodev.transport
from geodev.equations import (DEFAULT_LADDER, FIT_EXCLUSION, H_S, EquationId,
                              ResidualSample, _INFO, _Workspace, _fit_orders,
                              convergence_study, equation_info, residual)
from geodev.errors import DomainError, EvaluationError
from geodev.geometry import (ChartPoint, ConnectionField, MetricField, bilinear,
                             torsion_apply)
from geodev.kinematics import WorldSurface
from geodev.scenarios import (EQUATION_SCENARIOS, LINEAR_DRIFT_MASSES,
                              ScenarioSpec, _repeated, build, family_names)
from geodev.transport import DEFAULT_ODE_CONFIG, work_counts

from oracles import polyfit_order

S0 = 0.15
ROOT = Path(__file__).resolve().parent.parent
# what scripts/solve_counts.py records, by study: the same scenarios, at S0
LEDGER = json.loads((ROOT / "tests" / "work_counts.json").read_text())


def residual_components(eq, scenario, s, eps, cfg=DEFAULT_ODE_CONFIG):
    """Raw residual of ``eq`` (components, or a scalar for E7_4) on a ladder
    of one, on the grid ``eq`` declares."""
    return _INFO[eq].residual(_Workspace(scenario, (eps,), _INFO[eq].pullback_s(s), cfg), s)[0]


def test_every_equation_has_info_and_formula():
    assert len(EquationId) == 16
    for eq in EquationId:
        info = equation_info(eq)
        assert callable(info.residual)
        assert eq in EQUATION_SCENARIOS or eq in (EquationId.E2_10,)


def test_exact_flag_only_on_momentum_identity():
    exact = [eq for eq in EquationId if equation_info(eq).exact]
    assert exact == [EquationId.E5_1]


def test_residual_sample_fields(flat_torsion):
    smp = residual(EquationId.E4_4, flat_torsion, S0, 0.01)
    assert smp.eq is EquationId.E4_4
    assert smp.epsilon == 0.01
    assert smp.s == S0
    assert smp.residual_norm >= 0.0
    assert smp.wall_time >= 0.0


def test_scalar_energy_residual_is_scalar(minkowski):
    sc = build(ScenarioSpec("minkowski", LINEAR_DRIFT_MASSES))
    value = residual_components(EquationId.E7_4, sc, S0, 0.01)
    assert np.isscalar(value) or np.ndim(value) == 0


def test_e7_4_requires_metric(flat_torsion):
    bare = dataclasses.replace(flat_torsion, metric=None)
    with pytest.raises(EvaluationError):
        residual(EquationId.E7_4, bare, S0, 0.01)


def test_e2_10_requires_probe_field(flat_torsion):
    bare = dataclasses.replace(flat_torsion, probe_field=None)
    with pytest.raises(EvaluationError):
        residual(EquationId.E2_10, bare, S0, 0.01)


# ------------------------------------------------------------ ladder checks

def test_ladder_validation(flat_torsion):
    with pytest.raises(ValueError):
        convergence_study([EquationId.E4_4], flat_torsion, S0, (0.1, 0.05))
    with pytest.raises(ValueError):
        convergence_study([EquationId.E4_4], flat_torsion, S0,
                          (0.1, 0.2, 0.05, 0.02, 0.01))
    with pytest.raises(ValueError):
        convergence_study([EquationId.E4_4], flat_torsion, S0,
                          (0.1, 0.05, 0.02, 0.01, -0.005))


def test_study_rejects_a_bare_equation_id(flat_torsion):
    # EquationId is a str enum: iterated, a bare id would yield characters
    with pytest.raises(TypeError, match="sequence of EquationId"):
        convergence_study(EquationId.E4_4, flat_torsion, S0, DEFAULT_LADDER)


# how far from s each formula reads the surface, as README states it
REACH = {**dict.fromkeys(EquationId, H_S), EquationId.E4_1: 0.001, EquationId.E6_3: 0.02,
         **dict.fromkeys([EquationId.E2_10, EquationId.E2_13, EquationId.E4_3,
                          EquationId.E4_4, EquationId.E5_1], 0.0)}


def test_stencil_reach_covers_every_surface_evaluation():
    # each residual evaluated its reach inside either end of the s-domain
    # passes every s-domain check that its reads make; at half of it inside
    # either end a read leaves the domain and raises, which the CLI turns
    # into exit 2.  Each reach is the declared grid's (_EquationInfo.stencil),
    # and the study checks every s of the grid once, up front
    sc = build(ScenarioSpec("offset-transport", LINEAR_DRIFT_MASSES))
    lo, hi = sc.surface.s_domain
    for eq in EquationId:
        reach = REACH[eq]
        grid = equation_info(eq).pullback_s(S0)
        assert max(abs(u - S0) for u in grid) == pytest.approx(reach, rel=1e-9, abs=0.0), eq
        for s in (lo + reach, hi - reach):
            assert np.isfinite(residual(eq, sc, s, 0.01).residual_norm)
        if reach > 0:
            for s in (lo + reach / 2, hi - reach / 2):
                with pytest.raises(DomainError, match="outside surface s-domain"):
                    residual(eq, sc, s, 0.01)


SURFACE_ACCESSORS = ("map", "d_s", "d_r", "d_ss", "d_sr", "d_rr")


def recording_surface(sc, calls):
    """``sc`` with its surface's ``jets``, mass and probe field recorded in
    ``calls`` as ``(datum, order, rows)``, ``rows`` the (s, r) of a call,
    and each of the six accessors raising."""
    def recorded(datum, fn, order=None):
        def call(s, r, *args):
            calls.append((datum, args[0] if args else order, list(zip(s.tolist(), r.tolist()))))
            return fn(s, r, *args)
        return call

    def accessor(s, r):
        raise AssertionError("a study called a surface accessor")

    surf, mass, probe = sc.surface, sc.mass, sc.probe_field
    return dataclasses.replace(
        sc, surface=dataclasses.replace(surf, jets=recorded("jets", surf.jets),
                                        **dict.fromkeys(SURFACE_ACCESSORS, accessor)),
        mass=dataclasses.replace(mass, mu=recorded("mu", mass.mu, 0),
                                 d_s_mu=recorded("d_s_mu", mass.d_s_mu, 0)),
        probe_field=dataclasses.replace(probe, value=recorded("probe", probe.value, 0),
                                        d_r=recorded("probe_d_r", probe.d_r, 0)))


def study_grid(sc, equations, s):
    """The (s, r) rows of a default-ladder study's surface read: each s of
    its pull-back grid, in order, at r' and at each r''."""
    rungs = [sc.surface.r_base, *(sc.separation_endpoints(eps)[1] for eps in DEFAULT_LADDER)]
    grid = dict.fromkeys(u for eq in equations for u in equation_info(eq).pullback_s(s))
    return [(u, r) for u in grid for r in rungs]


def data_calls(calls):
    """``calls`` of a study (``recording_surface``), split into its surface
    data calls and its order-1 jets calls, the Gauss nodes of its solve."""
    nodes = [call for call in calls if call[:2] == ("jets", 1)]
    return [call for call in calls if call[:2] != ("jets", 1)], nodes


@pytest.mark.parametrize("family", family_names())
def test_study_reads_each_surface_datum_once(family):
    # every surface datum at each (s, r) is one datum of a study: an
    # all-16, default-ladder study reads each datum in one call on rows, its
    # grid at r' and at every r'' (_Ladder._grid), each (s, r) once, in the
    # order its formulas first ask for them: the six partials in one order-2
    # jets call, the mass, its rate and the probe field in one call each; it
    # reads no row of one, calls none of the six accessors, and reads no (s, r)
    # anywhere else: not through a connecting path's point for the S-tensor
    # or a solve's dimension.  The pull-backs read their Gauss nodes in
    # order-1 jets calls on rows (along_r), the first of them the first
    # attempt's 3 nodes on each of the 63 lanes
    sc, calls = build(ScenarioSpec(family, LINEAR_DRIFT_MASSES)), []
    convergence_study(list(EquationId), recording_surface(sc, calls), sc.s_eval,
                      DEFAULT_LADDER)
    rows = study_grid(sc, EquationId, sc.s_eval)
    assert len(set(rows)) == len(rows) == 9 * (1 + len(DEFAULT_LADDER))
    data, nodes = data_calls(calls)
    assert sorted(data) == sorted([("jets", 2, rows), ("mu", 0, rows), ("d_s_mu", 0, rows),
                                   ("probe", 0, rows), ("probe_d_r", 0, rows)])
    assert len(nodes[0][2]) == 3 * 9 * len(DEFAULT_LADDER)
    assert all(at for _, _, at in nodes)


def test_deviation_study_reads_no_mass_or_probe():
    # the deviation equations read x_1, V_1 and the path tangent d_r and
    # nothing of the mass or the probe field, so their study calls neither:
    # each datum is read when a formula first asks for it
    sc, calls = build(ScenarioSpec("sphere", LINEAR_DRIFT_MASSES)), []
    deviation = [EquationId.E2_13, EquationId.E4_1, EquationId.E6_3]
    convergence_study(deviation, recording_surface(sc, calls), sc.s_eval, DEFAULT_LADDER)
    data, nodes = data_calls(calls)
    assert data == [("jets", 2, study_grid(sc, deviation, sc.s_eval))]
    assert nodes


def test_floor_detection_on_identically_zero_residual(flat_ruled):
    rep, = convergence_study([EquationId.E3_1], flat_ruled, S0, DEFAULT_LADDER)
    assert rep.floor_detected
    assert rep.fitted_order is None
    assert rep.fit_r2 is None
    assert rep.n_fit_points == 0
    assert all(s.residual_norm <= FIT_EXCLUSION for s in rep.samples)


def test_stacked_fit_matches_the_polyfit_oracle():
    # random ladders, each rung 0.2 to 0.8 times the one before (rungs much
    # closer than that cost polyfit's SVD solve digits of its own), each row
    # of the stack keeping 2 to 7 points above the fit-exclusion level; the
    # others sit at, below or far below it
    rng = np.random.default_rng(25)
    for _ in range(100):
        ladder = tuple(0.5 * np.cumprod(rng.uniform(0.2, 0.8, 7)))
        order = rng.uniform(-1.0, 4.0, (6, 1))
        norms = rng.uniform(1e-3, 1e2, (6, 1)) * np.array(ladder) ** order
        norms *= np.exp(rng.normal(0.0, 0.3, norms.shape))
        norms = np.clip(norms, 1e-9, 1e3)
        for row in norms:
            floor = rng.choice(7, 7 - rng.integers(2, 8), replace=False)
            row[floor] = rng.choice([0.0, FIT_EXCLUSION, 1e-14], len(floor))
        slopes, r2s, counts = _fit_orders(ladder, norms)
        for row, slope, r2, n in zip(norms, slopes, r2s, counts):
            keep = row > FIT_EXCLUSION
            assert n == np.count_nonzero(keep)
            want_slope, want_r2 = polyfit_order(np.array(ladder)[keep], row[keep])
            assert abs(slope - want_slope) <= 1e-12
            assert abs(r2 - want_r2) <= 1e-12


def test_study_fit_rules_on_constant_and_sparse_ladders(flat_torsion, monkeypatch):
    # the norms of each equation are set; the study only fits and reports
    floor = [FIT_EXCLUSION] * 6
    norms = {EquationId.E4_3: [3e-4] * 7,                  # constant
             EquationId.E4_4: [2e-3, 5e-4] + floor[:5],  # 2 points
             EquationId.E4_5: [2e-3] + floor,            # 1 point
             EquationId.E3_1: [0.0] * 7}                 # none

    def evaluate(equations, scenario, s, ladder, cfg):
        return [[ResidualSample(eq, s, e, v, 0.0)
                 for e, v in zip(ladder, norms[eq])] for eq in equations]

    monkeypatch.setattr(geodev.equations, "_evaluate", evaluate)
    const, two, one, none = convergence_study(list(norms), flat_torsion, S0,
                                              DEFAULT_LADDER)
    assert const.fit_r2 == 1.0 and abs(const.fitted_order) <= 1e-12
    assert (const.n_fit_points, const.floor_detected) == (7, False)
    want = polyfit_order(DEFAULT_LADDER[:2], norms[EquationId.E4_4][:2])
    assert abs(two.fitted_order - want[0]) <= 1e-12
    assert abs(two.fit_r2 - want[1]) <= 1e-12
    assert (two.n_fit_points, two.floor_detected) == (2, True)
    for rep, n in ((one, 1), (none, 0)):
        assert (rep.fitted_order, rep.fit_r2, rep.n_fit_points) == (None, None, n)
        assert rep.floor_detected


def test_report_bookkeeping(flat_torsion):
    rep, = convergence_study([EquationId.E4_4], flat_torsion, S0, DEFAULT_LADDER)
    assert rep.epsilon_ladder == DEFAULT_LADDER
    assert len(rep.samples) == len(DEFAULT_LADDER)
    assert rep.scenario_label == "flat-torsion"
    assert not rep.exact
    assert rep.n_fit_points == 7
    assert rep.fitted_order == pytest.approx(2.0, abs=0.1)
    assert rep.fit_r2 > 0.98


def test_exact_identity_reported_exact(sphere):
    sc = build(ScenarioSpec("sphere", LINEAR_DRIFT_MASSES))
    rep, = convergence_study([EquationId.E5_1], sc, S0, DEFAULT_LADDER)
    assert rep.exact
    assert all(s.residual_norm < 1e-9 for s in rep.samples)


# ------------------------------------------------------------- invariants

def test_e4_4_residual_quartering(flat_torsion):
    # the spec's derived example: residual ratio between eps and eps/2
    # sits in [3.5, 4.5]
    big = residual(EquationId.E4_4, flat_torsion, S0, 1e-2).residual_norm
    small = residual(EquationId.E4_4, flat_torsion, S0, 5e-3).residual_norm
    assert 3.5 <= big / small <= 4.5


def test_residuals_invariant_under_r_shift(flat_torsion):
    # relabel r -> r + delta while moving r_base with it: the physical
    # configuration is unchanged and so is every residual
    delta = 0.07
    surf = flat_torsion.surface

    shifted_surf = WorldSurface(
        lambda s, r, order: surf.jets(s, r - delta, order),
        s_domain=surf.s_domain,
        r_domain=(surf.r_domain[0] + delta, surf.r_domain[1] + delta),
        r_base=surf.r_base + delta)
    shifted_sc = dataclasses.replace(flat_torsion, surface=shifted_surf)
    for eq in (EquationId.E4_4, EquationId.E2_13, EquationId.E6_2):
        for eps in (0.05, 0.01):
            a = residual_components(eq, flat_torsion, S0, eps)
            b = residual_components(eq, shifted_sc, S0, eps)
            assert np.abs(np.asarray(a) - np.asarray(b)).max() < 1e-10


def test_e7_1_mu1_and_mu2_forms_differ_second_order():
    sc = build(ScenarioSpec("offset-transport", LINEAR_DRIFT_MASSES))

    def mu1_form_residual(eps):
        # a ladder of one, on E7_1's grid: df_dr differences d_sr at S0 +- H_S
        w = _Workspace(sc, (eps,), equation_info(EquationId.E7_1).pullback_s(S0),
                       DEFAULT_ODE_CONFIG)
        mu1, mu2 = w.mu1(S0), w.mu2(S0)[0]
        rhs = ((mu2 - mu1) * w.a1(S0) + mu1 * eps * w.df_dr(S0)
               + mu1 * bilinear(w.s_tensor(S0), w.a1(S0), w.zeta(S0)[0]))
        return w.delta_k(S0)[0] - rhs

    diffs = []
    for eps in (0.08, 0.04, 0.02):
        r_mu2 = residual_components(EquationId.E7_1, sc, S0, eps)
        r_mu1 = mu1_form_residual(eps)
        assert np.abs(r_mu1).max() < 0.02  # mu1 form is first-order valid too
        diffs.append(np.abs(np.asarray(r_mu2) - r_mu1).max())
    assert 3.3 < diffs[0] / diffs[1] < 4.7
    assert 3.3 < diffs[1] / diffs[2] < 4.7


@pytest.mark.parametrize("name,params", [
    ("flat-torsion", {}),
    ("offset-transport", LINEAR_DRIFT_MASSES),
])
def test_leibniz_consistency_of_contracted_derivatives(name, params):
    # the algebra tying the velocity equation to the deviation-vector
    # equation rests on D/ds[T(V1, zeta)] = DT(V1, zeta) + T(A1, zeta)
    # + T(V1, Dzeta), and likewise for S; both sides computed numerically
    # must agree, which is what makes the equation set mutually consistent
    sc = build(ScenarioSpec(name, params))
    eps = 0.02
    w = _Workspace(sc, (eps,), (S0, S0 + H_S, S0 - H_S), DEFAULT_ODE_CONFIG)  # a ladder of one

    t_of = lambda u: torsion_apply(w.torsion(u), w.v1(u), w.zeta(u))
    lhs = w.cov_fd(t_of, S0, H_S)
    rhs = (torsion_apply(w.d_torsion(S0), w.v1(S0), w.zeta(S0))
           + torsion_apply(w.torsion(S0), w.a1(S0), w.zeta(S0))
           + torsion_apply(w.torsion(S0), w.v1(S0), w.d_zeta(S0)))
    assert np.abs(lhs - rhs).max() < 1e-9

    s_of = lambda u: bilinear(w.s_tensor(u), w.v1(u), w.zeta(u))
    lhs = w.cov_fd(s_of, S0, H_S)
    rhs = (bilinear(w.d_s_tensor(S0), w.v1(S0), w.zeta(S0))
           + bilinear(w.s_tensor(S0), w.a1(S0), w.zeta(S0))
           + bilinear(w.s_tensor(S0), w.v1(S0), w.d_zeta(S0)))
    assert np.abs(lhs - rhs).max() < 1e-9


def test_s_term_toggles_with_the_law(flat_torsion, offset_transport):
    # on parallel-law scenarios the S contribution to the velocity relation
    # is identically zero; switching to an offset law turns it into the
    # sigma contraction
    eps = 0.02
    w = _Workspace(flat_torsion, (eps,), (S0,), DEFAULT_ODE_CONFIG)  # a ladder of one
    s_term = bilinear(w.s_tensor(S0), w.v1(S0), w.zeta(S0)[0])
    assert np.all(s_term == 0.0)

    w = _Workspace(offset_transport, (eps,), (S0,), DEFAULT_ODE_CONFIG)
    sigma = np.zeros((2, 2, 2))
    sigma[0, 1, 1] = 0.2
    expected = np.einsum("ijk,j,k->i", sigma, w.v1(S0), w.zeta(S0)[0])
    s_term = bilinear(w.s_tensor(S0), w.v1(S0), w.zeta(S0)[0])
    assert np.abs(s_term - expected).max() < 1e-12


def test_e3_1_sits_at_floor_on_structured_scenarios(flat_torsion, sphere):
    # the deviation-vector equation's remainder vanishes identically, not
    # just to second order: the harness observes floor-level residuals on
    # both torsion and curvature scenarios, never an eps^2 slope
    for sc in (flat_torsion, sphere):
        for eps in (0.1, 0.01, 0.001):
            smp = residual(EquationId.E3_1, sc, S0, eps)
            assert smp.residual_norm < 1e-10


def test_e5_1_exact_at_every_separation(offset_transport):
    for eps in (0.1, 0.05, 0.004, 1e-4):
        smp = residual(EquationId.E5_1, offset_transport, S0, eps)
        assert smp.residual_norm < 1e-12


def test_delta_quantities_vanish_at_zero_separation(offset_transport):
    for eq in (EquationId.E2_13, EquationId.E4_3, EquationId.E5_1):
        value = residual_components(eq, offset_transport, S0, 0.0)
        assert np.abs(np.asarray(value)).max() < 1e-12


# ------------------------------------------------- studies on ladder stacks

_CELLS_BY_FAMILY = {}
for _eq, _specs in EQUATION_SCENARIOS.items():
    for _spec in _specs:
        _CELLS_BY_FAMILY.setdefault(_spec.name, []).append((_eq, _spec))


@pytest.mark.parametrize("family", sorted(_CELLS_BY_FAMILY))
def test_shared_workspace_study_matches_fresh_workspace_residuals(family):
    # one study over every equation the family's cells use shares one
    # workspace, on the stack of its ladder; each residual norm must equal,
    # bit for bit, the residual evaluated alone on a fresh workspace
    groups = {}
    for eq, spec in _CELLS_BY_FAMILY[family]:
        key = tuple(sorted(spec.parameters.items()))
        groups.setdefault(key, (spec, []))[1].append(eq)
    for spec, eqs in groups.values():
        sc = build(spec)
        reports = convergence_study(eqs, sc, sc.s_eval, DEFAULT_LADDER)
        assert [rep.eq for rep in reports] == eqs
        for eq, rep in zip(eqs, reports):
            assert [smp.epsilon for smp in rep.samples] == list(DEFAULT_LADDER)
            fresh = [residual(eq, sc, sc.s_eval, eps).residual_norm
                     for eps in DEFAULT_LADDER]
            assert [smp.residual_norm for smp in rep.samples] == fresh


def test_shared_workspace_study_saves_transport_solves():
    # one back-transport solve per distinct s serves every relative quantity
    # and the deviation vector: the 13 equations that never difference h
    # read s and s +- H_S (3 solves per eps), all 16 add the deviation
    # stencils s +- H_DEV_FIRST, s +- H_DEV_SECOND, s +- 2 H_DEV_SECOND
    # (9 per eps); the study solves them all, every s and eps a lane, in one
    # stacked Magnus attempt, and gives bit-identical residuals
    sc = build(ScenarioSpec("offset-transport", LINEAR_DRIFT_MASSES))
    deviation = (EquationId.E2_13, EquationId.E4_1, EquationId.E6_3)
    relative = [eq for eq in EquationId if eq not in deviation]
    assert len(relative) == 13
    with work_counts() as counts:
        per_equation = []
        for eq in relative:
            per_equation.extend(convergence_study([eq], sc, S0, DEFAULT_LADDER))
    relative_13, all_16 = LEDGER["relative_13"], LEDGER["all_16"]
    assert counts["solves"] > relative_13["solves"]
    with work_counts() as counts:
        shared = convergence_study(relative, sc, S0, DEFAULT_LADDER)
    assert counts["solves"] == 3 * len(DEFAULT_LADDER) == relative_13["solves"]
    assert counts["stacked_attempts"] == relative_13["stacked_attempts"]
    assert ([smp.residual_norm for rep in shared for smp in rep.samples]
            == [smp.residual_norm for rep in per_equation for smp in rep.samples])
    with work_counts() as counts:
        convergence_study(list(EquationId), sc, S0, DEFAULT_LADDER)
    assert counts["solves"] == 9 * len(DEFAULT_LADDER) == all_16["solves"]
    assert counts["stacked_attempts"] == all_16["stacked_attempts"]
    # residual() evaluates as a study does: E6_3's 5 s, one lane each, in
    # one stacked attempt
    with work_counts() as counts:
        residual(EquationId.E6_3, sc, S0, 0.01)
    assert (counts["solves"], counts["stacked_attempts"]) == (5, 1)


def test_study_evaluates_each_generator_once_per_rhs_parameter(monkeypatch):
    # gamma_s is built once per s for the whole ladder, so the coefficients
    # of the transport law are evaluated once per distinct (s, u) generator
    # parameter of the study; each of the 63 Magnus lanes (7 ladder
    # endpoints per s) takes one step of 3 Gauss nodes, no two lanes share
    # a node, and the one stacked attempt evaluates the nodes of each path
    # in one stacked law call, then the generator of all 9 paths' nodes, in
    # the order of the law reads, in one call (the law's reads outside
    # solves, such as the S-tensor's, are not counted)
    sc = build(ScenarioSpec("offset-transport", LINEAR_DRIFT_MASSES))
    integrate, coefficients = (geodev.transport._integrate,
                               geodev.transport.TransportLaw.coefficients)
    connecting_path = geodev.kinematics.connecting_path
    s_of, gen_params, coeff_params, stacks, solving = {}, [], [], [], []

    def recording_path(scenario, s):
        path = connecting_path(scenario, s)
        s_of[id(path)] = s
        return path

    def recording(law, paths, generator, *args):
        def recorded(us, m, xdot):  # every path's nodes, as the law read them
            gen_params.extend(us)
            stacks.append(("generator", len(us)))
            return generator(us, m, xdot)
        solving.append(True)
        try:
            return integrate(law, paths, recorded, *args)
        finally:
            solving.pop()

    def counted_coefficients(law, us, path, coords):
        if solving:
            coeff_params.extend((s_of[id(path)], u) for u in us)
            stacks.append(("law", len(us)))
        return coefficients(law, us, path, coords)

    monkeypatch.setattr(geodev.kinematics, "connecting_path", recording_path)
    monkeypatch.setattr(geodev.transport, "_integrate", recording)
    monkeypatch.setattr(geodev.transport.TransportLaw, "coefficients",
                        counted_coefficients)
    with work_counts() as counts:
        convergence_study(list(EquationId), sc, S0, DEFAULT_LADDER)
    all_16 = LEDGER["all_16"]
    nodes = all_16["generator_evals"]
    assert len(s_of) == 9  # s_eval and the eight stencil offsets
    assert (counts["solves"], counts["generator_evals"], len(gen_params)) == (
        all_16["solves"], nodes, nodes)
    assert (counts["attempted_steps"], counts["continued_lanes"]) == (
        all_16["attempted_steps"], all_16["continued_lanes"])
    assert len(set(coeff_params)) == len(coeff_params) == nodes
    assert gen_params == [u for _, u in coeff_params]
    assert stacks == [("law", 3 * len(DEFAULT_LADDER))] * 9 + [("generator", nodes)]


def test_deviation_study_reads_each_magnus_stack_at_once():
    # the 3 deviation equations read 7 values of s; the 49 lanes, 7 ladder
    # lanes along each gamma_s, make one stacked attempt whose 147 Gauss
    # nodes, 21 along each path, are read in one stacked surface call, and
    # the surface at the 7 s, at r' and the 7 r'', in one more: no point is
    # read as a row of one, the covariant differences read x_1, V_1 and d_r
    # from the one surface read, and the solve takes its dimension from the
    # scenario and reads no path's start.  A fall-back to per-path,
    # per-node or per-point evaluation changes these counts, which are the
    # ledger's (deviation_3 of tests/work_counts.json)
    sc = build(ScenarioSpec("offset-transport", LINEAR_DRIFT_MASSES))
    deviation = [EquationId.E2_13, EquationId.E4_1, EquationId.E6_3]
    with work_counts() as counts:
        convergence_study(deviation, sc, S0, DEFAULT_LADDER)
    ledger = LEDGER["deviation_3"]
    assert dict(counts) == {key: ledger[key] for key in load_script("solve_counts").WORK_KEYS}
    assert counts["surface_stacks"] == counts["stacked_attempts"] + 1 == 2
    assert counts["generator_evals"] == 3 * counts["solves"]
    assert (counts["surface_stack_points"] - counts["generator_evals"]
            == len(study_grid(sc, deviation, S0)) == 7 * (1 + len(DEFAULT_LADDER)))


@pytest.mark.parametrize("family", sorted(_CELLS_BY_FAMILY))
def test_each_equation_reads_pull_backs_at_its_declared_s(family, monkeypatch):
    # a study's grid is the s its equations declare (_EquationInfo.stencil):
    # the s its formulas look up are exactly that grid, no undeclared s and
    # no declared s left unread, and its one solve, the first time a formula
    # asks for a pull-back, is along the paths of the whole grid; E3_1 reads
    # no pull-back and solves none.  Lanes that go on stepping
    # (exp-transport's widest) add attempts of their own
    workspaces, solves, pullbacks = [], [], geodev.kinematics._pullbacks

    class Recorded(_Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            self.looked_up = set()
            workspaces.append(self)

        def _at(self, s):
            self.looked_up.add(s)
            return super()._at(s)

    monkeypatch.setattr(geodev.equations, "_Workspace", Recorded)
    monkeypatch.setattr(geodev.kinematics, "_pullbacks",
                        lambda *args: solves.append(args) or pullbacks(*args))
    for eq, spec in _CELLS_BY_FAMILY[family]:
        sc = build(spec)
        workspaces.clear()
        solves.clear()
        with work_counts() as counts:
            convergence_study([eq], sc, sc.s_eval, DEFAULT_LADDER)
        [w] = workspaces
        declared = equation_info(eq).pullback_s(sc.s_eval)
        assert list(w.grid) == declared and w.looked_up == set(declared), eq
        if eq is EquationId.E3_1:
            assert solves == [], eq
        else:
            [(_, paths, *_)] = solves
            assert all(path is w.path(u) for path, u in zip(paths, declared)), eq
            assert len(paths) == len(declared), eq
        assert (counts["stacked_attempts"] == len(solves)) or counts["continued_lanes"], eq
    assert equation_info(EquationId.E3_1).pullback_s(S0) == [S0, S0 + H_S, S0 - H_S]
    assert equation_info(EquationId.E6_3).pullback_s(S0) == [
        S0, S0 + 0.01, S0 - 0.01, S0 + 0.01 + 0.01, S0 - 0.01 - 0.01]


def load_script(name: str):
    """The module of ``scripts/<name>.py``."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_work_counts_match_the_ledger():
    # tests/work_counts.json records what scripts/solve_counts.py prints; a
    # change that changes the work re-records it and says why
    assert load_script("solve_counts").work() == LEDGER


def test_outputs_match_the_recorded_digest():
    # tests/output_digest.txt records what scripts/output_digest.py prints,
    # a digest of every output of the 35 acceptance cells and the benchmark
    # pool's calls; a change that moves an output re-records it and says why
    recorded = (ROOT / "tests" / "output_digest.txt").read_text().splitlines()
    assert list(load_script("output_digest").lines()) == recorded


@pytest.mark.parametrize("name", family_names())
def test_an_all_16_study_builds_no_chart_point(name, monkeypatch):
    # every field is read on coordinate stacks: Gamma, its partials, g and
    # its partials at x_1(s) as a stack of one, Gamma at the x_2 of each s
    # and the laws on each solve's nodes, so a study builds no ChartPoint
    sc = build(ScenarioSpec(name, LINEAR_DRIFT_MASSES))
    built, init = [], ChartPoint.__init__
    monkeypatch.setattr(ChartPoint, "__init__",
                        lambda self, coords: built.append(coords) or init(self, coords))
    reports = convergence_study(list(EquationId), sc, sc.s_eval, DEFAULT_LADDER)
    assert len(reports) == len(EquationId)
    assert built == []


def test_study_evaluates_base_geometry_once_per_s(monkeypatch):
    # Gamma's partials, R, the force F_s(r') and the metric at x_1(s) depend
    # on (s, r') alone: one memo serves the whole ladder, so a
    # default-ladder study evaluates them at x_1(s) once, not once per eps,
    # Gamma's partials and the metric each in one stacked call at x_1 of
    # every s of the study's grid.  R is made of the Gamma and dGamma that
    # DT and DF/dr share, so curvature_at is never called.  The forces
    # F_s(r') and F_s(r'') read d_ss once at each point, each d_s read
    # serves every reader at its point (V_1, the momenta, Delta V and the
    # forces): the study's one order-2 jets call reads each (s, r) once
    sc = build(ScenarioSpec("offset-transport", LINEAR_DRIFT_MASSES))
    calls, stacks, reads, surf = [], [], [], sc.surface
    partials, curvature = ConnectionField.partials, geodev.equations.curvature_at
    matrix = MetricField.matrix

    def counted(name, fn):  # records each point read, at a ChartPoint or on a stack
        def call(owner, where, *rest):
            stack = where.coords[None] if isinstance(where, ChartPoint) else where
            calls.extend((name, tuple(x)) for x in stack)
            stacks.append((name, len(stack)))
            return fn(owner, where, *rest)
        return call

    monkeypatch.setattr(ConnectionField, "partials", counted("partials", partials))
    monkeypatch.setattr(geodev.equations, "curvature_at",
                        counted("curvature_at", curvature))
    monkeypatch.setattr(MetricField, "matrix", counted("metric", matrix))
    convergence_study(list(EquationId), recording_surface(sc, reads), S0, DEFAULT_LADDER)
    r1 = surf.r_base
    r2s = tuple(sc.separation_endpoints(eps)[1] for eps in DEFAULT_LADDER)
    grid = dict.fromkeys(u for eq in EquationId for u in equation_info(eq).pullback_s(S0))
    x1 = {s: tuple(surf.map(s, r1)) for s in grid}
    # Gamma's partials are evaluated nowhere else in the study; the
    # metric's partials shift x_1, so the metric is counted at x_1 alone
    geometry = Counter(call for call in calls
                       if call[0] in ("partials", "curvature_at"))
    assert geometry == {("partials", x): 1 for x in x1.values()}
    [rows] = [at for datum, order, at in reads if order == 2]
    assert [row for row in rows if row[0] == S0] == [(S0, r) for r in (r1, *r2s)]
    assert len(set(rows)) == len(rows) and [datum for datum, order, _ in reads].count("jets") == 2
    at_x1 = Counter(call for call in calls
                    if call[0] == "metric" and call[1] in x1.values())
    assert at_x1 == {("metric", x): 1 for x in x1.values()}
    assert stacks == [("partials", len(grid)), ("metric", len(grid))]


@pytest.mark.parametrize("partials,message", [
    (np.zeros((4, 4)), "metric partials have shape"),
    (np.full((4, 4, 4), np.nan), "non-finite metric partials"),
])
def test_bad_analytic_metric_partials_are_named(partials, message):
    # a malformed analytic d_l g_ij is named where it is read, not left to
    # an einsum subscript error or a NaN residual norm
    sc = build(ScenarioSpec("minkowski", LINEAR_DRIFT_MASSES))
    metric = dataclasses.replace(sc.metric, partials_at=_repeated(partials))
    with pytest.raises(EvaluationError, match=message):
        residual(EquationId.E7_4, dataclasses.replace(sc, metric=metric), S0,
                 0.01)


def test_base_quantities_are_read_only(flat_torsion):
    # one memo serves every equation of a study, so no residual formula may
    # write into a value that another reads; the sources stay writeable
    # a ladder of one, on the grid of the s-differences of d_s_tensor, df_dr and energy
    w = _Workspace(flat_torsion, (0.01,), (S0, S0 + H_S, S0 - H_S), DEFAULT_ODE_CONFIG)
    for value in (w.surface("d_sr", S0), w.gam(S0), w.dgam(S0), w.a1(S0),
                  w.torsion(S0), w.curvature(S0), w.s_tensor(S0),
                  w.d_torsion(S0), w.d_s_tensor(S0), w.metric(S0),
                  w.d_metric(S0), w.df_dr(S0), w.d_zeta(S0), w.delta_v(S0),
                  w.delta_k(S0), w.energy(S0)):
        with pytest.raises(ValueError):
            value.flat[0] = 1.0
    x1 = w.surface("map", S0)[None]
    assert flat_torsion.conn.gamma_at(x1).flags.writeable
    assert flat_torsion.metric.g_at(x1).flags.writeable


def test_study_reads_gamma_at_particle_2_in_one_call_per_s():
    # the relative acceleration and force read F_s(r'') at every eps of the
    # ladder; Gamma at those K points x_2(s) is one stacked read, shared by
    # both, and Gamma at x_1 of the study's 3 s (s and s +- H_S) one more
    # (the law keeps its own reference to the connection, so its reads
    # inside the pull-back solves are not recorded here)
    sc = build(ScenarioSpec("offset-transport", LINEAR_DRIFT_MASSES))
    sizes, gamma_at = [], sc.conn.gamma_at

    def recording(coords):
        sizes.append(len(coords))
        return gamma_at(coords)

    recorded = dataclasses.replace(sc, conn=dataclasses.replace(sc.conn, gamma_at=recording))
    convergence_study([EquationId.E6_2, EquationId.E7_1], recorded, S0, DEFAULT_LADDER)
    assert sorted(n for n in sizes if n > 1) == [3, len(DEFAULT_LADDER)]

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
                              ScenarioSpec, build)
from geodev.transport import DEFAULT_ODE_CONFIG, work_counts

from oracles import polyfit_order

S0 = 0.15
ROOT = Path(__file__).resolve().parent.parent


def residual_components(eq, scenario, s, eps, cfg=DEFAULT_ODE_CONFIG):
    """Raw residual of ``eq`` (components, or a scalar for E7_4) on a ladder of one."""
    return _INFO[eq].residual(_Workspace(scenario, (eps,), cfg), s)[0]


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


def test_stencil_reach_covers_every_surface_evaluation():
    # each residual evaluated its declared reach inside either end of the
    # s-domain must pass every s-domain check it meets; the CLI rejects
    # configs by this reach before running any study.  The reach is also
    # needed: at half of it inside either end the stencil leaves the domain
    sc = build(ScenarioSpec("offset-transport", LINEAR_DRIFT_MASSES))
    lo, hi = sc.surface.s_domain
    for eq in EquationId:
        reach = equation_info(eq).s_reach
        for s in (lo + reach, hi - reach):
            assert np.isfinite(residual(eq, sc, s, 0.01).residual_norm)
        if reach > 0:
            for s in (lo + reach / 2, hi - reach / 2):
                with pytest.raises(DomainError):
                    residual(eq, sc, s, 0.01)


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

    def evaluate(equations, workspace, s):
        return [[ResidualSample(eq, s, e, v, 0.0)
                 for e, v in zip(workspace.ladder, norms[eq])] for eq in equations]

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

    def shifted(fn):
        return lambda s, r: fn(s, r - delta)

    shifted_surf = WorldSurface(
        map=shifted(surf.map), d_s=shifted(surf.d_s), d_r=shifted(surf.d_r),
        d_ss=shifted(surf.d_ss), d_sr=shifted(surf.d_sr),
        d_rr=shifted(surf.d_rr),
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
        w = _Workspace(sc, (eps,), DEFAULT_ODE_CONFIG)  # a ladder of one
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
    w = _Workspace(sc, (eps,), DEFAULT_ODE_CONFIG)  # a ladder of one

    t_of = lambda u: torsion_apply(w.torsion(u), w.v1(u), w.zeta(u))
    lhs = w.cov_fd(t_of, S0, 1e-5)
    rhs = (torsion_apply(w.d_torsion(S0), w.v1(S0), w.zeta(S0))
           + torsion_apply(w.torsion(S0), w.a1(S0), w.zeta(S0))
           + torsion_apply(w.torsion(S0), w.v1(S0), w.d_zeta(S0)))
    assert np.abs(lhs - rhs).max() < 1e-9

    s_of = lambda u: bilinear(w.s_tensor(u), w.v1(u), w.zeta(u))
    lhs = w.cov_fd(s_of, S0, 1e-5)
    rhs = (bilinear(w.d_s_tensor(S0), w.v1(S0), w.zeta(S0))
           + bilinear(w.s_tensor(S0), w.a1(S0), w.zeta(S0))
           + bilinear(w.s_tensor(S0), w.v1(S0), w.d_zeta(S0)))
    assert np.abs(lhs - rhs).max() < 1e-9


def test_s_term_toggles_with_the_law(flat_torsion, offset_transport):
    # on parallel-law scenarios the S contribution to the velocity relation
    # is identically zero; switching to an offset law turns it into the
    # sigma contraction
    eps = 0.02
    w = _Workspace(flat_torsion, (eps,), DEFAULT_ODE_CONFIG)  # a ladder of one
    s_term = bilinear(w.s_tensor(S0), w.v1(S0), w.zeta(S0)[0])
    assert np.all(s_term == 0.0)

    w = _Workspace(offset_transport, (eps,), DEFAULT_ODE_CONFIG)
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
    assert counts["solves"] > 21
    with work_counts() as counts:
        shared = convergence_study(relative, sc, S0, DEFAULT_LADDER)
    assert counts["solves"] == 3 * len(DEFAULT_LADDER) == 21
    assert counts["stacked_attempts"] == 1
    assert ([smp.residual_norm for rep in shared for smp in rep.samples]
            == [smp.residual_norm for rep in per_equation for smp in rep.samples])
    with work_counts() as counts:
        convergence_study(list(EquationId), sc, S0, DEFAULT_LADDER)
    assert counts["solves"] == 9 * len(DEFAULT_LADDER) == 63
    assert counts["stacked_attempts"] == 1
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
    assert len(s_of) == 9  # s_eval and the eight stencil offsets
    assert (counts["solves"], counts["generator_evals"], len(gen_params)) == (63, 189, 189)
    assert (counts["attempted_steps"], counts["continued_lanes"]) == (63, 0)
    assert len(set(coeff_params)) == len(coeff_params) == 189
    assert gen_params == [u for _, u in coeff_params]
    assert stacks == [("law", 21)] * 9 + [("generator", 189)]


def test_deviation_study_reads_each_magnus_stack_at_once():
    # the 3 deviation equations read 7 values of s; the 49 lanes, 7 ladder
    # lanes along each gamma_s, make one stacked attempt whose 147 Gauss
    # nodes, 21 along each path, are read in one stacked surface call, and
    # no node is read through the point jets (their 7 calls read x_1(s)): a
    # fall-back to per-path or per-node evaluation changes these counts,
    # and the rest are the ledger's (deviation_3 of tests/work_counts.json)
    sc = build(ScenarioSpec("offset-transport", LINEAR_DRIFT_MASSES))
    deviation = [EquationId.E2_13, EquationId.E4_1, EquationId.E6_3]
    with work_counts() as counts:
        convergence_study(deviation, sc, S0, DEFAULT_LADDER)
    assert (counts["stacked_attempts"], counts["surface_stacks"],
            counts["surface_stack_points"], counts["jets_order_1"]) == (1, 1, 147, 7)
    ledger = json.loads((ROOT / "tests" / "work_counts.json").read_text())["deviation_3"]
    assert dict(counts) == {**{key: ledger[key] for key in load_script("solve_counts").WORK_KEYS},
                            "jets_order_1": ledger["jets_calls"]["1"]}


@pytest.mark.parametrize("family", sorted(_CELLS_BY_FAMILY))
def test_each_equation_reads_pull_backs_at_its_declared_s(family, monkeypatch):
    # a study solves the pull-backs at the s that its equations declare
    # (_EquationInfo.stencil) in one solve before the first residual that
    # reads them; a
    # formula that read them at another s would add that s to the memo and
    # solve it alone, a second solve and a second stacked attempt.  Lanes
    # that go on stepping (exp-transport's widest) add attempts of their own
    workspaces, solves, pullbacks = [], [], geodev.kinematics._pullbacks

    class Recorded(_Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            workspaces.append(self)

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
        assert [key[1] for key in w._memo if key[0] == "Lh"] == declared, eq
        assert len(solves) == (1 if declared else 0), eq
        assert (counts["stacked_attempts"] == len(solves)) or counts["continued_lanes"], eq
    assert equation_info(EquationId.E3_1).pullback_s(S0) == []
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
    ledger = json.loads((ROOT / "tests" / "work_counts.json").read_text())
    assert load_script("solve_counts").work() == ledger


def test_outputs_match_the_recorded_digest():
    # tests/output_digest.txt records what scripts/output_digest.py prints,
    # a digest of every output of the 35 acceptance cells and the benchmark
    # pool's calls; a change that moves an output re-records it and says why
    recorded = (ROOT / "tests" / "output_digest.txt").read_text().splitlines()
    assert list(load_script("output_digest").lines()) == recorded


def test_constant_connections_build_no_point_per_node(monkeypatch):
    # the constant Gamma of the flat families is read on a solve's stack of
    # nodes, as the sphere's is, so an all-16 study builds as many ChartPoints
    # on them as on offset-transport (a Gamma read at one point per node
    # builds one more per Gauss node)
    built, init = [], ChartPoint.__init__
    monkeypatch.setattr(ChartPoint, "__init__",
                        lambda self, coords: built.append(coords) or init(self, coords))

    def points_built(name):
        sc = build(ScenarioSpec(name, LINEAR_DRIFT_MASSES))
        built.clear()
        convergence_study(list(EquationId), sc, sc.s_eval, DEFAULT_LADDER)
        return len(built)

    flat = ("flat-torsion", "flat-euclidean/quadratic", "minkowski")
    reference = points_built("offset-transport")
    assert {name: points_built(name) for name in flat} == dict.fromkeys(flat, reference)


def test_study_evaluates_base_geometry_once_per_s(monkeypatch):
    # Gamma's partials, R, the force F_s(r') and the metric at x_1(s) depend
    # on (s, r') alone: one memo serves the whole ladder, so a
    # default-ladder study evaluates them at x_1(s) once, not once per eps.
    # curvature_at reads the partials itself; the second partials call is
    # the dGamma that DT and DF/dr share.  The relative acceleration and
    # force read F_s(r') from the memo (a_1) and F_s(r'') in one stacked read
    # per s, and E7_4 reads the metric at x_1(s) and at x_1(s +- H_S) once
    # each
    sc = build(ScenarioSpec("offset-transport", LINEAR_DRIFT_MASSES))
    calls = []
    partials, curvature = ConnectionField.partials, geodev.equations.curvature_at
    force, forces = geodev.kinematics.force_field, geodev.kinematics._forces
    matrix = MetricField.matrix
    inside = []

    def counted(name, fn, where=lambda field, point: tuple(point.coords)):
        def call(*args):
            if "force" not in inside:  # force_field's own _forces read is not a second one
                calls.append((name, where(*args)))
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return call

    monkeypatch.setattr(ConnectionField, "partials", counted("partials", partials))
    monkeypatch.setattr(geodev.equations, "curvature_at",
                        counted("curvature_at", curvature))
    monkeypatch.setattr(geodev.kinematics, "force_field",
                        counted("force", force, lambda sc, s, r: (s, r)))
    monkeypatch.setattr(geodev.kinematics, "_forces",
                        counted("forces", forces, lambda sc, s, rs: (s, tuple(rs))))
    monkeypatch.setattr(MetricField, "matrix", counted("metric", matrix))
    convergence_study(list(EquationId), sc, S0, DEFAULT_LADDER)
    r1 = sc.surface.r_base
    r2s = tuple(sc.separation_endpoints(eps)[1] for eps in DEFAULT_LADDER)
    x1 = {s: tuple(sc.surface.map(s, r1)) for s in (S0 - H_S, S0, S0 + H_S)}
    # Gamma's partials and R are evaluated nowhere else in the study; the
    # metric's partials shift x_1, so the metric is counted at x_1 alone
    geometry = Counter(call for call in calls
                       if call[0] in ("partials", "curvature_at"))
    assert geometry == {("partials", x1[S0]): 2, ("curvature_at", x1[S0]): 1}
    assert Counter(call for call in calls if call[0] in ("force", "forces")) == {
        ("force", (S0, r1)): 1, ("forces", (S0, r2s)): 1}
    at_x1 = Counter(call for call in calls
                    if call[0] == "metric" and call[1] in x1.values())
    assert at_x1 == {("metric", x1[S0 - H_S]): 1, ("metric", x1[S0]): 1,
                     ("metric", x1[S0 + H_S]): 1}


@pytest.mark.parametrize("partials,message", [
    (np.zeros((4, 4)), "metric partials have shape"),
    (np.full((4, 4, 4), np.nan), "non-finite metric partials"),
])
def test_bad_analytic_metric_partials_are_named(partials, message):
    # a malformed analytic d_l g_ij is named where it is read, not left to
    # an einsum subscript error or a NaN residual norm
    sc = build(ScenarioSpec("minkowski", LINEAR_DRIFT_MASSES))
    metric = dataclasses.replace(sc.metric, partials_at=lambda pt: partials)
    with pytest.raises(EvaluationError, match=message):
        residual(EquationId.E7_4, dataclasses.replace(sc, metric=metric), S0,
                 0.01)


def test_base_quantities_are_read_only(flat_torsion):
    # one memo serves every equation of a study, so no residual formula may
    # write into a value that another reads; the sources stay writeable
    w = _Workspace(flat_torsion, (0.01,), DEFAULT_ODE_CONFIG)  # a ladder of one
    for value in (w.surface("d_sr", S0), w.gam(S0), w.dgam(S0), w.a1(S0),
                  w.torsion(S0), w.curvature(S0), w.s_tensor(S0),
                  w.d_torsion(S0), w.d_s_tensor(S0), w.metric(S0),
                  w.d_metric(S0), w.df_dr(S0), w.d_zeta(S0), w.delta_v(S0),
                  w.delta_k(S0), w.energy(S0)):
        with pytest.raises(ValueError):
            value.flat[0] = 1.0
    assert flat_torsion.conn.gamma_at(w.x1_point(S0).coords[None]).flags.writeable
    assert flat_torsion.metric.g_at(w.x1_point(S0)).flags.writeable


def test_study_reads_gamma_at_particle_2_in_one_call_per_s():
    # the relative acceleration and force read F_s(r'') at every eps of the
    # ladder; Gamma at those K points x_2(s) is one stacked read, shared by
    # both (the law keeps its own reference to the connection, so its reads
    # inside the pull-back solves are not recorded here)
    sc = build(ScenarioSpec("offset-transport", LINEAR_DRIFT_MASSES))
    sizes, gamma_at = [], sc.conn.gamma_at

    def recording(coords):
        sizes.append(len(coords))
        return gamma_at(coords)

    recorded = dataclasses.replace(sc, conn=dataclasses.replace(sc.conn, gamma_at=recording))
    convergence_study([EquationId.E6_2, EquationId.E7_1], recorded, S0, DEFAULT_LADDER)
    assert [n for n in sizes if n > 1] == [len(DEFAULT_LADDER)]

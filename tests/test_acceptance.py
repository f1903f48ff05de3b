"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest -s tests/test_acceptance.py``
to see the lines live).  Criteria 4 and 5 also run on the generic cell of
``generic_cell.py``, on which every term of every equation is nonzero."""

import json
import math
import time

import numpy as np

from geodev.cli import main as cli_main
from geodev.equations import (DEFAULT_LADDER, EquationId, convergence_study,
                              equation_info, residual)
from geodev.geometry import ChartPoint
from geodev.kinematics import worldline
from geodev.scenarios import (EQUATION_SCENARIOS, LINEAR_DRIFT_MASSES,
                              ScenarioSpec, build, family_names)
from geodev.transport import transport_matrix

from generic_cell import generic_scenario
from oracles import approx_transport, coordinate_probes, extract_first_coeff
from test_cli import strip_timing


def announce(num: int, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {num}: {status} [{elapsed:.1f}s] {detail}")


class Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def check(self) -> None:
        assert self.elapsed < self.limit, (
            f"runtime {self.elapsed:.1f}s exceeded budget {self.limit}s")


def test_criterion_1_transport_axioms():
    budget = Budget(10.0)
    rng = np.random.default_rng(101)
    worst = 0.0
    for name in ("sphere", "flat-torsion"):
        sc = build(ScenarioSpec(name))
        line = worldline(sc, 1)
        lo, hi = line.domain
        ident = transport_matrix(sc.law, line, 0.2, 0.2)
        assert np.array_equal(ident, np.eye(sc.dimension))
        for _ in range(50):
            r, s, t = rng.uniform(lo, hi, size=3)
            lhs = (transport_matrix(sc.law, line, r, t)
                   @ transport_matrix(sc.law, line, s, r))
            rhs = transport_matrix(sc.law, line, s, t)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    ok = worst < 1e-8
    announce(1, ok, f"flow property worst error {worst:.2e} over 100 triples",
             budget.elapsed)
    assert ok
    budget.check()


def test_criterion_2_parallel_coefficient_recovery():
    budget = Budget(30.0)
    sc = build(ScenarioSpec("sphere"))
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        pt = ChartPoint([rng.uniform(0.5, math.pi - 0.5), rng.uniform(-1.0, 1.0)])
        coeff = extract_first_coeff(sc.law, pt, coordinate_probes(pt))
        worst = max(worst, float(np.abs(coeff + sc.conn.coefficients(pt.coords[None])[0]).max()))
    ok = worst < 1e-6
    announce(2, ok, f"extracted coefficients vs -Gamma worst {worst:.2e} "
             "at 20 random points", budget.elapsed)
    assert ok
    budget.check()


def test_criterion_3_approximant_orders():
    budget = Budget(5.0)
    sc = build(ScenarioSpec("exp-transport"))
    line = worldline(sc, 1)
    gaps = (0.1, 0.05, 0.025)
    ratios = {}
    for order in (0, 1):
        errs = []
        for gap in gaps:
            full = transport_matrix(sc.law, line, 0.0, gap)
            approx = approx_transport(sc.law, line, 0.0, gap, order)
            errs.append(float(np.abs(full - approx).max()))
        ratios[order] = [big / small for big, small in zip(errs, errs[1:])]
    ok = (all(1.8 <= r <= 2.2 for r in ratios[0])
          and all(3.5 <= r <= 4.5 for r in ratios[1]))
    announce(3, ok, f"error-halving ratios N=0 {ratios[0]}, N=1 {ratios[1]}",
             budget.elapsed)
    assert ok
    budget.check()


def test_criterion_4_exact_momentum_identity():
    budget = Budget(20.0)
    worst = 0.0
    scenarios = [*(build(ScenarioSpec(name, LINEAR_DRIFT_MASSES)) for name in family_names()),
                 generic_scenario()]
    for sc in scenarios:
        for eps in (1e-1, 1e-2, 1e-3):
            smp = residual(EquationId.E5_1, sc, sc.s_eval, eps)
            worst = max(worst, smp.residual_norm)
    ok = worst < 1e-9
    announce(4, ok, f"momentum identity worst residual {worst:.2e} over "
             f"{len(family_names())} families and the generic cell x 3 separations",
             budget.elapsed)
    assert ok
    budget.check()


def test_criterion_5_convergence_orders():
    budget = Budget(600.0)
    failures = []
    lines = []
    generic = generic_scenario()
    for eq in EquationId:
        if equation_info(eq).exact:
            continue
        for sc in [*map(build, EQUATION_SCENARIOS[eq]), generic]:
            rep, = convergence_study([eq], sc, sc.s_eval, DEFAULT_LADDER)
            if rep.fitted_order is None:
                floor_ok = all(s.residual_norm < 1e-10 for s in rep.samples)
                verdict = "floor" if floor_ok else "FLOOR-VIOLATION"
                if not floor_ok:
                    failures.append((eq.value, sc.label, "floor violation"))
                lines.append(f"    {eq.value:6s} {sc.label:26s} {verdict}")
            else:
                good = rep.fitted_order >= 1.9 and rep.fit_r2 >= 0.98
                if not good:
                    failures.append((eq.value, sc.label,
                                     f"order={rep.fitted_order:.3f} "
                                     f"r2={rep.fit_r2:.4f}"))
                lines.append(f"    {eq.value:6s} {sc.label:26s} "
                             f"order={rep.fitted_order:.3f} r2={rep.fit_r2:.4f}")
    ok = not failures
    announce(5, ok, f"convergence orders over {len(lines)} equation/scenario "
             f"cells; failures: {failures or 'none'}", budget.elapsed)
    for line in lines:
        print(line)
    assert ok, failures
    budget.check()


def test_criterion_6_flat_geodesic_sanity():
    budget = Budget(10.0)
    sc = build(ScenarioSpec("flat-euclidean/ruled"))
    worst = 0.0
    for eq in (EquationId.E3_1, EquationId.E4_4, EquationId.E6_5):
        for eps in DEFAULT_LADDER:
            smp = residual(eq, sc, sc.s_eval, eps)
            worst = max(worst, smp.residual_norm)
    ok = worst < 1e-10
    announce(6, ok, f"flat-geodesic residual worst {worst:.2e} for "
             "deviation/velocity/acceleration equations", budget.elapsed)
    assert ok
    budget.check()


def _latitude_product_integration(theta0: float, strips: int) -> np.ndarray:
    """Independent holonomy oracle: ordered product of midpoint propagators
    along the latitude circle, no ODE library involved."""
    def generator(phi):  # (len(phi), 2, 2), constant along the latitude
        g = np.zeros((len(phi), 2, 2))
        g[:, 0, 1] = math.sin(theta0) * math.cos(theta0)
        g[:, 1, 0] = -1.0 / math.tan(theta0)
        return g

    du = 2.0 * math.pi / strips
    a = generator((np.arange(strips) + 0.5) * du) * du
    steps = np.broadcast_to(np.eye(2), a.shape).copy()
    acc = steps.copy()
    for k in range(1, 7):  # 6-term Taylor propagator of each strip
        acc = acc @ a / k
        steps = steps + acc
    return _ordered_product(steps)


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """``mats[-1] @ ... @ mats[1] @ mats[0]`` for a ``(n, d, d)`` stack, by
    pairwise products, later matrices on the left."""
    while len(mats) > 1:
        even = len(mats) // 2 * 2
        mats = np.concatenate((mats[1:even:2] @ mats[:even:2], mats[even:]))
    return mats[0]


def test_ordered_product_matches_the_sequential_product():
    # the pairwise reduction keeps the order of non-commuting factors; the
    # counts hit an odd remainder at several levels
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 7, 625):
        mats = np.eye(3) + 0.1 * rng.standard_normal((n, 3, 3))
        loop = np.eye(3)
        for m in mats:
            loop = m @ loop
        prod = _ordered_product(mats)
        assert np.abs(prod - loop).max() <= 1e-12 * np.abs(loop).max()


def test_criterion_7_holonomy_oracle():
    budget = Budget(30.0)
    sc = build(ScenarioSpec("sphere"))
    from geodev.cli import _latitude_path
    worst_ode = worst_oracle = 0.0
    for theta0 in (math.pi / 6, math.pi / 4, math.pi / 3):
        alpha = 2.0 * math.pi * math.cos(theta0)
        st = math.sin(theta0)
        rotation = np.array([[math.cos(alpha), math.sin(alpha) * st],
                             [-math.sin(alpha) / st, math.cos(alpha)]])
        path = _latitude_path(theta0)
        ode = transport_matrix(sc.law, path, 0.0, 2.0 * math.pi)
        oracle = _latitude_product_integration(theta0, 40_000)
        worst_ode = max(worst_ode, float(np.abs(ode - rotation).max()))
        worst_oracle = max(worst_oracle, float(np.abs(oracle - rotation).max()))
    ok = worst_ode < 1e-6 and worst_oracle < 1e-6
    announce(7, ok, f"latitude holonomy vs rotation by 2 pi cos(theta0): "
             f"ODE worst {worst_ode:.2e}, product-integration oracle worst "
             f"{worst_oracle:.2e}", budget.elapsed)
    assert ok
    budget.check()


def test_criterion_8_determinism(tmp_path):
    budget = Budget(60.0)
    config = {
        "scenario": "flat-torsion",
        "run": {"equations": ["E4_4", "E2_13", "E5_1"],
                "epsilon_ladder": [1e-1, 5e-2, 2e-2, 1e-2, 5e-3]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    texts = []
    for sub in ("run_a", "run_b"):
        out = tmp_path / sub
        code = cli_main(["converge", "--config", str(cfg_path), "--out",
                         str(out), "--quiet"])
        assert code == 0
        texts.append((out / "report.json").read_text())
    stripped = [strip_timing(json.loads(t)) for t in texts]
    from geodev.cli import dump_json
    ok = dump_json(stripped[0]) == dump_json(stripped[1])
    announce(8, ok, "two converge runs produce identical report.json "
             "(timing fields excluded)", budget.elapsed)
    assert ok
    budget.check()

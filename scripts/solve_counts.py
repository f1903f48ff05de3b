"""Deterministic transport and surface work of three convergence studies
and one holonomy.

    python3 scripts/solve_counts.py

Runs ``convergence_study`` with the ``geodev`` package of this checkout's
``src/`` on offset-transport with ``LINEAR_DRIFT_MASSES`` (a freshly built
scenario per study), the default ladder and the default ``s_eval``, for the
13 equations that never difference the deviation vector, for all 16
equations, and for the 3 deviation equations; then the sphere's transport
once around the latitude circle at pi/4 (the solve of ``geodev inspect
--what transport --latitude 0.785...``).  Every ODE solve of the package
goes through ``transport._integrate``; the script counts those calls
(solves), the right-hand-side evaluations they make, and the
``TransportLaw.coefficients`` calls made inside them (``coeff_evals``: the
generator M(u) is memoized on the path, so this is one per distinct (path,
parameter) of the study, not one per solve), and prints one JSON object.
A solve makes 2 RHS calls to pick its first step and then one per
stage of its Runge-Kutta pair in each attempted step (6 for the RK 5(4) of
``pullback_integral``, 12 for the DOP853 of ``transport_components``);
``attempted_steps`` is derived from that, solve by solve.

It also counts, per run, the calls of each surface family's ``jets`` by the
order they ask for (``jets_calls``; ``"all"`` where ``jets(s, r)`` takes no
order and returns every partial) and how often the study's workspace computes
each quantity of (s, r') alone, such as Gamma, R or S (``base_evals``, one
entry per workspace memo key of ``BASE_KEYS``).  Both are counted by wrapping
``scenarios._surface`` and ``equations._Workspace._get`` here, so the script
runs unchanged on checkouts before and after the base memo.

Three work counts trace a cheaper RHS to less work and not to fewer checks:
``path_reads`` (calls of ``PathCurve.map`` and ``PathCurve.tangent``),
``points_built`` (``ChartPoint`` constructions) and ``checks`` (calls of
``geometry.checked_array``, the package's one shape-and-finiteness check,
wherever a module has bound it).  They too are counted by wrappers installed
from here.  The counts do not depend on the machine.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import geodev.equations as equations  # noqa: E402
import geodev.geometry as geometry  # noqa: E402
import geodev.kinematics as kinematics  # noqa: E402
import geodev.scenarios as scenarios  # noqa: E402
import geodev.transport as transport  # noqa: E402
from geodev.cli import _latitude_path  # noqa: E402
from geodev.equations import (DEFAULT_LADDER, EquationId,  # noqa: E402
                              convergence_study)
from geodev.scenarios import (LINEAR_DRIFT_MASSES, ScenarioSpec,  # noqa: E402
                              build)

DEVIATION = (EquationId.E2_13, EquationId.E4_1, EquationId.E6_3)
STUDIES = {
    "relative_13": [eq for eq in EquationId if eq not in DEVIATION],
    "all_16": list(EquationId),
    "deviation_3": list(DEVIATION),
}
# workspace memo keys of the quantities that depend on (s, r') and not on eps
BASE_KEYS = ("map", "d_s", "d_r", "d_sr", "x1pt", "gam", "dgam", "a1", "T", "R",
             "S", "DT", "DS", "g", "Dg", "DFdr")
JETS_CALLS = Counter()  # filled by the jets of scenarios built under main()
# (owner, attribute, work count) of every call counted by ``work_counts``
WORK_CALLS = ([(geometry.PathCurve, "map", "path_reads"),
               (geometry.PathCurve, "tangent", "path_reads"),
               (geometry.ChartPoint, "__init__", "points_built")]
              + [(module, "checked_array", "checks")
                 for module in (geometry, transport, kinematics, equations)
                 if "checked_array" in vars(module)])


def counting_surface(surface):
    """``scenarios._surface`` whose ``jets`` count their calls by order."""
    def make(jets, s_domain, r_domain):
        def counted_jets(s, r, *order):
            JETS_CALLS[order[0] if order else "all"] += 1
            return jets(s, r, *order)
        return surface(counted_jets, s_domain, r_domain)
    return make


def work_counts(work) -> Counter:
    """Counts of ``WORK_CALLS`` made by ``work()``."""
    counts = Counter()

    def counting(fn, key):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in WORK_CALLS]
    for (owner, attr, key), (_, _, fn) in zip(WORK_CALLS, originals):
        setattr(owner, attr, counting(fn, key))
    try:
        work()
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
    return counts


def counted(work) -> dict:
    """Counts of the solves, surface jets and base quantities of ``work()``."""
    counts = {"solves": 0, "rhs_calls": 0, "coeff_evals": 0, "attempted_steps": 0}
    integrate, coefficients = transport._integrate, transport.TransportLaw.coefficients
    get = equations._Workspace._get
    inside = [False]
    base_evals = Counter()

    def counting(law, path, rhs, y0, s, t, cfg, tableau):
        counts["solves"] += 1
        calls = [0]

        def counted_rhs(u, m, y):
            calls[0] += 1
            return rhs(u, m, y)
        inside[0] = True
        try:
            return integrate(law, path, counted_rhs, y0, s, t, cfg, tableau)
        finally:
            inside[0] = False
            counts["rhs_calls"] += calls[0]
            counts["attempted_steps"] += (calls[0] - 2) // len(tableau.b)

    def counting_coefficients(law, s, path):
        if inside[0]:  # s_tensor also reads coefficients, outside any solve
            counts["coeff_evals"] += 1
        return coefficients(law, s, path)

    def counting_get(workspace, key, fn):
        def evaluate():
            if key[0] in BASE_KEYS:
                base_evals[key[0]] += 1
            return fn()
        return get(workspace, key, evaluate)

    transport._integrate = counting
    transport.TransportLaw.coefficients = counting_coefficients
    equations._Workspace._get = counting_get
    JETS_CALLS.clear()
    try:
        work_done = work_counts(work)
    finally:
        transport._integrate = integrate
        transport.TransportLaw.coefficients = coefficients
        equations._Workspace._get = get
    counts["jets_calls"] = {str(k): n for k, n in sorted(JETS_CALLS.items(), key=str)}
    counts["base_evals"] = {k: base_evals[k] for k in BASE_KEYS if base_evals[k]}
    counts["base_evals_total"] = sum(base_evals.values())
    counts.update((key, work_done[key]) for _, _, key in WORK_CALLS)
    return counts


def main() -> None:
    scenarios._surface = counting_surface(scenarios._surface)
    out = {}
    for name, eqs in STUDIES.items():
        # a fresh scenario per study: its surface memo keeps the points of
        # earlier studies, which would make the counts depend on run order
        scenario = build(ScenarioSpec("offset-transport", LINEAR_DRIFT_MASSES))
        out[name] = counted(lambda: convergence_study(
            eqs, scenario, scenario.s_eval, DEFAULT_LADDER))
        out[name]["solves_per_eps"] = out[name]["solves"] / len(DEFAULT_LADDER)
    sphere = build(ScenarioSpec("sphere"))
    out["sphere_latitude_holonomy"] = counted(lambda: transport.transport_matrix(
        sphere.law, _latitude_path(math.pi / 4), 0.0, 2.0 * math.pi))
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()

"""Deterministic transport and surface work of three convergence studies
and one holonomy.

    python3 scripts/solve_counts.py

Runs ``convergence_study`` with the ``geodev`` package of this checkout's
``src/`` on offset-transport with ``LINEAR_DRIFT_MASSES`` (a freshly built
scenario per study), the default ladder and the default ``s_eval``, for the
13 equations that never difference the deviation vector, for all 16
equations, and for the 3 deviation equations; then the sphere's transport
once around the latitude circle at pi/4 (the solve of ``geodev inspect
--what transport --latitude 0.785...``), and prints one JSON object.

The transport work is read from the package's own counters
(``transport.work_counts``): ``solves`` (one per lane: a convergence study
solves the pull-backs of its whole ladder along one connecting path as the
lanes of one solve), ``stacked_attempts`` (Magnus step computations: one
stack of the first attempts of all lanes of a solve, then one per further
attempt; a DOP853 step has one lane and is not counted here),
``attempted_steps`` (summed over the lanes), ``generator_evals`` (the
generator values the steppers take, each step's read in one stacked call:
3 per lane of a Magnus attempt; 2 to start and 11 per attempted DOP853
step) and ``continued_lanes`` (lanes that their first attempt did not
finish and that go on stepping).  The same counters give the surface work:
``jets_calls``, the calls of the surface family's point ``jets`` by the
order they ask for, and ``surface_stacks`` and ``surface_stack_points``, its
stacked calls (one per Magnus attempt on a connecting path) and the points
they evaluate.

It also counts how often the study's workspace computes each quantity of
(s, r') alone, such as Gamma, R or S (``base_evals``, one entry per
workspace memo key of ``BASE_KEYS``), by wrapping ``equations._Workspace._get``
here, as are four work counts that trace a cheaper RHS to less work and not
to fewer checks: ``path_reads`` (calls of ``PathCurve.map`` and
``PathCurve.tangent``), ``path_stacks`` (calls of ``PathCurve.points``),
``points_built`` (``ChartPoint`` constructions) and ``checks`` (calls of
``geometry.checked_array`` and of its stacked form ``_checked_stack``,
wherever a module has bound them).  The counts do not depend on the machine.
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
# the counters of transport.work_counts
TRANSPORT_KEYS = ("solves", "stacked_attempts", "attempted_steps", "generator_evals",
                  "continued_lanes", "surface_stacks", "surface_stack_points")
# (owner, attribute, work count) of every call counted by ``call_counts``
WORK_CALLS = ([(geometry.PathCurve, "map", "path_reads"),
               (geometry.PathCurve, "tangent", "path_reads"),
               (geometry.PathCurve, "points", "path_stacks"),
               (geometry.ChartPoint, "__init__", "points_built")]
              + [(module, name, "checks")
                 for module in (geometry, transport, kinematics, equations)
                 for name in ("checked_array", "_checked_stack") if name in vars(module)])


def call_counts(work) -> Counter:
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
    """Counts of the transport work, surface jets and base quantities of
    ``work()``."""
    get = equations._Workspace._get
    base_evals = Counter()

    def counting_get(workspace, key, fn):
        def evaluate():
            if key[0] in BASE_KEYS:
                base_evals[key[0]] += 1
            return fn()
        return get(workspace, key, evaluate)

    equations._Workspace._get = counting_get
    try:
        with transport.work_counts() as work_done:
            work_done.update(call_counts(work))
    finally:
        equations._Workspace._get = get
    counts = {key: work_done[key] for key in TRANSPORT_KEYS}
    counts["jets_calls"] = {str(order): work_done[f"jets_order_{order}"]
                            for order in (1, 2) if work_done[f"jets_order_{order}"]}
    counts["base_evals"] = {k: base_evals[k] for k in BASE_KEYS if base_evals[k]}
    counts["base_evals_total"] = sum(base_evals.values())
    counts.update((key, work_done[key]) for _, _, key in WORK_CALLS)
    return counts


def main() -> None:
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

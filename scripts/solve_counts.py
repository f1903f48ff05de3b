"""Deterministic transport, surface and residual work of four convergence
studies and one holonomy.

    python3 scripts/solve_counts.py

Runs ``convergence_study`` with the ``geodev`` package of this checkout's
``src/`` with ``LINEAR_DRIFT_MASSES`` (a freshly built scenario per study),
the default ladder and the default ``s_eval``: on offset-transport for the
13 equations that never difference the deviation vector, for all 16
equations, and for the 3 deviation equations, and on flat-torsion, whose
constant Gamma is read on the same stacks as the sphere's, for all 16
equations (``all_16_flat_torsion``, so that the Gamma work of the two kinds
of connection can be compared); then the sphere's transport
once around the latitude circle at pi/4 (the solve of ``geodev inspect
--what transport --latitude 0.785...``), and prints one JSON object.

The transport work is read from the package's own counters
(``transport.work_counts``): ``solves`` (one per lane: a convergence study
solves the pull-backs of its whole ladder along the connecting path of
every s its equations read as the lanes of one solve), ``stacked_attempts``
(Magnus step computations: one stack of the first attempts of all lanes of
a solve, so one per study and one per holonomy, then one per further
attempt of a lane), ``attempted_steps`` (summed over the lanes),
``generator_evals`` (the generator values the stepper takes, each
attempt's read in one stacked call: 3 per lane of an attempt) and
``continued_lanes`` (lanes that their first attempt did not
finish and that go on stepping).  The same counters give the surface work,
its calls of the family's ``jets`` (``WorldSurface.read``), all on rows:
``surface_stacks`` and ``surface_stack_points``, its calls and the rows
they evaluate: one per Magnus attempt, which reads the Gauss nodes of all
its connecting paths at once, and one per study, which reads the six
partials at r' and at every r'' of each s its equations declare in one
order-2 call when a formula first asks for one (``kinematics._Ladder``'s
grid reads).  They also give
the residual work: ``residual_evals``, the calls of the residual formulas
(one per equation and study: each formula evaluates the whole ladder as one
stack), and ``residual_lanes``, the separations those calls cover.

Four more work counts, which trace a cheaper RHS to less work and not to
fewer checks, are counted by wrapping the calls here: ``path_reads``
(calls of ``PathCurve.map`` and ``PathCurve.tangent``), ``path_stacks``
(calls of ``geometry.read_points``, the one stacked read of paths, which
``PathCurve.points`` and each Magnus attempt make), ``points_built``
(``ChartPoint`` constructions) and ``checks`` (calls of
``geometry.checked_array`` and of its stacked form ``_checked_stack``);
``path_stacks`` and ``checks`` count a call wherever a module has bound
the function.  The counts do not depend on the
machine.

``tests/work_counts.json`` is this output, and a tier-1 test recomputes it
through ``work()`` and compares exactly: a change that changes the work
re-records it with ``python3 scripts/solve_counts.py > tests/work_counts.json``.
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
STUDIES = {  # name: (family, equations)
    "relative_13": ("offset-transport", [eq for eq in EquationId if eq not in DEVIATION]),
    "all_16": ("offset-transport", list(EquationId)),
    "deviation_3": ("offset-transport", list(DEVIATION)),
    "all_16_flat_torsion": ("flat-torsion", list(EquationId)),
}
# the counters of transport.work_counts
WORK_KEYS = ("solves", "stacked_attempts", "attempted_steps", "generator_evals",
             "continued_lanes", "surface_stacks", "surface_stack_points",
             "residual_evals", "residual_lanes")
# (owner, attribute, work count) of every call counted by ``call_counts``
MODULES = (geometry, transport, kinematics, equations)
WORK_CALLS = ([(geometry.PathCurve, "map", "path_reads"),
               (geometry.PathCurve, "tangent", "path_reads")]
              + [(module, "read_points", "path_stacks")
                 for module in MODULES if "read_points" in vars(module)]
              + [(geometry.ChartPoint, "__init__", "points_built")]
              + [(module, name, "checks") for module in MODULES
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
    """Counts of the transport, surface and residual work of ``work()``."""
    with transport.work_counts() as work_done:
        work_done.update(call_counts(work))
    counts = {key: work_done[key] for key in WORK_KEYS}
    counts.update((key, work_done[key]) for _, _, key in WORK_CALLS)
    return counts


def work() -> dict:
    """The counts ``main`` prints, by study."""
    out = {}
    for name, (family, eqs) in STUDIES.items():
        scenario = build(ScenarioSpec(family, LINEAR_DRIFT_MASSES))
        out[name] = counted(lambda: convergence_study(
            eqs, scenario, scenario.s_eval, DEFAULT_LADDER))
        out[name]["solves_per_eps"] = out[name]["solves"] / len(DEFAULT_LADDER)
    sphere = build(ScenarioSpec("sphere"))
    out["sphere_latitude_holonomy"] = counted(lambda: transport.transport_matrix(
        sphere.law, _latitude_path(math.pi / 4), 0.0, 2.0 * math.pi))
    return out


def main() -> None:
    print(json.dumps(work(), indent=1))


if __name__ == "__main__":
    main()

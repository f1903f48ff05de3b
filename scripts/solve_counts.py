"""Deterministic transport work of three convergence studies.

    python3 scripts/solve_counts.py

Runs ``convergence_study`` with the ``geodev`` package of this checkout's
``src/`` on offset-transport with ``LINEAR_DRIFT_MASSES``, the default ladder
and the default ``s_eval``, for the 13 equations that never difference the
deviation vector, for all 16 equations, and for the 3 deviation equations.
Every ODE solve of the package goes through ``transport._integrate``; the
script counts those calls (solves) and the right-hand-side evaluations they
make, and prints one JSON object.  The counts do not depend on the machine.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import geodev.transport as transport  # noqa: E402
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


def counted_study(equations, scenario) -> dict:
    counts = {"solves": 0, "rhs_calls": 0}
    integrate = transport._integrate

    def counting(law, path, rhs, *args, **kwargs):
        counts["solves"] += 1

        def counted_rhs(u, m, y):
            counts["rhs_calls"] += 1
            return rhs(u, m, y)
        return integrate(law, path, counted_rhs, *args, **kwargs)

    transport._integrate = counting
    try:
        convergence_study(equations, scenario, scenario.s_eval, DEFAULT_LADDER)
    finally:
        transport._integrate = integrate
    counts["solves_per_eps"] = counts["solves"] / len(DEFAULT_LADDER)
    return counts


def main() -> None:
    scenario = build(ScenarioSpec("offset-transport", LINEAR_DRIFT_MASSES))
    print(json.dumps({name: counted_study(eqs, scenario)
                      for name, eqs in STUDIES.items()}, indent=1))


if __name__ == "__main__":
    main()

"""Draw the candidate pool and record each candidate's reference result.

    python3 perfbench/record.py

Redraws and re-records every workload, rewriting ``perfbench/pool.json``.
Family parameters are drawn uniformly from the ranges
``geodev.scenarios.list_scenarios()`` publishes; each candidate is run once
through ``geodev.cli.main`` and its exit code, per-equation status, floor
flag, fitted order and largest residual (converge), or its holonomy matrix
(inspect), are stored as the reference that ``run.py`` checks against.  Run
it only on the commit whose outputs should become the reference.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import pool

CANDIDATES = {"deviation-quadrature": 8, "converge-relative": 8,
              "transport-holonomy": 4}


def main() -> int:
    cli = pool.import_cli()
    from geodev import __version__
    from geodev.scenarios import list_scenarios
    schemas = {fam["name"]: fam["parameters"] for fam in list_scenarios()}
    work = pool.OUT_DIR / "record"
    shutil.rmtree(work, ignore_errors=True)
    recorded = {}
    for workload, slots in pool.SLOTS.items():
        recorded[workload] = []
        for slot in range(len(slots)):
            cands = []
            for index in range(CANDIDATES[workload]):
                cand = pool.draw_candidate(workload, slot, index, schemas)
                config_path = work / f"{workload}-{slot}-{index}.json"
                out_dir = work / f"{workload}-{slot}-{index}"
                pool.write_config(cand, config_path)
                start = time.perf_counter()
                code, stdout = pool.invoke(
                    cli.main, pool.argv_for(cand, config_path, out_dir))
                cand["expect"] = pool.summarize(cand, code, out_dir, stdout)
                problem = pool.mismatch(cand, cand["expect"])
                if problem:
                    raise SystemExit(f"{workload} slot {slot} candidate {index}: "
                                     f"{problem}")
                cands.append(cand)
                print(f"{workload} slot {slot} candidate {index}: exit {code} "
                      f"in {time.perf_counter() - start:.2f} s", file=sys.stderr)
            recorded[workload].append(cands)
    payload = {"geodev_version": __version__, "workloads": recorded}
    pool.POOL_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

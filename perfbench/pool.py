"""Workload inputs: the recorded candidate pool, seeded selection, CLI
arguments for each input, and the output checks.

``pool.json`` holds, per workload, a list of slots; each slot holds a few
candidate inputs whose family parameters were drawn uniformly from the
ranges ``geodev.scenarios.list_scenarios()`` publishes (see ``record.py``),
together with the reference result recorded for each candidate.  A run
picks one candidate per slot from its ``--seed``, so any integer seed gives
a reproducible input set that has a reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
POOL_PATH = BENCH_DIR / "pool.json"
OUT_DIR = BENCH_DIR / "out"

# Threshold of `geodev converge` (its default), used to classify reports.
ORDER_THRESHOLD = 1.9
# ROADMAP bound on fitted orders between two versions of the program.
ORDER_TOL = 1e-3
# Acceptance-criterion-7 bound on the latitude holonomy.
HOLONOMY_TOL = 1e-6
# An equation whose residual stays below this level on the whole ladder sits
# on the solver's roundoff floor (100 x geodev's fit-exclusion level 1e-10).
# Its fitted order, floor flag and status are a fit to noise that moves with
# any change in the order of arithmetic, so for it the check asks only that
# the residual stays below this level; the call's exit code is checked as for
# every call.  Recorded residuals fall either below 1.5e-9 or above 2e-7.
NOISE_LEVEL = 1e-8

DEVIATION_EQUATIONS = ["E2_13", "E4_1", "E6_3"]
RELATIVE_EQUATIONS = ["E2_10", "E3_1", "E4_3", "E4_4", "E4_5", "E5_1", "E5_2",
                      "E6_2", "E6_4", "E6_5", "E7_1", "E7_2", "E7_4"]

# Latitudes are stratified over [LAT_LO, LAT_HI] so that every input set
# spans the same mix of short (near-equator) and long (near-pole) solves.
# The offset-transport `sigma`, which changes a holonomy solve's length
# several-fold, is stratified too, its strata paired with the latitude
# strata by a fixed permutation (a Latin square).
LAT_LO, LAT_HI, LAT_STRATA = 0.1, math.pi - 0.1, 32
SIGMA_STRATUM = random.Random("sigma strata").sample(range(LAT_STRATA), LAT_STRATA)

# workload -> list of slots; a slot is (kind, family, stratum or None).
# Each pass makes one call per slot.  The converge workloads have an odd
# number of slots so that the median call is the middle of a block of calls
# of one slot, not the edge between two blocks of different cost.
SLOTS = {
    "deviation-quadrature": [
        ("converge", family, None)
        for family in ("sphere", "flat-euclidean/quadratic", "offset-transport")],
    "converge-relative": [
        ("converge", family, None)
        for family in ("offset-transport", "sphere", "minkowski", "flat-torsion") * 2
        + ("offset-transport",)],
    "transport-holonomy": [
        ("holonomy", family, stratum)
        for stratum in range(LAT_STRATA)
        for family in ("sphere", "offset-transport")],
}
EQUATIONS = {"deviation-quadrature": DEVIATION_EQUATIONS,
             "converge-relative": RELATIVE_EQUATIONS}


def import_cli():
    """Import ``geodev.cli`` from the checkout's own sources; exits with an
    error when they are missing."""
    if not (SRC_DIR / "geodev" / "__init__.py").is_file():
        raise SystemExit(f"geodev sources not found under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import geodev.cli
    if Path(geodev.cli.__file__).resolve().parent != (SRC_DIR / "geodev").resolve():
        raise SystemExit(f"imported geodev from {geodev.cli.__file__}, not {SRC_DIR}")
    return geodev.cli


def draw_params(rng: random.Random, schema: dict) -> dict:
    """One uniform draw of every published family parameter."""
    params = {}
    for key in sorted(schema):
        spec = schema[key]
        if key == "dim":
            params[key] = rng.randint(int(spec["min"]), int(spec["max"]))
        else:
            params[key] = rng.uniform(spec["min"], spec["max"])
    return params


def _in_stratum(rng: random.Random, lo: float, hi: float, stratum: int) -> float:
    width = (hi - lo) / LAT_STRATA
    return rng.uniform(lo + stratum * width, lo + (stratum + 1) * width)


def draw_candidate(workload: str, slot: int, index: int, schemas: dict) -> dict:
    """Candidate ``index`` of a slot, fully determined by its position."""
    kind, family, stratum = SLOTS[workload][slot]
    rng = random.Random(f"{workload}|{slot}|{index}")
    params = draw_params(rng, schemas[family])
    config = {"scenario": family, "params": params}
    cand = {"kind": kind, "config": config}
    if kind == "converge":
        config["run"] = {"equations": list(EQUATIONS[workload])}
    else:
        cand["latitude"] = _in_stratum(rng, LAT_LO, LAT_HI, stratum)
        if "sigma" in params:
            spec = schemas[family]["sigma"]
            params["sigma"] = _in_stratum(rng, spec["min"], spec["max"],
                                          SIGMA_STRATUM[stratum])
    return cand


def load_pool() -> dict:
    return json.loads(POOL_PATH.read_text())


def select(pool: dict, workload: str, seed: int) -> list:
    """One candidate per slot, chosen by the seed; slot order is fixed."""
    slots = pool["workloads"][workload]
    rng = random.Random(f"{workload}|seed|{seed}")
    return [slot[rng.randrange(len(slot))] for slot in slots]


def write_config(cand: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cand["config"], indent=1, sort_keys=True) + "\n")


def invoke(main, argv: list):
    """Run ``geodev.cli.main(argv)`` in-process, capturing what it prints;
    returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def argv_for(cand: dict, config_path: Path, out_dir: Path) -> list:
    if cand["kind"] == "converge":
        return ["converge", "--config", str(config_path), "--out", str(out_dir),
                "--quiet"]
    return ["inspect", "--config", str(config_path), "--what", "transport",
            "--latitude", repr(cand["latitude"])]


# --------------------------------------------------------------- outputs

def report_status(rep: dict) -> str:
    if rep["exact"]:
        return "exact"
    if rep["fitted_order"] is None:
        return "floor"
    return "ok" if rep["fitted_order"] >= ORDER_THRESHOLD else "fail"


def summarize(cand: dict, code: int, out_dir: Path, stdout: str) -> dict:
    """Reduce one call's outputs to the fields the reference records."""
    result = {"exit": code}
    if code not in (0, 1):
        return result
    if cand["kind"] == "converge":
        payload = json.loads((out_dir / "report.json").read_text())
        result["equations"] = {
            rep["equation"]: {
                "status": report_status(rep),
                "floor": rep["floor_detected"],
                "order": rep["fitted_order"],
                "max_residual": max(smp["residual_norm"] for smp in rep["samples"])}
            for rep in payload["reports"]}
    else:
        result["matrix"] = json.loads(stdout)["components"]
    return result


def rotation(theta0: float) -> list:
    """Closed-form sphere holonomy around the latitude ``theta0``: rotation
    by ``2 pi cos(theta0)`` written in chart components."""
    alpha = 2.0 * math.pi * math.cos(theta0)
    st = math.sin(theta0)
    return [[math.cos(alpha), math.sin(alpha) * st],
            [-math.sin(alpha) / st, math.cos(alpha)]]


def _max_diff(a: list, b: list) -> float:
    if len(a) != len(b) or any(len(x) != len(y) for x, y in zip(a, b)):
        return math.inf
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mismatch(cand: dict, got: dict):
    """None when ``got`` agrees with the candidate's reference, else a short
    description of the first disagreement."""
    want = cand["expect"]
    if got["exit"] != want["exit"]:
        return f"exit {got['exit']} != {want['exit']}"
    if "equations" in want:
        if set(got.get("equations", ())) != set(want["equations"]):
            return "equation set differs"
        for eq, ref in want["equations"].items():
            rep = got["equations"][eq]
            if ref["max_residual"] < NOISE_LEVEL:
                if rep["max_residual"] >= NOISE_LEVEL:
                    return f"{eq}: residual {rep['max_residual']:.3g} left the " \
                           f"roundoff floor"
                continue
            if rep["status"] != ref["status"] or rep["floor"] != ref["floor"]:
                return f"{eq}: {rep['status']}/{rep['floor']} != " \
                       f"{ref['status']}/{ref['floor']}"
            if (rep["order"] is None) != (ref["order"] is None):
                return f"{eq}: order {rep['order']} != {ref['order']}"
            if ref["order"] is not None and abs(rep["order"] - ref["order"]) > ORDER_TOL:
                return f"{eq}: order {rep['order']:.6f} != {ref['order']:.6f}"
    if "matrix" in want:
        if _max_diff(got.get("matrix", []), want["matrix"]) > HOLONOMY_TOL:
            return "holonomy differs from the recorded matrix"
        if (cand["config"]["scenario"] == "sphere"
                and _max_diff(got["matrix"], rotation(cand["latitude"])) > HOLONOMY_TOL):
            return "holonomy differs from the closed-form rotation"
    return None

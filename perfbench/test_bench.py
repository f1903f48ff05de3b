"""Self-checks of the benchmark (not part of the repository's test suite).

    python3 -m pytest -q perfbench/test_bench.py

The traced run's work counts must repeat exactly for the same seed, so that
a later change in a count can be traced to the program and not to the
benchmark.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("deviation-quadrature", "converge-relative", "transport-holonomy")
COUNT_UNITS = ("count", "bytes")


def _run(cwd: Path, workload: str, seed: int, trace: int):
    script = cwd / BENCH_DIR.name / "run.py"
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _counts(workload: str, seed: int) -> dict:
    proc = _run(ROOT, workload, seed, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS or name.endswith("delta_unique_ratio")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_the_same_seed(workload):
    first = _counts(workload, seed=3)
    assert first["transport.solves"] > 0
    assert _counts(workload, seed=3) == first


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "transport-holonomy", seed=1, trace=0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

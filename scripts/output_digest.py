"""Digest of everything ``geodev converge`` and ``geodev inspect`` write,
apart from timing fields.

    python3 scripts/output_digest.py > digest.txt

Runs ``geodev.cli.main`` in-process, with the ``geodev`` package of this
checkout's ``src/``: ``converge`` on every cell of ``EQUATION_SCENARIOS``
(the cell's scenario and parameters, its one equation, default ladder and
``s_eval``) and on every converge candidate of ``perfbench/pool.json`` (read
only), and ``inspect --what transport --latitude`` on every holonomy
candidate of the pool.  For each call it prints one line: a label and the
sha256 of the exit code, stdout, stderr, ``report.json`` without
``wall_time_ms`` / ``total_wall_time_ms`` and ``samples.csv`` without its
timing column (``inspect`` writes neither file).

Two versions of the program give the same outputs when the digests of two
checkouts are equal, e.g. for a change against its parent::

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    cp scripts/output_digest.py ../parent/scripts/   # if it lacks one
    python3 ../parent/scripts/output_digest.py > parent.txt
    python3 scripts/output_digest.py > change.txt
    diff parent.txt change.txt

``tests/output_digest.txt`` is this output, and a tier-1 test recomputes it
through ``lines()`` and compares exactly: a change that moves an output on
purpose re-records it with ``python3 scripts/output_digest.py >
tests/output_digest.txt`` and says which lines moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from geodev.cli import main  # noqa: E402
from geodev.scenarios import EQUATION_SCENARIOS  # noqa: E402

POOL = ROOT / "perfbench" / "pool.json"
TIMING_FIELD = re.compile(r'("(?:total_)?wall_time_ms": )[-+0-9.eE]+')


def calls():
    """(label, config, inspect flags or None for converge) for every cell
    and every pool candidate."""
    for eq, specs in EQUATION_SCENARIOS.items():
        for spec in specs:
            yield (f"cell {eq.value} {spec.name}",
                   {"scenario": spec.name, "params": dict(spec.parameters),
                    "run": {"equations": [eq.value]}}, None)
    pool = json.loads(POOL.read_text())
    for workload, slots in pool["workloads"].items():
        for i, slot in enumerate(slots):
            for j, cand in enumerate(slot):
                flags = (None if cand["kind"] == "converge" else
                         ["--what", "transport", "--latitude",
                          repr(cand["latitude"])])
                yield f"pool {workload} {i} {j}", cand["config"], flags


def _strip_csv_timing(text: str) -> str:
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


def digest(config: dict, inspect_flags, workdir: Path) -> str:
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config))
    out_dir = workdir / "out"
    argv = (["converge", "--config", str(config_path), "--out", str(out_dir)]
            if inspect_flags is None else
            ["inspect", "--config", str(config_path)] + inspect_flags)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    report = out_dir / "report.json"
    samples = out_dir / "samples.csv"
    parts = [str(code), out.getvalue(), err.getvalue(),
             TIMING_FIELD.sub(r"\1_", report.read_text())
             if report.exists() else "<no report.json>",
             _strip_csv_timing(samples.read_text())
             if samples.exists() else "<no samples.csv>"]
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def lines():
    """The digest, one ``<sha256>  <label>`` line per call."""
    for label, config, inspect_flags in calls():
        with tempfile.TemporaryDirectory() as tmp:
            yield f"{digest(config, inspect_flags, Path(tmp))}  {label}"


def run() -> None:
    for line in lines():
        print(line, flush=True)


if __name__ == "__main__":
    run()

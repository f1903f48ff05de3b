"""Paired benchmark runs of a parent revision against the working tree.

    python3 scripts/bench_pairs.py --parent REV --out BENCH_<n>.json \
        --workload converge-relative --seeds 2501-2510 \
        --workload transport-holonomy --seeds 2511-2515

For each ``--workload`` (with the ``--seeds`` given after it: a range
``A-B`` or a comma list) this runs ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once on each side per seed, the two runs of a seed
making one pair; T is ``BENCHMARK.json``'s ``run_seconds``.  Each run
starts from a fresh copy of its side, in a temporary directory removed
afterwards, with no bytecode cache, no ``perfbench/out`` and
``PYTHONDONTWRITEBYTECODE=1``: the parent side is ``git archive REV``, the
change side the working tree's tracked and untracked, not ignored, files.  The parent runs first in the
first, third, ... pair of each workload and the change first in the others.
Pairs run one after another, never two runs at once.

The JSON written to ``--out`` has one schema:

* ``benchmark``, ``host``, ``method``, ``parent`` (the revision and its
  commit), ``change`` (the working tree's base commit, and ``dirty`` when it
  has changes), ``claimed`` (from ``--claimed``) and ``notes`` (empty,
  for what the runs do not say by themselves);
* ``workloads``: per workload, per end-to-end metric of ``BENCHMARK.json``,
  ``parent`` and ``change`` blocks of ``median``, ``q1``, ``q3`` (quartiles
  by the inclusive method) and ``runs`` (in seed order), ``change_better_in``
  and ``parent_better_in`` (the pairs each side read better in, lower or
  higher as the metric's ``better`` says; ties count for neither, written
  ``k/n``) and ``median_change_pct``; then ``calls``, ``failed_calls`` and
  ``correct`` per side, ``seeds`` and ``first`` (the side that ran first in
  each pair).

perfbench/run.py is run as it is; nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, **kwargs)


def seeds_of(text: str) -> list:
    """``"A-B"`` as the seeds A to B, or a comma list."""
    if "-" in text:
        first, last = (int(v) for v in text.split("-"))
        return list(range(first, last + 1))
    return [int(v) for v in text.split(",")]


def copy_parent(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = _git("archive", "--format=tar", rev).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_change(dest: Path) -> None:
    names = _git("ls-files", "--cached", "--others", "--exclude-standard",
                 "-z").stdout.decode().split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is gone
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(side: str, rev: str, workload: str, seed: int, seconds: float,
             workdir: Path) -> dict:
    """One run of perfbench/run.py from a fresh copy of ``side``; returns
    its last output line, the run's JSON result."""
    tree = workdir / f"{side}-{workload}-{seed}"
    shutil.rmtree(tree, ignore_errors=True)
    if side == "parent":
        copy_parent(rev, tree)
    else:
        copy_change(tree)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{side} {workload} seed {seed} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def block(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(v, 6) for v in values]}


def summarize(runs: list, first: list, seeds: list, metrics: list) -> dict:
    """The schema's entry of one workload from its pairs ``runs``, a list
    of ``{"parent": result, "change": result}``."""
    out = {}
    pairs = len(runs)
    for metric in metrics:
        name = metric["name"]
        values = {side: [r[side]["metrics"][name]["value"] for r in runs]
                  for side in ("parent", "change")}
        sign = 1.0 if metric["better"] == "lower" else -1.0
        gaps = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
        entry = {side: block(values[side]) for side in ("parent", "change")}
        entry["change_better_in"] = f"{sum(g > 0 for g in gaps)}/{pairs}"
        entry["parent_better_in"] = f"{sum(g < 0 for g in gaps)}/{pairs}"
        base = entry["parent"]["median"]
        entry["median_change_pct"] = (
            round(100.0 * (entry["change"]["median"] - base) / base, 1) if base else None)
        out[name] = entry
    for key, read in (("calls", lambda r: r["attempted"]),
                      ("failed_calls", lambda r: r["failed"]),
                      ("correct", lambda r: r["correct"])):
        out[key] = {side: [read(r[side]) for r in runs] for side in ("parent", "change")}
    out["seeds"] = seeds
    out["first"] = first
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="parent revision")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", action="append", required=True,
                        help="seeds of the preceding --workload: A-B or A,B,...")
    parser.add_argument("--claimed", default="none",
                        help="the gain the change claims, if any")
    args = parser.parse_args(argv)
    if len(args.workload) != len(args.seeds):
        parser.error("give one --seeds after each --workload")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]
    parent_commit = _git("rev-parse", "--short", args.parent, text=True).stdout.strip()
    base = _git("rev-parse", "--short", "HEAD", text=True).stdout.strip()
    dirty = bool(_git("status", "--porcelain", text=True).stdout.strip())

    workloads = {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        for workload, seed_text in zip(args.workload, args.seeds):
            seeds = seeds_of(seed_text)
            runs, first = [], []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {side: run_once(side, args.parent, workload, seed, seconds,
                                       Path(tmp)) for side in order}
                runs.append(pair)
                first.append(order[0])
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} verify_s {pair[side]['metrics']['verify_s']['value']:.4f}"
                    for side in ("parent", "change")), file=sys.stderr, flush=True)
            workloads[workload] = summarize(runs, first, seeds, metrics)

    result = {
        "benchmark": ("python3 perfbench/run.py --workload W --seed S "
                      f"--seconds {seconds:g} --trace 0"),
        "claimed": args.claimed,
        "host": (f"{os.cpu_count()}-core {platform.system()}, "
                 f"{platform.python_implementation()} {platform.python_version()}, "
                 "PYTHONDONTWRITEBYTECODE=1; times scaled by perfbench's speed probe"),
        "method": ("alternating pairs of parent and change per workload, one pair "
                   "per seed; the parent ran first in the first, third, ... pair "
                   "and the change first in the others; each run from a fresh copy "
                   "of its side with no __pycache__ and no perfbench/out; median "
                   "and quartiles (inclusive method) over the pairs; "
                   "change_better_in and parent_better_in count the pairs in which "
                   "that side read better (ties count for neither)"),
        "parent": {"revision": args.parent, "commit": parent_commit},
        "change": {"base": base, "dirty": dirty},
        "notes": [],
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

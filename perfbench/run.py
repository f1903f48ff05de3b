"""Outside-in benchmark of the geodev command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives ``geodev.cli.main(argv)`` in this single process on config files
generated from the seed (see ``pool.py``), checks every call's outputs
against the recorded reference, and prints one result line of JSON last.

``--trace 0`` repeats passes over the generated configs until ``--seconds``
have elapsed (always finishing at least one pass) and reports the
end-to-end metrics.  ``--trace 1`` makes one pass in which every config
runs untraced and then traced, and reports the per-layer metrics of the
traced calls; their spans go to
``perfbench/out/<workload>-seed<N>/trace.jsonl``.

Machine speed on shared hosts drifts by tens of percent within a second, so
every time is scaled to a fixed reference speed.  During the timed loop a
timer signal runs a fixed SciPy ODE solve (``speed_probe``) every
``PROBE_INTERVAL_S``; the probe's own time is taken out of the measured
interval, and the interval is multiplied by ``PROBE_REF_S`` over the mean
duration of the probes in and next to it.  The garbage collector is off
during a probe, so that collecting the program's heap is not charged to the
probe.  Set-ups run in child processes that scale themselves the same way
(``setup_probe.py``).  The unscaled times are printed as comment lines.
"""

from __future__ import annotations

import argparse
import gc
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.integrate import solve_ivp  # noqa: E402

import pool  # noqa: E402

WORKLOADS = tuple(pool.SLOTS)
SETUP_REPEATS = 3
PROBE_REF_S = 0.01        # reference duration of one speed probe
PROBE_INTERVAL_S = 0.2    # timer period of the speed probes
WALL_LIMIT = 1.5          # a timed loop ends after this many times --seconds
CHILD_TIMEOUT_S = 120

# Percentile level of call_ms_p90, fixed per workload so that it does not
# move with the number of calls a run completes.  It is the p90 where that
# has ten calls beyond it, else the highest level that has, taken at the
# middle of one slot's block of calls (slots of different cost sort into
# separate blocks) and never below the median.  The calls are counted at the
# fewest complete passes that twenty baseline runs made: converge-relative 3
# passes of 9 calls (most runs made 4), transport-holonomy 7 of 64.
# deviation-quadrature makes one pass of 3 calls, so there it is the median.
P90_LEVEL = {"deviation-quadrature": 50.0,
             "converge-relative": 100.0 * 5.5 / 9,
             "transport-holonomy": 90.0}

_ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])
_TIMING_FIELD = re.compile(r'("(?:total_)?wall_time_ms": )[-+0-9.eE]+')


# ------------------------------------------------------------ machine speed

def speed_probe() -> float:
    """Seconds taken by a fixed workload resembling geodev's inner loop
    (small dense RHS calls under SciPy's RK45); it runs no geodev code."""
    start = time.perf_counter()
    solve_ivp(lambda t, y: _ROTATION @ y, (0.0, 6.0), np.array([1.0, 0.0]),
              rtol=1e-10, atol=1e-12)
    return time.perf_counter() - start


class SpeedMeter:
    """Samples the machine speed from a timer signal while active."""

    def __init__(self):
        self.samples = []       # (wall time, probe seconds)
        self.probe_total = 0.0  # wall seconds spent inside probes

    def sample(self, *_signal_args) -> None:
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.samples.append((start, speed_probe()))
            self.probe_total += time.perf_counter() - start
        finally:
            if gc_enabled:
                gc.enable()

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def work_clock(self) -> float:
        """Wall clock without the time spent in probes."""
        return time.perf_counter() - self.probe_total

    def factor(self, start: float, end: float) -> float:
        """Scale for work done between wall times ``start`` and ``end``."""
        near = [d for t, d in self.samples
                if start - PROBE_INTERVAL_S <= t <= end + PROBE_INTERVAL_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return PROBE_REF_S / statistics.fmean(near)


# ------------------------------------------------------------------ set-up

def measure_setup(config_paths: list) -> list:
    """Scaled seconds of SETUP_REPEATS cold set-ups in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pool.SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(pool.BENCH_DIR / "setup_probe.py")]
    cmd += [str(p) for p in config_paths]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[0]))
    return times


# ------------------------------------------------------------------- calls

def output_bytes(cand: dict, out_dir: Path, stdout: str) -> int:
    """Bytes the call wrote, leaving out the wall-time values so that the
    count repeats exactly for identical inputs."""
    if cand["kind"] != "converge":
        return len(stdout.encode())
    total = 0
    report = out_dir / "report.json"
    if report.is_file():
        total += len(_TIMING_FIELD.sub(r"\1", report.read_text()).encode())
    samples = out_dir / "samples.csv"
    if samples.is_file():
        lines = samples.read_text().splitlines()
        total += len(lines[0]) + 1  # header
        total += sum(len(line.rsplit(",", 1)[0]) + 2 for line in lines[1:])
    return total


class Runner:
    """Runs one selected config per call and checks its outputs."""

    def __init__(self, main, cands: list, run_dir: Path):
        self.main = main
        self.cands = cands
        self.config_paths = [run_dir / "configs" / f"slot{i:02d}.json"
                             for i in range(len(cands))]
        self.out_dirs = [run_dir / "results" / f"slot{i:02d}"
                         for i in range(len(cands))]
        for cand, path in zip(cands, self.config_paths):
            pool.write_config(cand, path)
        self.failures = []
        self.bytes_written = 0

    def call(self, slot: int, main=None, clock=time.perf_counter):
        """One checked call; returns (call seconds by ``clock``, ok)."""
        cand = self.cands[slot]
        argv = pool.argv_for(cand, self.config_paths[slot], self.out_dirs[slot])
        for name in ("report.json", "samples.csv"):  # no stale outputs
            (self.out_dirs[slot] / name).unlink(missing_ok=True)
        start = clock()
        try:
            code, stdout = pool.invoke(main or self.main, argv)
        except Exception as exc:  # a crash is a failed call, not a crashed run
            elapsed = clock() - start
            self.failures.append(f"slot {slot}: raised {exc!r}")
            return elapsed, False
        elapsed = clock() - start
        try:
            got = pool.summarize(cand, code, self.out_dirs[slot], stdout)
            problem = pool.mismatch(cand, got)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        self.bytes_written += output_bytes(cand, self.out_dirs[slot], stdout)
        if problem:
            self.failures.append(f"slot {slot}: {problem}")
        return elapsed, problem is None


def timed_loop(runner: Runner, seconds: float, meter: SpeedMeter) -> list:
    """Passes until ``seconds`` of scaled time have elapsed (or
    ``WALL_LIMIT`` times that of wall time), stopping at a call boundary
    once at least one pass is complete.  Counting scaled time keeps the
    number of calls the same on a slow and a fast machine, as long as the
    wall limit does not bind.  Returns one segment per call, in call order:
    (call seconds, call+check seconds, ok, speed factor); multiply the
    seconds by the factor for scaled time."""
    segments = []
    n = len(runner.cands)
    scaled = 0.0
    start = time.perf_counter()
    while True:
        slot = len(segments) % n
        wall0, work0 = time.perf_counter(), meter.work_clock()
        call_s, ok = runner.call(slot, clock=meter.work_clock)
        wall1, work1 = time.perf_counter(), meter.work_clock()
        segments.append((call_s, work1 - work0, ok, wall0, wall1))
        scaled += (work1 - work0) * meter.factor(wall0, wall1)
        if len(segments) >= n and (scaled >= seconds
                                   or wall1 - start >= WALL_LIMIT * seconds):
            break
    meter.sample()
    return [(call_s, seg_s, ok, meter.factor(w0, w1))
            for call_s, seg_s, ok, w0, w1 in segments]


# ------------------------------------------------------------------ modes

def end_to_end(runner: Runner, workload: str, seconds: float,
               setup_times: list) -> dict:
    with SpeedMeter() as meter:
        segments = timed_loop(runner, seconds, meter)
    n = len(runner.cands)
    complete = len(segments) // n
    q = P90_LEVEL[workload]

    def summary(scale: bool):
        """Median pass seconds and the p50 and high percentile of call
        milliseconds, over complete passes only so every slot counts
        equally; scaled to the reference speed or raw."""
        done = [(call_s * f if scale else call_s, seg_s * f if scale else seg_s)
                for call_s, seg_s, _, f in segments[:complete * n]]
        calls_ms = [1e3 * call_s for call_s, _ in done]
        pass_s = [sum(seg_s for _, seg_s in done[p * n:(p + 1) * n])
                  for p in range(complete)]
        return (pass_s, float(np.percentile(calls_ms, 50.0)),
                float(np.percentile(calls_ms, q)))

    pass_s, p50, p90 = summary(scale=True)
    raw_pass_s, raw_p50, raw_p90 = summary(scale=False)
    attempted = len(segments)
    failed = sum(1 for _, _, ok, _ in segments if not ok)
    probes = [d for _, d in meter.samples]
    print(f"# {attempted} calls in {len(pass_s)} complete passes of {n} configs; "
          f"{len(probes)} speed probes, median {statistics.median(probes):.5f} s "
          f"(reference {PROBE_REF_S} s)")
    print(f"# scaled set-up seconds: {' '.join(f'{x:.4f}' for x in setup_times)}")
    print(f"# scaled pass seconds: {' '.join(f'{x:.3f}' for x in pass_s)}")
    print(f"# call_ms_p50 and call_ms_p90 (the p{q:.1f}) are over the "
          f"{n * complete} calls of complete passes")
    print(f"# unscaled: verify_s {statistics.median(raw_pass_s):.6g} s, "
          f"call_ms_p50 {raw_p50:.6g} ms, call_ms_p90 {raw_p90:.6g} ms")
    print(f"# fail_frac {failed / attempted:.6f} ({failed} of {attempted} calls)")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "metrics": {
            "verify_s": (statistics.median(pass_s), "s"),
            "call_ms_p50": (p50, "ms"),
            "call_ms_p90": (p90, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "pass_frac": ((attempted - failed) / attempted, "ratio"),
        },
        "attempted": attempted,
        "failed": failed,
    }


def traced(runner: Runner, run_dir: Path) -> dict:
    """One pass in which every config runs untraced and then traced; the
    two calls of a config run back to back, so that the overhead ratio is
    not swamped by the machine's speed drifting between passes."""
    from tracer import METRIC_UNITS, Tracer

    tracer = Tracer()
    main = tracer.span("cli.main", runner.main)
    results = []
    untraced_s = traced_s = cpu_s = 0.0
    bytes_written = 0
    for slot in range(len(runner.cands)):
        call_s, ok = runner.call(slot)
        untraced_s += call_s
        results.append(ok)
        tracer.request = tracer.config_key = slot
        written = runner.bytes_written
        tracer.install()
        try:
            cpu0 = time.process_time()
            call_s, ok = runner.call(slot, main)
            cpu_s += time.process_time() - cpu0
        finally:
            tracer.uninstall()
        traced_s += call_s
        results.append(ok)
        bytes_written += runner.bytes_written - written
    tracer.write(run_dir / "trace.jsonl")
    metrics = {name: (value, METRIC_UNITS.get(name, "count"))
               for name, value in tracer.metrics().items()}
    metrics["cli.output_bytes"] = (bytes_written, "bytes")
    metrics["process.cpu_s"] = (cpu_s, "s")
    metrics["trace_overhead_ratio"] = (traced_s / untraced_s, "ratio")
    print(f"# traced calls {traced_s:.3f} s, untraced calls {untraced_s:.3f} s, "
          f"{len(tracer.spans)} spans written")
    return {"metrics": metrics, "attempted": len(results),
            "failed": sum(1 for ok in results if not ok)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = pool.import_cli()
    cands = pool.select(pool.load_pool(), args.workload, args.seed)
    run_dir = pool.OUT_DIR / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "inputs.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "inputs": cands},
        indent=1, sort_keys=True) + "\n")

    runner = Runner(cli.main, cands, run_dir)
    if args.trace:
        result = traced(runner, run_dir)
    else:
        result = end_to_end(runner, args.workload, args.seconds,
                            measure_setup(runner.config_paths))
    for failure in runner.failures[:20]:
        print(f"# FAILED {failure}", file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

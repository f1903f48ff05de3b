"""Time one cold set-up in a fresh interpreter: import geodev and build the
scenario of every config file named on the command line, the way the CLI
does.  ``run.py`` starts this with the checkout's ``src`` on ``PYTHONPATH``.

    python3 perfbench/setup_probe.py CONFIG.json [CONFIG.json ...]

Prints the set-up seconds scaled to a reference speed, the raw seconds, and
the mean probe seconds.  As in ``run.py``, a timer signal samples the
machine speed while the set-up runs; the probe here is a pure-Python loop,
because NumPy and SciPy are still being imported.
"""

import signal
import statistics
import sys
import time

PROBE_REF_S = 0.0004      # reference duration of one probe
PROBE_INTERVAL_S = 0.05

samples = []


def probe() -> None:
    acc = 0.0
    for i in range(3000):
        acc += (i * 0.5) % 7.0


def sample(*_signal_args) -> None:
    start = time.perf_counter()
    probe()
    samples.append(time.perf_counter() - start)


probe()
signal.signal(signal.SIGALRM, sample)
signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
start = time.perf_counter()

from geodev.cli import load_config  # noqa: E402
from geodev.scenarios import ScenarioSpec, build  # noqa: E402

for path in sys.argv[1:]:
    config = load_config(path)
    run = config.get("run", {})
    build(ScenarioSpec(config["scenario"], config.get("params", {}),
                       run.get("r_base"), run.get("s_eval")))

elapsed = time.perf_counter() - start
signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
raw = elapsed - sum(samples)
for _ in range(3):  # speed just after, so that a short set-up has samples too
    sample()
speed = statistics.fmean(samples)
print(raw * PROBE_REF_S / speed, raw, speed)

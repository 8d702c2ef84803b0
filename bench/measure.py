"""Measurement helpers shared by every workload: order statistics, CPU
and memory readings, the host record, the import probe, and the speed
calibration.

Every end-to-end time is reported at a reference host speed. The host is
shared: a fixed pure-Python task's time jumps between about 35 and
60 ms several times a second, and the share of slow time drifts over
minutes, for every workload at once, so run-to-run spread in raw seconds
measures the neighbours more than the verifier. A run therefore times a
fixed calibration task (written here, so that no change to the verifier
alters it) between its iterations, set-up steps and serve jobs, and
scales all its times by ``REFERENCE_S`` over the mean calibration time
of the run (:func:`calibrate`, :func:`speed_factor`). The mean of many
samples spread over the run follows the drift without taking on the
noise of any one sample. A verifier that does more work takes
proportionally longer in either unit; the raw figures and the factor are
printed alongside.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from statistics import fmean, median
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_state"

#: What the import probe loads: everything a batch or serve entry point
#: needs before its first verdict.
PROBE_IMPORTS = (
    "repro.analysis.table1",
    "repro.diagnose.fixtures",
    "repro.engine.rcache",
    "repro.engine.scheduler",
)


#: The calibration task's time on the reference host (2 vCPUs of a
#: shared Xeon at 2.0 GHz, Python 3.11), in seconds.
REFERENCE_S = 0.05


def _calibration_task() -> None:
    """A breadth-first search over the 7**5 states of five counters: the
    verifier's kind of work (tuples, hashing, a dict, a queue) at a fixed
    size."""
    start = (0, 0, 0, 0, 0)
    seen = {start: 0}
    todo = deque([start])
    while todo:
        state = todo.popleft()
        for i in range(5):
            succ = list(state)
            succ[i] = (succ[i] + i + 1) % 7
            succ = tuple(succ)
            if succ not in seen:
                seen[succ] = seen[state] + 1
                todo.append(succ)


#: Calibration times taken so far in this run, in seconds.
CALIBRATIONS: List[float] = []


def calibrate(runs: int = 1) -> float:
    """Time the calibration task ``runs`` times now, with the collector
    off so that the verifier's live heap cannot slow it; returns the
    seconds spent."""
    enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    try:
        for _ in range(runs):
            t0 = time.perf_counter()
            _calibration_task()
            CALIBRATIONS.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return time.perf_counter() - started


def speed_factor() -> float:
    """``REFERENCE_S`` over the run's mean calibration time. A time
    measured in this run, multiplied by it, is that time at the
    reference speed. The mean, not the median: the host switches
    between a fast and a slow state (about 35 and 60 ms for the task)
    many times a second, and the mean weighs each state by its share of
    the run, where the median jumps between them."""
    return REFERENCE_S / fmean(CALIBRATIONS)


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the tail order statistic: the highest
    rank with at least ten samples beyond it, but never below the 90th
    percentile rank. Below 100 samples the p90 stands in, with fewer than
    ten samples beyond it; the count says how far to trust it."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - 10, math.ceil(0.9 * n))  # 1-based
    return ordered[rank - 1], 100.0 * rank / n, n


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    return _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)


def child_cpu_seconds() -> float:
    return _cpu(resource.RUSAGE_CHILDREN)


def peak_rss_mb() -> float:
    """Largest ``ru_maxrss`` of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def child_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_record() -> Dict[str, object]:
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "cpus": nproc(),
        "loadavg": list(os.getloadavg()),
        "ram_mb": round(pages / 2**20),
        "python": platform.python_version(),
        "commit": _commit(),
    }


def import_probe() -> float:
    """Wall seconds for a fresh interpreter to import the verifier."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        + "; ".join(f"import {name}" for name in PROBE_IMPORTS)
    )
    started = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", code, str(SRC)], cwd=ROOT)
    # A blocking wait: a wait with a timeout polls in steps of up to 50 ms,
    # which would round the measurement.
    watchdog = threading.Timer(120, child.kill)
    watchdog.start()
    try:
        status = child.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - started
    if status != 0:
        raise RuntimeError(f"import probe exited {status}")
    return elapsed


def another_iteration(started: float, walls: List[float], seconds: float) -> bool:
    """Whether to start another iteration: always the first one, then
    while one more, as long as the last, would end less than half its
    length past ``seconds``. Long iterations then neither overrun the run
    by a whole iteration nor cut it short by one."""
    if not walls:
        return True
    return time.perf_counter() - started + walls[-1] / 2 < seconds


def summarize_timings(
    walls: List[float], cpus: List[float], factor: float
) -> Dict[str, object]:
    """Order statistics of per-iteration wall and CPU seconds, at the
    reference speed (times ``factor``, see :func:`speed_factor`)."""
    value, pct, n = tail(walls)
    return {
        "iter_s_p50": median(walls) * factor,
        "iter_s_tail": value * factor,
        "iter_tail_percentile": pct,
        "iterations": n,
        "cpu_s_p50": median(cpus) * factor,
        "scaled_total_s": sum(walls) * factor,
        "raw_iter_s_p50": median(walls),
        "raw_cpu_s_p50": median(cpus),
        "speed_factor": factor,
    }

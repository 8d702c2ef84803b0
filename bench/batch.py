"""The batch workloads: Table 1 sweeps and the Paxos pool run.

Each workload is called through the public API with defaults, exactly
as ``repro table1`` / ``repro verify`` / ``repro explain`` call it, and
every verdict is checked against :mod:`answers`. One iteration is timed
from the call to its return; temporary directories are made and removed
outside that window, and pool workers are reaped before CPU is read.
A run starts with one untimed iteration (checked like the rest, and
counted in ``setup_s``), so lazy imports and first-use tables are filled
before timing starts.
"""

from __future__ import annotations

import multiprocessing
import random
import shutil
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from statistics import median
from typing import Dict, List, Tuple

import answers
import measure
import tracing

#: Import probes per run; ``setup_s`` is their median plus the untimed
#: first iteration.
SETUP_REPEATS = 7
#: Calibration runs before each iteration and each set-up.
CALIBRATION_RUNS = 3


def _reap_children() -> None:
    """Wait for every finished or exiting multiprocessing child (the pool
    scheduler shuts its executor down without waiting)."""
    for child in multiprocessing.active_children():
        child.join(timeout=60)


def _add_results(counts: Dict[str, float], results) -> None:
    for result in results:
        counts["obligations.total"] += result.num_obligations
        counts["obligations.cached"] += len(result.cached_keys)
        counts["obligations.resumed"] += len(result.resumed_keys)
        counts["checks"] += result.total_checked
        counts["pool.retries"] += result.retries


class Table1Sweep:
    """``build_table1(symmetry=True)`` serial (``repro table1
    --symmetry``) plus the two seeded fixtures through
    ``ISApplication.check``, all against one fresh, empty rcache
    directory per iteration."""

    def __init__(self):
        from repro.analysis import table1
        from repro.diagnose.fixtures import FIXTURES
        from repro.engine.rcache import ObligationCache
        from repro.engine.scheduler import make_scheduler

        self._table1 = table1
        self._fixtures = FIXTURES
        self._cache_type = ObligationCache
        self.workers = make_scheduler(None).parallelism

    def prepare(self, workdir: str) -> str:
        return tempfile.mkdtemp(dir=workdir)

    def cleanup(self, directory: str) -> None:
        shutil.rmtree(directory, ignore_errors=True)

    def iteration(self, directory, rng, tracer, counts) -> Tuple[int, List[str]]:
        cache = self._cache_type(directory)
        entries = list(self._table1.TABLE1_REGISTRY)
        rng.shuffle(entries)
        fixtures = sorted(self._fixtures)
        rng.shuffle(fixtures)
        problems: List[str] = []
        try:
            rows = self._table1.build_table1(
                entries=entries, cache=cache, symmetry=True
            )
        except Exception as exc:  # a crash fails every row of the sweep
            problems.extend([f"table1 crashed: {exc!r}"] * len(entries))
        else:
            problems.extend(answers.check_table1(rows))
            _add_results(
                counts,
                (r for row in rows if row.report for _, r in row.report.is_results),
            )
        for name in fixtures:
            try:
                with tracer.span("fixture") if tracer else nullcontext():
                    app, universe = self._fixtures[name].build()
                    result = app.check(universe, cache=cache)
            except Exception as exc:
                problems.append(f"{name} crashed: {exc!r}")
                continue
            _add_results(counts, [result])
            problem = answers.check_fixture(name, result)
            if problem:
                problems.append(problem)
        counts["rcache.write_errors"] += cache.stats.write_errors
        return len(entries) + len(fixtures), problems


class PoolPaxos:
    """``paxos.verify(rounds=1, num_nodes=2, jobs=nproc)``: the only
    workload on the process-pool scheduler. The pool's fork-time warm-up
    dominates it, as on larger instances, and an iteration is short
    enough for a run to take the median of dozens."""

    def __init__(self):
        from repro.engine.scheduler import make_scheduler
        from repro.protocols import paxos

        self._paxos = paxos
        self.jobs = measure.nproc()
        # Read from outside, the way the pool itself decides.
        self.workers = make_scheduler(max(2, self.jobs)).parallelism

    def prepare(self, workdir: str) -> None:
        return None

    def cleanup(self, _state) -> None:
        pass

    def iteration(self, _state, rng, tracer, counts) -> Tuple[int, List[str]]:
        try:
            report = self._paxos.verify(rounds=1, num_nodes=2, jobs=self.jobs)
        except Exception as exc:
            return 1, [f"paxos crashed: {exc!r}"]
        _add_results(counts, (r for _, r in report.is_results))
        problem = answers.check_report(report)
        return 1, [problem] if problem else []


def _phase(workload, workdir, rng, deadline_s, tracer, label):
    """Iterate for about ``deadline_s`` (at least once)."""
    walls: List[float] = []
    cpus: List[float] = []
    child_cpus: List[float] = []
    counts = defaultdict(float)
    attempted = 0
    problems: List[str] = []
    ids: List[object] = []
    started = time.perf_counter()
    while measure.another_iteration(started, walls, deadline_s):
        state = workload.prepare(workdir)
        iteration_id = f"{label}-{len(walls)}"
        if tracer is not None:
            tracer.iteration = iteration_id
        measure.calibrate(CALIBRATION_RUNS)
        cpu0, child0 = measure.cpu_seconds(), measure.child_cpu_seconds()
        t0 = time.perf_counter()
        with tracer.span("iteration") if tracer else nullcontext():
            n, wrong = workload.iteration(state, rng, tracer, counts)
        wall = time.perf_counter() - t0
        _reap_children()
        cpus.append(measure.cpu_seconds() - cpu0)
        child_cpus.append(measure.child_cpu_seconds() - child0)
        walls.append(wall)
        ids.append(iteration_id)
        workload.cleanup(state)
        attempted += n
        problems.extend(wrong)
    return {
        "walls": walls,
        "cpus": cpus,
        "child_cpus": child_cpus,
        "counts": counts,
        "attempted": attempted,
        "problems": problems,
        "ids": ids,
    }


def run(workload, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """Set up, measure, and summarise one batch workload."""
    rng = random.Random(seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        measure.calibrate(CALIBRATION_RUNS)
        setups.append(measure.import_probe())
    warmup = _phase(workload, workdir, rng, 0.0, None, "warmup")
    if not trace:
        plain = _phase(workload, workdir, rng, seconds, None, "plain")
        traced = None
    else:
        from repro.protocols import ALL_PROTOCOLS

        plain = _phase(workload, workdir, rng, seconds / 2, None, "plain")
        tracer = tracing.install(ALL_PROTOCOLS.values())
        try:
            traced = _phase(workload, workdir, rng, seconds / 2, tracer, "traced")
        finally:
            tracer.uninstall()
        traced["tracer"] = tracer
    phases = [plain] + ([traced] if traced else [])
    attempted = warmup["attempted"] + sum(p["attempted"] for p in phases)
    problems = warmup["problems"] + [x for p in phases for x in p["problems"]]
    factor = measure.speed_factor()
    timings = measure.summarize_timings(plain["walls"], plain["cpus"], factor)
    end_to_end = {
        # Imports plus the cold first iteration: what a fresh process
        # pays before it runs at the timed iterations' speed.
        "setup_s": (median(setups) + warmup["walls"][0]) * factor,
        "iter_s_p50": timings["iter_s_p50"],
        "iter_s_tail": timings["iter_s_tail"],
        "cpu_s_p50": timings["cpu_s_p50"],
        "peak_rss_mb": measure.peak_rss_mb(),
        # A batch caller waits for the whole sweep: one round trip is
        # one iteration.
        "rtt_s_p50": timings["iter_s_p50"],
        "rtt_s_tail": timings["iter_s_tail"],
        "jobs_per_s": plain["attempted"] / timings["scaled_total_s"],
    }
    detail = {
        "iterations": timings["iterations"],
        "iter_tail_percentile": timings["iter_tail_percentile"],
        "raw_iter_s_p50": timings["raw_iter_s_p50"],
        "raw_cpu_s_p50": timings["raw_cpu_s_p50"],
        "speed_factor": factor,
        "calibrations": len(measure.CALIBRATIONS),
        "setup_samples": setups,
        "warmup_s": warmup["walls"][0],
        "walls": [round(w, 4) for p in phases for w in p["walls"]],
        "problems": problems[:20],
    }
    layers = None
    if traced is not None:
        layers = _layers(workload, plain, traced)
    return {
        "attempted": attempted,
        "failed": min(attempted, len(problems)),
        "end_to_end": end_to_end,
        "layers": layers,
        "detail": detail,
        "trace": traced["tracer"].records() if traced else None,
    }


def _layers(workload, plain, traced) -> Dict[str, float]:
    tracer = traced["tracer"]
    n = len(traced["walls"])
    layers = tracing.layer_metrics(tracer, traced["ids"], traced["walls"])
    counts = traced["counts"]
    for key in (
        "obligations.total",
        "obligations.cached",
        "obligations.resumed",
        "checks",
        "pool.retries",
        "rcache.write_errors",
    ):
        layers[key] = counts[key] / n
    layers["obligations.executed"] = (
        layers["obligations.total"]
        - layers["obligations.cached"]
        - layers["obligations.resumed"]
    )
    run_s = layers["scheduler.run_s"]
    executed = layers["obligations.executed"] > 0 and run_s > 0
    layers["checks_per_s"] = layers["checks"] / run_s if executed else 0.0
    layers["pool.workers"] = workload.workers
    layers["pool.child_cpu_s"] = sum(traced["child_cpus"]) / n
    layers["pool.child_peak_rss_mb"] = measure.child_peak_rss_mb()
    untraced = median(plain["walls"])
    layers["trace_overhead_pct"] = (
        100.0 * (median(traced["walls"]) - untraced) / untraced
    )
    return layers

"""Benchmark the obligation-discharge engine on Paxos and emit
``BENCH_obligations.json``.

Four configurations of the same check (Paxos, R rounds x N nodes):

``uncached``
    The pre-engine baseline: shared evaluation memoization *and* the
    universe's context caches disabled (the context's ``cache_key`` is
    forced to ``None``), approximating the original monolithic checker's
    cost profile.
``serial``
    The engine's serial backend with all memoization layers on — the
    default ``check()`` path.
``parallel_cold``
    The process-pool backend with cache pre-warming disabled: each forked
    worker rebuilds its memos from scratch (the pre-PR pool behaviour).
``parallel_warm``
    The process-pool backend as shipped: the parent warms the evaluation
    cache before forking, workers inherit the memos copy-on-write, and
    the dominant obligations (I3, LM pair conditions) are sharded off the
    universe size so the pool has enough units to saturate its workers.
``serial_resilient``
    The serial backend with the resilience layer armed on the happy path:
    a (generous) per-obligation deadline, with no fault ever firing. The
    JSON records the overhead against ``serial``
    (``resilience_overhead``); the design target is under 3% — arming
    deadlines must be cheap enough to leave on for long runs.

A ``representation`` section attributes the interned/columnar store
representation layer by layer: ``serial_dict`` re-runs the serial check
with interning *and* columnar batching disabled (the dict-shaped
representation the engine shipped with), ``serial_interned`` with only
batching disabled, and ``serial_columnar`` is the default fast path —
plus the pool's IPC saving from shipping int shard bounds over the
fork-inherited intern table instead of object-graph store slices.

The JSON also carries an ``rcache`` section: a cold/warm/one-edit trio of
the Paxos check against a persistent obligation-result cache
(``repro.engine.rcache``) with hit-rate attribution, plus
incremental-vs-full wall time for every Table 1 protocol pipeline — a
warm re-verify must execute zero obligations, and a single no-op edit
must re-execute only its read-set.

Jobs accounting is honest: the JSON records both the *requested* job
count and the *effective* worker count after clamping to the host's CPUs
(requesting more CPU-bound workers than cores only adds fork overhead;
the scheduler warns and clamps, and the report says so instead of
pretending the extra workers existed). On a single-CPU host the pool is
clamped to one worker and is expected to trail the serial run slightly —
the parallel win needs cores; the warm-up win (``parallel_warm`` vs
``parallel_cold``) shows even without them.

``--trace FILE`` attaches a :class:`repro.obs.Tracer` to the serial, cold-
pool, and warm-pool runs (scoped ``serial`` / ``parallel_cold`` /
``parallel_warm``) and writes one Chrome ``trace_event`` file covering all
three — load it in Perfetto and the warm-vs-cold difference is visible
span by span: the cold workers' leading obligations run long (each worker
re-deriving memos) while the warm workers' start short. ``--smoke`` runs
the smallest instance (R=1, N=1) on the serial backend only and emits a
reduced JSON — CI uses it to guard this script against rot.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_obligations.py [--rounds 2]
        [--nodes 2] [--jobs 4] [--output BENCH_obligations.json]
        [--trace FILE] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pickle
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.core import initial_config  # noqa: E402
from repro.core.cache import (  # noqa: E402
    caching_disabled,
    process_cache,
    reset_process_cache,
)
from repro.core.columnar import (  # noqa: E402
    columnar_disabled,
    columnar_store,
)
from repro.core.context import GhostContext  # noqa: E402
from repro.core.store import (  # noqa: E402
    combine,
    interning_disabled,
    store_interner,
)
from repro.core.universe import StoreUniverse  # noqa: E402
from repro.engine.obligations import (  # noqa: E402
    build_obligations,
    lm_slice_count,
    shard_count,
)
from repro.engine.resilience import ResilienceConfig  # noqa: E402
from repro.engine.scheduler import (  # noqa: E402
    ProcessPoolScheduler,
    SerialScheduler,
)
from repro.protocols import paxos  # noqa: E402
from repro.protocols.common import GHOST  # noqa: E402


class _UncachableContext:
    """Delegates every PA decision to the wrapped context but declares them
    uncachable, switching the universe's single/pair memo layer off."""

    def __init__(self, inner):
        self._inner = inner

    def cache_key(self, _global_store):
        return None

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _build_universe(app, init_global, uncached: bool) -> StoreUniverse:
    context = GhostContext(GHOST)
    universe = StoreUniverse.from_reachable(
        app.program, [initial_config(init_global)]
    )
    return universe.with_context(
        _UncachableContext(context) if uncached else context
    )


def _timed_check(app, universe, jobs=None, scheduler=None, tracer=None, scope=None):
    started = time.perf_counter()
    if tracer is not None and scope is not None:
        with tracer.scope(scope):
            result = app.check(
                universe, jobs=jobs, scheduler=scheduler, tracer=tracer
            )
    else:
        result = app.check(
            universe, jobs=jobs, scheduler=scheduler, tracer=tracer
        )
    return result, time.perf_counter() - started


def _condition_map(result):
    return {
        name: (r.holds, r.checked, tuple(r.counterexamples))
        for name, r in result.conditions.items()
    }


def _worker_summary(result) -> list:
    """Per-worker accounting from the pool run: obligations discharged and
    final cache hit rates, one entry per distinct worker PID."""
    workers = []
    for pid, info in sorted(result.worker_cache_stats.items()):
        stats = info.get("stats") or {}
        entry = {"pid": pid, "obligations": info.get("obligations", 0)}
        for kind in ("gate", "transitions"):
            if kind in stats:
                entry[f"{kind}_hit_rate"] = stats[kind].get("hit_rate")
        workers.append(entry)
    return workers


def _pool_scheduler(jobs: int) -> tuple:
    """A warm pool scheduler plus the clamping it applied (if any)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scheduler = ProcessPoolScheduler(jobs)
    clamp_warning = next(
        (str(w.message) for w in caught if w.category is RuntimeWarning), None
    )
    return scheduler, clamp_warning


def _wrap_invariant(app):
    """A behaviorally identical application whose invariant is a fresh
    closure — the canonical "touched one artifact" edit. Rebuilt field by
    field (not ``dataclasses.replace``) so the derived ``M'`` stays
    canonical and only the invariant's fingerprint moves."""
    from repro.core.action import Action
    from repro.core.sequentialize import ISApplication

    gate = app.invariant.gate
    return ISApplication(
        program=app.program,
        m_name=app.m_name,
        eliminated=app.eliminated,
        invariant=Action(
            app.invariant.name,
            lambda state: gate(state),
            app.invariant.transitions,
            app.invariant.params,
        ),
        measure=app.measure,
        choice=app.choice,
        abstractions=dict(app.abstractions),
    )


def _cache_trio(app, universe, cache_dir) -> dict:
    """Cold / warm / one-edit wall times of one serial check against a
    persistent result cache, with hit-rate attribution."""

    def attribution(result):
        stats = result.rcache_stats or {}
        consulted = sum(
            stats.get(k, 0)
            for k in ("hits", "misses", "invalidations", "uncacheable")
        )
        return {
            **stats,
            "executed": result.num_obligations - len(result.cached_keys),
            "hit_rate": (
                round(stats.get("hits", 0) / consulted, 4) if consulted else None
            ),
        }

    cold_result, cold_time = _timed_check_cached(app, universe, cache_dir)
    warm_result, warm_time = _timed_check_cached(app, universe, cache_dir)
    assert not (
        set(warm_result.cached_keys)
        ^ {ob_key for ob_key in cold_result.timings}
    ), "warm run failed to hit every obligation"
    assert _condition_map(cold_result) == _condition_map(warm_result), (
        "warm cache changed verdicts"
    )
    edited_result, edited_time = _timed_check_cached(
        _wrap_invariant(app), universe, cache_dir
    )
    assert _condition_map(edited_result) == _condition_map(warm_result), (
        "no-op invariant edit changed verdicts"
    )
    return {
        "wall_time_seconds": {
            "cold_cache": round(cold_time, 3),
            "warm_cache": round(warm_time, 3),
            "one_edit": round(edited_time, 3),
        },
        "speedup_warm_vs_cold": round(cold_time / warm_time, 2),
        "cold": attribution(cold_result),
        "warm": attribution(warm_result),
        "one_edit": attribution(edited_result),
    }


def _timed_check_cached(app, universe, cache_dir):
    started = time.perf_counter()
    result = app.check(universe, jobs=1, cache=cache_dir)
    return result, time.perf_counter() - started


def _protocol_verifiers() -> dict:
    from repro.protocols import (
        broadcast,
        changroberts,
        nbuyer,
        pingpong,
        prodcons,
        twophase,
    )

    return {
        "broadcast": lambda **kw: broadcast.verify(n=3, iterated=True, **kw),
        "pingpong": lambda **kw: pingpong.verify(rounds=3, **kw),
        "prodcons": lambda **kw: prodcons.verify(bound=4, **kw),
        "nbuyer": lambda **kw: nbuyer.verify(n=3, **kw),
        "changroberts": lambda **kw: changroberts.verify(n=4, **kw),
        "twophase": lambda **kw: twophase.verify(n=3, **kw),
        "paxos": lambda **kw: paxos.verify(rounds=2, num_nodes=2, **kw),
    }


def _report_cache_stats(report) -> dict:
    obligations = cached = 0
    stats = {"hits": 0, "misses": 0, "invalidations": 0, "uncacheable": 0}
    for _, result in report.is_results:
        obligations += result.num_obligations
        cached += len(result.cached_keys)
        for key in stats:
            stats[key] += (result.rcache_stats or {}).get(key, 0)
    return {
        "obligations": obligations,
        "executed": obligations - cached,
        "cached": cached,
        **stats,
    }


def run_incremental_per_protocol() -> dict:
    """Incremental (warm result cache) vs full re-verification, per
    protocol, on the Table 1 pipelines: ``full`` is a plain ``verify()``,
    ``cold_cache`` the same run populating a fresh cache, ``incremental``
    the re-run against it — the edit-nothing-and-re-verify cost."""
    rows = {}
    for name, verify in sorted(_protocol_verifiers().items()):
        reset_process_cache()
        combine.cache_clear()
        started = time.perf_counter()
        full = verify()
        full_time = time.perf_counter() - started
        with tempfile.TemporaryDirectory(prefix=f"bench-rcache-{name}-") as d:
            started = time.perf_counter()
            verify(cache=d)
            cold_time = time.perf_counter() - started
            started = time.perf_counter()
            warm = verify(cache=d)
            warm_time = time.perf_counter() - started
        warm_stats = _report_cache_stats(warm)
        assert warm.ok == full.ok, f"{name}: warm cache changed the verdict"
        assert warm_stats["executed"] == 0, (
            f"{name}: warm re-verify executed {warm_stats['executed']}"
        )
        rows[name] = {
            "wall_time_seconds": {
                "full": round(full_time, 3),
                "cold_cache": round(cold_time, 3),
                "incremental": round(warm_time, 3),
            },
            "speedup_incremental_vs_full": round(full_time / warm_time, 2),
            "warm": warm_stats,
        }
    return rows


def _ipc_attribution(app, universe, jobs: int) -> dict:
    """Shard payload sizes under the pool's sharded layout: what crossing
    the fork boundary costs when shards carry ``(lo, hi)`` int bounds into
    the COW-inherited intern table, vs the object-graph alternative (the
    globals slice itself pickled into every shard)."""
    num_globals = len(universe.globals_)
    parallelism = max(2, jobs)
    lm_targets = list(app.program.action_names())
    num_pairs = len(app.eliminated) * len(lm_targets)
    obligations = build_obligations(
        app,
        universe,
        i3_shards=shard_count(num_globals, parallelism),
        lm_shards=lm_slice_count(num_pairs, num_globals, parallelism),
    )
    sharded = [ob for ob in obligations if ob.kind in ("I3", "LMc")]
    int_bounds_bytes = 0
    object_graph_bytes = 0
    for ob in sharded:
        int_bounds_bytes += len(pickle.dumps(ob, pickle.HIGHEST_PROTOCOL))
        lo, hi = ob.params[-2], ob.params[-1]
        replacement = (
            ob.key,
            ob.kind,
            ob.condition,
            ob.params[:-2],
            list(universe.globals_[lo:hi]),
        )
        object_graph_bytes += len(
            pickle.dumps(replacement, pickle.HIGHEST_PROTOCOL)
        )
    return {
        "sharded_obligations": len(sharded),
        "int_bounds_bytes": int_bounds_bytes,
        "object_graph_bytes": object_graph_bytes,
        "reduction_factor": (
            round(object_graph_bytes / int_bounds_bytes, 1)
            if int_bounds_bytes
            else None
        ),
        "note": (
            "Bytes pickled across the fork boundary for the sharded "
            "I3/LMc obligations: as shipped (int (lo, hi) bounds over the "
            "fork-inherited intern table) vs shipping each shard's "
            "globals slice as an object graph."
        ),
    }


def run_representation_attribution(app, init_global, jobs: int, reps: int = 2) -> dict:
    """Per-layer attribution of the interned/columnar representation on
    one serial check: ``serial_dict`` (interning and columns both off —
    the dict-shaped representation the engine shipped with),
    ``serial_interned`` (int memo keys and id-pair combine, row-at-a-time
    loops), ``serial_columnar`` (the default batched fast path).

    The three modes interleave round-robin and each reports its best rep
    — successive checks in one process drift slower (allocator/GC), and
    measuring the modes in blocks would bill that drift to whichever mode
    ran last."""

    def _run(mode):
        reset_process_cache()
        combine.cache_clear()
        if mode == "dict":
            with interning_disabled(), columnar_disabled():
                universe = _build_universe(app, init_global, uncached=False)
                return _timed_check(app, universe, jobs=1)
        if mode == "interned":
            with columnar_disabled():
                universe = _build_universe(app, init_global, uncached=False)
                return _timed_check(app, universe, jobs=1)
        universe = _build_universe(app, init_global, uncached=False)
        result, elapsed = _timed_check(app, universe, jobs=1)
        stats = {
            "interner": store_interner().stats(),
            "columns": columnar_store().stats(),
        }
        return result, elapsed, stats

    times = {"dict": None, "interned": None, "columnar": None}
    maps = {}
    columnar_stats = None
    for _ in range(max(1, reps)):
        for mode in ("dict", "interned", "columnar"):
            out = _run(mode)
            result, elapsed = out[0], out[1]
            if mode == "columnar":
                columnar_stats = out[2]
            maps[mode] = _condition_map(result)
            if times[mode] is None or elapsed < times[mode]:
                times[mode] = elapsed
    assert maps["dict"] == maps["interned"] == maps["columnar"], (
        "representation modes disagree on the condition map"
    )

    reset_process_cache()
    combine.cache_clear()
    ipc = _ipc_attribution(
        app, _build_universe(app, init_global, uncached=False), jobs
    )
    return {
        "wall_time_seconds": {
            "serial_dict": round(times["dict"], 3),
            "serial_interned": round(times["interned"], 3),
            "serial_columnar": round(times["columnar"], 3),
        },
        "speedup": {
            # Layer attribution: interning alone, batching on top of
            # interning, and the combined fast path vs the dict oracle.
            "interning_vs_dict": round(times["dict"] / times["interned"], 2),
            "batching_vs_interned": round(
                times["interned"] / times["columnar"], 2
            ),
            "columnar_vs_dict": round(times["dict"] / times["columnar"], 2),
        },
        "columnar_run_stats": columnar_stats,
        "ipc": ipc,
        "reps_per_mode": max(1, reps),
    }


def _symmetry_verify_pair(module, verify_kwargs) -> dict:
    """One protocol verified twice — full universes vs orbit quotient —
    with verdict maps asserted identical and the shrinkage recorded."""

    def _run(symmetry: bool):
        reset_process_cache()
        combine.cache_clear()
        start = time.perf_counter()
        report = module.verify(
            ground_truth=False, symmetry=symmetry, **verify_kwargs
        )
        elapsed = time.perf_counter() - start
        return report, elapsed

    plain, plain_time = _run(False)
    quotient, quotient_time = _run(True)
    for (_, a), (_, b) in zip(plain.is_results, quotient.is_results):
        verdicts = lambda r: {
            k: (c.name, c.holds, tuple(c.counterexamples))
            for k, c in r.conditions.items()
        }
        assert verdicts(a) == verdicts(b), "quotient changed a verdict"
    checked = lambda r: sum(res.total_checked for _, res in r.is_results)
    globals_ = lambda r: max(
        len(u.globals_) for _, _, u in r.explain_targets
    )
    return {
        "verdict": plain.ok and quotient.ok,
        "symmetry_group": quotient.parameters.get("symmetry"),
        "universe_globals": {
            "full": globals_(plain),
            "quotient": globals_(quotient),
        },
        "total_checked": {
            "full": checked(plain),
            "quotient": checked(quotient),
        },
        "universe_reduction": round(globals_(plain) / globals_(quotient), 2),
        "checked_reduction": round(checked(plain) / checked(quotient), 2),
        "wall_time_seconds": {
            "full": round(plain_time, 3),
            "quotient": round(quotient_time, 3),
        },
    }


def run_symmetry_quotient(include_r2n3: bool = True) -> dict:
    """The symmetry-quotient section: per-protocol shrinkage at the
    bench instances, plus the headline — exhaustive Paxos R=2, N=3.

    Broadcast is included honestly: its per-node inputs are distinct, so
    node orbits barely collapse (~1x) — the section shows where the
    quotient pays and where it cannot, not just the flattering rows.
    For R2N3 the unquotiented side reports the universe size only; an
    unquotiented discharge over 600k+ globals (obligations quadratic in
    the universe) is recorded as infeasible rather than fabricated.
    """
    from repro.protocols import broadcast, nbuyer, twophase

    protocols = {
        "twophase-n3": _symmetry_verify_pair(twophase, {"n": 3}),
        "nbuyer-n3": _symmetry_verify_pair(nbuyer, {"n": 3}),
        "paxos-r2n2": _symmetry_verify_pair(
            paxos, {"rounds": 2, "num_nodes": 2}
        ),
        "broadcast-n3": _symmetry_verify_pair(broadcast, {"n": 3}),
    }
    section: dict = {"protocols": protocols}
    if include_r2n3:
        spec = paxos.make_symmetry(2, 3)
        app = paxos.make_sequentialization(2, 3)
        init = [initial_config(paxos.initial_global(2, 3))]

        reset_process_cache()
        combine.cache_clear()
        start = time.perf_counter()
        full_universe = StoreUniverse.from_reachable(app.program, init)
        full_explore_time = time.perf_counter() - start
        full_globals = len(full_universe.globals_)
        del full_universe

        reset_process_cache()
        combine.cache_clear()
        start = time.perf_counter()
        report = paxos.verify(
            rounds=2, num_nodes=3, ground_truth=False, symmetry=True
        )
        quotient_time = time.perf_counter() - start
        quotient_globals = max(
            len(u.globals_) for _, _, u in report.explain_targets
        )
        section["paxos-r2n3-exhaustive"] = {
            "verdict": report.ok,
            "status": report.status,
            "bounded": report.bounded,
            "symmetry_group": report.parameters.get("symmetry"),
            "group_order": spec.order(),
            "universe_globals": {
                "full": full_globals,
                "quotient": quotient_globals,
            },
            "universe_reduction": round(full_globals / quotient_globals, 2),
            "total_checked_quotient": sum(
                res.total_checked for _, res in report.is_results
            ),
            "wall_time_seconds": {
                "full_exploration_only": round(full_explore_time, 3),
                "quotient_pipeline": round(quotient_time, 3),
            },
            "full_discharge": (
                "not attempted: obligations are quadratic in the universe; "
                "previously only checkable as a random-walk bounded "
                "instance (verify_sampled, bounded=True)"
            ),
        }
    return section


def run_smoke(rounds: int = 1, nodes: int = 1) -> dict:
    """The CI guard: smallest Paxos instance, serial backend only.

    Exists so a scheduled pipeline can prove this script still runs end to
    end (imports, universe construction, engine API, JSON layout) in a few
    seconds, without the multi-minute full benchmark."""
    app = paxos.make_sequentialization(rounds, nodes)
    init_global = paxos.initial_global(rounds, nodes)
    reset_process_cache()
    combine.cache_clear()
    universe = _build_universe(app, init_global, uncached=False)
    result, seconds = _timed_check(app, universe, jobs=1)
    with tempfile.TemporaryDirectory(prefix="bench-rcache-smoke-") as d:
        rcache = _cache_trio(app, universe, d)
    representation = run_representation_attribution(
        app, init_global, jobs=4, reps=1
    )
    # Smoke Paxos runs at R=1, N=1 where the symmetry group is trivial,
    # so the quotient gate uses two-phase commit at n=3 — universes only,
    # which keeps the smoke lane fast while still proving the orbit fold
    # end to end (spec -> canonical BFS -> reduction factor).
    from repro.protocols import twophase

    spec = twophase.make_symmetry(3)
    tp_program = twophase.make_sequentializations(3)[0][1].program
    tp_init = [initial_config(twophase.initial_global(3))]
    reset_process_cache()
    full_universe = StoreUniverse.from_reachable(tp_program, tp_init)
    reset_process_cache()
    quotient_universe = StoreUniverse.from_reachable(
        tp_program, tp_init, symmetry=spec
    )
    symmetry_section = {
        "protocol": "twophase-n3",
        "symmetry_group": spec.name,
        "group_order": spec.order(),
        "universe_globals": {
            "full": len(full_universe.globals_),
            "quotient": len(quotient_universe.globals_),
        },
        "universe_reduction": round(
            len(full_universe.globals_) / len(quotient_universe.globals_), 2
        ),
    }
    return {
        "benchmark": "obligation discharge (Paxos) — smoke",
        "mode": "smoke",
        "instance": {"rounds": rounds, "num_nodes": nodes},
        "universe": {
            "globals": len(universe.globals_),
            "num_obligations_serial": result.num_obligations,
            "total_checked": result.total_checked,
        },
        "wall_time_seconds": {"serial_memoized": round(seconds, 3)},
        "verdict": result.holds,
        "cache_hit_rates_serial": {"evaluation": process_cache().as_dict()},
        "rcache": rcache,
        "representation": representation,
        "symmetry": symmetry_section,
    }


def measure_resilience(app, init_global, tracer=None, cycles: int = 1):
    """Serial vs serial_resilient, best of each side.

    The comparison is a small-percentage question asked of noisy single
    measurements, and successive checks within one process slow down by
    up to ~10% (allocator/GC drift) — measuring all serial reps before
    all resilient ones would bill that drift to resilience. Interleave
    the reps in ABBA order (``cycles`` times) and take the best of each
    side (a single pair under --trace, where doubled spans would pollute
    the trace file). Returns the serial result, time, and cache
    snapshots, then the resilient result and time.
    """
    plan = ["serial", "resilient"]
    if tracer is None:
        plan = ["serial", "resilient", "resilient", "serial"] * cycles

    def _run_serial():
        reset_process_cache()
        combine.cache_clear()
        universe = _build_universe(app, init_global, uncached=False)
        result, elapsed = _timed_check(
            app, universe, jobs=1, tracer=tracer, scope="serial"
        )
        # Snapshot here and drop the universe: keeping it alive into the
        # next rep would grow the heap the collector scans under it.
        caches = (
            process_cache().as_dict(),
            universe.context_cache_stats.as_dict(),
        )
        return result, elapsed, caches

    def _run_resilient():
        reset_process_cache()
        combine.cache_clear()
        universe = _build_universe(app, init_global, uncached=False)
        scheduler = SerialScheduler(
            resilience=ResilienceConfig(timeout_per_obligation=300.0)
        )
        result, elapsed = _timed_check(
            app, universe, scheduler=scheduler,
            tracer=tracer, scope="serial_resilient",
        )
        return result, elapsed

    serial_time = resilient_time = None
    serial_result = resilient_result = None
    serial_cache = context_cache = None
    for kind in plan:
        if kind == "serial":
            serial_result, elapsed, caches = _run_serial()
            if serial_time is None or elapsed < serial_time:
                serial_time = elapsed
                serial_cache, context_cache = caches
        else:
            resilient_result, elapsed = _run_resilient()
            if resilient_time is None or elapsed < resilient_time:
                resilient_time = elapsed
    return (
        serial_result, serial_time, serial_cache, context_cache,
        resilient_result, resilient_time,
    )


def _overhead_section(serial_time, resilient_time, resilient_result) -> dict:
    """serial_resilient vs serial_memoized: the cost of arming the
    per-obligation SIGALRM deadline with no fault firing. Design target:
    < 3%."""
    return {
        "seconds": round(resilient_time - serial_time, 3),
        "pct_vs_serial": round((resilient_time / serial_time - 1) * 100, 2),
        "target_pct": 3.0,
        "deadline_seconds": 300.0,
        "obligations": resilient_result.num_obligations,
    }


def rerecord_resilience(rounds: int, nodes: int, output: Path) -> dict:
    """Re-measure only ``resilience_overhead`` (five ABBA cycles) and
    write it into the recorded benchmark at ``output``, leaving every
    other section as recorded. The full benchmark's pool sections need
    minutes and gigabytes; this comparison is serial only."""
    app = paxos.make_sequentialization(rounds, nodes)
    init_global = paxos.initial_global(rounds, nodes)
    serial_result, serial_time, _, _, resilient_result, resilient_time = (
        measure_resilience(app, init_global, cycles=5)
    )
    assert _condition_map(serial_result) == _condition_map(resilient_result), (
        "resilience-armed condition map diverges from serial"
    )
    payload = json.loads(output.read_text())
    section = _overhead_section(serial_time, resilient_time, resilient_result)
    section.update(
        instance={"rounds": rounds, "num_nodes": nodes},
        serial_seconds=round(serial_time, 3),
        resilient_seconds=round(resilient_time, 3),
        cpus=os.cpu_count() or 1,
        python=sys.version.split()[0],
        note="re-measured alone (--resilience-only, best of 10 per side); "
        "wall_time_seconds is from the last full run",
    )
    payload["resilience_overhead"] = section
    return payload


def run_benchmark(rounds: int, nodes: int, jobs: int, tracer=None) -> dict:
    app = paxos.make_sequentialization(rounds, nodes)
    init_global = paxos.initial_global(rounds, nodes)

    # --- uncached baseline -------------------------------------------------
    reset_process_cache()
    combine.cache_clear()
    baseline_universe = _build_universe(app, init_global, uncached=True)
    with caching_disabled():
        baseline_result, baseline_time = _timed_check(app, baseline_universe)

    (
        serial_result, serial_time, serial_cache, context_cache,
        resilient_result, resilient_time,
    ) = measure_resilience(app, init_global, tracer=tracer)

    # --- process pool, cold workers (no pre-warm) --------------------------
    reset_process_cache()
    combine.cache_clear()
    cold_universe = _build_universe(app, init_global, uncached=False)
    cold_scheduler, clamp_warning = _pool_scheduler(jobs)
    cold_scheduler.warm = False
    cold_result, cold_time = _timed_check(
        app, cold_universe, scheduler=cold_scheduler,
        tracer=tracer, scope="parallel_cold",
    )

    # --- process pool, warm workers (fork-inherited memos) -----------------
    reset_process_cache()
    combine.cache_clear()
    warm_universe = _build_universe(app, init_global, uncached=False)
    warm_scheduler, _ = _pool_scheduler(jobs)
    warm_result, warm_time = _timed_check(
        app, warm_universe, scheduler=warm_scheduler,
        tracer=tracer, scope="parallel_warm",
    )

    verdicts = {
        "uncached": baseline_result.holds,
        "serial": serial_result.holds,
        "serial_resilient": resilient_result.holds,
        "parallel_cold": cold_result.holds,
        "parallel_warm": warm_result.holds,
    }
    assert len(set(verdicts.values())) == 1, f"backends disagree: {verdicts}"
    assert _condition_map(serial_result) == _condition_map(warm_result), (
        "warm pool condition map diverges from serial"
    )
    assert _condition_map(serial_result) == _condition_map(resilient_result), (
        "resilience-armed condition map diverges from serial"
    )

    # --- persistent result cache: cold / warm / one-edit -------------------
    reset_process_cache()
    combine.cache_clear()
    rcache_universe = _build_universe(app, init_global, uncached=False)
    with tempfile.TemporaryDirectory(prefix="bench-rcache-") as d:
        rcache_trio = _cache_trio(app, rcache_universe, d)
    incremental = run_incremental_per_protocol()

    # --- representation attribution: dict vs interned vs columnar ----------
    representation = run_representation_attribution(app, init_global, jobs)

    # --- symmetry quotient: per-protocol shrinkage + exhaustive R2N3 -------
    # Only for the default full benchmark: the R2N3 exploration alone runs
    # for minutes, and the small-instance invocations (--rounds 1) are
    # documented as second-scale smoke runs.
    symmetry_section = (
        run_symmetry_quotient() if (rounds, nodes) == (2, 2) else None
    )

    effective_jobs = warm_scheduler.jobs
    slowest = sorted(
        serial_result.timings.items(), key=lambda kv: kv[1], reverse=True
    )[:8]
    cpus = os.cpu_count() or 1
    return {
        "benchmark": "obligation discharge (Paxos)",
        "instance": {"rounds": rounds, "num_nodes": nodes},
        "universe": {
            "globals": len(universe.globals_),
            "num_obligations_serial": serial_result.num_obligations,
            "num_obligations_sharded": warm_result.num_obligations,
            "total_checked": serial_result.total_checked,
        },
        "environment": {
            "cpus": cpus,
            "python": sys.version.split()[0],
            "fork_available": "fork"
            in multiprocessing.get_all_start_methods(),
        },
        "jobs": {
            "requested": jobs,
            "effective": effective_jobs,
            "clamped": effective_jobs != jobs,
            "clamp_warning": clamp_warning,
        },
        "wall_time_seconds": {
            "uncached_baseline": round(baseline_time, 3),
            "serial_memoized": round(serial_time, 3),
            "serial_resilient": round(resilient_time, 3),
            "parallel_cold": round(cold_time, 3),
            "parallel_warm": round(warm_time, 3),
        },
        "resilience_overhead": _overhead_section(
            serial_time, resilient_time, resilient_result
        ),
        "speedup_vs_uncached": {
            "serial_memoized": round(baseline_time / serial_time, 2),
            "parallel_cold": round(baseline_time / cold_time, 2),
            "parallel_warm": round(baseline_time / warm_time, 2),
        },
        "parallel_vs_serial": {
            "cold": round(serial_time / cold_time, 2),
            "warm": round(serial_time / warm_time, 2),
        },
        "warmup": {
            "seconds": round(warm_result.warmup_seconds, 3),
            "evaluations": warm_scheduler.last_warmed_evaluations,
        },
        "verdict": verdicts["serial"],
        "cache_hit_rates_serial": {
            "evaluation": serial_cache,
            "context_pair_single": context_cache,
        },
        "rcache": {
            # The persistent obligation-result cache (repro.engine.rcache):
            # cold populates, warm re-verifies with zero executions, and
            # one_edit (a no-op invariant rewrap) re-executes exactly the
            # invariant readers — see 'invalidations' in its attribution.
            "trio": rcache_trio,
            "incremental_vs_full_by_protocol": incremental,
        },
        "representation": {
            # Per-layer attribution of the interned/columnar store
            # representation: interning alone (int memo keys, id-pair
            # combine), columnar batching on top, and what the pool's int
            # shard bounds save over object-graph shards at the fork
            # boundary.
            **representation,
        },
        # Orbit quotient: universes folded to lexicographic-least
        # representatives under each protocol's declared permutation
        # group; verdicts are asserted identical to the full runs. The
        # headline entry is Paxos R=2, N=3 discharged exhaustively —
        # previously only reachable as a random-walk bounded check.
        # Default-instance runs only (minutes of exploration).
        **({"symmetry": symmetry_section} if symmetry_section else {}),
        "workers_warm": _worker_summary(warm_result),
        "workers_cold": _worker_summary(cold_result),
        "slowest_obligations_serial": [
            {
                "key": key,
                "seconds": round(elapsed, 3),
                "checked": serial_result.obligation_checked.get(key, 0),
            }
            for key, elapsed in slowest
        ],
        "notes": (
            "Jobs are clamped to the host CPU count (extra CPU-bound "
            "workers only add fork overhead); 'effective' is the worker "
            "count actually used. On a single-CPU host the pool cannot "
            "beat the serial run — the honest comparison there is "
            "parallel_warm vs parallel_cold (the fork-inherited warm "
            "memos) and serial_memoized vs uncached_baseline (the "
            "memoization layer). Multi-core speedups require cpus > 1."
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument(
        "--output",
        type=Path,
        default=ROOT / "BENCH_obligations.json",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smallest instance (R=1, N=1), serial backend only — the CI "
        "guard against this script rotting",
    )
    parser.add_argument(
        "--resilience-only",
        action="store_true",
        help="re-measure only the resilience_overhead section and update "
        "it in --output, keeping the other recorded sections",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="also write a Chrome trace_event JSON spanning the serial, "
        "cold-pool, and warm-pool runs",
    )
    args = parser.parse_args(argv)

    if args.resilience_only:
        payload = rerecord_resilience(args.rounds, args.nodes, args.output)
    elif args.smoke:
        payload = run_smoke()
        if args.output == ROOT / "BENCH_obligations.json":
            # Never clobber the recorded full benchmark with smoke data.
            args.output = ROOT / "BENCH_obligations_smoke.json"
    else:
        tracer = None
        if args.trace is not None:
            from repro.obs import Tracer

            tracer = Tracer()
        payload = run_benchmark(args.rounds, args.nodes, args.jobs, tracer=tracer)
        if tracer is not None:
            from repro.obs import write_chrome_trace

            write_chrome_trace(tracer, args.trace)
            payload["trace_file"] = str(args.trace)
            print(
                f"wrote {args.trace} ({len(tracer.spans)} spans)",
                file=sys.stderr,
            )
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Spans around calls into the verifier's layers, recorded from outside.

:func:`install` wraps public functions of each layer (by module path,
reached through ``sys.modules`` so a re-exported function of the same
name cannot shadow its module) and returns a :class:`Tracer` whose spans
carry a name, start, end, parent and iteration id. Nothing under the
package changes; untraced runs never call :func:`install`.

A layer's self time is its span's duration minus its child spans'. A
span nested in a span of the same name (a scheduler falling back to the
serial one) adds self time but not inclusive time, so no interval is
counted twice.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List


class Tracer:
    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, iteration, nested]
        self.spans: List[list] = []
        self.counts: Dict[object, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.iteration: object = None
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------- #

    def enter(self, name: str) -> int:
        nested = any(self.spans[i][0] == name for i in self._stack)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, time.perf_counter(), None, parent, self.iteration, nested]
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[self.iteration][key] += amount

    @contextmanager
    def span(self, name: str):
        index = self.enter(name)
        try:
            yield
        finally:
            self.exit(index)

    # -- wrapping ----------------------------------------------------- #

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        A module-level function is also replaced in every loaded module
        that bound it under some name (``from .explore import explore``),
        so callers holding their own binding are traced too."""
        static = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(static, classmethod)
        target = static.__func__ if is_classmethod else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.enter(name)
            try:
                result = target(*args, **kwargs)
            finally:
                tracer.exit(index)
            if on_result is not None:
                on_result(tracer, result)
            return result

        wrapper.__wrapped__ = target
        if not inspect.ismodule(owner):
            setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
            self._undo.append(lambda: setattr(owner, attr, static))
            return
        for module in list(sys.modules.values()):
            for key, value in list(getattr(module, "__dict__", {}).items()):
                if value is target:
                    setattr(module, key, wrapper)
                    self._undo.append(
                        lambda module=module, key=key: setattr(module, key, target)
                    )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- analysis ----------------------------------------------------- #

    def layer_times(self) -> Dict[object, Dict[str, Dict[str, float]]]:
        """Per iteration, per span name: inclusive seconds, self seconds
        and call count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _it, _nested in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        out: Dict[object, Dict[str, Dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        )
        for i, (name, start, end, _parent, it, nested) in enumerate(self.spans):
            if end is None:
                continue
            entry = out[it][name]
            entry["self_s"] += (end - start) - child[i]
            entry["calls"] += 1
            if not nested:
                entry["s"] += end - start
        return out

    def records(self) -> List[dict]:
        """The spans as JSON-ready dicts, in start order."""
        return [
            {
                "id": i,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent if parent >= 0 else None,
                "iteration": it,
            }
            for i, (name, start, end, parent, it, _nested) in enumerate(self.spans)
        ]


def _module(name: str):
    __import__(name)
    return sys.modules[name]


def _count_globals(tracer: Tracer, universe) -> None:
    tracer.count("explore.globals", len(universe.globals_))


def _count_configs(tracer: Tracer, result) -> None:
    tracer.count("explore.configs", result.num_configs)


def _count_hit(tracer: Tracer, entry) -> None:
    tracer.count("rcache.hits", entry is not None)


def install(protocol_modules=()) -> Tracer:
    """Wrap every layer boundary the benchmark reports on.

    ``protocol_modules`` are the protocol modules whose ``verify`` entry
    points frame the pipeline glue (``pipeline.self_s``).
    """
    tracer = Tracer()
    universe = _module("repro.core.universe")
    explore = _module("repro.core.explore")
    symmetry = _module("repro.core.symmetry")
    refinement = _module("repro.core.refinement")
    sequentialize = _module("repro.core.sequentialize")
    rcache = _module("repro.engine.rcache")
    obligations = _module("repro.engine.obligations")
    scheduler = _module("repro.engine.scheduler")
    table1 = _module("repro.analysis.table1")

    wrap = tracer.wrap
    wrap(table1, "build_table1", "table1")
    for module in protocol_modules:
        wrap(module, "verify", "pipeline")
    wrap(universe.StoreUniverse, "from_reachable", "explore", _count_globals)
    wrap(explore, "explore", "explore.bfs", _count_configs)
    wrap(symmetry.Canonicalizer, "config", "symmetry.canonicalize")
    wrap(explore, "instance_summary", "spec")
    wrap(refinement, "check_program_refinement", "ground_truth")
    wrap(obligations, "discharge", "discharge")
    wrap(obligations, "build_obligations", "obligations.build")
    wrap(obligations, "merge_outcomes", "merge")
    wrap(rcache, "universe_fingerprint", "fingerprint.universe")
    wrap(rcache.DependencyFingerprinter, "fingerprint", "fingerprint.obligation")
    wrap(rcache.DependencyFingerprinter, "identity", "fingerprint.obligation")
    wrap(rcache.ObligationCache, "lookup", "rcache.lookup", _count_hit)
    wrap(rcache.ObligationCache, "store", "rcache.store")
    wrap(rcache.ObligationCache, "flush", "rcache.flush")
    wrap(scheduler.SerialScheduler, "run", "scheduler.run")
    wrap(scheduler.ProcessPoolScheduler, "run", "scheduler.run")
    wrap(sequentialize.ISApplication, "warm_evaluation_cache", "pool.warmup")
    wrap(sequentialize.ISApplication, "warm_columns", "pool.warmup")
    return tracer


def layer_metrics(
    tracer: Tracer, iterations: List[object], walls: List[float]
) -> Dict[str, float]:
    """Per-iteration means of every span-derived layer metric.

    ``*.s`` figures are inclusive, so a layer called from another counts
    in both: ``check_program_refinement`` calls ``instance_summary``
    (``spec.s`` inside ``ground_truth.s``), and ``instance_summary`` runs
    the BFS (``explore.bfs_s`` is not only inside ``explore.s``).

    ``coverage_ratio`` is the share of iteration wall time under some
    layer span: everything but the benchmark's own loop (the
    ``iteration`` span's self time)."""
    times = tracer.layer_times()
    n = max(1, len(iterations))

    def total(name: str, field: str) -> float:
        return sum(times[it][name][field] for it in iterations if name in times[it])

    def counted(key: str) -> float:
        return sum(tracer.counts[it].get(key, 0.0) for it in iterations)

    lookups = total("rcache.lookup", "calls")
    run_s = total("scheduler.run", "s")
    attributed = sum(
        entry["self_s"]
        for it in iterations
        for name, entry in times[it].items()
        if name != "iteration"
    )
    metrics = {
        "explore.calls": total("explore", "calls") / n,
        "explore.s": total("explore", "s") / n,
        "explore.bfs_s": total("explore.bfs", "s") / n,
        "explore.harvest_s": total("explore", "self_s") / n,
        "explore.configs": counted("explore.configs") / n,
        "explore.globals": counted("explore.globals") / n,
        "symmetry.canonicalize_calls": total("symmetry.canonicalize", "calls") / n,
        "symmetry.canonicalize_s": total("symmetry.canonicalize", "s") / n,
        "fingerprint.universe_s": total("fingerprint.universe", "s") / n,
        "fingerprint.obligation_s": total("fingerprint.obligation", "s") / n,
        "rcache.lookup_calls": lookups / n,
        "rcache.lookup_s": total("rcache.lookup", "s") / n,
        "rcache.hit_ratio": counted("rcache.hits") / lookups if lookups else 0.0,
        "rcache.store_calls": total("rcache.store", "calls") / n,
        "rcache.store_s": total("rcache.store", "s") / n,
        "rcache.flush_s": total("rcache.flush", "s") / n,
        "obligations.build_s": total("obligations.build", "s") / n,
        "scheduler.run_s": run_s / n,
        "discharge.self_s": total("discharge", "self_s") / n,
        "merge.s": total("merge", "s") / n,
        "pool.warmup_s": total("pool.warmup", "s") / n,
        "spec.s": total("spec", "s") / n,
        "ground_truth.s": total("ground_truth", "s") / n,
        "pipeline.self_s": (total("pipeline", "self_s") + total("fixture", "self_s")) / n,
        "table1.self_s": total("table1", "self_s") / n,
        "coverage_ratio": attributed / sum(walls) if walls else 0.0,
    }
    return metrics

"""The obligation DAG: IS conditions decomposed into schedulable units.

``ISApplication.check_inline`` discharges Figure 3's conditions as six
monolithic loops. This module decomposes the same work into an explicit DAG
of named :class:`Obligation` values — one refinement check per abstracted
action, I1, I2, contiguous shards of I3's outer quantifier, one left-mover
check per (abstraction, program action) pair, and one cooperation check per
eliminated action — and recomposes the per-obligation
:class:`~repro.core.refinement.CheckResult` values into an
:class:`~repro.core.sequentialize.ISResult` whose condition map is
*identical* to the inline checker's (same keys, names, verdicts, check
counts, and counterexamples), regardless of which scheduler discharged the
obligations or in what order they completed.

The DAG has depth two: LM and CO obligations of an abstracted action depend
on its ``abs`` obligation, and I3 depends on all of them (it steps through
every abstraction), so a failed abstraction lets a fail-fast scheduler skip
the conditions that would be checking a refinement that does not hold.
Skipping is a function of the DAG and recorded verdicts — never of timing —
so fail-fast runs are deterministic too (skipped conditions carry an
explicit ``skipped`` counterexample). The default is to run everything,
matching the inline checker.

Obligations are (de)hydratable by key: :func:`execute_obligation` takes an
application + universe + obligation and runs exactly one unit of work, which
is what the process-pool backend ships to workers (the payload travels by
``fork`` inheritance; only keys and results cross the pipe — see
``repro.engine.scheduler``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.movers import LM_CONDITION_ORDER, left_mover_condition
from ..core.refinement import COUNTEREXAMPLE_KEEP, CheckResult
from ..core.sequentialize import ISApplication, ISResult
from ..core.universe import StoreUniverse
from ..diagnose.witness import SkippedMarker, TimeoutMarker
from .resilience import DischargeInterrupted, ResilienceConfig

__all__ = [
    "Obligation",
    "build_obligations",
    "execute_obligation",
    "merge_outcomes",
    "discharge",
    "shard_count",
    "lm_slice_count",
]

#: Per-obligation counterexample cap — the single shared constant from
#: ``repro.diagnose.witness`` (also used by ``refinement._fail`` and the
#: inline mover combiners), so every merge path truncates identically.
_KEEP = COUNTEREXAMPLE_KEEP


def _slices(num_items: int, shards: int) -> List[Tuple[int, int]]:
    """``shards`` contiguous ``(lo, hi)`` index slices covering
    ``range(num_items)``, remainder spread over the leading shards so
    sizes differ by at most one."""
    shards = max(1, min(int(shards), max(1, num_items)))
    base, extra = divmod(num_items, shards)
    bounds = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def shard_count(
    num_items: int, parallelism: int, factor: int = 2, min_chunk: int = 16
) -> int:
    """How many contiguous shards to split an enumeration of ``num_items``
    stores into: enough sub-obligations to keep ``parallelism`` workers
    busy (``factor`` shards per worker), but never shards smaller than
    ``min_chunk`` items — tiny shards pay scheduling overhead without
    adding parallelism. Sized off the universe, not a fixed constant, so
    large instances shard finer than small ones."""
    if parallelism <= 1 or num_items <= 1:
        return 1
    largest_useful = max(1, num_items // min_chunk)
    return max(1, min(factor * parallelism, largest_useful, num_items))


def lm_slice_count(
    num_pairs: int, num_globals: int, parallelism: int, factor: int = 2
) -> int:
    """Globals slices per (LM pair, condition) sub-obligation.

    Splitting every LM cell into its four conditions already multiplies
    the schedulable units by four; slices are only added when that still
    leaves fewer than ``factor * parallelism`` units (small programs, big
    pools). Returns 0 when the pool has no parallelism — the legacy
    whole-pair obligations are cheaper to schedule serially.
    """
    if parallelism <= 1 or num_pairs == 0:
        return 0
    units = num_pairs * len(LM_CONDITION_ORDER)
    target = factor * parallelism
    if units >= target:
        return 1
    want = -(-target // units)  # ceil
    return max(1, min(want, num_globals or 1))


@dataclass(frozen=True)
class Obligation:
    """One schedulable unit of IS proof work.

    ``kind`` is the condition family (``abs``/``I1``/``I2``/``I3``/``LM``/
    ``CO``); ``condition`` is the key of the condition-map entry this
    obligation contributes to (several obligations may share one, e.g. the
    I3 shards); ``params`` are the instance parameters the executor
    dispatches on; ``deps`` are keys of obligations whose failure makes
    this one moot.
    """

    key: str
    kind: str
    condition: str
    params: Tuple = ()
    deps: Tuple[str, ...] = ()

    def __repr__(self) -> str:
        return f"Obligation({self.key})"


def build_obligations(
    app: ISApplication,
    universe: StoreUniverse,
    lm_skip: Iterable[str] = (),
    i3_shards: int = 1,
    lm_shards: int = 0,
) -> List[Obligation]:
    """The obligation DAG for one IS application, in deterministic order.

    The order is the inline checker's condition order (abs, I1, I2, I3, LM,
    CO), which is also a topological order of the dependency edges — a
    serial scheduler can walk the list front to back.

    ``i3_shards`` splits I3's outer quantifier (the universe's globals)
    into that many contiguous slices; the full condition is the in-order
    concatenation of the shard results. ``lm_shards`` likewise splits each
    LM pair cell: ``0`` keeps the legacy one-obligation-per-pair layout,
    and ``k >= 1`` replaces every pair with its four left-mover conditions
    (:data:`~repro.core.movers.LM_CONDITION_ORDER`), each sliced into
    ``k`` contiguous globals ranges — the granularity the process pool
    needs to saturate its workers, since LM pairs dominate wall time.
    Sharding changes only scheduling granularity, never the merged
    condition map.
    """
    obligations: List[Obligation] = []
    abs_keys: List[str] = []
    for name in app.eliminated:
        if name in app.abstractions:
            key = f"abs[{name}]"
            abs_keys.append(key)
            obligations.append(
                Obligation(key=key, kind="abs", condition=key, params=(name,))
            )
    all_abs = tuple(abs_keys)

    obligations.append(Obligation(key="I1", kind="I1", condition="I1"))
    obligations.append(Obligation(key="I2", kind="I2", condition="I2"))

    num_globals = len(universe.globals_)
    i3_bounds = _slices(num_globals, i3_shards)
    if len(i3_bounds) == 1:
        obligations.append(
            Obligation(
                key="I3",
                kind="I3",
                condition="I3",
                params=(0, num_globals),
                deps=all_abs,
            )
        )
    else:
        for i, (lo, hi) in enumerate(i3_bounds):
            obligations.append(
                Obligation(
                    key=f"I3#{i}",
                    kind="I3",
                    condition="I3",
                    params=(lo, hi),
                    deps=all_abs,
                )
            )

    skipped = set(lm_skip)
    lm_targets = [x for x in app.program.action_names() if x not in skipped]
    lm_bounds = _slices(num_globals, lm_shards) if lm_shards >= 1 else None
    for name in app.eliminated:
        dep = (f"abs[{name}]",) if name in app.abstractions else ()
        for other in lm_targets:
            if lm_bounds is None:
                obligations.append(
                    Obligation(
                        key=f"LM[{name}|{other}]",
                        kind="LM",
                        condition=f"LM[{name}]",
                        params=(name, other),
                        deps=dep,
                    )
                )
            else:
                # Condition-major, slice-minor: merging in build order
                # then reproduces is_left_mover's concatenation order.
                for cond in LM_CONDITION_ORDER:
                    for i, (lo, hi) in enumerate(lm_bounds):
                        obligations.append(
                            Obligation(
                                key=f"LM[{name}|{other}|{cond}#{i}]",
                                kind="LMc",
                                condition=f"LM[{name}]",
                                params=(name, other, cond, lo, hi),
                                deps=dep,
                            )
                        )
        obligations.append(
            Obligation(
                key=f"CO[{name}]",
                kind="CO",
                condition="CO",
                params=(name,),
                deps=dep,
            )
        )
    return obligations


def execute_obligation(
    app: ISApplication,
    universe: StoreUniverse,
    obligation: Obligation,
    lm_universes: Optional[Dict[str, StoreUniverse]] = None,
) -> CheckResult:
    """Discharge one obligation, returning its raw :class:`CheckResult`.

    ``lm_universes`` is an optional per-run memo of
    :meth:`ISApplication.lm_universe` extensions, so the LM cells of one
    abstraction share a single extended universe (and hence its
    pair-admissibility cache) instead of rebuilding it per cell. Workers
    keep one such memo per process.
    """
    kind = obligation.kind
    if kind == "abs":
        (name,) = obligation.params
        return app.check_abstractions(universe, names=[name])[obligation.key]
    if kind == "I1":
        return app.check_i1(universe)
    if kind == "I2":
        return app.check_i2(universe)
    if kind == "I3":
        lo, hi = obligation.params
        return app.check_i3(universe, globals_subset=universe.globals_[lo:hi])
    if kind == "LM":
        name, other = obligation.params
        uni2 = _lm_universe_for(app, universe, name, lm_universes)
        return app.check_lm_pair(universe, name, other, universe_for_abs=uni2)
    if kind == "LMc":
        from ..core.action import Action

        name, other, cond, lo, hi = obligation.params
        uni2 = _lm_universe_for(app, universe, name, lm_universes)
        if uni2 is None:
            uni2 = app.lm_universe(universe, name)
        abstraction = app.abstraction_of(name)
        return left_mover_condition(
            Action(name, abstraction.gate, abstraction.transitions, abstraction.params),
            app.program[other],
            uni2,
            cond,
            globals_subset=uni2.globals_[lo:hi],
        )
    if kind == "CO":
        (name,) = obligation.params
        return app.check_co(universe, names=[name])
    raise ValueError(f"unknown obligation kind {kind!r}")


def _lm_universe_for(app, universe, name, lm_universes):
    """The per-run memo of LM-extended universes (see
    :func:`execute_obligation`); ``None`` when no memo was supplied."""
    if lm_universes is None:
        return None
    uni2 = lm_universes.get(name)
    if uni2 is None:
        uni2 = app.lm_universe(universe, name)
        lm_universes[name] = uni2
    return uni2


def _skipped_result(name: str, reasons: Iterable[str]) -> CheckResult:
    result = CheckResult(name, False)
    for reason in reasons:
        result.counterexamples.append(
            SkippedMarker(reason=f"skipped: {reason}", check="skipped")
        )
    return result


def _condition_display_name(ob: Obligation) -> str:
    """The condition-map display name an unexecuted obligation reports
    under — the same names the executed paths produce."""
    if ob.kind in ("LM", "LMc"):
        return f"α({ob.params[0]}) vs {ob.params[1]}"
    return {
        "I3": "I3: inductive step",
        "CO": "CO: cooperation",
    }.get(ob.kind, ob.key)


def _fault_result(ob: Obligation, outcome, deadline) -> CheckResult:
    """The :class:`TimeoutMarker`-carrying result of an obligation that
    never completed: deadline expiry, terminal crash, or interrupt
    (``outcome is None`` — the run stopped before it was scheduled)."""
    name = _condition_display_name(ob)
    if outcome is None:
        marker = TimeoutMarker(
            reason="interrupted before execution", check="interrupted"
        )
    elif outcome.timed_out:
        marker = TimeoutMarker(
            reason=f"deadline of {deadline}s exceeded",
            check="timeout",
            attempts=outcome.attempts,
            deadline=deadline,
        )
    else:
        marker = TimeoutMarker(
            reason=(
                f"crashed after {outcome.attempts} attempt(s): "
                f"{outcome.error}"
            ),
            check="crash",
            attempts=outcome.attempts,
            deadline=deadline,
        )
    return CheckResult(name, False, [marker])


def merge_outcomes(
    app: ISApplication,
    obligations: List[Obligation],
    results: Mapping[str, CheckResult],
    timings: Optional[Mapping[str, float]] = None,
) -> ISResult:
    """Recompose per-obligation results into the inline condition map.

    Deterministic: iterates ``obligations`` in build order, so the merged
    map is independent of scheduler, job count, and completion order.

    * ``abs``/``I1``/``I2`` map one-to-one onto condition entries.
    * ``I3`` shards concatenate: checks are summed and counterexamples
      joined in shard order then truncated to the inline checker's cap of
      five (each shard keeps its *first* five, so the concatenation's
      prefix equals the unsharded enumeration's prefix).
    * ``LM`` cells fold into one per-abstraction condition exactly like
      ``is_left_mover_wrt_program``: checks summed over program actions in
      program order, counterexamples prefixed ``wrt {action}`` and the
      folded list truncated to the same cap as the inline merge.
    * ``LMc`` shards (condition-level slices of an LM cell — see
      ``build_obligations``) reproduce ``is_left_mover`` before folding:
      within one (pair, condition), slice counterexamples concatenate in
      slice order and cap at :data:`COUNTEREXAMPLE_KEEP` (each slice keeps
      its *first* cap-many, so the prefix equals the unsliced
      enumeration's), carry the condition result's name as prefix exactly
      like ``_combine_conditions``, and then fold with the same
      ``wrt {action}`` prefix and final truncation as whole cells.
    * ``CO`` per-action results concatenate into the single cooperation
      condition, truncated like I3.

    Every condition entry ends up capped at :data:`COUNTEREXAMPLE_KEEP`
    counterexamples in enumeration order — the one truncation rule shared
    with the inline checkers, asserted across backends in
    ``tests/diagnose``.
    """
    merged = ISResult()
    conditions = merged.conditions
    lm_cond_kept: Dict[Tuple[str, str, str], int] = {}
    for ob in obligations:
        sub = results.get(ob.key)
        if sub is None:
            continue
        if ob.kind in ("abs", "I1", "I2"):
            conditions[ob.condition] = sub
        elif ob.kind == "I3":
            acc = conditions.get(ob.condition)
            if acc is None:
                acc = CheckResult("I3: inductive step", True)
                conditions[ob.condition] = acc
            acc.checked += sub.checked
            if not sub.holds:
                acc.holds = False
                remaining = _KEEP - len(acc.counterexamples)
                if remaining > 0:
                    acc.counterexamples.extend(sub.counterexamples[:remaining])
        elif ob.kind == "LM":
            name, other = ob.params
            acc = conditions.get(ob.condition)
            if acc is None:
                acc = CheckResult(f"LM: α({name}) left mover wrt P", True)
                conditions[ob.condition] = acc
            acc.checked += sub.checked
            if not sub.holds:
                acc.holds = False
                if len(acc.counterexamples) < _KEEP:
                    acc.counterexamples.extend(
                        cx.with_prefix(f"wrt {other}")
                        for cx in sub.counterexamples
                    )
                    del acc.counterexamples[_KEEP:]
        elif ob.kind == "LMc":
            name, other, cond = ob.params[:3]
            acc = conditions.get(ob.condition)
            if acc is None:
                acc = CheckResult(f"LM: α({name}) left mover wrt P", True)
                conditions[ob.condition] = acc
            acc.checked += sub.checked
            if not sub.holds:
                acc.holds = False
                cell = (name, other, cond)
                kept = lm_cond_kept.get(cell, 0)
                for cx in sub.counterexamples:
                    if isinstance(cx, SkippedMarker):
                        # Fail-fast skips carry no condition-result name.
                        if len(acc.counterexamples) < _KEEP:
                            acc.counterexamples.append(
                                cx.with_prefix(f"wrt {other}")
                            )
                        continue
                    if kept >= _KEEP:
                        break
                    kept += 1
                    if len(acc.counterexamples) < _KEEP:
                        acc.counterexamples.append(
                            cx.with_prefix(f"wrt {other}", sub.name)
                        )
                lm_cond_kept[cell] = kept
        elif ob.kind == "CO":
            acc = conditions.get(ob.condition)
            if acc is None:
                acc = CheckResult("CO: cooperation", True)
                conditions[ob.condition] = acc
            acc.checked += sub.checked
            if not sub.holds:
                acc.holds = False
                remaining = _KEEP - len(acc.counterexamples)
                if remaining > 0:
                    acc.counterexamples.extend(sub.counterexamples[:remaining])
        merged.obligation_checked[ob.key] = sub.checked
        if timings is not None and ob.key in timings:
            merged.timings[ob.key] = timings[ob.key]
    return merged


def discharge(
    app: ISApplication,
    universe: StoreUniverse,
    lm_skip: Iterable[str] = (),
    jobs: Optional[int] = None,
    scheduler=None,
    fail_fast: bool = False,
    tracer=None,
    resilience: Optional[ResilienceConfig] = None,
    cache=None,
) -> ISResult:
    """Build, schedule, and merge the obligation DAG for one application.

    ``jobs`` selects the backend (``None``/``0``/``1``: serial; ``>1``:
    fork-based process pool, falling back to serial where ``fork`` is
    unavailable); an explicit ``scheduler`` instance overrides it. For a
    pool backend the dominant obligations are sharded off the universe
    size: I3's outer quantifier into :func:`shard_count` contiguous
    slices, and every LM pair cell into its four conditions times
    :func:`lm_slice_count` globals slices — enough sub-obligations to
    saturate the workers. The serial backend keeps the coarse layout
    (sharding buys it nothing and costs bookkeeping).

    ``tracer`` (a :class:`repro.obs.Tracer`) records one span per
    obligation — including every shard and slice, and skipped obligations
    (zero duration, flagged) — plus the pool's cache warm-up pass and any
    resilience events (timeouts, retries, pool rebuilds). Spans are
    derived *after* scheduling from the outcomes and events the scheduler
    records anyway, so a tracer can never perturb verdicts, condition
    maps, or scheduling/recovery decisions.

    ``resilience`` (a :class:`~repro.engine.resilience.ResilienceConfig`)
    arms per-obligation deadlines and crash retries. A
    ``KeyboardInterrupt`` mid-run is salvaged: the completed outcomes are
    merged into a partial result with ``interrupted=True`` and the
    unexecuted obligations marked with ``interrupted`` timeout witnesses.

    ``cache`` (an :class:`~repro.engine.rcache.ObligationCache`, or a
    directory path) arms the persistent content-addressed result store:
    before scheduling, every obligation's dependency fingerprint is
    computed and looked up — a hit seeds the recorded verdict (witnesses
    included) into the fail-fast verdict map and the obligation never
    executes (outcomes marked ``cached``). Every freshly completed
    obligation is stored back *while the run goes on* (the scheduler's
    ``store`` callback), so a run that is killed or interrupted resumes
    from the cache: what it completed is a hit on the next run. Cache
    decisions are recorded as events on the cache object and become
    ``rcache`` spans when a tracer is attached — derived after the fact,
    so tracing never perturbs caching (or vice versa).
    """
    import os as _os
    import time as _time

    from .rcache import DependencyFingerprinter, ObligationCache
    from .scheduler import ObligationOutcome, make_scheduler

    if scheduler is None:
        scheduler = make_scheduler(jobs, resilience=resilience)
    cfg = (
        resilience
        if resilience is not None
        else getattr(scheduler, "resilience", None)
    ) or ResilienceConfig()
    parallelism = scheduler.parallelism
    num_globals = len(universe.globals_)
    lm_targets = [
        x for x in app.program.action_names() if x not in set(lm_skip)
    ]
    num_pairs = len(app.eliminated) * len(lm_targets)
    obligations = build_obligations(
        app,
        universe,
        lm_skip=lm_skip,
        i3_shards=shard_count(num_globals, parallelism),
        lm_shards=lm_slice_count(num_pairs, num_globals, parallelism),
    )
    cache = ObligationCache.ensure(cache)
    cache_hits: Dict[str, object] = {}
    fingerprints: Dict[str, Tuple[Optional[str], str]] = {}
    cache_stats_before = cache.stats.snapshot() if cache is not None else None
    cache_events_before = len(cache.events) if cache is not None else 0
    if cache is not None:
        fingerprinter = DependencyFingerprinter(app, universe)
        for ob in obligations:
            pair = (fingerprinter.fingerprint(ob), fingerprinter.identity(ob))
            fingerprints[ob.key] = pair
            if pair[0] is None:
                cache.note_uncacheable(ob.key)
                continue
            entry = cache.lookup(pair[0], pair[1], ob.key)
            if entry is not None:
                cache_hits[ob.key] = entry
    interrupted = False
    try:
        if cache is not None:

            def store(outcome) -> None:
                fingerprint, identity = fingerprints[outcome.key]
                if fingerprint is not None:
                    cache.store(fingerprint, identity, outcome.key, outcome)

            outcomes = scheduler.run(
                app,
                universe,
                [ob for ob in obligations if ob.key not in cache_hits],
                fail_fast=fail_fast,
                store=store,
                seed_verdicts={k: e.holds for k, e in cache_hits.items()},
            )
        else:
            outcomes = scheduler.run(
                app, universe, obligations, fail_fast=fail_fast
            )
    except DischargeInterrupted as exc:
        outcomes = exc.outcomes
        interrupted = True
    finally:
        if cache is not None:
            cache.flush()
    for key, entry in cache_hits.items():
        outcomes[key] = ObligationOutcome(
            key,
            entry.to_result(),
            0.0,
            _os.getpid(),
            started=_time.perf_counter(),
            attempts=entry.attempts,
            cached=True,
        )
    results: Dict[str, CheckResult] = {}
    timings: Dict[str, float] = {}
    by_key = {ob.key: ob for ob in obligations}
    for key, outcome in outcomes.items():
        timings[key] = outcome.elapsed
        if outcome.result is not None:
            results[key] = outcome.result
        elif outcome.timed_out or outcome.error is not None:
            results[key] = _fault_result(
                by_key[key], outcome, cfg.timeout_per_obligation
            )
        else:
            ob = by_key[key]
            reasons = []
            for d in ob.deps:
                dep_outcome = outcomes.get(d)
                if dep_outcome is None:
                    continue
                if dep_outcome.timed_out:
                    reasons.append(f"dependency {d} timed out")
                elif dep_outcome.error is not None:
                    reasons.append(f"dependency {d} crashed")
                elif dep_outcome.result is None:
                    reasons.append(f"dependency {d} skipped")
                elif not dep_outcome.result.holds:
                    reasons.append(f"dependency {d} failed")
            results[key] = _skipped_result(
                _condition_display_name(ob),
                reasons or [f"dependency {d} failed" for d in ob.deps],
            )
    if interrupted:
        for ob in obligations:
            if ob.key not in outcomes:
                results[ob.key] = _fault_result(ob, None, None)
    merged = merge_outcomes(app, obligations, results, timings=timings)
    merged.warmup_seconds = getattr(scheduler, "last_warmup_seconds", 0.0)
    merged.interrupted = interrupted
    merged.cached_keys = sorted(cache_hits)
    if cache is not None:
        merged.rcache_stats = cache.stats.delta(cache_stats_before)
    merged.timeout_keys = sorted(
        k for k, o in outcomes.items() if o.timed_out
    )
    merged.crashed_keys = sorted(
        k for k, o in outcomes.items() if o.error is not None
    )
    merged.retries = sum(
        max(0, o.attempts - 1) for o in outcomes.values()
    )
    merged.resilience_events = list(getattr(scheduler, "last_events", ()) or ())
    if tracer is not None:
        cache_events = (
            cache.events[cache_events_before:] if cache is not None else ()
        )
        _emit_spans(tracer, scheduler, obligations, outcomes, cache_events)
    workers: Dict[int, dict] = {}
    for outcome in outcomes.values():
        if outcome.cache_stats is None:
            continue
        entry = workers.setdefault(
            outcome.pid, {"obligations": 0, "stats": outcome.cache_stats}
        )
        entry["obligations"] += 1
        # Snapshots are cumulative per process; keep the furthest one.
        if _snapshot_total(outcome.cache_stats) > _snapshot_total(entry["stats"]):
            entry["stats"] = outcome.cache_stats
    merged.worker_cache_stats = workers
    return merged


def _snapshot_total(snapshot: Mapping[str, Mapping[str, float]]) -> float:
    return sum(
        kind.get("hits", 0) + kind.get("misses", 0) for kind in snapshot.values()
    )


def _emit_spans(
    tracer, scheduler, obligations, outcomes, cache_events=()
) -> None:
    """Turn scheduler outcomes into tracer spans (one per obligation, in
    build order, plus the pool's warm-up pass and the result cache's
    hit/miss/invalidation events). Purely derivational: reads outcome
    fields and events the engine populates unconditionally."""
    import os

    from ..obs.tracer import Span

    backend = getattr(scheduler, "backend_name", type(scheduler).__name__)
    warmup_started = getattr(scheduler, "last_warmup_started", None)
    if warmup_started is not None:
        tracer.add(
            Span(
                name="cache-warmup",
                category="warmup",
                start=warmup_started,
                duration=getattr(scheduler, "last_warmup_seconds", 0.0),
                pid=os.getpid(),
                backend=backend,
            )
        )
    for ob in obligations:
        outcome = outcomes.get(ob.key)
        if outcome is None:
            continue
        unexecuted = outcome.result is None
        tracer.add(
            Span(
                name=ob.key,
                category="obligation",
                start=outcome.started,
                duration=outcome.elapsed,
                pid=outcome.pid,
                backend=backend,
                kind=ob.kind,
                condition=ob.condition,
                checked=0 if unexecuted else outcome.result.checked,
                holds=None if unexecuted else outcome.result.holds,
                skipped=outcome.skipped,
                cache_delta=outcome.cache_delta,
                attempts=outcome.attempts,
                timed_out=outcome.timed_out,
                cached=outcome.cached,
            )
        )
    for event in cache_events:
        tracer.add(
            Span(
                name=f"rcache:{event.kind}",
                category="rcache",
                start=event.at,
                duration=0.0,
                pid=os.getpid(),
                backend=backend,
                kind=event.kind,
                condition=event.key,
            )
        )
    for event in getattr(scheduler, "last_events", ()) or ():
        tracer.add(
            Span(
                name=f"resilience:{event.kind}",
                category="resilience",
                start=event.at,
                duration=0.0,
                pid=os.getpid(),
                backend=backend,
                kind=event.kind,
                condition=event.key,
                attempts=event.attempt,
            )
        )

"""Shared infrastructure for the case-study protocols (Section 5).

All protocols follow the paper's modelling conventions:

* protocol state lives in map-valued globals
  (:class:`~repro.core.mapping.FrozenDict`),
* message channels are bags (:class:`~repro.core.multiset.Multiset`) unless
  a protocol explicitly uses a FIFO queue,
* a ghost global ``pendingAsyncs`` mirrors the configuration's PA multiset
  :math:`\\Omega` (Figure 4(b)); every action updates it via
  :func:`ghost_step`, and gates of IS abstractions may refer to it
  (e.g. ``CollectAbs`` in Figure 1-④ asserts
  :math:`\\forall j.\\ \\mathtt{Broadcast}(j) \\notin \\Omega`).

The module also provides the common report type returned by each protocol's
``verify`` entry point.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.action import PendingAsync
from ..core.explore import ExplorationBudgetExceeded
from ..core.multiset import EMPTY, Multiset
from ..core.refinement import CheckResult
from ..core.sequentialize import ISResult
from ..core.store import Store

__all__ = [
    "GHOST",
    "ghost_step",
    "ghost_of",
    "has_pa_to",
    "count_pas_to",
    "sub_multisets",
    "bag_send",
    "BudgetHit",
    "ProtocolReport",
    "verify_protocol",
    "timed",
]

#: Conventional name of the ghost pending-async variable.
GHOST = "pendingAsyncs"


def ghost_of(state: Store) -> Multiset:
    """The ghost PA multiset of a (combined or global) store."""
    return state[GHOST]


def ghost_step(
    state: Store,
    self_pa: Optional[PendingAsync],
    created: Iterable[PendingAsync] = (),
) -> Multiset:
    """Ghost update for one action execution: remove the executing PA, add
    the created ones.

    Removal is tolerant (no-op when absent) so that actions remain total on
    the inconsistent stores enumerated during mover checks; along real
    executions the ghost is exact.
    """
    ghost = ghost_of(state)
    if self_pa is not None and self_pa in ghost:
        ghost = ghost.remove(self_pa)
    return ghost.union(Multiset(created))


def has_pa_to(state: Store, action_name: str) -> bool:
    """True if the ghost contains any PA to ``action_name``."""
    return any(p.action == action_name for p in ghost_of(state).support())


def count_pas_to(state: Store, action_name: str) -> int:
    """Number of ghost PAs to ``action_name`` (with multiplicity)."""
    return sum(
        count for p, count in ghost_of(state).counts() if p.action == action_name
    )


def sub_multisets(bag: Multiset, size: int) -> Iterator[Multiset]:
    """All distinct sub-multisets of ``bag`` with exactly ``size`` elements.

    Used to enumerate the outcomes of a blocking ``receive(k)`` over a bag
    channel: any ``k`` of the available messages may be delivered.
    """
    items: List[Tuple[object, int]] = sorted(bag.counts(), key=lambda kv: repr(kv[0]))

    def recurse(index: int, remaining: int) -> Iterator[Dict[object, int]]:
        if remaining == 0:
            yield {}
            return
        if index >= len(items):
            return
        element, available = items[index]
        max_take = min(available, remaining)
        for take in range(max_take + 1):
            for rest in recurse(index + 1, remaining - take):
                if take:
                    rest = dict(rest)
                    rest[element] = take
                yield rest

    if size > len(bag):
        return
    for counts in recurse(0, size):
        yield Multiset.from_counts(counts)


def bag_send(channel: Multiset, message) -> Multiset:
    """Append a message to a bag channel."""
    return channel.add(message)


@dataclass(frozen=True)
class BudgetHit:
    """A pipeline stage that blew its exploration budget.

    Wraps the :class:`~repro.core.explore.ExplorationBudgetExceeded` the
    stage raised: ``stage`` is the pipeline stage label (``IS[label]``,
    ``sequential spec``, ``ground truth``), ``explored``/``limit`` come
    from the exception. Reports carrying one render as BUDGET — neither
    verified nor refuted — instead of a traceback.
    """

    stage: str
    explored: int
    limit: int

    def __str__(self) -> str:
        return (
            f"{self.stage}: budget exceeded after {self.explored} "
            f"configurations (limit {self.limit})"
        )


@dataclass
class ProtocolReport:
    """Result of a protocol's full verification pipeline.

    ``ok`` requires every IS application to pass, the sequential spec to
    hold on the final program, and (when computed) the ground-truth
    refinement check to pass. A report whose pipeline blew its
    ``max_configs`` budget carries a :class:`BudgetHit` and renders as
    BUDGET: it neither passed nor failed, it ran out of room.

    ``explain_targets`` records, per IS check, the application and universe
    it ran against — everything ``repro.diagnose.explain_result`` needs to
    replay and shrink the counterexamples of a failed report.

    Status forms a small lattice — ``OK`` / ``FAILED`` / ``BUDGET`` /
    ``TIMEOUT`` / ``INTERRUPTED``: a genuine counterexample anywhere wins
    (``FAILED``), a blown budget reports before disruption kinds, and
    ``TIMEOUT``/``INTERRUPTED`` mark runs that are *inconclusive* —
    obligations hit their deadline or the run was stopped — rather than
    refuted. ``ok`` is ``True`` only for a clean, complete ``OK``.
    """

    name: str
    parameters: Dict[str, object]
    is_results: List[Tuple[str, ISResult]] = field(default_factory=list)
    spec_ok: Optional[bool] = None
    ground_truth: Optional[CheckResult] = None
    timings: Dict[str, float] = field(default_factory=dict)
    budget: Optional[BudgetHit] = None
    interrupted: bool = False
    #: True when the universe was *sampled* (random walks) rather than
    #: exhaustively harvested: a PASS is then a bounded check, not a
    #: proof. Surfaced by ``table1`` and the ``repro serve`` job payloads
    #: so a sampled PASS can't masquerade as an exhaustive one.
    bounded: bool = False
    explain_targets: List[Tuple[str, object, object]] = field(
        default_factory=list, compare=False, repr=False
    )

    @property
    def num_is_applications(self) -> int:
        return len(self.is_results)

    @property
    def ok(self) -> bool:
        if self.budget is not None or self.interrupted:
            return False
        if any(not result.holds for _, result in self.is_results):
            return False
        if self.spec_ok is False:
            return False
        if self.ground_truth is not None and not self.ground_truth.holds:
            return False
        return True

    @property
    def _genuinely_failed(self) -> bool:
        """A real refutation somewhere — outranks every disruption."""
        if any(
            any(r.verdict == "FAIL" for r in result.conditions.values())
            for _, result in self.is_results
        ):
            return True
        if self.spec_ok is False:
            return True
        if self.ground_truth is not None and not self.ground_truth.holds:
            return True
        return False

    @property
    def timed_out(self) -> bool:
        """Some obligation hit its deadline (or crashed/was skipped) and
        nothing genuinely failed — the pipeline is inconclusive."""
        return any(result.timed_out for _, result in self.is_results)

    @property
    def status(self) -> str:
        """One of ``OK``/``FAILED``/``BUDGET``/``TIMEOUT``/``INTERRUPTED``
        (see the class docstring for the ordering)."""
        if self.budget is not None:
            return "BUDGET"
        if self._genuinely_failed:
            return "FAILED"
        if self.interrupted:
            return "INTERRUPTED"
        if self.timed_out:
            return "TIMEOUT"
        return "OK" if self.ok else "FAILED"

    @property
    def total_time(self) -> float:
        return sum(self.timings.values())

    def summary(self) -> str:
        parts = [f"{self.name}: {self.status} "
                 f"({self.num_is_applications} IS applications,"
                 f" {self.total_time:.2f}s)"]
        for label, result in self.is_results:
            if result.holds:
                verdict = "PASS"
            elif result.interrupted:
                verdict = "INTERRUPTED"
            elif result.timed_out:
                verdict = "TIMEOUT"
            else:
                verdict = "FAIL"
            parts.append(f"  IS[{label}]: {verdict}")
        if self.spec_ok is not None:
            parts.append(f"  sequential spec: {'PASS' if self.spec_ok else 'FAIL'}")
        if self.ground_truth is not None:
            parts.append(
                f"  ground-truth refinement: "
                f"{'PASS' if self.ground_truth.holds else 'FAIL'}"
            )
        if self.budget is not None:
            parts.append(f"  {self.budget}")
        if self.interrupted:
            parts.append("  interrupted: partial report (salvaged outcomes)")
        if self.bounded:
            parts.append(
                "  bounded: sampled universe — a PASS is not exhaustive"
            )
        return "\n".join(parts)


def verify_protocol(
    name: str,
    parameters: Dict[str, object],
    original,
    applications,
    initial_global: Store,
    spec_fn: Callable[[Store], bool],
    ground_truth: bool = True,
    max_configs: Optional[int] = None,
    jobs: Optional[int] = None,
    fail_fast: bool = False,
    tracer=None,
    resilience=None,
    cache=None,
    warm=None,
    symmetry=None,
) -> ProtocolReport:
    """Generic protocol pipeline: check each IS application over the
    reachable universe (under the ghost PA context), then the sequential
    spec on the final program, then (optionally) ground-truth refinement.

    ``applications`` is a list of ``(label, ISApplication)`` pairs whose
    programs are already chained (each application's program is the output
    of the previous one). ``jobs`` selects the obligation-discharge backend
    (see ``repro.engine.scheduler``); verdicts are backend-independent.
    ``fail_fast`` skips obligations — transitively — once a dependency
    failed; skipped conditions report an explicit ``skipped``
    counterexample instead of running. ``tracer`` (a
    :class:`repro.obs.Tracer`) records phase spans for every pipeline
    stage and obligation spans for every IS check, scoped under the
    protocol name and IS label; it never affects verdicts or reports.

    ``resilience`` (a
    :class:`~repro.engine.resilience.ResilienceConfig`) arms
    per-obligation deadlines and crash retries for every IS check. A
    ``KeyboardInterrupt`` anywhere in the pipeline yields a *partial*
    report (``interrupted=True``, ``status == "INTERRUPTED"``) carrying
    everything completed before the stop, instead of unwinding with a
    traceback.

    ``cache`` (an :class:`~repro.engine.rcache.ObligationCache` or a
    directory path) arms the persistent result cache for every IS check:
    obligations whose dependency fingerprints are unchanged are seeded
    from the store instead of executed (``ISResult.cached_keys``), and
    fresh results are stored back as they complete — so rerunning an
    interrupted or killed run against the same cache resumes it. One
    cache instance is shared across the pipeline's applications.

    ``warm`` (a :class:`~repro.engine.warm.WarmState`) marks this run as
    one request against a resident daemon: the per-run process-cache
    reset is skipped (interner/evaluation/columnar memos stay hot), the
    store universes and IS applications are reused from — and stored
    into — the warm maps keyed by the full instance identity, the
    sequential-spec and ground-truth stages are memoized per instance,
    and ``warm.rcache`` supplies the result cache unless ``cache`` is
    given explicitly. Verdicts are warm/cold-identical (see
    ``repro.engine.warm`` for the soundness argument and
    ``tests/serve/test_warm.py`` for the proof-by-test).

    ``symmetry`` (a :class:`~repro.core.symmetry.SymmetrySpec`) runs every
    IS check over the orbit-quotiented universe: the reachability
    exploration canonicalizes configurations on the fly, so both the BFS
    and the harvested universe shrink by up to the group order. Sound for
    equivariant protocols (the only ones that declare a spec — see
    DESIGN.md); the sequential-spec and ground-truth stages run
    unquotiented, since they explore the transformed program directly.
    The symmetry identity is part of the warm-state instance key and of
    every cache fingerprint, so quotiented runs never alias unquotiented
    ones.
    """
    from ..core.cache import reset_process_cache
    from ..core.context import GhostContext
    from ..core.explore import instance_summary
    from ..core.refinement import check_program_refinement
    from ..core.semantics import initial_config
    from ..core.store import EMPTY_STORE
    from ..core.universe import StoreUniverse
    from ..engine.rcache import ObligationCache

    # Each verification run starts from empty process-level caches: the
    # intern table, the evaluation memos, and the columnar tables all grow
    # monotonically during a run, and letting them persist across runs
    # accumulated the previous protocols' stores forever (the historical
    # module-level ``combine`` lru_cache had exactly this leak). A warm
    # (daemon) run deliberately keeps them: the tables are
    # content-addressed and the daemon's request mix revisits the same
    # instances, so residency is a bounded win, not a leak.
    if warm is None:
        reset_process_cache()
    elif cache is None:
        cache = warm.rcache
    cache = ObligationCache.ensure(cache)
    report = ProtocolReport(name, dict(parameters))
    instance_key = (
        name,
        repr(sorted(parameters.items())),
        max_configs,
        symmetry.token() if symmetry is not None else None,
    )
    if warm is not None:
        applications = warm.pipeline(
            ("apps",) + instance_key, lambda: list(applications)
        )
    final_program = original
    with tracer.scope(name) if tracer is not None else nullcontext():
        for label, application in applications:
            try:
                with timed(report, f"IS[{label}]", tracer=tracer):

                    def build_universe(application=application):
                        return StoreUniverse.from_reachable(
                            application.program,
                            [initial_config(initial_global)],
                            max_configs=max_configs,
                            symmetry=symmetry,
                        ).with_context(GhostContext(GHOST))

                    if warm is not None:
                        universe = warm.universe(
                            ("universe", label) + instance_key,
                            build_universe,
                        )
                    else:
                        universe = build_universe()
                    with (
                        tracer.scope(f"IS[{label}]")
                        if tracer is not None
                        else nullcontext()
                    ):
                        result = application.check(
                            universe,
                            jobs=jobs,
                            fail_fast=fail_fast,
                            tracer=tracer,
                            resilience=resilience,
                            cache=cache,
                        )
            except ExplorationBudgetExceeded as exc:
                report.budget = BudgetHit(f"IS[{label}]", exc.explored, exc.limit)
                return report
            except KeyboardInterrupt:
                report.interrupted = True
                return report
            report.is_results.append((label, result))
            report.explain_targets.append((label, application, universe))
            if result.interrupted:
                report.interrupted = True
                return report
            final_program = application.apply_and_drop()

        try:
            with timed(report, "sequential spec", tracer=tracer):

                def compute_spec(final_program=final_program):
                    summary = instance_summary(
                        final_program, initial_global, max_configs=max_configs
                    )
                    return (
                        not summary.can_fail
                        and bool(summary.final_globals)
                        and all(
                            spec_fn(final) for final in summary.final_globals
                        )
                    )

                if warm is not None:
                    report.spec_ok = warm.stage(
                        ("spec",) + instance_key, compute_spec
                    )
                else:
                    report.spec_ok = compute_spec()
        except ExplorationBudgetExceeded as exc:
            report.budget = BudgetHit("sequential spec", exc.explored, exc.limit)
            return report
        except KeyboardInterrupt:
            report.interrupted = True
            return report

        if ground_truth:
            try:
                with timed(report, "ground truth", tracer=tracer):

                    def compute_ground_truth(final_program=final_program):
                        return check_program_refinement(
                            original,
                            final_program,
                            [(initial_global, EMPTY_STORE)],
                            max_configs=max_configs,
                            name="P ≼ P' (exhaustive)",
                        )

                    if warm is not None:
                        report.ground_truth = warm.stage(
                            ("ground-truth",) + instance_key,
                            compute_ground_truth,
                        )
                    else:
                        report.ground_truth = compute_ground_truth()
            except ExplorationBudgetExceeded as exc:
                report.budget = BudgetHit("ground truth", exc.explored, exc.limit)
            except KeyboardInterrupt:
                report.interrupted = True
    return report


class timed:
    """Context manager recording elapsed wall-clock into a report's timings.

    When a ``tracer`` is supplied, the same interval is also recorded as a
    ``phase`` span (at the tracer's current scope), so pipeline stages —
    ``IS[label]``, ``sequential spec``, ``ground truth`` — frame the
    obligation spans in an exported trace.

    >>> with timed(report, "IS"):
    ...     run_checks()
    """

    def __init__(self, report: ProtocolReport, label: str, tracer=None):
        self.report = report
        self.label = label
        self.tracer = tracer

    def __enter__(self) -> "timed":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._start
        self.report.timings[self.label] = (
            self.report.timings.get(self.label, 0.0) + elapsed
        )
        if self.tracer is not None:
            from ..obs.tracer import Span

            self.tracer.add(
                Span(
                    name=self.label,
                    category="phase",
                    start=self._start,
                    duration=elapsed,
                    pid=os.getpid(),
                )
            )

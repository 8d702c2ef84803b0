"""Broadcast consensus (Figure 1 of the paper).

``n`` nodes agree on a common value: node ``i`` broadcasts ``value[i]`` to
every node's bag channel, and every node collects ``n`` values and decides
on the maximum. The safety property is that all decisions agree
(equation (1) of the paper).

This module provides the paper's artifacts at the atomic-action level:

* :func:`make_atomic` — the program of Figure 1-② (``Main``, ``Broadcast``,
  ``Collect`` as atomic actions with pending asyncs);
* :func:`make_invariant` — the invariant action ``Inv`` of Figure 1-⑤
  (all prefixes of the round-robin schedule, parameterized by the
  nondeterministic ``k`` and ``l``);
* :func:`make_collect_abs` — the abstraction ``CollectAbs`` of Figure 1-④
  (gate strengthened to "no Broadcasts pending and ≥ n messages");
* :func:`make_sequentialization` — the one-shot IS application eliminating
  ``{Broadcast, Collect}`` from ``Main``, yielding ``Main'`` (Figure 1-③);
* :func:`make_iterated_sequentializations` — the two-application proof of
  Section 5.3 (eliminate ``Broadcast`` first, then ``Collect``; the second
  ``CollectAbs`` then needs no ghost clause in its gate);
* :func:`verify` — the end-to-end pipeline (IS conditions + sequential
  spec + optional ground-truth refinement check).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.action import Action, PendingAsync, Transition
from ..core.context import GhostContext
from ..core.explore import instance_summary
from ..core.mapping import FrozenDict
from ..core.multiset import EMPTY, Multiset
from ..core.program import MAIN, Program
from ..core.refinement import check_program_refinement
from ..core.semantics import initial_config
from ..core.sequentialize import ISApplication
from ..core.store import EMPTY_STORE, Store
from ..core.universe import StoreUniverse
from ..core.wellfounded import LexicographicMeasure, total_pa_count
from .common import (
    GHOST,
    ProtocolReport,
    bag_send,
    ghost_step,
    has_pa_to,
    sub_multisets,
    timed,
)

__all__ = [
    "GLOBAL_VARS",
    "default_values",
    "initial_global",
    "make_atomic",
    "make_invariant",
    "make_collect_abs",
    "make_sequentialization",
    "make_iterated_sequentializations",
    "make_symmetry",
    "make_universe",
    "spec_holds",
    "verify",
]

GLOBAL_VARS = ("value", "decision", "CH", GHOST)

_MAIN_PA = PendingAsync(MAIN, EMPTY_STORE)


def default_values(n: int) -> Tuple[int, ...]:
    """Distinct input values; the spread makes the max non-trivial."""
    return tuple(10 * i + (i % 3) for i in range(1, n + 1))


def _nodes(n: int) -> range:
    return range(1, n + 1)


def initial_global(n: int, values: Optional[Sequence[int]] = None) -> Store:
    """Initial global store: inputs set, no decisions, empty channels, and
    the ghost containing the single PA to ``Main``."""
    values = tuple(values if values is not None else default_values(n))
    if len(values) != n:
        raise ValueError("need exactly one input value per node")
    return Store(
        {
            "value": FrozenDict({i: values[i - 1] for i in _nodes(n)}),
            "decision": FrozenDict({i: float("-inf") for i in _nodes(n)}),
            "CH": FrozenDict({i: EMPTY for i in _nodes(n)}),
            GHOST: Multiset([_MAIN_PA]),
        }
    )


def _globals(state: Store) -> Store:
    return state.restrict(GLOBAL_VARS)


def _broadcast_pa(i: int) -> PendingAsync:
    return PendingAsync("Broadcast", Store({"i": i}))


def _collect_pa(i: int) -> PendingAsync:
    return PendingAsync("Collect", Store({"i": i}))


# --------------------------------------------------------------------- #
# The atomic-action program (Figure 1-②)
# --------------------------------------------------------------------- #


def make_main(n: int) -> Action:
    """``Main``: atomically create 2n new threads (n Broadcasts, n Collects)."""

    def transitions(state: Store) -> Iterator[Transition]:
        created = [_broadcast_pa(i) for i in _nodes(n)]
        created += [_collect_pa(i) for i in _nodes(n)]
        new_global = _globals(state).set(GHOST, ghost_step(state, _MAIN_PA, created))
        yield Transition(new_global, Multiset(created))

    return Action(MAIN, lambda _s: True, transitions)


def make_broadcast(n: int) -> Action:
    """``Broadcast(i)``: atomically send ``value[i]`` to every node."""

    def transitions(state: Store) -> Iterator[Transition]:
        i = state["i"]
        message = state["value"][i]
        channels: FrozenDict = state["CH"]
        channels = channels.update(
            {j: bag_send(channels[j], message) for j in _nodes(n)}
        )
        new_global = _globals(state).update(
            {"CH": channels, GHOST: ghost_step(state, _broadcast_pa(i))}
        )
        yield Transition(new_global)

    return Action("Broadcast", lambda _s: True, transitions, params=("i",))


def _collect_transitions(n: int):
    """Shared transition enumerator of ``Collect`` and ``CollectAbs``:
    receive any ``n`` of the available messages and decide their maximum
    (blocks while fewer than ``n`` messages are available)."""

    def transitions(state: Store) -> Iterator[Transition]:
        i = state["i"]
        channel: Multiset = state["CH"][i]
        if len(channel) < n:
            return
        for received in sub_multisets(channel, n):
            new_global = _globals(state).update(
                {
                    "CH": state["CH"].set(i, channel - received),
                    "decision": state["decision"].set(i, max(received)),
                    GHOST: ghost_step(state, _collect_pa(i)),
                }
            )
            yield Transition(new_global)

    return transitions


def make_collect(n: int) -> Action:
    """``Collect(i)``: atomically receive n values and decide the maximum."""
    return Action("Collect", lambda _s: True, _collect_transitions(n), params=("i",))


def make_collect_abs(n: int, require_no_broadcasts: bool = True) -> Action:
    """``CollectAbs(i)`` (Figure 1-④): ``Collect`` with the gate
    strengthened to assert no pending ``Broadcast`` and ≥ n messages.

    With ``require_no_broadcasts=False`` this is the weaker abstraction
    sufficient for the *second* application of iterated IS (Section 5.3),
    where ``Broadcast`` has already disappeared from the action pool.
    """

    def gate(state: Store) -> bool:
        if require_no_broadcasts and has_pa_to(state, "Broadcast"):
            return False
        return len(state["CH"][state["i"]]) >= n

    return Action("CollectAbs", gate, _collect_transitions(n), params=("i",))


def make_atomic(n: int, values: Optional[Sequence[int]] = None) -> Program:
    """The atomic-action program :math:`\\mathcal{P}_2` of Figure 1-②."""
    return Program(
        {
            MAIN: make_main(n),
            "Broadcast": make_broadcast(n),
            "Collect": make_collect(n),
        },
        global_vars=GLOBAL_VARS,
    )


# --------------------------------------------------------------------- #
# IS artifacts (Figures 1-③/④/⑤)
# --------------------------------------------------------------------- #


def _broadcast_prefix(state: Store, n: int, k: int) -> FrozenDict:
    """Channels after Broadcasts 1..k executed from ``state``."""
    channels: FrozenDict = state["CH"]
    additions: Dict[int, Multiset] = {}
    for j in _nodes(n):
        channel = channels[j]
        for i in range(1, k + 1):
            channel = bag_send(channel, state["value"][i])
        additions[j] = channel
    return channels.update(additions)


def _collect_prefixes(
    channels: FrozenDict, decision: FrozenDict, n: int, start: int
) -> Iterator[Tuple[FrozenDict, FrozenDict, int]]:
    """All states after Collects ``start..l`` executed in order, for every
    ``l`` from ``start - 1`` (nothing more executed) to ``n``.

    Yields ``(channels, decision, next_collect)`` where ``next_collect`` is
    the first Collect still pending.
    """
    yield channels, decision, start
    if start > n:
        return
    channel = channels[start]
    if len(channel) < n:
        return
    for received in sub_multisets(channel, n):
        yield from _collect_prefixes(
            channels.set(start, channel - received),
            decision.set(start, max(received)),
            n,
            start + 1,
        )


def make_invariant(n: int) -> Action:
    """The invariant action ``Inv`` of Figure 1-⑤.

    Summarizes every prefix of the sequential schedule defining ``Main'``:
    Broadcasts 1..k executed (k nondeterministic), then — only when k = n —
    Collects 1..l executed (l nondeterministic). The remaining operations
    stay pending asyncs.
    """

    def transitions(state: Store) -> Iterator[Transition]:
        base_ghost = ghost_step(state, _MAIN_PA)
        for k in range(n + 1):
            channels_k = _broadcast_prefix(state, n, k)
            remaining_broadcasts = [_broadcast_pa(i) for i in range(k + 1, n + 1)]
            if k < n:
                created = Multiset(
                    remaining_broadcasts + [_collect_pa(i) for i in _nodes(n)]
                )
                new_global = _globals(state).update(
                    {"CH": channels_k, GHOST: base_ghost.union(created)}
                )
                yield Transition(new_global, created)
            else:
                for channels, decision, next_collect in _collect_prefixes(
                    channels_k, state["decision"], n, 1
                ):
                    created = Multiset(
                        [_collect_pa(i) for i in range(next_collect, n + 1)]
                    )
                    new_global = _globals(state).update(
                        {
                            "CH": channels,
                            "decision": decision,
                            GHOST: base_ghost.union(created),
                        }
                    )
                    yield Transition(new_global, created)

    return Action("Inv", lambda _s: True, transitions)


def make_measure() -> LexicographicMeasure:
    """The well-founded order of Example 4.1: the number of pending asyncs
    (Broadcast/Collect create no PAs, so every execution decreases it)."""
    return LexicographicMeasure((total_pa_count(),), name="|Ω|")


def make_sequentialization(n: int) -> ISApplication:
    """The one-shot IS application of Example 4.1: eliminate both
    ``Broadcast`` and ``Collect`` from ``Main`` in a single induction."""
    program = make_atomic(n)
    return ISApplication(
        program=program,
        m_name=MAIN,
        eliminated=("Broadcast", "Collect"),
        invariant=make_invariant(n),
        measure=make_measure(),
        abstractions={"Collect": make_collect_abs(n)},
    )


# --------------------------------------------------------------------- #
# Iterated IS (Section 5.3): eliminate Broadcast, then Collect
# --------------------------------------------------------------------- #


def make_broadcast_invariant(n: int) -> Action:
    """Invariant for the first iterated application: Broadcasts 1..k done,
    the rest (and all Collects) pending."""

    def transitions(state: Store) -> Iterator[Transition]:
        base_ghost = ghost_step(state, _MAIN_PA)
        for k in range(n + 1):
            channels_k = _broadcast_prefix(state, n, k)
            created = Multiset(
                [_broadcast_pa(i) for i in range(k + 1, n + 1)]
                + [_collect_pa(i) for i in _nodes(n)]
            )
            new_global = _globals(state).update(
                {"CH": channels_k, GHOST: base_ghost.union(created)}
            )
            yield Transition(new_global, created)

    return Action("InvBroadcast", lambda _s: True, transitions)


def make_collect_invariant(n: int) -> Action:
    """Invariant for the second iterated application: all Broadcasts done
    (that is now part of the rewritten ``Main``), Collects 1..l done."""

    def transitions(state: Store) -> Iterator[Transition]:
        base_ghost = ghost_step(state, _MAIN_PA)
        channels_n = _broadcast_prefix(state, n, n)
        for channels, decision, next_collect in _collect_prefixes(
            channels_n, state["decision"], n, 1
        ):
            created = Multiset([_collect_pa(i) for i in range(next_collect, n + 1)])
            new_global = _globals(state).update(
                {"CH": channels, "decision": decision, GHOST: base_ghost.union(created)}
            )
            yield Transition(new_global, created)

    return Action("InvCollect", lambda _s: True, transitions)


def make_iterated_sequentializations(n: int) -> List[ISApplication]:
    """The two-application proof preferred in Table 1 (#IS = 2).

    The first application eliminates ``Broadcast``; the second eliminates
    ``Collect`` from the resulting program, where ``Broadcast`` has left the
    action pool, so ``CollectAbs`` no longer needs the
    "no pending Broadcasts" gate clause (Section 5.3).
    """
    program = make_atomic(n)
    first = ISApplication(
        program=program,
        m_name=MAIN,
        eliminated=("Broadcast",),
        invariant=make_broadcast_invariant(n),
        measure=make_measure(),
    )
    after_first = first.apply_and_drop()
    second = ISApplication(
        program=after_first,
        m_name=MAIN,
        eliminated=("Collect",),
        invariant=make_collect_invariant(n),
        measure=make_measure(),
        abstractions={"Collect": make_collect_abs(n, require_no_broadcasts=False)},
    )
    return [first, second]


# --------------------------------------------------------------------- #
# Low-level implementation P1 (Figure 1-①)
# --------------------------------------------------------------------- #


def make_module(n: int):
    """The fine-grained implementation of Figure 1-①, in the mini-CIVL
    language: per-message sends, per-message blocking receives, and a
    running-maximum fold instead of the atomic ``max``.

    ``repro.reduction.analyze_module`` derives the mover types of Section
    2.1 (sends are left movers, receives right movers, local accesses both)
    and certifies the atomicity pattern, licensing the summarization of
    each procedure into the atomic actions of :func:`make_atomic`.
    """
    from ..lang import (
        Async,
        Foreach,
        If,
        MapAssign,
        MapGet,
        Module,
        Procedure,
        Receive,
        Send,
        V,
        C,
    )

    def nodes(_state: Store):
        return tuple(_nodes(n))

    main = Procedure(
        MAIN,
        (),
        body=(
            Foreach.of(
                "i",
                nodes,
                [Async.of("Broadcast", i=V("i")), Async.of("Collect", i=V("i"))],
            ),
        ),
    )
    broadcast_proc = Procedure(
        "Broadcast",
        ("i",),
        body=(
            Foreach.of(
                "j", nodes, [Send("CH", V("j"), MapGet(V("value"), V("i")))]
            ),
        ),
    )
    collect_proc = Procedure(
        "Collect",
        ("i",),
        locals={"v": None},
        body=(
            MapAssign("decision", V("i"), C(float("-inf"))),
            Foreach.of(
                "j",
                nodes,
                [
                    Receive("v", "CH", V("i")),
                    If.of(
                        V("v") > MapGet(V("decision"), V("i")),
                        [MapAssign("decision", V("i"), V("v"))],
                    ),
                ],
            ),
        ),
    )
    return Module(
        {MAIN: main, "Broadcast": broadcast_proc, "Collect": collect_proc},
        global_vars=GLOBAL_VARS,
    )


# --------------------------------------------------------------------- #
# Universe, spec, and pipeline
# --------------------------------------------------------------------- #


def make_universe(
    program: Program, n: int, values=None, max_configs=None, symmetry=None
) -> StoreUniverse:
    """Reachable-state universe of the given program under the ghost
    (linear-permission) PA context."""
    init = initial_config(initial_global(n, values))
    universe = StoreUniverse.from_reachable(
        program, [init], max_configs=max_configs, symmetry=symmetry
    )
    return universe.with_context(GhostContext(GHOST))


def make_symmetry(n: int):
    """Broadcast consensus is symmetric in the node identity only.

    Node ids index ``value``/``decision``/``CH`` and appear as the ``i``
    parameter of ``Broadcast``/``Collect``; message payloads are the raw
    input values, untouched by a node renaming.  Values are *not* a
    symmetry sort: ``Collect`` decides the maximum, an ordered comparison,
    so permuting values does not commute with the program.  With distinct
    inputs per node the initial store has a trivial stabilizer, but
    mid-protocol stores (partially drained channels, partial decisions)
    still collapse.  Group order: ``n!``.
    """
    from ..core import symmetry as sym

    node = sym.atom("node")
    return sym.SymmetrySpec(
        name=f"broadcast-n{n}",
        sorts={"node": tuple(range(1, n + 1))},
        global_rules={
            "value": sym.fmap(node, sym.ID),
            "decision": sym.fmap(node, sym.ID),
            "CH": sym.fmap(node, sym.ID),
        },
        local_rules={
            "Broadcast": {"i": node},
            "Collect": {"i": node},
            "CollectAbs": {"i": node},
        },
        ghost_var=GHOST,
    )


def spec_holds(final_global: Store, n: int, values: Sequence[int]) -> bool:
    """Equation (1): all nodes decided, on the common maximum value."""
    expected = max(values)
    decision = final_global["decision"]
    return all(decision[i] == expected for i in _nodes(n))


def verify(
    n: int = 3,
    values: Optional[Sequence[int]] = None,
    iterated: bool = True,
    ground_truth: bool = True,
    max_configs: Optional[int] = None,
    jobs: Optional[int] = None,
    fail_fast: bool = False,
    tracer=None,
    resilience=None,
    cache=None,
    warm=None,
    symmetry: bool = False,
) -> ProtocolReport:
    """Full pipeline: IS condition checks, sequential spec on the
    transformed program, and (optionally) the ground-truth refinement
    :math:`\\mathcal{P} \\preccurlyeq \\mathcal{P}'` by exhaustive
    exploration. A blown ``max_configs`` budget is reported as a BUDGET
    verdict on the report, not raised. ``symmetry=True`` quotients the IS
    universes by :func:`make_symmetry`'s node-permutation group."""
    from contextlib import nullcontext

    from ..engine.rcache import ObligationCache
    from .common import BudgetHit, ExplorationBudgetExceeded

    if warm is not None and cache is None:
        cache = warm.rcache
    cache = ObligationCache.ensure(cache)
    values = tuple(values if values is not None else default_values(n))
    parameters = {"n": n, "values": values, "iterated": iterated}
    spec = None
    if symmetry:
        spec = make_symmetry(n)
        parameters["symmetry"] = spec.name
    report = ProtocolReport("broadcast-consensus", parameters)
    instance_key = (
        "broadcast-consensus",
        repr((n, values, iterated)),
        max_configs,
        spec.token() if spec is not None else None,
    )
    original = make_atomic(n)

    def build_applications():
        if iterated:
            return make_iterated_sequentializations(n)
        return [make_sequentialization(n)]

    if warm is not None:
        applications = warm.pipeline(("apps",) + instance_key, build_applications)
    else:
        applications = build_applications()
    labels = (
        ["Broadcast", "Collect"] if iterated else ["Broadcast+Collect"]
    )

    final_program = original
    with (
        tracer.scope("broadcast-consensus")
        if tracer is not None
        else nullcontext()
    ):
        for label, application in zip(labels, applications):
            try:
                with timed(report, f"IS[{label}]", tracer=tracer):

                    def build_universe(application=application):
                        return make_universe(
                            application.program,
                            n,
                            values,
                            max_configs=max_configs,
                            symmetry=spec,
                        )

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
                        final_program,
                        initial_global(n, values),
                        max_configs=max_configs,
                    )
                    return (
                        (not summary.can_fail)
                        and bool(summary.final_globals)
                        and all(
                            spec_holds(final, n, values)
                            for final in summary.final_globals
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
                            [(initial_global(n, values), EMPTY_STORE)],
                            max_configs=max_configs,
                            name="P2 ≼ P' (exhaustive)",
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

"""Single-decree Paxos (Section 5.2, Figure 4).

Paxos establishes consensus among unreliable nodes in an asynchronous
network. We model the paper's abstract atomic-action layer
:math:`\\mathcal{P}_2` of Figure 4(b): the implementation variables
(acceptor state and the join/vote response channels) are hidden behind the
abstract state

* ``joinedNodes : Round -> Set<Node>``,
* ``voteInfo : Round -> Option<(Value, Set<Node>)>``, and
* ``decision : Round -> Option<Value>``,

plus the ghost ``pendingAsyncs``. The effect of overlapping proposals and
out-of-order delivery is captured by nondeterministic message *loss*: every
acceptor/proposer step may silently drop its messages (the ``if (*)``
branch on line 16 of Figure 4(b)), which also makes every action
non-blocking.

The sequentialization executes one round at a time in increasing order, and
within each round the fixed phase order ``StartRound, Join(·), Propose,
Vote(·), Conclude`` — the schedule ``S(1) J(1,1) J(1,2) P(1) V(1,1,_) ...``
of Section 5.2. One IS application eliminates all five action kinds at once
(Table 1: #IS = 1). The abstractions strengthen gates with pending-async
assertions that hold in the sequential context, e.g. ``ProposeAbs`` asserts
that no ``StartRound``/``Join`` of rounds ``<= r`` remains pending
(Figure 4(c), lines 23–24).

The resulting ``Paxos'`` is the specification of Figure 4(c): the decision
map is consistently updated — no two rounds decide different values.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, Iterator, Optional, Sequence, Tuple

from ..core.action import Action, PendingAsync, Transition
from ..core.mapping import FrozenDict
from ..core.multiset import Multiset
from ..core.program import MAIN, Program
from ..core.schedule import choice_from_policy, invariant_from_policy, policy_by_key
from ..core.sequentialize import ISApplication
from ..core.store import EMPTY_STORE, Store
from ..core.wellfounded import LexicographicMeasure, pa_potential
from .common import GHOST, ProtocolReport, ghost_of, ghost_step, verify_protocol

__all__ = [
    "GLOBAL_VARS",
    "initial_global",
    "is_quorum",
    "make_atomic",
    "make_abstractions",
    "make_measure",
    "make_policy",
    "make_sequentialization",
    "make_symmetry",
    "spec_holds",
    "verify",
]

GLOBAL_VARS = ("joinedNodes", "voteInfo", "decision", GHOST)

_MAIN_PA = PendingAsync(MAIN, EMPTY_STORE)


def _start_pa(r: int) -> PendingAsync:
    return PendingAsync("StartRound", Store({"r": r}))


def _join_pa(r: int, n: int) -> PendingAsync:
    return PendingAsync("Join", Store({"r": r, "n": n}))


def _propose_pa(r: int) -> PendingAsync:
    return PendingAsync("Propose", Store({"r": r}))


def _vote_pa(r: int, n: int, v: int) -> PendingAsync:
    return PendingAsync("Vote", Store({"r": r, "n": n, "v": v}))


def _conclude_pa(r: int, v: int) -> PendingAsync:
    return PendingAsync("Conclude", Store({"r": r, "v": v}))


def is_quorum(nodes: FrozenSet[int], num_nodes: int) -> bool:
    """Majority quorum."""
    return len(nodes) * 2 > num_nodes


def initial_global(rounds: int, num_nodes: int) -> Store:
    return Store(
        {
            "joinedNodes": FrozenDict({r: frozenset() for r in range(1, rounds + 1)}),
            "voteInfo": FrozenDict({r: None for r in range(1, rounds + 1)}),
            "decision": FrozenDict({r: None for r in range(1, rounds + 1)}),
            GHOST: Multiset([_MAIN_PA]),
        }
    )


def _globals(state: Store) -> Store:
    return state.restrict(GLOBAL_VARS)


def _max_voted(
    vote_info: FrozenDict, ns: FrozenSet[int], r: int
) -> Optional[Tuple[int, int]]:
    """The highest round below ``r`` in which a member of ``ns`` voted,
    with its value — the proposer's value-selection rule."""
    best: Optional[Tuple[int, int]] = None
    for r_prime in range(1, r):
        info = vote_info[r_prime]
        if info is not None and ns & info[1]:
            best = (r_prime, info[0])
    return best


def make_atomic(
    rounds: int,
    num_nodes: int,
    values: Sequence[int] = (1, 2),
    nondet_rounds: bool = False,
) -> Program:
    """The abstract atomic-action Paxos program of Figure 4(b).

    With ``nondet_rounds=True``, ``Main`` creates a *nondeterministically
    chosen* number of rounds up to the bound — the paper's "client calls
    Paxos, which creates an arbitrary number of asynchronous StartRound
    tasks" (Section 5.2), bounded for finiteness."""
    nodes = tuple(range(1, num_nodes + 1))

    def main_transitions(state: Store) -> Iterator[Transition]:
        counts = range(0, rounds + 1) if nondet_rounds else (rounds,)
        for count in counts:
            created = [_start_pa(r) for r in range(1, count + 1)]
            yield Transition(
                _globals(state).set(GHOST, ghost_step(state, _MAIN_PA, created)),
                Multiset(created),
            )

    def start_transitions(state: Store) -> Iterator[Transition]:
        r = state["r"]
        created = [_join_pa(r, n) for n in nodes] + [_propose_pa(r)]
        new_global = _globals(state).set(
            GHOST, ghost_step(state, _start_pa(r), created)
        )
        yield Transition(new_global, Multiset(created))

    def join_transitions(state: Store) -> Iterator[Transition]:
        r, n = state["r"], state["n"]
        ghost_only = _globals(state).set(GHOST, ghost_step(state, _join_pa(r, n)))
        # Message loss / the acceptor has moved on: no-op.
        yield Transition(ghost_only)
        joined = state["joinedNodes"]
        if all(n not in joined[r2] for r2 in range(r + 1, rounds + 1)):
            new_global = ghost_only.set(
                "joinedNodes", joined.set(r, joined[r] | {n})
            )
            yield Transition(new_global)

    def propose_gate(state: Store) -> bool:
        # Figure 4(b) line 15: the proposal of round r happens once.
        return state["voteInfo"][state["r"]] is None

    def propose_transitions(state: Store) -> Iterator[Transition]:
        r = state["r"]
        ghost_only = _globals(state).set(GHOST, ghost_step(state, _propose_pa(r)))
        # Not enough responses / messages lost: the round stalls.
        yield Transition(ghost_only)
        joined = state["joinedNodes"][r]
        vote_info = state["voteInfo"]
        for size in range(1, len(joined) + 1):
            for ns in combinations(sorted(joined), size):
                quorum = frozenset(ns)
                if not is_quorum(quorum, num_nodes):
                    continue
                best = _max_voted(vote_info, quorum, r)
                candidates = values if best is None else (best[1],)
                for v in candidates:
                    created = [_vote_pa(r, n, v) for n in nodes] + [
                        _conclude_pa(r, v)
                    ]
                    new_global = _globals(state).update(
                        {
                            "voteInfo": vote_info.set(r, (v, frozenset())),
                            GHOST: ghost_step(state, _propose_pa(r), created),
                        }
                    )
                    yield Transition(new_global, Multiset(created))

    def vote_transitions(state: Store) -> Iterator[Transition]:
        r, n, v = state["r"], state["n"], state["v"]
        ghost_only = _globals(state).set(GHOST, ghost_step(state, _vote_pa(r, n, v)))
        yield Transition(ghost_only)  # message loss
        joined = state["joinedNodes"]
        info = state["voteInfo"][r]
        if info is not None and info[0] == v and all(
            n not in joined[r2] for r2 in range(r + 1, rounds + 1)
        ):
            new_global = ghost_only.set(
                "voteInfo", state["voteInfo"].set(r, (v, info[1] | {n}))
            )
            yield Transition(new_global)

    def conclude_gate(state: Store) -> bool:
        return state["decision"][state["r"]] is None

    def conclude_transitions(state: Store) -> Iterator[Transition]:
        r, v = state["r"], state["v"]
        ghost_only = _globals(state).set(
            GHOST, ghost_step(state, _conclude_pa(r, v))
        )
        yield Transition(ghost_only)  # no quorum of votes observed
        info = state["voteInfo"][r]
        if info is not None and info[0] == v and is_quorum(info[1], num_nodes):
            new_global = ghost_only.set("decision", state["decision"].set(r, v))
            yield Transition(new_global)

    return Program(
        {
            MAIN: Action(MAIN, lambda _s: True, main_transitions),
            "StartRound": Action(
                "StartRound", lambda _s: True, start_transitions, ("r",)
            ),
            "Join": Action("Join", lambda _s: True, join_transitions, ("r", "n")),
            "Propose": Action("Propose", propose_gate, propose_transitions, ("r",)),
            "Vote": Action("Vote", lambda _s: True, vote_transitions, ("r", "n", "v")),
            "Conclude": Action(
                "Conclude", conclude_gate, conclude_transitions, ("r", "v")
            ),
        },
        global_vars=GLOBAL_VARS,
    )


# --------------------------------------------------------------------- #
# Low-level implementation P1 (Figure 4(a))
# --------------------------------------------------------------------- #

IMPL_GLOBAL_VARS = ("acceptorState", "decision", "joinChannel", "voteChannel", GHOST)


def initial_impl_global(rounds: int, num_nodes: int) -> Store:
    """Initial store of the message-passing implementation: per-acceptor
    state (last joined round, last vote), empty response channels."""
    return Store(
        {
            "acceptorState": FrozenDict(
                {n: (0, None) for n in range(1, num_nodes + 1)}
            ),
            "decision": FrozenDict({r: None for r in range(1, rounds + 1)}),
            "joinChannel": FrozenDict({r: () for r in range(1, rounds + 1)}),
            "voteChannel": FrozenDict({r: () for r in range(1, rounds + 1)}),
            GHOST: Multiset([_MAIN_PA]),
        }
    )


def make_module(rounds: int, num_nodes: int, values: Sequence[int] = (1, 2)):
    """The fine-grained implementation of Figure 4(a) in the mini-CIVL
    language: proposers aggregate ``JoinResponse``/``VoteResponse`` messages
    from explicit channels; acceptors keep ``acceptorState``. A proposer
    nondeterministically stops waiting for further responses (the
    low-level source of the rounds-may-stall behaviour that the atomic
    layer models as message loss).

    The response channels are FIFO *per round* only for determinism of the
    snapshot; aggregation is order-insensitive, matching bag semantics.
    """
    from ..lang import (
        Assign,
        Async,
        C,
        Call,
        Foreach,
        Havoc,
        If,
        MapGet,
        Module,
        Procedure,
        Send,
        V,
    )

    nodes = tuple(range(1, num_nodes + 1))

    def pick_value(responses, free_values):
        """The proposer's value-selection rule over aggregated join
        responses (each ``(n, last_vote)``): adopt the value of the highest
        reported vote, else any free value (returned as candidates)."""
        best = None
        for _n, last_vote in responses:
            if last_vote is not None and (best is None or last_vote[0] > best[0]):
                best = last_vote
        return (best[1],) if best is not None else tuple(free_values)

    main = Procedure(
        MAIN,
        (),
        (
            Foreach.of(
                "r",
                lambda _s: tuple(range(1, rounds + 1)),
                [Async.of("StartRound", r=V("r"))],
            ),
        ),
    )

    start_round = Procedure(
        "StartRound",
        ("r",),
        (
            Foreach.of(
                "n", lambda _s: nodes, [Async.of("Join", r=V("r"), n=V("n"))]
            ),
            Async.of("Propose", r=V("r")),
        ),
    )

    join = Procedure(
        "Join",
        ("r", "n"),
        (
            # Acceptor logic: join iff the round is beyond the last joined.
            If.of(
                Call(
                    "canJoin",
                    lambda st, r: st[0] < r,
                    (MapGet(V("acceptorState"), V("n")), V("r")),
                ),
                [
                    Assign(
                        "$resp",
                        Call(
                            "mkResp",
                            lambda st, n: (n, st[1]),
                            (MapGet(V("acceptorState"), V("n")), V("n")),
                        ),
                    ),
                    # promise: bump lastJoined
                    _map_set(
                        "acceptorState",
                        V("n"),
                        Call(
                            "promote",
                            lambda st, r: (r, st[1]),
                            (MapGet(V("acceptorState"), V("n")), V("r")),
                        ),
                    ),
                    Send("joinChannel", V("r"), V("$resp"), kind="fifo"),
                ],
            ),
        ),
        locals={"$resp": None},
    )

    propose = Procedure(
        "Propose",
        ("r",),
        (
            Assign("$resps", C(())),
            Havoc("$go", lambda _s: (True, False)),
            _while_receiving(
                channel="joinChannel",
                target="$m",
                accumulator="$resps",
            ),
            If.of(
                Call("isQuorum", lambda rs: len(rs) * 2 > num_nodes, (V("$resps"),)),
                [
                    Havoc(
                        "$v",
                        lambda s: pick_value(s["$resps"], values),
                    ),
                    Foreach.of(
                        "n",
                        lambda _s: nodes,
                        [Async.of("Vote", r=V("r"), n=V("n"), v=V("$v"))],
                    ),
                    Async.of("Conclude", r=V("r"), v=V("$v")),
                ],
            ),
        ),
        locals={"$resps": (), "$go": False, "$m": None, "$v": None},
    )

    vote = Procedure(
        "Vote",
        ("r", "n", "v"),
        (
            If.of(
                Call(
                    "canVote",
                    lambda st, r: st[0] <= r,
                    (MapGet(V("acceptorState"), V("n")), V("r")),
                ),
                [
                    _map_set(
                        "acceptorState",
                        V("n"),
                        Call(
                            "record",
                            lambda r, v: (r, (r, v)),
                            (V("r"), V("v")),
                        ),
                    ),
                    Send("voteChannel", V("r"), V("n"), kind="fifo"),
                ],
            ),
        ),
    )

    conclude = Procedure(
        "Conclude",
        ("r", "v"),
        (
            Assign("$resps", C(())),
            Havoc("$go", lambda _s: (True, False)),
            _while_receiving(
                channel="voteChannel",
                target="$m",
                accumulator="$resps",
            ),
            If.of(
                Call("isQuorum", lambda rs: len(rs) * 2 > num_nodes, (V("$resps"),)),
                [_map_set("decision", V("r"), V("v"))],
            ),
        ),
        locals={"$resps": (), "$go": False, "$m": None},
    )

    return Module(
        {
            MAIN: main,
            "StartRound": start_round,
            "Join": join,
            "Propose": propose,
            "Vote": vote,
            "Conclude": conclude,
        },
        global_vars=IMPL_GLOBAL_VARS,
    )


def _map_set(target, key, value):
    from ..lang import MapAssign

    return MapAssign(target, key, value)


def _while_receiving(channel: str, target: str, accumulator: str):
    """``while (*) and channel[r] nonempty: receive; aggregate`` — the
    proposer's nondeterministically-terminated aggregation loop."""
    from ..lang import Assign, BinOp, C, Call, Havoc, MapGet, Receive, UnOp, V, While

    nonempty = BinOp(">", UnOp("len", MapGet(V(channel), V("r"))), C(0))
    return While.of(
        BinOp("and", V("$go"), nonempty),
        [
            Receive(target, channel, V("r"), kind="fifo"),
            Assign(
                accumulator,
                Call(
                    "snoc", lambda xs, x: xs + (x,), (V(accumulator), V(target))
                ),
            ),
            Havoc("$go", lambda _s: (True, False)),
        ],
    )


def impl_decision_view(final_global: Store) -> Store:
    """Observation shared between the implementation and abstract layers:
    the decision map."""
    return final_global.restrict(("decision",))


# --------------------------------------------------------------------- #
# Abstractions (Figure 4(c))
# --------------------------------------------------------------------- #


def _no_pending(state: Store, predicate) -> bool:
    return not any(predicate(p) for p in ghost_of(state).support())


def make_abstractions(rounds: int, num_nodes: int, program: Program):
    """Left-mover abstractions with sequential-context gates.

    * ``JoinAbs(r, n)`` asserts that no activity of earlier rounds that
      could still influence acceptor ``n``'s promise remains pending.
    * ``ProposeAbs(r)`` asserts that no ``StartRound``/``Join`` of rounds
      ``<= r`` and no earlier-round proposal/vote remains pending
      (Figure 4(c), lines 23–24).
    * ``ConcludeAbs(r, v)`` asserts that all votes of round ``r`` have been
      accounted for.
    """

    def join_abs_gate(state: Store) -> bool:
        r, n = state["r"], state["n"]

        def threat(p: PendingAsync) -> bool:
            if p.action in ("StartRound", "Propose") and p.locals["r"] < r:
                return True
            # Acceptor n joins rounds in increasing order: a pending join or
            # vote of n in a lower round would be disabled by this join.
            if (
                p.action in ("Join", "Vote")
                and p.locals["r"] < r
                and p.locals["n"] == n
            ):
                return True
            return False

        return _no_pending(state, threat)

    def propose_abs_gate(state: Store) -> bool:
        r = state["r"]

        def threat(p: PendingAsync) -> bool:
            if p.action in ("StartRound", "Join") and p.locals["r"] <= r:
                return True
            if p.action in ("Propose", "Vote") and p.locals["r"] < r:
                return True
            return False

        return program["Propose"].gate(state) and _no_pending(state, threat)

    def conclude_abs_gate(state: Store) -> bool:
        r = state["r"]

        def threat(p: PendingAsync) -> bool:
            if p.action in ("StartRound", "Propose", "Vote", "Join") and p.locals[
                "r"
            ] <= r:
                return True
            return False

        return program["Conclude"].gate(state) and _no_pending(state, threat)

    return {
        "Join": Action("JoinAbs", join_abs_gate, program["Join"].transitions, ("r", "n")),
        "Propose": Action(
            "ProposeAbs", propose_abs_gate, program["Propose"].transitions, ("r",)
        ),
        "Conclude": Action(
            "ConcludeAbs", conclude_abs_gate, program["Conclude"].transitions, ("r", "v")
        ),
    }


# --------------------------------------------------------------------- #
# Measure, policy, IS application
# --------------------------------------------------------------------- #


def make_measure(rounds: int, num_nodes: int) -> LexicographicMeasure:
    """PA potential: StartRound carries its whole round's remaining work."""
    per_round = 2 * num_nodes + 3  # joins + votes + propose + conclude + itself

    def weight(pending: PendingAsync) -> int:
        action = pending.action
        if action == MAIN:
            return rounds * per_round + 1
        if action == "StartRound":
            return per_round
        if action == "Propose":
            return num_nodes + 2
        return 1  # Join, Vote, Conclude

    return LexicographicMeasure((pa_potential(weight),), name="paxos potential")


_PHASE = {"StartRound": 0, "Join": 1, "Propose": 2, "Vote": 3, "Conclude": 4}


def make_policy(rounds: int, num_nodes: int):
    """One round at a time; within a round the fixed phase order
    ``S J(·) P V(·) C`` of Section 5.2."""
    return policy_by_key(
        tuple(_PHASE),
        lambda _g, p: (p.locals["r"], _PHASE[p.action], p.locals.get("n", 0)),
    )


def make_sequentialization(
    rounds: int,
    num_nodes: int,
    values: Sequence[int] = (1, 2),
    nondet_rounds: bool = False,
) -> ISApplication:
    """The single IS application of Table 1 (#IS = 1): eliminate all five
    action kinds from ``Paxos`` at once, yielding ``Paxos'``."""
    program = make_atomic(rounds, num_nodes, values, nondet_rounds)
    policy = make_policy(rounds, num_nodes)
    return ISApplication(
        program=program,
        m_name=MAIN,
        eliminated=("StartRound", "Join", "Propose", "Vote", "Conclude"),
        invariant=invariant_from_policy(program, MAIN, policy, name="PaxosInv"),
        measure=make_measure(rounds, num_nodes),
        choice=choice_from_policy(policy),
        abstractions=make_abstractions(rounds, num_nodes, program),
    )


def make_symmetry(
    rounds: int, num_nodes: int, values: Sequence[int] = (1, 2)
):
    """Paxos is symmetric in node identity *and* in the proposed values.

    Node ids live in the ``joinedNodes``/``voteInfo`` sets and the ``n``
    parameters of ``Join``/``Vote``; values live in ``voteInfo``,
    ``decision``, and the ``v`` parameters of ``Vote``/``Conclude``.
    Rounds are ordered (``_max_voted`` compares them) and stay fixed.
    Every gate and transition treats nodes and values opaquely —
    membership tests, set insertion, quorum cardinality, equality — so
    the program, its abstractions, the measure (weights by action name
    only), and ``spec_holds`` (value equality) all commute with the
    renaming. Group order: ``num_nodes! * len(values)!``.
    """
    from ..core import symmetry as sym

    node = sym.atom("node")
    value = sym.atom("value")
    return sym.SymmetrySpec(
        name=f"paxos-r{rounds}-n{num_nodes}",
        sorts={
            "node": tuple(range(1, num_nodes + 1)),
            "value": tuple(values),
        },
        global_rules={
            "joinedNodes": sym.fmap(sym.ID, sym.fset(node)),
            "voteInfo": sym.fmap(
                sym.ID, sym.opt(sym.tup(value, sym.fset(node)))
            ),
            "decision": sym.fmap(sym.ID, sym.opt(value)),
        },
        local_rules={
            "Join": {"n": node},
            "Vote": {"n": node, "v": value},
            "Conclude": {"v": value},
        },
        ghost_var=GHOST,
    )


def spec_holds(final_global: Store, rounds: int) -> bool:
    """Figure 4(c), ``Paxos'``: no two rounds decide on conflicting values."""
    decision = final_global["decision"]
    decided = [decision[r] for r in range(1, rounds + 1) if decision[r] is not None]
    return all(v == decided[0] for v in decided)


def verify_sampled(
    rounds: int = 2,
    num_nodes: int = 3,
    values: Sequence[int] = (1, 2),
    walks: int = 300,
    seed: int = 0,
    jobs: Optional[int] = None,
    fail_fast: bool = False,
    tracer=None,
    resilience=None,
) -> ProtocolReport:
    """Bounded variant for instances whose reachable state space defies
    enumeration (R=2, N=3 has ~6·10^5 configurations): the IS conditions
    are checked over a universe harvested from random-scheduler walks.
    A PASS is a bounded check; the exhaustive guarantee comes from the
    smaller instances covered by :func:`verify` (see EXPERIMENTS.md)."""
    from contextlib import nullcontext

    from ..core.context import GhostContext
    from ..core.explore import instance_summary
    from ..core.semantics import initial_config
    from ..core.universe import StoreUniverse
    from .common import timed

    application = make_sequentialization(rounds, num_nodes, values)
    report = ProtocolReport(
        "paxos (sampled)",
        {"rounds": rounds, "nodes": num_nodes, "walks": walks, "seed": seed},
        bounded=True,
    )
    init = initial_config(initial_global(rounds, num_nodes))
    with timed(report, "IS[Paxos]", tracer=tracer):
        universe = StoreUniverse.from_random_walks(
            application.program, [init], walks=walks, seed=seed
        ).with_context(GhostContext(GHOST))
        with (
            tracer.scope("paxos (sampled)/IS[Paxos]")
            if tracer is not None
            else nullcontext()
        ):
            report.is_results.append(
                (
                    "Paxos",
                    application.check(
                        universe, jobs=jobs, fail_fast=fail_fast, tracer=tracer
                    ),
                )
            )
            report.explain_targets.append(("Paxos", application, universe))
    with timed(report, "sequential spec"):
        summary = instance_summary(
            application.apply_and_drop(), initial_global(rounds, num_nodes)
        )
        report.spec_ok = (
            not summary.can_fail
            and bool(summary.final_globals)
            and all(spec_holds(final, rounds) for final in summary.final_globals)
        )
    return report


def verify(
    rounds: int = 2,
    num_nodes: int = 2,
    values: Sequence[int] = (1, 2),
    ground_truth: bool = False,
    max_configs: Optional[int] = None,
    jobs: Optional[int] = None,
    fail_fast: bool = False,
    tracer=None,
    resilience=None,
    cache=None,
    warm=None,
    symmetry: bool = False,
) -> ProtocolReport:
    """Full pipeline for Paxos.

    The default instance is Table 1's R=2, N=2. R=2, N=3 without
    symmetry has 618,760 reachable globals and does not fit a small host;
    pass ``num_nodes=3`` with ``symmetry=True``, or use
    :func:`verify_sampled`.

    Ground-truth exploration of the concurrent program is exponential in
    rounds × nodes; it is off by default and exercised by a dedicated slow
    test at small parameters. ``symmetry=True`` quotients the exploration
    and the IS universes by :func:`make_symmetry`'s node/value group —
    the lever that turns R=2, N=3 from a random-walk bounded check
    (:func:`verify_sampled`) into an exhaustive discharge."""
    application = make_sequentialization(rounds, num_nodes, values)
    parameters = {"rounds": rounds, "nodes": num_nodes, "values": tuple(values)}
    spec = None
    if symmetry:
        spec = make_symmetry(rounds, num_nodes, values)
        parameters["symmetry"] = spec.name
    return verify_protocol(
        "paxos",
        parameters,
        application.program,
        [("Paxos", application)],
        initial_global(rounds, num_nodes),
        lambda final: spec_holds(final, rounds),
        ground_truth=ground_truth,
        max_configs=max_configs,
        jobs=jobs,
        fail_fast=fail_fast,
        tracer=tracer,
        resilience=resilience,
        cache=cache,
        warm=warm,
        symmetry=spec,
    )

"""Store universes: finite quantifier domains for checking conditions.

Every proof obligation of the paper — action refinement (Definition 3.1),
the four left-mover conditions (Section 3), and the IS conditions I1/I2/I3/
LM/CO (Figure 3) — is a universally quantified statement over stores. CIVL
discharges them with an SMT solver; this reproduction discharges them by
*enumeration over a finite universe of stores* (see DESIGN.md).

A :class:`StoreUniverse` provides

* a set of candidate **global stores**, and
* per action name, a set of candidate **local stores** (parameter values).

The canonical construction is :meth:`StoreUniverse.from_reachable`, which
explores a program instance and harvests every global store of a reachable
configuration and every local store of a pending async observed during the
exploration. Protocols typically extend this with boundary stores (e.g.
perturbed channels) via :meth:`extended` so the checks also cover the
intermediate stores produced while commuting actions during rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from .action import PendingAsync
from .cache import CacheStats
from .context import NoContext, PAContext
from .explore import explore
from .hashing import structural_key
from .program import Program
from .semantics import Config
from .store import EMPTY_STORE, Store, combine, intern_epoch, memo_key

__all__ = ["StoreUniverse"]


@dataclass
class StoreUniverse:
    """A finite quantifier domain: global stores + per-action local stores.

    The optional :class:`~repro.core.context.PAContext` restricts which
    (store, pending-async) combinations the conditions are checked on,
    reproducing CIVL's linear-permission discipline (see
    ``repro.core.context``).
    """

    globals_: List[Store]
    locals_by_action: Dict[str, List[Store]] = field(default_factory=dict)
    context: PAContext = field(default_factory=NoContext)
    #: The :class:`~repro.core.symmetry.SymmetrySpec` this universe is
    #: quotiented under, or ``None`` for an unquotiented universe. Hashed
    #: into ``universe_fingerprint`` (``repro.engine.rcache``) so
    #: quotiented and unquotiented caches can never alias.
    symmetry: Optional[object] = None
    _pair_cache: Dict[tuple, bool] = field(
        default_factory=dict, repr=False, compare=False
    )
    _single_cache: Dict[tuple, bool] = field(
        default_factory=dict, repr=False, compare=False
    )
    context_cache_stats: CacheStats = field(
        default_factory=CacheStats, repr=False, compare=False
    )
    _memo_epoch: object = field(default=None, repr=False, compare=False)
    _gids_cache: object = field(default=None, repr=False, compare=False)
    #: ``universe_fingerprint`` memo, filled by the result cache's
    #: ``DependencyFingerprinter`` ("" when unfingerprintable).
    _fingerprint: Optional[str] = field(default=None, repr=False, compare=False)
    _g_ck: Dict[object, int] = field(
        default_factory=dict, repr=False, compare=False
    )
    _ck_ids: Dict[object, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    def _fresh_memo_keys(self) -> None:
        """Admissibility memos key locals by intern id, but this object may
        outlive an intern-table reset (``reset_process_cache`` cannot reach
        per-universe state) — so drop the memos whenever the table's epoch
        moved, before a stale id can alias a different store."""
        epoch = intern_epoch()
        if self._memo_epoch is not epoch:
            self._pair_cache.clear()
            self._single_cache.clear()
            self._gids_cache = None
            self._g_ck.clear()
            self._ck_ids.clear()
            self._memo_epoch = epoch

    def _class_of(self, global_store: Store) -> int:
        """The dense index of the global's context ``cache_key`` class, or
        -1 when the context declares its decisions uncachable.  Keying the
        admissibility memos by this small int (instead of the cache_key
        object itself, typically a ghost multiset) keeps probe hashing off
        the multisets."""
        gk = memo_key(global_store)
        ck = self._g_ck.get(gk)
        if ck is None:
            ckey = self.context.cache_key(global_store)
            if ckey is None:
                ck = -1
            else:
                ck = self._ck_ids.get(ckey)
                if ck is None:
                    ck = len(self._ck_ids)
                    self._ck_ids[ckey] = ck
            self._g_ck[gk] = ck
        return ck

    @classmethod
    def from_reachable(
        cls,
        program: Program,
        initials: Iterable[Config],
        max_configs: Optional[int] = None,
        symmetry=None,
    ) -> "StoreUniverse":
        """Harvest globals and PA locals from the reachable state space.

        With a ``symmetry`` (a :class:`~repro.core.symmetry.SymmetrySpec`),
        the exploration itself runs on the orbit quotient — every visited
        configuration is canonicalized before deduplication — so both the
        search frontier *and* the harvested universe shrink by up to the
        group order. Locals are harvested from the canonical
        configurations' pending multisets — and then **closed under the
        group**: a canonical representative fixes one permutation per
        configuration, so the raw harvest holds one orbit member per
        (config, PA) pair, while the discharge pairs every canonical
        global with every pool element and needs the member *matching
        that global's ghost* to be present. Closure restores exactly the
        locals the unquotiented harvest would contain (reachability is
        equivariant), so a failing (global, locals) pair in the full
        product always has a failing image in the quotient product —
        counterexamples cannot be quotiented away.

        Stores are ordered by :func:`~repro.core.hashing.structural_key`
        (not ``repr``): address-bearing reprs of exotic values made
        universe order — and therefore sampler output and fingerprints —
        nondeterministic across processes.
        """
        canonicalize = None
        canon = None
        if symmetry is not None:
            from .symmetry import Canonicalizer

            canon = Canonicalizer.of(symmetry)
            symmetry = canon.spec
            canonicalize = canon.config
        result = explore(
            program, initials, max_configs=max_configs, canonicalize=canonicalize
        )
        globals_seen: Set[Store] = set()
        locals_seen: Dict[str, Set[Store]] = {}
        for config in result.reachable:
            globals_seen.add(config.glob)
            for pending in config.pending.support():
                locals_seen.setdefault(pending.action, set()).add(pending.locals)
        if canon is not None:
            for name, stores in locals_seen.items():
                locals_seen[name] = {
                    member
                    for store in stores
                    for member in canon.local_orbit(name, store)
                }
        return cls(
            sorted(globals_seen, key=structural_key),
            {
                name: sorted(stores, key=structural_key)
                for name, stores in locals_seen.items()
            },
            symmetry=symmetry,
        )

    @classmethod
    def from_random_walks(
        cls,
        program: Program,
        initials: Iterable[Config],
        walks: int = 200,
        max_steps: int = 10_000,
        seed: int = 0,
        symmetry=None,
    ) -> "StoreUniverse":
        """Harvest a universe from random-scheduler walks instead of full
        BFS — the bounded-checking fallback for instances whose reachable
        state space is too large to enumerate (e.g. Paxos at R=2, N=3).
        A PASS over such a universe is a bounded check, not an exhaustive
        one; protocols document which instances use it (and reports carry
        ``bounded=True``). ``symmetry`` canonicalizes every sampled
        configuration before harvesting, folding the sample onto orbit
        representatives (locals pools group-closed, as in
        :meth:`from_reachable`)."""
        import random

        from .explore import random_execution

        canonicalize = None
        canon = None
        if symmetry is not None:
            from .symmetry import Canonicalizer

            canon = Canonicalizer.of(symmetry)
            symmetry = canon.spec
            canonicalize = canon.config
        rng = random.Random(seed)
        globals_seen: Set[Store] = set()
        locals_seen: Dict[str, Set[Store]] = {}
        initials = list(initials)
        for _ in range(walks):
            init = rng.choice(initials)
            execution = random_execution(program, init, rng, max_steps=max_steps)
            for config in execution.configs():
                if not isinstance(config, Config):
                    continue
                if canonicalize is not None:
                    config = canonicalize(config)
                globals_seen.add(config.glob)
                for pending in config.pending.support():
                    locals_seen.setdefault(pending.action, set()).add(pending.locals)
        if canon is not None:
            for name, stores in locals_seen.items():
                locals_seen[name] = {
                    member
                    for store in stores
                    for member in canon.local_orbit(name, store)
                }
        return cls(
            sorted(globals_seen, key=structural_key),
            {
                name: sorted(stores, key=structural_key)
                for name, stores in locals_seen.items()
            },
            symmetry=symmetry,
        )

    def sampled(self, limit: int, keep=None) -> "StoreUniverse":
        """A deterministic stratified subsample of the globals (every k-th
        after ordering by structural key), always retaining globals for
        which ``keep`` holds. Locals are kept in full.

        The result has exactly ``min(limit, len(globals_))`` globals when
        the keep-set fits within the limit, and the keep-set verbatim
        otherwise — never more than ``max(limit, len(retained))`` (the
        old floor-division stride silently blew the caller's budget).
        The stratified part picks evenly spaced positions over the
        ordered rest. Ordering by structural key makes the sample
        independent of the universe's construction order.
        """
        if len(self.globals_) <= limit:
            return self
        ordered = sorted(self.globals_, key=structural_key)
        if keep is None:
            retained: List[Store] = []
            rest = ordered
        else:
            retained = [g for g in ordered if keep(g)]
            retained_set = set(retained)
            rest = [g for g in ordered if g not in retained_set]
        room = limit - len(retained)
        if room <= 0:
            sample = retained
        elif len(rest) <= room:
            sample = retained + rest
        else:
            # Exactly ``room`` evenly spaced positions; the first and the
            # last of the ordered rest are always included.
            last = len(rest) - 1
            positions = sorted(
                {(j * last) // (room - 1) for j in range(room)}
                if room > 1
                else {0}
            )
            sample = retained + [rest[p] for p in positions]
        return StoreUniverse(
            sample, self.locals_by_action, self.context, self.symmetry
        )

    def quotiented(self, symmetry) -> "StoreUniverse":
        """This universe folded onto orbit representatives.

        Globals map to their canonical orbit elements (deduplicated);
        locals pools are closed under the group and deduplicated — a
        no-op for pools harvested from a full exploration (those are
        group-closed already by equivariance of reachability), but it
        keeps hand-extended boundary pools covering every orbit a
        canonical global's ghost can mention. Already-quotiented
        universes and ``symmetry=None`` pass through unchanged.
        """
        if symmetry is None or self.symmetry is not None:
            return self
        from .symmetry import Canonicalizer

        canon = Canonicalizer.of(symmetry)
        globals_ = sorted(
            {canon.store(g) for g in self.globals_}, key=structural_key
        )
        locals_by_action: Dict[str, List[Store]] = {}
        for name, pool in self.locals_by_action.items():
            closed: Dict[Store, None] = {}
            for locals_ in pool:
                for member in canon.local_orbit(name, locals_):
                    closed.setdefault(member)
            locals_by_action[name] = sorted(closed, key=structural_key)
        return StoreUniverse(
            globals_, locals_by_action, self.context, canon.spec
        )

    @classmethod
    def of_stores(
        cls,
        globals_: Iterable[Store],
        locals_by_action: Mapping[str, Iterable[Store]] = (),
    ) -> "StoreUniverse":
        return cls(
            list(dict.fromkeys(globals_)),
            {name: list(dict.fromkeys(ls)) for name, ls in dict(locals_by_action).items()},
        )

    def locals_for(self, action_name: str) -> List[Store]:
        """Candidate local stores for an action (default: the empty store)."""
        return self.locals_by_action.get(action_name, [EMPTY_STORE])

    def combined(self, action_name: str) -> Iterator[Tuple[Store, Store, Store]]:
        """Iterate ``(global, local, combined)`` triples for an action."""
        for g in self.globals_:
            for l in self.locals_for(action_name):
                yield g, l, combine(g, l)

    def single_ok(self, global_store: Store, action_name: str, locals_: Store) -> bool:
        """May PA ``(locals_, action_name)`` be scheduled from this global?"""
        self._fresh_memo_keys()
        ck = self._class_of(global_store)
        if ck < 0:
            return self.context.single(global_store, PendingAsync(action_name, locals_))
        key = (ck, action_name, memo_key(locals_))
        cached = self._single_cache.get(key)
        if cached is None:
            self.context_cache_stats.misses += 1
            cached = self.context.single(
                global_store, PendingAsync(action_name, locals_)
            )
            self._single_cache[key] = cached
        else:
            self.context_cache_stats.hits += 1
        return cached

    def pair_ok(
        self,
        global_store: Store,
        name1: str,
        locals1: Store,
        name2: str,
        locals2: Store,
    ) -> bool:
        """May the two PAs coexist (as distinct PAs) in one configuration?

        Decisions are memoized under the context's
        :meth:`~repro.core.context.PAContext.cache_key` — the fragment of
        the global store the context actually reads (e.g. the ghost
        multiset), under which many globals collapse to one entry.
        """
        self._fresh_memo_keys()
        ck = self._class_of(global_store)
        if ck < 0:
            return self.context.pair(
                global_store,
                PendingAsync(name1, locals1),
                PendingAsync(name2, locals2),
            )
        key = (ck, name1, memo_key(locals1), name2, memo_key(locals2))
        cached = self._pair_cache.get(key)
        if cached is None:
            self.context_cache_stats.misses += 1
            cached = self.context.pair(
                global_store,
                PendingAsync(name1, locals1),
                PendingAsync(name2, locals2),
            )
            self._pair_cache[key] = cached
        else:
            self.context_cache_stats.hits += 1
        return cached

    def with_context(self, context: PAContext) -> "StoreUniverse":
        """A copy of this universe under a different PA context."""
        return StoreUniverse(
            self.globals_, self.locals_by_action, context, self.symmetry
        )

    def extended(
        self,
        extra_globals: Iterable[Store] = (),
        extra_locals: Mapping[str, Iterable[Store]] = (),
    ) -> "StoreUniverse":
        """A new universe with additional globals / locals."""
        globals_ = list(dict.fromkeys([*self.globals_, *extra_globals]))
        locals_by_action = {k: list(v) for k, v in self.locals_by_action.items()}
        for name, stores in dict(extra_locals).items():
            merged = locals_by_action.get(name, []) + list(stores)
            locals_by_action[name] = list(dict.fromkeys(merged))
        return StoreUniverse(
            globals_, locals_by_action, self.context, self.symmetry
        )

    def merge(self, other: "StoreUniverse") -> "StoreUniverse":
        """Union of two universes (keeps this universe's PA context)."""
        return self.extended(other.globals_, other.locals_by_action)

    def __repr__(self) -> str:
        locals_desc = {k: len(v) for k, v in self.locals_by_action.items()}
        quotient = (
            f", quotient={self.symmetry.name}" if self.symmetry is not None else ""
        )
        return (
            f"StoreUniverse({len(self.globals_)} globals, "
            f"locals={locals_desc}{quotient})"
        )

"""Mutation-driven invalidation: the cache must re-execute *exactly* the
obligations whose read-set covers an edit, and hit everything else.

The matrix wraps one proof artifact at a time in a behaviorally identical
but bytecode-distinct closure (``lambda state: gate(state)``) — the
sharpest possible edit: verdicts cannot change, so any difference in what
re-executes is purely the dependency fingerprints talking. Per protocol
the invariant edit must invalidate exactly the invariant readers
{I1, I2, I3}; on Ping-Pong a fine-grained matrix pins every artifact kind
(invariant, choice, measure, abstraction, eliminated action, main action)
to its exact read-set. The seeded proof bugs of ``repro.diagnose.fixtures``
must keep failing against a cache warmed with the *correct* proof — a
warm cache may never mask a bug. Verdicts must be identical cold vs warm
vs cross-process-warm (different ``PYTHONHASHSEED``) on all seven
protocols.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.diagnose.fixtures import FIXTURES
from repro.protocols import broadcast

from .rcache_cases import (
    PROTOCOL_NAMES,
    all_keys,
    build,
    condition_digest,
    condition_map,
    count_executions,
    rebuild,
    wrap_action,
    wrap_measure,
    wrap_predicate,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _lm_parts(key):
    """``LM[name|other]`` / ``LM[name|other|cond#i]`` → (name, other)."""
    inner = key[len("LM[") : -1]
    parts = inner.split("|")
    return parts[0], parts[1]


def _action_readers(keys, target):
    """Obligation keys whose read-set includes the *program* action or
    fallback abstraction of ``target``: I3 (composes every α(e)), CO of
    the action itself, and every left-mover pair mentioning it."""
    affected = set()
    for key in keys:
        if key.startswith("LM["):
            name, other = _lm_parts(key)
            if target in (name, other):
                affected.add(key)
        elif key.startswith("I3"):
            affected.add(key)
    affected.add(f"CO[{target}]")
    return affected


def _run_warm_then_mutant(app, universe, mutant, cache_dir):
    """Cold-run ``app`` into ``cache_dir``, then run ``mutant`` against
    the warm cache, returning (mutant result, executed keys)."""
    cold = app.check(universe, jobs=1, cache=cache_dir)
    assert cold.holds
    with count_executions() as executed:
        warm = mutant.check(universe, jobs=1, cache=cache_dir)
    return warm, set(executed)


# --------------------------------------------------------------------- #
# Per-protocol: the invariant edit invalidates exactly {I1, I2, I3}
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_invariant_edit_reexecutes_exactly_the_invariant_readers(
    name, tmp_path
):
    app, universe = build(name)
    keys = all_keys(app, universe)
    expected = {k for k in keys if k in ("I1", "I2") or k.startswith("I3")}

    mutant = rebuild(app, invariant=wrap_action(app.invariant))
    result, executed = _run_warm_then_mutant(app, universe, mutant, tmp_path)

    assert executed == expected
    # Everything else is a hit — and the verdicts are byte-identical to a
    # cold run of the very same mutant.
    assert set(result.cached_keys) == keys - expected
    assert result.rcache_stats["invalidations"] == len(expected)
    assert result.rcache_stats["hits"] == len(keys) - len(expected)
    assert condition_map(result) == condition_map(
        mutant.check(universe, jobs=1)
    )


# --------------------------------------------------------------------- #
# Ping-Pong fine-grained matrix: one artifact kind per row
# --------------------------------------------------------------------- #


def _pp_expected(app, keys, artifact):
    if artifact == "invariant":
        return {"I1", "I2", "I3"}
    if artifact == "choice":
        return {"I3"}
    if artifact == "measure":
        return {k for k in keys if k.startswith("CO[")}
    if artifact == "abstraction":
        name = sorted(app.abstractions)[0]
        affected = {f"abs[{name}]", "I3", f"CO[{name}]"}
        affected |= {
            k for k in keys if k.startswith("LM[") and _lm_parts(k)[0] == name
        }
        return affected
    if artifact == "eliminated-action":
        return _action_readers(keys, "Ping") & (keys | {"CO[Ping]"})
    if artifact == "main-action":
        return {"I1"} | {
            k
            for k in keys
            if k.startswith("LM[") and _lm_parts(k)[1] == app.m_name
        }
    raise AssertionError(artifact)


def _pp_mutant(app, artifact):
    if artifact == "invariant":
        return rebuild(app, invariant=wrap_action(app.invariant))
    if artifact == "choice":
        return rebuild(app, choice=wrap_predicate(app.choice))
    if artifact == "measure":
        return rebuild(app, measure=wrap_measure(app.measure))
    if artifact == "abstraction":
        name = sorted(app.abstractions)[0]
        abstractions = dict(app.abstractions)
        abstractions[name] = wrap_action(abstractions[name])
        return rebuild(app, abstractions=abstractions)
    if artifact == "eliminated-action":
        wrapped = wrap_action(app.program["Ping"])
        return rebuild(app, program=app.program.with_action("Ping", wrapped))
    if artifact == "main-action":
        wrapped = wrap_action(app.program[app.m_name])
        return rebuild(
            app, program=app.program.with_action(app.m_name, wrapped)
        )
    raise AssertionError(artifact)


@pytest.mark.parametrize(
    "artifact",
    [
        "invariant",
        "choice",
        "measure",
        "abstraction",
        "eliminated-action",
        "main-action",
    ],
)
def test_pingpong_artifact_edits_invalidate_exactly_their_readers(
    artifact, tmp_path
):
    app, universe = build("pingpong")
    keys = all_keys(app, universe)
    assert "Ping" in app.eliminated and "Ping" not in app.abstractions

    mutant = _pp_mutant(app, artifact)
    expected = _pp_expected(app, keys, artifact)
    assert expected and expected <= keys

    result, executed = _run_warm_then_mutant(app, universe, mutant, tmp_path)
    assert executed == expected
    assert set(result.cached_keys) == keys - expected
    assert result.holds


# --------------------------------------------------------------------- #
# A warm cache must never mask a seeded proof bug
# --------------------------------------------------------------------- #


def _correct_broadcast_fixture_twin(n=2):
    """The correct one-shot broadcast proof on the *fixtures'* frame:
    same program, same universe builder, correct abstraction — so its
    cache entries genuinely collide with a mutant's unaffected ones."""
    from repro.core.program import MAIN
    from repro.core.sequentialize import ISApplication

    program = broadcast.make_atomic(n)
    app = ISApplication(
        program=program,
        m_name=MAIN,
        eliminated=("Broadcast", "Collect"),
        invariant=broadcast.make_invariant(n),
        measure=broadcast.make_measure(),
        abstractions={"Collect": broadcast.make_collect_abs(n)},
    )
    return app, broadcast.make_universe(program, n)


def _obligations_of_condition(condition, keys):
    """The obligation keys that merge into one condition-map key."""
    if condition == "CO":
        return {k for k in keys if k.startswith("CO[")}
    if condition.startswith("LM[") and "|" not in condition:
        name = condition[len("LM[") : -1]
        return {
            k for k in keys if k.startswith("LM[") and _lm_parts(k)[0] == name
        }
    if condition == "I3":
        return {k for k in keys if k.startswith("I3")}
    return {condition}


@pytest.mark.parametrize(
    "fixture_name,warmed_by",
    [pytest.param(name, "complete", id=name) for name in sorted(FIXTURES)]
    + [
        pytest.param(name, "interrupted", id=f"{name}-interrupted")
        for name in sorted(FIXTURES)
    ],
)
def test_seeded_bug_is_never_masked_by_a_warm_correct_cache(
    fixture_name, warmed_by, tmp_path, monkeypatch
):
    """``interrupted`` is the resume case: the correct proof is stopped
    mid-run, and the mutant then runs against the store that run left
    behind — exactly what rerunning a killed run does. A resume store
    keyed by obligation names alone reports both mutants as holding."""
    fixture = FIXTURES[fixture_name]

    # Warm the cache with the correct proof: everything it completes
    # passes and is stored.
    good_app, good_universe = _correct_broadcast_fixture_twin()
    if warmed_by == "interrupted":
        monkeypatch.setenv("REPRO_FAULTS", "I3=interrupt")
    good = good_app.check(good_universe, jobs=1, cache=tmp_path)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    if warmed_by == "interrupted":
        assert good.interrupted
        assert set(good.timings) == {"abs[Collect]", "I1", "I2"}
    else:
        assert good.holds

    # The mutant against the warm cache: its seeded failures must
    # re-execute (the mutated abstraction changed their fingerprints) and
    # fail exactly as they do on a cold run.
    bad_app, bad_universe = fixture.build()
    cold = bad_app.check(bad_universe, jobs=1)
    with count_executions() as executed:
        seeded = bad_app.check(bad_universe, jobs=1, cache=tmp_path)
    assert not seeded.holds
    assert condition_map(seeded) == condition_map(cold)
    failing = {k for k, r in seeded.conditions.items() if not r.holds}
    assert set(fixture.expect_failing) <= failing
    # Every seeded failure was re-proven live, not read from the cache.
    keys = all_keys(bad_app, bad_universe)
    for condition in fixture.expect_failing:
        assert _obligations_of_condition(condition, keys) & set(executed), (
            condition
        )

    # And a warm re-run of the mutant itself still reports the bug with
    # zero executions — caching a failure does not erase it.
    with count_executions() as executed:
        warm = bad_app.check(bad_universe, jobs=1, cache=tmp_path)
    assert not executed
    assert condition_map(warm) == condition_map(cold)


# --------------------------------------------------------------------- #
# Verdict identity: cold vs warm vs cross-process warm, all protocols
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_warm_rerun_executes_nothing_and_preserves_verdicts(name, tmp_path):
    app, universe = build(name)
    keys = all_keys(app, universe)

    plain = app.check(universe, jobs=1)
    cold = app.check(universe, jobs=1, cache=tmp_path)
    with count_executions() as executed:
        warm = app.check(universe, jobs=1, cache=tmp_path)

    assert not executed
    assert set(warm.cached_keys) == keys
    assert warm.rcache_stats["hits"] == len(keys)
    assert (
        condition_map(plain) == condition_map(cold) == condition_map(warm)
    )


_SUBPROCESS_SCRIPT = """
import json, sys
sys.path.insert(0, {root!r})
sys.path.insert(0, {src!r})
from tests.engine import rcache_cases as rc

cache_root = sys.argv[1]
out = {{}}
for name in rc.PROTOCOL_NAMES:
    app, universe = rc.build(name)
    with rc.count_executions() as executed:
        result = app.check(universe, jobs=1, cache=f"{{cache_root}}/{{name}}")
    out[name] = {{
        "executed": len(executed),
        "digest": rc.condition_digest(result),
    }}
print(json.dumps(out))
"""


def test_cross_process_warm_cache_preserves_verdicts(tmp_path):
    """A cache written by one process serves another — under a different
    hash seed, so any hidden ordering dependence in the fingerprints
    would surface as a miss or a verdict drift."""
    digests = {}
    for name in PROTOCOL_NAMES:
        app, universe = build(name)
        result = app.check(universe, jobs=1, cache=tmp_path / name)
        digests[name] = condition_digest(result)

    script = _SUBPROCESS_SCRIPT.format(
        root=str(REPO_ROOT), src=str(REPO_ROOT / "src")
    )
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "12345"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    remote = json.loads(proc.stdout)
    for name in PROTOCOL_NAMES:
        assert remote[name]["executed"] == 0, name
        assert remote[name]["digest"] == digests[name], name

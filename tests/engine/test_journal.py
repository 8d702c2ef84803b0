"""The resume store's contract, end to end through a scheduler.

The checkpoint journal is gone; the content-addressed result cache is the
only resume store. What the journal guaranteed still holds, now for the
cache fed by the scheduler's ``store`` callback: only *completed*
outcomes are persisted (skipped, timed-out, crashed and already-cached
ones are not), and a FAIL's witnesses survive a restart through their
base64-pickle encoding.
"""

from __future__ import annotations

import base64
import json
import os
import pickle

import repro.engine.obligations as obligations_mod
from repro.core.refinement import CheckResult
from repro.engine.obligations import Obligation
from repro.engine.rcache import ObligationCache
from repro.engine.scheduler import ObligationOutcome, SerialScheduler

#: A ← B ← C dependency chain plus an independent D.
CHAIN = [
    Obligation(key="A", kind="abs", condition="A"),
    Obligation(key="B", kind="I1", condition="B", deps=("A",)),
    Obligation(key="C", kind="I2", condition="C", deps=("B",)),
    Obligation(key="D", kind="CO", condition="D"),
]

IDENTITY = "i" * 64


def _fp(key):
    return key.lower() * 64


def _stub_execute(app, universe, obligation, lm_universes=None):
    # Only A fails, so a fail-fast run skips B and C.
    return CheckResult(obligation.key, obligation.key != "A", checked=3)


def test_only_completed_outcomes_are_journaled(tmp_path, monkeypatch):
    monkeypatch.setattr(obligations_mod, "execute_obligation", _stub_execute)
    cache = ObligationCache(tmp_path)

    def store(outcome):
        cache.store(_fp(outcome.key), IDENTITY, outcome.key, outcome)

    outcomes = SerialScheduler().run(None, None, CHAIN, fail_fast=True, store=store)
    assert outcomes["B"].result is None and outcomes["C"].result is None

    # Outcomes that never reach a verdict, or came from the cache itself.
    pid = os.getpid()
    store(ObligationOutcome("E", None, 1.0, pid, timed_out=True))
    store(ObligationOutcome("F", None, 1.0, pid, error="FaultError: boom"))
    store(
        ObligationOutcome(
            "G", CheckResult("G", True), 0.0, pid, attempts=1, cached=True
        )
    )

    assert cache.stats.stores == 2 and len(cache) == 2
    reopened = ObligationCache(tmp_path)
    assert reopened.lookup(_fp("A"), IDENTITY, "A").holds is False
    assert reopened.lookup(_fp("D"), IDENTITY, "D").holds is True
    for key in "BCEFG":
        assert reopened.lookup(_fp(key), IDENTITY, key) is None


def test_witnesses_roundtrip_through_base64_pickle(tmp_path):
    witnesses = [("store", 1), ("store", 2)]
    outcome = ObligationOutcome(
        "A",
        CheckResult("A", False, list(witnesses), checked=7),
        elapsed=0.25,
        pid=os.getpid(),
        attempts=1,
    )
    cache = ObligationCache(tmp_path)
    assert cache.store(_fp("A"), IDENTITY, "A", outcome)

    record = json.loads((cache.objects_dir / f"{_fp('A')}.json").read_text())
    assert pickle.loads(base64.b64decode(record["witnesses"])) == witnesses

    # A restarted run opens the same directory afresh.
    result = ObligationCache(tmp_path).lookup(_fp("A"), IDENTITY, "A").to_result()
    assert result.holds is False
    assert result.counterexamples == witnesses
    assert result.checked == 7

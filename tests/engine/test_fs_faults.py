"""Disk-fault degradation: every write path tolerates ``OSError``.

The contract under test (see ``repro.engine.faults`` "Filesystem
faults"): an injected ``enospc``/``eio``/``eperm``/``torn`` fault on a
write site never aborts a run — the result cache degrades to a counted
miss, and the serve job store drops the one damaged record and recovers
on the next append. Verdicts are
byte-identical to a fault-free run throughout.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.refinement import CheckResult
from repro.engine.faults import FAULTS_ENV, FaultInjector, clear, install
from repro.engine.obligations import discharge
from repro.engine.rcache import ObligationCache
from repro.engine.scheduler import ObligationOutcome
from repro.serve.jobs import Job, JobRequest, JobStore

from .rcache_cases import build


@pytest.fixture(autouse=True)
def _no_injector(monkeypatch):
    clear()
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    yield
    clear()


def _outcome(key="I1", holds=True):
    return ObligationOutcome(
        key,
        CheckResult(key, holds, [], checked=3),
        elapsed=0.01,
        pid=os.getpid(),
        attempts=1,
    )


FP = "a" * 64


# --------------------------------------------------------------------- #
# ObligationCache.store() — the satellite bugfix regression
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("mode", ["enospc", "eio", "eperm"])
def test_store_oserror_degrades_to_counted_miss(tmp_path, mode):
    """A failed entry write must not propagate: ``store()`` returns
    False, ``write_errors`` counts it, and a ``write_error`` event is
    recorded for tracing."""
    install(FaultInjector.from_env(f"rcache.store={mode}"))
    cache = ObligationCache(tmp_path / "rc")
    assert cache.store(FP, "id1", "I1", _outcome()) is False
    assert cache.stats.write_errors == 1
    assert cache.stats.stores == 0
    assert [e.kind for e in cache.events if e.kind == "write_error"]
    # The entry never landed: a later lookup is an ordinary miss.
    assert cache.lookup(FP, "id1", "I1") is None
    assert cache.stats.misses == 1


def test_store_recovers_once_disk_pressure_clears(tmp_path):
    """``times``-bounded fault: the first store fails, the second (same
    cache object, same entry) succeeds — no poisoned state."""
    install(FaultInjector.from_env("rcache.store=enospc:1"))
    cache = ObligationCache(tmp_path / "rc")
    assert cache.store(FP, "id1", "I1", _outcome()) is False
    assert cache.store(FP, "id1", "I1", _outcome()) is True
    assert cache.stats.write_errors == 1
    assert cache.stats.stores == 1
    assert cache.lookup(FP, "id1", "I1") is not None


def test_torn_store_entry_is_a_lookup_miss(tmp_path):
    """A torn write lands a truncated entry on the final path; the
    reader must treat it as a miss, never a parse error."""
    install(FaultInjector.from_env("rcache.store=torn"))
    cache = ObligationCache(tmp_path / "rc")
    assert cache.store(FP, "id1", "I1", _outcome()) is False
    assert cache.stats.write_errors == 1
    torn = cache.objects_dir / f"{FP}.json"
    assert torn.exists() and torn.read_text()  # partial bytes landed
    assert cache.lookup(FP, "id1", "I1") is None


def test_discharge_completes_under_store_faults(tmp_path):
    """End-to-end regression for the original bug: ``discharge()`` with
    a cache on a full disk used to die in ``store()``. It must now
    finish with the fault-free verdict and surface the failures in the
    stats that ``--cache-stats`` prints."""
    app, universe = build("pingpong")
    reference = discharge(app, universe)
    install(FaultInjector.from_env("rcache.store=enospc:1000"))
    cache = ObligationCache(tmp_path / "rc")
    result = discharge(app, universe, cache=cache)
    assert result.holds is reference.holds
    assert result.num_obligations == reference.num_obligations
    assert cache.stats.stores == 0
    assert cache.stats.write_errors >= result.num_obligations
    # Nothing was persisted, so a fresh faultless run is all misses —
    # and then populates the cache normally.
    clear()
    warm = discharge(app, universe, cache=cache)
    assert warm.holds is reference.holds
    assert cache.stats.stores > 0


def test_index_flush_fault_keeps_index_dirty(tmp_path):
    install(FaultInjector.from_env("rcache.index=eio:1"))
    cache = ObligationCache(tmp_path / "rc")
    assert cache.store(FP, "id1", "I1", _outcome()) is True
    cache.flush()
    assert cache.stats.write_errors == 1
    assert not cache.index_path.exists()
    cache.flush()  # fault exhausted: the retry lands the index
    assert json.loads(cache.index_path.read_text())


def test_unwritable_cache_directory_disables_cache(tmp_path):
    """If even mkdir fails the cache opens disabled: every lookup is a
    miss, every store a counted write_error, nothing raises."""
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    cache = ObligationCache(blocker / "rc")
    assert cache.disabled
    assert cache.lookup(FP, "id1", "I1") is None
    assert cache.store(FP, "id1", "I1", _outcome()) is False
    assert cache.stats.write_errors == 1  # the failed mkdir
    assert len(cache) == 0


# --------------------------------------------------------------------- #
# Serve job store — per-record retry, damaged lines skipped
# --------------------------------------------------------------------- #


def _job(job_id="job-1", rounds=2):
    request = JobRequest.from_payload(
        {"kind": "verify", "protocol": "pingpong", "params": {"rounds": rounds}}
    )
    return Job(id=job_id, request=request, submitted_at=0.0)


def test_job_store_recovers_after_append_fault(tmp_path):
    store = JobStore(tmp_path / "jobs.jsonl")
    store.open()
    first, second = _job("job-1", rounds=2), _job("job-2", rounds=3)
    assert store.record("submitted", first)
    install(FaultInjector.from_env("jobs.append=enospc:1"))
    assert store.record("submitted", second) is False
    assert store.write_errors == 1
    # The very next append reopens the file and lands.
    first.status = "done"
    assert store.record("finished", first, status="done")
    store.close()
    clear()
    jobs, _events = JobStore.load(tmp_path / "jobs.jsonl")
    by_id = {j.id: j for j in jobs}
    assert by_id["job-1"].status == "done"
    assert "job-2" not in by_id  # the one lost record, nothing else


def test_job_store_torn_append_damages_only_one_record(tmp_path):
    store = JobStore(tmp_path / "jobs.jsonl")
    store.open()
    assert store.record("submitted", _job("job-1", rounds=2))
    install(FaultInjector.from_env("jobs.append=torn:1"))
    assert store.record("submitted", _job("job-2", rounds=3)) is False
    clear()
    # Recovery path: reopen repairs the torn tail (newline) so this
    # record starts on a fresh line instead of gluing onto the stub.
    assert store.record("submitted", _job("job-3", rounds=4))
    store.close()
    jobs, _events = JobStore.load(tmp_path / "jobs.jsonl")
    ids = {j.id for j in jobs}
    assert "job-1" in ids
    assert "job-2" not in ids
    assert "job-3" in ids

"""WarmState: reuse must change wall-clock only, never verdicts."""

from __future__ import annotations

from repro.engine.warm import WarmState
from repro.protocols import broadcast, pingpong


def _typed_verdict(report):
    """Everything a client can act on, with timings stripped."""
    return {
        "name": report.name,
        "status": report.status,
        "ok": report.ok,
        "spec_ok": report.spec_ok,
        "is": [(label, r.holds, r.total_checked)
               for label, r in report.is_results],
        "ground_truth": (
            None if report.ground_truth is None else report.ground_truth.holds
        ),
    }


def test_warm_reports_are_typed_identical_to_cold():
    cold = pingpong.verify(rounds=2)
    warm_state = WarmState()
    first = pingpong.verify(rounds=2, warm=warm_state)
    second = pingpong.verify(rounds=2, warm=warm_state)
    assert _typed_verdict(first) == _typed_verdict(cold)
    assert _typed_verdict(second) == _typed_verdict(cold)


def test_second_warm_run_executes_zero_obligations(tmp_path):
    warm_state = WarmState(rcache=str(tmp_path / "rcache"))
    pingpong.verify(rounds=2, warm=warm_state)
    report = pingpong.verify(rounds=2, warm=warm_state)
    total = cached = 0
    for _label, result in report.is_results:
        total += result.num_obligations
        cached += len(result.cached_keys)
    assert total > 0
    assert total - cached == 0, (total, cached)


def test_resident_cache_keeps_only_the_last_jobs_events(tmp_path):
    """Repeat jobs are all cache hits; the resident cache must not keep
    one event per hit for the life of the daemon."""
    from repro.serve.executor import run_request
    from repro.serve.jobs import JobRequest

    warm_state = WarmState(rcache=str(tmp_path / "rcache"))
    request = JobRequest.from_payload(
        {"kind": "verify", "protocol": "pingpong", "params": {"rounds": 2}}
    )
    budgets = {"max_configs": None, "jobs": None, "clamped": False}
    sizes = []
    for _ in range(3):
        payload = run_request(request, warm_state, budgets)
        sizes.append(len(warm_state.rcache.events))
    assert payload["obligations"]["executed"] == 0
    assert sizes[1] == sizes[2] == payload["obligations"]["total"]


def test_warm_state_reuses_universes_and_pipelines():
    warm_state = WarmState()
    pingpong.verify(rounds=2, warm=warm_state)
    built = warm_state.stats.universe_builds
    assert built > 0
    pingpong.verify(rounds=2, warm=warm_state)
    assert warm_state.stats.universe_builds == built
    assert warm_state.stats.universe_hits >= built
    assert warm_state.stats.pipeline_hits >= 1


def test_different_instances_do_not_collide():
    warm_state = WarmState()
    two = pingpong.verify(rounds=2, warm=warm_state)
    three = pingpong.verify(rounds=3, warm=warm_state)
    assert two.parameters != three.parameters
    assert _typed_verdict(three) == _typed_verdict(pingpong.verify(rounds=3))


def test_hand_rolled_broadcast_pipeline_supports_warm():
    warm_state = WarmState()
    cold = broadcast.verify(n=2)
    first = broadcast.verify(n=2, warm=warm_state)
    second = broadcast.verify(n=2, warm=warm_state)
    assert _typed_verdict(first) == _typed_verdict(cold)
    assert _typed_verdict(second) == _typed_verdict(cold)
    assert warm_state.stats.universe_hits > 0


def test_eviction_bounds_the_resident_maps():
    warm_state = WarmState(max_entries=1)
    pingpong.verify(rounds=2, warm=warm_state)
    pingpong.verify(rounds=3, warm=warm_state)
    assert len(warm_state._universes) == 1
    assert warm_state.stats.evictions > 0
    # An evicted instance still verifies correctly (it just rebuilds).
    report = pingpong.verify(rounds=2, warm=warm_state)
    assert report.ok


def test_forget_drops_maps_but_keeps_the_rcache(tmp_path):
    warm_state = WarmState(rcache=str(tmp_path / "rcache"))
    pingpong.verify(rounds=2, warm=warm_state)
    rcache = warm_state.rcache
    assert rcache is not None
    warm_state.forget()
    assert warm_state.describe()["universes"] == 0
    assert warm_state.rcache is rcache
    report = pingpong.verify(rounds=2, warm=warm_state)
    assert report.ok

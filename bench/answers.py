"""The answer table every benchmark operation is checked against.

Written by hand from the paper's Table 1 and the seeded fixtures'
documented bugs; nothing here is read from the code under test. A
verdict that differs from its entry counts as a failed operation.
"""

from __future__ import annotations

from typing import List, Optional

#: Table 1: every example verifies exhaustively (status OK, not bounded).
TABLE1_EXAMPLES = (
    "Broadcast consensus",
    "Ping-Pong",
    "Producer-Consumer",
    "N-Buyer",
    "Chang-Roberts",
    "Two-phase commit",
    "Paxos",
)

#: Seeded fixtures: each must fail, and fail at least these conditions.
FIXTURE_FAILURES = {
    "broken-broadcast": {"abs[Collect]", "I3"},
    "stuck-broadcast": {"LM[Collect]", "CO"},
}

#: The serve mix: request kind -> job payload. Every verify job is OK and
#: exhaustive; the explain job confirms its witnesses (status OK).
SERVE_REQUESTS = {
    "pingpong": {"kind": "verify", "protocol": "pingpong", "params": {"rounds": 3}},
    "twophase": {"kind": "verify", "protocol": "twophase", "params": {"n": 3}},
    "changroberts": {"kind": "verify", "protocol": "changroberts", "params": {"n": 4}},
    "nbuyer": {"kind": "verify", "protocol": "nbuyer", "params": {"n": 3}},
    "paxos": {
        "kind": "verify",
        "protocol": "paxos",
        "params": {"rounds": 1, "num_nodes": 2},
    },
    "explain": {"kind": "explain", "fixture": "broken-broadcast"},
}


def check_report(report) -> Optional[str]:
    """A protocol report must be OK and exhaustive; returns the mismatch."""
    if report.status != "OK" or report.bounded:
        return f"{report.name}: {report.status} bounded={report.bounded}"
    return None


def check_table1(rows) -> List[str]:
    """Every Table 1 example present once, each OK and not bounded."""
    problems = []
    seen = [row.example for row in rows]
    if sorted(seen) != sorted(TABLE1_EXAMPLES):
        problems.append(f"table1 rows {seen}")
    for row in rows:
        if row.status != "OK" or row.bounded:
            problems.append(f"{row.example}: {row.status} bounded={row.bounded}")
    return problems


def check_fixture(name: str, result) -> Optional[str]:
    """A seeded fixture must fail, at least on its planted conditions."""
    failed = {cond for cond, check in result.conditions.items() if not check.holds}
    if result.holds or not FIXTURE_FAILURES[name] <= failed:
        return f"{name}: holds={result.holds} failed={sorted(failed)}"
    return None


def check_serve(kind: str, result: Optional[dict]) -> Optional[str]:
    """A finished serve job's result payload against its request kind."""
    if not isinstance(result, dict):
        return f"{kind}: no result"
    if result.get("status") != "OK" or result.get("bounded", False):
        return f"{kind}: {result.get('status')} bounded={result.get('bounded')}"
    return None

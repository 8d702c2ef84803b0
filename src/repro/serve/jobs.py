"""Job model and the daemon's restart journal.

A *job* is one verification request: ``verify`` (one protocol),
``table1`` (the full sweep), or ``explain`` (a seeded diagnostic
fixture). Its lifecycle is ``queued -> running -> done`` with two
off-ramps: ``interrupted`` (the daemon was stopped mid-run — the job is
re-enqueued on restart and its obligation-level progress survives in the
result cache, :mod:`repro.engine.rcache`) and ``failed`` (the request
itself was unservable: unknown protocol, bad parameters).

Persistence is one append-only JSONL file: schema-versioned header,
fingerprint-guarded records, torn-tail tolerance. The *fingerprint* is
the canonical hash of the request payload: every record carries both
the id and the fingerprint, and a loaded record whose embedded request
no longer hashes to its recorded fingerprint is dropped as corrupt.
Which obligations a re-run may skip is not decided here: the result
cache keys each obligation by the content it reads, so a restarted
daemon re-uses exactly the results that still answer the same question.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..engine import faults

__all__ = [
    "JOBS_SCHEMA",
    "JOB_KINDS",
    "Job",
    "JobRequest",
    "JobStore",
    "StaleJobStoreError",
]

JOBS_SCHEMA = "repro.serve/jobs/v1"
JOB_KINDS = ("verify", "table1", "explain")

#: Job parameters forwarded verbatim to ``<protocol>.verify(...)``; an
#: allowlist, so a typo'd parameter is a 400 instead of a TypeError deep
#: inside a worker thread. Protocol-specific instance parameters (rounds,
#: n, num_nodes, ...) ride in the nested ``params`` object.
REQUEST_FIELDS = ("kind", "protocol", "fixture", "params", "max_configs",
                  "jobs", "fail_fast", "ground_truth")


class StaleJobStoreError(RuntimeError):
    """A job journal that is not ours: wrong schema, unreadable header."""


@dataclass(frozen=True)
class JobRequest:
    """One validated, canonicalized job request.

    ``params`` are protocol instance parameters passed through to the
    ``verify()`` pipeline (e.g. ``{"rounds": 4}``); only JSON scalars
    and arrays are accepted, so the canonical encoding — and hence the
    fingerprint — is total.
    """

    kind: str
    protocol: Optional[str] = None
    fixture: Optional[str] = None
    params: Tuple[Tuple[str, object], ...] = ()
    max_configs: Optional[int] = None
    jobs: Optional[int] = None
    fail_fast: bool = False
    ground_truth: Optional[bool] = None

    @classmethod
    def from_payload(cls, payload: object) -> "JobRequest":
        """Validate a decoded POST body; raises ``ValueError`` with a
        client-presentable message on anything malformed."""
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        unknown = sorted(set(payload) - set(REQUEST_FIELDS))
        if unknown:
            raise ValueError(f"unknown fields: {', '.join(unknown)}")
        kind = payload.get("kind")
        if kind not in JOB_KINDS:
            raise ValueError(
                f"kind must be one of {', '.join(JOB_KINDS)}, got {kind!r}"
            )
        protocol = payload.get("protocol")
        fixture = payload.get("fixture")
        if kind == "verify" and not isinstance(protocol, str):
            raise ValueError("verify jobs need a 'protocol' string")
        if kind == "explain" and not isinstance(fixture, str):
            raise ValueError("explain jobs need a 'fixture' string")
        raw_params = payload.get("params") or {}
        if not isinstance(raw_params, dict):
            raise ValueError("'params' must be a JSON object")
        for key, value in raw_params.items():
            if not isinstance(value, (int, float, str, bool, list, type(None))):
                raise ValueError(f"param {key!r} must be a JSON scalar or array")
        params = tuple(
            (str(k), tuple(v) if isinstance(v, list) else v)
            for k, v in sorted(raw_params.items())
        )
        max_configs = payload.get("max_configs")
        if max_configs is not None and (
            not isinstance(max_configs, int) or max_configs < 1
        ):
            raise ValueError("'max_configs' must be a positive integer")
        jobs = payload.get("jobs")
        if jobs is not None and not isinstance(jobs, int):
            raise ValueError("'jobs' must be an integer")
        ground_truth = payload.get("ground_truth")
        if ground_truth is not None and not isinstance(ground_truth, bool):
            raise ValueError("'ground_truth' must be a boolean")
        return cls(
            kind=kind,
            protocol=protocol,
            fixture=fixture,
            params=params,
            max_configs=max_configs,
            jobs=jobs,
            fail_fast=bool(payload.get("fail_fast", False)),
            ground_truth=ground_truth,
        )

    def as_payload(self) -> dict:
        """The canonical JSON object (journal records, status endpoint)."""
        payload: Dict[str, object] = {"kind": self.kind}
        if self.protocol is not None:
            payload["protocol"] = self.protocol
        if self.fixture is not None:
            payload["fixture"] = self.fixture
        if self.params:
            payload["params"] = {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in self.params
            }
        if self.max_configs is not None:
            payload["max_configs"] = self.max_configs
        if self.jobs is not None:
            payload["jobs"] = self.jobs
        if self.fail_fast:
            payload["fail_fast"] = True
        if self.ground_truth is not None:
            payload["ground_truth"] = self.ground_truth
        return payload

    @property
    def fingerprint(self) -> str:
        """Content hash of the canonical request — the identity that
        names the checkpoint directory and guards journal records."""
        canon = json.dumps(self.as_payload(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        if self.kind == "verify":
            return f"verify {self.protocol}"
        if self.kind == "explain":
            return f"explain {self.fixture}"
        return "table1"


@dataclass
class Job:
    """One admitted job and everything the status endpoint reports."""

    id: str
    request: JobRequest
    status: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[dict] = None
    error: Optional[str] = None
    attempts: int = 0

    @property
    def fingerprint(self) -> str:
        return self.request.fingerprint

    @property
    def elapsed(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def summary(self) -> dict:
        payload: Dict[str, object] = {
            "id": self.id,
            "kind": self.request.kind,
            "describe": self.request.describe(),
            "status": self.status,
            "fingerprint": self.fingerprint,
            "submitted_at": self.submitted_at,
            "attempts": self.attempts,
        }
        if self.started_at is not None:
            payload["started_at"] = self.started_at
        if self.finished_at is not None:
            payload["finished_at"] = self.finished_at
            payload["elapsed_seconds"] = round(self.elapsed or 0.0, 6)
        if self.error is not None:
            payload["error"] = self.error
        return payload

    def detail(self) -> dict:
        payload = self.summary()
        payload["request"] = self.request.as_payload()
        if self.result is not None:
            payload["result"] = self.result
        return payload


class JobStore:
    """Append-only journal of job lifecycle events.

    Layout: line 1 a schema header, then one record per event —
    ``submitted`` (carries the full request), ``started``, ``finished``
    (carries the result payload), ``interrupted``. :meth:`load` folds
    the events newest-wins into per-job state; jobs whose latest event
    is not ``finished`` are the restart backlog.

    Disk faults degrade, never abort: a failed append counts in
    ``write_errors`` and closes the handle, and the *next* record
    retries a reopen (a long-lived daemon should resume journaling once
    disk pressure clears). Reopening repairs an
    unterminated tail (the torn half-record a failed append may have
    left) by appending a newline, so the damaged line is isolated
    instead of fusing with the next record.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._handle = None
        self._opened = False
        #: Failed appends, each degraded to a lost journal record (the
        #: in-memory job state is unaffected; /healthz surfaces these).
        self.write_errors = 0

    # -------------------------------------------------------------- #
    # Loading
    # -------------------------------------------------------------- #

    @classmethod
    def load(cls, path) -> Tuple[List[Job], List[dict]]:
        """Replay a journal into ``(jobs, raw_events)``, in submit order.

        Raises :class:`StaleJobStoreError` when the header is missing or
        belongs to another schema. Undecodable lines and records whose
        embedded request no longer matches their recorded fingerprint
        are dropped *individually* — every record carries its own
        fingerprint guard, so a line torn by a mid-file disk fault (or a
        hand-edit) only loses itself, never the jobs journaled after it.
        """
        path = Path(path)
        raw_lines = path.read_bytes().splitlines()
        if not raw_lines:
            raise StaleJobStoreError(f"{path}: empty job journal (no header)")
        try:
            header = json.loads(raw_lines[0].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StaleJobStoreError(f"{path}: unreadable header: {exc}") from exc
        if not isinstance(header, dict) or header.get("schema") != JOBS_SCHEMA:
            raise StaleJobStoreError(
                f"{path}: not a job journal (schema "
                f"{header.get('schema') if isinstance(header, dict) else None!r})"
            )
        jobs: Dict[str, Job] = {}
        order: List[str] = []
        events: List[dict] = []
        for raw in raw_lines[1:]:
            try:
                record = json.loads(raw.decode("utf-8"))
                event = record["event"]
                job_id = record["id"]
            except Exception:
                continue  # torn/damaged line: drop it, records are
                # individually fingerprint-guarded below
            if event == "submitted":
                try:
                    request = JobRequest.from_payload(record["request"])
                except (KeyError, ValueError):
                    continue
                if request.fingerprint != record.get("fingerprint"):
                    continue  # corrupt or tampered record: drop it
                job = Job(
                    id=job_id,
                    request=request,
                    submitted_at=float(record.get("at", 0.0)),
                )
                jobs[job_id] = job
                order.append(job_id)
            else:
                job = jobs.get(job_id)
                if job is None:
                    continue
                if record.get("fingerprint") != job.fingerprint:
                    continue
                if event == "started":
                    job.status = "running"
                    job.started_at = float(record.get("at", 0.0))
                    job.attempts = int(record.get("attempts", job.attempts + 1))
                elif event == "finished":
                    job.status = str(record.get("status", "done"))
                    job.finished_at = float(record.get("at", 0.0))
                    job.result = record.get("result")
                    job.error = record.get("error")
                elif event == "interrupted":
                    job.status = "interrupted"
            events.append(record)
        return [jobs[job_id] for job_id in order], events

    # -------------------------------------------------------------- #
    # Appending
    # -------------------------------------------------------------- #

    def open(self, fresh: bool = False) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        mode = "w" if fresh or not self.path.exists() else "a"
        if mode == "a":
            self._repair_tail()
        self._handle = open(self.path, mode, encoding="utf-8")
        self._opened = True
        if mode == "w":
            self._append({"schema": JOBS_SCHEMA})
            self.sync()

    def _repair_tail(self) -> None:
        """Terminate an unterminated final line (torn by a failed append)
        so the next record starts on its own line. Best-effort."""
        try:
            with open(self.path, "rb+") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() == 0:
                    return
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
        except OSError:
            pass

    def record(self, event: str, job: Job, **extra) -> bool:
        """Append one lifecycle event; False when the disk refused it.

        A failed write closes the handle; the next call retries a
        reopen, so journaling resumes once transient disk pressure
        (ENOSPC, EIO) clears.
        """
        payload: Dict[str, object] = {
            "event": event,
            "id": job.id,
            "fingerprint": job.fingerprint,
            "at": time.time(),
        }
        if event == "submitted":
            payload["request"] = job.request.as_payload()
        if event == "started":
            payload["attempts"] = job.attempts
        if event == "finished":
            payload["status"] = job.status
            payload["result"] = job.result
            if job.error is not None:
                payload["error"] = job.error
        payload.update(extra)
        try:
            if self._handle is None:
                if not self._opened:
                    raise RuntimeError("job store is closed")
                self.open()
            self._append(payload)
            if event in ("finished", "interrupted"):
                self.sync()
            else:
                self._handle.flush()
        except OSError:
            self.write_errors += 1
            self._close_quietly()
            return False
        return True

    def _append(self, payload: dict) -> None:
        if self._handle is None:
            raise RuntimeError("job store is closed")
        text = json.dumps(payload) + "\n"
        mode = faults.maybe_fs_fault("jobs.append")
        if mode is not None:
            if mode == "torn":
                try:
                    self._handle.write(text[: max(1, len(text) // 2)])
                    self._handle.flush()
                except OSError:
                    pass
            raise faults.fs_error(mode, str(self.path))
        self._handle.write(text)

    def sync(self) -> None:
        if self._handle is None:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def _close_quietly(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def close(self) -> None:
        if self._handle is not None:
            try:
                self.sync()
            except OSError:
                self.write_errors += 1
            self._close_quietly()

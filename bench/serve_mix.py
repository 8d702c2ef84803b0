"""The serve workload: a sandboxed daemon under a closed-loop request mix.

The daemon is started the way a user starts it,
``python -m repro serve --sandbox --port 0 --state DIR``. One
closed-loop client submits a job and waits on its ``/jobs/<id>/events``
stream, so it never spins while the daemon works, then submits the next.
(A second client thread made four busy threads and processes contend for
two CPUs, and the latency tail measured that contention.) One iteration
is a round of as many jobs as the sandbox runs between recycles (read
from ``/healthz``), a seeded shuffle of the request kinds; a round ends
when its last job reaches a terminal status. Every round so holds
exactly one sandbox respawn and the re-warming after it, and rounds are
alike. CPU per round is the daemon's and its sandbox workers', read from
``/proc``. A round's wall time leaves out the host-speed calibrations
(``measure.py``) the client takes between its jobs.

Round trips are summarised per request kind. The kinds' round trips form
separate clusters (pingpong about 8 ms, twophase about 85 ms), so the
median over the whole mix would fall in the gap between two clusters and
jump with the mix's exact make-up. ``rtt_s_p50`` is instead each kind's
median round trip, combined over the kinds by geometric mean, so every
kind weighs alike. ``rtt_s_tail`` is the tail over all round trips (see
``measure.tail``); it falls among the jobs that re-warm the sandbox
after each recycle.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import geometric_mean, median
from typing import Dict, List, Optional

import answers
import measure

SETUP_REPEATS = 3
#: Jobs between two calibrations of the host's speed (``measure.py``).
CALIBRATE_EVERY = 8
TERMINAL = {"done", "failed", "crashed", "interrupted"}
HTTP_TIMEOUT = 120.0


class Daemon:
    """One ``repro serve`` process, its own session, output to a file."""

    def __init__(self, state_dir: Path):
        state_dir.mkdir(parents=True, exist_ok=True)
        self.log_path = state_dir / "daemon.log"
        env = dict(os.environ, PYTHONPATH=str(measure.SRC))
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "--sandbox",
                    "--port", "0", "--state", str(state_dir / "state"),
                ],
                cwd=measure.ROOT,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        try:
            self.host, self.port = self._wait_listening(
                deadline=time.perf_counter() + 60
            )
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self, deadline: float):
        pattern = re.compile(rb"listening on http://([^:\s]+):(\d+)")
        while time.perf_counter() < deadline:
            found = pattern.search(self.log_path.read_bytes())
            if found:
                return found.group(1).decode(), int(found.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(
            "daemon did not start: " + self.log_path.read_text(errors="replace")[-2000:]
        )

    def stop(self) -> None:
        """SIGTERM (drain), then kill whatever is left of its session."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()

    def cpu_seconds(self) -> float:
        """CPU of the daemon, its live descendants, and reaped ones."""
        stats = _proc_stats()
        tree = {self.proc.pid}
        grew = True
        while grew:
            grew = False
            for pid, (ppid, _cpu) in stats.items():
                if ppid in tree and pid not in tree:
                    tree.add(pid)
                    grew = True
        ticks = sum(stats[pid][1] for pid in tree if pid in stats)
        return ticks / os.sysconf("SC_CLK_TCK")

    def healthz(self) -> dict:
        status, body = _request(self.host, self.port, "GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz returned {status}")
        return body


def _proc_stats() -> Dict[int, tuple]:
    """pid -> (ppid, utime + stime + cutime + cstime in clock ticks)."""
    out = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                raw = handle.read()
        except OSError:
            continue
        fields = raw[raw.rfind(b")") + 2:].split()
        out[int(entry)] = (int(fields[1]), sum(int(x) for x in fields[11:15]))
    return out


def _request(host, port, method, path, payload=None):
    conn = http.client.HTTPConnection(host, port, timeout=HTTP_TIMEOUT)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"null")
    finally:
        conn.close()


def run_job(host: str, port: int, kind: str, detail: bool) -> dict:
    """Submit one job, follow its event stream to a terminal status."""
    t0 = time.time()
    sample = {"kind": kind, "problem": None, "t0": t0}
    status, body = _request(host, port, "POST", "/jobs", answers.SERVE_REQUESTS[kind])
    if status != 202:
        sample["problem"] = f"{kind}: POST /jobs returned {status}"
        sample["rtt_s"] = time.time() - t0
        return sample
    job_id = body["job"]["id"]
    conn = http.client.HTTPConnection(host, port, timeout=HTTP_TIMEOUT)
    result = None
    final = None
    try:
        conn.request("GET", f"/jobs/{job_id}/events")
        resp = conn.getresponse()
        if resp.status != 200:
            sample["problem"] = f"{kind}: events returned {resp.status}"
        event = None
        for raw in resp:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("event: "):
                event = line[7:]
            elif line.startswith("data: "):
                data = json.loads(line[6:])
                if event == "status" and data.get("status") in TERMINAL:
                    final = data["status"]
                    sample["done_at"] = time.time()
                elif event == "result":
                    result = data
    finally:
        conn.close()
    sample["rtt_s"] = sample.get("done_at", time.time()) - t0
    if sample["problem"] is None:
        if final != "done":
            sample["problem"] = f"{kind}: job ended {final}"
        else:
            sample["problem"] = answers.check_serve(kind, result)
    if isinstance(result, dict):
        sample["obligations"] = result.get("obligations") or {}
        timings = result.get("timings")
        if timings is not None:
            sample["worker_s"] = sum(timings.values())
    if detail:
        status, job = _request(host, port, "GET", f"/jobs/{job_id}")
        if status == 200 and job.get("finished_at") is not None:
            for key in ("submitted_at", "started_at", "finished_at"):
                sample[key] = job[key]
            # The four stages are consecutive: admission ends when the
            # daemon stamps the job submitted, just before its 202 reply.
            sample["admit_s"] = job["submitted_at"] - t0
            sample["queue_wait_s"] = job["started_at"] - job["submitted_at"]
            sample["exec_s"] = job["finished_at"] - job["started_at"]
            sample["notify_s"] = sample["done_at"] - job["finished_at"]
    return sample


def _round(daemon: Daemon, kinds: List[str], detail: bool) -> tuple:
    """Run ``kinds`` one after another, each to its terminal status,
    calibrating the host's speed before every ``CALIBRATE_EVERY``-th
    job. Returns the samples and the seconds spent calibrating."""
    samples: List[dict] = []
    calibrating = 0.0
    for index, kind in enumerate(kinds):
        if index % CALIBRATE_EVERY == 0:
            calibrating += measure.calibrate()
        try:
            sample = run_job(daemon.host, daemon.port, kind, detail)
        except Exception as exc:  # one bad reply must not stop the round
            sample = {"kind": kind, "problem": f"{kind}: {exc!r}"}
        samples.append(sample)
    return samples, calibrating


def _boot(workdir: Path, rep: int) -> tuple:
    """Boot a daemon and run one warm-up job per request kind."""
    started = time.perf_counter()
    daemon = Daemon(workdir / f"daemon-{rep}")
    try:
        warmup = [run_job(daemon.host, daemon.port, kind, False) for kind in answers.SERVE_REQUESTS]
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - started, warmup


def _phase(daemon, rng, seconds, detail, round_jobs):
    walls, cpus, jobs = [], [], []
    started = time.perf_counter()
    copies = -(-round_jobs // len(answers.SERVE_REQUESTS))
    while measure.another_iteration(started, walls, seconds):
        kinds = list(answers.SERVE_REQUESTS) * copies
        rng.shuffle(kinds)
        kinds = kinds[:round_jobs]
        cpu0 = daemon.cpu_seconds()
        t0 = time.perf_counter()
        samples, calibrating = _round(daemon, kinds, detail)
        walls.append(time.perf_counter() - t0 - calibrating)
        for sample in samples:
            sample["round"] = len(walls) - 1
        cpus.append(daemon.cpu_seconds() - cpu0)
        jobs.extend(samples)
    return {"walls": walls, "cpus": cpus, "jobs": jobs}


def run(seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    workdir = Path(workdir)
    rng = random.Random(seed)
    setups: List[float] = []
    warm_samples: List[dict] = []
    daemon: Optional[Daemon] = None
    try:
        for rep in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
                daemon = None
            measure.calibrate(2)
            daemon, elapsed, warmup = _boot(workdir, rep)
            setups.append(elapsed)
            warm_samples.extend(warmup)
        sandbox = daemon.healthz()["sandbox"]
        spawns0 = sandbox["spawns"]
        round_jobs = sandbox["limits"]["recycle_after"]
        if trace:
            plain = _phase(daemon, rng, seconds / 2, False, round_jobs)
            traced = _phase(daemon, rng, seconds / 2, True, round_jobs)
        else:
            plain = _phase(daemon, rng, seconds, False, round_jobs)
            traced = None
        spawns = daemon.healthz()["sandbox"]["spawns"] - spawns0
    finally:
        if daemon is not None:
            daemon.stop()
    phases = [plain] + ([traced] if traced else [])
    all_jobs = warm_samples + [j for p in phases for j in p["jobs"]]
    problems = [j["problem"] for j in all_jobs if j.get("problem")]
    timed = [j for j in plain["jobs"] if "rtt_s" in j]
    factor = measure.speed_factor()
    kind_p50 = _kind_medians(timed)
    rtt_tail, rtt_pct, rtt_n = measure.tail([j["rtt_s"] for j in timed])
    timings = measure.summarize_timings(plain["walls"], plain["cpus"], factor)
    end_to_end = {
        "setup_s": median(setups) * factor,
        "iter_s_p50": timings["iter_s_p50"],
        "iter_s_tail": timings["iter_s_tail"],
        "cpu_s_p50": timings["cpu_s_p50"],
        "peak_rss_mb": measure.peak_rss_mb(),
        "rtt_s_p50": geometric_mean(kind_p50.values()) * factor,
        "rtt_s_tail": rtt_tail * factor,
        "jobs_per_s": sum(not j.get("problem") for j in plain["jobs"])
        / timings["scaled_total_s"],
    }
    detail = {
        "iterations": timings["iterations"],
        "iter_tail_percentile": timings["iter_tail_percentile"],
        "raw_iter_s_p50": timings["raw_iter_s_p50"],
        "raw_cpu_s_p50": timings["raw_cpu_s_p50"],
        "raw_rtt_s_p50_by_kind": kind_p50,
        "raw_rtt_s_tail": rtt_tail,
        "rtt_samples": rtt_n,
        "rtt_tail_percentile": rtt_pct,
        "speed_factor": factor,
        "calibrations": len(measure.CALIBRATIONS),
        "round_jobs": round_jobs,
        "setup_samples": setups,
        "sandbox_spawns": spawns,
        "problems": problems[:20],
    }
    layers = _layers(plain, traced, spawns) if traced else None
    return {
        "attempted": len(all_jobs),
        "failed": len(problems),
        "end_to_end": end_to_end,
        "layers": layers,
        "detail": detail,
        "trace": _records(traced["jobs"]) if traced else None,
    }


def _kind_medians(jobs: List[dict]) -> Dict[str, float]:
    """Each request kind's median round trip, in raw seconds."""
    by_kind: Dict[str, List[float]] = {}
    for job in jobs:
        by_kind.setdefault(job["kind"], []).append(job["rtt_s"])
    return {kind: median(values) for kind, values in sorted(by_kind.items())}


def _records(jobs: List[dict]) -> List[dict]:
    """Each traced job as a span with its four stages as children, on
    the wall clock the daemon stamps jobs with."""
    records: List[dict] = []
    for job in jobs:
        if "exec_s" not in job:
            continue
        parent = len(records)
        records.append({"id": parent, "name": "job:" + job["kind"], "start": job["t0"],
                        "end": job["done_at"], "parent": None, "iteration": job["round"]})
        stages = (
            ("serve.admit", job["t0"], job["submitted_at"]),
            ("serve.queue_wait", job["submitted_at"], job["started_at"]),
            ("serve.exec", job["started_at"], job["finished_at"]),
            ("serve.notify", job["finished_at"], job["done_at"]),
        )
        for name, start, end in stages:
            records.append({"id": len(records), "name": name, "start": start,
                            "end": end, "parent": parent, "iteration": job["round"]})
    return records


def _layers(plain, traced, spawns) -> Dict[str, float]:
    jobs = [j for j in traced["jobs"] if "exec_s" in j]

    def med(key: str) -> float:
        values = [j[key] for j in jobs if key in j]
        return median(values) if values else 0.0

    def mean_obligations(key: str) -> float:
        return sum(j.get("obligations", {}).get(key, 0) for j in jobs) / max(1, len(jobs))

    ipc = [j["exec_s"] - j["worker_s"] for j in jobs if "worker_s" in j]
    # The four stages are consecutive and end at the client's completion,
    # so they cover each round trip exactly unless the stamps disagree.
    parts = ("admit_s", "queue_wait_s", "exec_s", "notify_s")
    covered = sum(j[p] for j in jobs for p in parts)
    untraced = median(plain["walls"])
    return {
        "serve.admit_s": med("admit_s"),
        "serve.queue_wait_s": med("queue_wait_s"),
        "serve.exec_s": med("exec_s"),
        "serve.worker_s": med("worker_s"),
        "serve.ipc_s": median(ipc) if ipc else 0.0,
        "serve.notify_s": med("notify_s"),
        "serve.executed": mean_obligations("executed"),
        "serve.resumed": mean_obligations("resumed"),
        "serve.cached": mean_obligations("cached"),
        "serve.sandbox_spawns": spawns,
        "coverage_ratio": covered / sum(j["rtt_s"] for j in jobs) if jobs else 0.0,
        "trace_overhead_pct": 100.0 * (median(traced["walls"]) - untraced) / untraced,
    }

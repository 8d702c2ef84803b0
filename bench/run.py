"""The repository benchmark: three workloads through the public API.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``table1-cold-sym``: ``build_table1(symmetry=True)`` serial, plus the
  seeded fixtures ``broken-broadcast`` and ``stuck-broadcast`` through
  ``ISApplication.check``, against a fresh empty rcache directory per
  iteration;
* ``pool-paxos-r1n2``: ``paxos.verify(rounds=1, num_nodes=2, jobs=nproc)``;
* ``serve-mix``: ``python -m repro serve --sandbox`` under one
  closed-loop client (see ``serve_mix.py``).

The seed orders each iteration's protocols and the serve request
sequence. Every verdict is checked against ``answers.py``. End-to-end
times are seconds at a reference host speed (``measure.py`` says how and
why); the raw medians and the speed factor are in the detail line. The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
(operations that crashed, were inconclusive, disagreed with the answer
table, or got a non-2xx reply) and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer ones with ``--trace 1``. A traced run
first measures half its time untraced, then installs the layer wrappers
(``tracing.py``) for the second half and writes its spans to
``.bench_state/traces/``. The line before it carries the host record and
sample counts.

Exit status: 0 when every verdict matched; 1 on any mismatch; 2 when
the verifier's sources are missing; 3 when the pool workload has fewer
than two effective workers, whose metrics are then "not measured".
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table1-cold-sym", "pool-paxos-r1n2", "serve-mix")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own fresh interpreter."""
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        code = subprocess.call(
            [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=ROOT,
        )
        worst = max(worst, code)
    return worst


def _declared(trace: bool):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def _terminate(signum, _frame):
    # Unwind, so that the daemon is stopped and the work directory removed.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload == "all":
        return _run_all(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: verifier sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        # Fault injection and cache overrides would change the program.
        del os.environ[key]
    declared = _declared(bool(args.trace))

    import measure

    host = measure.host_record()
    measure.STATE.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=measure.STATE)
    try:
        outcome = _run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome is None:
        print(
            json.dumps({"host": host, "workload": args.workload,
                        "not_measured": "fewer than 2 effective pool workers"})
        )
        print(json.dumps({
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": {m["name"]: {"value": "not measured", "unit": m["unit"]}
                        for m in declared},
        }))
        return 3

    values = outcome["layers"] if args.trace else outcome["end_to_end"]
    values = dict(values or {})
    if outcome["trace"] is not None:
        traces = measure.STATE / "traces"
        traces.mkdir(exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(span) + "\n" for span in outcome["trace"])
        outcome["detail"]["trace_file"] = str(path.relative_to(ROOT))
    attempted, failed = outcome["attempted"], outcome["failed"]
    values["error_ratio"] = failed / attempted
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    for name, entry in metrics.items():
        print(f"{name:<28} {entry['value']:>14.6g} {entry['unit']}", file=sys.stderr)
    print(json.dumps({"host": host, "workload": args.workload, "seed": args.seed,
                      **outcome["detail"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if failed == 0 else 1


def _run_workload(args, workdir):
    if args.workload == "serve-mix":
        import serve_mix

        return serve_mix.run(args.seed, args.seconds, bool(args.trace), workdir)
    import batch

    if args.workload == "pool-paxos-r1n2":
        workload = batch.PoolPaxos()
        if workload.workers < 2:
            return None
    else:
        workload = batch.Table1Sweep()
    return batch.run(workload, args.seed, args.seconds, bool(args.trace), workdir)


if __name__ == "__main__":
    sys.exit(main())

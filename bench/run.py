"""Benchmark command: one workload per invocation, each in fresh processes.

    python3 bench/run.py --workload solve --seed 1 --seconds 15 --trace 0

Runs ``worker.py`` three times one after another: twice to time set-up
alone, once to set up and then time whole rounds of the workload.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
``setup_s`` is the median of the three set-up times, each measured from
the start of a fresh process to the moment it is ready to time its
first operation.  Exits non-zero, printing no result, if a worker fails
or the whole command would take longer than :data:`BUDGET_S`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("solve", "variation", "equidist", "certify")
SETUP_SAMPLES = 3
BUDGET_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(args, setup_only, deadline):
    """Run one worker to its end; return (set-up seconds, its stdout lines)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.time()
    proc = subprocess.Popen(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker ran past the time budget")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = out.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("READY ")]
    if not ready:
        raise WorkerError("worker never reported READY")
    return ready[0] - started, [line for line in lines if not line.startswith("READY ")]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    deadline = time.monotonic() + BUDGET_S
    try:
        # a traced run reports no setup_s, so it times set-up only once
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [run_worker(args, True, deadline)[0] for _ in range(extra)]
        setup, lines = run_worker(args, False, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    results = [line for line in lines if line.startswith("RESULT ")]
    if not results:
        print("benchmark failed: worker printed no result", file=sys.stderr)
        return 1
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    result = json.loads(results[-1][len("RESULT "):])
    print(f"setup_s samples: {[round(s, 4) for s in setups]}")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

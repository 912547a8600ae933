"""One workload in one fresh process: set up, then time whole rounds.

Started by ``run.py``.  Prints ``READY <epoch seconds>`` when set-up
(``import geonets``, input generation and warm-up) is done; with
``--setup-only`` it exits there.  Otherwise it repeats the workload's
round until ``--seconds`` have passed and at least :data:`MIN_COMPLETED`
operations have completed, then prints ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: completed operations a run needs so that ten samples lie beyond its p90
MIN_COMPLETED = 100


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import geonets
    if Path(geonets.__file__).resolve().parent != ROOT / "src" / "geonets":
        raise ImportError(f"geonets imported from {geonets.__file__}, not from {ROOT / 'src'}")


def _blas_info():
    """OpenBLAS build and thread-pool size as numpy loaded them."""
    import numpy as np
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    config = getattr(handle, f"{prefix}_get_config{suffix}")
                    threads = getattr(handle, f"{prefix}_get_num_threads{suffix}")
                except AttributeError:
                    continue
                config.restype = ctypes.c_char_p
                return f"{config().decode()}, {threads()} threads"
    return "OpenBLAS not found"


def run_rounds(ops, seconds, tracer=None):
    """Time every operation of whole rounds; return the run's tallies."""
    from workloads import KnownFault

    times, faults, wrong, rounds = [], Counter(), [], []
    attempted = 0
    t0 = time.perf_counter()
    while True:
        round_start, round_cpu, done = time.perf_counter(), time.process_time(), len(times)
        for op in ops:
            if tracer is not None:
                tracer.op_id = attempted
            attempted += 1
            start = time.perf_counter()
            try:
                op.run()
            except KnownFault as exc:
                faults[exc.label] += 1
                continue
            except Exception as exc:      # a wrong result or an unexpected error
                faults[f"unexpected:{op.kind}"] += 1
                wrong.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - start)
        now = time.perf_counter()
        rounds.append({"seconds": now - round_start, "completed": len(times) - done,
                       "cpu": time.process_time() - round_cpu})
        if now - t0 >= seconds and len(times) >= MIN_COMPLETED:
            break
    return {"times": times, "faults": faults, "wrong": wrong, "attempted": attempted,
            "rounds": rounds, "elapsed": now - t0}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    _import_library()
    import workloads
    workload = workloads.build(args.workload, args.seed)
    workload.warm_up()
    print(f"READY {time.time():.6f}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    tally = run_rounds(workload.ops, args.seconds, tracer)
    times, rounds = tally["times"], tally["rounds"]
    print(f"workload {args.workload} seed {args.seed}: {len(workload.ops)} ops per round, "
          f"{len(rounds)} rounds, {tally['attempted']} attempted, {len(times)} completed "
          f"in {tally['elapsed']:.2f} s; blas: {_blas_info()}; cpus: {os.cpu_count()}")
    print("round seconds: " + " ".join(f"{r['seconds']:.3f}" for r in rounds))
    print(f"failed by fault: {json.dumps(dict(tally['faults']))}")
    for line in sorted(set(tally["wrong"])):
        print(f"WRONG {line}")
    # rates are medians over rounds, so a slow spell of the host moves one
    # round rather than the whole figure
    ops_per_s = statistics.median(r["completed"] / r["seconds"] for r in rounds)
    if tracer is not None:
        print(f"traced ops_per_s: {ops_per_s:.6f}")
        tracer.save(HERE / "out" / f"trace-{args.workload}.npz")
        metrics = tracer.layer_metrics(len(rounds))
    else:
        deciles = statistics.quantiles(times, n=10)
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_s_p50": {"value": statistics.median(times), "unit": "s"},
            "op_s_p90": {"value": deciles[-1], "unit": "s"},
            "cpu_s_per_op": {"value": statistics.median(r["cpu"] / len(workload.ops)
                                                        for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    result = {"correct": not tally["wrong"], "attempted": tally["attempted"],
              "failed": sum(tally["faults"].values()), "metrics": metrics}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

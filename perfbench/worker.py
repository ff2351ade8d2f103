"""One benchmark run of one workload, in a fresh process started by run.py.

Prints one JSON object as its last stdout line: set-up time, per-pass wall
times and named timings, operations attempted and failed, the input and
machine record, and (traced runs) the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def machine_record() -> dict:
    import numpy
    import scipy
    from scipy.optimize._highspy import _core as highs

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}.{highs.HIGHS_VERSION_PATCH}",
        "thread_pinning": {var: os.environ.get(var) for var in PINNED_THREADS},
    }


def timed_pass(workload):
    """One pass, then its checks (outside the timed region)."""
    start = time.perf_counter()
    res = workload.run_pass()
    wall = time.perf_counter() - start
    try:
        workload.check_pass(res)
    except Exception as exc:  # noqa: BLE001 - malformed output is a failed check
        res.op(False, f"checking the pass raised {exc!r}")
    res.raw = {}
    return res, wall


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="caller's time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="directory for instance files and traces")
    args = parser.parse_args()

    import divsel.cli  # noqa: F401 - imports every layer, as the CLI does
    import tracing
    import workloads

    out_dir = Path(args.out)
    workdir = out_dir / f"work-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install("setup")
        try:
            workload.setup()
        finally:
            if tracer:
                tracer.uninstall()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, workload, tracer, setup_s, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, tracer, setup_s: float, out_dir: Path) -> int:
    import layers

    start = time.perf_counter()
    untraced_wall = None
    if tracer:
        # The same pass once without spans, for trace.overhead_s and the
        # traced-equals-untraced check.
        baseline, untraced_wall = timed_pass(workload)
    passes = []
    while True:
        if tracer:
            tracer.install(f"pass{len(passes)}")
        try:
            passes.append(timed_pass(workload))
        finally:
            if tracer:
                tracer.uninstall()
        if len(passes) == 1:
            # One CLI call runs one pass; later passes only add allocator
            # fragmentation, and how many run depends on the program's speed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - start >= args.seconds:
            break

    first = passes[0][0]
    checked = [res for res, _ in passes] + ([baseline] if tracer else [])
    attempted = sum(res.attempted for res in checked)
    failures = [f for res in checked for f in res.failures]
    # Each comparison below is one more operation.
    ops = [(res.outputs == first.outputs, f"pass {k} output differs from pass 0")
           for k, (res, _) in enumerate(passes[1:], start=1)]
    if tracer:
        ops.append((baseline.outputs == first.outputs, "traced pass output differs from the untraced pass"))
    try:
        errors = workload.check_reference(first)
    except Exception as exc:  # noqa: BLE001 - a crash in the program is a failed check
        errors = [f"raised {exc!r}"]
    ops.append((not errors, f"reference check: {errors[:5]}"))
    attempted += len(ops)
    failures += [detail for ok, detail in ops if not ok]

    named: dict[str, list] = {}
    for key in first.timings:
        values = [res.timings[key] for res, _ in passes]
        named[key] = [statistics.median(values), "s", len(values)]
    for key in first.samples:
        values = [v for res, _ in passes for v in res.samples[key]]
        q = statistics.quantiles(values, n=100)
        named[f"{key}_p50_ms"] = [statistics.median(values) * 1e3, "ms", len(values)]
        named[f"{key}_p99_ms"] = [q[98] * 1e3, "ms", len(values)]

    record = {"input": workload.record(), "machine": machine_record()}
    result = {
        "setup_s": setup_s,
        "pass_walls": [wall for _, wall in passes],
        "named": named,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "record": record,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        # Outside every pass: tracemalloc would slow the traced solve_int.
        alloc = workload.alloc_probe() if hasattr(workload, "alloc_probe") else 0.0
        per_pass = []
        for k, (_, wall) in enumerate(passes):
            extra = {
                "generators.type_share": record["input"]["type_share"],
                "trace.overhead_s": wall - untraced_wall,
                "benchmark.solve_int.alloc_peak_mb": alloc,
            }
            ids = tracer.spans_of({"setup", f"pass{k}"})
            per_pass.append(layers.compute(tracer.spans, ids, extra))
        result["layers"] = {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""divsel benchmark: run one workload (or all three) and print its metrics.

    python3 perfbench/run.py --workload families --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25 [--trace 1]

Run from the root of a checkout.  Each run starts fresh worker processes
(worker.py) one after another, with BLAS/OpenMP pinned to one thread:
set-up-only workers that time set-up again, then the worker that measures.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Lines before it name every metric with
its unit and sample count.  The exit code is non-zero when an operation
failed or the program could not be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("families", "random-verify", "online-stream")
#: Fresh processes whose set-up time is measured per run (median reported).
SETUP_SAMPLES = 5
#: Every run, set-up probes included, must end within this many seconds.
RUN_LIMIT_S = 170.0

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class RunError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool, deadline: float) -> dict:
    """Start one worker, wait for it and return its JSON result."""
    env = dict(os.environ, **PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--t0", repr(t0), "--out", str(OUT)]
    if setup_only:
        argv.append("--setup-only")
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise RunError(f"{workload} worker exceeded the run time limit") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(workload, seed, seconds, 0, True, deadline)["setup_s"])
    main = spawn(workload, seed, seconds, trace, False, deadline)
    setups.append(main["setup_s"])
    main["setup_samples"] = setups
    return main


def end_to_end(res: dict) -> dict[str, tuple[float, str, int]]:
    """The metrics every workload reports, which BENCHMARK.json gates."""
    walls = res["pass_walls"]
    return {
        "setup_s": (statistics.median(res["setup_samples"]), "s", len(res["setup_samples"])),
        "pass_s": (statistics.median(walls), "s", len(walls)),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
    }


def report_lines(workload: str, res: dict, trace: int) -> list[str]:
    lines = [f"# {workload} input {json.dumps(res['record']['input'], sort_keys=True)}",
             f"# {workload} machine {json.dumps(res['record']['machine'], sort_keys=True)}"]
    if trace:
        import layers

        for metric, unit, moves, where in layers.LAYER_METRICS:
            lines.append(f"{workload} {metric} = {res['layers'][metric]:.6g} {unit}"
                         f"  [moves {moves} on {where}]")
    else:
        # Plus the workload's own metrics, named as in the issue.
        metrics = {**end_to_end(res), **res["named"]}
        share = res["failed"] / res["attempted"]
        metrics["fail_share"] = (share, "share", res["attempted"])
        for name, (value, unit, samples) in metrics.items():
            lines.append(f"{workload} {name} = {value:.6g} {unit} (n={samples})")
    lines += [f"{workload} FAILED: {f}" for f in res["failures"]]
    return lines


def metrics_json(res: dict, trace: int) -> dict:
    if trace:
        import layers

        return {m: {"value": res["layers"][m], "unit": unit} for m, unit, *_ in layers.LAYER_METRICS}
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in end_to_end(res).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "divsel" / "__init__.py").is_file():
        print(f"error: no divsel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.all else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace)
        except RunError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(report_lines(name, res, args.trace)), flush=True)
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=1), encoding="utf-8")
        attempted += res["attempted"]
        failed += res["failed"]
        for metric, value in metrics_json(res, args.trace).items():
            metrics[f"{name}/{metric}" if args.all else metric] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""msshadow benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload ks_c08 --seed 5 --seconds 35 --trace 0

Run from the repository root.  Every run starts fresh worker processes
with BLAS threads pinned to 1.  The first SETUP_SAMPLES - 1 workers only
set up and exit; the last one also runs the closed loop (see worker.py)
over a job list fixed by the workload, --seed and --seconds.
Set-up time is the median over all of them, from process start to
msshadow imported, config loaded and system built.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1.  The line before it holds the details: seeds,
sample counts, failed fraction, iterations, sensitivities and the
environment.  The exit code is non-zero, with no result line, when the
program cannot be run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60.0
# No job starts after CAP_FACTOR * --seconds + CAP_SLACK_S: the jobs left
# count as failed.  The worker is killed KILL_GRACE_S after that.
CAP_FACTOR = 2.0
CAP_SLACK_S = 10.0
KILL_GRACE_S = 70.0


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(argv):
    """Start a worker and wait for READY; returns (process, set-up seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + argv, cwd=ROOT,
                            env=child_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker failed to set up (exit code {proc.returncode})")
    return proc, elapsed


def finish(proc, command, timeout):
    """Send the worker its command and wait for it; kill it on timeout."""
    try:
        return proc.communicate(command, timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from None


def run_worker(argv, cap):
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, elapsed = start_worker(argv)
        setup.append(elapsed)
        finish(proc, "exit\n", SETUP_TIMEOUT_S)
    proc, elapsed = start_worker(argv)
    setup.append(elapsed)
    out = finish(proc, "run\n", cap + KILL_GRACE_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1]), setup


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="msshadow benchmark run")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload config's seed)")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the tiny test-suite sizes (Lorenz T=5, KS N=31)")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")

    seed_label = "default" if args.seed is None else args.seed
    out = ROOT / ".bench_runs" / f"{args.workload}_seed{seed_label}_trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cap = CAP_FACTOR * args.seconds + CAP_SLACK_S
    worker_argv = ["--workload", args.workload, "--seconds", str(args.seconds),
                   "--cap", str(cap), "--trace", str(args.trace), "--out", str(out)]
    if args.seed is not None:
        worker_argv += ["--seed", str(args.seed)]
    if args.size == "smoke":
        worker_argv.append("--smoke")
    try:
        record, setup = run_worker(worker_argv, cap)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        specs = bench["per_layer"]
        values = record["layers"]
    else:
        specs = bench["end_to_end"]
        values = {
            "request_s": statistics.median(record["request_times"]),
            "run_s": statistics.median(record["job_times"]),
            "propagator_products": (statistics.median(record["products"])
                                    if record["products"] else 0.0),
            "peak_rss_mb": record["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
    metrics = {s["name"]: {"value": float(values[s["name"]]), "unit": s["unit"]}
               for s in specs}
    details = {
        "workload": args.workload,
        "seed": record["seed"],
        "size": args.size,
        "trace": args.trace,
        "trajectory_seeds": record["seeds"],
        "requests": len(record["request_times"]),
        "request_times": record["request_times"],
        "request_cpu_times": record["request_cpu_times"],
        "jobs": len(record["job_times"]),
        "setup_samples": len(setup),
        "failed_frac": record["failed"] / record["attempted"],
        "failures": record["failures"],
        "iterations": record["iterations"],
        "sensitivities": record["sensitivities"],
        "spans": record.get("spans"),
        "env": record["env"],
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

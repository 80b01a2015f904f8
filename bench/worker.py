"""One benchmark run in a fresh process.

Started by ``run.py``.  The worker sets up (imports msshadow, loads the
workload config, builds the system) and prints ``READY``.  It then
reads one line from stdin: ``exit`` ends it (a set-up sample), ``run``
starts the closed loop.  The loop runs the run's fixed job list (see
``workloads.job_plan``), sending one sensitivity request at a time
through ``xcli.run_experiment``, waiting for it and gating the result.
The time limit is only a safety cap: jobs not started by then count as
failed requests.  The last line of stdout is a JSON record of the run.

With tracing on, each trajectory runs untraced and then traced;
per-layer metrics come from the traced requests, and the median of the
paired time differences is the tracing overhead.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from msshadow import xcli  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, gate, job_overrides, job_plan, load_band  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def stored_bytes(traj):
    """Bytes of the stored trajectory, rhs values and RK4 stages, computed
    from the array sizes."""
    return (traj.states.nbytes + traj.fvals.nbytes
            + sum(s.nbytes for s in traj.stages()))


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def trajectory_key(cfg):
    return (cfg.model, cfg.param, cfg.sigma, cfg.beta, cfg.n, cfg.length,
            cfg.seed, cfg.spin_up, cfg.window, cfg.step)


class Client:
    """Closed-loop client: one request at a time, each waited for."""

    def __init__(self, workload, seed, smoke, out_root):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.band = load_band(workload, smoke)
        self.out_root = out_root
        self.requests = []
        self.jobs = []
        # trajectories seen, apart for untraced and traced requests: a
        # traced job repeats its untraced partner's trajectory on purpose
        self._seen = {False: set(), True: set()}

    def request(self, job, overrides, tracer=None):
        index = len(self.requests)
        out_dir = self.out_root / f"r{index}"
        record = {"job": job, "traced": tracer is not None, "ok": False, "reasons": []}
        if tracer is not None:
            tracer.begin(index)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            cfg = xcli.load_config(str(self.workload.config), overrides)
            result = xcli.run_experiment(cfg, out_dir=out_dir)
        except Exception as exc:  # every failure is counted, never retried
            record["time_s"] = time.perf_counter() - t0
            record["reasons"] = [f"{type(exc).__name__}: {exc}"]
            traceback.print_exc(file=sys.stderr)
            result = None
        else:
            record["time_s"] = time.perf_counter() - t0
        finally:
            record["cpu_s"] = time.process_time() - cpu0
            if tracer is not None:
                tracer.end()
        if result is not None:
            key = trajectory_key(cfg)
            record.update(
                seed=cfg.seed,
                gamma=cfg.gamma,
                repeat=key in self._seen[record["traced"]],
                sensitivity=result.sensitivity,
                iterations=result.report.iterations,
                final_residual=result.report.residuals[-1],
                products=result.ledger.total,
                precond_cost=result.precond_cost,
                stored_bytes=stored_bytes(result.trajectory),
                artifact_bytes=dir_bytes(out_dir),
            )
            self._seen[record["traced"]].add(key)
            record["reasons"] = gate(result, self.band, self.workload.check_kappa)
            record["ok"] = not record["reasons"]
            for reason in record["reasons"]:
                print(f"request {index} failed the gate: {reason}", file=sys.stderr)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.requests.append(record)

    def skip(self, job, count, traced, cap):
        """Record requests that were not started: failures, not drops."""
        for _ in range(count):
            self.requests.append({
                "job": job, "traced": traced, "ok": False,
                "reasons": [f"not started: the run passed its {cap:.0f} s cap"]})

    def run(self, seconds, cap, trace):
        tracer = tracing.Tracer() if trace else None
        start = time.perf_counter()
        plan = job_plan(self.workload, self.seed, seconds, trace)
        for job, (trajectory_seed, traced) in enumerate(plan):
            requests = job_overrides(self.workload, trajectory_seed, self.smoke)
            if time.perf_counter() - start > cap:
                self.skip(job, len(requests), traced, cap)
                continue
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                for overrides in requests:
                    self.request(job, overrides, tracer if traced else None)
            finally:
                if traced:
                    tracer.remove()
            self.jobs.append({"time_s": time.perf_counter() - t0, "traced": traced})
        return tracer


def median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def tracing_overhead(requests):
    """Median of traced minus untraced time over the requests of paired
    jobs: in a traced run, job 2i + 1 is job 2i again, traced."""
    times = {}
    for r in requests:
        if "time_s" in r:
            times.setdefault(r["job"], []).append(r["time_s"])
    return median_or_zero(
        t - u for job in times if job % 2
        for t, u in zip(times[job], times.get(job - 1, [])))


def summarize(client, tracer):
    requests = client.requests
    untraced = [r for r in requests if not r["traced"] and "time_s" in r]
    ok = [r for r in untraced if "products" in r]
    record = {
        "attempted": len(requests),
        "failed": sum(1 for r in requests if not r["ok"]),
        "request_times": [r["time_s"] for r in untraced],
        "request_cpu_times": [r["cpu_s"] for r in untraced],
        "job_times": [j["time_s"] for j in client.jobs if not j["traced"]],
        "products": [r["products"] for r in ok],
        "seeds": sorted({r["seed"] for r in requests if "seed" in r}),
        "iterations": [r["iterations"] for r in ok],
        "sensitivities": [r["sensitivity"] for r in ok],
        "failures": [r["reasons"] for r in requests if not r["ok"]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        # every traced request that ran, failed ones too, as the spans
        # and counters hold all of them
        traced = [r for r in requests if r["traced"] and "time_s" in r]
        layers = tracing.layer_metrics(tracer, traced)
        layers["xcli.cpu_s"] = median_or_zero(r["cpu_s"] for r in untraced)
        layers["xcli.repeat_trajectory_frac"] = (
            sum(1 for r in requests if r.get("repeat")) / len(requests))
        layers["trace.overhead_s"] = tracing_overhead(requests)
        record["layers"] = layers
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--cap", type=float, required=True,
                        help="no job starts after this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    cfg = xcli.load_config(str(workload.config),
                           list(workload.smoke) if args.smoke else [])
    xcli.build_system(cfg)
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0

    seed = workload.default_seed if args.seed is None else args.seed
    out_root = Path(args.out)
    client = Client(workload, seed, args.smoke, out_root / "requests")
    try:
        tracer = client.run(args.seconds, args.cap, bool(args.trace))
    finally:
        shutil.rmtree(out_root / "requests", ignore_errors=True)
    record = summarize(client, tracer)
    record["seed"] = seed
    if tracer is not None:
        spans = out_root / f"spans_{args.workload}_seed{seed}.jsonl"
        tracer.dump(spans)
        record["spans"] = str(spans.relative_to(ROOT))
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

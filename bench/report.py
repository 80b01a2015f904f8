"""Every workload at its default seed and a second seed, side by side.

    python3 bench/report.py                  # end-to-end metrics
    python3 bench/report.py --trace          # plus the traced per-layer run

Each cell is one run of run.py, in its own processes.  A second seed
guards against claims tuned to the default one: iteration counts and
wall time depend on the trajectory.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SECOND_SEED = 11


def run(workload, seed, trace):
    """One run.py run; seed None means the workload's default seed."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed")
    return json.loads(lines[-2]), json.loads(lines[-1])


def table(specs, cells):
    """Metric rows against workload/seed columns."""
    heads = [f"{w}@{s}" for w, s in cells]
    width = max(len(h) for h in heads) + 2
    print(f"{'metric':36s}{'unit':12s}" + "".join(f"{h:>{width}s}" for h in heads))
    for spec in specs:
        row = "".join(f"{cells[c]['metrics'][spec['name']]['value']:>{width}.5g}"
                      for c in cells)
        print(f"{spec['name']:36s}{spec['unit']:12s}{row}")
    row = "".join(f"{str(cells[c]['failed']) + '/' + str(cells[c]['attempted']):>{width}s}"
                  for c in cells)
    print(f"{'failed/attempted':48s}{row}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true",
                        help="also print the per-layer metrics of a traced run")
    args = parser.parse_args()

    modes = [(0, BENCH["end_to_end"])] + ([(1, BENCH["per_layer"])] if args.trace else [])
    for trace, specs in modes:
        cells = {}
        for w in (x["name"] for x in BENCH["workloads"]):
            for seed in (None, SECOND_SEED):
                details, result = run(w, seed, trace)
                seed = details["seed"]
                cells[(w, seed)] = result
                print(f"# {w} seed {seed}: {details['requests']} timed requests, "
                      f"{details['jobs']} jobs, trajectories {details['trajectory_seeds']}, "
                      f"iterations {details['iterations']}", file=sys.stderr)
        print("\nper-layer metrics (traced run)" if trace else "\nend-to-end metrics")
        table(specs, cells)
    print("\nenvironment:", json.dumps(details["env"]))


if __name__ == "__main__":
    main()

"""Checks of the benchmark itself, at the smoke size.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from msshadow import xcli  # noqa: E402
from workloads import WORKLOADS, gate, job_overrides, job_plan, load_band  # noqa: E402
from worker import Client, tracing_overhead  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


def bench_run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def test_workloads_match_benchmark_file():
    assert sorted(WORKLOAD_NAMES) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics_emitted_with_units(workload):
    metrics = result_line(bench_run(workload, 0))["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_per_layer_metrics_emitted_with_units(workload):
    metrics = result_line(bench_run(workload, 1))["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["solver.iterations"] > 0 and value["shadow.schur_calls"] > 0
    assert value["precond.build_products"] > 0
    uses_analysis = workload == "lorenz_conditioning"
    assert (value["analysis.dense_assembly_s"] > 0) == uses_analysis
    assert (value["xcli.repeat_trajectory_frac"] > 0) == (workload == "lorenz_gamma_sweep")


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_job_plan_is_fixed_by_seed_and_seconds(workload):
    w = WORKLOADS[workload]
    plan = job_plan(w, 4, 35, trace=False)
    assert plan == job_plan(w, 4, 35, trace=False)
    assert len(plan) == round(35 / w.job_s)
    seeds = [s for s, traced in plan]
    assert seeds[0] == 4 and len(set(seeds)) == len(seeds)
    assert not any(traced for _, traced in plan)
    traced_plan = job_plan(w, 4, 35, trace=True)
    assert traced_plan[0::2] == [(s, False) for s in seeds[:len(traced_plan) // 2]]
    assert traced_plan[1::2] == [(s, True) for s in seeds[:len(traced_plan) // 2]]


def test_tracing_overhead_pairs_requests_of_the_same_trajectory():
    requests = [{"job": 0, "time_s": 1.0}, {"job": 0, "time_s": 2.0},
                {"job": 1, "time_s": 1.5}, {"job": 1, "time_s": 2.1},
                {"job": 2, "time_s": 9.0}, {"job": 3, "time_s": 9.3}]
    assert tracing_overhead(requests) == pytest.approx(0.3)


def test_jobs_past_the_cap_count_as_failed(tmp_path):
    client = Client(WORKLOADS["lorenz_gamma_sweep"], 3, True, tmp_path)
    client.run(seconds=1, cap=-1.0, trace=False)
    assert len(client.requests) == 3 and not client.jobs
    assert all(not r["ok"] and "cap" in r["reasons"][0] for r in client.requests)


def smoke_result(workload):
    overrides = job_overrides(workload, workload.default_seed, smoke=True)[0]
    cfg = xcli.load_config(str(workload.config), overrides)
    return xcli.run_pipeline(cfg)


def test_gate_rejects_tampered_results():
    workload = WORKLOADS["lorenz_conditioning"]
    band = load_band(workload, smoke=True)
    result = smoke_result(workload)
    assert gate(result, band, check_kappa=True) == []

    moved = replace(result, sensitivity=band[1] + 0.5)
    assert any("sensitivity" in r for r in gate(moved, band, check_kappa=True))

    report = replace(result.report, converged=False,
                     residuals=result.report.residuals[:-1] + [1.0])
    reasons = gate(replace(result, report=report), band, check_kappa=True)
    assert any("converge" in r for r in reasons)
    assert any("residual" in r for r in reasons)

    result.ledger.charge_forward()
    assert any("ledger" in r for r in gate(result, band, check_kappa=True))

    spectra = {"raw": result.spectra["preconditioned"],
               "preconditioned": result.spectra["raw"]}
    assert any("kappa" in r for r in
               gate(replace(result, spectra=spectra), (-9, 9), check_kappa=True))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run("ks_c08", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

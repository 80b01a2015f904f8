"""Benchmark workloads and the per-request correctness gate.

Each workload is an INI file under ``workloads/`` plus a rule for
turning the run's seed into a fixed list of jobs.  A job is the request
sequence a user waits for as a whole: the three gamma values of one
sweep, or a single request.  Every job after the first draws a fresh
trajectory seed from the run's seed, so one run covers several
trajectories and its medians do not hinge on one of them.  How many
jobs a run holds follows from ``--seconds`` and the workload's nominal
job time alone, never from how fast the jobs run, so the same seed and
seconds always give the same trajectories.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from msshadow import precond

HERE = Path(__file__).resolve().parent

_LORENZ_SMOKE = ("model.rho=28.0", "time.spin_up=20.0", "time.window=5.0",
                 "time.step=0.002")
_KS_SMOKE = ("model.n=31", "model.length=32.0", "model.c=0.5",
             "time.spin_up=50.0", "time.window=8.0", "time.segment=2.0",
             "time.step=0.02")


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    band: str
    smoke_band: str
    smoke: tuple
    # wall time of one job on a 2-core Xeon VM, OpenBLAS on one thread
    job_s: float
    # one request per value on a shared trajectory; empty: one request per job
    gammas: tuple = ()
    # the dense spectra must show kappa(preconditioned) <= kappa(raw)
    check_kappa: bool = False

    @property
    def config(self):
        return HERE / "workloads" / f"{self.name}.ini"


WORKLOADS = {
    w.name: w for w in (
        # Primal integration and cross-request sharing: all three requests
        # of a job share spin-up, trajectory, stages, rhs and preconditioner.
        Workload("lorenz_gamma_sweep", 7, "lorenz_rho40", "lorenz_smoke",
                 _LORENZ_SMOKE, 8.0, gammas=(0.05, 0.1, 0.2)),
        # Array-bound Schur sweeps and rank-15 preconditioner build, N = 127;
        # nothing is shared between requests.
        Workload("ks_c08", 5, "ks_c08", "ks_smoke", _KS_SMOKE, 5.0),
        # The only user of analysis: dense column-by-column assembly (forward
        # sweeps only), spectra, Picard table and truncated sweep.
        Workload("lorenz_conditioning", 7, "lorenz_rho40", "lorenz_smoke",
                 _LORENZ_SMOKE + ("time.segment=0.5",), 13.0, check_kappa=True),
    )
}


def load_band(workload, smoke):
    bands = json.loads((HERE / "bands.json").read_text())
    entry = bands[workload.smoke_band if smoke else workload.band]
    return entry["low"], entry["high"]


def job_seed(seed, job):
    """Trajectory seed of the job-th job of a run; job 0 uses the seed itself."""
    if job == 0:
        return seed
    return int(np.random.SeedSequence([seed, job]).generate_state(1)[0])


def job_plan(workload, seed, seconds, trace):
    """(trajectory seed, traced) of every job of a run, in order.

    An untraced run has ``seconds / job_s`` jobs (at least one), each on
    its own trajectory.  A traced run covers half as many trajectories,
    rounded up, each twice: untraced, then traced on the same trajectory,
    so the pair's time difference is the tracing overhead.
    """
    n = max(1, round(seconds / workload.job_s))
    if not trace:
        return [(job_seed(seed, j), False) for j in range(n)]
    return [(job_seed(seed, j // 2), j % 2 == 1) for j in range(2 * -(-n // 2))]


def job_overrides(workload, trajectory_seed, smoke):
    """Config overrides of each request of one job."""
    base = [f"experiment.seed={trajectory_seed}"]
    if smoke:
        base += list(workload.smoke)
    if not workload.gammas:
        return [base]
    return [base + [f"solver.gamma={g!r}"] for g in workload.gammas]


def gate(result, band, check_kappa):
    """Reasons the request fails; empty when it passes.

    A request passes when CG converged to within tol, the cost ledger
    equals the cost model exactly (K rhs products, the preconditioner
    build and the solve as predicted, K recovery products), the
    sensitivity lies inside the reference band and, where asked, the
    preconditioner did not worsen the condition number.
    """
    cfg = result.config
    report = result.report
    reasons = []
    if not report.converged:
        reasons.append(f"CG did not converge in {report.iterations} iterations")
    if not report.residuals[-1] <= cfg.tol:
        reasons.append(f"final residual {report.residuals[-1]:.3g} > tol {cfg.tol:g}")
    k = cfg.n_segments
    cycles = cfg.cycles if cfg.pc_enabled else 0
    expected = 2 * k + sum(precond.predict_costs(k, cycles, cfg.rank,
                                                 report.iterations))
    if result.ledger.total != expected:
        reasons.append(f"ledger total {result.ledger.total} != cost model {expected}")
    low, high = band
    if not low <= result.sensitivity <= high:
        reasons.append(f"sensitivity {result.sensitivity:.6g} outside [{low}, {high}]")
    if check_kappa:
        spectra = result.spectra
        if "raw" not in spectra or "preconditioned" not in spectra:
            reasons.append("spectra missing")
        elif not spectra["preconditioned"].kappa <= spectra["raw"].kappa:
            reasons.append(
                f"kappa(preconditioned) {spectra['preconditioned'].kappa:.4g} > "
                f"kappa(raw) {spectra['raw'].kappa:.4g}")
    return reasons

"""Experiment driver: config parsing, pipeline orchestration, artifacts.

A run is described by a flat INI file (sections: experiment, model,
time, solver, preconditioner, analysis).  The pipeline is: spin-up ->
stored trajectory -> right-hand side -> optional preconditioner build
-> CG solve -> checkpoint recovery -> sensitivity, with per-stage cost
deltas and CSV artifacts.  Fixed seed implies bit-identical outputs.

Exit codes: 0 ok, 2 config error, 3 divergence, 4 non-convergence.
"""

import argparse
import configparser
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import analysis, precond, shadow, solver, timestep
from .dynsys import (
    KuramotoSivashinsky,
    Lorenz,
    LorenzZ,
    SpatialMean,
    SpatialMeanSquare,
)
from .errors import ConfigError, DivergenceError, ShadowingError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_NO_CONVERGENCE = 4

WORKERS_ENV = "MSSHADOW_WORKERS"


@dataclass
class ExperimentConfig:
    model: str = "lorenz"
    name: str = ""
    seed: int = 0
    output_dir: str = "runs/out"
    workers: int = 1
    # model constants
    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    n: int = 127
    length: float = 128.0
    c: float = 0.0
    objective: str = ""
    # time discretisation
    spin_up: float = 100.0
    window: float = 200.0
    segment: float = 1.0
    step: float = 0.002
    # solver
    gamma: float = 0.1
    mode: str = "post"
    tol: float = 1e-5
    max_iter: int = 500
    # preconditioner
    pc_enabled: bool = True
    rank: int = 1
    cycles: int = 2
    # analysis toggles
    spectrum: bool = False
    picard: bool = False
    truncated_sweep: bool = False
    dense_cap: int = 2000

    def __post_init__(self):
        if self.model not in ("lorenz", "ks"):
            raise ConfigError(f"unknown model {self.model!r}")
        if not self.name:
            self.name = self.model
        if not self.objective:
            self.objective = "z" if self.model == "lorenz" else "mean"
        for field_name in ("spin_up", "window", "segment", "step"):
            if getattr(self, field_name) <= 0 and field_name != "spin_up":
                raise ConfigError(f"{field_name} must be positive")
        if self.spin_up < 0:
            raise ConfigError("spin_up must be non-negative")
        k = self.window / self.segment
        if abs(k - round(k)) > 1e-9 or round(k) < 1:
            raise ConfigError(
                f"window {self.window} is not an integer number of "
                f"segments of length {self.segment}"
            )
        stride = self.segment / self.step
        if abs(stride - round(stride)) > 1e-9 or round(stride) < 1:
            raise ConfigError(
                f"segment {self.segment} is not an integer number of "
                f"steps of size {self.step}"
            )
        # the solver's and the integrator's own checks, so that bad input
        # fails here and not after the spin-up
        try:
            if self.spin_up > 0:
                timestep._n_steps(-self.spin_up, 0.0, self.step)
            solver.SolveConfig(tol=self.tol, gamma=self.gamma, mode=self.mode)
            system = build_system(self)
            timestep._check_stable(system, self.step)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        build_objective(self, system)
        if not 1 <= self.rank <= system.dim:
            raise ConfigError(
                f"preconditioner rank {self.rank} is outside [1, {system.dim}]"
            )

    @property
    def n_segments(self):
        return int(round(self.window / self.segment))

    @property
    def stride(self):
        return int(round(self.segment / self.step))

    @property
    def param(self):
        return self.rho if self.model == "lorenz" else self.c

    def with_param(self, value):
        key = "rho" if self.model == "lorenz" else "c"
        return replace(self, **{key: float(value)})


_SCHEMA = {
    "experiment": {"model": str, "name": str, "seed": int,
                   "output_dir": str, "workers": int},
    "model": {"sigma": float, "rho": float, "beta": float, "n": int,
              "length": float, "c": float, "objective": str},
    "time": {"spin_up": float, "window": float, "segment": float,
             "step": float},
    "solver": {"gamma": float, "mode": str, "tol": float, "max_iter": int},
    "preconditioner": {"enabled": bool, "rank": int, "cycles": int},
    "analysis": {"spectrum": bool, "picard": bool, "truncated_sweep": bool,
                 "dense_cap": int},
}

_KEY_RENAMES = {("preconditioner", "enabled"): "pc_enabled"}


def _convert(raw, kind, where):
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {where}: {raw!r}") from exc


def load_config(path, overrides=()):
    """Parse an INI experiment file, apply section.key=value overrides."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            dest = _KEY_RENAMES.get((section, key), key)
            values[dest] = _convert(raw, _SCHEMA[section][key], f"{section}.{key}")
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        address, raw = item.split("=", 1)
        section, key = address.split(".", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown override target {address!r}")
        dest = _KEY_RENAMES.get((section, key), key)
        values[dest] = _convert(raw, _SCHEMA[section][key], address)
    try:
        cfg = ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    env_workers = os.environ.get(WORKERS_ENV)
    if env_workers:
        cfg = replace(cfg, workers=_convert(env_workers, int, WORKERS_ENV))
    return cfg


def build_system(cfg, param=None):
    if cfg.model == "lorenz":
        return Lorenz(cfg.sigma, cfg.rho if param is None else param, cfg.beta)
    return KuramotoSivashinsky(cfg.n, cfg.length, cfg.c if param is None else param)


def build_objective(cfg, system):
    if cfg.model == "lorenz":
        if cfg.objective != "z":
            raise ConfigError(f"unknown Lorenz objective {cfg.objective!r}")
        return LorenzZ()
    if cfg.objective == "mean":
        return SpatialMean(system)
    if cfg.objective == "mean_square":
        return SpatialMeanSquare(system)
    raise ConfigError(f"unknown KS objective {cfg.objective!r}")


def initial_state(cfg, rng):
    if cfg.model == "lorenz":
        return np.array([1.0, 1.0, 1.0]) + 1e-3 * rng.standard_normal(3)
    return rng.uniform(0.0, 1.0, cfg.n)


@dataclass
class RunResult:
    config: ExperimentConfig
    trajectory: object
    rhs: np.ndarray
    multipliers: np.ndarray
    checkpoints: np.ndarray
    preconditioner: object
    report: solver.SolveReport
    sensitivity: float
    j_bar: float
    ledger: shadow.CostLedger
    precond_cost: int
    solve_cost: int
    spectra: dict
    picard: object
    truncated: list
    wall_time: float

    @property
    def total_cost(self):
        return self.precond_cost + self.solve_cost


def run_pipeline(cfg, spectrum_mode=None):
    """Execute the full shadowing pipeline for one configuration."""
    t0 = time.perf_counter()
    system = build_system(cfg)
    objective = build_objective(cfg, system)
    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    rng_ic = np.random.default_rng(seeds[0])
    rng_svd = np.random.default_rng(seeds[1])

    u0 = initial_state(cfg, rng_ic)
    if cfg.spin_up > 0:
        u0 = timestep.advance(system, u0, -cfg.spin_up, 0.0, cfg.step)
    traj = timestep.integrate(system, u0, 0.0, cfg.window, cfg.step,
                              stride=cfg.stride)

    ledger = shadow.CostLedger()
    b = shadow.assemble_rhs(traj, ledger)

    pc = None
    precond_cost = 0
    if cfg.pc_enabled:
        before = ledger.snapshot()
        pc = precond.build_preconditioner(traj, ledger, cfg.rank, cfg.cycles,
                                          rng=rng_svd)
        precond_cost = sum(ledger.delta(before))

    cfg_solve = solver.SolveConfig(tol=cfg.tol, max_iter=cfg.max_iter,
                                   gamma=cfg.gamma, mode=cfg.mode,
                                   preconditioner=pc)
    before = ledger.snapshot()
    w, report = solver.cg_solve(
        lambda z: shadow.schur_apply(traj, ledger, z), b, cfg_solve,
        ledger=ledger,
    )
    solve_cost = sum(ledger.delta(before))

    v = shadow.recover_checkpoints(traj, ledger, w)
    sens = shadow.evaluate_sensitivity(traj, objective, v)
    j_bar = shadow.time_average(traj, objective)

    spectra = {}
    picard_table = None
    truncated = None
    nk = system.dim * traj.n_segments
    if cfg.spectrum or cfg.picard or cfg.truncated_sweep:
        scratch = shadow.CostLedger()
        need_dense = (cfg.picard or cfg.truncated_sweep
                      or (cfg.spectrum and nk <= cfg.dense_cap))
        a = None
        if need_dense:
            a = analysis.dense_constraint_matrix(traj, scratch, cap=cfg.dense_cap)
        if cfg.spectrum:
            mode = spectrum_mode or (
                "dense" if nk <= cfg.dense_cap else "lanczos-extremes"
            )
            if mode == "dense":
                s_dense = a @ a.T
                spectra["raw"] = analysis.spectrum(s_dense, nk, label="raw")
                if pc is not None:
                    spectra["preconditioned"] = analysis.preconditioned_spectrum(
                        s_dense, pc, label="preconditioned")
            else:
                spectra["raw"] = analysis.spectrum(
                    lambda x: shadow.schur_apply(
                        traj, scratch, x.reshape(traj.n_segments, -1)
                    ).reshape(-1),
                    nk, mode="lanczos-extremes", label="raw")
                if pc is not None:
                    spectra["preconditioned"] = analysis.spectrum(
                        lambda x: pc.apply(shadow.schur_apply(
                            traj, scratch, x.reshape(traj.n_segments, -1)
                        )).reshape(-1),
                        nk, mode="lanczos-extremes", label="preconditioned")
        if cfg.picard or cfg.truncated_sweep:
            svd = np.linalg.svd(a, full_matrices=False)
            if cfg.picard:
                picard_table = analysis.picard_data(a, b, svd=svd)
            if cfg.truncated_sweep:
                ranks = sorted(set(
                    np.linspace(1, nk, min(nk, 40)).astype(int).tolist()
                ))
                truncated = analysis.sensitivity_vs_rank(
                    traj, objective, a, b, ranks, svd=svd)

    return RunResult(
        config=cfg, trajectory=traj, rhs=b, multipliers=w, checkpoints=v,
        preconditioner=pc, report=report, sensitivity=float(sens),
        j_bar=float(j_bar), ledger=ledger, precond_cost=precond_cost,
        solve_cost=solve_cost, spectra=spectra, picard=picard_table,
        truncated=truncated, wall_time=time.perf_counter() - t0,
    )


def summarize(result):
    cfg = result.config
    predicted = precond.predict_costs(
        cfg.n_segments, cfg.cycles if cfg.pc_enabled else 0,
        cfg.rank, result.report.iterations)
    before = shadow.products_before_matrices(result.trajectory)
    pc = result.preconditioner
    rows = [
        ("model", cfg.model),
        ("objective", cfg.objective),
        ("seed", cfg.seed),
        ("parameter", f"{cfg.param:.17g}"),
        ("window", f"{cfg.window:.17g}"),
        ("segments", cfg.n_segments),
        ("dimension", 3 if cfg.model == "lorenz" else cfg.n),
        ("step", f"{cfg.step:.17g}"),
        ("gamma", f"{cfg.gamma:.17g}"),
        ("mode", cfg.mode),
        ("pc_enabled", cfg.pc_enabled),
        ("rank", cfg.rank),
        ("cycles", cfg.cycles),
        ("iterations", result.report.iterations),
        ("converged", result.report.converged),
        ("final_residual", f"{result.report.residuals[-1]:.17g}"),
        ("sensitivity", f"{result.sensitivity:.17g}"),
        ("objective_average", f"{result.j_bar:.17g}"),
        ("forward_products", result.ledger.forward),
        ("adjoint_products", result.ledger.adjoint),
        ("precond_cost", result.precond_cost),
        ("solve_cost", result.solve_cost),
        ("predicted_precond_cost", predicted[0] if cfg.pc_enabled else 0),
        ("predicted_solve_cost", predicted[1]),
        ("products_per_segment_before_matrices",
         "" if before is None else f"{before:.17g}"),
        ("lanczos_restarts", "" if pc is None else pc.restarts),
        ("clamped_modes", "" if pc is None else pc.clamped_modes),
    ]
    for key, rep in result.spectra.items():
        rows.append((f"kappa_{key}", f"{rep.kappa:.17g}"))
        rows.append((f"mu_min_{key}", f"{rep.eigenvalues[0]:.17g}"))
        rows.append((f"mu_max_{key}", f"{rep.eigenvalues[-1]:.17g}"))
    return rows


_GNUPLOT = """\
# gnuplot script for run artifacts
set datafile separator ','
set logscale y
set xlabel 'iteration'
set ylabel 'relative residual'
plot '{residuals}' every ::1 using 1:2 with linespoints title 'residual'
"""


def write_artifacts(result, out_dir=None):
    cfg = result.config
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = cfg.name
    analysis.write_csv(out / f"{name}_summary.csv", ["key", "value"],
                       summarize(result))
    result.report.to_csv(out / f"{name}_residuals.csv")
    for key, rep in result.spectra.items():
        rep.to_csv(out / f"{name}_spectrum_{key}.csv")
    if result.picard is not None:
        result.picard.to_csv(out / f"{name}_picard.csv")
    if result.truncated is not None:
        analysis.write_csv(out / f"{name}_truncated.csv",
                           ["rank", "sensitivity"], result.truncated)
    (out / f"{name}_plots.gp").write_text(
        _GNUPLOT.format(residuals=f"{name}_residuals.csv"))
    return out


def run_experiment(cfg, out_dir=None):
    """Pipeline plus artifact emission; returns the RunResult."""
    result = run_pipeline(cfg)
    write_artifacts(result, out_dir)
    return result


def _integrate_average(system, objective, u0, t_start, t_end, h):
    """Trapezoidal time average of the objective along an RK4 path,
    without storing the trajectory.

    ``u0`` is one state (N,) or a batch (m, N) advanced in lockstep;
    each row's average is the one it would get on its own.
    """
    n = timestep._n_steps(t_start, t_end, h)
    u0 = np.asarray(u0, dtype=float)
    acc = 0.5 * objective.value(u0)

    def accumulate(u):
        nonlocal acc
        acc += objective.value(u)

    u = timestep._rk4(system, u0, h, n, on_step=accumulate)
    acc -= 0.5 * objective.value(u)
    return acc * h / (t_end - t_start)


def fd_sample(make_system, make_objective, u0, param, delta, spin_up,
              horizon, h):
    """Central-difference sensitivity estimate from one initial state.

    The +/- runs share the initial state; each spins up at its own
    parameter before averaging over the horizon.  A batch of initial
    states (m, N) gives m estimates, integrated in lockstep.
    """
    averages = []
    for sign in (1.0, -1.0):
        system = make_system(param + sign * delta)
        u = np.asarray(u0, dtype=float)
        if spin_up > 0:
            u = timestep.advance(system, u, -spin_up, 0.0, h)
        averages.append(_integrate_average(
            system, make_objective(system), u, 0.0, horizon, h))
    return (averages[0] - averages[1]) / (2.0 * delta)


def _fd_samples_from_config(args):
    cfg, delta, horizon, seeds = args
    u0 = np.array([initial_state(cfg, np.random.default_rng(seed))
                   for seed in seeds])
    return fd_sample(
        lambda value: build_system(cfg, param=value),
        lambda system: build_objective(cfg, system),
        u0, cfg.param, delta, cfg.spin_up, horizon, cfg.step,
    )


def finite_difference_reference(cfg, delta, n_samples, horizon):
    """Mean and standard error of the central-difference sensitivity
    over seeded random initial conditions.

    The samples are integrated as one batch, or as one batch per worker.
    """
    if delta <= 0:
        raise ConfigError("finite-difference delta must be positive")
    if n_samples < 1:
        raise ConfigError("need at least one sample")
    try:
        timestep._n_steps(0.0, horizon, cfg.step)
    except ValueError as exc:
        raise ConfigError(f"finite-difference horizon: {exc}") from exc
    seeds = np.random.SeedSequence(cfg.seed).spawn(n_samples)
    n_jobs = min(max(cfg.workers, 1), n_samples)
    jobs = [(cfg, delta, horizon, [seeds[i] for i in chunk])
            for chunk in np.array_split(np.arange(n_samples), n_jobs)]
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            samples = np.concatenate(list(pool.map(_fd_samples_from_config, jobs)))
    else:
        samples = _fd_samples_from_config(jobs[0])
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return mean, se, samples


_AXES = {
    "T": ("window", float),
    "N": ("n", int),
    "gamma": ("gamma", float),
    "l": ("rank", int),
    "c": ("c", float),
    "rho": ("rho", float),
}


def _sweep_point(args):
    cfg, axis, value = args
    key, kind = _AXES[axis]
    point = replace(cfg, **{key: kind(value)},
                    name=f"{cfg.name}_{axis}_{value:g}")
    sub = Path(cfg.output_dir) / f"{axis}_{value:g}"
    result = run_experiment(point, out_dir=sub)
    return {
        "value": value,
        "sensitivity": result.sensitivity,
        "iterations": result.report.iterations,
        "converged": result.report.converged,
        "precond_cost": result.precond_cost,
        "solve_cost": result.solve_cost,
        "error": "",
    }


def sweep(cfg, axis, values):
    """Run the pipeline once per axis value and merge the summaries.

    Per-point failures are recorded in the merged table and do not stop
    the sweep.
    """
    if axis not in _AXES:
        raise ConfigError(
            f"unknown sweep axis {axis!r}; expected one of {sorted(_AXES)}")
    if axis in ("c",) and cfg.model != "ks":
        raise ConfigError("axis 'c' applies to the ks model only")
    if axis in ("rho",) and cfg.model != "lorenz":
        raise ConfigError("axis 'rho' applies to the lorenz model only")
    if axis == "N" and cfg.model != "ks":
        raise ConfigError("axis 'N' applies to the ks model only")
    jobs = [(cfg, axis, float(v)) for v in values]
    rows = []
    if cfg.workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(_sweep_point, job) for job in jobs]
            for job, fut in zip(jobs, futures):
                try:
                    rows.append(fut.result())
                except ShadowingError as exc:
                    rows.append({"value": job[2], "sensitivity": "",
                                 "iterations": "", "converged": "",
                                 "precond_cost": "", "solve_cost": "",
                                 "error": str(exc)})
    else:
        for job in jobs:
            try:
                rows.append(_sweep_point(job))
            except ShadowingError as exc:
                rows.append({"value": job[2], "sensitivity": "",
                             "iterations": "", "converged": "",
                             "precond_cost": "", "solve_cost": "",
                             "error": str(exc)})
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = [axis, "sensitivity", "iterations", "converged",
              "precond_cost", "solve_cost", "error"]
    analysis.write_csv(
        out / f"{cfg.name}_sweep_{axis}.csv", header,
        [[row["value"], row["sensitivity"], row["iterations"],
          row["converged"], row["precond_cost"], row["solve_cost"],
          row["error"]] for row in rows],
    )
    return rows


def _add_common(sub):
    sub.add_argument("--config", required=True, help="INI experiment file")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="SECTION.KEY=VALUE",
                     help="override a config entry (repeatable)")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="msshadow",
        description="Shadowing-based sensitivity experiments for chaotic ODEs",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, desc in (
        ("run", "run the full pipeline"),
        ("spectrum", "run the pipeline with spectrum reporting"),
        ("picard", "run the pipeline with the Picard table"),
    ):
        sub = commands.add_parser(name, help=desc)
        _add_common(sub)

    sub = commands.add_parser("sweep", help="repeat the run along one axis")
    _add_common(sub)
    sub.add_argument("--axis", required=True, choices=sorted(_AXES))
    sub.add_argument("--values", required=True,
                     help="comma-separated axis values")

    sub = commands.add_parser("fd-ref",
                              help="finite-difference reference sensitivity")
    _add_common(sub)
    sub.add_argument("--delta", type=float, required=True)
    sub.add_argument("--samples", type=int, default=10)
    sub.add_argument("--horizon", type=float, required=True)

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        if args.command in ("run", "spectrum", "picard"):
            if args.command == "spectrum":
                cfg = replace(cfg, spectrum=True)
            elif args.command == "picard":
                cfg = replace(cfg, picard=True)
            result = run_experiment(cfg)
            print(f"sensitivity = {result.sensitivity:.12g}")
            print(f"iterations = {result.report.iterations}"
                  f" (converged: {result.report.converged})")
            print(f"cost: preconditioner {result.precond_cost}"
                  f" + solve {result.solve_cost}"
                  f" = {result.total_cost} products")
            print(f"wall time {result.wall_time:.2f} s")
            if not result.report.converged:
                return EXIT_NO_CONVERGENCE
            return EXIT_OK
        if args.command == "sweep":
            try:
                values = [float(v) for v in args.values.split(",") if v.strip()]
            except ValueError as exc:
                raise ConfigError(f"bad --values {args.values!r}: {exc}") from exc
            rows = sweep(cfg, args.axis, values)
            failed = [r for r in rows if r["error"]]
            for row in rows:
                print(row)
            return EXIT_NO_CONVERGENCE if failed else EXIT_OK
        if args.command == "fd-ref":
            mean, se, samples = finite_difference_reference(
                cfg, args.delta, args.samples, args.horizon)
            out = Path(cfg.output_dir)
            out.mkdir(parents=True, exist_ok=True)
            analysis.write_csv(
                out / f"{cfg.name}_fd_reference.csv",
                ["sample", "sensitivity"],
                list(enumerate(samples)),
            )
            print(f"finite-difference reference: {mean:.12g} +/- {se:.3g} "
                  f"({args.samples} samples)")
            return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ShadowingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Experiment driver: config parsing, pipeline orchestration, artifacts.

A run is described by a flat INI file (sections: experiment, model,
time, solver, preconditioner, analysis).  The pipeline is prepare then
solve.  ``prepare`` does the work that fixes the trajectory and charges
no products: spin-up -> stored trajectory with its RK4 stages ->
propagator matrices when they fit the memory budget -> the weights of
the sensitivity functional.  ``solve`` does the rest on every request:
right-hand side (with the zero stack's sensitivity) -> optional
preconditioner build -> CG solve -> checkpoint recovery -> sensitivity
as a dot product -> analysis, with per-stage cost deltas and CSV
artifacts.  Fixed seed implies bit-identical outputs.

The module keeps the last prepared Problem, keyed by the config fields
in TRAJECTORY_FIELDS, so requests that differ only in solver settings
(a sweep over gamma or the preconditioner rank) share one trajectory.
On a key miss the kept Problem is dropped before the next one is
prepared, so at most one lives at a time.  Like a CostLedger, the keep
belongs to one process and one thread.

Exit codes: 0 ok, 2 config error, 3 divergence, 4 non-convergence or
any other library error (a ShadowingError or ValueError), reported as
one line on stderr.
"""

import argparse
import configparser
import sys
import time
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


@dataclass
class ExperimentConfig:
    model: str = "lorenz"
    name: str = ""
    seed: int = 0
    output_dir: str = "runs/out"
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
    dense_cap: int = analysis.DENSE_CAP

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not np.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        if self.model not in ("lorenz", "ks"):
            raise ConfigError(f"unknown model {self.model!r}")
        if not self.name:
            self.name = self.model
        if not self.objective:
            self.objective = "z" if self.model == "lorenz" else "mean"
        for field_name in ("window", "segment", "step"):
            if getattr(self, field_name) <= 0:
                raise ConfigError(f"{field_name} must be positive")
        # not through SeedSequence, which would import numpy.random here
        for field_name in ("spin_up", "seed"):
            if getattr(self, field_name) < 0:
                raise ConfigError(f"{field_name} must be non-negative")
        for whole, part, unit in (("window", "segment", "segments of length"),
                                  ("segment", "step", "steps of size")):
            ratio = getattr(self, whole) / getattr(self, part)
            if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                raise ConfigError(
                    f"{whole} {getattr(self, whole)} is not an integer number "
                    f"of {unit} {getattr(self, part)}")
        # the solver's and the integrator's own checks, so that bad input
        # fails here and not after the spin-up
        try:
            if self.spin_up > 0:
                timestep._n_steps(-self.spin_up, 0.0, self.step)
            solver.SolveConfig(tol=self.tol, max_iter=self.max_iter,
                               gamma=self.gamma, mode=self.mode)
            system = build_system(self)
            timestep._check_stable(system, self.step)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        build_objective(self, system)
        if not 1 <= self.rank <= system.dim:
            raise ConfigError(
                f"preconditioner rank {self.rank} is outside [1, {system.dim}]"
            )
        if self.cycles < 1:
            raise ConfigError("preconditioner cycles must be at least 1")
        # a spectrum past the cap takes the Lanczos route; these need S
        if ((self.picard or self.truncated_sweep)
                and system.dim * self.n_segments > self.dense_cap):
            raise ConfigError("Picard table and truncated sweep need N*K <= "
                              f"analysis.dense_cap {self.dense_cap}")

    @property
    def n_segments(self):
        return int(round(self.window / self.segment))

    @property
    def stride(self):
        return int(round(self.segment / self.step))

    @property
    def param(self):
        return self.rho if self.model == "lorenz" else self.c


# the keys of each config section; a key sets the ExperimentConfig field
# of its name, or of its _KEY_RENAMES entry, parsed to that field's type
_SCHEMA = {
    "experiment": ("model", "name", "seed", "output_dir"),
    "model": ("sigma", "rho", "beta", "n", "length", "c", "objective"),
    "time": ("spin_up", "window", "segment", "step"),
    "solver": ("gamma", "mode", "tol", "max_iter"),
    "preconditioner": ("enabled", "rank", "cycles"),
    "analysis": ("spectrum", "picard", "truncated_sweep", "dense_cap"),
}

_KEY_RENAMES = {("preconditioner", "enabled"): "pc_enabled"}

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _convert(section, key, raw):
    """(field name, value) of the entry section.key = raw."""
    dest = _KEY_RENAMES.get((section, key), key)
    kind = _FIELD_TYPES[dest]
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return dest, True
            if lowered in ("0", "false", "no", "off"):
                return dest, False
            raise ValueError(raw)
        return dest, kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc


def load_config(path, overrides=()):
    """Parse an INI experiment file, apply section.key=value overrides."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # no section header, a duplicate key
        raise ConfigError(str(exc).splitlines()[0]) from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    entries = []
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            entries.append((section, key, raw))
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        address, raw = item.split("=", 1)
        section, key = address.split(".", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown override target {address!r}")
        entries.append((section, key, raw))
    values = dict(_convert(*entry) for entry in entries)
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


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
    """One request's outputs.

    ``wall_time`` covers prepare and solve; a request that reused the
    kept Problem (``trajectory_reused``) covers its solve only.
    ``analysis_route`` names the route of its spectra, Picard table and
    truncated curve: ``band`` (analysis.band_route), ``dense``,
    ``lanczos`` (extreme eigenvalues past the cap) or ``off``.
    """

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
    trajectory_reused: bool
    analysis_route: str

    @property
    def total_cost(self):
        return self.precond_cost + self.solve_cost


def _rng(cfg, stream):
    """A generator on one of the seed's two streams: 0 draws the initial
    state, 1 the preconditioner's start vectors.  Each solve draws
    stream 1 afresh, so a reused trajectory gets the same preconditioner
    as a new one."""
    return np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[stream])


# the config fields that fix the trajectory and the sensitivity
# functional kept with it; every other field only steers the solve, its
# analysis or its artifacts
TRAJECTORY_FIELDS = ("model", "sigma", "rho", "beta", "n", "length", "c",
                     "objective", "seed", "spin_up", "window", "segment",
                     "step")


@dataclass
class Problem:
    """The trajectory side of a request, which charges no products: the
    stored trajectory (it carries its system) with its RK4 stages, its
    propagator matrices when they fit shadow's memory budget, the
    objective, and the (K+1, N) weights of the objective's sensitivity
    functional (shadow.sensitivity_functional).

    ``prepare_s`` is the wall time prepare spent on it for this request,
    0 when it was ``reused`` from the kept one; ``prepare_parts`` splits
    it into the wall time of the spin-up, the stored integration with
    its stages, the matrix build and the functional, all 0 when reused.
    """

    trajectory: object
    objective: object
    functional: np.ndarray
    prepare_s: float
    prepare_parts: dict
    reused: bool = False


# (key, Problem) of the last prepare, or None
_kept = None


def drop_problem():
    """Forget the kept Problem, so that the next prepare starts cold."""
    global _kept
    _kept = None


def prepare(cfg):
    """The Problem of cfg's trajectory: the kept one when its key
    matches, else a new one, which replaces it.

    On a miss the kept Problem is dropped before the new one is built,
    so two never live at once (the caller's own references aside).  A
    prepare that raises leaves no Problem kept.
    """
    global _kept
    key = tuple(getattr(cfg, name) for name in TRAJECTORY_FIELDS)
    if _kept is not None and _kept[0] == key:
        parts = dict.fromkeys(_kept[1].prepare_parts, 0.0)
        return replace(_kept[1], prepare_s=0.0, prepare_parts=parts,
                       reused=True)
    drop_problem()
    t0 = time.perf_counter()
    system = build_system(cfg)
    u0 = initial_state(cfg, _rng(cfg, 0))
    parts = {}
    t = time.perf_counter()
    if cfg.spin_up > 0:
        u0 = timestep.advance(system, u0, -cfg.spin_up, 0.0, cfg.step)
    parts["spin_up_s"], t = time.perf_counter() - t, time.perf_counter()
    traj = timestep.integrate(system, u0, 0.0, cfg.window, cfg.step,
                              stride=cfg.stride)
    traj.stages()
    parts["integrate_s"], t = time.perf_counter() - t, time.perf_counter()
    objective = build_objective(cfg, system)
    shadow.build_matrices(traj)
    parts["matrices_s"], t = time.perf_counter() - t, time.perf_counter()
    functional = shadow.sensitivity_functional(traj, objective)
    parts["functional_s"] = time.perf_counter() - t
    problem = Problem(trajectory=traj, objective=objective,
                      functional=functional,
                      prepare_s=time.perf_counter() - t0,
                      prepare_parts=parts)
    _kept = (key, problem)
    return problem


def solve(problem, cfg):
    """The ledgered part of a request on a prepared trajectory: rhs,
    optional preconditioner, CG, checkpoint recovery, sensitivity and
    analysis, all redone on every call.  The sensitivity is s0 + <a, v>
    / T, s0 from the rhs sweep and a the problem's functional, so it
    runs no sweep of its own.  ``cfg`` must agree with the problem's
    config in TRAJECTORY_FIELDS."""
    t0 = time.perf_counter()
    traj = problem.trajectory
    system = traj.system
    objective = problem.objective

    ledger = shadow.CostLedger()
    b, s0 = shadow.assemble_rhs(traj, ledger, objective)

    pc = None
    precond_cost = 0
    if cfg.pc_enabled:
        before = ledger.snapshot()
        pc = precond.build_preconditioner(traj, ledger, cfg.rank, cfg.cycles,
                                          rng=_rng(cfg, 1))
        precond_cost = sum(ledger.delta(before))

    cfg_solve = solver.SolveConfig(tol=cfg.tol, max_iter=cfg.max_iter,
                                   gamma=cfg.gamma, mode=cfg.mode,
                                   preconditioner=pc)
    before = ledger.snapshot()
    w, report = solver.cg_solve(
        lambda z: shadow.schur_apply(traj, ledger, z), b, cfg_solve)
    solve_cost = sum(ledger.delta(before))

    v = shadow.recover_checkpoints(traj, ledger, w)
    sens = s0 + (problem.functional * v).sum() / traj.span
    j_bar = shadow.time_average(traj, objective)

    spectra = {}
    picard_table = None
    truncated = None
    route = "off"
    nk = system.dim * traj.n_segments
    scratch = shadow.CostLedger()
    if (cfg.spectrum or cfg.picard or cfg.truncated_sweep) and nk <= cfg.dense_cap:
        # the band route forms neither U nor a dense (N K)^2 array; the
        # dense route's eigh of S, the analysis' peak, holds about four
        band = analysis.band_route(system.dim, traj.n_segments)
        route = "band" if band else "dense"
        s_mat = analysis.dense_constraint_matrix(
            traj, scratch, cap=cfg.dense_cap, normal=True, band=band)
        y = None
        if cfg.picard or cfg.truncated_sweep:
            y = analysis.modal_inputs(traj, b, problem.functional)
        modes, eigs, pre = analysis.conditioning(
            s_mat, y, pc if cfg.spectrum else None, band=band)
        if cfg.picard:
            picard_table = analysis.picard_data(modes)
        if cfg.truncated_sweep:
            ranks = sorted(set(
                np.linspace(1, nk, min(nk, 40)).astype(int).tolist()
            ))
            truncated = analysis.sensitivity_vs_rank(modes, ranks, s0,
                                                     traj.span)
        if cfg.spectrum:
            spectra["raw"] = analysis.SpectrumReport.dense("raw", eigs)
            if pre is not None:
                spectra["preconditioned"] = analysis.SpectrumReport.dense(
                    "preconditioned", pre)
    elif cfg.spectrum:
        route = "lanczos"
        # M^1/2 S M^1/2, similar to M S, keeps the operator symmetric
        def schur(x):
            return shadow.schur_apply(traj, scratch,
                                      x.reshape(traj.n_segments, -1)).reshape(-1)
        spectra["raw"] = analysis.spectrum(schur, nk, label="raw")
        if pc is not None:
            spectra["preconditioned"] = analysis.spectrum(
                lambda x: pc.apply_sqrt(schur(pc.apply_sqrt(x))),
                nk, label="preconditioned")

    return RunResult(
        config=cfg, trajectory=traj, rhs=b, multipliers=w, checkpoints=v,
        preconditioner=pc, report=report, sensitivity=float(sens),
        j_bar=float(j_bar), ledger=ledger, precond_cost=precond_cost,
        solve_cost=solve_cost, spectra=spectra, picard=picard_table,
        truncated=truncated, analysis_route=route,
        wall_time=problem.prepare_s + time.perf_counter() - t0,
        trajectory_reused=problem.reused,
    )


def run_pipeline(cfg):
    """Execute the full shadowing pipeline for one configuration."""
    return solve(prepare(cfg), cfg)


def summarize(result):
    cfg = result.config
    predicted = precond.predict_costs(
        cfg.n_segments, cfg.cycles if cfg.pc_enabled else 0,
        cfg.rank, result.report.iterations, result.trajectory.system.dim)
    pc = result.preconditioner
    rows = [
        ("model", cfg.model),
        ("objective", cfg.objective),
        ("seed", cfg.seed),
        ("parameter", f"{cfg.param:.17g}"),
        ("window", f"{cfg.window:.17g}"),
        ("segments", cfg.n_segments),
        ("dimension", result.trajectory.system.dim),
        ("step", f"{cfg.step:.17g}"),
        ("gamma", f"{cfg.gamma:.17g}"),
        ("mode", cfg.mode),
        ("pc_enabled", cfg.pc_enabled),
        ("rank", cfg.rank),
        ("cycles", cfg.cycles),
        ("iterations", result.report.iterations),
        ("converged", result.report.converged),
        ("final_residual", f"{result.report.residuals[-1]:.17g}"),
        ("unregularized_residual",
         f"{result.report.unregularized_residual:.17g}"),
        ("sensitivity", f"{result.sensitivity:.17g}"),
        ("objective_average", f"{result.j_bar:.17g}"),
        ("forward_products", result.ledger.forward),
        ("adjoint_products", result.ledger.adjoint),
        ("precond_cost", result.precond_cost),
        ("solve_cost", result.solve_cost),
        ("predicted_precond_cost", predicted[0] if cfg.pc_enabled else 0),
        ("predicted_solve_cost", predicted[1]),
        ("propagator_matrices", result.trajectory._propagators is not None),
        ("clamped_modes", "" if pc is None else pc.clamped_modes),
        ("trajectory_reused", result.trajectory_reused),
        ("primal_loop", result.trajectory.primal_loop),
        ("analysis_route", result.analysis_route),
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

    ``u0`` is one state (N,) or a batch (m, N) advanced in lockstep by
    the primal loop (in C for Lorenz's and KS's own models); each row's
    average is the one it would get on its own.  The path is stepped in
    chunks, each stored in one table whose values are added to the
    running sum in step order.
    """
    n = timestep._n_steps(t_start, t_end, h)
    u = np.asarray(u0, dtype=float)
    acc = 0.5 * objective.value(u)
    for j0, g in timestep._chunks(n, u.size):
        states = np.empty((g + 1, *u.shape))
        try:
            u = timestep._rk4(system, u, h, g, states=states)
        except DivergenceError as exc:
            raise DivergenceError(j0 + exc.step) from None
        acc = timestep._add_in_order(acc, objective.value(states[1:]))
    acc -= 0.5 * objective.value(u)
    return acc * h / (t_end - t_start)


def fd_sample(make_system, make_objective, u0, param, delta, spin_up,
              horizon, h):
    """Central-difference sensitivity estimate from one initial state.

    The +/- runs share the initial state; each spins up at its own
    parameter before averaging over the horizon.  A batch of initial
    states (m, N) gives m estimates, integrated in lockstep: each row
    gets the estimate it gets on its own.  A horizon that is no multiple
    of h raises ValueError before any step.
    """
    timestep._n_steps(0.0, horizon, h)
    averages = []
    for sign in (1.0, -1.0):
        system = make_system(param + sign * delta)
        u = np.asarray(u0, dtype=float)
        if spin_up > 0:
            u = timestep.advance(system, u, -spin_up, 0.0, h)
        averages.append(_integrate_average(system, make_objective(system), u,
                                           0.0, horizon, h))
    return (averages[0] - averages[1]) / (2.0 * delta)


def finite_difference_reference(cfg, delta, n_samples, horizon):
    """Mean and standard error of the central-difference sensitivity
    over seeded random initial conditions (see fd_sample)."""
    if not 0 < delta < np.inf:
        raise ConfigError("finite-difference delta must be finite and > 0")
    if n_samples < 1:
        raise ConfigError("need at least one sample")
    try:
        timestep._n_steps(0.0, horizon, cfg.step)
    except ValueError as exc:
        raise ConfigError(f"finite-difference horizon: {exc}") from exc
    u0 = np.array([initial_state(cfg, np.random.default_rng(seed))
                   for seed in np.random.SeedSequence(cfg.seed).spawn(n_samples)])
    samples = fd_sample(
        lambda value: build_system(cfg, param=value),
        lambda system: build_objective(cfg, system),
        u0, cfg.param, delta, cfg.spin_up, horizon, cfg.step,
    )
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


# the merged sweep table's columns after the axis value
_SWEEP_COLUMNS = ("sensitivity", "iterations", "converged", "precond_cost",
                  "solve_cost", "error")


def sweep(cfg, axis, values):
    """Run the pipeline once per axis value and merge the summaries.

    Per-point failures are recorded in the merged table and do not stop
    the sweep.
    """
    if axis not in _AXES:
        raise ConfigError(
            f"unknown sweep axis {axis!r}; expected one of {sorted(_AXES)}")
    model = {"c": "ks", "N": "ks", "rho": "lorenz"}.get(axis, cfg.model)
    if cfg.model != model:
        raise ConfigError(f"axis {axis!r} applies to the {model} model only")
    key, kind = _AXES[axis]
    rows = []
    for value in map(float, values):
        # replace is inside the try: a point's ConfigError is its row
        try:
            if kind is int and not value.is_integer():
                raise ConfigError(f"{axis} takes whole numbers, not {value:g}")
            point = replace(cfg, **{key: kind(value)},
                            name=f"{cfg.name}_{axis}_{value:g}")
            result = run_experiment(
                point, out_dir=Path(cfg.output_dir) / f"{axis}_{value:g}")
            rows.append({
                "value": value,
                "sensitivity": result.sensitivity,
                "iterations": result.report.iterations,
                "converged": result.report.converged,
                "precond_cost": result.precond_cost,
                "solve_cost": result.solve_cost,
                "error": "",
            })
        except ShadowingError as exc:
            rows.append({"value": value, **dict.fromkeys(_SWEEP_COLUMNS, ""),
                         "error": str(exc)})
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    analysis.write_csv(
        out / f"{cfg.name}_sweep_{axis}.csv", [axis, *_SWEEP_COLUMNS],
        [[row["value"], *(row[c] for c in _SWEEP_COLUMNS)] for row in rows],
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
            if args.command != "run":
                cfg = replace(cfg, **{args.command: True})
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
            if not values:
                raise ConfigError(f"--values {args.values!r} lists no value")
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
    except (ShadowingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

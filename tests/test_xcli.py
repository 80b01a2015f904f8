import dataclasses
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import msshadow as ms
from msshadow import analysis, shadow, timestep, xcli
from msshadow.errors import ConfigError, DivergenceError

LORENZ_INI = """\
[experiment]
model = lorenz
name = tiny
seed = 11
output_dir = {out}

[model]
rho = 28.0

[time]
spin_up = 5.0
window = 4.0
segment = 1.0
step = 0.002

[solver]
gamma = 0.05
mode = pre
tol = 1e-6
max_iter = 300

[preconditioner]
enabled = true
rank = 1
cycles = 2
"""


@pytest.fixture
def lorenz_ini(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(LORENZ_INI.format(out=tmp_path / "out"))
    return path


class TestConfig:
    def test_parse(self, lorenz_ini):
        cfg = xcli.load_config(lorenz_ini)
        assert cfg.model == "lorenz"
        assert cfg.n_segments == 4
        assert cfg.stride == 500
        assert cfg.mode == "pre"
        assert cfg.param == 28.0

    def test_overrides(self, lorenz_ini):
        cfg = xcli.load_config(lorenz_ini, ["solver.gamma=0.2", "model.rho=40"])
        assert cfg.gamma == 0.2
        assert cfg.rho == 40.0

    @pytest.mark.parametrize("text", ["[model]\nwhatever = 3\n",
                                      "[experiment]\nworkers = 2\n"],
                             ids=["model", "workers"])
    def test_unknown_key_rejected(self, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError):
            xcli.load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[nonsense]\na = 1\n")
        with pytest.raises(ConfigError):
            xcli.load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            xcli.load_config(tmp_path / "absent.ini")

    def test_non_integer_segment_count(self, lorenz_ini):
        with pytest.raises(ConfigError):
            xcli.load_config(lorenz_ini, ["time.segment=0.9"])

    def test_bad_override_shape(self, lorenz_ini):
        with pytest.raises(ConfigError):
            xcli.load_config(lorenz_ini, ["gamma:0.2"])

    def test_bad_model(self):
        with pytest.raises(ConfigError):
            xcli.ExperimentConfig(model="henon")

    def test_param_switch(self):
        cfg = xcli.ExperimentConfig(model="ks", c=0.4, window=100.0,
                                    segment=10.0, step=0.02)
        assert cfg.param == 0.4
        assert cfg.with_param(0.9).c == 0.9


class LinearRelax(ms.DynamicalSystem):
    """du/dt = -(u - s): long-time average of u equals s exactly."""

    def __init__(self, s):
        self.dim = 1
        self._s = float(s)

    @property
    def param(self):
        return self._s

    def with_param(self, value):
        return LinearRelax(value)

    def rhs(self, u):
        return self._s - u

    def jacobian_apply(self, u, v):
        return -v

    def jacobian_transpose_apply(self, u, w):
        return -w

    def param_deriv(self, u):
        return np.ones_like(u)


class StateObjective(ms.Objective):
    def value(self, u):
        return u[..., 0]

    def gradient(self, u):
        return np.ones_like(u)


class TestFiniteDifferenceReference:
    def test_linear_model_exact_derivative(self):
        # after spin-up the transient is gone and dJbar/ds = 1 exactly;
        # central differences of a linear-in-s model have no bias
        got = xcli.fd_sample(
            lambda s: LinearRelax(s), lambda system: StateObjective(),
            np.array([0.7]), param=2.0, delta=0.5, spin_up=30.0,
            horizon=10.0, h=0.01)
        assert got == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("model", ["lorenz", "ks"])
    def test_batch_matches_single_states(self, model):
        # a batch of initial states gives each row the estimate it gets
        # on its own, bit for bit
        if model == "lorenz":
            make, param = (lambda s: ms.Lorenz(rho=s)), 28.0
            objective = lambda system: ms.LorenzZ()
            u0 = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.001],
                           [-2.0, 0.5, 20.0]])
            h = 0.002
        else:
            make, param = (lambda s: ms.KuramotoSivashinsky(15, 16.0, s)), 0.5
            objective = ms.SpatialMean
            u0 = np.random.default_rng(8).uniform(0.0, 1.0, (3, 15))
            h = 0.02
        batch = xcli.fd_sample(make, objective, u0, param, 0.1, 2.0, 4.0, h)
        single = [xcli.fd_sample(make, objective, u, param, 0.1, 2.0, 4.0, h)
                  for u in u0]
        assert np.array_equal(batch, single)

    def test_reference_statistics(self, lorenz_ini):
        cfg = xcli.load_config(lorenz_ini)
        mean, se, samples = xcli.finite_difference_reference(
            cfg, delta=1.0, n_samples=3, horizon=20.0)
        assert len(samples) == 3
        assert se >= 0.0
        assert np.isfinite(mean)

    def test_bad_delta(self, lorenz_ini):
        cfg = xcli.load_config(lorenz_ini)
        with pytest.raises(ConfigError):
            xcli.finite_difference_reference(cfg, delta=0.0, n_samples=2,
                                             horizon=5.0)


def _forbid_integration(monkeypatch):
    def integration_started(*args, **kwargs):
        raise AssertionError("integration started")

    monkeypatch.setattr(xcli.timestep, "advance", integration_started)
    monkeypatch.setattr(xcli.timestep, "integrate", integration_started)
    monkeypatch.setattr(xcli, "_integrate_average", integration_started)


def _unregularized_residual_gap(result):
    """(||b - S w|| / ||b|| applied afresh, its distance from the summary
    row); also checks the row against the report and that the request
    ledger reads K + the cost model + K exactly."""
    cfg, traj = result.config, result.trajectory
    b, w = result.rhs, result.multipliers
    direct = (np.linalg.norm(b - ms.schur_apply(traj, ms.CostLedger(), w))
              / np.linalg.norm(b))
    got = float(dict(xcli.summarize(result))["unregularized_residual"])
    assert got == result.report.unregularized_residual
    k = cfg.n_segments
    predicted = ms.predict_costs(k, cfg.cycles if cfg.pc_enabled else 0,
                                 cfg.rank, result.report.iterations)
    assert (result.ledger.forward + result.ledger.adjoint
            == k + sum(predicted) + k)
    return direct, abs(got - direct)


class TestRunExperiment:
    def test_artifacts_and_summary(self, lorenz_ini, tmp_path):
        cfg = xcli.load_config(lorenz_ini)
        result = xcli.run_experiment(cfg)
        out = tmp_path / "out"
        assert (out / "tiny_summary.csv").exists()
        assert (out / "tiny_residuals.csv").exists()
        assert (out / "tiny_plots.gp").exists()
        assert result.report.converged
        summary = dict(
            line.split(",", 1)
            for line in (out / "tiny_summary.csv").read_text().splitlines()[1:]
        )
        assert int(summary["precond_cost"]) == int(
            summary["predicted_precond_cost"])
        assert int(summary["solve_cost"]) == int(summary["predicted_solve_cost"])
        assert summary["converged"] == "True"

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_summary_predicts_charged_precond_cost(self, lorenz_ini, rank):
        # the Lanczos subspace l + 2 is capped at N = 3, so every rank
        # charges 2 K q N = 2 * 4 * 2 * 3 products
        result = xcli.run_pipeline(xcli.load_config(
            lorenz_ini, [f"preconditioner.rank={rank}"]))
        summary = dict(xcli.summarize(result))
        assert summary["dimension"] == 3
        assert result.precond_cost == 48
        assert summary["predicted_precond_cost"] == 48

    def test_summary_reports_propagator_matrices(self, lorenz_ini,
                                                 monkeypatch):
        # a Lorenz trajectory builds its propagator matrices at its first
        # product; a KS one whose matrices exceed the memory budget never
        # does, and solves end to end on matrix-free sweeps
        result = xcli.run_pipeline(xcli.load_config(lorenz_ini))
        assert dict(xcli.summarize(result))["propagator_matrices"] is True
        cfg = xcli.ExperimentConfig(
            model="ks", n=63, length=64.0, c=0.5, spin_up=2.0, window=2.0,
            segment=0.2, step=0.02, rank=2, cycles=1, max_iter=20)
        monkeypatch.setattr(shadow, "_MATRIX_BUDGET", 63 * 63 * 10 - 1)
        result = xcli.run_pipeline(cfg)
        assert result.trajectory._propagators is None
        assert dict(xcli.summarize(result))["propagator_matrices"] is False

    def test_summary_reports_numerical_health(self, lorenz_ini):
        # projected off the flow, a Lorenz propagator has rank N - 1 = 2,
        # so a Lanczos subspace of l + 2 = 3 restarts once per segment,
        # and retaining all 3 modes clamps the third in every block
        for overrides, expected in (
                ([], ("4", "0")),
                (["preconditioner.rank=3"], ("4", "4")),
                (["preconditioner.enabled=false"], ("", ""))):
            cfg = xcli.load_config(lorenz_ini, overrides)
            summary = dict(xcli.summarize(xcli.run_pipeline(cfg)))
            assert (str(summary["lanczos_restarts"]),
                    str(summary["clamped_modes"])) == expected

    def test_deterministic_outputs(self, lorenz_ini, tmp_path):
        # two cold runs give the same bytes; a warm third run on the kept
        # Problem differs from them only in its trajectory_reused row
        cfg = xcli.load_config(lorenz_ini)
        xcli.run_experiment(cfg, out_dir=tmp_path / "r1")
        xcli.drop_problem()
        xcli.run_experiment(cfg, out_dir=tmp_path / "r2")
        xcli.run_experiment(cfg, out_dir=tmp_path / "r3")
        for name in ("tiny_summary.csv", "tiny_residuals.csv"):
            assert ((tmp_path / "r1" / name).read_bytes()
                    == (tmp_path / "r2" / name).read_bytes())
        assert ((tmp_path / "r3" / "tiny_residuals.csv").read_bytes()
                == (tmp_path / "r2" / "tiny_residuals.csv").read_bytes())
        cold = (tmp_path / "r2" / "tiny_summary.csv").read_bytes()
        warm = (tmp_path / "r3" / "tiny_summary.csv").read_bytes()
        assert b"trajectory_reused,False" in cold
        assert warm == cold.replace(b"trajectory_reused,False",
                                    b"trajectory_reused,True")

    def test_spectrum_and_picard_artifacts(self, lorenz_ini, tmp_path):
        cfg = xcli.load_config(
            lorenz_ini,
            ["analysis.spectrum=true", "analysis.picard=true",
             "analysis.truncated_sweep=true"])
        result = xcli.run_experiment(cfg, out_dir=tmp_path / "an")
        assert (tmp_path / "an" / "tiny_spectrum_raw.csv").exists()
        assert (tmp_path / "an" / "tiny_spectrum_preconditioned.csv").exists()
        assert (tmp_path / "an" / "tiny_picard.csv").exists()
        assert (tmp_path / "an" / "tiny_truncated.csv").exists()
        assert result.spectra["raw"].kappa > 1.0

    def test_preconditioned_spectrum_honours_dense_cap(self, lorenz_ini):
        # N*K = 2100 lies past the default cap of 2000 but under the
        # configured one, so both dense spectra are computed in full
        cfg = xcli.load_config(
            lorenz_ini,
            ["analysis.spectrum=true", "analysis.dense_cap=3000",
             "time.window=7", "time.segment=0.01"])
        assert cfg.n_segments == 700
        result = xcli.run_pipeline(cfg)
        for label in ("raw", "preconditioned"):
            assert result.spectra[label].mode == "dense"
            assert result.spectra[label].eigenvalues.size == 3 * 700

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_lanczos_extremes_match_dense_spectra(self, seed):
        # past the cap both spectra take the Lanczos route; the
        # preconditioned one runs on the symmetric M^1/2 S M^1/2, whose
        # extremes are those of the dense spectrum
        cfg = xcli.ExperimentConfig(
            model="lorenz", seed=seed, rho=40.0, spin_up=100.0, window=40.0,
            step=0.01, gamma=0.1, mode="pre", spectrum=True, dense_cap=10)
        result = xcli.run_pipeline(cfg)
        s_mat = analysis.dense_constraint_matrix(
            result.trajectory, ms.CostLedger(), normal=True)
        dense = {"raw": np.linalg.eigvalsh(s_mat),
                 "preconditioned": analysis.preconditioned_spectrum(
                     s_mat, result.preconditioner).eigenvalues}
        for label, eigs in dense.items():
            rep = result.spectra[label]
            assert rep.mode == "lanczos-extremes" and rep.converged
            np.testing.assert_allclose(rep.eigenvalues, eigs[[0, -1]],
                                       rtol=1e-6)

    @pytest.mark.parametrize("overrides", [
        ["solver.mode=pre"],
        ["solver.mode=post"],
        ["solver.mode=post", "preconditioner.enabled=false"],
        ["solver.mode=none"],
        ["solver.mode=pre", "solver.gamma=0"],
    ])
    def test_summary_reports_unregularized_residual(self, lorenz_ini,
                                                    overrides):
        # read off CG's final residual with no product, it equals
        # ||b - S w|| / ||b|| applied afresh on a scratch ledger, and the
        # request ledger still reads K + the cost model + K
        result = xcli.run_pipeline(xcli.load_config(lorenz_ini, overrides))
        _, gap = _unregularized_residual_gap(result)
        assert gap <= 1e-10

    def test_unregularized_residual_gap_on_ill_conditioned_ks(self):
        # kappa(S) = 1.35e7: driven to tol 1e-14, the updated residual
        # drifts from the true one by up to 9.7e-13 (measured); in none
        # mode the true residual stagnates at that floor while the
        # updated one, and the row, fall below it
        base = xcli.ExperimentConfig(
            model="ks", name="ks_ill", seed=5, n=63, length=64.0, c=0.8,
            spin_up=200.0, window=100.0, segment=10.0, step=0.02,
            tol=1e-14, max_iter=20000, rank=15, cycles=2)
        for mode, gamma, pc_enabled in (("none", 0.0, False),
                                        ("pre", 0.09, True),
                                        ("post", 0.09, True),
                                        ("post", 0.09, False)):
            result = xcli.run_pipeline(dataclasses.replace(
                base, mode=mode, gamma=gamma, pc_enabled=pc_enabled))
            direct, gap = _unregularized_residual_gap(result)
            assert gap <= 2e-12, mode
            if mode == "none":
                assert direct > 10 * result.report.unregularized_residual

    def test_main_value_error_exits_4(self, lorenz_ini, monkeypatch, capsys):
        def broken(cfg):
            raise ValueError("operands could not be broadcast")

        monkeypatch.setattr(xcli, "run_experiment", broken)
        code = xcli.main(["run", "--config", str(lorenz_ini)])
        assert code == xcli.EXIT_NO_CONVERGENCE
        err = capsys.readouterr().err
        assert err == "error: operands could not be broadcast\n"

    def test_main_run_exit_ok(self, lorenz_ini, capsys):
        code = xcli.main(["run", "--config", str(lorenz_ini)])
        assert code == xcli.EXIT_OK
        assert "sensitivity" in capsys.readouterr().out

    def test_main_config_error(self, lorenz_ini):
        code = xcli.main(["run", "--config", str(lorenz_ini),
                          "--set", "time.segment=0.9"])
        assert code == xcli.EXIT_CONFIG

    @pytest.mark.parametrize("model, override", [
        ("ks", "time.step=0.5"),
        ("lorenz", "preconditioner.rank=0"),
        ("lorenz", "preconditioner.rank=4"),
        ("lorenz", "solver.mode=bogus"),
        ("lorenz", "solver.tol=0"),
        ("lorenz", "solver.gamma=-0.1"),
        ("lorenz", "time.spin_up=5.0001"),
    ])
    def test_main_rejects_bad_input_before_integration(
            self, lorenz_ini, tmp_path, monkeypatch, model, override):
        _forbid_integration(monkeypatch)
        path = lorenz_ini
        if model == "ks":
            # dx = 1, so RK4 is stable up to a step of 2.785 / 16
            path = tmp_path / "ks.ini"
            path.write_text("[experiment]\nmodel = ks\n[model]\nn = 31\n"
                            "length = 32.0\n[time]\nwindow = 4.0\n")
        code = xcli.main(["run", "--config", str(path), "--set", override])
        assert code == xcli.EXIT_CONFIG

    @pytest.mark.parametrize("command, extra", [
        ("picard", []),
        ("run", ["--set", "analysis.truncated_sweep=true"]),
    ])
    def test_main_rejects_dense_analysis_past_cap_before_integration(
            self, lorenz_ini, monkeypatch, command, extra):
        # N*K = 15 > cap 5: the Picard table and the curve need the dense
        # S, so the config fails at load, before the spin-up
        _forbid_integration(monkeypatch)
        code = xcli.main([command, "--config", str(lorenz_ini),
                          "--set", "analysis.dense_cap=5",
                          "--set", "time.window=5.0", *extra])
        assert code == xcli.EXIT_CONFIG

    def test_main_non_convergence(self, lorenz_ini):
        code = xcli.main(["run", "--config", str(lorenz_ini),
                          "--set", "solver.max_iter=1",
                          "--set", "solver.tol=1e-14"])
        assert code == xcli.EXIT_NO_CONVERGENCE

    def test_main_divergence(self, lorenz_ini):
        # absurd step size blows up the Lorenz integration
        code = xcli.main(["run", "--config", str(lorenz_ini),
                          "--set", "time.step=0.5",
                          "--set", "time.spin_up=0.0"])
        assert code == xcli.EXIT_DIVERGENCE


# every ExperimentConfig field that does not fix the trajectory; a new
# field must join this set or xcli.TRAJECTORY_FIELDS
SOLVE_ONLY_FIELDS = {
    "name", "output_dir", "gamma", "mode", "tol",
    "max_iter", "pc_enabled", "rank", "cycles", "spectrum", "picard",
    "truncated_sweep", "dense_cap",
}


def _outputs(result):
    summary = dict(xcli.summarize(result))
    del summary["trajectory_reused"]
    return dict(
        sensitivity=result.sensitivity, multipliers=result.multipliers,
        checkpoints=result.checkpoints, residuals=result.report.residuals,
        ledger=result.ledger.snapshot(), truncated=result.truncated,
        summary=summary)


class TestKeptProblem:
    def test_every_config_field_is_classified(self):
        names = {f.name for f in dataclasses.fields(xcli.ExperimentConfig)}
        key = set(xcli.TRAJECTORY_FIELDS)
        assert not key & SOLVE_ONLY_FIELDS
        assert names == key | SOLVE_ONLY_FIELDS

    @pytest.mark.parametrize("overrides", [
        ["solver.gamma=0.2"],
        ["solver.mode=post"],
        ["solver.tol=1e-4"],
        ["solver.max_iter=7"],
        ["preconditioner.rank=2"],
        ["preconditioner.cycles=1"],
        ["preconditioner.enabled=false"],
        ["analysis.spectrum=true", "analysis.picard=true",
         "analysis.truncated_sweep=true"],
    ])
    def test_warm_request_equals_cold(self, lorenz_ini, monkeypatch,
                                      overrides):
        xcli.run_pipeline(xcli.load_config(lorenz_ini))
        cfg = xcli.load_config(lorenz_ini, overrides)
        with monkeypatch.context() as m:
            _forbid_integration(m)
            warm = xcli.run_pipeline(cfg)
        xcli.drop_problem()
        cold = xcli.run_pipeline(cfg)
        assert warm.trajectory_reused and not cold.trajectory_reused
        got, want = _outputs(warm), _outputs(cold)
        assert got.keys() == want.keys()
        for name in got:
            if isinstance(want[name], np.ndarray):
                assert np.array_equal(got[name], want[name]), name
            else:
                assert got[name] == want[name], name

    def test_warm_request_sweeps_only_the_rhs(self, lorenz_ini, monkeypatch):
        # the sensitivity functional is kept with the trajectory and the
        # zero stack's sensitivity comes with the rhs: a cold request
        # sweeps for the matrices, the functional (adjoint) and the rhs
        # (forced), a warm one for the rhs alone; both agree with the
        # forward-sweep reference to round-off.  Steps are counted where
        # every sweep reads its stage states, whichever step it runs;
        # sweeps outside tangent_sweep_many are adjoint
        steps = {}
        tangent, stage_rows = timestep.tangent_sweep_many, timestep._stage_rows
        sweeping = []

        def tangent_spy(*args, forcing=False, **kw):
            sweeping.append("forced" if forcing else "tangent")
            try:
                return tangent(*args, forcing=forcing, **kw)
            finally:
                sweeping.pop()

        def rows_spy(traj, segments):
            rows = stage_rows(traj, segments)
            kind = sweeping[-1] if sweeping else "adjoint"

            def counted(j):
                steps[kind] = steps.get(kind, 0) + 1
                return rows(j)
            return counted

        monkeypatch.setattr(timestep, "tangent_sweep_many", tangent_spy)
        monkeypatch.setattr(timestep, "_stage_rows", rows_spy)
        cfg = xcli.load_config(lorenz_ini)
        stride = cfg.stride
        for reused, expected in ((False, {"tangent": stride, "adjoint": stride,
                                          "forced": stride}),
                                 (True, {"forced": stride})):
            steps.clear()
            result = xcli.run_pipeline(cfg)
            assert result.trajectory_reused == reused
            assert steps == expected
        monkeypatch.undo()
        traj = result.trajectory
        ref = ms.evaluate_sensitivity(traj, ms.LorenzZ(), result.checkpoints)
        assert abs(result.sensitivity - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("field, value", [
        ("model", "ks"), ("sigma", 10.5), ("rho", 29.0), ("beta", 2.5),
        ("n", 63), ("length", 64.0), ("c", 0.1), ("seed", 12),
        ("spin_up", 4.0), ("window", 3.0), ("segment", 0.5),
        ("step", 0.001),
    ])
    def test_trajectory_field_misses(self, lorenz_ini, monkeypatch, field,
                                     value):
        # prepare builds the propagator matrices before any product, and
        # any change to a trajectory field starts a new prepare
        cfg = xcli.load_config(lorenz_ini)
        assert xcli.prepare(cfg).trajectory._propagators is not None
        assert field in xcli.TRAJECTORY_FIELDS
        changed = dataclasses.replace(
            cfg, **{field: value},
            objective="mean" if value == "ks" else cfg.objective)
        _forbid_integration(monkeypatch)
        with pytest.raises(AssertionError, match="integration started"):
            xcli.prepare(changed)
        assert xcli._kept is None

    def test_prepare_parts(self, lorenz_ini):
        # a cold prepare splits its wall time into its four parts; a
        # reused Problem reads 0 in every part
        cfg = xcli.load_config(lorenz_ini)
        cold = xcli.prepare(cfg)
        parts = ["spin_up_s", "integrate_s", "matrices_s", "functional_s"]
        assert list(cold.prepare_parts) == parts
        assert all(t > 0.0 for t in cold.prepare_parts.values())
        assert sum(cold.prepare_parts.values()) <= cold.prepare_s
        warm = xcli.prepare(cfg)
        assert warm.reused and warm.prepare_s == 0.0
        assert warm.prepare_parts == dict.fromkeys(parts, 0.0)

    def test_divergence_keeps_no_problem(self, lorenz_ini):
        cfg = xcli.load_config(lorenz_ini)
        xcli.prepare(cfg)
        diverging = dataclasses.replace(cfg, step=0.5, spin_up=0.0)
        with pytest.raises(DivergenceError):
            xcli.prepare(diverging)
        assert xcli._kept is None
        assert not xcli.prepare(cfg).reused

    def test_old_trajectory_freed_before_next_prepare(self, lorenz_ini,
                                                      monkeypatch):
        # a ks_c08 Problem is about 9% of its run's peak memory, so the
        # kept one must be gone before the next spin-up starts
        cfg = xcli.load_config(lorenz_ini)
        result = xcli.run_pipeline(cfg)
        old = weakref.ref(result.trajectory)
        del result
        alive = []
        advance = xcli.timestep.advance

        def watched(*args, **kwargs):
            alive.append(old() is not None)
            return advance(*args, **kwargs)

        monkeypatch.setattr(xcli.timestep, "advance", watched)
        assert not xcli.run_pipeline(
            dataclasses.replace(cfg, seed=12)).trajectory_reused
        assert alive == [False]


class TestSweep:
    def test_empty_values(self, lorenz_ini, tmp_path):
        cfg = xcli.load_config(lorenz_ini)
        rows = xcli.sweep(cfg, "gamma", [])
        assert rows == []
        merged = tmp_path / "out" / "tiny_sweep_gamma.csv"
        assert merged.read_text().startswith("gamma,")

    def test_two_point_sweep(self, lorenz_ini, tmp_path):
        cfg = xcli.load_config(lorenz_ini)
        rows = xcli.sweep(cfg, "gamma", [0.05, 0.5])
        assert len(rows) == 2
        assert all(row["converged"] for row in rows)
        merged = (tmp_path / "out" / "tiny_sweep_gamma.csv").read_text()
        assert len(merged.strip().splitlines()) == 3

    def test_failure_recorded_and_continues(self, lorenz_ini):
        cfg = xcli.load_config(lorenz_ini)
        # window 3.5 is not an integer number of unit segments
        rows = xcli.sweep(cfg, "T", [3.5, 4.0])
        assert rows[0]["error"] != ""
        assert rows[1]["error"] == ""

    def test_axis_validation(self, lorenz_ini):
        cfg = xcli.load_config(lorenz_ini)
        with pytest.raises(ConfigError):
            xcli.sweep(cfg, "c", [0.1])
        with pytest.raises(ConfigError):
            xcli.sweep(cfg, "volume", [1.0])

    def test_main_rejects_bad_values_before_integration(
            self, lorenz_ini, monkeypatch):
        _forbid_integration(monkeypatch)
        code = xcli.main(["sweep", "--config", str(lorenz_ini),
                          "--axis", "gamma", "--values", "0.1,foo"])
        assert code == xcli.EXIT_CONFIG

    @pytest.mark.parametrize("horizon", ["0", "-1.0", "10.001"])
    def test_main_fd_ref_rejects_bad_horizon_before_integration(
            self, lorenz_ini, monkeypatch, horizon):
        _forbid_integration(monkeypatch)
        code = xcli.main(["fd-ref", "--config", str(lorenz_ini),
                          "--delta", "1.0", "--samples", "2",
                          "--horizon", horizon])
        assert code == xcli.EXIT_CONFIG

    def test_main_fd_ref(self, lorenz_ini, capsys, tmp_path):
        code = xcli.main(["fd-ref", "--config", str(lorenz_ini),
                          "--delta", "1.0", "--samples", "2",
                          "--horizon", "10.0"])
        assert code == xcli.EXIT_OK
        assert "finite-difference reference" in capsys.readouterr().out
        assert (tmp_path / "out" / "tiny_fd_reference.csv").exists()


@pytest.mark.slow
def test_ks_iterations_stable_across_resolution(tmp_path):
    # doubling the KS resolution leaves the preconditioned, regularized
    # iteration count within a factor of two
    cfg = xcli.ExperimentConfig(
        model="ks", name="nsweep", seed=5, n=127, length=128.0, c=0.8,
        spin_up=200.0, window=100.0, segment=10.0, step=0.005,
        gamma=0.09, mode="post", tol=1e-5, max_iter=500,
        pc_enabled=True, rank=15, cycles=2,
        output_dir=str(tmp_path / "nsweep"))
    rows = xcli.sweep(cfg, "N", [127, 255])
    assert all(row["converged"] for row in rows)
    iters = [row["iterations"] for row in rows]
    assert max(iters) <= 2 * min(iters)


_FOOTPRINT = """\
import json, sys
import numpy as np
import msshadow, msshadow.xcli as xcli
from msshadow import analysis


def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                  or m == "concurrent.futures.process")


cfg = xcli.load_config(sys.argv[1], ["analysis.spectrum=true"])
result = xcli.run_experiment(cfg)
after_run = heavy()
rng = np.random.default_rng(4)
q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
mat = q @ np.diag(np.geomspace(0.1, 5.0, 30)) @ q.T
rep = analysis.spectrum(mat, 30, mode="lanczos-extremes")
exact = np.linalg.eigvalsh(mat)
print(json.dumps({
    "raw_mode": result.spectra["raw"].mode,
    "after_run": after_run,
    "after_lanczos": heavy(),
    "converged": rep.converged,
    "lanczos": [float(v) for v in rep.eigenvalues],
    "exact": [float(exact[0]), float(exact[-1])],
}))
"""


def test_scipy_and_process_pool_load_on_first_use(lorenz_ini):
    # a fresh interpreter running a dense-spectrum request loads neither
    # SciPy nor the process pool; a lanczos-extremes spectrum loads SciPy
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, str(lorenz_ini)],
                          env=env, capture_output=True, text=True, check=True,
                          timeout=300)
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["raw_mode"] == "dense"
    assert got["after_run"] == []
    assert "scipy.sparse.linalg" in got["after_lanczos"]
    assert got["converged"]
    assert got["lanczos"] == pytest.approx(got["exact"], rel=1e-5)


def test_lanczos_spectrum_runs_are_byte_identical(tmp_path):
    # past the dense cap both spectra come from ARPACK, whose start and
    # restart vectors are fixed by the call: two runs of the command, each
    # in its own interpreter, write the same files
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    for run in ("a", "b"):
        subprocess.run(
            [sys.executable, "-m", "msshadow.xcli", "spectrum",
             "--config", str(root / "configs" / "lorenz_rho40.ini"),
             "--set", "time.window=20", "--set", "analysis.dense_cap=30",
             "--set", f"experiment.output_dir={tmp_path / run}"],
            env=env, capture_output=True, check=True, timeout=300)
    names = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
    assert "lorenz_rho40_spectrum_raw.csv" in names
    assert "lorenz_rho40_spectrum_preconditioned.csv" in names
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name

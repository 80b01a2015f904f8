import numpy as np
import pytest

import msshadow as ms
from msshadow import shadow, xcli
from msshadow.errors import ConfigError

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

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[model]\nwhatever = 3\n")
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

    def test_env_worker_override(self, lorenz_ini, monkeypatch):
        monkeypatch.setenv(xcli.WORKERS_ENV, "3")
        cfg = xcli.load_config(lorenz_ini)
        assert cfg.workers == 3

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

    def test_summary_reports_products_before_matrices(self, lorenz_ini,
                                                      monkeypatch):
        # a Lorenz trajectory builds its propagator matrices at its first
        # product; a KS one whose matrices exceed the memory budget never
        # does, and solves end to end on matrix-free sweeps
        result = xcli.run_pipeline(xcli.load_config(lorenz_ini))
        assert dict(xcli.summarize(result))[
            "products_per_segment_before_matrices"] == "0"
        cfg = xcli.ExperimentConfig(
            model="ks", n=63, length=64.0, c=0.5, spin_up=2.0, window=2.0,
            segment=0.2, step=0.02, rank=2, cycles=1, max_iter=20)
        monkeypatch.setattr(shadow, "_MATRIX_BUDGET", 63 * 63 * 10 - 1)
        result = xcli.run_pipeline(cfg)
        assert result.trajectory._propagators is None
        assert dict(xcli.summarize(result))[
            "products_per_segment_before_matrices"] == ""

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
        cfg = xcli.load_config(lorenz_ini)
        xcli.run_experiment(cfg, out_dir=tmp_path / "r1")
        xcli.run_experiment(cfg, out_dir=tmp_path / "r2")
        for name in ("tiny_summary.csv", "tiny_residuals.csv"):
            assert ((tmp_path / "r1" / name).read_bytes()
                    == (tmp_path / "r2" / name).read_bytes())

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

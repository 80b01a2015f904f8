import numpy as np
import pytest

import msshadow as ms
from msshadow import solver
from msshadow.errors import BreakdownError


def dense_op(mat, shape):
    return lambda z: (mat @ z.reshape(-1)).reshape(shape)


def random_spd(n, rng, cond=100.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.geomspace(1.0, cond, n)
    return q @ np.diag(vals) @ q.T, vals


class TestCgSolve:
    def test_identity_operator_single_iteration(self):
        # gamma=1 shift with the raw action nulled out: operator == I
        rhs = np.random.default_rng(0).standard_normal((4, 3))
        cfg = ms.SolveConfig(tol=1e-12, max_iter=10, gamma=1.0, mode="post")
        x, rep = ms.cg_solve(lambda z: np.zeros_like(z), rhs, cfg)
        assert rep.iterations == 1 and rep.converged
        np.testing.assert_allclose(x, rhs, rtol=1e-14)

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(1)
        mat, _ = random_spd(12, rng)
        rhs = rng.standard_normal((4, 3))
        cfg = ms.SolveConfig(tol=1e-12, max_iter=100, gamma=0.0, mode="none")
        x, rep = ms.cg_solve(dense_op(mat, (4, 3)), rhs, cfg)
        expected = np.linalg.solve(mat, rhs.reshape(-1)).reshape(4, 3)
        assert rep.converged
        np.testing.assert_allclose(x, expected, rtol=1e-9, atol=1e-11)

    def test_pre_mode_shifts_operator(self):
        rng = np.random.default_rng(2)
        mat, _ = random_spd(9, rng)
        rhs = rng.standard_normal((3, 3))
        gamma = 0.7
        cfg = ms.SolveConfig(tol=1e-12, max_iter=100, gamma=gamma, mode="pre")
        x, _ = ms.cg_solve(dense_op(mat, (3, 3)), rhs, cfg)
        expected = np.linalg.solve(
            mat + gamma * np.eye(9), rhs.reshape(-1)).reshape(3, 3)
        np.testing.assert_allclose(x, expected, rtol=1e-9, atol=1e-12)

    def test_post_mode_solves_shifted_preconditioned_system(self):
        # (gamma I + M S) w = M b  <=>  (S + gamma M^{-1}) w = b
        rng = np.random.default_rng(3)
        mat, _ = random_spd(9, rng)
        a_small = rng.standard_normal((9, 12))
        pc = ms.exact_preconditioner(a_small, 4)
        rhs = rng.standard_normal((3, 3))
        gamma = 0.3
        cfg = ms.SolveConfig(tol=1e-13, max_iter=200, gamma=gamma, mode="post",
                             preconditioner=pc)
        x, rep = ms.cg_solve(dense_op(mat, (3, 3)), rhs, cfg)
        m_dense = pc.blocks()[0]  # exact_preconditioner has one block
        lhs = gamma * np.eye(9) + m_dense @ mat
        expected = np.linalg.solve(lhs, m_dense @ rhs.reshape(-1)).reshape(3, 3)
        np.testing.assert_allclose(x, expected, rtol=1e-8, atol=1e-11)

    def test_final_residual_matches_reapplied_operator(self):
        rng = np.random.default_rng(4)
        mat, _ = random_spd(15, rng)
        rhs = rng.standard_normal((5, 3))
        cfg = ms.SolveConfig(tol=1e-8, max_iter=200, gamma=0.0, mode="none")
        x, rep = ms.cg_solve(dense_op(mat, (5, 3)), rhs, cfg)
        true_res = np.linalg.norm(rhs - (mat @ x.reshape(-1)).reshape(5, 3))
        true_res /= np.linalg.norm(rhs)
        assert abs(true_res - rep.residuals[-1]) <= 10 * 1e-14 + 1e-10 * true_res

    def test_history_starts_at_one(self):
        rng = np.random.default_rng(5)
        mat, _ = random_spd(6, rng)
        rhs = rng.standard_normal((2, 3))
        cfg = ms.SolveConfig(tol=1e-10, max_iter=50, gamma=0.0, mode="none")
        _, rep = ms.cg_solve(dense_op(mat, (2, 3)), rhs, cfg)
        assert rep.residuals[0] == 1.0
        assert rep.true_residuals[0] == 1.0
        assert len(rep.residuals) == rep.iterations + 1

    def test_non_convergence_flagged(self):
        rng = np.random.default_rng(6)
        mat, _ = random_spd(40, rng, cond=1e8)
        rhs = rng.standard_normal((8, 5))
        cfg = ms.SolveConfig(tol=1e-14, max_iter=5, gamma=0.0, mode="none")
        _, rep = ms.cg_solve(dense_op(mat, (8, 5)), rhs, cfg)
        assert not rep.converged
        assert rep.iterations == 5

    def test_breakdown_raises_with_index(self):
        def bad(z):
            return np.full_like(z, np.nan)

        rhs = np.ones((2, 2))
        cfg = ms.SolveConfig(tol=1e-5, max_iter=10, gamma=0.0, mode="none")
        with pytest.raises(BreakdownError) as err:
            ms.cg_solve(bad, rhs, cfg)
        assert err.value.iteration == 1

    def test_zero_rhs(self):
        cfg = ms.SolveConfig(tol=1e-5, max_iter=10, gamma=0.0, mode="none")
        x, rep = ms.cg_solve(lambda z: z, np.zeros((3, 2)), cfg)
        assert rep.converged and rep.iterations == 0
        assert np.array_equal(x, np.zeros((3, 2)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ms.SolveConfig(tol=0.0)
        with pytest.raises(ValueError):
            ms.SolveConfig(max_iter=0)
        with pytest.raises(ValueError):
            ms.SolveConfig(gamma=-1.0)
        with pytest.raises(ValueError):
            ms.SolveConfig(mode="sideways")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["tol", "gamma"])
    def test_config_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError):
            ms.SolveConfig(**{name: value})

    def test_csv_serialization(self, tmp_path):
        rng = np.random.default_rng(7)
        mat, _ = random_spd(6, rng)
        rhs = rng.standard_normal((2, 3))
        cfg = ms.SolveConfig(tol=1e-10, max_iter=50, gamma=0.0, mode="none")
        _, rep = ms.cg_solve(dense_op(mat, (2, 3)), rhs, cfg)
        path = tmp_path / "residuals.csv"
        rep.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,relative_residual"
        assert len(lines) == len(rep.residuals) + 1
        assert float(lines[1].split(",")[1]) == 1.0


class TestErrorBound:
    def test_kappa_one(self):
        assert solver.error_bound(1.0, 5) == 0.0
        assert solver.error_bound(1.0, 1) == 0.0

    def test_zero_iterations(self):
        assert solver.error_bound(1.0, 0) == 2.0
        assert solver.error_bound(100.0, 0) == 2.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            solver.error_bound(0.5, 3)
        with pytest.raises(ValueError):
            solver.error_bound(2.0, -1)

    def test_monotone_decreasing_in_m(self):
        vals = [solver.error_bound(50.0, m) for m in range(10)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bounds_measured_cg_residuals(self):
        # moderately conditioned dense SPD system, measured per-iteration
        rng = np.random.default_rng(8)
        mat, vals = random_spd(30, rng, cond=50.0)
        kappa = vals[-1] / vals[0]
        rhs = rng.standard_normal((6, 5))
        cfg = ms.SolveConfig(tol=1e-10, max_iter=100, gamma=0.0, mode="none")
        _, rep = ms.cg_solve(dense_op(mat, (6, 5)), rhs, cfg)
        for m, res in enumerate(rep.residuals):
            assert res <= solver.error_bound(kappa, m) + 1e-12

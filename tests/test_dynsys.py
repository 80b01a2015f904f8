import numpy as np
import pytest

import msshadow as ms
from msshadow.errors import DimensionMismatch


def dense_jacobian(system, u):
    """Column-by-column assembly through jacobian_apply."""
    n = system.dim
    jac = np.empty((n, n))
    eye = np.eye(n)
    for c in range(n):
        jac[:, c] = system.jacobian_apply(u, eye[c])
    return jac


def ks_dense_operators(n, length):
    """Independent loop-built stencil matrices for the KS grid.

    Nodes 0..n+1 with zero boundary values; ghost nodes mirror the
    first/last interior values.  Returns (D1, D2, D4) acting on the
    interior vector.
    """
    dx = length / (n + 1)
    d1 = np.zeros((n, n))
    d2 = np.zeros((n, n))
    d4 = np.zeros((n, n))
    for i in range(n):
        for off, coeff in ((-1, -0.5 / dx), (1, 0.5 / dx)):
            j = i + off
            if 0 <= j < n:
                d1[i, j] += coeff
        for off, coeff in ((-1, 1.0), (0, -2.0), (1, 1.0)):
            j = i + off
            if 0 <= j < n:
                d2[i, j] += coeff / dx**2
        for off, coeff in ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)):
            j = i + off
            if j == -2:
                j = 0          # ghost mirrors the first interior node
            if j == n + 1:
                j = n - 1      # ghost mirrors the last interior node
            if 0 <= j < n:
                d4[i, j] += coeff / dx**4
    return d1, d2, d4


class TestLorenz:
    def test_fixed_point_at_origin(self, lorenz28):
        assert np.array_equal(lorenz28.rhs(np.zeros(3)), np.zeros(3))

    def test_rhs_at_ones(self, lorenz28):
        np.testing.assert_allclose(
            lorenz28.rhs(np.array([1.0, 1.0, 1.0])),
            [0.0, 26.0, -5.0 / 3.0], rtol=1e-15)

    def test_jacobian_first_column(self, lorenz28):
        out = lorenz28.jacobian_apply(np.ones(3), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [-10.0, 27.0, 1.0], rtol=1e-15)

    def test_jacobian_zero_vector(self, lorenz28):
        u = np.array([0.3, -1.2, 7.0])
        assert np.array_equal(lorenz28.jacobian_apply(u, np.zeros(3)), np.zeros(3))

    def test_transpose_second_column(self, lorenz28):
        # J^T e2 = row 2 of J = (rho - z, -1, -x)
        out = lorenz28.jacobian_transpose_apply(
            np.ones(3), np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(out, [27.0, -1.0, -1.0], rtol=1e-15)

    def test_param_deriv(self, lorenz28):
        np.testing.assert_array_equal(
            lorenz28.param_deriv(np.ones(3)), [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(
            lorenz28.param_deriv(np.zeros(3)), np.zeros(3))

    def test_dimension_mismatch(self, lorenz28):
        with pytest.raises(DimensionMismatch):
            lorenz28.rhs(np.zeros(4))
        with pytest.raises(DimensionMismatch):
            lorenz28.jacobian_apply(np.zeros(3), np.zeros(2))


class TestKuramotoSivashinsky:
    def test_grid_spacing(self):
        ks = ms.KuramotoSivashinsky(n=127, length=128.0, c=0.0)
        assert ks.dx * (ks.dim + 1) == 128.0

    def test_zero_state_is_fixed_point(self, ks_small):
        assert np.array_equal(ks_small.rhs(np.zeros(31)), np.zeros(31))

    def test_rhs_against_dense_stencil(self):
        # 7-node grid, samples of a quadratic satisfying the Dirichlet ends
        ks = ms.KuramotoSivashinsky(n=7, length=8.0, c=0.0)
        x = np.arange(1, 8) * ks.dx
        u = x * (8.0 - x)
        d1, d2, d4 = ks_dense_operators(7, 8.0)
        expected = -d1 @ (0.5 * u * u) - d2 @ u - d4 @ u
        np.testing.assert_allclose(ks.rhs(u), expected, rtol=1e-13)

    def test_rhs_against_dense_stencil_with_c(self):
        ks = ms.KuramotoSivashinsky(n=7, length=8.0, c=0.7)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(7)
        d1, d2, d4 = ks_dense_operators(7, 8.0)
        expected = -d1 @ (0.5 * u * u + 0.7 * u) - d2 @ u - d4 @ u
        np.testing.assert_allclose(ks.rhs(u), expected, rtol=1e-13, atol=1e-13)

    def test_jacobian_matches_finite_difference(self):
        ks = ms.KuramotoSivashinsky(n=127, length=128.0, c=0.8)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(127)
        v = rng.standard_normal(127)
        eps = 1e-6 * np.linalg.norm(u) / np.linalg.norm(v)
        fd = (ks.rhs(u + eps * v) - ks.rhs(u - eps * v)) / (2.0 * eps)
        an = ks.jacobian_apply(u, v)
        assert np.linalg.norm(fd - an) <= 1e-6 * np.linalg.norm(an)

    def test_transpose_against_dense_assembly(self):
        ks = ms.KuramotoSivashinsky(n=15, length=16.0, c=0.3)
        rng = np.random.default_rng(2)
        u = rng.standard_normal(15)
        w = rng.standard_normal(15)
        jac = dense_jacobian(ks, u)
        np.testing.assert_allclose(
            ks.jacobian_transpose_apply(u, w), jac.T @ w, rtol=1e-12, atol=1e-14)

    def test_param_deriv_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(127)
        eps = 1e-6
        plus = ms.KuramotoSivashinsky(127, 128.0, 0.8 + eps)
        minus = ms.KuramotoSivashinsky(127, 128.0, 0.8 - eps)
        fd = (plus.rhs(u) - minus.rhs(u)) / (2.0 * eps)
        ks = ms.KuramotoSivashinsky(127, 128.0, 0.8)
        assert np.linalg.norm(fd - ks.param_deriv(u)) <= 1e-8 * np.linalg.norm(fd)

    def test_stability_limit_scales_with_grid(self):
        coarse = ms.KuramotoSivashinsky(n=127, length=128.0)
        fine = ms.KuramotoSivashinsky(n=255, length=128.0)
        assert coarse.max_stable_step == pytest.approx(2.785 / 16.0)
        assert fine.max_stable_step == pytest.approx(coarse.max_stable_step / 16.0)


class TestTransposeDuality:
    """<J v, w> == <v, J^T w> within 1e-12 * |v| |w| |J|, batched trials."""

    def _run(self, system, trials=10_000):
        rng = np.random.default_rng(11)
        n = system.dim
        u = rng.standard_normal((trials, n))
        v = rng.standard_normal((trials, n))
        w = rng.standard_normal((trials, n))
        jv = system.jacobian_apply(u, v)
        jtw = system.jacobian_transpose_apply(u, w)
        lhs = (jv * w).sum(axis=1)
        rhs = (v * jtw).sum(axis=1)
        scale = (np.linalg.norm(v, axis=1) * np.linalg.norm(w, axis=1)
                 * np.maximum(np.linalg.norm(jv, axis=1)
                              / np.maximum(np.linalg.norm(v, axis=1), 1e-300), 1.0))
        assert np.max(np.abs(lhs - rhs) / scale) <= 1e-12

    def test_lorenz(self, lorenz28):
        self._run(lorenz28)

    def test_ks(self, ks_small):
        self._run(ks_small)


class TestGradientChecks:
    """Analytic derivatives against central differences, relative 1e-5."""

    @pytest.mark.parametrize("fixture", ["lorenz", "ks"])
    def test_jacobian_and_param(self, fixture, lorenz28, ks_small):
        if fixture == "lorenz":
            system, make = lorenz28, (lambda rho: ms.Lorenz(rho=rho))
        else:
            system, make = ks_small, (
                lambda c: ms.KuramotoSivashinsky(31, 32.0, c))
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = rng.standard_normal(system.dim)
            v = rng.standard_normal(system.dim)
            eps = 1e-6
            fd = (system.rhs(u + eps * v) - system.rhs(u - eps * v)) / (2 * eps)
            an = system.jacobian_apply(u, v)
            assert np.linalg.norm(fd - an) <= 1e-5 * max(np.linalg.norm(an), 1e-12)
            plus = make(system.param + eps)
            minus = make(system.param - eps)
            fd = (plus.rhs(u) - minus.rhs(u)) / (2 * eps)
            an = system.param_deriv(u)
            assert np.linalg.norm(fd - an) <= 1e-5 * max(np.linalg.norm(an), 1e-12)

    def test_jacobian_linearity(self, ks_small):
        rng = np.random.default_rng(8)
        u = rng.standard_normal(31)
        v1 = rng.standard_normal(31)
        v2 = rng.standard_normal(31)
        a, b = 1.7, -0.3
        lhs = ks_small.jacobian_apply(u, a * v1 + b * v2)
        rhs = a * ks_small.jacobian_apply(u, v1) + b * ks_small.jacobian_apply(u, v2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)


class TestObjectives:
    def test_lorenz_z(self):
        obj = ms.LorenzZ()
        u = np.array([1.0, 2.0, 3.0])
        assert obj.value(u) == 3.0
        np.testing.assert_array_equal(obj.gradient(u), [0.0, 0.0, 1.0])

    def test_spatial_mean_of_constant(self, ks_small):
        obj = ms.SpatialMean(ks_small)
        kappa = 2.5
        u = np.full(31, kappa)
        assert obj.value(u) == pytest.approx(kappa * 31 / 32)

    def test_mean_square_gradient_fd(self, ks_small):
        obj = ms.SpatialMeanSquare(ks_small)
        rng = np.random.default_rng(9)
        u = rng.standard_normal(31)
        g = obj.gradient(u)
        eps = 1e-6
        for i in (0, 13, 30):
            e = np.zeros(31)
            e[i] = eps
            fd = (obj.value(u + e) - obj.value(u - e)) / (2 * eps)
            assert fd == pytest.approx(g[i], rel=1e-5)

    def test_batched_value_shape(self, ks_small):
        obj = ms.SpatialMean(ks_small)
        u = np.random.default_rng(10).standard_normal((6, 31))
        assert obj.value(u).shape == (6,)

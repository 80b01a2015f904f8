import numpy as np
import pytest

import msshadow as ms
from msshadow import timestep
from msshadow.errors import DivergenceError


class LinearDecay(ms.DynamicalSystem):
    """du/dt = -u + s componentwise; s is the control parameter."""

    def __init__(self, dim=1, s=0.0):
        self.dim = dim
        self._s = float(s)

    @property
    def param(self):
        return self._s

    def with_param(self, value):
        return LinearDecay(self.dim, value)

    def rhs(self, u):
        return -u + self._s

    def jacobian_apply(self, u, v):
        return -v

    def jacobian_transpose_apply(self, u, w):
        return -w

    def param_deriv(self, u):
        return np.ones_like(u)


class Quadratic(LinearDecay):
    """du/dt = u^2; blows up in finite time from u0 = 1."""

    def rhs(self, u):
        return u * u

    def jacobian_apply(self, u, v):
        return 2.0 * u * v

    def jacobian_transpose_apply(self, u, w):
        return 2.0 * u * w

    def param_deriv(self, u):
        return np.zeros_like(u)


class GenericLorenz(ms.Lorenz):
    """Lorenz through the generic tangent step: a subclass that redefines
    jacobian_apply gets no tangent kernel."""

    def jacobian_apply(self, u, v):
        return super().jacobian_apply(u, v)


class TestIntegrate:
    def test_linear_exact_solution(self):
        sys_ = LinearDecay()
        traj = ms.integrate(sys_, np.array([2.0]), 0.0, 1.0, 0.01)
        assert traj.states[-1][0] == pytest.approx(2.0 * np.exp(-1.0), abs=1e-8)

    def test_fourth_order_convergence(self):
        sys_ = LinearDecay()
        errors = []
        steps = [0.2, 0.1, 0.05, 0.025, 0.0125]
        for h in steps:
            traj = ms.integrate(sys_, np.array([1.0]), 0.0, 1.0, h)
            errors.append(abs(traj.states[-1][0] - np.exp(-1.0)))
        slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
        assert 3.6 <= slope <= 4.4

    def test_lorenz_richardson_self_consistency(self, lorenz28):
        u0 = np.array([1.0, 1.0, 1.0])
        coarse = ms.integrate(lorenz28, u0, 0.0, 2.0, 0.002)
        fine = ms.integrate(lorenz28, u0, 0.0, 2.0, 0.001)
        err = np.linalg.norm(coarse.states[-1] - fine.states[-1])
        assert err <= 1e-5 * np.linalg.norm(fine.states[-1])

    def test_divergence_reports_step(self):
        with pytest.raises(DivergenceError) as err:
            ms.integrate(Quadratic(), np.array([1.0]), 0.0, 2.0, 0.01)
        assert 0 < err.value.step <= 200

    @pytest.mark.parametrize("system, u0, h", [
        (ms.Lorenz(rho=40.0), np.array([1.0, 1.0, 1.001]), 0.002),
        (ms.KuramotoSivashinsky(n=31, length=32.0, c=0.5),
         np.random.default_rng(4).uniform(0.0, 1.0, 31), 0.02),
    ], ids=["lorenz", "ks"])
    def test_single_state_path_matches_array_loop(self, system, u0, h):
        # a single state takes the system's own path (plain floats for
        # Lorenz, the axis-0 stencil kernel for KS), a batch of one row
        # the array loop, which is the reference: equal bit for bit, and a
        # blow-up from a large state is reported at the same, later step
        single = ms.advance(system, u0, 0.0, 5.0, h)
        batch = ms.advance(system, u0[None, :], 0.0, 5.0, h)
        assert np.array_equal(single, batch[0])
        traj = ms.integrate(system, u0, 0.0, 5.0, h)
        rows = np.empty((traj.n_steps + 1, 1, system.dim))
        rows[0] = u0
        timestep._rk4(system, u0[None, :], h, traj.n_steps, states=rows)
        assert np.array_equal(traj.states, rows[:, 0])
        large = np.full(system.dim, 1e3)
        steps = []
        for start in (large, large[None, :]):
            with pytest.raises(DivergenceError) as err:
                ms.advance(system, start, 0.0, 1.0, 0.01, check_every=1)
            steps.append(err.value.step)
        assert steps[0] == steps[1] > 1

    def test_span_must_be_step_multiple(self):
        with pytest.raises(ValueError):
            ms.integrate(LinearDecay(), np.array([1.0]), 0.0, 1.0, 0.3)

    def test_stride_must_divide(self, lorenz28):
        with pytest.raises(ValueError):
            ms.integrate(lorenz28, np.ones(3), 0.0, 1.0, 0.01, stride=33)

    def test_ks_stability_guard(self):
        ks = ms.KuramotoSivashinsky(n=255, length=128.0)
        with pytest.raises(ValueError):
            ms.integrate(ks, np.zeros(255), 0.0, 1.0, 0.02)

    def test_cached_rhs_matches(self, lorenz_traj, lorenz28):
        np.testing.assert_array_equal(
            lorenz_traj.fvals, lorenz28.rhs(lorenz_traj.states))

    def test_ks_spinup_stays_bounded(self, ks_small):
        rng = np.random.default_rng(4)
        u = ms.advance(ks_small, rng.uniform(0, 1, 31), -100.0, 0.0, 0.02)
        assert np.abs(u).max() < 10.0


class TestTangentAdjoint:
    def test_zero_homogeneous(self, lorenz_traj):
        out = ms.tangent_sweep(lorenz_traj, 0, np.zeros(3))
        assert np.array_equal(out, np.zeros(3))
        out = ms.adjoint_sweep(lorenz_traj, 0, np.zeros(3))
        assert np.array_equal(out, np.zeros(3))

    def test_forcing_superposition(self, lorenz_traj):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(3)
        full = ms.tangent_sweep(lorenz_traj, 1, v, forcing=True)
        hom = ms.tangent_sweep(lorenz_traj, 1, v, forcing=False)
        part = ms.tangent_sweep(lorenz_traj, 1, np.zeros(3), forcing=True)
        np.testing.assert_allclose(full, hom + part,
                                   rtol=1e-12, atol=1e-12 * np.linalg.norm(full))

    @pytest.mark.parametrize("fixture", ["lorenz", "ks"])
    def test_sweep_duality(self, fixture, lorenz_traj, ks_traj):
        traj = lorenz_traj if fixture == "lorenz" else ks_traj
        n = traj.system.dim
        rng = np.random.default_rng(1)
        for seg in range(traj.n_segments):
            v = rng.standard_normal(n)
            w = rng.standard_normal(n)
            mv = ms.tangent_sweep(traj, seg, v)
            mtw = ms.adjoint_sweep(traj, seg, w)
            lhs = mv @ w
            rhs = v @ mtw
            scale = np.linalg.norm(v) * np.linalg.norm(w) * max(
                np.linalg.norm(mv) / np.linalg.norm(v), 1.0)
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_adjoint_matches_dense_transpose(self, lorenz_traj):
        # assemble the segment map column by column (N = 3)
        cols = [ms.tangent_sweep(lorenz_traj, 2, e) for e in np.eye(3)]
        mat = np.stack(cols, axis=1)
        rng = np.random.default_rng(2)
        w = rng.standard_normal(3)
        np.testing.assert_allclose(
            ms.adjoint_sweep(lorenz_traj, 2, w), mat.T @ w,
            rtol=1e-12, atol=1e-12 * np.linalg.norm(mat))

    def test_sweep_is_deterministic(self, ks_traj):
        v = np.random.default_rng(5).standard_normal(31)
        a = ms.tangent_sweep(ks_traj, 1, v, forcing=True)
        b = ms.tangent_sweep(ks_traj, 1, v, forcing=True)
        assert np.array_equal(a, b)

    def test_segment_range_checked(self, lorenz_traj):
        with pytest.raises(IndexError):
            ms.tangent_sweep(lorenz_traj, 5, np.zeros(3))
        with pytest.raises(IndexError):
            ms.adjoint_sweep(lorenz_traj, -1, np.zeros(3))

    def test_growth_rate_matches_lyapunov_range(self, lorenz28):
        # homogeneous tangent growth per unit time at rho=28 sits within
        # the known [0.8, 1.7] band for the largest exponent
        u0 = ms.advance(lorenz28, np.array([1.0, 1.0, 1.0]), -20.0, 0.0, 0.002)
        traj = ms.integrate(lorenz28, u0, 0.0, 60.0, 0.002, stride=500)
        v = np.array([1.0, 0.0, 0.0])
        log_growth = 0.0
        for seg in range(traj.n_segments):
            v = ms.tangent_sweep(traj, seg, v)
            nrm = np.linalg.norm(v)
            log_growth += np.log(nrm)
            v /= nrm
        rate = log_growth / traj.span
        assert 0.8 <= rate <= 1.7


class TestLorenzTangentKernel:
    ROWS = {
        "all_in_order": np.arange(5),
        "grouped": np.repeat(np.arange(5), 3),
        "one": np.array([2]),
        "subset": np.array([3, 0, 4]),
        "all_reversed": np.arange(5)[::-1],
    }

    @staticmethod
    def _generic(traj):
        return ms.Trajectory(GenericLorenz(rho=traj.system.rho), traj.t_start,
                             traj.h, traj.states, traj.fvals, traj.stride)

    def test_kernel_only_for_lorenz_methods(self, lorenz28):
        assert lorenz28.tangent_kernel(0.01, 4, True) is not None
        assert GenericLorenz().tangent_kernel(0.01, 4, True) is None

        class OwnForcing(ms.Lorenz):
            def param_deriv(self, u):
                return super().param_deriv(u)

        assert OwnForcing().tangent_kernel(0.01, 4, False) is None

    @pytest.mark.parametrize("forcing", [False, True])
    @pytest.mark.parametrize("kind", sorted(ROWS))
    def test_matches_generic_step(self, lorenz_traj, kind, forcing):
        # the kernel (Lorenz) and the generic step (GenericLorenz) agree bit
        # for bit at the segment ends and in the rows handed to on_step,
        # and with each row swept alone (gathered stage states)
        segments = self.ROWS[kind]
        v = np.random.default_rng(6).standard_normal((segments.size, 3))
        ends, seen = [], []
        for traj in (lorenz_traj, self._generic(lorenz_traj)):
            rows = []
            ends.append(timestep.tangent_sweep_many(
                traj, segments, v, forcing=forcing,
                on_step=lambda j, r, rows=rows: rows.append((j, r.copy()))))
            seen.append(rows)
        assert np.array_equal(ends[0], ends[1])
        alone = [timestep.tangent_sweep_many(lorenz_traj, [seg], v[i:i + 1],
                                             forcing=forcing)
                 for i, seg in enumerate(segments)]
        assert np.array_equal(ends[0], np.concatenate(alone))
        assert len(seen[0]) == len(seen[1]) == lorenz_traj.stride
        for (j0, r0), (j1, r1) in zip(*seen):
            assert j0 == j1 and r0.shape == (segments.size, 3)
            assert np.array_equal(r0, r1)

    def test_input_left_unchanged(self, lorenz_traj):
        # v.T of a (1, N) batch is contiguous; the kernel must not step it
        v = np.random.default_rng(7).standard_normal((1, 3))
        keep = v.copy()
        out = timestep.tangent_sweep_many(lorenz_traj, [1], v, forcing=True)
        assert np.array_equal(v, keep)
        assert not np.array_equal(out, v)

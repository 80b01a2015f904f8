import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import msshadow as ms
from msshadow import _native, shadow, timestep
from msshadow.errors import DivergenceError
from msshadow.timestep import rk4_kernel


class LinearDecay(ms.DynamicalSystem):
    """du/dt = -u + s componentwise; s is the control parameter."""

    def __init__(self, dim=1, s=0.0):
        self.dim = dim
        self._s = float(s)

    @property
    def param(self):
        return self._s

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
    jacobian_apply gets no compiled tangent sweep."""

    def jacobian_apply(self, u, v):
        return super().jacobian_apply(u, v)


def _traced(traj, segments, v, forcing, width):
    """tangent_sweep_many over windows of at most width steps, each from
    the last one's rows: (the rows at the segment ends, the trace of
    every step (stride, m, N))."""
    trace = np.empty((traj.stride, *v.shape))
    for j0 in range(0, traj.stride, width):
        g = min(width, traj.stride - j0)
        v = timestep.tangent_sweep_many(traj, segments, v, forcing,
                                        window=(j0, g),
                                        trace=trace[j0:j0 + g])
    return v, trace


def _fed(traj, segments, w, source, width):
    """adjoint_sweep_many over windows of at most width steps, last
    window first, each from the next one's rows and fed its part of
    source (stride, m, N), or of no source for None."""
    for j0 in reversed(range(0, traj.stride, width)):
        g = min(width, traj.stride - j0)
        w = timestep.adjoint_sweep_many(
            traj, segments, w, window=(j0, g),
            source=None if source is None else source[j0:j0 + g])
    return w


# window widths of the table tests: the whole segment, one step, and 7
# steps, which divide no stride of the fixtures
WIDTHS = (None, 1, 7)


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
    def test_single_state_path_matches_array_loop(self, system, u0, h,
                                                  monkeypatch):
        # a single state runs the compiled loop (the array loop without a
        # C compiler), a batch of one row on the array loop is the
        # reference: equal bit for bit, and a blow-up from a large state
        # is reported at the same, later step
        def blow_up(start):
            with pytest.raises(DivergenceError) as err:
                ms.advance(system, start, 0.0, 1.0, 0.01, check_every=1)
            return err.value.step

        large = np.full(system.dim, 1e3)
        single = ms.advance(system, u0, 0.0, 5.0, h)
        traj = ms.integrate(system, u0, 0.0, 5.0, h)
        steps = [blow_up(large)]
        monkeypatch.setattr(_native, "_lib", False)
        steps.append(blow_up(large[None, :]))
        batch = ms.advance(system, u0[None, :], 0.0, 5.0, h)
        assert np.array_equal(single, batch[0])
        rows = np.empty((traj.n_steps + 1, 1, system.dim))
        rows[0] = u0
        timestep._rk4(system, u0[None, :], h, traj.n_steps, states=rows)
        assert np.array_equal(traj.states, rows[:, 0])
        assert steps[0] == steps[1] > 1

    def test_span_must_be_step_multiple(self):
        with pytest.raises(ValueError):
            ms.integrate(LinearDecay(), np.array([1.0]), 0.0, 1.0, 0.3)

    def test_stride_must_divide(self, lorenz28, monkeypatch):
        # checked before the first step
        def stepped(*args, **kwargs):
            raise AssertionError("integration started")

        monkeypatch.setattr(timestep, "_rk4", stepped)
        with pytest.raises(ValueError, match="stride 33 does not divide"):
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
    """The compiled Lorenz tangent sweep against the generic array loop."""

    ROWS = {
        "all_in_order": np.arange(5),
        "grouped": np.repeat(np.arange(5), 3),
        "one": np.array([2]),
        "subset": np.array([3, 0, 4]),
        "all_reversed": np.arange(5)[::-1],
    }

    @staticmethod
    def _copy(traj, system):
        """traj's stored path and stages under system, nothing built."""
        out = ms.Trajectory(system, traj.t_start, traj.h, traj.states,
                            traj.fvals, traj.stride)
        out._stages = traj.stages()
        return out

    def _generic(self, traj):
        return self._copy(traj, GenericLorenz(rho=traj.system.rho))

    def test_kernel_only_for_lorenz_methods(self, lorenz_traj, ks_traj):
        # the sweep serves Lorenz's own model, not a subclass's, once the
        # library loads; KS's own model has a sweep of its own
        assert _native.sweeps(lorenz_traj) == (_native.library() is not None)
        assert not _native.sweeps(self._generic(lorenz_traj))
        assert _native.sweeps(ks_traj) == _native.sweeps(lorenz_traj)

        class OwnForcing(ms.Lorenz):
            def param_deriv(self, u):
                return super().param_deriv(u)

        assert not _native.sweeps(self._copy(lorenz_traj, OwnForcing()))

    @pytest.mark.parametrize("forcing", [False, True])
    @pytest.mark.parametrize("kind", sorted(ROWS))
    def test_matches_generic_step(self, lorenz_traj, kind, forcing):
        # the compiled sweep (Lorenz) and the generic step (GenericLorenz)
        # agree bit for bit at the segment ends and on every trace row,
        # over the whole segment or in windows, whose last trace row is
        # the end; so do the source-fed adjoints, and each row swept alone
        segments = self.ROWS[kind]
        rng = np.random.default_rng(6)
        v = rng.standard_normal((segments.size, 3))
        source = rng.standard_normal((lorenz_traj.stride, segments.size, 3))
        generic = self._generic(lorenz_traj)
        assert _native.sweeps(lorenz_traj) == (_native.library() is not None)
        ref, ref_trace = _traced(generic, segments, v, forcing, 1)
        ref_back = _fed(generic, segments, v, source, 1)
        assert np.array_equal(ref, ref_trace[-1])
        for traj in (lorenz_traj, generic):
            for width in WIDTHS:
                end, trace = _traced(traj, segments, v, forcing,
                                     width or traj.stride)
                assert np.array_equal(end, ref)
                assert np.array_equal(trace, ref_trace)
                assert np.array_equal(
                    _fed(traj, segments, v, source, width or traj.stride),
                    ref_back)
        assert not np.array_equal(ref_back, timestep.adjoint_sweep_many(
            generic, segments, v))
        alone = [timestep.tangent_sweep_many(lorenz_traj, [seg], v[i:i + 1],
                                             forcing=forcing)
                 for i, seg in enumerate(segments)]
        assert np.array_equal(ref, np.concatenate(alone))

    def test_window_and_table_checked(self, lorenz_traj):
        # a window past the segment, or a table of the wrong shape or
        # layout, raises before any step
        v = np.zeros((2, 3))
        for window in [(0, 0), (-1, 2), (499, 2), (0, 501)]:
            with pytest.raises(IndexError):
                timestep.tangent_sweep_many(lorenz_traj, [0, 1], v,
                                            window=window)
            with pytest.raises(IndexError):
                timestep.adjoint_sweep_many(lorenz_traj, [0, 1], v,
                                            window=window)
        with pytest.raises(ms.DimensionMismatch):
            timestep.tangent_sweep_many(lorenz_traj, [0, 1], v, window=(0, 3),
                                        trace=np.empty((2, 2, 3)))
        with pytest.raises(ms.DimensionMismatch):
            timestep.adjoint_sweep_many(lorenz_traj, [0, 1], v, window=(0, 3),
                                        source=np.empty((3, 1, 3)))
        read_only = np.empty((3, 2, 3))
        read_only.flags.writeable = False
        for trace in (np.empty((3, 3, 2)).swapaxes(1, 2),
                      np.empty((3, 2, 3), dtype=np.float32), read_only):
            with pytest.raises(ms.DimensionMismatch):
                timestep.tangent_sweep_many(lorenz_traj, [0, 1], v,
                                            window=(0, 3), trace=trace)

    @pytest.mark.parametrize("case", ["no_library", "subclass",
                                      "strided_states"])
    def test_array_loop_gives_the_same_bits(self, lorenz_traj, case,
                                            monkeypatch):
        # without the library, for a subclass that redefines a model
        # method and on stored states that are not C-contiguous, the
        # sweep takes the array loop, with the compiled sweep's rows
        segments = np.array([3, 0, 4, 4])
        v = np.random.default_rng(8).standard_normal((4, 3))
        want = [timestep.tangent_sweep_many(lorenz_traj, segments, v,
                                            forcing=forcing)
                for forcing in (False, True)]
        traj = lorenz_traj
        if case == "no_library":
            monkeypatch.setattr(_native, "_lib", False)
        elif case == "subclass":
            traj = self._generic(lorenz_traj)
        else:
            wide = np.zeros((len(traj.states), 6))
            wide[:, ::2] = traj.states
            traj = ms.Trajectory(traj.system, traj.t_start, traj.h,
                                 wide[:, ::2], traj.fvals, traj.stride)
            traj._stages = lorenz_traj.stages()
        assert not _native.sweeps(traj)
        monkeypatch.setattr(_native, "sweep", None)  # C calls fail
        for forcing, end in zip((False, True), want):
            assert np.array_equal(timestep.tangent_sweep_many(
                traj, segments, v, forcing=forcing), end)

    def test_matrices_equal_generic_row_build(self, lorenz_traj):
        # the propagator matrices, swept in C, equal GenericLorenz's row
        # build bit for bit
        builds = [shadow._build_propagators(traj) for traj in (
            self._copy(lorenz_traj, lorenz_traj.system),
            self._generic(lorenz_traj))]
        assert np.array_equal(builds[0], builds[1])

    def test_input_left_unchanged(self, lorenz_traj):
        # the sweep steps a copy of v, never v itself
        v = np.random.default_rng(7).standard_normal((1, 3))
        keep = v.copy()
        out = timestep.tangent_sweep_many(lorenz_traj, [1], v, forcing=True)
        assert np.array_equal(v, keep)
        assert not np.array_equal(out, v)


def _ks_trajectory(n, h):
    """A short KS path at N = n, three segments of 10 steps."""
    ks = ms.KuramotoSivashinsky(n=n, length=128.0, c=0.8)
    u0 = np.random.default_rng(n).uniform(0.0, 1.0, n)
    return ms.integrate(ks, u0, 0.0, 30 * h, h, stride=10)


class OwnTransposeKS(ms.KuramotoSivashinsky):
    """KS through the generic steps: a subclass that redefines
    jacobian_transpose_apply gets no compiled sweep, tangent or
    adjoint."""

    def jacobian_transpose_apply(self, u, w):
        return super().jacobian_transpose_apply(u, w)


class TestCompiledAdjoint:
    """The compiled adjoint sweep of Lorenz and KS against the array loop."""

    TRAJECTORIES = {
        "lorenz": lambda request: request.getfixturevalue("lorenz_traj"),
        "ks-31": lambda request: request.getfixturevalue("ks_traj"),
        "ks-127": lambda request: _ks_trajectory(127, 0.1),
        "ks-255": lambda request: _ks_trajectory(255, 0.01),
    }

    @pytest.fixture(params=sorted(TRAJECTORIES))
    def traj(self, request):
        return self.TRAJECTORIES[request.param](request)

    @pytest.mark.parametrize("order", ["in_order", "gathered"])
    def test_matches_array_loop(self, traj, order, monkeypatch):
        # the compiled sweep and the array loop agree bit for bit at the
        # segment starts, with and without a source, over the whole
        # segment or in windows, and the source adds into the next step
        k, n = traj.n_segments, traj.system.dim
        segments = np.arange(k) if order == "in_order" else np.array(
            [k - 1, 0, 2, 2])
        rng = np.random.default_rng(9)
        w = rng.standard_normal((segments.size, n))
        source = rng.standard_normal((traj.stride, segments.size, n))
        assert _native.sweeps(traj) == (
            _native.library() is not None)

        def run():
            return [[_fed(traj, segments, w, src, width or traj.stride)
                     for width in WIDTHS] for src in (None, source)]

        out, ref = _loops(monkeypatch, run)
        plain, fed = ref[0][0], ref[1][0]
        for ends in (out, ref):
            assert all(np.array_equal(a, plain) for a in ends[0])
            assert all(np.array_equal(a, fed) for a in ends[1])
        assert not np.array_equal(plain, fed)
        # one backward step fed its source equals the step, then the add
        last = timestep.adjoint_sweep_many(traj, segments, w,
                                           window=(traj.stride - 1, 1))
        assert np.array_equal(
            timestep.adjoint_sweep_many(traj, segments, w,
                                        window=(traj.stride - 1, 1),
                                        source=source[-1:]),
            last + source[-1])

    @pytest.mark.parametrize("case", ["no_library", "subclass",
                                      "strided_states"])
    @pytest.mark.parametrize("model", ["lorenz", "ks"])
    def test_array_loop_gives_the_same_bits(self, lorenz_traj, ks_traj,
                                            model, case, monkeypatch):
        # without the library, for a subclass that redefines the
        # transpose and on stored states that are not C-contiguous, the
        # sweep takes the array loop, with the compiled sweep's rows
        traj = lorenz_traj if model == "lorenz" else ks_traj
        n = traj.system.dim
        segments = np.array([3, 0, 2, 2])
        w = np.random.default_rng(10).standard_normal((4, n))
        want = timestep.adjoint_sweep_many(traj, segments, w)
        states, system = traj.states, traj.system
        if case == "no_library":
            monkeypatch.setattr(_native, "_lib", False)
        elif case == "subclass":
            system = (GenericLorenz(rho=system.rho) if model == "lorenz"
                      else OwnTransposeKS(n, system.length, system.c))
        else:
            wide = np.zeros((len(states), 2 * n))
            wide[:, ::2] = states
            states = wide[:, ::2]
        copy = ms.Trajectory(system, traj.t_start, traj.h, states,
                             traj.fvals, traj.stride)
        copy._stages = traj.stages()
        assert not _native.sweeps(copy)
        monkeypatch.setattr(_native, "sweep", None)  # C calls fail
        assert np.array_equal(
            timestep.adjoint_sweep_many(copy, segments, w), want)

    @staticmethod
    def _check_duality(traj, tangent_lib, monkeypatch):
        """<T v, w> == <v, A w> within 1e-13 |T v| |w| on every segment,
        T swept with the library tangent_lib, A with the loaded one."""
        k, n = traj.n_segments, traj.system.dim
        rng = np.random.default_rng(n)
        v, w = rng.standard_normal((2, k, n))
        compiled = _native.library() or False
        monkeypatch.setattr(_native, "_lib", tangent_lib)
        tv = timestep.tangent_sweep_many(traj, np.arange(k), v)
        monkeypatch.setattr(_native, "_lib", compiled)
        aw = timestep.adjoint_sweep_many(traj, np.arange(k), w)
        lhs, rhs = (tv * w).sum(axis=1), (v * aw).sum(axis=1)
        scale = np.linalg.norm(tv, axis=1) * np.linalg.norm(w, axis=1)
        assert (np.abs(lhs - rhs) <= 1e-13 * scale).all()

    @pytest.mark.parametrize("n, h", [(127, 0.1), (255, 0.01)])
    def test_duality_with_array_tangent(self, n, h, monkeypatch):
        # the compiled KS adjoint is the transpose of the NumPy KS tangent
        traj = _ks_trajectory(n, h)
        assert _native.sweeps(traj) == (_native.library() is not None)
        self._check_duality(traj, False, monkeypatch)

    @pytest.mark.parametrize("n, h", [(127, 0.1), (255, 0.01)])
    def test_duality_of_compiled_sweeps(self, n, h, monkeypatch):
        # the compiled KS adjoint is the transpose of the compiled KS
        # tangent (criterion 08's identity)
        traj = _ks_trajectory(n, h)
        assert _native.sweeps(traj) == (_native.library() is not None)
        self._check_duality(traj, _native.library() or False, monkeypatch)

    @pytest.mark.parametrize("model", ["lorenz", "ks"])
    def test_functional_same_bits_without_library(self, lorenz_traj, ks_traj,
                                                  model, monkeypatch):
        # the weights from the compiled sweep, with the source added
        # after each step, equal those of the array loop
        traj = lorenz_traj if model == "lorenz" else ks_traj
        objective = (ms.LorenzZ() if model == "lorenz"
                     else ms.SpatialMeanSquare(traj.system))
        out, ref = _loops(monkeypatch, lambda: shadow.sensitivity_functional(
            traj, objective))
        assert np.array_equal(out, ref)


class DampedLorenz(ms.Lorenz):
    """A subclass with its own dynamics: the fast paths must not
    integrate Lorenz's."""

    def rhs(self, u):
        return super().rhs(u) - 0.5 * u


class DampedKS(ms.KuramotoSivashinsky):
    def rhs(self, u):
        return super().rhs(u) - 0.5 * u


# (system, step) of each system the compiled loop serves
COMPILED = {
    "ks-1": (ms.KuramotoSivashinsky(n=1, length=2.0, c=0.5), 0.1),
    "ks-15": (ms.KuramotoSivashinsky(n=15, length=16.0, c=0.5), 0.1),
    "ks-127": (ms.KuramotoSivashinsky(n=127, length=128.0, c=0.8), 0.1),
    # 2 dx = 50 / 21, no power of two, so 1 / (2 dx) is inexact: a kernel
    # that divided by 2 dx where the array loop multiplies by 1 / (2 dx)
    # fails
    "ks-20": (ms.KuramotoSivashinsky(n=20, length=25.0, c=0.5), 0.1),
    "lorenz-28": (ms.Lorenz(rho=28.0), 0.005),
    "lorenz-40": (ms.Lorenz(rho=40.0), 0.005),
}


def _loops(monkeypatch, run):
    """run() on the compiled loop (the array loop without a compiler) and
    on the array loop, the reference."""
    compiled = _native.library() or False
    out = []
    for lib in (compiled, False):
        monkeypatch.setattr(_native, "_lib", lib)
        out.append(run())
    return out


class TestCompiledKSTangent:
    """The compiled KS tangent sweep against the array loop."""

    # the segments of each row; the 4 * 9 grouped rows fill blocks of the
    # sweep's 8 rows both within a segment and across two, and no pattern
    # fills whole blocks only
    ROWS = {
        "in_order": lambda k: np.arange(k),
        "gathered": lambda k: np.array([k - 1, 0, 2, 2, 1]),
        "grouped": lambda k: np.repeat(np.arange(k), 9),
        "one": lambda k: np.array([1]),
    }

    @pytest.fixture(params=sorted(n for n in COMPILED if n.startswith("ks")))
    def traj(self, request):
        system, h = COMPILED[request.param]
        u0 = np.random.default_rng(system.dim).uniform(0.0, 1.0, system.dim)
        return ms.integrate(system, u0, 0.0, 40 * h, h, stride=10)

    @pytest.mark.parametrize("forcing", [False, True])
    @pytest.mark.parametrize("rows", sorted(ROWS))
    def test_matches_array_loop(self, traj, rows, forcing, monkeypatch):
        # the compiled sweep and the array loop agree bit for bit at the
        # segment ends and on every trace row, over the whole segment or
        # in windows, whose last trace row is the end; so do the
        # source-fed adjoints
        segments = self.ROWS[rows](traj.n_segments)
        rng = np.random.default_rng(11)
        v = rng.standard_normal((segments.size, traj.system.dim))
        source = rng.standard_normal((traj.stride, *v.shape))
        assert _native.sweeps(traj) == (_native.library() is not None)

        def run():
            return [(*_traced(traj, segments, v, forcing,
                              width or traj.stride),
                     _fed(traj, segments, v, source, width or traj.stride))
                    for width in WIDTHS]

        out, ref = _loops(monkeypatch, run)
        end, trace, back = ref[0]
        assert np.array_equal(end, trace[-1])
        for got in out + ref:
            assert all(map(np.array_equal, got, (end, trace, back)))

    @pytest.mark.parametrize("case", ["no_library", "subclass"])
    def test_array_loop_gives_the_same_bits(self, ks_traj, case,
                                            monkeypatch):
        # without the library, and for a subclass that redefines a model
        # method, the sweep takes the array loop, with the compiled
        # sweep's rows
        n = ks_traj.system.dim
        segments = np.array([3, 0, 2, 2])
        v = np.random.default_rng(12).standard_normal((4, n))
        want = [timestep.tangent_sweep_many(ks_traj, segments, v,
                                            forcing=forcing)
                for forcing in (False, True)]
        traj = ks_traj
        if case == "no_library":
            monkeypatch.setattr(_native, "_lib", False)
        else:
            system = OwnTransposeKS(n, ks_traj.system.length,
                                    ks_traj.system.c)
            traj = ms.Trajectory(system, ks_traj.t_start, ks_traj.h,
                                 ks_traj.states, ks_traj.fvals,
                                 ks_traj.stride)
            traj._stages = ks_traj.stages()
        assert not _native.sweeps(traj)
        monkeypatch.setattr(_native, "sweep", None)  # C calls fail
        for forcing, end in zip((False, True), want):
            assert np.array_equal(timestep.tangent_sweep_many(
                traj, segments, v, forcing=forcing), end)


class TestCompiledLoop:
    @pytest.mark.parametrize("name", sorted(COMPILED))
    def test_matches_array_loop(self, name, monkeypatch):
        # end states and stored states equal the array loop's on a batch
        # of one row bit for bit, with and without stored states, checked
        # every step or every 64; integrate's fvals and stages, which
        # either loop keeps as it steps, equal its rhs and a fresh
        # stages() recompute
        system, h = COMPILED[name]
        n = 600
        u0 = np.random.default_rng(5).uniform(-1.0, 1.0, system.dim)
        ref_path = np.empty((n + 1, 1, system.dim))
        ref_path[0] = u0
        lib = _native.library() or False
        monkeypatch.setattr(_native, "_lib", False)
        timestep._rk4(system, u0[None, :], h, n, states=ref_path)
        monkeypatch.setattr(_native, "_lib", lib)
        for every in (1, 64):
            end = timestep._rk4(system, u0, h, n, check_every=every)
            states = np.empty((n + 1, system.dim))
            states[0] = u0
            timestep._rk4(system, u0, h, n, states, every)
            assert np.array_equal(end, ref_path[-1, 0])
            assert np.array_equal(states, ref_path[:, 0])

        traj, ref = _loops(
            monkeypatch, lambda: ms.integrate(system, u0, 0.0, n * h, h))
        assert np.array_equal(traj.states, ref_path[:, 0])
        assert np.array_equal(ref.states, ref_path[:, 0])
        assert ref.primal_loop == "numpy" and ref._stages is not None
        assert traj.primal_loop == ("compiled" if lib else "numpy")
        fresh = ms.Trajectory(system, 0.0, h, traj.states,
                              system.rhs(traj.states), 1)
        for got in (traj, ref):
            assert np.array_equal(got.fvals, fresh.fvals)
            assert all(map(np.array_equal, got.stages(), fresh.stages()))

    @pytest.mark.parametrize("name", sorted(COMPILED))
    def test_stack_matches_array_loop(self, name, monkeypatch):
        # a stack of states, 2-D or 3-D, steps each row as it steps
        # alone: end states, stored states, rhs values and stages are
        # np.array_equal to the lockstep array loop's and to each single
        # state's on the compiled loop
        system, h = COMPILED[name]
        compiled, n = _native.library() or False, 50

        def run(u):
            states = np.empty((n + 1, *u.shape))
            kept = (np.empty((n + 1, *u.shape)), *np.empty((3, n, *u.shape)))
            end = timestep._rk4(system, u, h, n, states, kept=kept)
            return [end[None], states[1:], *kept]

        rng = np.random.default_rng(14)
        for shape in ((3,), (2, 3)):
            u0 = rng.uniform(-1.0, 1.0, (*shape, system.dim))
            stack, ref = _loops(monkeypatch, lambda: run(u0))
            assert all(map(np.array_equal, stack, ref))
            monkeypatch.setattr(_native, "_lib", compiled)
            for i, u in enumerate(u0.reshape(-1, system.dim)):
                rows = [a.reshape(len(a), -1, system.dim)[:, i] for a in stack]
                assert all(map(np.array_equal, rows, run(u)))

    @pytest.mark.parametrize("name", ["ks-15", "lorenz-28"])
    def test_stack_steps_in_c(self, name, monkeypatch):
        # advance and the primal loop send an own-model stack to C: no
        # array-loop step runs while the library loads
        if _native.library() is None:
            pytest.skip("no C compiler")
        system, h = COMPILED[name]
        u0 = np.random.default_rng(15).uniform(-1.0, 1.0, (4, system.dim))
        compiled = _native.library()
        want = _loops(monkeypatch, lambda: ms.advance(system, u0, 0.0, 2.0,
                                                      h))[1]

        def array_step(*args):
            raise AssertionError("an array-loop step ran")

        monkeypatch.setattr(_native, "_lib", compiled)
        monkeypatch.setattr(timestep, "rk4_kernel", array_step)
        assert np.array_equal(ms.advance(system, u0, 0.0, 2.0, h), want)

    def test_stack_tables_checked(self):
        # the C loop fills a stack's tables of the stack's shape, and
        # rejects a table of the wrong shape or layout before any step
        if _native.library() is None:
            pytest.skip("no C compiler")
        system, h = COMPILED["lorenz-28"]
        u = np.random.default_rng(16).uniform(-1.0, 1.0, (2, 3))
        states = np.empty((11, 2, 3))
        end = _native.rk4(system, u, h, 10, states)
        assert np.array_equal(states[-1], end)
        for bad in (np.empty((11, 3)), np.empty((11, 3, 2)),
                    np.empty((11, 3, 2)).swapaxes(1, 2)):
            with pytest.raises(ms.DimensionMismatch):
                _native.rk4(system, u, h, 10, bad)
        kept = (np.empty((10, 2, 3)), *np.empty((3, 10, 2, 3)))
        with pytest.raises(ms.DimensionMismatch):
            _native.rk4(system, u, h, 10, kept=kept)

    def test_library_exports_three_entries(self):
        # one primal loop, one sweep and the band eigensolver; the model,
        # the direction and the forcing are arguments
        lib = _native.library()
        if lib is None:
            pytest.skip("no C compiler")
        assert all(hasattr(lib, name) for name in ("primal", "sweep",
                                                   "band_eigh"))
        assert not any(hasattr(lib, f"{model}_{loop}")
                       for model in ("lorenz", "ks")
                       for loop in ("rk4", "tangent", "adjoint"))

    def test_check_every_must_be_positive(self):
        system = COMPILED["ks-15"][0]
        for u0 in (np.zeros(system.dim), np.zeros((2, system.dim))):
            with pytest.raises(ValueError):
                timestep._rk4(system, u0, 0.1, 10, check_every=0)

    @pytest.mark.parametrize("start, n, every", [
        ("nan", 100, 1), ("nan", 100, 64), ("large", 200, 1),
        ("large", 200, 7), ("large", 200, 64), ("large", 50, 64),
        ("stack", 200, 1), ("stack", 200, 7), ("stack", 50, 64),
    ])
    @pytest.mark.parametrize("name", ["ks-15", "lorenz-40"])
    def test_divergence_step_matches(self, name, start, n, every,
                                     monkeypatch):
        # a NaN start fails at the first check; a large state blows up
        # after some steps, reported at the next check or after the last
        # step, on both loops alike, and so does a stack whose middle
        # row blows up, the compiled loop running no array-loop step
        system = COMPILED[name][0]
        u0 = np.full(system.dim, np.nan if start == "nan" else 1e3)
        if start == "stack":
            u0 = np.stack([np.zeros(system.dim), u0, np.ones(system.dim)])
        compiled, kernels = _native.library() is not None, []

        def kernel(*args):
            kernels.append(_native._lib)  # the library an array loop ran under
            return rk4_kernel(*args)

        def run():
            with pytest.raises(DivergenceError) as err:
                timestep._rk4(system, u0, 0.01, n, check_every=every)
            return err.value.step

        monkeypatch.setattr(timestep, "rk4_kernel", kernel)
        steps = _loops(monkeypatch, run)
        assert steps[0] == steps[1]
        assert kernels == [False] * (1 if compiled else 2)
        if start == "nan":
            assert steps[0] == 1

    def test_fallback_without_compiler(self, monkeypatch, tmp_path):
        # no cached library and a failed compiler lookup leave the array
        # loop, with the same outputs
        system = COMPILED["ks-15"][0]
        u0 = np.random.default_rng(6).uniform(-1.0, 1.0, system.dim)
        end = ms.advance(system, u0, 0.0, 5.0, 0.1)
        traj = ms.integrate(system, u0, 0.0, 5.0, 0.1)
        monkeypatch.setattr(_native, "_path",
                            lambda: str(tmp_path / "__pycache__" / "rk4.so"))
        monkeypatch.setattr(_native, "_compiler", lambda: None)
        monkeypatch.setattr(_native, "_lib", None)
        ref_end = ms.advance(system, u0, 0.0, 5.0, 0.1)
        ref = ms.integrate(system, u0, 0.0, 5.0, 0.1)
        assert _native.library() is None and ref.primal_loop == "numpy"
        assert np.array_equal(end, ref_end)
        assert np.array_equal(traj.states, ref.states)
        assert np.array_equal(traj.fvals, ref.fvals)
        assert all(map(np.array_equal, traj.stages(), ref.stages()))

    def test_unwritable_cache_falls_back(self, monkeypatch, tmp_path):
        # a cache folder that cannot be made leaves the array loop; the
        # library is written nowhere else
        blocker = tmp_path / "file"
        blocker.write_text("")
        shared = sorted(Path(tempfile.gettempdir()).glob("msshadow_rk4_*"))
        monkeypatch.setattr(_native, "_path",
                            lambda: str(blocker / "__pycache__" / "rk4.so"))
        monkeypatch.setattr(_native, "_lib", None)
        assert _native.library() is None
        assert not _native.serves(COMPILED["lorenz-28"][0])
        assert sorted(Path(tempfile.gettempdir()).glob(
            "msshadow_rk4_*")) == shared
        assert list(tmp_path.iterdir()) == [blocker]

    def test_compiles_into_an_empty_cache(self, monkeypatch, tmp_path):
        # the first load compiles through a temporary name, left behind
        # by neither a good build nor a failed one
        if _native.library() is None:
            pytest.skip("no C compiler")
        system, h = COMPILED["ks-127"]
        u0 = np.random.default_rng(7).uniform(-1.0, 1.0, system.dim)
        want = ms.advance(system, u0, 0.0, 20.0, h)
        path = tmp_path / "__pycache__" / "rk4.so"
        monkeypatch.setattr(_native, "_path", lambda: str(path))
        monkeypatch.setattr(_native, "_lib", None)
        assert _native.library() is not None
        assert list(path.parent.iterdir()) == [path]
        assert np.array_equal(ms.advance(system, u0, 0.0, 20.0, h), want)
        monkeypatch.setattr(_native, "_SOURCE", "not C")
        monkeypatch.setattr(_native, "_lib", None)
        path.unlink()
        assert _native.library() is None
        assert list(path.parent.iterdir()) == []

    def test_build_prunes_stale_libraries(self, monkeypatch, tmp_path):
        # a build removes the libraries of other sources and flags from its
        # folder, and nothing else
        if _native.library() is None:
            pytest.skip("no C compiler")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        keep = ["msshadow_rk4_0000000a.so.77.tmp", "notes.so", "other_1.so"]
        for name in ["msshadow_rk4_00000001.so", "msshadow_rk4_00000002.so",
                     *keep]:
            (cache / name).write_text("")
        path = cache / "msshadow_rk4_0000000a.so"
        monkeypatch.setattr(_native, "_path", lambda: str(path))
        monkeypatch.setattr(_native, "_lib", None)
        assert _native.library() is not None
        assert sorted(p.name for p in cache.iterdir()) == sorted(
            [path.name, *keep])

    def test_builds_without_isa_clones(self, monkeypatch, tmp_path):
        # with the clone guard off the source builds as plain C, with no
        # load-time resolver, and its sweeps give the same bits
        if _native.library() is None:
            pytest.skip("no C compiler")
        traj = _ks_trajectory(127, 0.1)
        v = np.random.default_rng(13).standard_normal((3, 127))
        want = [timestep.tangent_sweep_many(traj, [2, 0, 2], v,
                                            forcing=forcing)
                for forcing in (False, True)]
        guard = "#if defined(__GNUC__)"
        assert _native._SOURCE.count(guard) == 1
        path = tmp_path / "__pycache__" / "plain.so"
        monkeypatch.setattr(_native, "_SOURCE", _native._SOURCE.replace(
            guard, "#if 0 && defined(__GNUC__)"))
        monkeypatch.setattr(_native, "_path", lambda: str(path))
        monkeypatch.setattr(_native, "_lib", None)
        assert _native.library() is not None
        assert b"ks_tangent.resolver" not in path.read_bytes()
        for forcing, end in zip((False, True), want):
            assert np.array_equal(timestep.tangent_sweep_many(
                traj, [2, 0, 2], v, forcing=forcing), end)

    def test_second_load_reuses_cached_file(self, monkeypatch):
        # a warm cache is loaded without starting, or even looking up,
        # the compiler
        if _native.library() is None:
            pytest.skip("no C compiler: nothing is cached")

        def no_compile(*args):
            raise AssertionError("compiler looked up on a warm cache")

        monkeypatch.setattr(_native, "_build", no_compile)
        monkeypatch.setattr(_native, "_compiler", no_compile)
        monkeypatch.setattr(_native, "_lib", None)
        assert _native.library() is not None

    @pytest.mark.parametrize("own, base, h", [
        (DampedLorenz(rho=28.0), ms.Lorenz(rho=28.0), 0.005),
        (DampedKS(n=15, length=16.0, c=0.5),
         ms.KuramotoSivashinsky(n=15, length=16.0, c=0.5), 0.1),
    ], ids=["lorenz", "ks"])
    def test_subclass_rhs_is_integrated(self, own, base, h):
        # a subclass that redefines rhs integrates its own dynamics on a
        # single state too, not its base class's
        u0 = np.random.default_rng(8).uniform(-1.0, 1.0, own.dim)
        single = ms.advance(own, u0, 0.0, 3.0, h)
        batch = ms.advance(own, u0[None, :], 0.0, 3.0, h)
        assert np.array_equal(single, batch[0])
        assert not np.allclose(single, ms.advance(base, u0, 0.0, 3.0, h))
        assert ms.integrate(own, u0, 0.0, 3.0, h).primal_loop == "numpy"


_COLD_REQUEST = """\
import json, sys
import numpy as np
from msshadow import KuramotoSivashinsky, advance, integrate, xcli


def loaded():
    return [m for m in ("hashlib", "subprocess", "sysconfig")
            if m in sys.modules]


# the primal loops alone, before a request loads numpy.random, which
# imports hashlib itself (through secrets and hmac)
system = KuramotoSivashinsky(n=31, length=32.0, c=0.5)
integrate(system, advance(system, np.ones(31), 0.0, 1.0, 0.02), 0.0, 1.0,
          0.02)
loops = loaded()
cfg = xcli.ExperimentConfig(
    model="ks", n=31, length=32.0, c=0.5, spin_up=2.0, window=2.0,
    segment=0.2, step=0.02, rank=2, cycles=1, max_iter=20)
result = xcli.run_experiment(cfg, out_dir=sys.argv[1])
print(json.dumps({
    "primal_loop": dict(xcli.summarize(result))["primal_loop"],
    "loops": loops,
    "request": loaded(),
}))
"""


def test_cold_request_on_warm_cache_starts_no_compiler(tmp_path):
    # a fresh interpreter finds the compiled loop cached: its primal loops
    # load neither hashlib (megabytes of resident memory) nor subprocess
    # and sysconfig (the compile path only), and a cold request does not
    # load subprocess
    compiled = _native.library() is not None
    src = Path(ms.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_REQUEST, str(tmp_path)], env=env,
        capture_output=True, text=True, check=True, timeout=300)
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["primal_loop"] == ("compiled" if compiled else "numpy")
    assert "hashlib" not in got["loops"]
    if compiled:
        assert got["loops"] == []
        assert "subprocess" not in got["request"]

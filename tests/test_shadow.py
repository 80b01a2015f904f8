import tracemalloc

import numpy as np
import pytest

import msshadow as ms
from msshadow import _native, analysis, shadow, timestep
from msshadow.errors import DegenerateProjectorError, DimensionMismatch


class TestProjector:
    def test_annihilates_flow(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(5)
        out = ms.project_off_flow(f, f.copy())
        assert np.linalg.norm(out) <= 1e-14 * np.linalg.norm(f)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(5)
        x = rng.standard_normal(5)
        once = ms.project_off_flow(f, x)
        twice = ms.project_off_flow(f, once)
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-15)

    def test_axis_projection(self):
        out = ms.project_off_flow(np.array([1.0, 0.0, 0.0]),
                                  np.array([2.0, 3.0, 4.0]))
        np.testing.assert_array_equal(out, [0.0, 3.0, 4.0])

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal(4)
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        assert ms.project_off_flow(f, x) @ y == pytest.approx(
            x @ ms.project_off_flow(f, y), rel=1e-13)

    def test_degenerate_flow(self):
        with pytest.raises(DegenerateProjectorError):
            ms.project_off_flow(np.zeros(3), np.ones(3))


class TestSegmentPropagator:
    def test_result_orthogonal_to_end_flow(self, lorenz_traj):
        # along-flow input is (nearly) annihilated, so scale the check by
        # the unprojected sweep magnitude
        led = ms.CostLedger()
        z = 0.7 * lorenz_traj.fvals[lorenz_traj.stride]
        out = ms.propagate_segment(lorenz_traj, led, 1, z)
        raw = ms.tangent_sweep(lorenz_traj, 1, z)
        f_end = lorenz_traj.fvals[2 * lorenz_traj.stride]
        scale = np.linalg.norm(raw) * np.linalg.norm(f_end)
        assert abs(out @ f_end) <= 1e-12 * scale
        assert np.linalg.norm(out) <= 1e-5 * np.linalg.norm(raw)
        assert led.forward == 1 and led.adjoint == 0

    def test_duality(self, ks_traj):
        led = ms.CostLedger()
        rng = np.random.default_rng(3)
        z = rng.standard_normal(31)
        y = rng.standard_normal(31)
        fz = ms.propagate_segment(ks_traj, led, 2, z)
        bty = ms.propagate_segment_adjoint(ks_traj, led, 2, y)
        assert fz @ y == pytest.approx(z @ bty, rel=1e-12)
        assert led.snapshot() == (1, 1)

    def test_index_range(self, lorenz_traj):
        led = ms.CostLedger()
        with pytest.raises(IndexError):
            ms.propagate_segment(lorenz_traj, led, lorenz_traj.n_segments,
                                 np.zeros(3))


class TestBlockOperators:
    def test_zero_stack(self, lorenz_traj):
        led = ms.CostLedger()
        k, n = lorenz_traj.n_segments, 3
        out = ms.constraint_apply(lorenz_traj, led, np.zeros((k + 1, n)))
        assert np.array_equal(out, np.zeros((k, n)))

    @pytest.mark.parametrize("fixture", ["lorenz", "ks"])
    def test_constraint_duality(self, fixture, lorenz_traj, ks_traj):
        traj = lorenz_traj if fixture == "lorenz" else ks_traj
        k, n = traj.n_segments, traj.system.dim
        led = ms.CostLedger()
        rng = np.random.default_rng(4)
        v = rng.standard_normal((k + 1, n))
        w = rng.standard_normal((k, n))
        av = ms.constraint_apply(traj, led, v)
        atw = ms.constraint_transpose_apply(traj, led, w)
        lhs = (av * w).sum()
        rhs = (v * atw).sum()
        scale = np.linalg.norm(v) * np.linalg.norm(w) * max(
            np.linalg.norm(av) / np.linalg.norm(v), 1.0)
        assert abs(lhs - rhs) <= 1e-12 * scale

    def test_dense_oracle_consistency(self, lorenz28):
        # K=4 instance: dense assembly through unit stacks matches the
        # transpose path row by row
        u0 = ms.advance(lorenz28, np.ones(3), -10.0, 0.0, 0.002)
        traj = ms.integrate(lorenz28, u0, 0.0, 2.0, 0.002, stride=250)
        assert traj.n_segments == 4
        led = ms.CostLedger()
        a = analysis.dense_constraint_matrix(traj, led)
        k, n = 4, 3
        at = np.empty((n * (k + 1), n * k))
        unit = np.zeros((k, n))
        flat = unit.reshape(-1)
        for r in range(n * k):
            flat[r] = 1.0
            at[:, r] = ms.constraint_transpose_apply(traj, led, unit).reshape(-1)
            flat[r] = 0.0
        np.testing.assert_allclose(at, a.T, rtol=0, atol=1e-13 * np.abs(a).max())

    def test_schur_spd_and_symmetric(self, ks_traj):
        led = ms.CostLedger()
        k, n = ks_traj.n_segments, 31
        rng = np.random.default_rng(5)
        w1 = rng.standard_normal((k, n))
        w2 = rng.standard_normal((k, n))
        s1 = ms.schur_apply(ks_traj, led, w1)
        s2 = ms.schur_apply(ks_traj, led, w2)
        assert (s1 * w1).sum() > 0
        lhs = (s1 * w2).sum()
        rhs = (w1 * s2).sum()
        assert abs(lhs - rhs) <= 1e-11 * abs(lhs)

    def test_schur_ledger_cost(self, lorenz_traj):
        led = ms.CostLedger()
        k = lorenz_traj.n_segments
        ms.schur_apply(lorenz_traj, led, np.zeros((k, 3)))
        assert led.snapshot() == (k, k)

    def test_block_count_mismatch(self, lorenz_traj):
        led = ms.CostLedger()
        with pytest.raises(DimensionMismatch):
            ms.constraint_apply(lorenz_traj, led, np.zeros((3, 3)))


class ZeroForcing(ms.Lorenz):
    """Lorenz variant whose rhs does not depend on the parameter."""

    def param_deriv(self, u):
        return np.zeros_like(u)


class TestRhsAssembly:
    def test_blocks_orthogonal_to_flow(self, lorenz_traj):
        led = ms.CostLedger()
        b = ms.assemble_rhs(lorenz_traj, led)
        for i in range(lorenz_traj.n_segments):
            f = lorenz_traj.fvals[(i + 1) * lorenz_traj.stride]
            assert abs(b[i] @ f) <= 1e-12 * np.linalg.norm(b[i]) * np.linalg.norm(f)
        assert led.snapshot() == (lorenz_traj.n_segments, 0)

    def test_zero_forcing_gives_zero_rhs(self, lorenz_traj):
        system = ZeroForcing(rho=28.0)
        traj = ms.Trajectory(system, lorenz_traj.t_start, lorenz_traj.h,
                             lorenz_traj.states, lorenz_traj.fvals,
                             lorenz_traj.stride)
        led = ms.CostLedger()
        b = ms.assemble_rhs(traj, led)
        assert np.array_equal(b, np.zeros_like(b))

    def test_bitwise_reproducible(self, lorenz_traj):
        led = ms.CostLedger()
        b1 = ms.assemble_rhs(lorenz_traj, led)
        b2 = ms.assemble_rhs(lorenz_traj, led)
        assert np.array_equal(b1, b2)
        assert np.isfinite(b1).all()


class TestRecoveryAndSensitivity:
    def test_zero_multipliers(self, lorenz_traj):
        led = ms.CostLedger()
        k = lorenz_traj.n_segments
        v = ms.recover_checkpoints(lorenz_traj, led, np.zeros((k, 3)))
        assert np.array_equal(v, np.zeros((k + 1, 3)))

    def test_matches_pseudoinverse(self, lorenz28):
        # tiny instance solved to near round-off matches A^+ b
        u0 = ms.advance(lorenz28, np.ones(3), -10.0, 0.0, 0.002)
        traj = ms.integrate(lorenz28, u0, 0.0, 2.0, 0.002, stride=125)
        led = ms.CostLedger()
        b = ms.assemble_rhs(traj, led)
        cfg = ms.SolveConfig(tol=1e-13, max_iter=2000, gamma=0.0, mode="none")
        w, rep = ms.cg_solve(lambda z: ms.schur_apply(traj, led, z), b, cfg)
        assert rep.converged
        v = ms.recover_checkpoints(traj, led, w)
        a = analysis.dense_constraint_matrix(traj, led)
        v_pinv = np.linalg.pinv(a) @ b.reshape(-1)
        assert np.linalg.norm(v.reshape(-1) - v_pinv) <= 1e-8 * np.linalg.norm(v_pinv)

    def test_residual_identity(self, lorenz_traj):
        led = ms.CostLedger()
        b = ms.assemble_rhs(lorenz_traj, led)
        cfg = ms.SolveConfig(tol=1e-8, max_iter=500, gamma=0.0, mode="none")
        w, rep = ms.cg_solve(lambda z: ms.schur_apply(lorenz_traj, led, z), b, cfg)
        v = ms.recover_checkpoints(lorenz_traj, led, w)
        res = np.linalg.norm(ms.constraint_apply(lorenz_traj, led, v) - b)
        res /= np.linalg.norm(b)
        assert res == pytest.approx(rep.residuals[-1], rel=1e-6, abs=1e-12)

    def test_zero_solution_zero_forcing(self, lorenz_traj):
        system = ZeroForcing(rho=28.0)
        traj = ms.Trajectory(system, lorenz_traj.t_start, lorenz_traj.h,
                             lorenz_traj.states, lorenz_traj.fvals,
                             lorenz_traj.stride)
        k = traj.n_segments
        sens = ms.evaluate_sensitivity(traj, ms.LorenzZ(), np.zeros((k + 1, 3)))
        assert sens == 0.0


def _one_stack_sensitivity(traj, objective, v):
    """Reference: the forced-tangent sweep of a single (K+1, N) stack."""
    k = traj.n_segments
    h = traj.h
    offs = np.arange(k) * traj.stride
    j_vals = objective.value(traj.states)
    j_bar = np.trapezoid(j_vals, dx=h) / traj.span
    s2, s3, s4 = traj.stages()
    vv = v[:k].copy()
    acc = 0.5 * h * (objective.gradient(traj.states[offs]) * vv).sum(axis=-1)
    step = timestep.tangent_step(traj.system, h, vv.shape, forcing=True)
    for j in range(traj.stride):
        idx = offs + j
        step(vv, (traj.states[idx], s2[idx], s3[idx], s4[idx]))
        wq = h if j < traj.stride - 1 else 0.5 * h
        acc += wq * (objective.gradient(traj.states[idx + 1]) * vv).sum(axis=-1)
    f_end = traj.fvals[offs + traj.stride]
    j_end = j_vals[offs + traj.stride]
    corr = (f_end * vv).sum(axis=-1) / (f_end * f_end).sum(axis=-1) * (j_bar - j_end)
    return (acc.sum() + corr.sum()) / traj.span + objective.param_deriv


class TestBatchedSensitivity:
    @pytest.fixture(params=["lorenz_traj", "ks_traj"])
    def case(self, request):
        traj = request.getfixturevalue(request.param)
        objective = (ms.LorenzZ() if traj.system.dim == 3
                     else ms.SpatialMeanSquare(traj.system))
        rng = np.random.default_rng(12)
        stacks = rng.standard_normal((5, traj.n_segments + 1, traj.system.dim))
        return traj, objective, stacks

    def test_single_stack_returns_reference_float(self, case):
        traj, objective, stacks = case
        for v in stacks:
            sens = ms.evaluate_sensitivity(traj, objective, v)
            assert isinstance(sens, float)
            assert sens == _one_stack_sensitivity(traj, objective, v)

    def test_wrong_stack_shape(self, case):
        traj, objective, stacks = case
        for bad in (stacks, stacks[0, :-1], stacks[0, :, :-1], stacks[None],
                    stacks[0, 0]):
            with pytest.raises(DimensionMismatch):
                ms.evaluate_sensitivity(traj, objective, bad)

    def test_functional_matches_forward_sweep(self, case, monkeypatch):
        # KS runs with SpatialMeanSquare, whose gradient depends on the
        # state, so a gradient taken at the wrong step shows
        traj, objective, _ = case
        traj = _fresh(traj)
        stacks = np.random.default_rng(13).standard_normal(
            (24, traj.n_segments + 1, traj.system.dim))

        def charged(self, n=1):
            raise AssertionError("the sensitivity functional charged a ledger")

        monkeypatch.setattr(ms.CostLedger, "charge_forward", charged)
        monkeypatch.setattr(ms.CostLedger, "charge_adjoint", charged)
        weights = shadow.sensitivity_functional(traj, objective)
        monkeypatch.undo()
        # s0 comes with the right-hand side, from the same forced sweep
        led = ms.CostLedger()
        b, s0 = ms.assemble_rhs(traj, led, objective)
        assert np.array_equal(b, ms.assemble_rhs(traj, led))
        assert weights.shape == (traj.n_segments + 1, traj.system.dim)
        assert (weights[-1] == 0.0).all()
        functional = s0 + (stacks * weights).sum(axis=(1, 2)) / traj.span
        for v, value in zip(stacks, functional):
            ref = ms.evaluate_sensitivity(traj, objective, v)
            assert abs(value - ref) <= 1e-13 * abs(ref)
        assert s0 == ms.evaluate_sensitivity(traj, objective, 0.0 * stacks[0])


def _step_loop(traj, objective, v):
    """The per-step loop that the chunked tables replaced, the reference
    they match bit for bit: (the forced rows at the segment ends from the
    rows v (K, N), the sensitivity of _forced_sweep, the weights of
    sensitivity_functional), each step's quadrature term or adjoint
    source added in Python right after the step."""
    k, n, h, stride = (traj.n_segments, traj.system.dim, traj.h,
                       traj.stride)
    segments = np.arange(k)
    rows = timestep._stage_rows(traj, segments)
    dot, grad = objective.gradient_dot, objective.gradient
    v = v.copy()
    acc = 0.5 * h * dot(traj.states[segments * stride], v)
    after = traj.states[1:].reshape(k, stride, -1)
    step = timestep.tangent_step(traj.system, h, v.shape, forcing=True)
    for j in range(stride):
        step(v, rows(j))
        acc += (h if j < stride - 1 else 0.5 * h) * dot(after[:, j], v)
    f_end, ff, dj = shadow._end_correction(traj, objective)
    corr = (f_end * v).sum(axis=-1) / ff * dj
    sens = (acc.sum() + corr.sum()) / traj.span + objective.param_deriv
    starts = traj.states[:-1].reshape(k, stride, -1)
    w = (0.5 * h * grad(traj.states[stride::stride])
         + (dj / ff)[:, None] * f_end)
    for j in range(stride - 1, -1, -1):
        w = timestep.adjoint_step_at(traj.system, h, *rows(j), w)
        w += (h if j else 0.5 * h) * grad(starts[:, j])
    a = np.zeros((k + 1, n))
    a[:k] = w
    return v, sens, a


class TestChunkedTables:
    """The forced quadrature and the functional's source, taken a chunk
    of steps at a time as one table, against the per-step loop."""

    OBJECTIVES = {
        "lorenz-z": ("lorenz_traj", lambda system: ms.LorenzZ()),
        "ks-mean": ("ks_traj", ms.SpatialMean),
        # a gradient that depends on the state, so a table row taken at
        # the wrong step shows
        "ks-square": ("ks_traj", ms.SpatialMeanSquare),
    }

    @pytest.mark.parametrize("steps", [1, 7, None])
    @pytest.mark.parametrize("case", sorted(OBJECTIVES))
    def test_matches_step_loop(self, request, case, steps, monkeypatch):
        # b, s0, a stack's sensitivity and the weights are np.array_equal
        # to the step loop's, on the compiled sweeps and the array loops,
        # in chunks of one step, of 7 (no divisor of the stride) and of
        # the default bound
        name, make = self.OBJECTIVES[case]
        traj = request.getfixturevalue(name)
        objective = make(traj.system)
        k, n = traj.n_segments, traj.system.dim
        if steps:
            monkeypatch.setattr(timestep, "_TABLE", steps * k * n)
        stack = np.random.default_rng(14).standard_normal((k + 1, n))
        end, s0, weights = _step_loop(traj, objective, np.zeros((k, n)))
        b = ms.project_off_flow(shadow._endpoint_f(traj, np.arange(k)), end)
        sens = _step_loop(traj, objective, stack[:-1])[1]
        for lib in (_native.library() or False, False):
            monkeypatch.setattr(_native, "_lib", lib)
            got_b, got_s0 = ms.assemble_rhs(traj, ms.CostLedger(), objective)
            assert np.array_equal(got_b, b) and got_s0 == s0
            assert ms.evaluate_sensitivity(traj, objective, stack) == sens
            assert np.array_equal(
                shadow.sensitivity_functional(traj, objective), weights)

    @pytest.mark.parametrize("steps", [7, None])
    def test_one_library_call_per_chunk(self, lorenz_traj, ks_traj, steps,
                                        monkeypatch):
        # a forced rhs sweep with the quadrature, and the functional's
        # adjoint sweep, call the library once per chunk of g steps:
        # ceil(stride / g) calls, one on these fixtures at the default
        # bound
        if _native.library() is None:
            pytest.skip("no C compiler")
        calls = []
        sweep = _native.sweep

        def counted(*args, **kwargs):
            calls.append(args[4])
            return sweep(*args, **kwargs)

        monkeypatch.setattr(_native, "sweep", counted)
        square = ms.SpatialMeanSquare(ks_traj.system)
        for traj, objective in ((lorenz_traj, ms.LorenzZ()),
                                (ks_traj, square)):
            k, n, stride = traj.n_segments, traj.system.dim, traj.stride
            if steps:
                monkeypatch.setattr(timestep, "_TABLE", steps * k * n)
            g = max(1, timestep._TABLE // (k * n))
            runs = (lambda: ms.assemble_rhs(traj, ms.CostLedger(), objective),
                    lambda: shadow.sensitivity_functional(traj, objective))
            for run in runs:
                calls.clear()
                run()
                assert len(calls) == -(-stride // g) == (stride // 7 + 1
                                                        if steps else 1)
                assert sum(calls) == stride


def _fresh(traj):
    """The same stored trajectory without cached propagators."""
    return timestep.Trajectory(traj.system, traj.t_start, traj.h,
                               traj.states, traj.fvals, traj.stride)


def _spy_sweeps(monkeypatch):
    """Record (kind, rows) of every tangent and adjoint sweep."""
    sweeps = []
    sweep, adjoint = timestep.tangent_sweep_many, timestep.adjoint_sweep_many

    def tangent_spy(traj, segments, z, forcing=False):
        sweeps.append(("tangent", len(segments)))
        return sweep(traj, segments, z, forcing=forcing)

    def adjoint_spy(traj, segments, z):
        sweeps.append(("adjoint", len(segments)))
        return adjoint(traj, segments, z)

    monkeypatch.setattr(timestep, "tangent_sweep_many", tangent_spy)
    monkeypatch.setattr(timestep, "adjoint_sweep_many", adjoint_spy)
    return sweeps


class TestPropagatorMatrices:
    def test_over_budget_stays_matrix_free(self, lorenz28, monkeypatch):
        # with N * N * K above _MATRIX_BUDGET, a trajectory sweeps every
        # product for its whole life (here 10N products per segment); its
        # products agree with the matrix products of a trajectory within
        # the budget to round-off, and the ledger counts every product
        # once either way
        u0 = ms.advance(lorenz28, np.ones(3), -10.0, 0.0, 0.002)
        traj = ms.integrate(lorenz28, u0, 0.0, 3.0, 0.002, stride=500)
        k, n = traj.n_segments, 3
        rng = np.random.default_rng(6)
        w = rng.standard_normal((k, n))
        dense_traj = _fresh(traj)
        dense_led = ms.CostLedger()
        dense = ms.schur_apply(dense_traj, dense_led, w)
        assert dense_traj._propagators is not None
        assert dense_led.snapshot() == (k, k)

        monkeypatch.setattr(shadow, "_MATRIX_BUDGET", n * n * k - 1)
        led = ms.CostLedger()
        calls = 5 * n
        for _ in range(calls):
            swept = ms.schur_apply(traj, led, w)
            assert traj._propagators is None
        assert led.snapshot() == (calls * k, calls * k)
        np.testing.assert_allclose(dense, swept, rtol=0,
                                   atol=1e-12 * np.abs(swept).max())

        z = rng.standard_normal(n)
        y = rng.standard_normal(n)
        for t in (traj, dense_traj):
            fz = ms.propagate_segment(t, led, 1, z)
            bty = ms.propagate_segment_adjoint(t, led, 1, y)
            assert fz @ y == pytest.approx(z @ bty, rel=1e-12)
            np.testing.assert_allclose(
                fz, ms.project_off_flow(t.fvals[2 * t.stride],
                                        ms.tangent_sweep(t, 1, z)),
                rtol=0, atol=1e-12 * np.linalg.norm(fz))
        assert traj._propagators is None

    def test_first_product_from_matrices_when_build_is_one_batch(
            self, lorenz_traj, monkeypatch):
        # the first Schur product builds the matrices, one sweep of the N
        # unit rows of every segment, and multiplies by them, with no
        # adjoint sweep; it agrees with the swept product to round-off and
        # is charged K products of each kind
        k, n = lorenz_traj.n_segments, 3
        w = np.random.default_rng(2).standard_normal((k, n))
        traj = _fresh(lorenz_traj)
        sweeps = _spy_sweeps(monkeypatch)
        led = ms.CostLedger()
        dense = ms.schur_apply(traj, led, w)
        assert sweeps == [("tangent", k * n)]
        assert traj._propagators is not None
        assert led.snapshot() == (k, k)

        monkeypatch.setattr(shadow, "_MATRIX_BUDGET", n * n * k - 1)
        lazy = _fresh(lorenz_traj)
        swept = ms.schur_apply(lazy, ms.CostLedger(), w)
        assert lazy._propagators is None
        np.testing.assert_allclose(dense, swept, rtol=0,
                                   atol=1e-12 * np.abs(swept).max())

    def test_ks_within_budget_builds_at_first_product(self, monkeypatch):
        # N * N * K = 63 * 63 * 10 fits _MATRIX_BUDGET, so the first Schur
        # product builds the matrices from one sweep of the N unit rows of
        # every segment, and no product is ever swept
        ks = ms.KuramotoSivashinsky(n=63, length=64.0, c=0.5)
        u0 = np.random.default_rng(4).uniform(0.0, 1.0, 63)
        traj = ms.integrate(ks, u0, 0.0, 2.0, 0.02, stride=10)
        k, n = traj.n_segments, ks.dim
        assert n * n * k <= shadow._MATRIX_BUDGET
        w = np.random.default_rng(5).standard_normal((k, n))
        with monkeypatch.context() as m:
            m.setattr(shadow, "_MATRIX_BUDGET", n * n * k - 1)
            swept = ms.schur_apply(traj, ms.CostLedger(), w)
        assert traj._propagators is None
        sweeps = _spy_sweeps(monkeypatch)
        led = ms.CostLedger()
        dense = ms.schur_apply(traj, led, w)
        assert traj._propagators is not None
        assert led.snapshot() == (k, k)
        assert sweeps == [("tangent", k * n)]
        np.testing.assert_allclose(dense, swept, rtol=0,
                                   atol=1e-12 * np.abs(swept).max())

    def test_ks_subclass_model_built_from_its_own_sweeps(self, monkeypatch):
        # a subclass with its own Jacobian gets no compiled sweep: its
        # matrices come from one sweep of its own jacobian_apply over the
        # N unit rows of every segment, and equal its matrix-free
        # products to round-off
        class DampedKS(ms.KuramotoSivashinsky):
            def rhs(self, u):
                return super().rhs(u) - 0.5 * u

            def jacobian_apply(self, u, v):
                return super().jacobian_apply(u, v) - 0.5 * v

            def jacobian_transpose_apply(self, u, w):
                return super().jacobian_transpose_apply(u, w) - 0.5 * w

        ks = DampedKS(n=31, length=32.0, c=0.5)
        u0 = np.random.default_rng(7).uniform(0.0, 1.0, 31)
        traj = ms.integrate(ks, u0, 0.0, 2.0, 0.02, stride=10)
        k, n = traj.n_segments, ks.dim
        w = np.random.default_rng(8).standard_normal((k, n))
        with monkeypatch.context() as m:
            m.setattr(shadow, "_MATRIX_BUDGET", n * n * k - 1)
            swept = ms.schur_apply(traj, ms.CostLedger(), w)
        assert traj._propagators is None
        sweeps = _spy_sweeps(monkeypatch)
        dense = ms.schur_apply(traj, ms.CostLedger(), w)
        assert traj._propagators is not None
        np.testing.assert_allclose(dense, swept, rtol=0,
                                   atol=1e-12 * np.abs(swept).max())
        assert sweeps == [("tangent", k * n)]

    def test_grouped_rows_served_without_gather(self, ks_traj):
        # rows grouped p per segment, as the thick restart of the
        # preconditioner build passes them, equal the gathered products
        # and allocate no (K * p, N, N) copy of the matrices
        k, n, p = ks_traj.n_segments, ks_traj.system.dim, 5
        rows = np.repeat(np.arange(k), p)
        z = np.random.default_rng(8).standard_normal((k * p, n))
        led = ms.CostLedger()
        shadow._propagate_rows(ks_traj, led, rows, z)
        mats = ks_traj._propagators[rows]
        tracemalloc.start()
        try:
            fwd = shadow._propagate_rows(ks_traj, led, rows, z)
            adj = shadow._propagate_rows_adjoint(ks_traj, led, rows, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < k * p * n * n * 8
        np.testing.assert_array_equal(fwd, np.matmul(mats, z[:, :, None])[:, :, 0])
        np.testing.assert_array_equal(adj, np.matmul(z[:, None, :], mats)[:, 0, :])
        assert led.snapshot() == (2 * k * p, k * p)

    def test_build_in_batches_is_exact(self, ks_traj):
        # projecting the swept unit rows a few segments at a time gives
        # the same matrices as projecting all of them at once
        k, n = ks_traj.n_segments, ks_traj.system.dim
        segments = np.repeat(np.arange(k), n)
        out = timestep.tangent_sweep_many(ks_traj, segments,
                                          np.tile(np.eye(n), (k, 1)))
        out = ms.project_off_flow(shadow._endpoint_f(ks_traj, segments), out)
        whole = out.reshape(k, n, n).transpose(0, 2, 1)
        assert np.array_equal(shadow._build_propagators(ks_traj), whole)

    def test_column_build_equals_row_build(self, ks_traj, monkeypatch):
        # the KS matrices, swept in C, equal the array loop's row build
        # bit for bit, at N = 31, at N = 63 and at N = 20 on L = 25, whose
        # 1 / (2 dx) is inexact, so a kernel that divided by 2 dx fails,
        # and a second build in the same process repeats them
        trajs = [ks_traj]
        for n, length in ((63, 64.0), (20, 25.0)):
            ks = ms.KuramotoSivashinsky(n=n, length=length, c=0.5)
            u0 = np.random.default_rng(4).uniform(0.0, 1.0, n)
            trajs.append(ms.integrate(ks, u0, 0.0, 2.0, 0.02, stride=10))
        compiled = _native.library() or False
        for traj in trajs:
            mats = shadow._build_propagators(traj)
            assert np.array_equal(shadow._build_propagators(traj), mats)
            monkeypatch.setattr(_native, "_lib", False)
            assert np.array_equal(shadow._build_propagators(traj), mats)
            monkeypatch.setattr(_native, "_lib", compiled)

    def test_ks_build_transient(self):
        # at the benchmark's KS size (N = 127, K = 10, 100 steps) the
        # build holds beyond what it keeps no more than the colour-probe
        # build it replaced did: padded stage states (100, 4, N + 4),
        # probe buffers for N columns and three (N, N) blocks; the row
        # build holds the K N unit rows while it sweeps them into the
        # matrices, and a segment's projection after
        ks = ms.KuramotoSivashinsky(n=127, length=128.0, c=0.8)
        u0 = np.random.default_rng(5).uniform(0.0, 1.0, 127)
        traj = ms.integrate(ks, u0, 0.0, 100.0, 0.1, stride=100)
        traj.stages()
        tracemalloc.start()
        try:
            mats = shadow._build_propagators(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, stride = ks.dim, traj.stride
        kernel = (2 * (n + 4) + 4 * n) * n
        column_sweep = (stride * 4 * (n + 4) + kernel + 3 * n * n) * 8
        assert peak - mats.nbytes <= column_sweep

    @pytest.mark.parametrize("name", ["lorenz", "ks"])
    def test_rhs_and_functional_beside_built_matrices(self, lorenz28,
                                                      ks_traj, name):
        # a trajectory whose matrices are built gets the matrices of
        # another build, the rhs and s0 of the forced sweep, charged K
        # forward products, and the weights of a trajectory without
        # matrices, all bit for bit: the build leaves the functional alone
        if name == "lorenz":
            u0 = ms.advance(lorenz28, np.ones(3), -10.0, 0.0, 0.01)
            traj = ms.integrate(lorenz28, u0, 0.0, 10.0, 0.01, stride=100)
            objective = ms.LorenzZ()
        else:
            traj, objective = ks_traj, ms.SpatialMeanSquare(ks_traj.system)
        k, n = traj.n_segments, traj.system.dim
        forced, s0_ref = shadow._forced_sweep(traj, np.zeros((k, n)),
                                              objective)
        fresh = _fresh(traj)
        assert shadow.build_matrices(fresh)
        assert np.array_equal(fresh._propagators,
                              shadow._build_propagators(_fresh(traj)))
        led = ms.CostLedger()
        b, s0 = ms.assemble_rhs(fresh, led, objective)
        assert led.snapshot() == (k, 0)
        assert np.array_equal(b, ms.project_off_flow(
            shadow._endpoint_f(traj, np.arange(k)), forced))
        assert s0 == s0_ref
        assert np.array_equal(shadow.sensitivity_functional(fresh, objective),
                              shadow.sensitivity_functional(_fresh(traj),
                                                            objective))


class TestCostLedger:
    def test_monotone_and_total(self):
        led = ms.CostLedger()
        led.charge_forward(3)
        led.charge_adjoint()
        assert led.snapshot() == (3, 1)
        assert led.total == 4
        assert led.delta((1, 0)) == (2, 1)

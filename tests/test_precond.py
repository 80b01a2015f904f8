import numpy as np
import pytest

import msshadow as ms
from msshadow import analysis, precond, shadow


def block_diag(blocks):
    """The dense block-diagonal matrix of a (K, N, N) stack."""
    k, n, _ = blocks.shape
    return np.einsum("ij,iab->iajb", np.eye(k), blocks).reshape(k * n, k * n)


class TestLanczosPartialSVD:
    def test_injected_diagonal_operator(self):
        d = np.array([5.0, 2.0, 1.0])
        vals, left = precond.lanczos_partial_svd(
            lambda x: d * x, lambda x: d * x, 3, retained=1, cycles=3,
            rng=np.random.default_rng(0))
        assert vals[0] == pytest.approx(5.0, rel=1e-12)
        np.testing.assert_allclose(np.abs(left[:, 0]), [1.0, 0.0, 0.0],
                                   atol=1e-10)

    def test_injected_rectangularish_operator(self):
        rng = np.random.default_rng(1)
        mat = rng.standard_normal((8, 8))
        vals, left = precond.lanczos_partial_svd(
            lambda x: x @ mat.T, lambda x: x @ mat, 8, retained=3, cycles=8,
            rng=rng)
        ref = np.linalg.svd(mat, compute_uv=False)
        np.testing.assert_allclose(vals, ref[:3], rtol=1e-8)

    def test_zero_operator_no_error(self):
        vals, left = precond.lanczos_partial_svd(
            lambda x: np.zeros_like(x), lambda x: np.zeros_like(x), 5,
            retained=2, cycles=2, rng=np.random.default_rng(2))
        assert (vals == 0).all()

    def test_rank_deficient_operator_stops_at_breakdown(self):
        # rank 2 in dimension 8 with retained = 3, so subspace p = 5: both
        # sides of the range are spanned after two Lanczos steps, and the
        # later directions break down into zero columns, so the trailing
        # values are exactly 0 and the third mode is clamped
        d = np.array([3.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        vals, left = precond.lanczos_partial_svd(
            lambda x: d * x, lambda x: d * x, 8, retained=3, cycles=1,
            rng=np.random.default_rng(8))
        np.testing.assert_allclose(vals[:2], [3.0, 1.0], rtol=1e-12)
        assert vals[2] == 0.0
        arrays = precond._clamp(left[None], vals[None], 3)
        pc = precond.BlockDiagPreconditioner(*arrays, 3, 1)
        assert pc.clamped_modes == 1

    @pytest.mark.parametrize("cycles, expected", [(1, [3.0, 0.0]),
                                                  (2, [3.0, 1.0])],
                             ids=["one_cycle", "two_cycles"])
    def test_invariant_start_vector(self, cycles, expected):
        # the start vector e_0 spans an invariant subspace, so the first
        # adjoint step breaks down and the recursion finds 3 alone; the
        # thick restart's QR refills the dead directions and recovers 1
        class SpanRng:
            def standard_normal(self, shape):
                out = np.zeros(shape)
                out[..., 0] = 1.0
                return out

        d = np.array([3.0, 1.0, 0.0, 0.0])
        vals, _ = precond.lanczos_partial_svd(
            lambda x: d * x, lambda x: d * x, 4, retained=2, cycles=cycles,
            rng=SpanRng())
        np.testing.assert_allclose(vals, expected, rtol=1e-12, atol=0)

    def test_lorenz_segment_matches_dense(self, lorenz_traj):
        led = ms.CostLedger()
        pc = ms.build_preconditioner(lorenz_traj, led, 1, 2,
                                     rng=np.random.default_rng(3))
        ref = np.linalg.svd(shadow.segment_propagators(lorenz_traj),
                            compute_uv=False)
        np.testing.assert_allclose(pc.values[:, 0], ref[:, 0], rtol=1e-8)

    def test_segment_ledger_exact(self, lorenz_traj):
        # subspace l + 2 = 3 over 2 cycles: 6 products of each kind per
        # segment
        led = ms.CostLedger()
        ms.build_preconditioner(lorenz_traj, led, 1, 2,
                                rng=np.random.default_rng(4))
        per = lorenz_traj.n_segments * 2 * 3
        assert led.snapshot() == (per, per)

    def test_build_ledger_exact(self, ks_traj):
        led = ms.CostLedger()
        retained, cycles = 4, 3
        ms.build_preconditioner(ks_traj, led, retained, cycles,
                                rng=np.random.default_rng(5))
        per = ks_traj.n_segments * cycles * (retained + 2)
        assert led.snapshot() == (per, per)

    def test_retained_out_of_range(self, lorenz_traj):
        led = ms.CostLedger()
        with pytest.raises(ValueError):
            ms.build_preconditioner(lorenz_traj, led, 4, 1)

    def test_ks_segment_values_match_dense(self, ks_traj):
        # trailing values sit in the near-unity cluster and converge
        # slowly, so only the leading values get a tight tolerance; in
        # other segments than 1 they miss even the loose one
        led = ms.CostLedger()
        pc = ms.build_preconditioner(ks_traj, led, 3, 6,
                                     rng=np.random.default_rng(6))
        ref = np.linalg.svd(shadow.segment_propagators(ks_traj),
                            compute_uv=False)
        np.testing.assert_allclose(pc.values[:, 0], ref[:, 0], rtol=1e-8)
        np.testing.assert_allclose(pc.values[1], ref[1, :3], rtol=1e-3)


@pytest.fixture(scope="module")
def pc(ks_traj):
    led = ms.CostLedger()
    return ms.build_preconditioner(ks_traj, led, 3, 4,
                                   rng=np.random.default_rng(7))


class TestBlockDiagPreconditioner:

    def test_orthogonal_complement_unchanged(self, pc, ks_traj):
        k, n = ks_traj.n_segments, 31
        rng = np.random.default_rng(8)
        z = rng.standard_normal((k, n))
        for i, left in enumerate(pc.left):
            z[i] -= left @ (left.T @ z[i])
        np.testing.assert_allclose(pc.apply(z), z, rtol=1e-12, atol=1e-13)

    def test_eigen_action_on_leading_vector(self, pc, ks_traj):
        k, n = ks_traj.n_segments, 31
        z = np.zeros((k, n))
        z[0] = pc.left[0, :, 0]
        out = pc.apply(z)
        sigma = pc.values[0, 0]
        np.testing.assert_allclose(out[0], z[0] / sigma**2, rtol=1e-12)

    def test_spd_and_symmetric(self, pc, ks_traj):
        k, n = ks_traj.n_segments, 31
        rng = np.random.default_rng(9)
        z1 = rng.standard_normal((k, n))
        z2 = rng.standard_normal((k, n))
        m1 = pc.apply(z1)
        assert (m1 * z1).sum() > 0
        assert (m1 * z2).sum() == pytest.approx((z1 * pc.apply(z2)).sum(),
                                                rel=1e-12)

    def test_inverse_and_sqrt_identities(self, pc, ks_traj):
        k, n = ks_traj.n_segments, 31
        rng = np.random.default_rng(10)
        z = rng.standard_normal((k, n))
        np.testing.assert_allclose(pc.apply_inv(pc.apply(z)), z, rtol=1e-11)
        np.testing.assert_allclose(pc.apply_sqrt(pc.apply_sqrt(z)), pc.apply(z),
                                   rtol=1e-11)

    def test_dense_matches_apply(self, pc, ks_traj):
        k, n = ks_traj.n_segments, 31
        rng = np.random.default_rng(11)
        z = rng.standard_normal((k, n))
        dense = block_diag(pc.blocks())
        np.testing.assert_allclose(
            (dense @ z.reshape(-1)).reshape(k, n), pc.apply(z), rtol=1e-12)

    def test_batched_apply_equals_block_loop(self, pc, ks_traj):
        # one block keeps fewer modes than retained, one keeps none; the
        # narrower block's dot products are summed in another order than
        # the loop's (matrix product against padded columns, not BLAS
        # dot), so that preconditioner agrees to round-off, the
        # unclamped one exactly; likewise for the dense matrix against
        # blocks placed one at a time
        left, values, kept = pc.left.copy(), pc.values.copy(), pc.kept.copy()
        for i, keep in ((1, 1), (2, 0)):
            left[i, :, keep:], values[i, keep:], kept[i] = 0.0, 1.0, keep
        clamped = ms.BlockDiagPreconditioner(left, values, kept, pc.retained,
                                             pc.cycles)
        z = np.random.default_rng(13).standard_normal((ks_traj.n_segments, 31))
        for p, tol in ((pc, 0.0), (clamped, 31 * np.finfo(float).eps)):
            for name, coeff in (("apply", lambda s: s**-2 - 1.0),
                                ("apply_inv", lambda s: s**2 - 1.0),
                                ("apply_sqrt", lambda s: 1.0 / s - 1.0)):
                ref = z.copy()
                for i, keep in enumerate(p.kept):
                    u, s = p.left[i, :, :keep], p.values[i, :keep]
                    if keep:
                        ref[i] += u @ (coeff(s) * (u.T @ z[i]))
                np.testing.assert_allclose(getattr(p, name)(z), ref, rtol=0,
                                           atol=tol * np.abs(ref).max())
            n, k = 31, ks_traj.n_segments
            ref = np.zeros((n * k, n * k))
            for i, keep in enumerate(p.kept):
                u, s = p.left[i, :, :keep], p.values[i, :keep]
                ref[i * n:(i + 1) * n, i * n:(i + 1) * n] = np.eye(n) + (
                    u @ np.diag(s**-2 - 1.0) @ u.T)
            np.testing.assert_allclose(block_diag(p.blocks()),
                                       ref, rtol=0,
                                       atol=tol * np.abs(ref).max())
        assert np.array_equal(clamped.apply(z)[2], z[2])

    def test_block_count_checked(self, pc):
        with pytest.raises(ms.DimensionMismatch):
            pc.apply(np.zeros((2, 31)))

    def test_flat_vector_matches_stack(self, pc, ks_traj):
        z = np.random.default_rng(16).standard_normal((ks_traj.n_segments, 31))
        out = pc.apply(z.reshape(-1))
        assert out.shape == (z.size,)
        assert np.array_equal(out.reshape(z.shape), pc.apply(z))

    @pytest.mark.parametrize("case, message", [
        ("not_orthonormal", "not orthonormal"),
        ("ascending", "positive descending"),
    ])
    def test_batched_build_validates(self, lorenz_traj, monkeypatch, case,
                                     message):
        # the build validates its arrays: here the partial SVD of
        # segment 2 is replaced by a bad one
        k = lorenz_traj.n_segments
        values = np.tile([2.0, 1.0, 0.5], (k, 1))
        left = np.tile(np.eye(3), (k, 1, 1))
        if case == "not_orthonormal":
            left[2, :, 1] = left[2, :, 0]
        else:
            values[2] = [0.5, 1.0, 2.0]

        def bad_svd(fwd, adj, segments, dim, subspace, cycles, rng):
            return values, left

        monkeypatch.setattr(precond, "_batched_partial_svd", bad_svd)
        with pytest.raises(ValueError, match=message):
            ms.build_preconditioner(lorenz_traj, ms.CostLedger(), 2, 1)

    @pytest.mark.parametrize("left, values, error", [
        (np.ones((1, 4, 2)) / 2.0, [[2.0, 1.0]], ValueError),
        (np.eye(4)[None, :, :2], [[1.0, 2.0]], ValueError),
        (np.eye(4)[None, :, :2], [[1.0, 0.0]], ValueError),
        (np.eye(4)[None, :, :2], [[2.0, 1.0, 0.5]], ms.DimensionMismatch),
    ], ids=["not_orthonormal", "ascending", "non_positive", "shapes"])
    def test_constructor_validates(self, left, values, error):
        values = np.array(values)
        with pytest.raises(error):
            ms.BlockDiagPreconditioner(left, values, np.array([values.size]),
                                       values.size, 1)


@pytest.fixture(scope="module")
def small_instance(lorenz28):
    u0 = ms.advance(lorenz28, np.ones(3), -10.0, 0.0, 0.002)
    traj = ms.integrate(lorenz28, u0, 0.0, 3.0, 0.002, stride=300)
    led = ms.CostLedger()
    a = analysis.dense_constraint_matrix(traj, led)
    b = ms.assemble_rhs(traj, led)
    return traj, a, b


class TestExactPreconditioner:

    def test_zero_retained_is_identity(self, small_instance):
        _, a, _ = small_instance
        pc = ms.exact_preconditioner(a, 0)
        z = np.random.default_rng(12).standard_normal(a.shape[0])
        np.testing.assert_array_equal(pc.apply(z), z)

    def test_deflation_pattern(self, small_instance):
        # cut at the widest gap among the leading values: singular
        # vectors inside a cluster are ill-determined individually, but
        # deflation only needs the subspace up to a well-separated cut
        _, a, _ = small_instance
        s_mat = a @ a.T
        sv = np.linalg.svd(a, compute_uv=False)
        retained = int(np.argmax(sv[:8] / sv[1:9])) + 1
        pc = ms.exact_preconditioner(a, retained)
        rep = analysis.preconditioned_spectrum(s_mat, pc)
        expected = np.sort(np.concatenate([np.ones(retained),
                                           sv[retained:] ** 2]))
        np.testing.assert_allclose(rep.eigenvalues, expected,
                                   rtol=1e-6, atol=1e-10 * sv[0] ** 2)
        # the deflated multiplicity shows up as at least `retained` ones
        ones = np.abs(rep.eigenvalues - 1.0) <= 1e-8
        assert ones.sum() >= retained

    def test_full_retention_gives_one_iteration(self, small_instance):
        traj, a, b = small_instance
        nk = a.shape[0]
        pc = ms.exact_preconditioner(a, nk)
        led = ms.CostLedger()
        cfg = ms.SolveConfig(tol=1e-10, max_iter=10, gamma=0.0, mode="none",
                             preconditioner=pc)
        _, rep = ms.cg_solve(lambda z: ms.schur_apply(traj, led, z), b, cfg)
        assert rep.converged and rep.iterations == 1

    def test_retained_bounds(self, small_instance):
        _, a, _ = small_instance
        with pytest.raises(ValueError):
            ms.exact_preconditioner(a, a.shape[0] + 1)

    def test_flat_vector_matches_stack(self, small_instance):
        # one block of N*K rows: a (K, N) stack is a view of the flat
        # vector and gets the same values back in its own shape
        _, a, b = small_instance
        pc = ms.exact_preconditioner(a, 5)
        z = np.random.default_rng(17).standard_normal(b.shape)
        out = pc.apply(z)
        assert out.shape == b.shape
        assert np.array_equal(out.reshape(-1), pc.apply(z.reshape(-1)))

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_entry_count_checked(self, small_instance, extra):
        _, a, _ = small_instance
        pc = ms.exact_preconditioner(a, 5)
        with pytest.raises(ms.DimensionMismatch):
            pc.apply(np.zeros(a.shape[0] + extra))


class TestPredictCosts:
    def test_reference_point(self):
        assert ms.predict_costs(10, 2, 15, 0)[0] == 680

    def test_zero_cycles(self):
        assert ms.predict_costs(10, 0, 15, 7) == (0, 140)

    def test_matches_measured_ledger(self, ks_traj):
        led = ms.CostLedger()
        b = ms.assemble_rhs(ks_traj, led)
        before = led.snapshot()
        pc = ms.build_preconditioner(ks_traj, led, 3, 2,
                                     rng=np.random.default_rng(13))
        pc_cost = sum(led.delta(before))
        before = led.snapshot()
        cfg = ms.SolveConfig(tol=1e-6, max_iter=200, gamma=0.05, mode="post",
                             preconditioner=pc)
        _, rep = ms.cg_solve(lambda z: ms.schur_apply(ks_traj, led, z), b, cfg)
        solve_cost = sum(led.delta(before))
        predicted = ms.predict_costs(ks_traj.n_segments, 2, 3, rep.iterations)
        assert (pc_cost, solve_cost) == predicted

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ms.predict_costs(10, -1, 5, 3)


@pytest.mark.slow
class TestBdpConditioning:
    def test_clusters_leading_eigenvalues(self):
        # T=50, segment length 2, rho=80: one converged mode per segment
        # caps the preconditioned spectrum near two and gathers the
        # leading group inside [1, 2.5]
        system = ms.Lorenz(rho=80.0)
        rng = np.random.default_rng(14)
        u0 = ms.advance(system, np.ones(3) + 1e-3 * rng.standard_normal(3),
                        -50.0, 0.0, 0.002)
        traj = ms.integrate(system, u0, 0.0, 50.0, 0.002, stride=1000)
        assert traj.n_segments == 25
        led = ms.CostLedger()
        a = analysis.dense_constraint_matrix(traj, led)
        s_mat = a @ a.T
        pc = ms.build_preconditioner(traj, led, 1, 4,
                                     rng=np.random.default_rng(15))
        rep = analysis.preconditioned_spectrum(s_mat, pc)
        eigs = rep.eigenvalues[::-1]  # descending
        assert 1.2 <= eigs[0] <= 2.5
        k = traj.n_segments
        assert (eigs[:k] >= 0.9).all() and (eigs[:k] <= 2.5).all()

import numpy as np
import pytest

import msshadow as ms
from msshadow import analysis, precond


class TestLanczosPartialSVD:
    def test_injected_diagonal_operator(self):
        d = np.array([5.0, 2.0, 1.0])
        vals, left, _ = precond.lanczos_partial_svd(
            lambda x: d * x, lambda x: d * x, 3, retained=1, cycles=3,
            rng=np.random.default_rng(0))
        assert vals[0] == pytest.approx(5.0, rel=1e-12)
        np.testing.assert_allclose(np.abs(left[:, 0]), [1.0, 0.0, 0.0],
                                   atol=1e-10)

    def test_injected_rectangularish_operator(self):
        rng = np.random.default_rng(1)
        mat = rng.standard_normal((8, 8))
        vals, left, restarts = precond.lanczos_partial_svd(
            lambda x: x @ mat.T, lambda x: x @ mat, 8, retained=3, cycles=8,
            rng=rng)
        ref = np.linalg.svd(mat, compute_uv=False)
        np.testing.assert_allclose(vals, ref[:3], rtol=1e-8)
        assert restarts == 0

    def test_zero_operator_no_error(self):
        vals, left, _ = precond.lanczos_partial_svd(
            lambda x: np.zeros_like(x), lambda x: np.zeros_like(x), 5,
            retained=2, cycles=2, rng=np.random.default_rng(2))
        assert (vals == 0).all()

    def test_rank_deficient_operator_counts(self, tmp_path):
        # rank 2 in dimension 8 with retained = 3, so subspace p = 5: both
        # sides of the range are spanned after two Lanczos steps, and each
        # of the steps j = 2..4 restarts its forward and its adjoint basis
        # vector, 2 (p - 2) = 6 restarts; the third mode is clamped
        d = np.array([3.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        vals, left, restarts = precond.lanczos_partial_svd(
            lambda x: d * x, lambda x: d * x, 8, retained=3, cycles=2,
            rng=np.random.default_rng(8))
        assert restarts == 6
        kept, vecs = precond._clamp(vals, left, 3)
        pc = precond.BlockDiagPreconditioner(
            [precond.SegmentSVD(0, vecs, kept, 2)], 3, 2, restarts)
        assert (pc.clamped_modes, pc.restarts) == (1, 6)
        pc.save(tmp_path / "pc.bin")
        loaded = precond.BlockDiagPreconditioner.load(tmp_path / "pc.bin")
        assert (loaded.clamped_modes, loaded.restarts) == (1, None)

    def test_lorenz_segment_matches_dense(self, lorenz_traj):
        led = ms.CostLedger()
        blk = ms.partial_svd_segment(lorenz_traj, led, 2, retained=1, cycles=2,
                                     rng=np.random.default_rng(3))
        phi = analysis.dense_segment_propagator(lorenz_traj, led, 2)
        ref = np.linalg.svd(phi, compute_uv=False)
        assert blk.values[0] == pytest.approx(ref[0], rel=1e-8)

    def test_segment_ledger_exact(self, lorenz_traj):
        led = ms.CostLedger()
        ms.partial_svd_segment(lorenz_traj, led, 0, retained=1, cycles=2,
                               rng=np.random.default_rng(4))
        assert led.snapshot() == (2 * 3, 2 * 3)

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
            ms.partial_svd_segment(lorenz_traj, led, 0, retained=4, cycles=1)

    def test_ks_segment_values_match_dense(self, ks_traj):
        # trailing values sit in the near-unity cluster and converge
        # slowly, so only the leading value gets a tight tolerance
        led = ms.CostLedger()
        blk = ms.partial_svd_segment(ks_traj, led, 1, retained=3, cycles=6,
                                     rng=np.random.default_rng(6))
        phi = analysis.dense_segment_propagator(ks_traj, led, 1)
        ref = np.linalg.svd(phi, compute_uv=False)
        assert blk.values[0] == pytest.approx(ref[0], rel=1e-8)
        np.testing.assert_allclose(blk.values, ref[:3], rtol=1e-3)


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
        for i, blk in enumerate(pc.blocks):
            z[i] -= blk.left @ (blk.left.T @ z[i])
        np.testing.assert_allclose(pc.apply(z), z, rtol=1e-12, atol=1e-13)

    def test_eigen_action_on_leading_vector(self, pc, ks_traj):
        k, n = ks_traj.n_segments, 31
        z = np.zeros((k, n))
        z[0] = pc.blocks[0].left[:, 0]
        out = pc.apply(z)
        sigma = pc.blocks[0].values[0]
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
        dense = pc.dense()
        np.testing.assert_allclose(
            (dense @ z.reshape(-1)).reshape(k, n), pc.apply(z), rtol=1e-12)

    def test_batched_apply_equals_block_loop(self, pc, ks_traj):
        # one block keeps fewer modes than retained, one keeps none; the
        # narrower block's dot products are summed in another order than
        # the loop's (matrix product against padded columns, not BLAS
        # dot), so that preconditioner agrees to round-off, the
        # unclamped one exactly
        blocks = list(pc.blocks)
        for i, keep in ((1, 1), (2, 0)):
            blk = blocks[i]
            blocks[i] = ms.SegmentSVD(i, blk.left[:, :keep].copy(),
                                      blk.values[:keep].copy(), blk.cycles)
        clamped = ms.BlockDiagPreconditioner(blocks, pc.retained, pc.cycles)
        z = np.random.default_rng(13).standard_normal((ks_traj.n_segments, 31))
        for p, tol in ((pc, 0.0), (clamped, 31 * np.finfo(float).eps)):
            for name, coeff in (("apply", lambda s: s**-2 - 1.0),
                                ("apply_inv", lambda s: s**2 - 1.0),
                                ("apply_sqrt", lambda s: 1.0 / s - 1.0)):
                ref = z.copy()
                for i, blk in enumerate(p.blocks):
                    if blk.values.size:
                        ref[i] += blk.left @ (coeff(blk.values)
                                              * (blk.left.T @ z[i]))
                np.testing.assert_allclose(getattr(p, name)(z), ref, rtol=0,
                                           atol=tol * np.abs(ref).max())
        assert np.array_equal(clamped.apply(z)[2], z[2])

    def test_save_load_roundtrip(self, pc, tmp_path):
        path = tmp_path / "pc.bin"
        pc.save(path)
        loaded = ms.BlockDiagPreconditioner.load(path)
        assert loaded.retained == pc.retained
        assert loaded.cycles == pc.cycles
        for a, b in zip(loaded.blocks, pc.blocks):
            assert np.array_equal(a.left, b.left)
            assert np.array_equal(a.values, b.values)

    def test_block_count_checked(self, pc):
        with pytest.raises(ms.DimensionMismatch):
            pc.apply(np.zeros((2, 31)))

    def test_segment_svd_validates(self):
        bad = np.ones((4, 2)) / 2.0
        with pytest.raises(ValueError):
            ms.SegmentSVD(0, bad, np.array([2.0, 1.0]), 1)
        with pytest.raises(ValueError):
            ms.SegmentSVD(0, np.eye(4)[:, :2], np.array([1.0, 2.0]), 1)


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
        pc = ms.exact_preconditioner(a, nk, stack_shape=b.shape)
        led = ms.CostLedger()
        cfg = ms.SolveConfig(tol=1e-10, max_iter=10, gamma=0.0, mode="none",
                             preconditioner=pc)
        _, rep = ms.cg_solve(lambda z: ms.schur_apply(traj, led, z), b, cfg)
        assert rep.converged and rep.iterations == 1

    def test_retained_bounds(self, small_instance):
        _, a, _ = small_instance
        with pytest.raises(ValueError):
            ms.exact_preconditioner(a, a.shape[0] + 1)


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
        _, rep = ms.cg_solve(lambda z: ms.schur_apply(ks_traj, led, z), b, cfg,
                             ledger=led)
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

import dataclasses
import tracemalloc

import numpy as np
import pytest

import msshadow as ms
from msshadow import _native, analysis, shadow, timestep, xcli
from msshadow.errors import ShadowingError


def truncated_svd_solution(a, b, rank, svd=None):
    """Minimal-norm solution restricted to the top ``rank`` singular
    modes of the dense constraint matrix, from its SVD (the oracle of
    the truncated-SVD curve).  Returns a (K+1, N) checkpoint stack; rank
    may be 0 (zero stack) up to the row count of a."""
    if not 0 <= rank <= a.shape[0]:
        raise ValueError(f"rank must be in [0, {a.shape[0]}]")
    k, n = np.asarray(b).shape
    u, s, vt = svd if svd is not None else np.linalg.svd(a, full_matrices=False)
    coef = (u[:, :rank].T @ np.asarray(b).reshape(-1)) / s[:rank]
    return (vt[:rank].T @ coef).reshape(k + 1, n)


def functional(traj, objective):
    """(weights, s0): the objective's sensitivity functional and the zero
    stack's sensitivity, the pair the pipeline keeps."""
    zero = np.zeros((traj.n_segments + 1, traj.system.dim))
    return (ms.sensitivity_functional(traj, objective),
            ms.evaluate_sensitivity(traj, objective, zero))


def modes(traj, a, b, weights):
    """constraint_modes' (sigma descending, P) of the dense constraint
    matrix a through the eigh of a a^T, P's columns U^T b and
    U^T (A weights)."""
    y = analysis.modal_inputs(traj, b, weights)
    return analysis.constraint_modes(a @ a.T, y)[0]


def svd_modes(traj, b, weights, svd):
    """(sigma descending, P) as modes gives, from an SVD (U, sigma, V^T)
    of the dense constraint matrix, one product per column of P."""
    u, s, _ = svd
    y = analysis.modal_inputs(traj, b, weights)
    return s, np.stack([u.T @ col for col in y.T], axis=1)


def dense_sqrt(pc):
    """M^1/2 of a block-diagonal preconditioner as a dense matrix, probed
    column by column with its matrix-free apply_sqrt."""
    cols = np.stack([pc.apply_sqrt(e) for e in np.eye(pc.left[..., 0].size)])
    return 0.5 * (cols + cols.T)


@pytest.fixture(scope="module")
def lorenz_dense(lorenz28):
    u0 = ms.advance(lorenz28, np.ones(3), -10.0, 0.0, 0.002)
    traj = ms.integrate(lorenz28, u0, 0.0, 3.0, 0.002, stride=300)
    led = ms.CostLedger()
    a = analysis.dense_constraint_matrix(traj, led)
    b = ms.assemble_rhs(traj, led)
    return traj, a, b


class TestDenseAssembly:
    def test_block_structure(self, lorenz28):
        u0 = ms.advance(lorenz28, np.ones(3), -5.0, 0.0, 0.002)
        traj = ms.integrate(lorenz28, u0, 0.0, 1.0, 0.002, stride=250)
        assert traj.n_segments == 2
        led = ms.CostLedger()
        a = analysis.dense_constraint_matrix(traj, led)
        assert a.shape == (6, 9)
        # identity blocks above the propagator blocks
        np.testing.assert_array_equal(a[0:3, 3:6], np.eye(3))
        np.testing.assert_array_equal(a[3:6, 6:9], np.eye(3))
        assert led.forward == 3 * 2  # one propagation per unit column per segment

    def test_matches_matrix_free_action(self, lorenz_dense):
        traj, a, _ = lorenz_dense
        led = ms.CostLedger()
        rng = np.random.default_rng(0)
        k, n = traj.n_segments, 3
        v = rng.standard_normal((k + 1, n))
        lhs = a @ v.reshape(-1)
        rhs = ms.constraint_apply(traj, led, v).reshape(-1)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)

    def test_normal_matrix_symmetric(self, lorenz_dense):
        _, a, _ = lorenz_dense
        s = a @ a.T
        assert np.abs(s - s.T).max() <= 1e-12 * np.abs(s).max()

    def test_singular_values_square_to_eigenvalues(self, lorenz_dense):
        _, a, _ = lorenz_dense
        sv = np.linalg.svd(a, compute_uv=False)
        mu = np.linalg.eigvalsh(a @ a.T)
        np.testing.assert_allclose(np.sort(sv**2), mu,
                                   rtol=1e-8, atol=1e-12 * mu[-1])

    @pytest.mark.parametrize("budget", ["kept", "matrix_free"])
    @pytest.mark.parametrize("model", ["lorenz", "ks"])
    def test_placement_equals_column_probe(self, model, budget, lorenz28,
                                           ks_small, monkeypatch):
        # the placed blocks equal the constraint operator applied to each
        # unit checkpoint stack, bit for bit, whether the trajectory keeps
        # its propagator matrices or stays matrix-free past the budget; KS
        # past the budget places matrices joined from its one-step maps
        # against swept products, which agree to round-off
        if model == "lorenz":
            u0 = ms.advance(lorenz28, np.ones(3), -10.0, 0.0, 0.002)
            traj = ms.integrate(lorenz28, u0, 0.0, 3.0, 0.002, stride=300)
        else:
            u0 = np.random.default_rng(3).uniform(0.0, 1.0, 31)
            traj = ms.integrate(ks_small, u0, 0.0, 8.0, 0.02, stride=100)
        if budget == "matrix_free":
            monkeypatch.setattr(shadow, "_MATRIX_BUDGET", 0)
        n, k = traj.system.dim, traj.n_segments
        probe = np.empty((n * k, n * (k + 1)))
        unit = np.zeros((k + 1, n))
        for c in range(n * (k + 1)):
            unit.flat[c] = 1.0
            probe[:, c] = ms.constraint_apply(traj, ms.CostLedger(),
                                              unit).reshape(-1)
            unit.flat[c] = 0.0
        fresh = timestep.Trajectory(traj.system, traj.t_start, traj.h,
                                    traj.states, traj.fvals, traj.stride)
        led = ms.CostLedger()
        a = analysis.dense_constraint_matrix(fresh, led)
        if (model, budget) == ("ks", "matrix_free"):
            assert np.abs(a - probe).max() <= 1e-13 * np.abs(probe).max()
        else:
            assert np.array_equal(a, probe)
        assert led.snapshot() == (n * k, 0)
        assert (fresh._propagators is None) == (budget == "matrix_free")

    def test_cap_enforced(self, lorenz_dense):
        traj, _, _ = lorenz_dense
        led = ms.CostLedger()
        with pytest.raises(ShadowingError):
            analysis.dense_constraint_matrix(traj, led, cap=5)
        with pytest.raises(ShadowingError):
            analysis.dense_constraint_matrix(traj, led, cap=5, normal=True)
        assert led.snapshot() == (0, 0)


class TestNormalMatrix:
    def test_equals_product_of_dense_constraint_matrix(self, modal_case):
        traj, _, a, _ = modal_case
        n, k = traj.system.dim, traj.n_segments
        led = ms.CostLedger()
        s = analysis.dense_constraint_matrix(traj, led, normal=True)
        ref = a @ a.T
        assert s.shape == ref.shape == (n * k, n * k)
        assert np.abs(s - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.array_equal(s, s.T)
        assert led.snapshot() == (n * k, 0)

    def test_preconditioned_spectrum_matches_dense_square_root(
            self, modal_case):
        # Lorenz keeps its one expanding mode per segment: deflating the
        # contracting one too gives kappa 2.5e8, past a 1e-12 comparison
        traj = modal_case[0]
        retained = 1 if traj.system.dim == 3 else 3
        s_mat = analysis.dense_constraint_matrix(traj, ms.CostLedger(),
                                                 normal=True)
        pc = ms.build_preconditioner(traj, ms.CostLedger(), retained, 2,
                                     rng=np.random.default_rng(5))
        msqrt = dense_sqrt(pc)
        sym = msqrt @ s_mat @ msqrt
        want = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        got = analysis.preconditioned_spectrum(s_mat, pc).eigenvalues
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestTruncatedSVD:
    def test_zero_rank(self, lorenz_dense):
        _, a, b = lorenz_dense
        v = truncated_svd_solution(a, b, 0)
        assert np.array_equal(v, np.zeros_like(v))

    def test_full_rank_matches_cg(self, lorenz_dense):
        traj, a, b = lorenz_dense
        led = ms.CostLedger()
        cfg = ms.SolveConfig(tol=1e-12, max_iter=3000, gamma=0.0, mode="none")
        w, rep = ms.cg_solve(lambda z: ms.schur_apply(traj, led, z), b, cfg)
        assert rep.converged
        v_cg = ms.recover_checkpoints(traj, led, w)
        v_svd = truncated_svd_solution(a, b, a.shape[0])
        assert (np.linalg.norm(v_svd - v_cg)
                <= 1e-6 * np.linalg.norm(v_cg))

    def test_rank_bounds(self, lorenz_dense):
        _, a, b = lorenz_dense
        with pytest.raises(ValueError):
            truncated_svd_solution(a, b, a.shape[0] + 1)

    def test_sensitivity_vs_rank_runs(self, lorenz_dense):
        traj, a, b = lorenz_dense
        weights, s0 = functional(traj, ms.LorenzZ())
        out = analysis.sensitivity_vs_rank(modes(traj, a, b, weights),
                                           [1, 5, a.shape[0]], s0, traj.span)
        assert [r for r, _ in out] == [1, 5, a.shape[0]]
        assert all(np.isfinite(s) for _, s in out)


class TestPicard:
    def test_constructed_rhs_concentrates(self, lorenz_dense):
        traj, a, _ = lorenz_dense
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        b = (u[:, 0] * s[0]).reshape(-1, 3)
        weights = functional(traj, ms.LorenzZ())[0]
        table = analysis.picard_data(modes(traj, a, b, weights))
        assert table.projections[0] == pytest.approx(s[0], rel=1e-12)
        assert table.coefficients[0] == pytest.approx(1.0, rel=1e-12)
        assert np.abs(table.projections[1:]).max() <= 1e-10 * s[0]

    def test_sigma_descending_and_rows(self, lorenz_dense):
        traj, a, b = lorenz_dense
        weights = functional(traj, ms.LorenzZ())[0]
        table = analysis.picard_data(modes(traj, a, b, weights))
        assert (np.diff(table.sigma) <= 0).all()
        rows = list(table.rows())
        assert len(rows) == a.shape[0]
        assert rows[0][0] == 1

    def test_csv(self, lorenz_dense, tmp_path):
        traj, a, b = lorenz_dense
        weights = functional(traj, ms.LorenzZ())[0]
        table = analysis.picard_data(modes(traj, a, b, weights))
        path = tmp_path / "picard.csv"
        table.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "index,sigma,projection,coefficient"


def _groups(sigma, width=1e-8):
    """Index ranges of the descending sigma that lie within ``width`` of
    their neighbours: inside one, any orthonormal basis is an SVD."""
    cuts = np.flatnonzero(np.abs(np.diff(sigma)) > width) + 1
    return list(zip(np.r_[0, cuts], np.r_[cuts, sigma.size]))


@pytest.fixture(scope="module", params=["lorenz", "ks"])
def modal_case(request, lorenz_dense, ks_traj, ks_small):
    """(traj, objective, a, b) on the Lorenz fixture and on ks_traj."""
    if request.param == "lorenz":
        traj, a, b = lorenz_dense
        return traj, ms.LorenzZ(), a, b
    a = analysis.dense_constraint_matrix(ks_traj, ms.CostLedger())
    return ks_traj, ms.SpatialMean(ks_small), a, ms.assemble_rhs(
        ks_traj, ms.CostLedger())


class TestConstraintModes:
    def test_sigma_matches_svd(self, modal_case):
        traj, objective, a, b = modal_case
        y = analysis.modal_inputs(traj, b, functional(traj, objective)[0])
        (sigma, proj), eigs = analysis.constraint_modes(a @ a.T, y)
        sv = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(sigma, sv, rtol=1e-11)
        assert np.array_equal(sigma, np.sqrt(eigs[::-1]))
        # P = U^T y for orthonormal U keeps the norms of y's columns
        np.testing.assert_allclose(np.linalg.norm(proj, axis=0),
                                   np.linalg.norm(y, axis=0), rtol=1e-12)

    def test_picard_projections_agree_per_cluster(self, modal_case):
        # inside a cluster of equal sigma only the projections' sum of
        # squares is basis-free, so compare that per cluster
        traj, objective, a, b = modal_case
        weights = functional(traj, objective)[0]
        svd = np.linalg.svd(a, full_matrices=False)
        ref = analysis.picard_data(svd_modes(traj, b, weights, svd))
        table = analysis.picard_data(modes(traj, a, b, weights))
        np.testing.assert_allclose(table.sigma, ref.sigma, rtol=1e-11)
        scale = np.linalg.norm(b) ** 2
        for lo, hi in _groups(ref.sigma):
            got = (table.projections[lo:hi] ** 2).sum()
            want = (ref.projections[lo:hi] ** 2).sum()
            assert abs(got - want) <= 1e-10 * scale, (lo, hi)

    def test_curve_matches_truncated_solutions(self, modal_case):
        # the cumulative-sum curve against s0 + <weights, v_r> / T of
        # each rank's truncated-SVD solution, at ranks that split no
        # cluster of equal sigma and at full rank
        traj, objective, a, b = modal_case
        svd = np.linalg.svd(a, full_matrices=False)
        ends = [hi for _, hi in _groups(svd[1])]
        ranks = [0, *ends]
        assert ranks[-1] == a.shape[0]
        weights, s0 = functional(traj, objective)
        curve = analysis.sensitivity_vs_rank(modes(traj, a, b, weights),
                                             ranks, s0, traj.span)
        for rank, value in curve:
            v = truncated_svd_solution(a, b, rank, svd=svd)
            want = shadow.evaluate_sensitivity(traj, objective, v)
            assert abs(value - want) <= 1e-10 * abs(want), rank

    def test_rank_deficient_raises(self):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ShadowingError):
            analysis.constraint_modes(a @ a.T)

    def test_ranks_out_of_range_raise(self, lorenz_dense):
        traj, a, b = lorenz_dense
        weights, s0 = functional(traj, ms.LorenzZ())
        with pytest.raises(ValueError):
            analysis.sensitivity_vs_rank(modes(traj, a, b, weights),
                                         [a.shape[0] + 1], s0, traj.span)


def test_pipeline_runs_no_svd_of_the_constraint_matrix(monkeypatch):
    # the Picard table, the truncated curve and the raw spectrum come from
    # one eigendecomposition of S, here on the band route (K = 24 is past
    # BAND_RATIO) when the C library loads; the preconditioner's small
    # batched SVDs of (K, N, l + 2) stacks still run.  S and M^1/2 S
    # M^1/2 come from N x N blocks, so the dense A is not placed
    cfg = xcli.ExperimentConfig(
        model="lorenz", name="modes", seed=3, rho=28.0, spin_up=5.0,
        window=6.0, segment=0.25, step=0.002, gamma=0.05, mode="pre",
        tol=1e-6, spectrum=True, picard=True, truncated_sweep=True)
    nk, cols = 3 * cfg.n_segments, 3 * (cfg.n_segments + 1)
    shapes = []
    svd = np.linalg.svd

    def recording_svd(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return svd(m, *args, **kwargs)

    def placed(*args, **kwargs):
        raise AssertionError("dense matrix placed")

    place = analysis.dense_constraint_matrix

    def normal_only(*args, normal=False, **kwargs):
        return (place if normal else placed)(*args, normal=normal, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(analysis, "dense_constraint_matrix", normal_only)
    result = xcli.run_pipeline(cfg)
    assert shapes and (nk, cols) not in shapes
    assert result.analysis_route == ("band" if _native.library() else "dense")
    monkeypatch.undo()
    a = analysis.dense_constraint_matrix(result.trajectory, ms.CostLedger())
    sv = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(result.picard.sigma, sv, rtol=1e-11)
    np.testing.assert_allclose(result.spectra["raw"].eigenvalues,
                               np.linalg.eigvalsh(a @ a.T), rtol=1e-11)
    m_half = dense_sqrt(result.preconditioner)
    sym = m_half @ (a @ a.T) @ m_half
    np.testing.assert_allclose(result.spectra["preconditioned"].eigenvalues,
                               np.linalg.eigvalsh(0.5 * (sym + sym.T)),
                               rtol=1e-12)
    assert [r for r, _ in result.truncated][-1] == nk
    # a spectrum-only run takes the raw spectrum from the same band
    # solve, which turns no projections then
    alone = xcli.run_pipeline(dataclasses.replace(
        cfg, picard=False, truncated_sweep=False))
    assert np.array_equal(alone.spectra["raw"].eigenvalues,
                          result.spectra["raw"].eigenvalues)
    assert alone.spectra["raw"].kappa == result.spectra["raw"].kappa


def _library():
    if _native.library() is None:
        pytest.skip("no C compiler: the band route does not run")


# the lorenz_conditioning instance: K = 200, N K = 600, bandwidth 5
CONDITIONING = xcli.ExperimentConfig(
    model="lorenz", name="band", seed=7, rho=40.0, spin_up=100.0,
    window=200.0, segment=1.0, step=0.01, gamma=0.1, mode="pre", tol=1e-5,
    spectrum=True, picard=True, truncated_sweep=True)


@pytest.fixture(scope="module")
def lorenz_200():
    """A K = 200 Lorenz trajectory at the lorenz_conditioning settings."""
    system = ms.Lorenz(rho=40.0)
    u0 = ms.advance(system, np.ones(3), -100.0, 0.0, 0.01)
    return ms.integrate(system, u0, 0.0, 200.0, 0.01, stride=100)


class TestBandModes:
    @pytest.fixture(params=["lorenz", "lorenz-200", "ks"])
    def case(self, request, lorenz_dense, lorenz_200, ks_traj, ks_small):
        """(traj, dense S, S's band, y = [b, A weights])."""
        traj, objective = {
            "lorenz": (lorenz_dense[0], ms.LorenzZ()),
            "lorenz-200": (lorenz_200, ms.LorenzZ()),
            "ks": (ks_traj, ms.SpatialMean(ks_small)),
        }[request.param]
        led = ms.CostLedger()
        b = ms.assemble_rhs(traj, led)
        y = analysis.modal_inputs(traj, b, functional(traj, objective)[0])
        return (traj, analysis.dense_constraint_matrix(traj, led, normal=True),
                analysis.dense_constraint_matrix(traj, led, normal=True,
                                                 band=True), y)

    def test_band_is_the_lower_band_of_s(self, case):
        traj, s_mat, ab, _ = case
        width, nk = 2 * traj.system.dim, len(s_mat)
        assert ab.shape == (width, nk)
        for d in range(width):
            assert np.array_equal(ab[d, :nk - d], np.diagonal(s_mat, -d))
            assert not ab[d, nk - d:].any()
        assert not np.diagonal(s_mat, -width).any()
        diag, below = analysis._blocks(ab)
        assert np.array_equal(analysis._band(diag, below), ab)

    def test_modes_match_eigh_per_cluster(self, case):
        # both solves are backward stable, so each eigenvalue agrees to a
        # few eps ||S||, eps kappa relative; inside a cluster of equal
        # sigma only the sums over the cluster of (u^T b)^2 and of
        # (u^T b)(u^T A weights) are basis-free
        _library()
        _, s_mat, ab, y = case
        (sigma, proj), eigs = analysis.constraint_modes(ab, y, band=True)
        (ref_sigma, ref), ref_eigs = analysis.constraint_modes(s_mat, y)
        assert np.abs(eigs - ref_eigs).max() <= 1e-13 * ref_eigs[-1]
        assert np.array_equal(sigma, np.sqrt(eigs[::-1]))
        (_, none), alone = analysis.constraint_modes(ab, band=True)
        assert none is None and np.array_equal(alone, eigs)
        nb, na = np.linalg.norm(y, axis=0)
        for lo, hi in _groups(ref_sigma):
            got, want = proj[lo:hi], ref[lo:hi]
            assert (abs((got[:, 0] ** 2).sum() - (want[:, 0] ** 2).sum())
                    <= 1e-10 * nb ** 2), (lo, hi)
            assert (abs((got[:, 0] * got[:, 1]).sum()
                        - (want[:, 0] * want[:, 1]).sum())
                    <= 1e-10 * nb * na), (lo, hi)

    def test_preconditioned_band_matches_dense(self, case):
        _library()
        traj, s_mat, ab, _ = case
        pc = ms.build_preconditioner(traj, ms.CostLedger(), 1, 2,
                                     rng=np.random.default_rng(5))
        want = analysis.preconditioned_spectrum(s_mat, pc).eigenvalues
        got = analysis.preconditioned_spectrum(ab, pc, band=True).eigenvalues
        assert np.abs(got - want).max() <= 1e-13 * want[-1]

    @pytest.mark.parametrize("n, kd", [(1, 0), (2, 1), (7, 3), (40, 39),
                                       (60, 5)])
    def test_kernel_rotations_diagonalize(self, n, kd):
        # with y = I the kernel returns U^T whole: orthogonal, and U^T A U
        # is the diagonal of the eigenvalues
        _library()
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        a = np.tril(np.triu(a + a.T, -kd), kd)
        ab = np.zeros((kd + 1, n))
        for d in range(kd + 1):
            ab[d, :n - d] = np.diagonal(a, -d)
        eigs, ut = _native.band_eigh(ab, np.eye(n))
        scale = np.abs(eigs).max()
        assert np.abs(eigs - np.linalg.eigvalsh(a)).max() <= 1e-13 * scale
        assert np.abs(ut @ ut.T - np.eye(n)).max() <= 1e-13
        assert np.abs(ut @ a @ ut.T - np.diag(eigs)).max() <= 1e-13 * scale
        assert np.array_equal(_native.band_eigh(ab)[0], eigs)

    def test_unconverged_ql_raises(self, monkeypatch):
        # the kernel's status 1 (QL past 30 n sweeps) never returns values
        class Unconverged:
            def band_eigh(self, *args):
                return 1

        monkeypatch.setattr(_native, "_lib", Unconverged())
        with pytest.raises(ShadowingError):
            _native.band_eigh(np.ones((2, 3)))

    def test_route_rule(self, monkeypatch):
        _library()
        # Lorenz, bandwidth 5: 3 K >= 12 * 5 from K = 20
        assert analysis.BAND_RATIO == 12
        assert analysis.band_route(3, 20) and not analysis.band_route(3, 19)
        # ks_c08: N K = 1270 against 12 bandwidths of 253
        assert not analysis.band_route(127, 10)
        monkeypatch.setattr(_native, "_lib", False)
        assert not analysis.band_route(3, 200)

    def test_band_route_places_no_dense_square(self):
        # the dense route holds S, LAPACK's copy, its workspace and U,
        # each (N K)^2 float64; the band route none of them
        _library()
        problem = xcli.prepare(CONDITIONING)
        nk = 3 * CONDITIONING.n_segments
        tracemalloc.start()
        try:
            result = xcli.solve(problem, CONDITIONING)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.analysis_route == "band"
        assert peak < nk * nk * 8, peak

    def test_dense_route_without_library(self, monkeypatch):
        # without the C library the dense route runs today's arithmetic:
        # one eigh of S, U^T b and U^T (A weights) one product each, the
        # preconditioned spectrum by eigvalsh
        monkeypatch.setattr(_native, "_lib", False)
        result = xcli.run_pipeline(CONDITIONING)
        assert result.analysis_route == "dense"
        traj = result.trajectory
        s_mat = analysis.dense_constraint_matrix(traj, ms.CostLedger(),
                                                 normal=True)
        eigs, vecs = np.linalg.eigh(s_mat)
        u, sigma = vecs[:, ::-1], np.sqrt(eigs[::-1])
        b, s0 = ms.assemble_rhs(traj, ms.CostLedger(), ms.LorenzZ())
        aw = ms.constraint_apply(traj, ms.CostLedger(),
                                 xcli.prepare(CONDITIONING).functional)
        ub, uaw = u.T @ b.reshape(-1), u.T @ aw.reshape(-1)
        partial = np.concatenate(([0.0], np.cumsum(ub * uaw / sigma**2)))
        assert np.array_equal(result.spectra["raw"].eigenvalues, eigs)
        assert np.array_equal(result.picard.projections, np.abs(ub))
        assert result.truncated == [(r, s0 + partial[r] / traj.span)
                                    for r, _ in result.truncated]
        assert np.array_equal(
            result.spectra["preconditioned"].eigenvalues,
            analysis.preconditioned_spectrum(
                s_mat, result.preconditioner).eigenvalues)


class TestSpectrum:
    def test_identity(self):
        rep = analysis.SpectrumReport.dense("eye",
                                            np.linalg.eigvalsh(np.eye(7)))
        assert rep.kappa == 1.0
        np.testing.assert_array_equal(rep.eigenvalues, np.ones(7))

    def test_lanczos_extremes(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        vals = np.geomspace(0.01, 10.0, 40)
        mat = q @ np.diag(vals) @ q.T
        rep = analysis.spectrum(mat, 40)
        assert rep.converged
        assert rep.eigenvalues[0] == pytest.approx(0.01, rel=1e-5)
        assert rep.eigenvalues[-1] == pytest.approx(10.0, rel=1e-5)
        assert rep.kappa == pytest.approx(1000.0, rel=1e-4)

    def test_lanczos_stops_on_an_invariant_subspace(self):
        # S q = q: beta_1 vanishes, so the run stops after one product;
        # the residual test of the two Ritz pairs adds two more
        calls = []

        def identity(v):
            calls.append(v)
            return v.copy()

        rep = analysis.spectrum(identity, 7)
        assert rep.converged and len(calls) == 3
        np.testing.assert_allclose(rep.eigenvalues, [1.0, 1.0], rtol=1e-14)

    def test_lanczos_flags_unresolved_extremes(self):
        # kappa = 1e17 is past double precision: the run stops at m = 99
        # on its estimates with mu_min about 1.5e-3, and the true residual
        # test flags it
        rep = analysis.spectrum(np.diag(np.geomspace(1e-3, 1e14, 100)), 100)
        assert not rep.converged
        assert rep.eigenvalues[-1] == pytest.approx(1e14, rel=1e-8)
        assert rep.eigenvalues[0] > 1.1e-3

    def test_shift_is_exact(self, lorenz_dense):
        traj, a, _ = lorenz_dense
        s_mat = a @ a.T
        led = ms.CostLedger()
        pc = ms.build_preconditioner(traj, led, 1, 2,
                                     rng=np.random.default_rng(3))
        gamma = 0.37
        base = analysis.preconditioned_spectrum(s_mat, pc)
        shifted = analysis.preconditioned_spectrum(s_mat, pc, gamma=gamma)
        np.testing.assert_array_equal(shifted.eigenvalues,
                                      base.eigenvalues + gamma)


class TestCsvWriters:
    def test_deterministic_bytes(self, tmp_path):
        rows = [(1, 0.1), (2, 0.25)]
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        analysis.write_csv(p1, ["i", "v"], rows)
        analysis.write_csv(p2, ["i", "v"], rows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_labeled_triples(self, tmp_path):
        path = tmp_path / "spec.csv"
        analysis.write_labeled_csv(path, "raw", [2.0, 3.0])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "label,index,value"
        assert lines[1].startswith("raw,1,")


@pytest.mark.slow
class TestSegmentSpectrumGap:
    def test_longer_segments_track_global_singular_values_better(self):
        # the union of leading per-segment singular values tracks the
        # top of the global spectrum more closely for longer segments
        gaps = {}
        for stride, dt in ((250, 0.5), (500, 1.0)):
            per_rho = []
            for rho in (40.0, 60.0, 80.0):
                system = ms.Lorenz(rho=rho)
                rng = np.random.default_rng(20)
                u0 = ms.advance(system,
                                np.ones(3) + 1e-3 * rng.standard_normal(3),
                                -50.0, 0.0, 0.002)
                traj = ms.integrate(system, u0, 0.0, 50.0, 0.002, stride=stride)
                led = ms.CostLedger()
                a = analysis.dense_constraint_matrix(traj, led)
                sv = np.linalg.svd(a, compute_uv=False)
                k = traj.n_segments
                tops = np.sort(np.linalg.svd(
                    shadow.segment_propagators(traj),
                    compute_uv=False)[:, 0])[::-1]
                rel_gap = np.abs(tops - sv[:k]) / sv[:k]
                per_rho.append(rel_gap.mean())
            gaps[dt] = np.mean(per_rho)
        assert gaps[1.0] < gaps[0.5]

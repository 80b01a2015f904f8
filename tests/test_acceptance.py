"""End-to-end acceptance criteria at desk scale.

Each test prints one PASS line on success (pytest -s or the run log
shows them; a failure reads as the usual assertion).  Quantitative
bands follow the stated criteria; trajectory-realization spread is
handled by fixed seeds (Lorenz 7, KS 5).  The seeded instances do not
all sit in the regime the reference results describe: criteria 02, 05
(its raw-solve claim) and 06 fail on them, and the ``FOUND:`` lines in
CHANGES.md give the measured numbers and causes.  Bounds, seeds and
instances are kept as stated.
"""

import time

import numpy as np
import pytest

import msshadow as ms
from msshadow import analysis, solver, xcli

pytestmark = [pytest.mark.acceptance, pytest.mark.slow]

LORENZ_SEED = 7
KS_SEED = 5


def lorenz_config(window, gamma=0.1, mode="pre", **kw):
    """The Lorenz instance; keywords in ``kw`` replace the defaults."""
    fields = dict(
        model="lorenz", name="acc_lorenz", seed=LORENZ_SEED, rho=40.0,
        spin_up=100.0, window=window, segment=1.0, step=0.002,
        gamma=gamma, mode=mode, tol=1e-5, max_iter=500,
        pc_enabled=True, rank=1, cycles=2)
    fields.update(kw)
    return xcli.ExperimentConfig(**fields)


def ks_config(gamma=0.09, mode="pre", **kw):
    """The KS instance; keywords in ``kw`` replace the defaults."""
    fields = dict(
        model="ks", name="acc_ks", seed=KS_SEED, n=127, length=128.0, c=0.8,
        spin_up=1000.0, window=100.0, segment=10.0, step=0.02,
        gamma=gamma, mode=mode, tol=1e-5, max_iter=500,
        pc_enabled=True, rank=15, cycles=2)
    fields.update(kw)
    return xcli.ExperimentConfig(**fields)


@pytest.fixture(scope="session")
def lorenz_runs():
    runs = {}
    for window in (200.0, 300.0, 500.0, 1000.0):
        t0 = time.perf_counter()
        runs[window] = xcli.run_pipeline(lorenz_config(window))
        runs[window].wall_time = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="session")
def lorenz_dense(lorenz_runs):
    traj = lorenz_runs[200.0].trajectory
    scratch = ms.CostLedger()
    a = analysis.dense_constraint_matrix(traj, scratch)
    s_mat = a @ a.T
    eig_s = np.linalg.eigvalsh(0.5 * (s_mat + s_mat.T))
    return a, s_mat, eig_s


@pytest.fixture(scope="session")
def ks_run():
    t0 = time.perf_counter()
    run = xcli.run_pipeline(ks_config())
    run.wall_time = time.perf_counter() - t0
    return run


@pytest.fixture(scope="session")
def ks_raw_run():
    """Unregularized, unpreconditioned solve on the same trajectory."""
    cfg = ks_config(gamma=0.0, mode="none", pc_enabled=False, max_iter=20000)
    return xcli.run_pipeline(cfg)


@pytest.fixture(scope="session")
def ks_fd_band():
    mean, se, _ = xcli.finite_difference_reference(
        ks_config(), delta=0.05, n_samples=8, horizon=1500.0)
    return mean, se


@pytest.fixture(scope="session")
def ks_dense(ks_run):
    traj = ks_run.trajectory
    scratch = ms.CostLedger()
    a = analysis.dense_constraint_matrix(traj, scratch)
    svd = np.linalg.svd(a, full_matrices=False)
    return a, svd


def test_criterion_01_lorenz_sensitivity_band(lorenz_runs):
    iters = {}
    for window, run in lorenz_runs.items():
        assert run.report.converged
        assert 0.94 <= run.sensitivity <= 1.04, (
            f"T={window}: sensitivity {run.sensitivity:.4f} out of band")
        iters[window] = run.report.iterations
    assert lorenz_runs[200.0].wall_time < 120.0
    assert max(iters.values()) <= 2 * min(iters.values())
    print("\nACCEPTANCE 1 PASS: sensitivities "
          + ", ".join(f"T={int(k)}: {v.sensitivity:.3f}"
                      for k, v in lorenz_runs.items())
          + f"; iterations {sorted(iters.values())}"
          + f"; T=200 wall {lorenz_runs[200.0].wall_time:.0f}s")


def test_criterion_02_lorenz_conditioning(lorenz_runs, lorenz_dense):
    _, s_mat, eig_s = lorenz_dense
    kappa_raw = eig_s[-1] / eig_s[0]
    pc = lorenz_runs[200.0].preconditioner
    rep = analysis.preconditioned_spectrum(s_mat, pc)
    assert kappa_raw >= 1e6
    assert rep.kappa <= 1e5
    assert kappa_raw / rep.kappa >= 1e3
    print(f"\nACCEPTANCE 2 PASS: kappa(S)={kappa_raw:.3e} -> "
          f"kappa(M S)={rep.kappa:.3e} "
          f"({np.log10(kappa_raw / rep.kappa):.1f} orders)")


def test_criterion_03_lorenz_regularized_convergence(lorenz_runs):
    run = lorenz_runs[200.0]
    traj = run.trajectory
    led = ms.CostLedger()
    cfg = solver.SolveConfig(tol=1e-5, max_iter=100, gamma=1.0, mode="post",
                             preconditioner=run.preconditioner)
    _, rep = solver.cg_solve(
        lambda z: ms.schur_apply(traj, led, z), run.rhs, cfg)
    assert rep.converged and rep.iterations <= 25
    print(f"\nACCEPTANCE 3 PASS: gamma=1 post-mode converged in "
          f"{rep.iterations} iterations")


def test_criterion_04_exact_deflation():
    system = ms.Lorenz(rho=80.0)
    rng = np.random.default_rng(LORENZ_SEED)
    u0 = ms.advance(system, np.ones(3) + 1e-3 * rng.standard_normal(3),
                    -50.0, 0.0, 0.002)
    traj = ms.integrate(system, u0, 0.0, 50.0, 0.002, stride=250)
    assert traj.n_segments == 100
    led = ms.CostLedger()
    a = analysis.dense_constraint_matrix(traj, led)
    b = ms.assemble_rhs(traj, led)
    s_mat = a @ a.T
    sv = np.linalg.svd(a, compute_uv=False)
    nk = a.shape[0]

    # deflate at the widest spectral gap around one mode per segment
    window = np.arange(80, 121)
    retained = int(window[np.argmax(sv[window - 1] / sv[window])])
    pc = ms.exact_preconditioner(a, retained)
    rep = analysis.preconditioned_spectrum(s_mat, pc)
    expected = np.sort(np.concatenate([np.ones(retained), sv[retained:] ** 2]))
    ones = np.abs(rep.eigenvalues - 1.0) <= 1e-6
    assert ones.sum() >= retained
    np.testing.assert_allclose(rep.eigenvalues, expected, rtol=1e-8, atol=1e-8)

    # full retention: the preconditioned system is the identity
    pc_full = ms.exact_preconditioner(a, nk)
    cfg = solver.SolveConfig(tol=1e-5, max_iter=10, gamma=0.0, mode="none",
                             preconditioner=pc_full)
    _, rep_cg = solver.cg_solve(
        lambda z: ms.schur_apply(traj, led, z), b, cfg)
    assert rep_cg.converged and rep_cg.iterations == 1
    print(f"\nACCEPTANCE 4 PASS: l={retained} deflation exact, "
          f"l={nk} converges in 1 iteration")


def test_criterion_05_ks_pipeline(ks_run, ks_raw_run, ks_fd_band):
    mean, se = ks_fd_band
    assert ks_run.report.converged
    assert ks_run.report.residuals[-1] <= 1e-5

    # spectrum extremes from matrix-vector products
    traj = ks_run.trajectory
    scratch = ms.CostLedger()
    k, n = traj.n_segments, traj.system.dim
    pc = ks_run.preconditioner

    def schur(x):
        return ms.schur_apply(traj, scratch, x.reshape(k, n)).reshape(-1)

    raw = analysis.spectrum(schur, k * n, label="raw")
    # M^1/2 S M^1/2, similar to M S, keeps the operator symmetric
    pre = analysis.spectrum(
        lambda x: pc.apply_sqrt(schur(pc.apply_sqrt(x))), k * n,
        label="preconditioned")
    mu_drop = raw.eigenvalues[-1] / pre.eigenvalues[-1]
    assert mu_drop >= 1e2

    band = 3.0 * se
    assert abs(ks_run.sensitivity - mean) <= band, (
        f"regularized sensitivity {ks_run.sensitivity:.4f} vs "
        f"reference {mean:.4f} +/- {se:.4f}")
    # the unregularized solution carries the small-singular-value noise,
    # biasing the sensitivity below the reference band
    assert ks_raw_run.sensitivity < mean - band
    assert ks_run.wall_time < 1200.0
    print(f"\nACCEPTANCE 5 PASS: sens={ks_run.sensitivity:.4f} in "
          f"{mean:.4f}+/-{band:.4f}; raw sens={ks_raw_run.sensitivity:.4f} "
          f"below band; mu_max drop {mu_drop:.0f}x; "
          f"wall {ks_run.wall_time:.0f}s")


def test_criterion_06_truncated_svd_curve(ks_run, ks_dense):
    a, svd = ks_dense
    u, sv, _ = svd
    traj = ks_run.trajectory
    b = ks_run.rhs
    objective = xcli.build_objective(ks_run.config, traj.system)

    plateau_end = int((sv >= 1.0).sum())
    plateau_zone = int((sv >= 0.5).sum())
    noise_start = int((sv >= 0.1).sum())
    nk = a.shape[0]
    ranks = sorted(set(
        [plateau_end, plateau_zone]
        + list(np.linspace(plateau_end, plateau_zone, 6).astype(int))
        + list(np.linspace(noise_start, nk, 6).astype(int))))
    # the functional's weights, the zero stack's sensitivity s0, and the
    # projections U^T b and U^T (A weights) on the SVD's U
    k, n = b.shape
    weights = ms.sensitivity_functional(traj, objective)
    s0 = ms.evaluate_sensitivity(traj, objective, np.zeros((k + 1, n)))
    aw = ms.constraint_apply(traj, ms.CostLedger(), weights)
    modes = (sv, np.stack([u.T @ b.reshape(-1), u.T @ aw.reshape(-1)], axis=1))
    curve = dict(analysis.sensitivity_vs_rank(modes, ranks, s0, traj.span))
    plateau_value = curve[plateau_end]
    in_plateau = [curve[r] for r in ranks if plateau_end <= r <= plateau_zone]
    assert all(abs(v - plateau_value) <= 0.01 * abs(plateau_value)
               for v in in_plateau), f"plateau not flat: {in_plateau}"
    noisy = [curve[r] for r in ranks if r > noise_start]
    worst = max(abs(v - plateau_value) for v in noisy)
    assert worst > 0.01 * abs(plateau_value), "no degradation past sigma<0.1"
    print(f"\nACCEPTANCE 6 PASS: plateau {plateau_value:.4f} flat to 1% over "
          f"sigma in [0.5, 1] (ranks {plateau_end}..{plateau_zone}); "
          f"noisy-mode deviation up to {worst / abs(plateau_value):.1%}")


def test_criterion_07_cost_model(ks_run, ks_raw_run, lorenz_runs):
    for run in list(lorenz_runs.values()) + [ks_run]:
        cfg = run.config
        pred = ms.predict_costs(cfg.n_segments, cfg.cycles, cfg.rank,
                                run.report.iterations)
        assert run.precond_cost == pred[0]
        assert run.solve_cost == pred[1]
    assert ks_raw_run.precond_cost == 0
    total_pc = ks_run.total_cost
    total_raw = ks_raw_run.solve_cost
    assert total_raw >= 5 * total_pc, (
        f"cost factor {total_raw / total_pc:.1f} below 5")
    print(f"\nACCEPTANCE 7 PASS: ledger == 2Kq(l+2) + 2Km on all runs; "
          f"KS cost {total_pc} vs raw {total_raw} "
          f"({total_raw / total_pc:.1f}x saving)")


def test_criterion_08_duality_suite(lorenz_traj, ks_traj):
    rng = np.random.default_rng(0)
    for traj in (lorenz_traj, ks_traj):
        k, n = traj.n_segments, traj.system.dim
        led = ms.CostLedger()
        pc = ms.build_preconditioner(traj, led, min(3, n), 2,
                                     rng=np.random.default_rng(1))
        for _ in range(100):
            v = rng.standard_normal((k + 1, n))
            w = rng.standard_normal((k, n))
            w2 = rng.standard_normal((k, n))
            av = ms.constraint_apply(traj, led, v)
            atw = ms.constraint_transpose_apply(traj, led, w)
            scale = max(np.linalg.norm(av), np.linalg.norm(v)) ** 2
            assert abs((av * w).sum() - (v * atw).sum()) <= 1e-11 * scale

            sw = ms.schur_apply(traj, led, w)
            sw2 = ms.schur_apply(traj, led, w2)
            scale = max(np.linalg.norm(sw), np.linalg.norm(w)) ** 2
            assert abs((sw * w2).sum() - (w * sw2).sum()) <= 1e-11 * scale

            mz = pc.apply(w)
            mz2 = pc.apply(w2)
            scale = max(np.linalg.norm(mz), np.linalg.norm(w)) ** 2
            assert abs((mz * w2).sum() - (w * mz2).sum()) <= 1e-11 * scale
    print("\nACCEPTANCE 8 PASS: duality identities to 1e-11, "
          "100 random trials per operator, both models")


def test_criterion_09_oracle_equivalence(lorenz28):
    u0 = ms.advance(lorenz28, np.ones(3), -20.0, 0.0, 0.002)
    traj = ms.integrate(lorenz28, u0, 0.0, 10.0, 0.002, stride=500)
    assert traj.n_segments == 10
    led = ms.CostLedger()
    a = analysis.dense_constraint_matrix(traj, led)
    b = ms.assemble_rhs(traj, led)
    cfg = solver.SolveConfig(tol=1e-12, max_iter=5000, gamma=0.0, mode="none")
    w, rep = solver.cg_solve(lambda z: ms.schur_apply(traj, led, z), b, cfg)
    assert rep.converged
    v = ms.recover_checkpoints(traj, led, w).reshape(-1)
    v_pinv = np.linalg.pinv(a) @ b.reshape(-1)
    assert np.linalg.norm(v - v_pinv) <= 1e-6 * np.linalg.norm(v_pinv)

    sv = np.linalg.svd(a, compute_uv=False)
    mu = np.linalg.eigvalsh(a @ a.T)
    np.testing.assert_allclose(np.sort(sv**2), mu,
                               rtol=1e-8, atol=1e-12 * mu[-1])
    print("\nACCEPTANCE 9 PASS: pseudoinverse vs CG within 1e-6; "
          "sigma(A)^2 == mu(S) within 1e-8")


def test_criterion_10_projector_algebra():
    rng = np.random.default_rng(2)
    for _ in range(100):
        f = rng.standard_normal(7)
        x = rng.standard_normal(7)
        y = rng.standard_normal(7)
        pf = ms.project_off_flow(f, f.copy())
        assert np.linalg.norm(pf) <= 1e-14 * np.linalg.norm(f)
        once = ms.project_off_flow(f, x)
        twice = ms.project_off_flow(f, once)
        assert np.linalg.norm(twice - once) <= 1e-14 * max(np.linalg.norm(x), 1)
        sym = ms.project_off_flow(f, x) @ y - x @ ms.project_off_flow(f, y)
        assert abs(sym) <= 1e-13 * np.linalg.norm(x) * np.linalg.norm(y)
    print("\nACCEPTANCE 10 PASS: P f = 0, P^2 = P, P symmetric at "
          "machine precision")


def test_criterion_11_gradient_checks(lorenz28, ks_small):
    rng = np.random.default_rng(3)
    eps = 1e-6
    for system, make in ((lorenz28, lambda rho: ms.Lorenz(rho=rho)),
                         (ks_small,
                          lambda c: ms.KuramotoSivashinsky(31, 32.0, c))):
        for _ in range(20):
            u = rng.standard_normal(system.dim)
            v = rng.standard_normal(system.dim)
            fd = (system.rhs(u + eps * v) - system.rhs(u - eps * v)) / (2 * eps)
            an = system.jacobian_apply(u, v)
            assert np.linalg.norm(fd - an) <= 1e-5 * max(np.linalg.norm(an), 1e-10)
            plus = make(system.param + eps)
            minus = make(system.param - eps)
            fd = (plus.rhs(u) - minus.rhs(u)) / (2 * eps)
            an = system.param_deriv(u)
            assert np.linalg.norm(fd - an) <= 1e-5 * max(np.linalg.norm(an), 1e-10)
    for objective, system in ((ms.SpatialMean(ks_small), ks_small),
                              (ms.SpatialMeanSquare(ks_small), ks_small),
                              (ms.LorenzZ(), lorenz28)):
        u = rng.standard_normal(system.dim)
        g = objective.gradient(u)
        for i in range(0, system.dim, max(system.dim // 5, 1)):
            e = np.zeros(system.dim)
            e[i] = eps
            fd = (objective.value(u + e) - objective.value(u - e)) / (2 * eps)
            assert abs(fd - g[i]) <= 1e-5 * max(abs(g[i]), 1e-10)
    print("\nACCEPTANCE 11 PASS: analytic derivatives match central "
          "differences to 1e-5")


def test_criterion_12_cg_error_bound(lorenz_runs, lorenz_dense):
    # measured residual histories against the kappa bound, with kappa
    # taken from the dense spectrum of the governing preconditioned
    # operator of each solve
    run = lorenz_runs[200.0]
    traj = run.trajectory
    _, s_mat, _ = lorenz_dense
    pc = run.preconditioner
    nk = s_mat.shape[0]
    checked = 0
    for gamma, mode in ((1.0, "post"), (0.1, "pre")):
        led = ms.CostLedger()
        cfg = solver.SolveConfig(tol=1e-5, max_iter=200, gamma=gamma,
                                 mode=mode, preconditioner=pc)
        _, rep = solver.cg_solve(
            lambda z: ms.schur_apply(traj, led, z), run.rhs, cfg)
        assert rep.converged
        if mode == "post":
            base = analysis.preconditioned_spectrum(s_mat, pc, gamma=gamma)
            eigs = base.eigenvalues
        else:
            base = analysis.preconditioned_spectrum(
                s_mat + gamma * np.eye(nk), pc)
            eigs = base.eigenvalues
        kappa = eigs[-1] / eigs[0]
        for m, res in enumerate(rep.residuals):
            assert res <= solver.error_bound(kappa, m) + 1e-12, (
                f"iteration {m}: {res:.3e} above bound "
                f"{solver.error_bound(kappa, m):.3e} (kappa={kappa:.1f})")
        checked += 1
    assert checked == 2
    print("\nACCEPTANCE 12 PASS: residual histories below the "
          "condition-number bound at every iteration")

"""Dense oracles and conditioning diagnostics for small instances.

Everything here exists to *study* the matrix-free operators.  S = A A^T
and M^1/2 S M^1/2 are placed from (N, N) blocks; the dense A is the
tests' oracle.  One eigh of S gives the raw spectrum and A's singular
values and left singular vectors, hence the Picard table and the
truncated-SVD curve; there a request holds about four (N K)^2 float64
arrays: S, LAPACK's copy, its workspace and the vectors.  Dense matrices
are made under a size cap; large instances only get extreme eigenvalue
estimates.  Those use SciPy's ARPACK, the one SciPy user in msshadow,
imported on first use; everything else needs NumPy only.
"""

import csv
import inspect
from dataclasses import dataclass

import numpy as np

from . import shadow
from .errors import ShadowingError

DENSE_CAP = 2000


def _check_cap(size, cap):
    if size > cap:
        raise ShadowingError(
            f"dense oracle requested for size {size} > cap {cap}"
        )


def dense_constraint_matrix(traj, ledger, cap=DENSE_CAP, normal=False):
    """The constraint operator as a dense (N*K, N*(K+1)) matrix, or with
    ``normal`` S = A A^T as a dense, exactly symmetric (N*K, N*K) one,
    placed from the (K, N, N) stack of shadow.segment_propagators.  Row
    block i of A is [-Phi_i, I] at column blocks i and i+1; S has
    Phi_i Phi_i^T + I (symmetrized) on the diagonal, -Phi_{i+1} below it
    and its transpose above.  Charged N*K forward products, one per unit
    column per segment, what a build past the memory budget sweeps.
    """
    n = traj.system.dim
    k = traj.n_segments
    _check_cap(n * k, cap)
    mats = shadow.segment_propagators(traj)
    ledger.charge_forward(n * k)
    seg = np.arange(k)
    if normal:
        diag = np.matmul(mats, mats.transpose(0, 2, 1)) + np.eye(n)
        s = np.zeros((n * k, n * k))
        blocks = s.reshape(k, n, k, n)
        blocks[seg, :, seg, :] = 0.5 * (diag + diag.transpose(0, 2, 1))
        blocks[seg[1:], :, seg[:-1], :] = -mats[1:]
        blocks[seg[:-1], :, seg[1:], :] = -mats[1:].transpose(0, 2, 1)
        return s
    a = np.zeros((n * k, n * (k + 1)))
    blocks = a.reshape(k, n, k + 1, n)
    blocks[seg, :, seg, :] = -mats
    blocks[seg, :, seg + 1, :] = np.eye(n)
    return a


@dataclass
class SpectrumReport:
    label: str
    eigenvalues: np.ndarray  # ascending; [mu_min, mu_max] in extremes mode
    kappa: float
    mode: str = "dense"
    converged: bool = True

    @classmethod
    def dense(cls, label, eigs):
        """The report of a full ascending spectrum."""
        return cls(label, eigs, float(eigs[-1] / eigs[0]))

    def to_csv(self, path):
        write_labeled_csv(path, self.label, self.eigenvalues)


def spectrum(operator, size, mode="dense", cap=DENSE_CAP, label="", tol=1e-8,
             extremes="both"):
    """Eigenvalues of a symmetric positive definite operator.

    ``operator`` is a dense matrix, or in lanczos-extremes mode also a
    callable on flat vectors.  Dense mode symmetrizes ((B + B^T)/2)
    before the eigensolve and returns the full set.  lanczos-extremes
    mode estimates (mu_min, mu_max) with matrix-vector products from
    random vectors fixed by ``size``, and flags non-convergence instead
    of raising; ``extremes="max"`` skips the (much slower)
    smallest-eigenvalue search and reports only mu_max.
    """
    if mode == "dense":
        _check_cap(size, cap)
        mat = np.asarray(operator)
        mat = 0.5 * (mat + mat.T)
        return SpectrumReport.dense(label, np.linalg.eigvalsh(mat))
    if mode != "lanczos-extremes":
        raise ValueError(f"unknown spectrum mode {mode!r}")
    # imported here: SciPy adds 0.2 s and 30 MB to start-up; only this needs it
    import scipy.sparse.linalg as spla
    op = operator if callable(operator) else (lambda v: operator @ v)
    linop = spla.LinearOperator((size, size), matvec=op)
    converged = True
    sides = {"both": ("SA", "LA"), "min": ("SA",), "max": ("LA",)}[extremes]
    found = []
    # ARPACK starts and restarts from random vectors: draw them from a fixed
    # generator (a SciPy without rng restarts from a per-process seed)
    seeded = "rng" in inspect.signature(spla.eigsh).parameters
    for which in sides:
        rng = np.random.default_rng(size)
        try:
            vals = spla.eigsh(
                linop, k=1, which=which, tol=tol, maxiter=size * 50,
                v0=rng.uniform(-1.0, 1.0, size), return_eigenvectors=False,
                **({"rng": rng} if seeded else {}),
            )
            found.append(float(vals[0]))
        except spla.ArpackNoConvergence as exc:
            converged = False
            got = exc.eigenvalues
            found.append(float(got[0]) if len(got) else np.nan)
    eigs = np.asarray(found)
    kappa = (float(eigs[-1] / eigs[0])
             if len(eigs) == 2 and np.isfinite(eigs).all() else np.nan)
    return SpectrumReport(label, eigs, kappa, "lanczos-extremes", converged)


def preconditioned_spectrum(s_dense, pc, gamma=0.0, label=""):
    """Dense spectrum of the preconditioned (optionally shifted) system.

    The symmetric similarity M^1/2 S M^1/2 shares the spectrum of M S;
    it is formed as M^1/2 (M^1/2 S)^T, two batched products of N-row
    blocks with M^1/2's blocks I + U_i (sigma_i^-1 - 1) U_i^T, and
    symmetrized.  The shift adds gamma exactly; no size cap applies.
    """
    root = pc.blocks(sqrt=True)
    k, n, _ = root.shape
    sym = np.matmul(root, s_dense.reshape(k, n, -1)).reshape(k * n, -1)
    sym = np.matmul(root, sym.T.reshape(k, n, -1)).reshape(k * n, -1)
    eigs = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    return SpectrumReport.dense(label, eigs + gamma if gamma else eigs)


def constraint_modes(s_dense):
    """((U, sigma descending), ascending eigenvalues of S) of the dense
    constraint matrix A from one eigh of S = A A^T (its lower triangle).
    A has full row rank (its I blocks), so an eigenvalue <= 0 raises.
    sigma_i's relative error is about eps (sigma_max / sigma_i)^2, the
    kappa(S) floor of the CG solve on S that the analysis studies."""
    eigs, vecs = np.linalg.eigh(s_dense)
    if eigs[0] <= 0.0:
        raise ShadowingError(f"A A^T is not positive definite: {eigs[0]:.3g}")
    return (vecs[:, ::-1], np.sqrt(eigs[::-1])), eigs


@dataclass
class PicardTable:
    """Discrete Picard data: singular values, right-hand-side
    projections, and their ratios."""

    sigma: np.ndarray
    projections: np.ndarray    # |u_i^T b|
    coefficients: np.ndarray   # |u_i^T b| / sigma_i

    def rows(self):
        for i in range(self.sigma.size):
            yield (i + 1, self.sigma[i], self.projections[i],
                   self.coefficients[i])

    def to_csv(self, path):
        write_csv(
            path,
            ["index", "sigma", "projection", "coefficient"],
            list(self.rows()),
        )


def picard_data(a, b, svd=None):
    """Picard table of A and b; ``svd``: any (U, sigma descending, ...)."""
    u, s = (svd if svd is not None else constraint_modes(a @ a.T)[0])[:2]
    proj = np.abs(u.T @ np.asarray(b).reshape(-1))
    with np.errstate(divide="ignore"):
        coef = np.where(s > 0, proj / np.where(s > 0, s, 1.0), np.inf)
    return PicardTable(s.copy(), proj, coef)


def sensitivity_vs_rank(traj, objective, a, b, ranks, svd=None,
                        functional=None):
    """Sensitivity of the truncated-SVD solution as the rank grows.

    Returns a list of (rank, sensitivity) pairs, the data behind the
    accuracy-vs-rank curve.  With V = A^T U / sigma, rank r's value is
    s0 + sum_{i<=r} (u_i^T b)(u_i^T A weights) / sigma_i^2 / T, one
    cumulative sum.  ``svd`` is as for picard_data; ``functional`` is
    (weights, s0), shadow.sensitivity_functional and the zero stack's
    sensitivity as the pipeline keeps them, else computed here.  A
    weights is shadow.constraint_apply's; ``a`` is unused given ``svd``.
    """
    u, s = (svd if svd is not None else constraint_modes(a @ a.T)[0])[:2]
    ranks = [int(rank) for rank in ranks]
    if not all(0 <= rank <= s.size for rank in ranks):
        raise ValueError(f"ranks must be in [0, {s.size}]")
    k, n = np.asarray(b).shape
    if functional is None:
        functional = (shadow.sensitivity_functional(traj, objective),
                      shadow.evaluate_sensitivity(traj, objective,
                                                  np.zeros((k + 1, n))))
    weights, s0 = functional
    aw = shadow.constraint_apply(traj, shadow.CostLedger(), weights)
    terms = (u.T @ np.asarray(b).reshape(-1)) * (u.T @ aw.reshape(-1)) / s**2
    partial = np.concatenate(([0.0], np.cumsum(terms)))
    return [(rank, s0 + partial[rank] / traj.span) for rank in ranks]


def write_csv(path, header, rows):
    """CSV with a header row; floats serialized at full precision so
    reruns are bit-identical."""
    def fmt(x):
        if isinstance(x, (float, np.floating)):
            return f"{x:.17g}"
        return x

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(x) for x in row])


def write_labeled_csv(path, label, values):
    """(label, index, value) triples, the common artifact layout."""
    write_csv(
        path,
        ["label", "index", "value"],
        [(label, i + 1, v) for i, v in enumerate(np.asarray(values))],
    )

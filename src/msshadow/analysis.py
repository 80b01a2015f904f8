"""Dense oracles and conditioning diagnostics for small instances.

Everything here exists to *study* the matrix-free operators: assemble
the constraint matrix column by column, look at full spectra and
singular value distributions, and evaluate truncated-SVD solutions.
Dense paths are gated by a size cap; large instances only get extreme
eigenvalue estimates.
"""

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from . import shadow
from .errors import ShadowingError

DENSE_CAP = 2000


def _check_cap(size, cap):
    if size > cap:
        raise ShadowingError(
            f"dense oracle requested for size {size} > cap {cap}"
        )


def dense_constraint_matrix(traj, ledger, cap=DENSE_CAP):
    """Assemble the constraint operator column by column.

    Shape (N*K, N*(K+1)); exactly N*(K+1) operator applications.
    """
    n = traj.system.dim
    k = traj.n_segments
    _check_cap(n * k, cap)
    cols = n * (k + 1)
    a = np.empty((n * k, cols))
    unit = np.zeros((k + 1, n))
    flat = unit.reshape(-1)
    for c in range(cols):
        flat[c] = 1.0
        a[:, c] = shadow.constraint_apply(traj, ledger, unit).reshape(-1)
        flat[c] = 0.0
    return a


def dense_segment_propagator(traj, ledger, segment):
    """One projected segment propagator as an (N, N) matrix."""
    n = traj.system.dim
    mat = np.empty((n, n))
    unit = np.zeros(n)
    for c in range(n):
        unit[c] = 1.0
        mat[:, c] = shadow.propagate_segment(traj, ledger, segment, unit)
        unit[c] = 0.0
    return mat


@dataclass
class SpectrumReport:
    label: str
    eigenvalues: np.ndarray  # ascending; [mu_min, mu_max] in extremes mode
    kappa: float
    mode: str = "dense"
    converged: bool = True

    def to_csv(self, path):
        write_labeled_csv(path, self.label, self.eigenvalues)


def spectrum(operator, size, mode="dense", cap=DENSE_CAP, label="", tol=1e-8,
             extremes="both"):
    """Eigenvalues of a symmetric positive definite operator.

    ``operator`` is a dense matrix or a callable on flat vectors.
    Dense mode symmetrizes ((B + B^T)/2) before the eigensolve and
    returns the full set.  lanczos-extremes mode estimates
    (mu_min, mu_max) with matrix-vector products and flags
    non-convergence instead of raising; ``extremes="max"`` skips the
    (much slower) smallest-eigenvalue search and reports only mu_max.
    """
    if mode == "dense":
        _check_cap(size, cap)
        if callable(operator):
            mat = np.empty((size, size))
            unit = np.zeros(size)
            for c in range(size):
                unit[c] = 1.0
                mat[:, c] = operator(unit)
                unit[c] = 0.0
        else:
            mat = np.asarray(operator)
        mat = 0.5 * (mat + mat.T)
        eigs = np.linalg.eigvalsh(mat)
        return SpectrumReport(label, eigs, float(eigs[-1] / eigs[0]), "dense")
    if mode != "lanczos-extremes":
        raise ValueError(f"unknown spectrum mode {mode!r}")
    op = operator if callable(operator) else (lambda v: operator @ v)
    linop = spla.LinearOperator((size, size), matvec=op)
    converged = True
    sides = {"both": ("SA", "LA"), "min": ("SA",), "max": ("LA",)}[extremes]
    found = []
    for which in sides:
        try:
            vals = spla.eigsh(
                linop, k=1, which=which, tol=tol, maxiter=size * 50,
                return_eigenvectors=False,
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

    Uses the symmetric similarity M^1/2 S M^1/2, which shares the
    spectrum of M S; the shift adds gamma exactly.
    """
    msqrt = pc.dense_sqrt() if hasattr(pc, "dense_sqrt") else pc
    sym = msqrt @ s_dense @ msqrt
    rep = spectrum(sym, s_dense.shape[0], mode="dense", label=label)
    if gamma:
        eigs = rep.eigenvalues + gamma
        rep = SpectrumReport(label, eigs, float(eigs[-1] / eigs[0]), "dense")
    return rep


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


def picard_data(a, b, svd=None, cap=DENSE_CAP):
    """Picard table of the dense constraint matrix and right-hand side."""
    _check_cap(a.shape[0], cap)
    u, s, _ = svd if svd is not None else np.linalg.svd(a, full_matrices=False)
    proj = np.abs(u.T @ np.asarray(b).reshape(-1))
    with np.errstate(divide="ignore"):
        coef = np.where(s > 0, proj / np.where(s > 0, s, 1.0), np.inf)
    return PicardTable(s.copy(), proj, coef)


def truncated_svd_solution(a, b, rank, svd=None, cap=DENSE_CAP):
    """Minimal-norm solution restricted to the top ``rank`` singular modes.

    Returns a (K+1, N) checkpoint stack; rank may be 0 (zero stack) up
    to the full row count of the dense constraint matrix.
    """
    _check_cap(a.shape[0], cap)
    if not 0 <= rank <= a.shape[0]:
        raise ValueError(f"rank must be in [0, {a.shape[0]}]")
    k, n = np.asarray(b).shape
    u, s, vt = svd if svd is not None else np.linalg.svd(a, full_matrices=False)
    flat = np.asarray(b).reshape(-1)
    coef = (u[:, :rank].T @ flat) / s[:rank]
    return (vt[:rank].T @ coef).reshape(k + 1, n)


def sensitivity_vs_rank(traj, objective, a, b, ranks, svd=None):
    """Sensitivity of the truncated-SVD solution as the rank grows.

    Returns a list of (rank, sensitivity) pairs, the data behind the
    accuracy-vs-rank curve.  The sensitivity is affine in the
    checkpoint stack, so every rank's value is s0 + <weights, v> / T
    from one shadow.sensitivity_functional of the trajectory.
    """
    if svd is None:
        svd = np.linalg.svd(a, full_matrices=False)
    ranks = [int(rank) for rank in ranks]
    k, n = np.asarray(b).shape
    stack = np.empty((len(ranks), k + 1, n))
    for i, rank in enumerate(ranks):
        stack[i] = truncated_svd_solution(a, b, rank, svd=svd)
    weights, s0 = shadow.sensitivity_functional(traj, objective)
    return list(zip(ranks, s0 + (stack * weights).sum(axis=(1, 2)) / traj.span))


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

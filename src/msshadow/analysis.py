"""Dense oracles and conditioning diagnostics for small instances.

Everything here exists to *study* the matrix-free operators.  S = A A^T
and M^1/2 S M^1/2 are placed from (N, N) blocks; the dense A is the
tests' oracle.  One eigendecomposition of S gives the raw spectrum, A's
singular values and the projections U^T b and U^T (A weights) on its
left singular vectors U, hence the Picard table and the truncated-SVD
curve; U itself is never read.  On the band route (band_route) both
spectra come from the compiled band eigensolver on S's lower band,
2N rows of N K, which turns the projections along with its rotations
and forms neither U nor a dense (N K)^2 array.  On the dense route, the
fallback without a C compiler and for bands too wide to gain, one eigh
of S holds about four (N K)^2 float64 arrays: S, LAPACK's copy, its
workspace and the vectors.  Both are made under a size cap; large
instances only get extreme eigenvalue estimates, from a Lanczos run on
products.
"""

import csv
import io
import itertools
from dataclasses import dataclass

import numpy as np

from . import _native, shadow
from .errors import ShadowingError

DENSE_CAP = 2000
# N*K per bandwidth 2N - 1 from which S's spectra take the band route:
# the band solve takes about (2N - 1) (N K)^2 flops against (N K)^3 for
# LAPACK's dense one, and with both spectra the two broke even at 8-12
# bandwidths (N = 31 and 63, BLAS on one thread); Lorenz takes the band
# from K = 20, KS at N = 127 never under DENSE_CAP
BAND_RATIO = 12


def dense_constraint_matrix(traj, ledger, cap=DENSE_CAP, normal=False,
                            band=False):
    """The constraint operator as a dense (N*K, N*(K+1)) matrix, or with
    ``normal`` S = A A^T as a dense, exactly symmetric (N*K, N*K) one,
    placed from the (K, N, N) stack of shadow.segment_propagators, or
    with ``band`` too as S's lower band (2N, N*K) (see _band).  Row block
    i of A is [-Phi_i, I] at column blocks i and i+1; S has
    Phi_i Phi_i^T + I (symmetrized) on the diagonal, -Phi_{i+1} below it
    and its transpose above.  Charged N*K forward products, one per unit
    column per segment, what a build past the memory budget sweeps.
    """
    n = traj.system.dim
    k = traj.n_segments
    if n * k > cap:
        raise ShadowingError(f"dense oracle requested for size {n * k} > cap {cap}")
    mats = shadow.segment_propagators(traj)
    ledger.charge_forward(n * k)
    seg = np.arange(k)
    if normal:
        diag = np.matmul(mats, mats.transpose(0, 2, 1)) + np.eye(n)
        diag = 0.5 * (diag + diag.transpose(0, 2, 1))
        if band:
            return _band(diag, -mats[1:])
        s = np.zeros((n * k, n * k))
        blocks = s.reshape(k, n, k, n)
        blocks[seg, :, seg, :] = diag
        blocks[seg[1:], :, seg[:-1], :] = -mats[1:]
        blocks[seg[:-1], :, seg[1:], :] = -mats[1:].transpose(0, 2, 1)
        return s
    a = np.zeros((n * k, n * (k + 1)))
    blocks = a.reshape(k, n, k + 1, n)
    blocks[seg, :, seg, :] = -mats
    blocks[seg, :, seg + 1, :] = np.eye(n)
    return a


def _band(diag, below):
    """The lower band (2N, N*K) of the symmetric block-tridiagonal matrix
    with diagonal blocks diag (K, N, N), whose lower triangles are read,
    and blocks below them below (K-1, N, N): row d holds entry (j+d, j)
    at column j, zero past the matrix, the layout of _native.band_eigh."""
    k, n, _ = diag.shape
    ab = np.zeros((2 * n, k, n))
    r, c = np.tril_indices(n)
    ab[r - c, :, c] = diag[:, r, c].T
    r, c = np.indices((n, n)).reshape(2, -1)
    ab[n + r - c, :-1, c] = below[:, r, c].T
    return ab.reshape(2 * n, k * n)


def _blocks(ab):
    """(diag, below) of the band _band places, diag symmetric."""
    n = len(ab) // 2
    ab = ab.reshape(2 * n, -1, n)
    r, c = np.indices((n, n))
    return (ab[np.abs(r - c), :, np.minimum(r, c)].transpose(2, 0, 1),
            ab[n + r - c, :-1, c].transpose(2, 0, 1))


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


def spectrum(operator, size, label=""):
    """Extreme eigenvalues of a symmetric positive definite operator.

    ``operator`` is a dense matrix or a callable on flat vectors.  One
    Lanczos run from a random vector fixed by ``size`` keeps its m basis
    vectors and orthogonalizes each new one against them twice.  Every
    10 steps it stops once both extreme Ritz pairs (theta, y) of T_m pass
    beta_m |y_m| <= tol |theta|, tol = 1e-8; it also stops at m = size or
    when beta_m vanishes.  ``converged`` is the true residual test of both
    pairs, |S x - theta x| <= tol |theta|, two more products.
    """
    op = operator if callable(operator) else (lambda v: operator @ v)
    tol, ends = 1e-8, [0, -1]
    w = np.random.default_rng(size).uniform(-1.0, 1.0, size)
    basis, alpha, beta = np.empty((0, size)), [], [np.linalg.norm(w)]
    for m in range(1, size + 1):
        if m > len(basis):
            basis = np.concatenate((basis, np.empty((10, size))))
        q = basis[m - 1] = w / beta[-1]
        w = op(q)
        alpha.append(q @ w)
        for _ in range(2):
            w = w - (w @ basis[:m].T) @ basis[:m]
        beta.append(np.linalg.norm(w))
        if m % 10 and m < size and beta[-1] > tol * abs(alpha[-1]):
            continue
        off = np.diag(beta[1:-1], 1)
        theta, y = np.linalg.eigh(np.diag(alpha) + off + off.T)
        if m == size or np.all(
                beta[-1] * np.abs(y[-1, ends]) <= tol * np.abs(theta[ends])):
            break
    eigs, ritz = theta[ends], y[:, ends].T @ basis[:m]
    converged = all(np.linalg.norm(op(x) - mu * x) <= tol * abs(mu)
                    for x, mu in zip(ritz, eigs))
    return SpectrumReport(label, eigs, float(eigs[1] / eigs[0]),
                          "lanczos-extremes", converged)


def preconditioned_spectrum(s_mat, pc, gamma=0.0, label=""):
    """Spectrum of the preconditioned (optionally shifted) system.

    The symmetric similarity M^1/2 S M^1/2 shares the spectrum of M S.
    From the dense S it is formed as M^1/2 (M^1/2 S)^T, two batched
    products of N-row blocks with M^1/2's blocks I + U_i (sigma_i^-1 - 1)
    U_i^T, symmetrized, for LAPACK's eigvalsh; the band route takes it
    from conditioning.  The shift adds gamma exactly; no size cap applies.
    """
    root = pc.blocks(sqrt=True)
    k, n, _ = root.shape
    sym = np.matmul(root, s_mat.reshape(k, n, -1)).reshape(k * n, -1)
    sym = np.matmul(root, sym.T.reshape(k, n, -1)).reshape(k * n, -1)
    eigs = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    return SpectrumReport.dense(label, eigs + gamma if gamma else eigs)


def _similar_band(s_band, pc):
    """The lower band of M^1/2 S M^1/2 from S's, s_band: R_i D_i R_i,
    symmetrized, on the diagonal and R_{i+1} L_i R_i below it, for D_i
    and L_i S's blocks and R_i M^1/2's."""
    root = pc.blocks(sqrt=True)
    diag, below = _blocks(s_band)
    diag = root @ diag @ root
    return _band(0.5 * (diag + diag.transpose(0, 2, 1)),
                 root[1:] @ below @ root[:-1])


def band_route(n, k):
    """Whether S's spectra of N = n and K = k take the band route: the C
    library loads and N*K is at least BAND_RATIO bandwidths 2N - 1."""
    return BAND_RATIO * (2 * n - 1) <= n * k and _native.library() is not None


def modal_inputs(traj, b, weights):
    """(N*K, 2) columns b and A weights, the two vectors whose projections
    on A's left singular vectors the Picard table and the truncated-SVD
    curve read; A weights is shadow.constraint_apply's, on a ledger of
    its own."""
    aw = shadow.constraint_apply(traj, shadow.CostLedger(), weights)
    return np.stack((np.asarray(b).reshape(-1), aw.reshape(-1)), axis=1)


def conditioning(s_mat, y=None, pc=None, band=False):
    """((sigma descending, U^T y in sigma's order or None), ascending
    eigenvalues of S = A A^T, ascending eigenvalues of M^1/2 S M^1/2 for
    the preconditioner pc or None) for the dense S (its lower triangle),
    by LAPACK's eigh (and preconditioned_spectrum's eigvalsh), or for
    S's lower band (``band``) by one _native.band_eighs call, which forms
    neither U nor a dense (N*K)^2 array and with pc diagonalises both
    bands, their QL recurrences interleaved.  U holds A's left singular
    vectors; y is (N*K, m), such as modal_inputs'.  A has full row rank
    (its I blocks), so an eigenvalue <= 0 raises.  sigma_i's relative
    error is about eps (sigma_max / sigma_i)^2, the kappa(S) floor of the
    CG solve on S that the analysis studies."""
    if band:
        bands = [(s_mat, y)]
        if pc is not None:
            bands.append((_similar_band(s_mat, pc), None))
        (eigs, proj), *rest = _native.band_eighs(*bands)
        proj = None if proj is None else proj[::-1]
        pre = rest[0][0] if rest else None
    else:
        # first, so that its arrays are freed before eigh's
        pre = (None if pc is None
               else preconditioned_spectrum(s_mat, pc).eigenvalues)
        eigs, vecs = np.linalg.eigh(s_mat)
        u = vecs[:, ::-1]
        proj = None if y is None else np.stack([u.T @ col for col in y.T],
                                               axis=1)
    if eigs[0] <= 0.0:
        raise ShadowingError(f"A A^T is not positive definite: {eigs[0]:.3g}")
    return (np.sqrt(eigs[::-1]), proj), eigs, pre


@dataclass
class PicardTable:
    """Discrete Picard data: singular values, right-hand-side
    projections, and their ratios."""

    sigma: np.ndarray
    projections: np.ndarray    # |u_i^T b|
    coefficients: np.ndarray   # |u_i^T b| / sigma_i

    def rows(self):
        """(index from 1, sigma, projection, coefficient) tuples of Python
        numbers."""
        return zip(range(1, self.sigma.size + 1), self.sigma.tolist(),
                   self.projections.tolist(), self.coefficients.tolist())

    def to_csv(self, path):
        write_csv(path, ["index", "sigma", "projection", "coefficient"],
                  self.rows())


def picard_data(modes):
    """Picard table of A and b from ``modes``, (sigma descending, P) with
    P[:, 0] = U^T b in sigma's order, such as conditioning's first
    item with modal_inputs' y."""
    s, proj = modes[0], np.abs(modes[1][:, 0])
    with np.errstate(divide="ignore"):
        coef = np.where(s > 0, proj / np.where(s > 0, s, 1.0), np.inf)
    return PicardTable(s.copy(), proj, coef)


def sensitivity_vs_rank(modes, ranks, s0, span):
    """Sensitivity of the truncated-SVD solution as the rank grows.

    Returns a list of (rank, sensitivity) pairs, the data behind the
    accuracy-vs-rank curve.  ``modes`` is (sigma descending, P) with P's
    columns U^T b and U^T (A weights) for the sensitivity functional's
    weights (modal_inputs), s0 the zero stack's sensitivity and span the
    window T.  With V = A^T U / sigma, rank r's value is
    s0 + sum_{i<=r} P[i, 0] P[i, 1] / sigma_i^2 / T, one cumulative sum.
    """
    s, proj = modes
    ranks = [int(rank) for rank in ranks]
    if not all(0 <= rank <= s.size for rank in ranks):
        raise ValueError(f"ranks must be in [0, {s.size}]")
    terms = proj[:, 0] * proj[:, 1] / s**2
    partial = np.concatenate(([0.0], np.cumsum(terms)))
    return [(rank, s0 + partial[rank] / span) for rank in ranks]


def write_csv(path, header, rows):
    """CSV with a header row; floats serialized at full precision, as
    f"{x:.17g}", so reruns are bit-identical.  csv.writer writes the
    rows, or, when every column holds numbers of one kind or strings it
    writes unquoted, _row_pattern's one %-pattern: the same bytes, in
    about a third of the time for rows of Python numbers such as an
    array's tolist() gives."""
    rows = list(rows)
    pattern = _row_pattern(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if pattern is None:
            writer.writerows([f"{x:.17g}"
                              if isinstance(x, (float, np.floating)) else x
                              for x in row] for row in rows)
        else:
            fh.write("".join([pattern % row for row in rows]))


def _row_pattern(rows):
    """The %-pattern of every one of rows, its columns' fields joined by
    "," and ended by csv's line end, or None for no rows or a column with
    no field: "%.17g" for floats, "%d" for ints and "%s" for strings that
    csv.writer writes unquoted in a row this wide (a short row's missing
    fields are None, which has none)."""
    columns = list(itertools.zip_longest(*rows))
    end = csv.excel.lineterminator
    fields = []
    for col in columns:
        kinds = {_field(kind) for kind in set(map(type, col))}
        field = kinds.pop() if len(kinds) == 1 else None
        if field is None or field == "%s" and any(
                _csv_line([value] * len(columns))
                != ",".join([value] * len(columns)) + end
                for value in set(col)):
            return None
        fields.append(field)
    return ",".join(fields) + end if fields else None


def _field(kind):
    """The %-field of a column of type kind, or None."""
    if issubclass(kind, float):
        return "%.17g"
    if issubclass(kind, (int, np.integer)) and kind is not bool:
        return "%d"
    return "%s" if kind is str else None


def _csv_line(row):
    """csv.writer's text of row."""
    text = io.StringIO()
    csv.writer(text).writerow(row)
    return text.getvalue()


def write_labeled_csv(path, label, values):
    """(label, index, value) triples, the common artifact layout."""
    write_csv(path, ["label", "index", "value"],
              [(label, i, v)
               for i, v in enumerate(np.asarray(values).tolist(), 1)])

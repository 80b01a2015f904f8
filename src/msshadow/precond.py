"""Block-diagonal deflation preconditioner from per-segment partial SVDs.

Each diagonal block of the preconditioner acts as

    M_i z = U_i S_i^{-2} U_i^T z + (I - U_i U_i^T) z

where (U_i, S_i) are the leading singular pairs of the projected
segment propagator, so the product with the per-segment normal operator
deflates its largest eigenvalues towards one while leaving the rest
untouched.  The factors are computed matrix-free with a restarted
Lanczos bidiagonalization:

  cycle 1   Golub-Kahan-Lanczos recursion with full reorthogonalization,
            subspace dimension min(l+2, N), Ritz pairs from the SVD of the
            projected bidiagonal matrix.  At a breakdown (a new direction
            of norm at most CLAMP_RATIO times the largest coefficient so
            far, as when the start vector lies in an invariant subspace
            or the subspace exceeds the operator's rank) the recursion
            stops growing: the direction becomes a zero column with
            coefficient 0;
  cycle 2+  thick restart: the whole Ritz block is refreshed by one
            two-sided subspace iteration (orthonormalize the forward
            image, then the adjoint image) followed by Rayleigh-Ritz
            on the projected cross matrix.  Its QR refills a dead
            direction.

Every cycle applies the propagator and its adjoint exactly min(l+2, N)
times per segment, so the build cost charged to the ledger is exactly
2 K q min(l+2, N) products.  Builds for distinct segments are independent;
they are executed in lockstep as one batched sweep here.
"""

import numpy as np

from .errors import DimensionMismatch
from .shadow import _propagate_rows, _propagate_rows_adjoint

# singular values below this fraction of the per-segment maximum are
# treated as not converged and dropped from the inverse-square term
CLAMP_RATIO = 1e-10


def predict_costs(n_segments, cycles, retained, iterations, dim=None):
    """(preconditioner cost, solve cost) in propagator products; the
    Lanczos subspace l+2 is capped at the state dimension ``dim``."""
    if min(n_segments, cycles, retained, iterations) < 0:
        raise ValueError("cost model arguments must be non-negative")
    subspace = retained + 2 if dim is None else min(retained + 2, dim)
    return (
        2 * n_segments * cycles * subspace,
        2 * n_segments * iterations,
    )


def _orthogonalize(x, basis, n_cols):
    """Remove from rows of x their components along the first n_cols
    basis columns (classical Gram-Schmidt, applied twice)."""
    if n_cols == 0:
        return x
    b = basis[:, :, :n_cols]
    for _ in range(2):
        x = x - np.einsum("mnj,mj->mn", b, np.einsum("mn,mnj->mj", x, b))
    return x


def _normalize_column(x, scale):
    """Rows of x as unit basis columns, with their norms as coefficients;
    a row of norm at most CLAMP_RATIO * scale has broken down and gives
    a zero column with coefficient 0."""
    nrm = np.linalg.norm(x, axis=1)
    ok = nrm > CLAMP_RATIO * scale
    col = np.zeros_like(x)
    col[ok] = x[ok] / nrm[ok, None]
    return col, np.where(ok, nrm, 0.0)


def _batched_partial_svd(fwd, adj, segments, dim, subspace, cycles, rng):
    """Leading singular triplets of one operator per row, in lockstep.

    fwd/adj map (rows, dim) arrays to (rows, dim) arrays given the
    per-row segment indices.  Returns (values, left): values (m,
    subspace) descending and left (m, dim, subspace).
    """
    m = len(segments)
    p = subspace

    big_v = np.zeros((m, dim, p + 1))
    big_u = np.zeros((m, dim, p))
    alpha = np.zeros((m, p))
    beta = np.zeros((m, p))

    v = rng.standard_normal((m, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    big_v[:, :, 0] = v
    scale = np.full(m, 1e-300)

    for j in range(p):
        u = fwd(big_v[:, :, j], segments)
        if j > 0:
            u = u - beta[:, j - 1, None] * big_u[:, :, j - 1]
        big_u[:, :, j], alpha[:, j] = _normalize_column(
            _orthogonalize(u, big_u, j), scale)
        scale = np.maximum(scale, alpha[:, j])

        vn = adj(big_u[:, :, j], segments)
        vn = vn - alpha[:, j, None] * big_v[:, :, j]
        big_v[:, :, j + 1], beta[:, j] = _normalize_column(
            _orthogonalize(vn, big_v, j + 1), scale)
        scale = np.maximum(scale, beta[:, j])

    # Ritz pairs from the bidiagonal projection
    bmat = np.zeros((m, p, p))
    idx = np.arange(p)
    bmat[:, idx, idx] = alpha
    bmat[:, idx[:-1], idx[:-1] + 1] = beta[:, : p - 1]
    x, values, yt = np.linalg.svd(bmat)
    left = np.einsum("mnp,mpq->mnq", big_u, x)
    right = np.einsum("mnp,mqp->mnq", big_v[:, :, :p], yt)

    # thick restart: two-sided refresh of the Ritz block + Rayleigh-Ritz
    rows = np.repeat(segments, p)
    for _ in range(1, cycles):
        w = fwd(
            right.transpose(0, 2, 1).reshape(m * p, dim), rows
        ).reshape(m, p, dim).transpose(0, 2, 1)
        u_basis, _ = np.linalg.qr(w)
        z = adj(
            u_basis.transpose(0, 2, 1).reshape(m * p, dim), rows
        ).reshape(m, p, dim).transpose(0, 2, 1)
        v_basis, rv = np.linalg.qr(z)
        # cross matrix u^T Phi v == rv^T, no extra products needed
        x, values, yt = np.linalg.svd(rv.transpose(0, 2, 1))
        left = np.einsum("mnp,mpq->mnq", u_basis, x)
        right = np.einsum("mnp,mqp->mnq", v_basis, yt)

    return values, left


def lanczos_partial_svd(op, op_t, dim, retained, cycles, rng):
    """Partial SVD of a generic operator pair (matrix-free).

    Returns (values, left_vectors) for the top ``retained`` singular
    modes, using the same restarted bidiagonalization as the segment
    builds.  Mainly a test seam for injected operators.
    """
    p = min(retained + 2, dim)
    values, left = _batched_partial_svd(
        lambda x, _: op(x), lambda x, _: op_t(x),
        np.zeros(1, dtype=int), dim, p, cycles, rng,
    )
    return values[0, :retained], left[0, :, :retained]


def _check_modes(left, values, kept):
    """Validate m blocks of (m, N, l) left vectors and (m, l) values, of
    which row i keeps its first kept[i]: orthonormal kept columns and
    positive descending kept values."""
    if left.shape[::2] != values.shape or kept.shape != values.shape[:1]:
        raise DimensionMismatch("left vectors and values disagree")
    live = np.arange(values.shape[1]) < kept[:, None]
    gram = np.matmul(left.transpose(0, 2, 1), left)
    gram -= live[:, :, None] * np.eye(live.shape[1])
    if np.abs(gram).max(initial=0.0) > 1e-10:
        raise ValueError("left singular vectors are not orthonormal")
    if (((values <= 0) & live).any()
            or ((np.diff(values, axis=1) > 0) & live[:, 1:]).any()):
        raise ValueError("singular values must be positive descending")


class BlockDiagPreconditioner:
    """Block-diagonal deflation I + U_i (S_i^-2 - 1) U_i^T.

    Block i keeps the first kept[i] columns of left[i], of the (K, N, l)
    left vectors, and of values[i], of the (K, l) singular values; its
    other columns are zero with value 1, whose coefficient is 0 in every
    apply.  ``apply`` is the preconditioner itself; ``apply_inv`` and
    ``apply_sqrt`` use the closed forms obtained by replacing the
    inverse-square coefficients.  All three take any stack of K*N
    entries, a (K, N) stack or a flat vector, return its shape, are
    symmetric positive definite and cost no propagator products.
    """

    def __init__(self, left, values, kept, retained, cycles):
        _check_modes(left, values, kept)
        self.left, self.values, self.kept = left, values, kept
        self.retained, self.cycles = retained, cycles

    @property
    def clamped_modes(self):
        """Retained modes dropped by CLAMP_RATIO, summed over blocks."""
        return int(self.retained * self.kept.size - self.kept.sum())

    def apply(self, z):
        return self._apply_coeff(z, lambda s: s**-2 - 1.0)

    def apply_inv(self, z):
        return self._apply_coeff(z, lambda s: s**2 - 1.0)

    def apply_sqrt(self, z):
        return self._apply_coeff(z, lambda s: 1.0 / s - 1.0)

    def blocks(self, sqrt=False):
        """The (K, N, N) diagonal blocks of M, or of M^1/2 with ``sqrt``:
        I + U_i (S_i^-2 - 1) U_i^T, or I + U_i (S_i^-1 - 1) U_i^T."""
        coeff = 1.0 / self.values - 1.0 if sqrt else self.values**-2 - 1.0
        scaled = self.left * coeff[:, None, :]
        return (np.eye(self.left.shape[1])
                + np.matmul(scaled, self.left.transpose(0, 2, 1)))

    def _apply_coeff(self, z, coeff):
        k, n = self.left.shape[:2]
        if z.size != k * n:
            raise DimensionMismatch(
                f"stack has {z.size} entries, expected {k * n}"
            )
        blocks = z.reshape(k, n)
        c = np.matmul(blocks[:, None, :], self.left)[:, 0, :]
        d = coeff(self.values) * c
        out = blocks + np.matmul(self.left, d[:, :, None])[:, :, 0]
        return out.reshape(z.shape)


def _clamp(left, values, retained):
    """Per row, the leading modes above CLAMP_RATIO times the largest, at
    most retained: (left, values, kept), padded to the widest row with
    zero columns of value 1."""
    count = (values > CLAMP_RATIO * values[:, :1]).sum(axis=1)
    kept = np.where(values[:, 0] > 0.0, np.minimum(retained, count), 0)
    live = np.arange(kept.max()) < kept[:, None]
    return (np.where(live[:, None, :], left[:, :, : kept.max()], 0.0),
            np.where(live, values[:, : kept.max()], 1.0), kept)


def build_preconditioner(traj, ledger, retained, cycles, rng=None):
    """Clamped partial SVDs of all segment propagators, run in lockstep.

    Charges the ledger exactly K*cycles*min(retained+2, N) products of
    each kind.  ``retained`` must not exceed the state dimension.
    """
    dim = traj.system.dim
    if not 1 <= retained <= dim:
        raise ValueError(f"retained modes must be in [1, {dim}]")
    if cycles < 1:
        raise ValueError("need at least one cycle")
    if rng is None:
        rng = np.random.default_rng()
    values, left = _batched_partial_svd(
        lambda x, segs: _propagate_rows(traj, ledger, segs, x),
        lambda x, segs: _propagate_rows_adjoint(traj, ledger, segs, x),
        np.arange(traj.n_segments), dim, min(retained + 2, dim), cycles, rng,
    )
    return BlockDiagPreconditioner(*_clamp(left, values, retained), retained,
                                   cycles)


def exact_preconditioner(a_dense, retained):
    """Deflation preconditioner from the exact top-l SVD of dense A, as
    one block of the block-diagonal operator (validation at small scale).

    ``retained`` may be 0 (identity) up to the full row count, at which
    point the product with the normal operator is the identity.
    """
    rows = a_dense.shape[0]
    if not 0 <= retained <= rows:
        raise ValueError(f"retained modes must be in [0, {rows}]")
    u, s, _ = np.linalg.svd(a_dense, full_matrices=False)
    return BlockDiagPreconditioner(u[None, :, :retained].copy(),
                                   s[None, :retained].copy(),
                                   np.array([retained]), retained, 0)

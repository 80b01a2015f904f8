"""Block-diagonal deflation preconditioner from per-segment partial SVDs.

Each diagonal block of the preconditioner acts as

    M_i z = U_i S_i^{-2} U_i^T z + (I - U_i U_i^T) z

where (U_i, S_i) are the leading singular pairs of the projected
segment propagator, so the product with the per-segment normal operator
deflates its largest eigenvalues towards one while leaving the rest
untouched.  The factors are computed matrix-free by one Golub-Kahan-
Lanczos bidiagonalization of q min(l+2, N) steps, q the ``cycles``,
with full reorthogonalization (classical Gram-Schmidt, twice); the
Ritz pairs come from the SVD of the projected bidiagonal matrix.  At a
breakdown (a new direction of norm at most CLAMP_RATIO times the
largest coefficient so far, as when the start vector lies in an
invariant subspace or the recursion exceeds the operator's rank) the
direction becomes a zero vector with coefficient 0, and so does every
later one up to the end of its cycle of min(l+2, N) steps.  At each
cycle boundary a dead direction is refilled with the unit vector e_k
least covered by the basis, orthogonalized against it; once the basis
spans the space it stays zero.

Every step applies the propagator and its adjoint once per segment, so
the build cost charged to the ledger is exactly 2 K q min(l+2, N)
products.  Builds for distinct segments are independent; they are
executed in lockstep as one batched sweep here.
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


def _orthogonalize(x, basis):
    """Remove from rows of x, (m, N), their components along the rows of
    basis, (m, j, N) (classical Gram-Schmidt, applied twice)."""
    for _ in range(2):
        coeff = np.matmul(basis, x[:, :, None]).transpose(0, 2, 1)
        x = x - np.matmul(coeff, basis)[:, 0]
    return x


def _normalize_column(x, scale):
    """Rows of x as unit basis vectors, with their norms as coefficients;
    a row of norm at most CLAMP_RATIO * scale has broken down and gives
    a zero vector with coefficient 0."""
    nrm = np.sqrt(np.einsum("ij,ij->i", x, x))
    ok = nrm > CLAMP_RATIO * scale
    return x / np.where(ok, nrm, np.inf)[:, None], np.where(ok, nrm, 0.0)


def _refill(v, basis):
    """Zero rows of v, (m, N), replaced in place by the unit vector e_k
    least covered by the row's basis, (m, j, N), orthogonalized against
    it; a row whose basis spans the space stays zero."""
    dead = np.flatnonzero(~v.any(axis=1))
    if dead.size:
        b = basis[dead]
        e = np.zeros((dead.size, v.shape[1]))
        e[np.arange(dead.size), np.argmin((b * b).sum(axis=1), axis=1)] = 1.0
        v[dead] = _normalize_column(_orthogonalize(e, b), 1.0)[0]


def _batched_partial_svd(fwd, adj, m, dim, subspace, cycles, rng):
    """Leading singular triplets of m operators, one per row, in lockstep.

    fwd/adj map (m, dim) arrays to (m, dim) arrays, row i through
    operator i.  Returns (values, left): values (m, subspace) descending
    and left (m, dim, subspace).
    """
    steps = subspace * cycles

    # one basis vector per row, so that each prefix is a (m, j, dim) stack
    big_v = np.zeros((m, steps + 1, dim))
    big_u = np.zeros((m, steps, dim))
    alpha = np.zeros((m, steps))
    beta = np.zeros((m, steps))

    v = rng.standard_normal((m, dim))
    big_v[:, 0] = v / np.linalg.norm(v, axis=1, keepdims=True)
    scale = np.full(m, 1e-300)

    for j in range(steps):
        if j and j % subspace == 0:
            _refill(big_v[:, j], big_v[:, :j])
        u = fwd(big_v[:, j])
        if j > 0:
            u = u - beta[:, j - 1, None] * big_u[:, j - 1]
        big_u[:, j], alpha[:, j] = _normalize_column(
            _orthogonalize(u, big_u[:, :j]), scale)
        scale = np.maximum(scale, alpha[:, j])

        vn = adj(big_u[:, j]) - alpha[:, j, None] * big_v[:, j]
        big_v[:, j + 1], beta[:, j] = _normalize_column(
            _orthogonalize(vn, big_v[:, :j + 1]), scale)
        scale = np.maximum(scale, beta[:, j])

    # Ritz pairs from the bidiagonal projection
    bmat = np.zeros((m, steps, steps))
    idx = np.arange(steps)
    bmat[:, idx, idx] = alpha
    bmat[:, idx[:-1], idx[:-1] + 1] = beta[:, :-1]
    x, values, _ = np.linalg.svd(bmat)
    left = np.matmul(big_u.transpose(0, 2, 1), x[:, :, :subspace])
    return values[:, :subspace], left


def _check_request(dim, retained, cycles):
    if not 1 <= retained <= dim:
        raise ValueError(f"retained modes must be in [1, {dim}]")
    if cycles < 1:
        raise ValueError("need at least one cycle")


def lanczos_partial_svd(op, op_t, dim, retained, cycles, rng):
    """Partial SVD of a generic operator pair (matrix-free).

    Returns (values, left_vectors) for the top ``retained`` singular
    modes, using the same bidiagonalization as the segment builds.
    Mainly a test seam for injected operators.
    """
    _check_request(dim, retained, cycles)
    values, left = _batched_partial_svd(
        op, op_t, 1, dim, min(retained + 2, dim), cycles, rng)
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
    _check_request(dim, retained, cycles)
    if rng is None:
        rng = np.random.default_rng()
    values, left = _batched_partial_svd(
        lambda x: _propagate_rows(traj, ledger, None, x),
        lambda x: _propagate_rows_adjoint(traj, ledger, None, x),
        traj.n_segments, dim, min(retained + 2, dim), cycles, rng,
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

"""Block-diagonal deflation preconditioner from per-segment partial SVDs.

Each diagonal block of the preconditioner acts as

    M_i z = U_i S_i^{-2} U_i^T z + (I - U_i U_i^T) z

where (U_i, S_i) are the leading singular pairs of the projected
segment propagator, so the product with the per-segment normal operator
deflates its largest eigenvalues towards one while leaving the rest
untouched.  The factors are computed matrix-free with a restarted
Lanczos bidiagonalization:

  cycle 1   Golub-Kahan-Lanczos recursion with full reorthogonalization,
            subspace dimension l+2, Ritz pairs from the SVD of the
            projected bidiagonal matrix;
  cycle 2+  thick restart: the whole Ritz block is refreshed by one
            two-sided subspace iteration (orthonormalize the forward
            image, then the adjoint image) followed by Rayleigh-Ritz
            on the projected cross matrix.

Every cycle applies the propagator and its adjoint exactly l+2 times
per segment, so the build cost charged to the ledger is exactly
2 K q (l+2) products.  Builds for distinct segments are independent;
they are executed in lockstep as one batched sweep here.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import BreakdownError, DimensionMismatch, ShadowingError
from .shadow import _propagate_rows, _propagate_rows_adjoint

_MAGIC = b"MSSBDP1\x00"

# singular values below this fraction of the per-segment maximum are
# treated as not converged and dropped from the inverse-square term
CLAMP_RATIO = 1e-10


def predict_costs(n_segments, cycles, retained, iterations):
    """(preconditioner cost, solve cost) in propagator products."""
    if min(n_segments, cycles, retained, iterations) < 0:
        raise ValueError("cost model arguments must be non-negative")
    return (
        2 * n_segments * cycles * (retained + 2),
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


def _normalize_column(x, basis, n_cols, rng, failures, scale):
    """Turn rows of x into fresh unit basis columns.

    Returns (column, coeff, restarts): coeff is the row norm, or zero
    for rows that broke down.  Degenerate rows are replaced by random
    directions orthogonal to the basis, counted in restarts; if the
    basis already spans the space the column stays zero.  Three failed
    random restarts raise."""
    nrm = np.linalg.norm(x, axis=1)
    ok = nrm > CLAMP_RATIO * scale
    coeff = np.where(ok, nrm, 0.0)
    col = np.zeros_like(x)
    col[ok] = x[ok] / nrm[ok, None]
    dim = x.shape[1]
    restarts = 0
    for row in np.nonzero(~ok)[0]:
        if n_cols >= dim:
            continue
        for _ in range(3):
            cand = rng.standard_normal(dim)
            cand = _orthogonalize(cand[None, :], basis[row : row + 1], n_cols)[0]
            cnrm = np.linalg.norm(cand)
            if cnrm > 1e-8:
                col[row] = cand / cnrm
                restarts += 1
                break
            failures[row] += 1
            if failures[row] >= 3:
                raise BreakdownError(
                    n_cols, f"Lanczos breakdown in row {row}: "
                    "3 random restarts produced degenerate vectors"
                )
    return col, coeff, restarts


def _batched_partial_svd(fwd, adj, segments, dim, subspace, cycles, rng):
    """Leading singular triplets of one operator per row, in lockstep.

    fwd/adj map (rows, dim) arrays to (rows, dim) arrays given the
    per-row segment indices.  Returns (values, left, restarts): values
    (m, subspace) descending, left (m, dim, subspace), and the number of
    basis vectors restarted with a random direction after a breakdown.
    """
    m = len(segments)
    p = subspace
    failures = np.zeros(m, dtype=int)
    restarts = 0

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
        u = _orthogonalize(u, big_u, j)
        col, coeff, new = _normalize_column(u, big_u, j, rng, failures, scale)
        restarts += new
        alpha[:, j] = coeff
        big_u[:, :, j] = col
        scale = np.maximum(scale, coeff)

        vn = adj(big_u[:, :, j], segments)
        vn = vn - alpha[:, j, None] * big_v[:, :, j]
        vn = _orthogonalize(vn, big_v, j + 1)
        col, coeff, new = _normalize_column(vn, big_v, j + 1, rng, failures, scale)
        restarts += new
        beta[:, j] = coeff
        big_v[:, :, j + 1] = col
        scale = np.maximum(scale, coeff)

    # Ritz pairs from the bidiagonal projection
    bmat = np.zeros((m, p, p))
    idx = np.arange(p)
    bmat[:, idx, idx] = alpha
    bmat[:, idx[:-1], idx[:-1] + 1] = beta[:, : p - 1]
    x, s, yt = np.linalg.svd(bmat)
    left = np.einsum("mnp,mpq->mnq", big_u, x)
    right = np.einsum("mnp,mqp->mnq", big_v[:, :, :p], yt)
    values = s

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
        x, s, yt = np.linalg.svd(rv.transpose(0, 2, 1))
        left = np.einsum("mnp,mpq->mnq", u_basis, x)
        right = np.einsum("mnp,mqp->mnq", v_basis, yt)
        values = s

    return values, left, restarts


def lanczos_partial_svd(op, op_t, dim, retained, cycles, rng):
    """Partial SVD of a generic operator pair (matrix-free).

    Returns (values, left_vectors, restarts) for the top ``retained``
    singular modes, using the same restarted bidiagonalization as the
    segment builds; restarts counts the random restarts after Lanczos
    breakdowns.  Mainly a test seam for injected operators.
    """
    p = min(retained + 2, dim)
    values, left, restarts = _batched_partial_svd(
        lambda x, _: op(x), lambda x, _: op_t(x),
        np.zeros(1, dtype=int), dim, p, cycles, rng,
    )
    return values[0, :retained], left[0, :, :retained], restarts


@dataclass
class SegmentSVD:
    """Leading left singular pairs of one projected segment propagator."""

    segment: int
    left: np.ndarray      # (N, l_i), orthonormal columns
    values: np.ndarray    # (l_i,), positive, descending
    cycles: int

    def __post_init__(self):
        if self.left.shape[1] != self.values.shape[0]:
            raise DimensionMismatch("left vectors and values disagree")
        if self.values.size:
            gram = self.left.T @ self.left
            if np.abs(gram - np.eye(self.values.size)).max() > 1e-10:
                raise ValueError("left singular vectors are not orthonormal")
            if (self.values <= 0).any() or (np.diff(self.values) > 0).any():
                raise ValueError("singular values must be positive descending")


class BlockDiagPreconditioner:
    """Per-segment deflation blocks applied to (K, N) stacks.

    ``apply`` is the preconditioner itself; ``apply_inv`` and
    ``apply_sqrt`` use the closed forms obtained by replacing the
    inverse-square coefficients.  All three are symmetric positive
    definite and cost no propagator products.  ``restarts`` is the
    build's count of Lanczos random restarts, None when not known (a
    loaded preconditioner).
    """

    def __init__(self, blocks, retained, cycles, restarts=None):
        if [b.segment for b in blocks] != list(range(len(blocks))):
            raise ValueError("need exactly one block per segment, in order")
        self.blocks = blocks
        self.retained = retained
        self.cycles = cycles
        self.restarts = restarts
        # all blocks as one (K, N, l) array of left vectors and (K, l)
        # values, l the largest block; clamped modes are zero columns
        # with value 1, whose coefficient is 0 in every apply
        n = blocks[0].left.shape[0]
        width = max(blk.values.size for blk in blocks)
        self._left = np.zeros((len(blocks), n, width))
        self._values = np.ones((len(blocks), width))
        for i, blk in enumerate(blocks):
            self._left[i, :, : blk.values.size] = blk.left
            self._values[i, : blk.values.size] = blk.values

    @property
    def n_segments(self):
        return len(self.blocks)

    @property
    def clamped_modes(self):
        """Retained modes dropped by CLAMP_RATIO, summed over blocks."""
        return sum(self.retained - blk.values.size for blk in self.blocks)

    def _apply_coeff(self, z, coeff):
        if z.shape[0] != self.n_segments:
            raise DimensionMismatch(
                f"stack has {z.shape[0]} rows, expected {self.n_segments}"
            )
        c = np.matmul(z[:, None, :], self._left)[:, 0, :]
        d = coeff(self._values) * c
        return z + np.matmul(self._left, d[:, :, None])[:, :, 0]

    def apply(self, z):
        return self._apply_coeff(z, lambda s: s**-2 - 1.0)

    def apply_inv(self, z):
        return self._apply_coeff(z, lambda s: s**2 - 1.0)

    def apply_sqrt(self, z):
        return self._apply_coeff(z, lambda s: 1.0 / s - 1.0)

    def dense(self):
        """Full matrix (validation only)."""
        return self._dense(lambda s: s**-2)

    def dense_sqrt(self):
        return self._dense(lambda s: 1.0 / s)

    def _dense(self, diag):
        n = self.blocks[0].left.shape[0]
        k = self.n_segments
        out = np.zeros((n * k, n * k))
        for i, blk in enumerate(self.blocks):
            block = np.eye(n)
            if blk.values.size:
                block += blk.left @ np.diag(diag(blk.values) - 1.0) @ blk.left.T
            out[i * n : (i + 1) * n, i * n : (i + 1) * n] = block
        return out

    def save(self, path):
        """Little-endian binary dump: magic, <q K> <q N> <q retained>
        <q cycles>, then per segment <q l_i>, values, left row-major."""
        n = self.blocks[0].left.shape[0]
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<qqqq", self.n_segments, n,
                                 self.retained, self.cycles))
            for blk in self.blocks:
                fh.write(struct.pack("<q", blk.values.size))
                fh.write(blk.values.astype("<f8").tobytes())
                fh.write(blk.left.astype("<f8").tobytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            if fh.read(8) != _MAGIC:
                raise ShadowingError(f"{path} is not a preconditioner dump")
            k, n, retained, cycles = struct.unpack("<qqqq", fh.read(32))
            blocks = []
            for i in range(k):
                (li,) = struct.unpack("<q", fh.read(8))
                values = np.frombuffer(fh.read(8 * li), dtype="<f8").astype(float)
                left = np.frombuffer(fh.read(8 * li * n), dtype="<f8")
                blocks.append(
                    SegmentSVD(i, left.reshape(n, li).astype(float), values, cycles)
                )
        return cls(blocks, retained, cycles)


def _clamp(values, left, retained):
    if values.size == 0 or values[0] <= 0.0:
        return values[:0], left[:, :0]
    keep = min(retained, int((values > CLAMP_RATIO * values[0]).sum()))
    return values[:keep].copy(), left[:, :keep].copy()


def _segment_svds(traj, ledger, segments, retained, cycles, rng):
    """Clamped partial SVDs of the given segments' propagators, run in
    lockstep, and the build's count of Lanczos random restarts."""
    dim = traj.system.dim
    if not 1 <= retained <= dim:
        raise ValueError(f"retained modes must be in [1, {dim}]")
    if cycles < 1:
        raise ValueError("need at least one cycle")
    if rng is None:
        rng = np.random.default_rng()
    values, left, restarts = _batched_partial_svd(
        lambda x, segs: _propagate_rows(traj, ledger, segs, x),
        lambda x, segs: _propagate_rows_adjoint(traj, ledger, segs, x),
        segments, dim, min(retained + 2, dim), cycles, rng,
    )
    blocks = []
    for row, i in enumerate(segments):
        vals, vecs = _clamp(values[row], left[row], retained)
        blocks.append(SegmentSVD(int(i), vecs, vals, cycles))
    return blocks, restarts


def partial_svd_segment(traj, ledger, segment, retained, cycles, rng=None):
    """Leading singular pairs of one segment's projected propagator.

    Charges the ledger exactly cycles*(retained+2) products of each
    kind.  ``retained`` must not exceed the state dimension.
    """
    segments = np.asarray([segment], dtype=int)
    return _segment_svds(traj, ledger, segments, retained, cycles, rng)[0][0]


def build_preconditioner(traj, ledger, retained, cycles, rng=None):
    """Partial SVDs of all segment propagators, run in lockstep."""
    blocks, restarts = _segment_svds(
        traj, ledger, np.arange(traj.n_segments), retained, cycles, rng)
    return BlockDiagPreconditioner(blocks, retained, cycles, restarts)


class DeflationPreconditioner:
    """Exact deflation operator from the top-l SVD of the dense
    constraint matrix (validation at small scale).

    Acts on (K, N) stacks through the same apply/apply_inv/apply_sqrt
    interface as the block-diagonal preconditioner.
    """

    def __init__(self, left, values, stack_shape):
        self.left = left          # (N*K, l)
        self.values = values      # (l,)
        self.stack_shape = stack_shape

    def _apply_coeff(self, z, coeff):
        flat = z.reshape(-1)
        out = flat.copy()
        if self.values.size:
            c = self.left.T @ flat
            out += self.left @ (coeff(self.values) * c)
        return out.reshape(self.stack_shape)

    def apply(self, z):
        return self._apply_coeff(z, lambda s: s**-2 - 1.0)

    def apply_inv(self, z):
        return self._apply_coeff(z, lambda s: s**2 - 1.0)

    def apply_sqrt(self, z):
        return self._apply_coeff(z, lambda s: 1.0 / s - 1.0)

    def dense(self):
        n = self.left.shape[0]
        return np.eye(n) + self.left @ np.diag(self.values**-2 - 1.0) @ self.left.T

    def dense_sqrt(self):
        n = self.left.shape[0]
        return np.eye(n) + self.left @ np.diag(1.0 / self.values - 1.0) @ self.left.T


def exact_preconditioner(a_dense, retained, stack_shape=None):
    """Deflation preconditioner from the exact top-l SVD of dense A.

    ``retained`` may be 0 (identity) up to the full row count, at which
    point the product with the normal operator is the identity.
    """
    rows = a_dense.shape[0]
    if not 0 <= retained <= rows:
        raise ValueError(f"retained modes must be in [0, {rows}]")
    if stack_shape is None:
        stack_shape = (rows,)
    u, s, _ = np.linalg.svd(a_dense, full_matrices=False)
    return DeflationPreconditioner(
        u[:, :retained].copy(), s[:retained].copy(), stack_shape
    )

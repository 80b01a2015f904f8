"""Multiple-shooting shadowing operators.

A trajectory over [0, T] is split into K segments.  Checkpoint stacks
hold K+1 rows (tangent values v_0..v_K at segment starts); segment
stacks hold K rows (constraint multipliers or right-hand-side blocks,
one per segment end).  All stacks are plain ndarrays of shape
(K+1, N) or (K, N).

The continuity constraint of the shooting system reads, row by row,

    (A v)_i = -Phi_i v_i + v_{i+1},        i = 0..K-1

where Phi_i projects the discrete tangent propagated across segment i
onto the complement of the flow direction at the segment end.  The
normal equations use S = A A^T, which is symmetric positive definite
and is never assembled.

A product with Phi_i or its transpose is a tangent or adjoint sweep
across the segment.  A trajectory may instead keep its projected
propagators as (N, N) matrices, built from batched sweeps of the unit
directions, and serve products as matrix-vector products.  When the
whole build is one batch (N * N * K <= _BUILD_BATCH elements, at most
256 KB of matrices) it is built at the first product: the sweep then
steps N * K rows at once and, with the per-call overhead of small
batches dominating, costs about one product.  Otherwise it is built
once the trajectory has been asked for DENSE_AFTER * N products per
segment: the build then costs about N products per segment in wall
time, so a run spends at most 1 / DENSE_AFTER more than it would
matrix-free, while long solves (hundreds of products per segment) stop
paying a sweep per product.  The two ways of evaluating a product agree
to round-off.

Segment indices are 0-based throughout: segment i spans
[t_i, t_{i+1}] and its propagator/adjoint pair is charged to the cost
ledger one unit per application, however the product is evaluated.
"""

import numpy as np

from . import timestep
from .errors import DegenerateProjectorError, DimensionMismatch

DENSE_AFTER = 4

# elements per row batch of the propagator-matrix build and of the
# batched sensitivity sweep
_BUILD_BATCH = 1 << 15


class CostLedger:
    """Counts segment-propagator products, the method's cost currency.

    ``forward`` counts tangent-side products (including forced
    right-hand-side sweeps), ``adjoint`` counts transpose products.
    A ledger belongs to one process; parallel work here runs in worker
    processes, each with its own ledger.
    """

    def __init__(self):
        self.forward = 0
        self.adjoint = 0

    def charge_forward(self, n=1):
        self.forward += n

    def charge_adjoint(self, n=1):
        self.adjoint += n

    @property
    def total(self):
        return self.forward + self.adjoint

    def snapshot(self):
        return (self.forward, self.adjoint)

    def delta(self, since):
        return (self.forward - since[0], self.adjoint - since[1])

    def __repr__(self):
        return f"CostLedger(forward={self.forward}, adjoint={self.adjoint})"


def project_off_flow(f_t, x):
    """Remove from x its component along the flow vector f_t.

    Works on matching (..., N) batches.  Idempotent and symmetric;
    undefined (raises) when the flow vanishes, i.e. at a fixed point.
    """
    if f_t.shape != x.shape:
        raise DimensionMismatch("projector operands must have equal shapes")
    ff = (f_t * f_t).sum(axis=-1)
    if np.any(ff == 0.0):
        raise DegenerateProjectorError(
            "zero flow vector: trajectory sits at a fixed point"
        )
    fx = (f_t * x).sum(axis=-1)
    return x - f_t * (fx / ff)[..., None]


def _endpoint_f(traj, segments):
    """Flow vectors at the *ends* of the given segments, shape (m, N)."""
    idx = (np.asarray(segments, dtype=int) + 1) * traj.stride
    return traj.fvals[idx]


def _build_propagators(traj):
    """Projected propagators of all segments as a (K, N, N) array.

    Column c of matrix i is the projected sweep of the unit vector e_c
    across segment i; the columns are swept in batches of at most
    _BUILD_BATCH elements.
    """
    n, k = traj.system.dim, traj.n_segments
    mats = np.empty((k, n, n))
    step = max(1, _BUILD_BATCH // (k * n))
    eye = np.eye(n)
    for c0 in range(0, n, step):
        cols = np.arange(c0, min(c0 + step, n))
        segments = np.repeat(np.arange(k), cols.size)
        out = timestep.tangent_sweep_many(
            traj, segments, np.tile(eye[cols], (k, 1)), forcing=False)
        out = project_off_flow(_endpoint_f(traj, segments), out)
        mats[:, :, cols] = out.reshape(k, cols.size, n).transpose(0, 2, 1)
    return mats


def _propagator_matrices(traj, segments, z):
    """The propagator matrices of the given segments, or None while the
    trajectory stays matrix-free; counts the products swept until the
    matrices are built."""
    if z.shape != (segments.size, traj.system.dim):
        raise DimensionMismatch("propagation batch shape mismatch")
    if traj._propagators is None:
        n, k = traj.system.dim, traj.n_segments
        if (n * n * k > _BUILD_BATCH
                and traj._swept_rows + len(segments) < DENSE_AFTER * n * k):
            traj._swept_rows += len(segments)
            return None
        traj._propagators = _build_propagators(traj)
    if len(segments) == traj.n_segments and np.array_equal(
            segments, np.arange(traj.n_segments)):
        return traj._propagators
    return traj._propagators[segments]


def products_before_matrices(traj):
    """Products per segment the trajectory ran matrix-free before its
    propagator matrices were built; None while they are not built."""
    if traj._propagators is None:
        return None
    return traj._swept_rows / traj.n_segments


def _propagate_rows(traj, ledger, segments, z):
    """Projected tangent propagation of each row across its segment."""
    segments = timestep._check_segments(traj, segments)
    mats = _propagator_matrices(traj, segments, z)
    if mats is None:
        out = timestep.tangent_sweep_many(traj, segments, z, forcing=False)
        out = project_off_flow(_endpoint_f(traj, segments), out)
    else:
        out = np.matmul(mats, z[:, :, None])[:, :, 0]
    ledger.charge_forward(len(segments))
    return out


def _propagate_rows_adjoint(traj, ledger, segments, z):
    """Transpose of _propagate_rows: project at the segment end, then
    sweep the adjoint back to the segment start."""
    segments = timestep._check_segments(traj, segments)
    mats = _propagator_matrices(traj, segments, z)
    if mats is None:
        zp = project_off_flow(_endpoint_f(traj, segments), z)
        out = timestep.adjoint_sweep_many(traj, segments, zp)
    else:
        out = np.matmul(z[:, None, :], mats)[:, 0, :]
    ledger.charge_adjoint(len(segments))
    return out


def propagate_segment(traj, ledger, segment, z):
    """Apply the projected propagator of one segment to z."""
    z = np.asarray(z, dtype=float)
    return _propagate_rows(traj, ledger, [segment], z[None, :])[0]


def propagate_segment_adjoint(traj, ledger, segment, z):
    """Apply the transpose of the projected propagator of one segment."""
    z = np.asarray(z, dtype=float)
    return _propagate_rows_adjoint(traj, ledger, [segment], z[None, :])[0]


def _check_stack(traj, stack, rows):
    if stack.shape != (rows, traj.system.dim):
        raise DimensionMismatch(
            f"expected stack of shape ({rows}, {traj.system.dim}), "
            f"got {stack.shape}"
        )


def constraint_apply(traj, ledger, v):
    """Continuity-constraint operator on a checkpoint stack.

    v: (K+1, N) -> (K, N);  row i = -Phi_i v_i + v_{i+1}.
    """
    k = traj.n_segments
    _check_stack(traj, v, k + 1)
    prop = _propagate_rows(traj, ledger, np.arange(k), v[:k])
    return v[1:] - prop


def constraint_transpose_apply(traj, ledger, w):
    """Transpose of constraint_apply: (K, N) -> (K+1, N)."""
    k = traj.n_segments
    _check_stack(traj, w, k)
    back = _propagate_rows_adjoint(traj, ledger, np.arange(k), w)
    out = np.empty((k + 1, traj.system.dim))
    out[0] = -back[0]
    out[1:k] = w[: k - 1] - back[1:]
    out[k] = w[k - 1]
    return out


def schur_apply(traj, ledger, w):
    """S w = A (A^T w); costs one propagator product of each kind per
    segment."""
    return constraint_apply(traj, ledger, constraint_transpose_apply(traj, ledger, w))


def assemble_rhs(traj, ledger):
    """Right-hand-side blocks: per segment, the forced tangent solution
    from a zero initial condition, projected at the segment end."""
    k = traj.n_segments
    segments = np.arange(k)
    zero = np.zeros((k, traj.system.dim))
    forced = timestep.tangent_sweep_many(traj, segments, zero, forcing=True)
    ledger.charge_forward(k)
    return project_off_flow(_endpoint_f(traj, segments), forced)


def recover_checkpoints(traj, ledger, w):
    """Checkpoint solution from the constraint multipliers: v = A^T w."""
    return constraint_transpose_apply(traj, ledger, w)


def time_average(traj, objective):
    """Trapezoidal time average of the objective over the stored window."""
    vals = objective.value(traj.states)
    return np.trapezoid(vals, dx=traj.h) / traj.span


def evaluate_sensitivity(traj, objective, v):
    """Sensitivity of the time-averaged objective to the parameter.

    Re-runs the forced tangent within each segment starting from the
    solved checkpoint value, accumulating the trapezoidal time integral
    of <dJ/du, v'> plus the checkpoint correction
    <f, v'> / |f|^2 * (Jbar - J) at each segment end.

    ``v`` is one checkpoint stack (K+1, N), which gives one value, or R
    of them as an (R, K+1, N) array, which gives R values from one
    batched sweep over R*K rows (in chunks of whole stacks of at most
    _BUILD_BATCH elements, or one stack when a stack is larger).  Every
    row's arithmetic is independent of its batch, so each value is the
    one its stack gives alone.
    """
    k, n = traj.n_segments, traj.system.dim
    stacks = v[None] if v.ndim == 2 else v
    if stacks.ndim != 3 or stacks.shape[1:] != (k + 1, n):
        raise DimensionMismatch(
            f"expected (K+1, N) = ({k + 1}, {n}) stacks, got shape {v.shape}"
        )
    per_chunk = max(1, _BUILD_BATCH // (k * n))
    out = np.empty(len(stacks))
    for r0 in range(0, len(stacks), per_chunk):
        out[r0 : r0 + per_chunk] = _sensitivities(
            traj, objective, stacks[r0 : r0 + per_chunk])
    return out if v.ndim == 3 else out[0]


def _sensitivities(traj, objective, v):
    """evaluate_sensitivity of each (K+1, N) stack of v, in one sweep."""
    r, k = v.shape[0], traj.n_segments
    sys = traj.system
    h = traj.h
    offs = np.tile(np.arange(k) * traj.stride, r)

    j_vals = objective.value(traj.states)
    j_bar = np.trapezoid(j_vals, dx=h) / traj.span

    s2, s3, s4 = traj.stages()
    vv = v[:, :k].reshape(r * k, sys.dim)
    acc = 0.5 * h * (objective.gradient(traj.states[offs]) * vv).sum(axis=-1)
    for j in range(traj.stride):
        idx = offs + j
        vv = timestep.tangent_step_at(
            sys, h, traj.states[idx], s2[idx], s3[idx], s4[idx], vv, forcing=True
        )
        wq = h if j < traj.stride - 1 else 0.5 * h
        g = objective.gradient(traj.states[idx + 1])
        acc += wq * (g * vv).sum(axis=-1)

    f_end = traj.fvals[offs + traj.stride]
    j_end = j_vals[offs + traj.stride]
    corr = (f_end * vv).sum(axis=-1) / (f_end * f_end).sum(axis=-1) * (j_bar - j_end)

    acc, corr = acc.reshape(r, k), corr.reshape(r, k)
    return (acc.sum(axis=1) + corr.sum(axis=1)) / traj.span + objective.param_deriv

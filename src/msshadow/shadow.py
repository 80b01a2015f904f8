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
directions, and serve products as matrix products.  It builds them at
its first product when all N * N * K entries fit _MATRIX_BUDGET (2 MB):
the build costs under N products per segment of wall time, which the
preconditioner (2q(l+2) per segment) and CG (2 per iteration) spend
several times over.  Past the budget it stays matrix-free for its whole
life, the paper's route for systems whose matrices do not fit in
memory.  The two ways agree to round-off.

Segment indices are 0-based throughout: segment i spans
[t_i, t_{i+1}] and its propagator/adjoint pair is charged to the cost
ledger one unit per application, however the product is evaluated.
"""

import numpy as np

from . import timestep
from .errors import DegenerateProjectorError, DimensionMismatch

# largest N * N * K, in float64 elements, kept as propagator matrices
_MATRIX_BUDGET = 1 << 18

# elements per row batch of the propagator-matrix build; larger batches
# build no faster and raise peak memory
_BUILD_BATCH = 1 << 14


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


def _matrix_rows(traj, segments, z, adjoint):
    """Rows of z times their segments' propagator matrices (transposed
    if adjoint), built at the first product; None past _MATRIX_BUDGET.
    Rows grouped p per segment in order (repeat(arange(K), p)) multiply
    a broadcast view of the matrices; other patterns gather a copy."""
    n, k = traj.system.dim, traj.n_segments
    if z.shape != (segments.size, n):
        raise DimensionMismatch("propagation batch shape mismatch")
    if traj._propagators is None:
        if n * n * k > _MATRIX_BUDGET:
            return None
        traj._propagators = _build_propagators(traj)
    p, rest = divmod(segments.size, k)
    if p and not rest and (segments.reshape(k, p).T == np.arange(k)).all():
        mats, z = traj._propagators[:, None], z.reshape(k, p, n)
    else:
        mats = traj._propagators[segments]
    if adjoint:
        return np.matmul(z[..., None, :], mats).reshape(segments.size, n)
    return np.matmul(mats, z[..., None]).reshape(segments.size, n)


def products_before_matrices(traj):
    """Products per segment the trajectory ran matrix-free before its
    propagator matrices were built: 0, as they are built at the first
    product, or None when they never were."""
    return None if traj._propagators is None else 0


def _propagate_rows(traj, ledger, segments, z):
    """Projected tangent propagation of each row across its segment."""
    segments = timestep._check_segments(traj, segments)
    out = _matrix_rows(traj, segments, z, adjoint=False)
    if out is None:
        out = timestep.tangent_sweep_many(traj, segments, z, forcing=False)
        out = project_off_flow(_endpoint_f(traj, segments), out)
    ledger.charge_forward(len(segments))
    return out


def _propagate_rows_adjoint(traj, ledger, segments, z):
    """Transpose of _propagate_rows: project at the segment end, then
    sweep the adjoint back to the segment start."""
    segments = timestep._check_segments(traj, segments)
    out = _matrix_rows(traj, segments, z, adjoint=True)
    if out is None:
        zp = project_off_flow(_endpoint_f(traj, segments), z)
        out = timestep.adjoint_sweep_many(traj, segments, zp)
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


def _end_correction(traj, objective):
    """Per segment: the flow at its end, |f_end|^2 and Jbar - J_end,
    the pieces of the checkpoint correction."""
    j_vals = objective.value(traj.states)
    j_bar = np.trapezoid(j_vals, dx=traj.h) / traj.span
    end = (np.arange(traj.n_segments) + 1) * traj.stride
    f_end = traj.fvals[end]
    return f_end, (f_end * f_end).sum(axis=-1), j_bar - j_vals[end]


def evaluate_sensitivity(traj, objective, v):
    """Sensitivity of the time-averaged objective to the parameter.

    Re-runs the forced tangent within each segment starting from the
    solved checkpoint value ``v``, a (K+1, N) stack, accumulating the
    trapezoidal time integral of <dJ/du, v'> plus the checkpoint
    correction <f, v'> / |f|^2 * (Jbar - J) at each segment end.  This
    forward sweep is the reference that sensitivity_functional matches.
    """
    k = traj.n_segments
    _check_stack(traj, v, k + 1)
    sys = traj.system
    h = traj.h
    offs = np.arange(k) * traj.stride
    s2, s3, s4 = traj.stages()
    vv = v[:k]
    acc = 0.5 * h * (objective.gradient(traj.states[offs]) * vv).sum(axis=-1)
    for j in range(traj.stride):
        idx = offs + j
        vv = timestep.tangent_step_at(
            sys, h, traj.states[idx], s2[idx], s3[idx], s4[idx], vv, forcing=True
        )
        wq = h if j < traj.stride - 1 else 0.5 * h
        acc += wq * (objective.gradient(traj.states[idx + 1]) * vv).sum(axis=-1)

    f_end, ff, dj = _end_correction(traj, objective)
    corr = (f_end * vv).sum(axis=-1) / ff * dj
    return (acc.sum() + corr.sum()) / traj.span + objective.param_deriv


def sensitivity_functional(traj, objective):
    """The sensitivity as an affine functional of the checkpoint stack.

    Returns (a, s0), a of shape (K+1, N) with a zero last row, such
    that evaluate_sensitivity(traj, objective, v) == s0 + (a * v).sum() / T
    to round-off.  a is the transpose of the forward quadrature, one
    adjoint sweep per segment seeded at its end with h/2 dJ/du +
    (Jbar - J_end) / |f_end|^2 f_end, adding after each step the
    trapezoid weight (h, or h/2 at the segment start) times dJ/du; s0 is
    the sensitivity of the zero stack.  Charges no products.  It pays
    when two or more stacks are evaluated on one trajectory.
    """
    k, n = traj.n_segments, traj.system.dim
    h = traj.h
    offs = np.arange(k) * traj.stride
    s2, s3, s4 = traj.stages()
    f_end, ff, dj = _end_correction(traj, objective)
    grad = objective.gradient
    w = 0.5 * h * grad(traj.states[offs + traj.stride]) + (dj / ff)[:, None] * f_end
    for j in range(traj.stride - 1, -1, -1):
        idx = offs + j
        w = timestep.adjoint_step_at(
            traj.system, h, traj.states[idx], s2[idx], s3[idx], s4[idx], w)
        w += (h if j else 0.5 * h) * grad(traj.states[idx])
    a = np.zeros((k + 1, n))
    a[:k] = w
    return a, evaluate_sensitivity(traj, objective, np.zeros((k + 1, n)))

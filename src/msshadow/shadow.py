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
and is never assembled for the solve.

A product with Phi_i or its transpose is a tangent or adjoint sweep
across the segment.  A trajectory may instead keep its projected
propagators as (N, N) matrices and serve products as matrix products.
Every system builds them the same way: one tangent sweep of the N unit
rows of every segment, which gives the swept products bit for bit, then
the projection off the flow; on Lorenz's and KS's own models the sweep
runs in C.  The weights of the sensitivity functional come from one
adjoint sweep of all segments (sensitivity_functional), whatever the
trajectory keeps.  The segments are independent, as in the paper's
time-parallel preconditioner.  A
trajectory builds the matrices at its first product when all N * N * K
entries fit _MATRIX_BUDGET (2 MB): the build costs under N products per
segment of wall time, which the preconditioner (2q(l+2) per segment)
and CG (2 per iteration) spend several times over.  Past the budget it
stays matrix-free for its whole life, the paper's route for systems
whose matrices do not fit in memory.  Matrix and matrix-free products
agree to round-off.  segment_propagators hands the matrices out for
dense study, kept or, past the budget, built for the caller alone.

Segment indices are 0-based throughout: segment i spans
[t_i, t_{i+1}] and its propagator/adjoint pair is charged to the cost
ledger one unit per application, however the product is evaluated.
"""

import numpy as np

from . import timestep
from .errors import DegenerateProjectorError, DimensionMismatch

# largest N * N * K, in float64 elements, kept as propagator matrices
_MATRIX_BUDGET = 1 << 18


class CostLedger:
    """Counts segment-propagator products, the method's cost currency.

    ``forward`` counts tangent-side products (including forced
    right-hand-side sweeps), ``adjoint`` counts transpose products.
    A ledger belongs to one process and one thread.
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

    The N unit rows of every segment, swept across it
    (timestep._unit_sweeps), give the stack of F_i^T; it is projected
    and transposed in place into Phi_i = P_i F_i, ceil(K / N) segments
    at a time, so the projection's temporaries hold about K * N floats,
    one (K, N) batch.
    """
    n, k = traj.system.dim, traj.n_segments
    mats = timestep._unit_sweeps(traj)
    f_end = _endpoint_f(traj, np.arange(k))[:, None]
    step = -(-k // n)
    for i in range(0, k, step):
        part = mats[i:i + step]
        part[...] = project_off_flow(np.broadcast_to(f_end[i:i + step],
                                                     part.shape),
                                     part).transpose(0, 2, 1)
    return mats


def build_matrices(traj):
    """Build the trajectory's propagator matrices now, if they fit
    _MATRIX_BUDGET and are not built yet; returns whether it has them.
    Charges nothing: the matrices are a cache of the products."""
    n, k = traj.system.dim, traj.n_segments
    if traj._propagators is None and n * n * k <= _MATRIX_BUDGET:
        traj._propagators = _build_propagators(traj)
    return traj._propagators is not None


def segment_propagators(traj):
    """The (K, N, N) projected propagators: the kept matrices, built and
    kept now if they fit _MATRIX_BUDGET, else built for the caller alone,
    so a trajectory past the budget stays matrix-free for its products.
    Charges nothing."""
    if build_matrices(traj):
        return traj._propagators
    return _build_propagators(traj)


def _matrix_rows(traj, segments, z, adjoint):
    """Rows of z times their segments' propagator matrices (transposed
    if adjoint), built at the first product; None past _MATRIX_BUDGET.
    Rows grouped p per segment in order (repeat(arange(K), p)), or
    segments None for the K rows in order, multiply a broadcast view of
    the matrices; other patterns gather a copy."""
    n, k = traj.system.dim, traj.n_segments
    m = len(z)
    if segments is not None and z.shape != (segments.size, n):
        raise DimensionMismatch("propagation batch shape mismatch")
    if not build_matrices(traj):
        return None
    p, rest = divmod(m, k)
    if segments is None or (
            p and not rest and (segments.reshape(k, p).T == np.arange(k)).all()):
        mats, z = traj._propagators[:, None], z.reshape(k, p, n)
    else:
        mats = traj._propagators[segments]
    if adjoint:
        return np.matmul(z[..., None, :], mats).reshape(m, n)
    return np.matmul(mats, z[..., None]).reshape(m, n)


def _propagate_rows(traj, ledger, segments, z):
    """Projected tangent propagation of each row across its segment.
    segments None stands for the K segments in order, which the
    constraint operators pass with stacks they have checked, so no CG
    product re-validates them."""
    if segments is not None:
        segments = timestep._check_segments(traj, segments)
    out = _matrix_rows(traj, segments, z, adjoint=False)
    if out is None:
        segments = np.arange(len(z)) if segments is None else segments
        out = timestep.tangent_sweep_many(traj, segments, z, forcing=False)
        out = project_off_flow(_endpoint_f(traj, segments), out)
    ledger.charge_forward(len(z))
    return out


def _propagate_rows_adjoint(traj, ledger, segments, z):
    """Transpose of _propagate_rows: project at the segment end, then
    sweep the adjoint back to the segment start."""
    if segments is not None:
        segments = timestep._check_segments(traj, segments)
    out = _matrix_rows(traj, segments, z, adjoint=True)
    if out is None:
        segments = np.arange(len(z)) if segments is None else segments
        zp = project_off_flow(_endpoint_f(traj, segments), z)
        out = timestep.adjoint_sweep_many(traj, segments, zp)
    ledger.charge_adjoint(len(z))
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
    prop = _propagate_rows(traj, ledger, None, v[:k])
    return v[1:] - prop


def constraint_transpose_apply(traj, ledger, w):
    """Transpose of constraint_apply: (K, N) -> (K+1, N)."""
    k = traj.n_segments
    _check_stack(traj, w, k)
    back = _propagate_rows_adjoint(traj, ledger, None, w)
    out = np.empty((k + 1, traj.system.dim))
    out[0] = -back[0]
    out[1:k] = w[: k - 1] - back[1:]
    out[k] = w[k - 1]
    return out


def schur_apply(traj, ledger, w):
    """S w = A (A^T w); costs one propagator product of each kind per
    segment."""
    return constraint_apply(traj, ledger, constraint_transpose_apply(traj, ledger, w))


def assemble_rhs(traj, ledger, objective=None):
    """Right-hand-side blocks: per segment, the forced tangent solution
    from a zero initial condition, projected at the segment end.  With
    an objective it returns (b, s0), s0 the zero stack's sensitivity
    summed along the same sweep, == evaluate_sensitivity of zeros."""
    k, n = traj.n_segments, traj.system.dim
    forced, s0 = _forced_sweep(traj, np.zeros((k, n)), objective)
    ledger.charge_forward(k)
    b = project_off_flow(_endpoint_f(traj, np.arange(k)), forced)
    return b if objective is None else (b, s0)


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


def _trapezoid(traj):
    """Trapezoid weights of a segment's stride + 1 states: h, and h/2 at
    both ends."""
    c = np.full(traj.stride + 1, traj.h)
    c[[0, -1]] = 0.5 * traj.h
    return c


def _forced_sweep(traj, v, objective=None):
    """Forced tangent sweep of every segment from the rows of v (K, N)
    at the segment starts: the rows at the segment ends and, with an
    objective, the sensitivity of the checkpoint stack whose first K rows
    are v (else None): each row's trapezoidal integral of <dJ/du, v'>
    along its segment, plus the checkpoint correction <f, v'> / |f|^2 *
    (Jbar - J) at each segment end, over T, + dJ/ds.  The sweep runs in
    chunks of steps, each tracing its rows into one table for
    gradient_dot, whose weighted terms are added in step order."""
    k, stride = traj.n_segments, traj.stride
    segments = np.arange(k)
    if objective is None:
        return timestep.tangent_sweep_many(traj, segments, v,
                                           forcing=True), None
    after = traj.states[1:].reshape(k, stride, -1)
    c = _trapezoid(traj)[:, None]
    acc = c[0] * objective.gradient_dot(traj.states[segments * stride], v)
    for j0, g in timestep._chunks(stride, v.size):
        trace = np.empty((g, *v.shape))
        v = timestep.tangent_sweep_many(traj, segments, v, forcing=True,
                                        window=(j0, g), trace=trace)
        acc = timestep._add_in_order(acc, c[j0 + 1:j0 + g + 1] * (
            objective.gradient_dot(after[:, j0:j0 + g].swapaxes(0, 1),
                                   trace)))
    f_end, ff, dj = _end_correction(traj, objective)
    corr = (f_end * v).sum(axis=-1) / ff * dj
    return v, (acc.sum() + corr.sum()) / traj.span + objective.param_deriv


def evaluate_sensitivity(traj, objective, v):
    """Sensitivity of the time-averaged objective to the parameter at
    the checkpoint stack v (K+1, N): the forced tangent re-run within
    each segment from v (see _forced_sweep).  The matrix-free reference
    that the pipeline's s0 + <a, v> / T matches to round-off."""
    _check_stack(traj, v, traj.n_segments + 1)
    return _forced_sweep(traj, v[:-1], objective)[1]


def sensitivity_functional(traj, objective):
    """Weights a (K+1, N), last row zero, of the sensitivity as an
    affine functional of the checkpoint stack: evaluate_sensitivity(traj,
    objective, v) == s0 + (a * v).sum() / T to round-off, s0 from
    assemble_rhs.  a is the transpose of the forward quadrature, one
    adjoint sweep per segment seeded at its end with h/2 dJ/du +
    (Jbar - J_end) / |f_end|^2 f_end, adding after each step the
    trapezoid weight (h, or h/2 at the segment start) times dJ/du, a
    chunk of steps' source taken as one table.  The only producer of
    the weights; charges no products."""
    k, n, stride = traj.n_segments, traj.system.dim, traj.stride
    starts = traj.states[:-1].reshape(k, stride, -1)
    f_end, ff, dj = _end_correction(traj, objective)
    grad = objective.gradient
    c = _trapezoid(traj)[:, None, None]
    w = c[-1] * grad(traj.states[stride::stride]) + (dj / ff)[:, None] * f_end
    for j0, g in reversed(timestep._chunks(stride, w.size)):
        source = np.empty((g, k, n))
        np.multiply(c[j0:j0 + g], grad(starts[:, j0:j0 + g].swapaxes(0, 1)),
                    out=source)
        w = timestep.adjoint_sweep_many(traj, np.arange(k), w,
                                        window=(j0, g), source=source)
    a = np.zeros((k + 1, n))
    a[:k] = w
    return a

"""Fixed-step RK4 integration with discrete tangent and adjoint sweeps.

The nonlinear solution is advanced with classical RK4 and stored at
every step.  Tangent and adjoint propagation then differentiate the
*discrete* scheme: Jacobian actions are evaluated at the RK4 stage
states reconstructed from the stored solution, and the adjoint applies
the exact transpose of each one-step tangent map in reverse order.
This makes <tangent(v), w> == <v, adjoint(w)> hold to round-off, which
is what keeps the shooting normal equations numerically symmetric.

Sweeps are vectorised over segments: a batch of tangent vectors is
advanced in lockstep, row i following segment ``segments[i]`` of the
stored trajectory.  This is the serial-machine equivalent of the
per-segment parallelism of the method.  A sweep over all segments in
order reads each step's stage states as strided views of the stored
arrays; other row patterns gather them.  Every array loop, primal or
tangent, takes its RK4 step from ``rk4_kernel`` and supplies only the
stage derivative; the C loops of ``_native``, the primal loop of
Lorenz or KS states and the tangent sweeps of both models, repeat its
operations, and their adjoint sweeps those of ``adjoint_step_at``.
"""

import numpy as np

from .errors import DimensionMismatch, DivergenceError


def _n_steps(t_start, t_end, h):
    span = t_end - t_start
    if not (0 < span < np.inf and h > 0):
        raise ValueError("need a positive finite span and step size")
    n = int(round(span / h))
    if abs(n * h - span) > 1e-9 * max(abs(span), 1.0):
        raise ValueError(f"span {span} is not an integer multiple of h={h}")
    return n


def _check_stable(system, h):
    if h > system.max_stable_step * (1.0 + 1e-12):
        raise ValueError(
            f"step {h} exceeds the explicit stability limit "
            f"{system.max_stable_step:.4g} for this system"
        )


def rk4_kernel(h, w, deriv):
    """step(v, x): one classical RK4 step, in place, of the array v.

    deriv(x, i, y, out) writes the derivative of stage i (0-3) at its
    input y into out: y is v itself at stage 0, and the buffer w, of v's
    shape or a view of a larger one, holding v + c k after it.  The
    update is v + h/6 (((k1 + 2 k2) + 2 k3) + k4).  Ufuncs get out
    positionally and constants as 0-d arrays, which NumPy dispatches
    fastest.
    """
    hh, hf, h6, two = map(np.array, (0.5 * h, h, h / 6.0, 2.0))
    acc, k = np.empty(w.shape), np.empty(w.shape)
    add, mul = np.add, np.multiply

    def step(v, x):
        deriv(x, 0, v, acc)
        add(v, mul(acc, hh, w), w)
        deriv(x, 1, w, k)
        for i, c in ((2, hh), (3, hf)):
            add(v, mul(k, c, w), w)
            add(acc, mul(k, two, k), acc)
            deriv(x, i, w, k)
        add(v, mul(add(acc, k, acc), h6, acc), v)

    return step


# floats in one chunk's per-step table (traced rows, adjoint source or
# primal states): a whole segment's would be as large as the trajectory,
# and at 2^15 the Lorenz workloads' peak resident set rose by 0.3 MB
_TABLE = 1 << 14


def _chunks(n, width):
    """(j0, g) windows covering steps 0..n-1 in order, each g at most
    max(1, _TABLE // width) steps, for tables of width floats a step."""
    g = max(1, _TABLE // width)
    return [(j, min(g, n - j)) for j in range(0, n, g)]


def _add_in_order(acc, terms):
    """acc + terms[0] + terms[1] + ... in that order (cumsum's)."""
    total = np.concatenate(([acc], terms))
    return np.cumsum(total, axis=0, out=total)[-1]


def _rk4(system, u, h, n, states=None, check_every=1, kept=None):
    """n classical RK4 steps of each row of u (..., N), left unchanged,
    in lockstep; the primal loop.

    Row j + 1 of ``states`` (n + 1, *u.shape), when given, receives the
    states after j + 1 steps, and ``kept`` = (fvals, s2, s3, s4) the rhs
    at every state and the RK4 stages 2-4 of every step.  A non-finite
    state raises DivergenceError; the check runs every ``check_every``
    steps and after the last one.  A system the C loop
    ``_native.serves`` (Lorenz's or KS's own model and a working C
    compiler) runs that loop, with the element operations of rk4_kernel
    over ``rhs`` in their order, so its outputs are bit-identical;
    everything else the array loop below, the reference.
    """
    if check_every < 1:
        raise ValueError(f"check_every must be at least 1, got {check_every}")
    if u.shape[-1:] != (system.dim,):
        raise DimensionMismatch(f"expected trailing dimension {system.dim}")
    from . import _native  # loaded at the first primal loop
    if _native.serves(system):
        return _native.rk4(system, u, h, n, states, check_every, kept)
    u = u.copy()

    def deriv(j, i, y, out):
        np.copyto(out, system.rhs(y))
        if kept is not None:  # the rhs at stage 0, else the stage state
            kept[i][j] = y if i else out

    step = rk4_kernel(h, np.empty(u.shape), deriv)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            step(u, j)
            if states is not None:
                states[j + 1] = u
            if j % check_every == 0 and not np.isfinite(u).all():
                raise DivergenceError(j + 1)
        if kept is not None:
            kept[0][n] = system.rhs(u)
    if not np.isfinite(u).all():
        raise DivergenceError(n)
    return u


def advance(system, u0, t_start, t_end, h, check_every=64):
    """Integrate without storing the path; returns the final state.

    Used for spin-up, where only the end state matters.  ``u0`` may be
    one state (N,) or a stack (..., N) advanced in lockstep by _rk4.
    """
    _check_stable(system, h)
    n = _n_steps(t_start, t_end, h)
    return _rk4(system, np.asarray(u0, dtype=float), h, n,
                check_every=check_every)


def _check_stride(n_steps, stride):
    if stride < 1 or n_steps % stride != 0:
        raise ValueError(f"segment stride {stride} does not divide {n_steps} steps")


class Trajectory:
    """Stored nonlinear solution on a uniform step grid.

    states[j] is the state after j steps; fvals[j] caches rhs(states[j]).
    ``stride`` is the number of steps per shooting segment and must
    divide the step count exactly.  ``primal_loop`` names the loop that
    stepped the states: "compiled" when integrate ran the C loop, else
    "numpy".
    """

    def __init__(self, system, t_start, h, states, fvals, stride):
        _check_stride(states.shape[0] - 1, stride)
        if states.shape != fvals.shape or states.shape[1] != system.dim:
            raise DimensionMismatch("trajectory storage shape mismatch")
        self.system = system
        self.t_start = float(t_start)
        self.h = float(h)
        self.states = states
        self.fvals = fvals
        self.stride = int(stride)
        self.primal_loop = "numpy"
        self._stages = None
        # shadow's (K, N, N) projected segment propagators, built at the
        # first product within its budget
        self._propagators = None

    def stages(self):
        """RK4 stage states of every step, computed once and cached.

        Returns (s2, s3, s4) arrays of shape (n_steps, N); tangent and
        adjoint sweeps evaluate Jacobians there so that they
        differentiate exactly the discrete scheme that produced the
        stored states.
        """
        if self._stages is None:
            u = self.states[:-1]
            s2 = u + (0.5 * self.h) * self.fvals[:-1]
            s3 = u + (0.5 * self.h) * self.system.rhs(s2)
            s4 = u + self.h * self.system.rhs(s3)
            self._stages = (s2, s3, s4)
        return self._stages

    @property
    def n_steps(self):
        return self.states.shape[0] - 1

    @property
    def span(self):
        return self.n_steps * self.h

    @property
    def n_segments(self):
        return self.n_steps // self.stride


def integrate(system, u0, t_start, t_end, h, stride=1):
    """Classical RK4 with full storage of states, rhs values and the RK4
    stages, which the primal loop keeps as it steps (the trajectory's
    stages())."""
    _check_stable(system, h)
    n = _n_steps(t_start, t_end, h)
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (system.dim,):
        raise DimensionMismatch(f"initial state must have shape ({system.dim},)")
    _check_stride(n, stride)
    states = np.empty((n + 1, system.dim))
    states[0] = u0
    fvals = np.empty_like(states)
    stages = tuple(np.empty((n, system.dim)) for _ in range(3))
    _rk4(system, u0, h, n, states=states, kept=(fvals, *stages))
    traj = Trajectory(system, t_start, h, states, fvals, stride)
    from . import _native  # loaded by the primal loop
    traj._stages, traj.primal_loop = stages, (
        "compiled" if _native.serves(system) else "numpy")
    return traj


def tangent_step(system, h, shape, forcing=False):
    """step(v, x): one RK4-step discrete tangent map, in place, of rows v
    of the given shape, at the step's stage states x = (u, s2, s3, s4).

    Jacobians act at the stage states; with ``forcing`` the parameter
    derivative of the scheme is added, i.e. the step solves the
    inhomogeneous tangent equation dv/dt = (df/du) v + df/ds.
    """
    def deriv(x, i, y, out):
        np.copyto(out, system.jacobian_apply(x[i], y))
        if forcing:
            np.add(out, system.param_deriv(x[i]), out)

    return rk4_kernel(h, np.empty(shape), deriv)


def adjoint_step_at(system, h, u, s2, s3, s4, w):
    """Exact transpose of the homogeneous one-step tangent map (batched)."""
    l4 = (h / 6.0) * w
    t4 = system.jacobian_transpose_apply(s4, l4)
    l3 = (h / 3.0) * w + h * t4
    t3 = system.jacobian_transpose_apply(s3, l3)
    l2 = (h / 3.0) * w + (0.5 * h) * t3
    t2 = system.jacobian_transpose_apply(s2, l2)
    l1 = (h / 6.0) * w + (0.5 * h) * t2
    t1 = system.jacobian_transpose_apply(u, l1)
    return w + t1 + t2 + t3 + t4


def _check_segments(traj, segments):
    segments = np.atleast_1d(np.asarray(segments, dtype=int))
    if segments.size and (segments.min() < 0 or segments.max() >= traj.n_segments):
        raise IndexError(
            f"segment index out of range [0, {traj.n_segments - 1}]"
        )
    return segments


def _stage_rows(traj, segments):
    """rows(j): the stored state and RK4 stages 2-4 at step j of each
    row's segment, four (m, N) arrays.  Strided views when the rows are
    the segments 0..K-1 in order, read-only views of one row broadcast
    to (m, N) when all rows share one segment, gathers otherwise."""
    k, stride = traj.n_segments, traj.stride
    arrays = (traj.states, *traj.stages())
    if segments.size == k and (segments == np.arange(k)).all():
        blocks = [a[:k * stride].reshape(k, stride, -1) for a in arrays]
        return lambda j: [b[:, j] for b in blocks]
    offs = segments * stride
    if segments.size and (segments == segments[0]).all():
        shape = (segments.size, arrays[0].shape[1])
        return lambda j: [np.broadcast_to(a[offs[0] + j], shape)
                          for a in arrays]
    return lambda j: [a[offs + j] for a in arrays]


def _window(traj, window, table, shape):
    """(j0, g) of a sweep's window, (0, stride) for None, checked against
    the segment, and the table against a writeable C-contiguous float
    array (g, *shape), which C may fill."""
    j0, g = window or (0, traj.stride)
    if not 0 <= j0 < j0 + g <= traj.stride:
        raise IndexError(f"window {j0, g} is not within a segment")
    if table is not None and (table.shape != (g, *shape)
                              or table.dtype != float or not table.flags.carray):
        raise DimensionMismatch(f"need a writeable C-contiguous float {(g, *shape)}")
    return j0, g


def tangent_sweep_many(traj, segments, v, forcing=False, window=None,
                       trace=None):
    """Propagate rows of v across their segments with the discrete tangent.

    v has shape (m, N); row i is advanced from the start to the end of
    segment segments[i], or with ``window`` = (j0, g) through steps j0
    .. j0 + g - 1 of it alone.  Returns v after the last step (before
    any projection).  ``trace``, when given, is a writeable C-contiguous
    float array (g, m, N) whose row j - j0 receives the rows after step
    j.  A trajectory of Lorenz's or KS's own model runs the C sweep of
    ``_native`` when it ``sweeps``, bit-identical to the array loop
    below, the reference.
    """
    segments = _check_segments(traj, segments)
    if v.shape != (segments.size, traj.system.dim):
        raise DimensionMismatch("tangent batch shape mismatch")
    j0, g = _window(traj, window, trace, v.shape)
    from . import _native  # loaded at first use, as in _rk4
    if _native.sweeps(traj):
        return _native.sweep(traj, segments, v, j0, g, forcing,
                             table=trace)
    rows = _stage_rows(traj, segments)
    out = v.copy()
    step = tangent_step(traj.system, traj.h, out.shape, forcing)
    for j in range(j0, j0 + g):
        step(out, rows(j))
        if trace is not None:
            trace[j - j0] = out
    return out


def adjoint_sweep_many(traj, segments, w, window=None, source=None):
    """Transpose counterpart of tangent_sweep_many (homogeneous only).

    Row i carries a terminal value at the end of segment segments[i], or
    after step j0 + g - 1 of its ``window`` (j0, g), backwards to the
    segment start, or to step j0.  ``source``, when given, is such a
    table, whose row j - j0 is added to the rows after backward step j.
    The C sweep serves the trajectories that tangent_sweep_many's does.
    """
    segments = _check_segments(traj, segments)
    if w.shape != (segments.size, traj.system.dim):
        raise DimensionMismatch("adjoint batch shape mismatch")
    j0, g = _window(traj, window, source, w.shape)
    from . import _native  # loaded at first use, as in _rk4
    if _native.sweeps(traj):
        return _native.sweep(traj, segments, w, j0, g, adjoint=True,
                             table=source)
    rows = _stage_rows(traj, segments)
    out = w.copy()
    for j in range(j0 + g - 1, j0 - 1, -1):
        out = adjoint_step_at(traj.system, traj.h, *rows(j), out)
        if source is not None:
            out += source[j - j0]
    return out


def _unit_sweeps(traj):
    """(K, N, N): row j of [i] is the unit row e_j swept across segment
    i, so [i] is F_i^T.  Swept as many whole segments at a time as fit a
    table of _TABLE floats: at KS sizes one segment's N rows a sweep,
    whose stage states are one row each (_stage_rows) and whose blocks
    in the C sweep never mix segments."""
    n, k = traj.system.dim, traj.n_segments
    g = max(1, _TABLE // (n * n))
    out = np.empty((k, n, n))
    for i in range(0, k, g):
        part = out[i:i + g]
        part[...] = tangent_sweep_many(
            traj, np.repeat(np.arange(i, i + len(part)), n),
            np.tile(np.eye(n), (len(part), 1))).reshape(part.shape)
    return out


def tangent_sweep(traj, segment, v_init, forcing=False):
    """Single-segment tangent sweep; returns v at the segment end."""
    v = np.asarray(v_init, dtype=float)
    return tangent_sweep_many(traj, [segment], v[None, :], forcing=forcing)[0]


def adjoint_sweep(traj, segment, w_term):
    """Single-segment adjoint sweep; returns w at the segment start."""
    w = np.asarray(w_term, dtype=float)
    return adjoint_sweep_many(traj, [segment], w[None, :])[0]

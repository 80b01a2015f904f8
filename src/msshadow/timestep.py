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
arrays; other row patterns gather them.  A system with a
``tangent_kernel`` (Lorenz) steps tangent batches in place on
component-major buffers, with the arithmetic of ``tangent_step_at``.
"""

import numpy as np

from .errors import DimensionMismatch, DivergenceError


def _n_steps(t_start, t_end, h):
    span = t_end - t_start
    if span <= 0 or h <= 0:
        raise ValueError("need a positive span and step size")
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


def _rk4(system, u, h, n, states=None, check_every=1, on_step=None):
    """n classical RK4 steps from u (left unchanged); the primal loop.

    Row j + 1 of ``states``, when given, receives the state after j + 1
    steps, and ``on_step``, when given, is called with it after its
    check.  A non-finite state raises DivergenceError; the check runs
    every ``check_every`` steps and after the last one.  Systems with a
    ``rk4_scalar`` method take single states (N,) without ``on_step``
    through it, with the same arithmetic in plain floats; systems with a
    ``rk4_stepper`` method step single states with the in-place step it
    returns, the same arithmetic on preallocated buffers.
    """
    scalar = getattr(system, "rk4_scalar", None)
    if scalar is not None and u.ndim == 1 and on_step is None:
        return scalar(u, h, n, states, check_every)
    if u.shape[-1] != system.dim:
        raise DimensionMismatch(f"expected trailing dimension {system.dim}")
    u = u.copy()

    def step(u):
        k1 = system.rhs(u)
        k2 = system.rhs(u + 0.5 * h * k1)
        k3 = system.rhs(u + 0.5 * h * k2)
        k4 = system.rhs(u + h * k3)
        u += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    if u.ndim == 1 and hasattr(system, "rk4_stepper"):
        step = system.rk4_stepper(h)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            step(u)
            if states is not None:
                states[j + 1] = u
            if j % check_every == 0 and not np.isfinite(u).all():
                raise DivergenceError(j + 1)
            if on_step is not None:
                on_step(u)
    if not np.isfinite(u).all():
        raise DivergenceError(n)
    return u


def advance(system, u0, t_start, t_end, h, check_every=64):
    """Integrate without storing the path; returns the final state.

    Used for spin-up, where only the end state matters.  ``u0`` may be
    one state (N,) or a batch (m, N) advanced in lockstep.
    """
    _check_stable(system, h)
    n = _n_steps(t_start, t_end, h)
    return _rk4(system, np.asarray(u0, dtype=float), h, n,
                check_every=check_every)


class Trajectory:
    """Stored nonlinear solution on a uniform step grid.

    states[j] is the state after j steps; fvals[j] caches rhs(states[j]).
    ``stride`` is the number of steps per shooting segment and must
    divide the step count exactly.
    """

    def __init__(self, system, t_start, h, states, fvals, stride):
        n_steps = states.shape[0] - 1
        if stride < 1 or n_steps % stride != 0:
            raise ValueError(
                f"segment stride {stride} does not divide {n_steps} steps"
            )
        if states.shape != fvals.shape or states.shape[1] != system.dim:
            raise DimensionMismatch("trajectory storage shape mismatch")
        self.system = system
        self.t_start = float(t_start)
        self.h = float(h)
        self.states = states
        self.fvals = fvals
        self.stride = int(stride)
        self._stages = None
        # projected segment propagators as (K, N, N) matrices, built at
        # the first product when they fit shadow's memory budget
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
    def t_end(self):
        return self.t_start + self.n_steps * self.h

    @property
    def span(self):
        return self.n_steps * self.h

    @property
    def n_segments(self):
        return self.n_steps // self.stride

    def checkpoint_f(self, i):
        if not 0 <= i <= self.n_segments:
            raise IndexError(f"checkpoint {i} out of range")
        return self.fvals[i * self.stride]


def integrate(system, u0, t_start, t_end, h, stride=1):
    """Classical RK4 with full storage of states and rhs values."""
    _check_stable(system, h)
    n = _n_steps(t_start, t_end, h)
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (system.dim,):
        raise DimensionMismatch(f"initial state must have shape ({system.dim},)")
    states = np.empty((n + 1, system.dim))
    states[0] = u0
    _rk4(system, u0, h, n, states=states)
    with np.errstate(over="ignore", invalid="ignore"):
        fvals = system.rhs(states)
    return Trajectory(system, t_start, h, states, fvals, stride)


def tangent_step_at(system, h, u, s2, s3, s4, v, forcing=False):
    """One RK4-step discrete tangent map applied to v (batched).

    Jacobians act at the step's stage states; with ``forcing`` the
    parameter derivative of the scheme is added, i.e. the step solves
    the inhomogeneous tangent equation dv/dt = (df/du) v + df/ds.
    """
    if forcing:
        l1 = system.jacobian_apply(u, v) + system.param_deriv(u)
        l2 = system.jacobian_apply(s2, v + (0.5 * h) * l1) + system.param_deriv(s2)
        l3 = system.jacobian_apply(s3, v + (0.5 * h) * l2) + system.param_deriv(s3)
        l4 = system.jacobian_apply(s4, v + h * l3) + system.param_deriv(s4)
    else:
        l1 = system.jacobian_apply(u, v)
        l2 = system.jacobian_apply(s2, v + (0.5 * h) * l1)
        l3 = system.jacobian_apply(s3, v + (0.5 * h) * l2)
        l4 = system.jacobian_apply(s4, v + h * l3)
    return v + (h / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)


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
    the segments 0..K-1 in order, gathers otherwise."""
    k, stride = traj.n_segments, traj.stride
    arrays = (traj.states, *traj.stages())
    if segments.size == k and (segments == np.arange(k)).all():
        blocks = [a[:k * stride].reshape(k, stride, -1) for a in arrays]
        return lambda j: [b[:, j] for b in blocks]
    offs = segments * stride
    return lambda j: [a[offs + j] for a in arrays]


def tangent_sweep_many(traj, segments, v, forcing=False, on_step=None):
    """Propagate rows of v across their segments with the discrete tangent.

    v has shape (m, N); row i is advanced from the start to the end of
    segment segments[i].  Returns v at the segment ends (before any
    projection).  ``on_step``, when given, is called with (j, rows)
    after step j of every segment; the rows may be a view that the
    next step overwrites.
    """
    segments = _check_segments(traj, segments)
    if v.shape != (segments.size, traj.system.dim):
        raise DimensionMismatch("tangent batch shape mismatch")
    rows = _stage_rows(traj, segments)
    sys, h = traj.system, traj.h
    kernel = getattr(sys, "tangent_kernel", None)
    step = kernel(h, segments.size, forcing) if kernel else None
    if step is not None:
        # a copy even when v.T is contiguous: the kernel steps in place
        out = v.T.copy()
        for j in range(traj.stride):
            step(out, *rows(j))
            if on_step is not None:
                on_step(j, out.T)
        return out.T.copy()
    out = v.copy()
    for j in range(traj.stride):
        out = tangent_step_at(sys, h, *rows(j), out, forcing=forcing)
        if on_step is not None:
            on_step(j, out)
    return out


def adjoint_sweep_many(traj, segments, w):
    """Transpose counterpart of tangent_sweep_many (homogeneous only).

    Row i carries a terminal value at the end of segment segments[i]
    backwards to the segment start.
    """
    segments = _check_segments(traj, segments)
    if w.shape != (segments.size, traj.system.dim):
        raise DimensionMismatch("adjoint batch shape mismatch")
    rows = _stage_rows(traj, segments)
    out = w.copy()
    for j in range(traj.stride - 1, -1, -1):
        out = adjoint_step_at(traj.system, traj.h, *rows(j), out)
    return out


def tangent_sweep(traj, segment, v_init, forcing=False):
    """Single-segment tangent sweep; returns v at the segment end."""
    v = np.asarray(v_init, dtype=float)
    return tangent_sweep_many(traj, [segment], v[None, :], forcing=forcing)[0]


def adjoint_sweep(traj, segment, w_term):
    """Single-segment adjoint sweep; returns w at the segment start."""
    w = np.asarray(w_term, dtype=float)
    return adjoint_sweep_many(traj, [segment], w[None, :])[0]

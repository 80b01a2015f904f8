"""Dynamical systems and time-averaged objectives.

Every system exposes the right-hand side f(u, s) of du/dt = f(u, s),
its Jacobian action and exact transpose, and the derivative of f with
respect to the single control parameter s.  All operations accept
arrays of shape (..., N) and act on the last axis, so they can be
applied to a whole batch of states at once.  The exceptions are the
Kuramoto-Sivashinsky kernel behind ``rk4_stepper`` and
``tangent_columns``, which works on axis 0 of preallocated buffers so
that every stencil shift is one contiguous block, and Lorenz's
``tangent_kernel``, which steps tangent batches held component-major
as (3, m) buffers, so that each component is one contiguous row.
"""

import math

import numpy as np

from .errors import DimensionMismatch, DivergenceError


def _check_dim(system, *arrays):
    for a in arrays:
        if a.shape[-1] != system.dim:
            raise DimensionMismatch(
                f"expected trailing dimension {system.dim}, got {a.shape[-1]}"
            )


class DynamicalSystem:
    """Interface: dim, param, rhs, jacobian_apply, jacobian_transpose_apply,
    param_deriv.  Subclasses implement the model-specific pieces."""

    dim = None
    param = None

    # largest stable explicit RK4 step; inf when the model imposes no limit
    max_stable_step = np.inf

    def rhs(self, u):
        raise NotImplementedError

    def jacobian_apply(self, u, v):
        raise NotImplementedError

    def jacobian_transpose_apply(self, u, w):
        raise NotImplementedError

    def param_deriv(self, u):
        raise NotImplementedError

    def with_param(self, value):
        """Return a copy of the system with the control parameter replaced."""
        raise NotImplementedError


class Lorenz(DynamicalSystem):
    """The Lorenz system; the control parameter is rho."""

    dim = 3

    def __init__(self, sigma=10.0, rho=28.0, beta=8.0 / 3.0):
        self.sigma = float(sigma)
        self.rho = float(rho)
        self.beta = float(beta)

    @property
    def param(self):
        return self.rho

    def with_param(self, value):
        return Lorenz(self.sigma, value, self.beta)

    def rhs(self, u):
        _check_dim(self, u)
        x, y, z = u[..., 0], u[..., 1], u[..., 2]
        out = np.empty_like(u)
        out[..., 0] = self.sigma * (y - x)
        out[..., 1] = x * (self.rho - z) - y
        out[..., 2] = x * y - self.beta * z
        return out

    def jacobian_apply(self, u, v):
        _check_dim(self, u, v)
        x, y, z = u[..., 0], u[..., 1], u[..., 2]
        a, b, c = v[..., 0], v[..., 1], v[..., 2]
        out = np.empty_like(v)
        out[..., 0] = self.sigma * (b - a)
        out[..., 1] = (self.rho - z) * a - b - x * c
        out[..., 2] = y * a + x * b - self.beta * c
        return out

    def jacobian_transpose_apply(self, u, w):
        _check_dim(self, u, w)
        x, y, z = u[..., 0], u[..., 1], u[..., 2]
        a, b, c = w[..., 0], w[..., 1], w[..., 2]
        out = np.empty_like(w)
        out[..., 0] = -self.sigma * a + (self.rho - z) * b + y * c
        out[..., 1] = self.sigma * a - b + x * c
        out[..., 2] = -x * b - self.beta * c
        return out

    def param_deriv(self, u):
        _check_dim(self, u)
        out = np.zeros_like(u)
        out[..., 1] = u[..., 0]
        return out

    def tangent_kernel(self, h, m, forcing):
        """step(v, u, s2, s3, s4): one discrete tangent RK4 step, in place,
        of the component-major batch v (3, m), stage states as (m, 3) rows:
        the element operations of timestep.tangent_step_at over
        jacobian_apply and param_deriv, in their order (dropping the
        forcing's + 0.0 on components 0 and 2 can change only the sign of
        an exact zero).  None for a subclass that redefines either."""
        cls = type(self)
        if (cls.jacobian_apply is not Lorenz.jacobian_apply
                or cls.param_deriv is not Lorenz.param_deriv):
            return None
        s, r, b, hh, hf, h6, two = map(np.array, (
            self.sigma, self.rho, self.beta, 0.5 * h, h, h / 6.0, 2.0))
        acc, k, w = (np.empty((3, m)) for _ in range(3))
        t = np.empty(m)
        add, mul, sub = np.add, np.multiply, np.subtract

        def deriv(u, v, out):
            x, y, z = u.T
            (va, vb, vc), (o0, o1, o2) = v, out
            mul(sub(vb, va, o0), s, o0)
            sub(sub(mul(sub(r, z, o1), va, o1), vb, o1), mul(x, vc, t), o1)
            if forcing:
                add(o1, x, o1)
            sub(add(mul(y, va, o2), mul(x, vb, t), o2), mul(b, vc, t), o2)

        def step(v, u, s2, s3, s4):
            deriv(u, v, acc)
            add(v, mul(acc, hh, w), w)
            deriv(s2, w, k)
            for st, c in ((s3, hh), (s4, hf)):
                add(v, mul(k, c, w), w)
                add(acc, mul(k, two, k), acc)
                deriv(st, w, k)
            add(v, mul(add(acc, k, acc), h6, acc), v)

        return step

    def rk4_scalar(self, u, h, n, states=None, check_every=1):
        """n RK4 steps of one state in plain floats (the fast path of
        ``timestep._rk4``); the same operations, in the same order, as ``rhs``
        and the array loop, so the states are bit-identical."""
        _check_dim(self, u)
        s, r, b = self.sigma, self.rho, self.beta
        hh, h6 = 0.5 * h, h / 6.0
        x, y, z = (float(c) for c in u)
        finite = math.isfinite
        for j in range(n):
            ax = s * (y - x)
            ay = x * (r - z) - y
            az = x * y - b * z
            px, py, pz = x + hh * ax, y + hh * ay, z + hh * az
            bx = s * (py - px)
            by = px * (r - pz) - py
            bz = px * py - b * pz
            px, py, pz = x + hh * bx, y + hh * by, z + hh * bz
            cx = s * (py - px)
            cy = px * (r - pz) - py
            cz = px * py - b * pz
            px, py, pz = x + h * cx, y + h * cy, z + h * cz
            dx = s * (py - px)
            dy = px * (r - pz) - py
            dz = px * py - b * pz
            x += h6 * (ax + 2.0 * bx + 2.0 * cx + dx)
            y += h6 * (ay + 2.0 * by + 2.0 * cy + dy)
            z += h6 * (az + 2.0 * bz + 2.0 * cz + dz)
            if states is not None:
                states[j + 1] = (x, y, z)
            if j % check_every == 0 and not (finite(x) and finite(y) and finite(z)):
                raise DivergenceError(j + 1)
        if not (finite(x) and finite(y) and finite(z)):
            raise DivergenceError(n)
        return np.array([x, y, z])


class KuramotoSivashinsky(DynamicalSystem):
    """1D Kuramoto-Sivashinsky equation with a convective parameter c:

        u_t = -(u + c) u_x - u_xx - u_xxxx,   x in [0, L]

    with homogeneous Dirichlet and Neumann conditions at both ends.
    The state holds the N interior nodes of a uniform grid of N + 2
    nodes (dx = L / (N + 1)).  Spatial derivatives use second-order
    central differences; the Neumann condition is imposed through
    ghost nodes that mirror the first interior node across the
    boundary (u[-1] = u[1]).

    The advection term is discretised in the equivalent conservative
    form (u^2/2 + c u)_x.  The plain non-conservative central product
    (u + c) D1 u is nonlinearly unstable on this grid: solutions blow
    up in finite time (around t ~ 30 from random unit-box initial
    data at L = 128, independent of the time step), while the
    conservative form stays on the bounded cellular attractor.

    With this discretisation the first-derivative matrix is exactly
    antisymmetric and the second/fourth-derivative matrices are exactly
    symmetric, which `jacobian_transpose_apply` exploits.
    """

    def __init__(self, n=127, length=128.0, c=0.0):
        if n < 1:
            raise ValueError("need at least one interior node")
        self.dim = int(n)
        self.length = float(length)
        self.c = float(c)
        self.dx = self.length / (self.dim + 1)
        # RK4 real-axis stability limit ~2.785 against the fourth-derivative
        # eigenvalue bound 16/dx^4
        self.max_stable_step = 2.785 * self.dx**4 / 16.0
        # fused second+fourth derivative stencil coefficients
        self._a4 = 1.0 / self.dx**4
        self._b24 = 1.0 / self.dx**2 - 4.0 / self.dx**4
        self._c24 = -2.0 / self.dx**2 + 6.0 / self.dx**4

    @property
    def param(self):
        return self.c

    def with_param(self, value):
        return KuramotoSivashinsky(self.dim, self.length, value)

    def _pad(self, u):
        """Extend (..., N) with boundary zeros and mirrored ghost nodes."""
        shape = u.shape[:-1]
        p = np.zeros(shape + (self.dim + 4,), dtype=u.dtype)
        p[..., 2:-2] = u
        p[..., 0] = u[..., 0]
        p[..., -1] = u[..., -1]
        return p

    def _d1p(self, p):
        """First derivative from an already padded array."""
        return (p[..., 3:-1] - p[..., 1:-3]) / (2.0 * self.dx)

    def _viscp(self, p):
        """Combined second plus fourth derivative from a padded array."""
        return (
            self._a4 * (p[..., 4:] + p[..., :-4])
            + self._b24 * (p[..., 3:-1] + p[..., 1:-3])
            + self._c24 * p[..., 2:-2]
        )

    def _d1(self, u):
        return self._d1p(self._pad(u))

    def rhs(self, u):
        _check_dim(self, u)
        p = self._pad(u)
        flux = 0.5 * p * p + self.c * p
        return -self._d1p(flux) - self._viscp(p)

    def jacobian_apply(self, u, v):
        _check_dim(self, u, v)
        pu = self._pad(u)
        pv = self._pad(v)
        return -self._d1p((pu + self.c) * pv) - self._viscp(pv)

    def jacobian_transpose_apply(self, u, w):
        _check_dim(self, u, w)
        # D1^T = -D1, D2^T = D2, D4^T = D4 for this discretisation
        pw = self._pad(w)
        return (u + self.c) * self._d1p(pw) - self._viscp(pw)

    def param_deriv(self, u):
        _check_dim(self, u)
        return -self._d1(u)

    # The kernel repeats the arithmetic of rhs, jacobian_apply and the RK4
    # loops element for element, on axis 0 of buffers allocated once per
    # call; forming -D1 q as (q[1:-3] - q[3:-1]) / (2 dx) can change only the
    # sign of an exact zero.  Ufuncs get out positionally and constants as
    # 0-d arrays, which NumPy dispatches fastest.

    def _rk4_kernel(self, h, shape, flux):
        """step(u, x): one RK4 step, in place, of u (N,) + shape along axis
        0.  Each stage input is written into the zero-bordered buffer p
        (N + 4,) + shape with mirrored ghost rows; flux(x, i, p, q) fills
        q for stage i, and the stage derivative is -D1 q - (D2 + D4) p."""
        n = self.dim
        p = np.zeros((n + 4,) + shape)
        q = np.zeros_like(p)
        k, acc, t1, t2 = (np.empty((n,) + shape) for _ in range(4))
        a4, b24, c24, dx2, hh, hf, h6, two = map(np.array, (
            self._a4, self._b24, self._c24, 2.0 * self.dx,
            0.5 * h, h, h / 6.0, 2.0))
        inner, p4, p0, p3, p1 = p[2:-2], p[4:], p[:-4], p[3:-1], p[1:-3]
        q1, q3 = q[1:-3], q[3:-1]
        add, mul, sub = np.add, np.multiply, np.subtract

        def deriv(x, i, out):
            p[0], p[-1] = p[2], p[-3]
            flux(x, i, p, q)
            add(p4, p0, t1)
            mul(t1, a4, t1)
            add(p3, p1, t2)
            mul(t2, b24, t2)
            add(t1, t2, t1)
            mul(inner, c24, t2)
            add(t1, t2, t1)
            sub(q1, q3, out)
            np.divide(out, dx2, out)
            sub(out, t1, out)

        def step(u, x=None):
            np.copyto(inner, u)
            deriv(x, 0, acc)
            mul(acc, hh, inner)
            add(inner, u, inner)
            deriv(x, 1, k)
            for i, w in ((2, hh), (3, hf)):
                mul(k, w, inner)
                add(inner, u, inner)
                mul(k, two, k)
                add(acc, k, acc)
                deriv(x, i, k)
            add(acc, k, acc)
            mul(acc, h6, acc)
            add(u, acc, u)

        return step

    def rk4_stepper(self, h):
        """The in-place RK4 step of one state (N,) through the kernel, for
        the single-state path of ``timestep._rk4``."""
        cp = np.empty(self.dim + 4)
        half, c = np.array(0.5), np.array(self.c)

        def flux(x, i, p, q):
            np.multiply(p, half, q)
            np.multiply(q, p, q)
            np.multiply(p, c, cp)
            np.add(q, cp, q)

        return self._rk4_kernel(h, (), flux)

    def tangent_columns(self, h, u, s2, s3, s4):
        """The discrete tangent propagator (N, N) across the steps whose
        RK4 stage states are the rows of u, s2, s3, s4 (m, N): the N unit
        columns swept through the kernel as one block, each stage state
        broadcast across it.  Column c equals timestep.tangent_step_at's
        sweep of the row e_c."""
        n = self.dim
        pc = self._pad(np.stack((u, s2, s3, s4), axis=1))[..., None]
        pc += self.c
        step = self._rk4_kernel(h, (n,),
                                lambda x, i, p, q: np.multiply(x[i], p, q))
        v = np.eye(n)
        for x in pc:
            step(v, x)
        return v


class Objective:
    """Pointwise objective J(u, s); time averaging happens elsewhere.

    ``value`` maps (..., N) -> (...); ``gradient`` maps (..., N) -> (..., N).
    ``param_deriv`` is dJ/ds at fixed u (zero for every objective here).
    """

    param_deriv = 0.0

    def value(self, u):
        raise NotImplementedError

    def gradient(self, u):
        raise NotImplementedError


class LorenzZ(Objective):
    """J = z for the Lorenz system."""

    def value(self, u):
        return u[..., 2]

    def gradient(self, u):
        g = np.zeros_like(u)
        g[..., 2] = 1.0
        return g


class SpatialMean(Objective):
    """J = (1/L) * integral of u dx, trapezoidal rule with zero ends."""

    def __init__(self, system):
        self.weight = system.dx / system.length

    def value(self, u):
        return self.weight * u.sum(axis=-1)

    def gradient(self, u):
        return np.full_like(u, self.weight)


class SpatialMeanSquare(Objective):
    """J = (1/L) * integral of u^2 dx, trapezoidal rule with zero ends."""

    def __init__(self, system):
        self.weight = system.dx / system.length

    def value(self, u):
        return self.weight * (u * u).sum(axis=-1)

    def gradient(self, u):
        return 2.0 * self.weight * u

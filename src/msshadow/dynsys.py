"""Dynamical systems and time-averaged objectives.

Every system exposes the right-hand side f(u, s) of du/dt = f(u, s),
its Jacobian action and exact transpose, and the derivative of f with
respect to the single control parameter s.  All operations accept
arrays of shape (..., N) and act on the last axis, so they can be
applied to a whole batch of states at once.  The primal loops and the
tangent and adjoint sweeps of both systems' own models run in C
(``_native``) when a compiler works, with the operations of these
methods in their order.
"""

import numpy as np

from .errors import DimensionMismatch


def own_model(system, cls):
    """Whether system's class takes rhs and its derivatives unchanged
    from cls: the one rule by which a fast path written for cls's model
    (the C loops and sweeps of _native) serves system.  A subclass that redefines any of them runs
    the generic path through its own methods."""
    return all(getattr(type(system), m) is getattr(cls, m) for m in (
        "rhs", "jacobian_apply", "jacobian_transpose_apply", "param_deriv"))


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
        if length <= 0:
            raise ValueError(f"domain length must be positive, got {length}")
        self.dim = int(n)
        self.length = float(length)
        self.c = float(c)
        self.dx = self.length / (self.dim + 1)
        # RK4 real-axis stability limit ~2.785 against the fourth-derivative
        # eigenvalue bound 16/dx^4
        self.max_stable_step = 2.785 * self.dx**4 / 16.0
        # first derivative and fused second+fourth derivative stencil
        # coefficients
        self._b1 = 1.0 / (2.0 * self.dx)
        self._a4 = 1.0 / self.dx**4
        self._b24 = 1.0 / self.dx**2 - 4.0 / self.dx**4
        self._c24 = -2.0 / self.dx**2 + 6.0 / self.dx**4

    @property
    def param(self):
        return self.c

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
        return (p[..., 3:-1] - p[..., 1:-3]) * self._b1

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


class Objective:
    """Pointwise objective J(u, s); time averaging happens elsewhere.

    ``value`` maps (..., N) -> (...); ``gradient`` maps (..., N) -> (..., N);
    ``gradient_dot(u, v)`` is <dJ/du, v> over the last axis.
    ``param_deriv`` is dJ/ds at fixed u (zero for every objective here).
    """

    param_deriv = 0.0

    def value(self, u):
        raise NotImplementedError

    def gradient(self, u):
        raise NotImplementedError

    def gradient_dot(self, u, v):
        return (self.gradient(u) * v).sum(axis=-1)


class LorenzZ(Objective):
    """J = z for the Lorenz system."""

    def value(self, u):
        return u[..., 2]

    def gradient(self, u):
        g = np.zeros_like(u)
        g[..., 2] = 1.0
        return g

    def gradient_dot(self, u, v):
        return v[..., 2]


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

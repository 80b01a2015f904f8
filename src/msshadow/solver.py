"""Matrix-free preconditioned conjugate gradient for the shooting system.

Three operator modes are supported, differing in where the Tikhonov
shift gamma enters relative to the preconditioner M:

  none:  S w = b                      (gamma ignored)
  pre:   M (gamma I + S) w = M b
  post:  (gamma I + M S) w = M b

The post system is the left-preconditioned form of the SPD system
(S + gamma M^{-1}) w = b with preconditioner M, so standard PCG applies
to all three modes; the preconditioned operator of the post mode has
spectrum mu(M S) + gamma exactly.  M must expose ``apply`` and, for the
post mode, ``apply_inv``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BreakdownError


@dataclass
class SolveConfig:
    tol: float = 1e-5
    max_iter: int = 500
    gamma: float = 0.0
    mode: str = "post"  # none | pre | post
    preconditioner: object = None

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0 <= self.gamma < np.inf:
            raise ValueError("gamma must be non-negative and finite")
        if self.mode not in ("none", "pre", "post"):
            raise ValueError(f"unknown regularization mode {self.mode!r}")


@dataclass
class SolveReport:
    iterations: int = 0
    converged: bool = False
    # relative 2-norms per iteration, first entry 1.0
    residuals: list = field(default_factory=list)         # governing system
    # b - (S + gamma .) w of the regularized operator, without M
    true_residuals: list = field(default_factory=list)
    # CG's updated residual shifted by gamma, over ||b||: ||b - S w|| / ||b||
    # of the raw system at the returned w up to CG's residual gap
    unregularized_residual: float = 0.0

    def to_csv(self, path):
        # analysis loads the compiled library's module, which a plain
        # import of the package does not
        from .analysis import write_csv
        write_csv(path, ["iteration", "relative_residual"],
                  enumerate(self.residuals))


def _build_operator(apply_s, config):
    gamma = config.gamma
    pc = config.preconditioner
    if config.mode == "none" or gamma == 0.0:
        return apply_s
    if config.mode == "post" and pc is not None:
        # S + gamma * M^{-1}
        return lambda w: gamma * pc.apply_inv(w) + apply_s(w)
    return lambda w: gamma * w + apply_s(w)


def cg_solve(apply_s, rhs, config):
    """PCG on the mode-built operator; returns (solution, SolveReport).

    ``apply_s`` maps a segment stack to a segment stack and must be the
    raw (unregularized, unpreconditioned) SPD action.  Convergence is
    measured on the preconditioned residual when a preconditioner is
    active, on the true residual otherwise; both histories are kept.
    Non-convergence at max_iter is reported, not raised.  The raw
    system's residual b - S w at the end is read off the final updated
    r with no product: r + gamma w in pre mode, r + gamma M^{-1} w in
    post mode.  It agrees with a directly applied b - S w up to the gap
    between CG's updated and true residuals, which rounding opens and
    kappa(S) widens: once the true residual stagnates at that floor the
    updated one, and this value with it, keeps falling below it.
    """
    operator = _build_operator(apply_s, config)
    pc = config.preconditioner
    apply_m = pc.apply if pc is not None else (lambda z: z)

    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = apply_m(r)
    p = z.copy()
    rz = float((r * z).sum())
    r0 = float(np.linalg.norm(r))
    z0 = float(np.linalg.norm(z))
    if r0 == 0.0:
        report = SolveReport(iterations=0, converged=True,
                             residuals=[0.0], true_residuals=[0.0])
        return x, report

    true_hist = [1.0]
    pc_hist = [1.0]
    governing = pc_hist if pc is not None else true_hist
    converged = False
    m = 0
    for m in range(1, config.max_iter + 1):
        q = operator(p)
        pq = float((p * q).sum())
        if not np.isfinite(pq) or pq <= 0.0:
            raise BreakdownError(m, f"CG breakdown: <p, Sp> = {pq} at iteration {m}")
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        z = apply_m(r)
        rz_new = float((r * z).sum())
        true_hist.append(float(np.linalg.norm(r)) / r0)
        pc_hist.append(float(np.linalg.norm(z)) / z0 if z0 > 0 else 0.0)
        if not np.isfinite(true_hist[-1]):
            raise BreakdownError(m, f"non-finite residual at iteration {m}")
        if governing[-1] <= config.tol:
            converged = True
            break
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new

    if config.mode != "none" and config.gamma != 0.0:
        shift = (pc.apply_inv(x) if config.mode == "post" and pc is not None
                 else x)
        r = r + config.gamma * shift
    report = SolveReport(
        iterations=m,
        converged=converged,
        residuals=governing,
        true_residuals=true_hist,
        unregularized_residual=float(np.linalg.norm(r)) / r0,
    )
    return x, report


def error_bound(kappa, m):
    """Classical CG error bound 2 ((sqrt(k)-1)/(sqrt(k)+1))^m.

    Independent of problem size; an upper bound on the energy-norm
    error ratio after m iterations.
    """
    if kappa < 1.0:
        raise ValueError("condition number must be >= 1")
    if m < 0:
        raise ValueError("iteration count must be >= 0")
    root = np.sqrt(kappa)
    ratio = (root - 1.0) / (root + 1.0)
    return 2.0 * ratio**m

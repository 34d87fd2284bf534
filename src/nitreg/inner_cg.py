"""Inner minimization of the per-step Tikhonov functional.

Each outer step minimizes ``(1/r) ||F(x) - y||^r + alpha * D_xi Theta(x, x_prev)``
by L-BFGS (limited-memory BFGS directions from the two-loop recursion in the
quadrature-weighted inner product) with Armijo backtracking.  F is applied
once per point: the residual F(x) - y computed with the objective value is
reused for the gradient.  A trial point where the operator fails, or where the
objective is not finite, is rejected like any other trial.  A solve stops when
an accepted step no longer moves x, since every later iteration would repeat
that step.

`solver.step` uses L-BFGS unless the subproblem is linear-quadratic: F linear,
penalty weights a = b = 0, r = 2 and p = 2.  Then the subproblem is a linear
system, solved exactly by CG on the normal equations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from . import penalties
from .operators import ForwardOp, OperatorError
from .penalties import Penalty
from .spaces import DUAL, PRIMAL, GridFn, duality_map, norm

MEMORY = 10  # stored (s, y) pairs
ARMIJO = 1e-4  # sufficient-decrease constant
BACKTRACK = 0.5  # step-length factor per rejected trial
MAX_BACKTRACKS = 50


@dataclass(frozen=True)
class InnerProblem:
    op: ForwardOp
    ydelta: GridFn
    theta: Penalty
    alpha: float
    x_prev: GridFn
    xi_prev: GridFn
    r: float = 2.0

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ValueError("alpha must be > 0")
        if self.r <= 1.0:
            raise ValueError("r must be > 1")
        if self.x_prev.space != self.op.domain_space:
            raise ValueError("x_prev must live on the operator domain space")
        if self.xi_prev.variance != DUAL:
            raise ValueError("xi_prev must be a dual element")
        if self.ydelta.space != self.op.range_space:
            raise ValueError("ydelta must live on the operator range space")


@dataclass(frozen=True)
class InnerSettings:
    grad_tol_rel: float = 1e-8
    max_iters: int = 2000

    def __post_init__(self):
        if self.grad_tol_rel <= 0 or self.max_iters <= 0:
            raise ValueError("grad_tol_rel and max_iters must be positive")


@dataclass
class InnerStats:
    iterations: int = 0
    converged: bool = False
    line_search_failed: bool = False
    grad_norm: float = np.nan
    initial_grad_norm: float = np.nan
    backtracks: int = 0
    objective: float = np.nan
    objective_history: list = field(default_factory=list)  # per iterate of `minimize`


def objective(p: InnerProblem, x: GridFn) -> tuple[float, GridFn]:
    """The subproblem functional at x, and the residual res = F(x) - y."""
    res = p.op.apply(x) - p.ydelta
    fit = norm(res) ** p.r / p.r
    return fit + p.alpha * penalties.bregman(p.theta, x, p.x_prev, p.xi_prev), res


def grad_objective(p: InnerProblem, x: GridFn, res: GridFn) -> GridFn:
    """Gradient in the dual representation, given res = F(x) - y:
    F'(x)* J_r(res) + alpha * (grad Theta(x) - xi_prev)."""
    adj = p.op.adjoint(x, duality_map(res, p.r))
    return adj + p.alpha * (penalties.gradient(p.theta, x) - p.xi_prev)


def minimize(
    p: InnerProblem,
    s: InnerSettings | None = None,
    x_start: GridFn | None = None,
) -> tuple[GridFn, InnerStats]:
    """L-BFGS with Armijo backtracking; monotone in the objective.

    Stops once the dual norm of the gradient drops below
    ``grad_tol_rel * max(1, initial gradient norm)`` or the iteration cap is
    reached, or an accepted step leaves x unchanged.  A failed line search
    returns the best iterate with a flag.
    """
    if s is None:
        s = InnerSettings()
    x = p.x_prev if x_start is None else x_start
    w = x.space.weights

    def ip(avals, bvals):
        return float(np.sum(w * avals * bvals))

    stats = InnerStats()
    f_cur, res = objective(p, x)
    g = grad_objective(p, x, res)
    gn = norm(g)
    stats.initial_grad_norm = gn
    tol = s.grad_tol_rel * max(1.0, gn)
    stats.objective_history.append(f_cur)

    pairs = deque(maxlen=MEMORY)  # (s_k, y_k, 1 / <s_k, y_k>), oldest first
    for k in range(s.max_iters):
        if gn <= tol:
            break
        # two-loop recursion: d = -H g, with H0 = <s, y> / <y, y> of the newest pair
        q = g.values.copy()
        coeffs = []
        for sk, yk, rho in reversed(pairs):
            a = rho * ip(sk, q)
            q -= a * yk
            coeffs.append(a)
        if pairs:
            sk, yk, rho = pairs[-1]
            q *= 1.0 / (rho * ip(yk, yk))
            t = 1.0
        else:
            t = 1.0 / np.sqrt(ip(q, q))
        for (sk, yk, rho), a in zip(pairs, reversed(coeffs)):
            q += (a - rho * ip(yk, q)) * sk
        d = -q
        slope = ip(g.values, d)
        for _bt in range(MAX_BACKTRACKS):
            trial = GridFn(x.space, x.values + t * d, PRIMAL)
            try:
                f_trial, res = objective(p, trial)
            except OperatorError:
                f_trial = np.nan
            if np.isfinite(f_trial) and f_trial <= f_cur + ARMIJO * t * slope:
                break
            t *= BACKTRACK
            stats.backtracks += 1
        else:
            stats.line_search_failed = True
            break
        if np.array_equal(trial.values, x.values):
            break  # x, g and the memory are unchanged: this step would repeat
        g_trial = grad_objective(p, trial, res)
        sk, yk = trial.values - x.values, g_trial.values - g.values
        sy = ip(sk, yk)
        if sy > 0.0:
            pairs.append((sk, yk, 1.0 / sy))
        x, f_cur, g = trial, f_trial, g_trial
        gn = norm(g)
        stats.iterations = k + 1
        stats.objective_history.append(f_cur)
    stats.converged = gn <= tol
    stats.grad_norm = gn
    stats.objective = f_cur
    return x, stats


def is_linear_quadratic(p: InnerProblem) -> bool:
    return (
        p.op.is_linear
        and p.theta.a == 0.0
        and p.theta.b == 0.0
        and p.r == 2.0
        and p.x_prev.space.exponent == 2.0
        and p.ydelta.space.exponent == 2.0
    )


def minimize_linear_quadratic(p: InnerProblem) -> tuple[GridFn, InnerStats]:
    """Exact route for linear F, quadratic penalty, r = 2.

    Solves the optimality system M x = A* y + alpha xi_prev with
    M = A*A + 2 mu alpha I, which is self-adjoint in the quadrature-weighted
    inner product: scipy's CG on W M x = W (A* y + alpha xi_prev), W the
    quadrature weights, preconditioned by W^-1, is CG in that inner product.
    """
    if not is_linear_quadratic(p):
        raise ValueError("exact route needs a linear operator, quadratic penalty, r=2")
    space = p.x_prev.space
    w = space.weights
    two_mu_alpha = 2.0 * p.theta.mu * p.alpha

    def hess(v: np.ndarray) -> np.ndarray:
        xv = GridFn(space, v, PRIMAL)
        av = p.op.apply(xv)
        return p.op.adjoint(xv, GridFn(av.space, av.values, DUAL)).values + two_mu_alpha * v

    rhs = (
        p.op.adjoint(p.x_prev, GridFn(p.ydelta.space, p.ydelta.values, DUAL)).values
        + p.alpha * p.xi_prev.values
    )
    _f, res = objective(p, p.x_prev)
    stats = InnerStats(initial_grad_norm=norm(grad_objective(p, p.x_prev, res)))

    def count(_v):
        stats.iterations += 1

    n = space.size
    v, info = spla.cg(
        spla.LinearOperator((n, n), matvec=lambda u: w * hess(u)), w * rhs,
        x0=p.x_prev.values, rtol=1e-13,
        M=spla.LinearOperator((n, n), matvec=lambda u: u / w), callback=count,
    )
    x = GridFn(space, v, PRIMAL)
    stats.converged = info == 0
    stats.objective, res = objective(p, x)
    stats.grad_norm = norm(grad_objective(p, x, res))
    return x, stats

"""Inner minimization of the per-step Tikhonov functional.

Each outer step minimizes ``(1/r) ||F(x) - y||^r + alpha * D_xi Theta(x, x_prev)``
with a Fletcher-Reeves nonlinear CG using Armijo backtracking, a
sufficient-descent safeguard and periodic restarts.  For a linear operator
with quadratic penalty and r = 2 an exact linear CG on the normal equations
is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import penalties
from .operators import ForwardOp
from .penalties import Penalty
from .spaces import DUAL, PRIMAL, GridFn, duality_map, norm


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
    restart_period: int = 0  # 0: problem dimension
    armijo: float = 1e-4
    backtrack: float = 0.5
    max_backtracks: int = 50

    def __post_init__(self):
        if not (0.0 < self.armijo < 0.5):
            raise ValueError("armijo constant must be in (0, 1/2)")
        if not (0.0 < self.backtrack < 1.0):
            raise ValueError("backtrack factor must be in (0, 1)")
        if self.grad_tol_rel <= 0 or self.max_iters <= 0 or self.max_backtracks <= 0:
            raise ValueError("tolerances and iteration caps must be positive")


@dataclass
class InnerStats:
    iterations: int = 0
    converged: bool = False
    line_search_failed: bool = False
    grad_norm: float = np.nan
    initial_grad_norm: float = np.nan
    backtracks: int = 0
    objective: float = np.nan
    initial_objective: float = np.nan
    objective_history: list = field(default_factory=list)  # per iterate of `minimize`


def objective(p: InnerProblem, x: GridFn) -> float:
    res = p.op.apply(x) - p.ydelta
    fit = norm(res) ** p.r / p.r
    return fit + p.alpha * penalties.bregman(p.theta, x, p.x_prev, p.xi_prev)


def grad_objective(p: InnerProblem, x: GridFn) -> GridFn:
    """Gradient in the dual representation:
    F'(x)* J_r(F(x) - y) + alpha * (grad Theta(x) - xi_prev)."""
    res = p.op.apply(x) - p.ydelta
    adj = p.op.adjoint(x, duality_map(res, p.r))
    return adj + p.alpha * (penalties.gradient(p.theta, x) - p.xi_prev)


def minimize(
    p: InnerProblem,
    s: InnerSettings | None = None,
    x_start: GridFn | None = None,
) -> tuple[GridFn, InnerStats]:
    """Fletcher-Reeves CG with Armijo backtracking; monotone in the objective.

    Stops once the dual norm of the gradient drops below
    ``grad_tol_rel * max(1, initial gradient norm)`` or the iteration cap is
    reached.  A failed line search returns the best iterate with a flag.
    """
    if s is None:
        s = InnerSettings()
    x = p.x_prev if x_start is None else x_start
    w = x.space.weights
    restart_every = s.restart_period or x.space.size

    def ip(avals, bvals):
        return float(np.sum(w * avals * bvals))

    stats = InnerStats()
    f_cur = objective(p, x)
    g = grad_objective(p, x)
    gn = norm(g)
    stats.initial_objective = f_cur
    stats.initial_grad_norm = gn
    tol = s.grad_tol_rel * max(1.0, gn)
    stats.objective_history.append(f_cur)

    d = None
    gg_prev = None
    slope_prev = None
    t_prev = None
    for k in range(s.max_iters):
        if gn <= tol:
            stats.converged = True
            break
        gg = ip(g.values, g.values)
        if d is None or k % restart_every == 0:
            d = -g.values
        else:
            beta = gg / gg_prev
            d = -g.values + beta * d
            # sufficient-descent safeguard: fall back to steepest descent
            if ip(g.values, d) >= -1e-10 * np.sqrt(gg * ip(d, d)):
                d = -g.values
        slope = ip(g.values, d)
        if t_prev is None:
            t = 1.0 / np.sqrt(gg)
        else:
            t = 2.0 * t_prev * slope_prev / slope
            if not np.isfinite(t) or t <= 0.0:
                t = 1.0 / np.sqrt(gg)
        accepted = False
        for _bt in range(s.max_backtracks):
            trial = GridFn(x.space, x.values + t * d, PRIMAL)
            f_trial = objective(p, trial)
            if f_trial <= f_cur + s.armijo * t * slope:
                accepted = True
                break
            t *= s.backtrack
            stats.backtracks += 1
        if not accepted:
            stats.line_search_failed = True
            break
        x = trial
        f_cur = f_trial
        g = grad_objective(p, x)
        gn = norm(g)
        gg_prev = gg
        slope_prev = slope
        t_prev = t
        stats.iterations = k + 1
        stats.objective_history.append(f_cur)
    else:
        stats.converged = gn <= tol
    if gn <= tol:
        stats.converged = True
    stats.grad_norm = gn
    stats.objective = f_cur
    return x, stats


def is_linear_quadratic(p: InnerProblem) -> bool:
    return (
        p.op.is_linear
        and p.theta.kind == "quadratic"
        and p.r == 2.0
        and p.x_prev.space.exponent == 2.0
        and p.ydelta.space.exponent == 2.0
    )


def minimize_linear_quadratic(
    p: InnerProblem, tol: float = 1e-13, max_iters: int | None = None
) -> tuple[GridFn, InnerStats]:
    """Exact route for linear F, quadratic penalty, r = 2.

    Solves the optimality system (A*A + 2 mu alpha I) x = A* y + alpha xi_prev
    by linear CG in the quadrature-weighted inner product.
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
    v = p.x_prev.values.copy()
    res = rhs - hess(v)
    d = res.copy()
    rr = float(np.sum(w * res * res))
    rr0 = max(rr, 1e-300)
    stats = InnerStats(initial_grad_norm=np.sqrt(rr))
    if max_iters is None:
        max_iters = 10 * space.size
    for k in range(max_iters):
        if rr <= tol * tol * rr0:
            stats.converged = True
            break
        hd = hess(d)
        step = rr / float(np.sum(w * d * hd))
        v = v + step * d
        res = res - step * hd
        rr_new = float(np.sum(w * res * res))
        d = res + (rr_new / rr) * d
        rr = rr_new
        stats.iterations = k + 1
    else:
        stats.converged = rr <= tol * tol * rr0
    x = GridFn(space, v, PRIMAL)
    stats.grad_norm = np.sqrt(rr)
    stats.objective = objective(p, x)
    return x, stats

"""Inner minimization of the per-step Tikhonov functional.

Each outer step minimizes ``(1/r) ||F(x) - y||^r + alpha * D_xi Theta(x, x_prev)``
by truncated Gauss–Newton–CG with Armijo backtracking.  Each Newton system
``(F'(x)* J_r'(res) F'(x) + alpha W^-1 P(x)) h = -g``, with W the quadrature
weights and P the penalty Hessian, is solved by CG in the quadrature-weighted
inner product, preconditioned by alpha P.  P is a diagonal, held as one vector
(`penalties.pointwise_hessian`), plus with TV (b > 0) the banded TV term
(`penalties.tv_hessian`).  With TV the preconditioner factors the TV band with
that diagonal added by banded Cholesky (LAPACK ``pbtrf``); without TV no
matrix is built and the preconditioner is a division.  CG stops at the
Eisenstat–Walker relative residual
``min(0.5, sqrt(||g|| / max(1, ||g_0||)))``, or at 1e-13 when the subproblem
is linear-quadratic (F linear, a = b = 0, r = p = 2), which one Newton step
then solves.  For TV, P uses the dual field of Chan, Golub & Mulet, updated
after each accepted step.

F is applied once per point: the residual F(x) - y computed with the objective
value is reused for the gradient, whose data term F'(x)* J_r(F(x) - y) also
gives the returned dual update xi_n.  CG applies the linearization at x, taken
once per Newton direction, to nodal arrays.  A trial point where the operator
fails, or where the objective is not finite, is rejected like any other trial.
A solve stops when an accepted step no longer moves x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from . import penalties
from .operators import ForwardOp, OperatorError, banded_cholesky, upper_band
from .penalties import Penalty
from .spaces import DUAL, PRIMAL, GridFn, duality_map, norm

ARMIJO = 1e-4  # sufficient-decrease constant
BACKTRACK = 0.5  # step-length factor per rejected trial
MAX_BACKTRACKS = 50
EXACT_RTOL = 1e-13  # CG tolerance of a linear-quadratic subproblem


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
    max_iters: int = 2000  # Newton iterations

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
    residual: float = np.nan  # ||F(x) - y|| at the returned x


def objective(p: InnerProblem, x: GridFn) -> tuple[float, GridFn]:
    """The subproblem functional at x, and the residual res = F(x) - y."""
    res = p.op.apply(x) - p.ydelta
    fit = norm(res) ** p.r / p.r
    return fit + p.alpha * penalties.bregman(p.theta, x, p.x_prev, p.xi_prev), res


def grad_objective(p: InnerProblem, x: GridFn, res: GridFn) -> tuple[GridFn, GridFn]:
    """Gradient in the dual representation, given res = F(x) - y:
    F'(x)* J_r(res) + alpha * (grad Theta(x) - xi_prev); and its data term
    adj = F'(x)* J_r(res)."""
    adj = p.op.adjoint(x, duality_map(res, p.r))
    return adj + p.alpha * (penalties.gradient(p.theta, x) - p.xi_prev), adj


def is_linear_quadratic(p: InnerProblem) -> bool:
    return (
        p.op.is_linear
        and p.theta.a == 0.0
        and p.theta.b == 0.0
        and p.r == 2.0
        and p.x_prev.space.exponent == 2.0
        and p.ydelta.space.exponent == 2.0
    )


def _penalty_hessian(p: InnerProblem, x: GridFn, cell: np.ndarray | None):
    """``alpha P`` at x as a matvec, and its inverse, the CG preconditioner.

    With TV, P is the banded TV term plus a diagonal, positive definite for
    mu > 0 and |cell| < 1, and is factored by banded Cholesky.  Without TV it
    is diagonal, so its inverse is a division.
    """
    diag = p.alpha * penalties.pointwise_hessian(p.theta, x)
    if p.theta.b > 0.0:
        tv = p.alpha * penalties.tv_hessian(p.theta, x, cell)
        band = upper_band(tv)
        band[-1] += diag
        solve = banded_cholesky(band)
        if solve is None:
            raise np.linalg.LinAlgError("alpha P is not positive definite")
        return (lambda v: diag * v + tv @ v), solve
    return (lambda v: diag * v), (lambda v: v / diag)


def _newton_direction(p: InnerProblem, x: GridFn, res: GridFn, g: GridFn,
                      cell: np.ndarray | None, rtol: float) -> np.ndarray:
    """CG on ``W F'* J_r'(res) F' + alpha P`` with right-hand side ``-W g``.

    ``J_r'(u) h = ||u||^(r-2) (h + (r-2) <u, h> u / ||u||^2)`` is the
    derivative of the duality mapping on a p = 2 space; it is symmetric
    positive definite for every r > 1, so the matrix is too.  For p != 2 it is
    a Gauss–Newton model, and the line search keeps descent.
    """
    space, rspace = x.space, res.space
    rn = norm(res)
    scale = rn ** (p.r - 2.0) if rn > 0.0 else float(p.r == 2.0)
    rank1 = (p.r - 2.0) / rn**2 if rn > 0.0 else 0.0
    apply_hess, precondition = _penalty_hessian(p, x, cell)
    deriv, adjoint = p.op.linearized(x)

    def matvec(v):
        fv = deriv(v)
        jv = scale * (fv + rank1 * np.sum(rspace.weights * res.values * fv) * res.values)
        return space.weights * adjoint(jv) + apply_hess(v)

    n = space.size
    h, _info = spla.cg(
        spla.LinearOperator((n, n), matvec=matvec), -space.weights * g.values, rtol=rtol,
        M=spla.LinearOperator((n, n), matvec=precondition),
    )
    return h


def minimize(p: InnerProblem,
             s: InnerSettings = InnerSettings()) -> tuple[GridFn, GridFn, InnerStats]:
    """Truncated Gauss–Newton–CG with Armijo backtracking from x_prev; monotone
    in the objective.

    Stops once the dual norm of the gradient drops below
    ``grad_tol_rel * max(1, initial gradient norm)`` or the iteration cap is
    reached, or an accepted step leaves x unchanged.  A failed line search
    returns the best iterate with a flag.  Returns x, the dual update
    ``xi = xi_prev - (1/alpha) F'(x)* J_r(F(x) - y)`` taken from the last
    gradient evaluation at x, and the statistics.
    """
    x = p.x_prev
    w = x.space.weights

    stats = InnerStats()
    f_cur, res = objective(p, x)
    g, adj = grad_objective(p, x, res)
    gn = stats.initial_grad_norm = norm(g)
    g0 = max(1.0, gn)
    tol = s.grad_tol_rel * g0
    exact = is_linear_quadratic(p)
    cell = None  # TV dual field; None is d/m at x

    for k in range(s.max_iters):
        if gn <= tol:
            break
        rtol = EXACT_RTOL if exact else min(0.5, np.sqrt(gn / g0))  # Eisenstat–Walker
        d = _newton_direction(p, x, res, g, cell, rtol)
        slope = float(np.sum(w * g.values * d))
        t = 1.0
        for _bt in range(MAX_BACKTRACKS):
            trial = GridFn(x.space, x.values + t * d, PRIMAL)
            try:
                f_trial, res_trial = objective(p, trial)
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
            break  # x and g are unchanged: this step would repeat
        if p.theta.b > 0.0:
            cell = penalties.tv_field_step(p.theta, x, cell, trial - x)
        x, f_cur, res = trial, f_trial, res_trial
        g, adj = grad_objective(p, x, res)
        gn = norm(g)
        stats.iterations = k + 1
    stats.converged = gn <= tol
    stats.grad_norm = gn
    stats.objective = f_cur
    stats.residual = norm(res)
    return x, p.xi_prev - (1.0 / p.alpha) * adj, stats

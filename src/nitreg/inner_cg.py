"""Inner minimization of the per-step Tikhonov functional.

Each outer step minimizes ``(1/r) ||F(x) - y||^r + alpha * D_xi Theta(x, x_prev)``
by truncated Gauss–Newton–CG with Armijo backtracking.  Each Newton system
``(F'(x)* J_r'(res) F'(x) + alpha W^-1 P(x)) h = -g``, with W the quadrature
weights and P the penalty Hessian, is solved by CG in the quadrature-weighted
inner product.  P is a diagonal, held as one vector (`penalties.pointwise_hessian`),
plus with TV (b > 0) the TV term, as CSR for the matvec and as its upper band
(`penalties.tv_hessian`).  With TV, CG is preconditioned by alpha P: that band
plus the diagonal, factored by banded Cholesky (LAPACK ``pbtrf``).  Without TV,
the preconditioner is the operator's exact inverse of the Newton matrix
(`ForwardOp.newton_inverse`; `IntegralOp` factors a pentadiagonal band) or, if
it has none, alpha P, a division.  CG stops at the Eisenstat–Walker relative residual
``min(0.5, sqrt(||g|| / max(1, ||g_0||)))``, safeguarded from below by
``0.5 tol / ||g||``: a direction is solved no more tightly than the inner stop
``||g|| <= tol`` can use (Eisenstat & Walker, SIAM J. Sci. Comput. 17 (1996)
16–32; Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM
1995, ch. 6).  When the subproblem is linear-quadratic (F linear, a = b = 0,
r = p = 2), CG stops at 1e-13 instead, and one Newton step solves it.  For
TV, P uses the dual field of Chan, Golub & Mulet, updated after each accepted
step.  CG is this module's own loop, `_cg`, the iteration
of scipy's ``cg`` update for update: without scipy's set-up around what is
mostly one iteration per direction, ``integral_l1`` solves take about 30% less
time (``BENCH_inner_arrays.json``).

F, F' and Theta are evaluated once per point: the residual F(x) - y of the objective
value is reused for the gradient, whose data term F'(x)* J_r(F(x) - y) also gives
the returned dual update xi_n; F'(x) is linearized once per accepted point
(`ForwardOp.linearized`), and its maps serve both that data term and CG; Theta(x_prev)
is computed once per subproblem, and the stats report Theta and ||g||_* at the
returned x.  Residuals, gradients and directions are nodal arrays; a trial point
and the data term are grid functions, which refuse non-finite values, and a trial
where the operator fails or the objective is not finite is rejected.  A solve stops
when an accepted step no longer lowers the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import penalties
from .operators import ForwardOp, OperatorError, banded_cholesky
from .penalties import Penalty
from .spaces import DUAL, PRIMAL, GridFn, duality_values, values_norm

ARMIJO = 1e-4  # sufficient-decrease constant
BACKTRACK = 0.5  # step-length factor per rejected trial
MAX_BACKTRACKS = 50
EXACT_RTOL = 1e-13  # CG tolerance of a linear-quadratic subproblem
SAFEGUARD = 0.5  # CG tolerance floor, as a fraction of the reduction tol / ||g|| left to make


@dataclass(frozen=True)
class InnerProblem:
    op: ForwardOp
    ydelta: GridFn
    theta: Penalty
    alpha: float
    x_prev: GridFn
    xi_prev: GridFn
    r: float = 2.0
    theta_prev: float = field(init=False)  # Theta(x_prev), constant over the subproblem

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be > 0")
        if not 1.0 < self.r < math.inf:
            raise ValueError("r must be > 1")
        if self.x_prev.space != self.op.domain_space:
            raise ValueError("x_prev must live on the operator domain space")
        if self.xi_prev.variance != DUAL:
            raise ValueError("xi_prev must be a dual element")
        if self.ydelta.space != self.op.range_space:
            raise ValueError("ydelta must live on the operator range space")
        object.__setattr__(self, "theta_prev", penalties.value(self.theta, self.x_prev))


@dataclass(frozen=True)
class InnerSettings:
    grad_tol_rel: float = 1e-8
    max_iters: int = 2000  # Newton iterations

    def __post_init__(self):
        if not (0.0 < self.grad_tol_rel < math.inf and self.max_iters > 0):
            raise ValueError("grad_tol_rel and max_iters must be positive")


@dataclass
class InnerStats:
    iterations: int = 0
    cg_iterations: int = 0  # summed over the Newton directions
    converged: bool = False
    line_search_failed: bool = False
    grad_norm: float = np.nan  # ||g||_* = alpha ||xi - grad Theta(x)||_* at the returned x
    initial_grad_norm: float = np.nan
    backtracks: int = 0
    objective: float = np.nan
    residual: float = np.nan  # ||F(x) - y|| at the returned x
    theta: float = np.nan  # Theta(x) at the returned x


def objective(p: InnerProblem, x: GridFn) -> tuple[float, np.ndarray, float]:
    """The subproblem functional at x, the residual res = F(x) - y, and Theta(x)."""
    res = p.op.apply(x).values - p.ydelta.values
    theta_x = p.theta_prev if x is p.x_prev else penalties.value(p.theta, x)
    bregman = (theta_x - p.theta_prev  # - <xi_prev, x - x_prev>
               - float((x.space.weights * p.xi_prev.values * (x.values - p.x_prev.values)).sum()))
    return values_norm(p.ydelta.space, res) ** p.r / p.r + p.alpha * bregman, res, theta_x


def grad_objective(p: InnerProblem, x: GridFn, res: np.ndarray,
                   adjoint) -> tuple[np.ndarray, np.ndarray]:
    """Gradient in the dual representation, given res = F(x) - y and the adjoint map of
    `ForwardOp.linearized` at x: F'(x)* J_r(res) + alpha * (grad Theta(x) - xi_prev);
    and its data term adj = F'(x)* J_r(res)."""
    adj = GridFn(x.space, adjoint(duality_values(p.ydelta.space, res, p.r)), DUAL).values
    return adj + p.alpha * (penalties.gradient(p.theta, x).values - p.xi_prev.values), adj


def is_linear_quadratic(p: InnerProblem) -> bool:
    return (p.op.is_linear and p.theta.a == p.theta.b == 0.0 and p.r == 2.0
            and p.x_prev.space.exponent == p.ydelta.space.exponent == 2.0)


def _penalty_hessian(p: InnerProblem, x: GridFn, cell: np.ndarray | None, diag: np.ndarray):
    """``alpha P`` at x as a matvec, and its inverse, given its diagonal part
    ``diag = alpha * pointwise_hessian``.

    With TV, P is the banded TV term plus a diagonal, positive definite for
    mu > 0 and |cell| < 1, and is factored by banded Cholesky.  Without TV it
    is diagonal, so its inverse is a division.
    """
    if p.theta.b > 0.0:
        tv, band = penalties.tv_hessian(p.theta, x, cell)
        band *= p.alpha
        band[-1] += diag
        return (lambda v: diag * v + p.alpha * (tv @ v)), banded_cholesky(band)
    return (lambda v: diag * v), (lambda v: v / diag)


def _newton_direction(p: InnerProblem, x: GridFn, maps, res: np.ndarray, g: np.ndarray,
                      cell: np.ndarray | None, rtol: float) -> tuple[np.ndarray, int]:
    """The direction by CG on ``W F'* J_r'(res) F' + alpha P`` with right-hand side ``-W g``,
    F' and F'* the maps of `ForwardOp.linearized` at x, preconditioned without TV by
    `ForwardOp.newton_inverse` if not None; and CG's iterations.

    ``J_r'(u) h = ||u||^(r-2) (h + (r-2) <u, h> u / ||u||^2)`` is the
    derivative of the duality mapping on a p = 2 space; it is symmetric
    positive definite for every r > 1, so the matrix is too.  For p != 2 it is
    a Gauss–Newton model, and the line search keeps descent.
    """
    w, rw = x.space.weights, p.ydelta.space.weights
    rn = values_norm(p.ydelta.space, res)
    scale = rn ** (p.r - 2.0) if rn > 0.0 else float(p.r == 2.0)
    rank1 = (p.r - 2.0) / rn**2 if rn > 0.0 else 0.0
    diag = p.alpha * penalties.pointwise_hessian(p.theta, x)
    apply_hess, precondition = _penalty_hessian(p, x, cell, diag)
    if p.theta.b == 0.0:
        precondition = p.op.newton_inverse(x, diag, scale, rank1, res) or precondition
    deriv, adjoint = maps

    def matvec(v):
        fv = deriv(v)
        jv = scale * (fv + rank1 * (rw * res * fv).sum() * res)
        return w * adjoint(jv) + apply_hess(v)

    return _cg(matvec, precondition, -w * g, rtol)


def _cg(matvec, precondition, b: np.ndarray, rtol: float) -> tuple[np.ndarray, int]:
    """Preconditioned CG for ``A x = b`` from x = 0, and its iteration count: the
    updates, order, names and stops (``||r|| < rtol ||b||``, 10 n iterations) of scipy
    1.17's ``cg``, and a stop at the first non-finite ``alpha``, with that step taken."""
    x, r, bnorm = np.zeros_like(b), b.copy(), math.sqrt(b.dot(b))
    if bnorm == 0.0:
        return x, 0
    for k in range(10 * b.size):
        if math.sqrt(r.dot(r)) < rtol * bnorm:
            return x, k
        z = precondition(r)
        rho = r.dot(z)
        p = z if k == 0 else (rho / rho_prev) * p + z
        q = matvec(p)
        alpha = rho / p.dot(q)
        x += alpha * p
        if not math.isfinite(alpha):
            return x, k + 1
        r -= alpha * q
        rho_prev = rho
    return x, 10 * b.size


def minimize(p: InnerProblem,
             s: InnerSettings = InnerSettings()) -> tuple[GridFn, GridFn, InnerStats]:
    """Truncated Gauss–Newton–CG with Armijo backtracking from x_prev; monotone
    in the objective.

    Stops once the dual norm of the gradient drops below
    ``grad_tol_rel * max(1, initial gradient norm)`` or the iteration cap is
    reached, or an accepted step no longer lowers the objective (Armijo's test
    passes a decrease below f's rounding; such a step is not taken).  A failed line search
    returns the best iterate with a flag.  Returns x, the dual update
    ``xi = xi_prev - (1/alpha) F'(x)* J_r(F(x) - y)`` taken from the last
    gradient evaluation at x, and the statistics.
    """
    x, space, stats = p.x_prev, p.x_prev.space, InnerStats()
    f_cur, res, theta_cur = objective(p, x)
    maps = p.op.linearized(x)
    g, adj = grad_objective(p, x, res, maps[1])
    gn = stats.initial_grad_norm = values_norm(space, g, DUAL)
    g0 = max(1.0, gn)
    tol = s.grad_tol_rel * g0
    exact = is_linear_quadratic(p)
    cell = None  # TV dual field; None is d/m at x

    for k in range(s.max_iters):
        if gn <= tol:
            break
        # Eisenstat–Walker, safeguarded: no tighter than the stop at tol can use
        rtol = EXACT_RTOL if exact else min(0.5, max(math.sqrt(gn / g0), SAFEGUARD * tol / gn))
        d, cg_iterations = _newton_direction(p, x, maps, res, g, cell, rtol)
        stats.cg_iterations += cg_iterations
        slope = float((space.weights * g * d).sum())
        t = 1.0
        for _bt in range(MAX_BACKTRACKS):
            trial = GridFn(space, x.values + t * d, PRIMAL)
            try:
                f_trial, res_trial, theta_trial = objective(p, trial)
            except OperatorError:
                f_trial = np.nan
            if np.isfinite(f_trial) and f_trial <= f_cur + ARMIJO * t * slope:
                break
            t *= BACKTRACK
            stats.backtracks += 1
        else:
            stats.line_search_failed = True
            break
        if f_trial >= f_cur:
            break  # not taken: x is unchanged, so the next step would repeat it
        if p.theta.b > 0.0:
            cell = penalties.tv_field_step(p.theta, x, cell, trial - x)
        x, f_cur, res, theta_cur = trial, f_trial, res_trial, theta_trial
        maps = p.op.linearized(x)
        g, adj = grad_objective(p, x, res, maps[1])
        gn = values_norm(space, g, DUAL)
        stats.iterations = k + 1
    stats.converged = gn <= tol
    stats.grad_norm = gn
    stats.objective = f_cur
    stats.residual = values_norm(p.ydelta.space, res)
    stats.theta = theta_cur
    return x, GridFn(space, p.xi_prev.values - (1.0 / p.alpha) * adj, DUAL), stats

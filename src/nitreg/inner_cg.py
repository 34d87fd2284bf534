"""Inner minimization of the per-step Tikhonov functional.

Each outer step minimizes ``(1/r) ||F(x) - y||^r + alpha * D_xi Theta(x, x_prev)``
by truncated Gauss–Newton–CG with Armijo backtracking.  Each Newton system
``(F'(x)* J_r'(res) F'(x) + alpha W^-1 P(x)) h = -g``, with W the quadrature
weights and P the penalty Hessian, is solved in the quadrature-weighted inner
product.  P is a diagonal, held as one vector (`penalties.Evaluation.pointwise_hessian`), plus
with TV (b > 0) the TV term, as CSR for the matvec and as its upper band (`tv_hessian`).
Without TV, where the operator has an exact inverse of the Newton matrix
(`ForwardOp.newton_inverse`; `IntegralOp` factors a pentadiagonal band), the direction is
that inverse applied to -W g, with no CG: CG's first iterate from it is the same direction
rescaled by 1 to rounding, and its matvec could only confirm it.  Otherwise CG solves the
system, preconditioned with TV by alpha P, that band plus the diagonal, factored by banded
Cholesky (LAPACK ``pbtrf``), and without TV by alpha P, a division.  CG stops at the
Eisenstat–Walker relative residual ``min(0.5, sqrt(||g|| / max(1, ||g_0||)))``,
safeguarded from below by ``0.5 tol / ||g||``: a direction is solved no more tightly than
the inner stop ``||g|| <= tol`` can use (Eisenstat & Walker, SIAM J. Sci. Comput. 17 (1996)
16–32; Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM
1995, ch. 6).  When the subproblem is linear-quadratic (F linear, a = b = 0,
r = p = 2), CG runs, preconditioned by the exact inverse if there is one, to 1e-13,
so that one Newton step solves it.  For TV, P uses the dual field of Chan, Golub &
Mulet, d/m at x_prev, then updated after each accepted step.  CG is this module's own
loop, `_cg`.

Each point is evaluated once (`objective`): one `ForwardOp.linearized` call gives F(x) and
the maps of F'(x), one `penalties.Evaluation` gives Theta(x) and what its gradient and
Hessian read, and ||F(x) - y|| serves the functional, J_r and the J_r' model
(`spaces.DualityDerivative`).  The accepted trial's evaluation serves the gradient, whose
data term F'(x)* J_r(F(x) - y) also gives the returned dual update xi_n, and the Newton
step; nothing is carried across subproblems.  F(x), residuals, gradients and directions
are nodal arrays; a trial point and the data term are grid functions, which refuse
non-finite values.  A trial where the operator fails, or where F(x) or the functional is
not finite, is rejected.  A solve stops when an accepted step no longer lowers the
objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import penalties
from .operators import ForwardOp, OperatorError, banded_cholesky
from .penalties import Penalty
from .spaces import DUAL, PRIMAL, DualityDerivative, GridFn, duality_values, values_norm

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
    theta_prev: penalties.Evaluation = field(init=False)  # Theta at x_prev, for the subproblem

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
        object.__setattr__(self, "theta_prev", penalties.Evaluation(self.theta, self.x_prev))


@dataclass(frozen=True)
class InnerSettings:
    grad_tol_rel: float = 1e-8
    max_iters: int = 2000  # Newton iterations

    def __post_init__(self):
        if not (0.0 < self.grad_tol_rel < math.inf and 1 <= self.max_iters < math.inf):
            raise ValueError("grad_tol_rel and max_iters must be positive")


@dataclass
class InnerStats:
    iterations: int = 0
    cg_iterations: int = 0  # summed over the Newton directions
    converged: bool = False
    line_search_failed: bool = False
    grad_norm: float = np.nan  # ||g||_* = alpha ||xi - grad Theta(x)||_* at the returned x
    backtracks: int = 0
    residual: float = np.nan  # ||F(x) - y|| at the returned x
    theta: float = np.nan  # Theta(x) at the returned x


class Point(NamedTuple):
    """The subproblem at one point x, evaluated once (`objective`)."""

    x: GridFn
    f: float  # the functional
    res: np.ndarray  # F(x) - y
    res_norm: float  # ||F(x) - y||
    theta: penalties.Evaluation  # Theta at x
    deriv: Callable  # h -> F'(x) h
    adjoint: Callable  # w -> F'(x)* w


def objective(p: InnerProblem, x: GridFn) -> Point:
    """The subproblem functional at x, with F(x), its linearization and Theta at x, each
    evaluated once; at x_prev Theta is the subproblem's own.  A non-finite F(x) gives a
    non-finite functional."""
    fx, deriv, adjoint = p.op.linearized(x)
    res = fx - p.ydelta.values
    res_norm = values_norm(p.ydelta.space, res)
    theta = p.theta_prev if x is p.x_prev else penalties.Evaluation(p.theta, x)
    bregman = (theta.value - p.theta_prev.value  # - <xi_prev, x - x_prev>
               - float(p.xi_prev.values.dot(x.space.weights * (x.values - p.x_prev.values))))
    return Point(x, res_norm ** p.r / p.r + p.alpha * bregman, res, res_norm, theta, deriv,
                 adjoint)


def grad_objective(p: InnerProblem, at: Point) -> tuple[np.ndarray, np.ndarray]:
    """Gradient in the dual representation at an evaluated point:
    F'(x)* J_r(F(x) - y) + alpha * (grad Theta(x) - xi_prev); and its data term
    adj = F'(x)* J_r(F(x) - y), a grid function's values, so checked finite."""
    j = duality_values(p.ydelta.space, at.res, p.r, at.res_norm)
    adj = GridFn(at.x.space, at.adjoint(j), DUAL).values
    return adj + p.alpha * (at.theta.gradient() - p.xi_prev.values), adj


def is_linear_quadratic(p: InnerProblem) -> bool:
    return (p.op.is_linear and p.theta.a == p.theta.b == 0.0 and p.r == 2.0
            and p.x_prev.space.exponent == p.ydelta.space.exponent == 2.0)


def _penalty_hessian(p: InnerProblem, theta: penalties.Evaluation, cell: np.ndarray | None,
                     diag: np.ndarray):
    """``alpha P`` at Theta's evaluated point as a matvec, and its inverse, given its diagonal
    part ``diag = alpha * pointwise_hessian``.  With TV, P is the banded TV term plus that
    diagonal, positive definite for mu > 0 and |cell| < 1, and is factored by banded Cholesky;
    without TV its inverse is a division."""
    if p.theta.b > 0.0:
        tv, band = theta.tv_hessian(cell)
        return (lambda v: diag * v + p.alpha * (tv @ v)), banded_cholesky(p.alpha * band, diag)
    return (lambda v: diag * v), (lambda v: v / diag)


def _newton_direction(p: InnerProblem, at: Point, g: np.ndarray, cell: np.ndarray | None,
                      rtol: float, exact: bool) -> tuple[np.ndarray, int]:
    """The solution of ``(W F'* J_r'(res) F' + alpha P) d = -W g`` at an evaluated point, J_r'
    its `spaces.DualityDerivative` model, by the route of the module docstring (`exact` on a
    linear-quadratic subproblem), and CG's iterations; ``cell`` is the TV dual field, None
    without TV.  For p != 2 the matrix is a Gauss–Newton model; the line search keeps descent."""
    w = at.x.space.weights
    model = DualityDerivative(p.ydelta.space, at.res, at.res_norm, p.r)
    diag = p.alpha * at.theta.pointwise_hessian()
    inverse = p.op.newton_inverse(diag, model) if p.theta.b == 0.0 else None
    if inverse is not None and not exact:
        return inverse(-w * g), 0  # CG's first iterate: this, rescaled by 1 to rounding
    apply_hess, precondition = _penalty_hessian(p, at.theta, cell, diag)

    def matvec(v):
        return w * at.adjoint(model(at.deriv(v))) + apply_hess(v)

    return _cg(matvec, inverse or precondition, -w * g, rtol)


def _cg(matvec, precondition, b: np.ndarray, rtol: float) -> tuple[np.ndarray, int]:
    """Preconditioned CG for ``A x = b`` from x = 0, and its iteration count: the
    updates, order, names and stops (``||r|| < rtol ||b||``, 10 n iterations) of scipy
    1.17's ``cg``, and a stop at the first non-finite ``alpha``, with that step taken.
    scipy's ``cg`` over `LinearOperator`s gives the same iterates, but its set-up on every
    call (the operators and ``make_system``) costs more than the few iterations of a Newton
    direction: it is slower on each paper run that runs CG (every one but ex. 5.1 l2_l1)."""
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
    """Truncated Gauss–Newton–CG with Armijo backtracking from x_prev; monotone in the
    objective.  Stops once the dual norm of the gradient drops below ``grad_tol_rel * max(1,
    initial gradient norm)``, at the iteration cap, or when an accepted step no longer lowers
    the objective (Armijo's test passes a decrease below f's rounding; such a step is not
    taken).  A failed line search returns the best iterate with a flag.  Returns x, the dual
    update ``xi = xi_prev - (1/alpha) F'(x)* J_r(F(x) - y)`` from the evaluation at x, and
    the statistics."""
    space, stats = p.x_prev.space, InnerStats()
    cur = objective(p, p.x_prev)
    g, adj = grad_objective(p, cur)
    gn = values_norm(space, g, DUAL)
    g0 = max(1.0, gn)
    tol = s.grad_tol_rel * g0
    exact = is_linear_quadratic(p)
    cell = cur.theta.cells[1] / cur.theta.cells[2] if p.theta.b > 0.0 else None  # TV field

    for k in range(s.max_iters):
        if gn <= tol:
            break
        # Eisenstat–Walker, safeguarded: no tighter than the stop at tol can use
        rtol = EXACT_RTOL if exact else min(0.5, max(math.sqrt(gn / g0), SAFEGUARD * tol / gn))
        d, cg_iterations = _newton_direction(p, cur, g, cell, rtol, exact)
        stats.cg_iterations += cg_iterations
        slope = float(g.dot(space.weights * d))
        t = 1.0
        for _bt in range(MAX_BACKTRACKS):
            try:
                trial = objective(p, GridFn(space, cur.x.values + t * d, PRIMAL))
            except OperatorError:
                trial = None  # F is not defined there
            if trial is not None and math.isfinite(trial.f) and (
                    trial.f <= cur.f + ARMIJO * t * slope):
                break
            t *= BACKTRACK
            stats.backtracks += 1
        else:
            stats.line_search_failed = True
            break
        if trial.f >= cur.f:
            break  # not taken: x is unchanged, so the next step would repeat it
        if p.theta.b > 0.0:
            cell = cur.theta.tv_field_step(cell, trial.x.values - cur.x.values)
        cur = trial
        g, adj = grad_objective(p, cur)
        gn = values_norm(space, g, DUAL)
        stats.iterations = k + 1
    stats.converged, stats.grad_norm = gn <= tol, gn
    stats.residual, stats.theta = cur.res_norm, cur.theta.value
    return cur.x, GridFn(space, p.xi_prev.values - (1.0 / p.alpha) * adj, DUAL), stats

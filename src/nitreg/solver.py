"""Outer iteration: the geometric alpha schedule, primal inner solve, dual update,
discrepancy-principle stopping (plain and max-index variant), diagnostics."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import inner_cg, penalties
from .inner_cg import InnerProblem, InnerSettings, InnerStats
from .operators import ForwardOp
from .penalties import Penalty
from .spaces import DUAL, GridFn, norm, pairing, zeros


@dataclass(frozen=True)
class AlphaSchedule:
    """The geometric sequence alpha_n = alpha1 * q^(n-1): sum(1/alpha_n) = inf, and
    alpha_n <= c0 * alpha_{n+1} with the bounded ratio c0 = 1/q."""

    alpha1: float = 0.5
    q: float = 0.5  # ratio, in (0, 1]

    def __post_init__(self):
        if not 0.0 < self.alpha1 < math.inf:
            raise ValueError("alpha1 must be > 0 and finite")
        if not 0.0 < self.q <= 1.0:
            raise ValueError("ratio q must be in (0, 1]")

    def alpha(self, n: int) -> float:
        if n < 1:
            raise ValueError("alpha is defined for n >= 1")
        return self.alpha1 * self.q ** (n - 1)


@dataclass(frozen=True)
class StoppingRule:
    kind: str = "discrepancy"  # discrepancy | rule41
    tau: float = 1.02
    max_outer: int = 200
    atol_zero: float = 1e-10  # residual target for exact data (delta = 0)

    def __post_init__(self):
        if self.kind not in ("discrepancy", "rule41"):
            raise ValueError(f"unknown stopping kind {self.kind!r}")
        if not 1.0 < self.tau < math.inf:
            raise ValueError("tau must be > 1")
        if not 1 <= self.max_outer < math.inf:
            raise ValueError("max_outer must be >= 1")
        if not 0.0 < self.atol_zero < math.inf:
            raise ValueError("atol_zero must be > 0")


@dataclass
class NitState:
    n: int
    x: GridFn
    xi: GridFn
    residual: float
    alpha: float | None = None
    inner_stats: InnerStats | None = None
    dual_gap: float = np.nan  # ||xi_n - grad Theta(x_n)||_* = ||g_n||_* / alpha_n (diagnostic)
    theta_value: float = np.nan


@dataclass
class RunReport:
    states: list[NitState]
    n_delta: int
    terminated_by: str  # discrepancy | rule41 | max_outer | inner_failure | stagnation
    x_out: GridFn
    delta: float
    tau: float
    threshold: float
    config: dict = field(default_factory=dict)

    @property
    def residuals(self) -> np.ndarray:
        return np.array([s.residual for s in self.states])


def step(
    op: ForwardOp,
    theta: Penalty,
    ydelta: GridFn,
    alpha_n: float,
    prev: NitState,
    settings: InnerSettings = InnerSettings(),
    r: float = InnerProblem.r,
) -> NitState:
    """One outer step: inner minimization plus the dual update
    xi_n = xi_{n-1} - (1/alpha_n) F'(x_n)* J_r(F(x_n) - ydelta).

    The subproblem is minimized by Newton–CG warm-started at x_{n-1}, which
    returns xi_n, Theta(x_n) and the dual gap from its last evaluations at x_n:
    xi_n - grad Theta(x_n) = -g_n / alpha_n for the subproblem gradient g_n that the
    inner solve stops on, so the dual gap is the number its stopping test bounds, and the
    step evaluates neither the penalty nor its gradient."""
    problem = InnerProblem(op, ydelta, theta, alpha_n, prev.x, prev.xi, r)
    x_n, xi_n, stats = inner_cg.minimize(problem, settings)
    return NitState(
        n=prev.n + 1,
        x=x_n,
        xi=xi_n,
        residual=stats.residual,
        alpha=alpha_n,
        inner_stats=stats,
        dual_gap=stats.grad_norm / alpha_n,
        theta_value=stats.theta,
    )


def _initial_state(op, theta, ydelta):
    """x_0 = 0 and xi_0 = grad Theta(x_0), so the dual gap starts at zero."""
    x0 = zeros(op.domain_space)
    at = penalties.Evaluation(theta, x0)
    return NitState(
        n=0, x=x0, xi=GridFn(x0.space, at.gradient(), DUAL),
        residual=norm(op.apply(x0) - ydelta), dual_gap=0.0, theta_value=at.value,
    )


def run(
    op: ForwardOp,
    theta: Penalty,
    ydelta: GridFn,
    delta: float,
    schedule: AlphaSchedule,
    stop: StoppingRule,
    settings: InnerSettings = InnerSettings(),
    r: float = InnerProblem.r,
    config: dict | None = None,
) -> RunReport:
    """Run the outer iteration until the stopping rule fires.

    With the plain discrepancy rule the first iterate with residual <= tau*delta
    is returned.  With the max-index variant the iteration runs until the
    residual first drops strictly below tau*delta and the previous iterate is
    returned (index 0 if already below at the start).  For delta = 0 the
    threshold falls back to `atol_zero`.  A run ends as `inner_failure` when an inner
    solve fails its line search before its first step, and as `stagnation` when no later
    step can move x; these and `max_outer` return the iterate of smallest residual.
    `stagnation` ends a run whose threshold the residual cannot reach, such as exact data:
    running on would only grow xi_n like 1/alpha_n, until its norm overflows.
    """
    if not 0.0 <= delta < math.inf:
        raise ValueError("delta must be >= 0 and finite")
    threshold = stop.tau * delta if delta > 0.0 else stop.atol_zero
    states = [_initial_state(op, theta, ydelta)]

    rule41 = stop.kind == "rule41"
    crossed = operator.lt if rule41 else operator.le
    terminated_by = "max_outer"
    n_delta = None
    if states[0].residual <= threshold:
        terminated_by, n_delta = stop.kind, 0
    else:
        for n in range(1, stop.max_outer + 1):
            prev = states[-1]
            cur = step(op, theta, ydelta, schedule.alpha(n), prev, settings, r)
            states.append(cur)
            if crossed(cur.residual, threshold):
                terminated_by, n_delta = stop.kind, (n - 1 if rule41 else n)
                break
            if cur.inner_stats.line_search_failed and cur.inner_stats.iterations == 0:
                terminated_by = "inner_failure"
                break
            # No Newton step from x_{n-1}.  While x stays, later subproblem gradients lie
            # between g_n and adj / (1 - q), adj = alpha_n (xi_{n-1} - xi_n): none moves x.
            if (cur.inner_stats.converged and cur.inner_stats.iterations == 0 and norm(
                    cur.alpha * (prev.xi - cur.xi)) <= settings.grad_tol_rel * (1.0 - schedule.q)):
                terminated_by = "stagnation"
                break
    if n_delta is None:
        n_delta = int(np.argmin([s.residual for s in states]))

    return RunReport(
        states=states,
        n_delta=n_delta,
        terminated_by=terminated_by,
        x_out=states[n_delta].x,
        delta=delta,
        tau=stop.tau,
        threshold=threshold,
        config=dict(config or {}),
    )


def diagnostics_bregman(report: RunReport, theta: Penalty, x_ref: GridFn) -> np.ndarray:
    """Series D_{xi_n} Theta(x_ref, x_n) = Theta(x_ref) - Theta(x_n) - <xi_n, x_ref - x_n>
    along the stored trajectory, with Theta(x_ref) evaluated once and Theta(x_n) each state's
    `theta_value`."""
    ref = penalties.Evaluation(theta, x_ref).value
    return np.array([ref - s.theta_value - pairing(s.xi, x_ref - s.x) for s in report.states])

"""Outer iteration: alpha schedules, primal inner solve, dual update,
discrepancy-principle stopping (plain and max-index variant), diagnostics."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from . import inner_cg, penalties
from .inner_cg import InnerProblem, InnerSettings, InnerStats
from .operators import ForwardOp
from .penalties import Penalty
from .spaces import GridFn, norm, zeros


@dataclass(frozen=True)
class AlphaSchedule:
    """Regularization-parameter sequence; all kinds satisfy
    sum(1/alpha_n) = inf and the bounded-ratio condition alpha_n <= c0 * alpha_{n+1}."""

    kind: str = "geometric"  # geometric | harmonic
    alpha1: float = 0.5
    q: float = 0.5  # geometric ratio, in (0, 1]; alpha_n = alpha1 * q^(n-1)

    def __post_init__(self):
        if self.kind not in ("geometric", "harmonic"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.alpha1 <= 0.0:
            raise ValueError("alpha1 must be > 0")
        if self.kind == "geometric" and not (0.0 < self.q <= 1.0):
            raise ValueError("geometric ratio q must be in (0, 1]")

    def alpha(self, n: int) -> float:
        if n < 1:
            raise ValueError("alpha is defined for n >= 1")
        if self.kind == "geometric":
            return self.alpha1 * self.q ** (n - 1)
        return self.alpha1 / n

    @property
    def c0(self) -> float:
        if self.kind == "geometric":
            return 1.0 / self.q
        return 2.0


@dataclass(frozen=True)
class StoppingRule:
    kind: str = "discrepancy"  # discrepancy | rule41
    tau: float = 1.02
    max_outer: int = 200
    atol_zero: float = 1e-10  # residual target for exact data (delta = 0)

    def __post_init__(self):
        if self.kind not in ("discrepancy", "rule41"):
            raise ValueError(f"unknown stopping kind {self.kind!r}")
        if self.tau <= 1.0:
            raise ValueError("tau must be > 1")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


@dataclass
class NitState:
    n: int
    x: GridFn
    xi: GridFn
    residual: float
    alpha: float | None = None
    inner_stats: InnerStats | None = None
    dual_gap: float = np.nan  # ||xi_n - grad Theta(x_n)||_* (diagnostic)
    theta_value: float = np.nan


@dataclass
class RunReport:
    states: list[NitState]
    n_delta: int
    terminated_by: str  # discrepancy | rule41 | max_outer
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
    settings: InnerSettings | None = None,
    r: float = InnerProblem.r,
) -> NitState:
    """One outer step: inner minimization plus the dual update
    xi_n = xi_{n-1} - (1/alpha_n) F'(x_n)* J_r(F(x_n) - ydelta).

    The subproblem is minimized by Newton–CG warm-started at x_{n-1}, which
    returns xi_n from its last gradient evaluation at x_n."""
    problem = InnerProblem(op, ydelta, theta, alpha_n, prev.x, prev.xi, r)
    x_n, xi_n, stats = inner_cg.minimize(problem, settings)
    return NitState(
        n=prev.n + 1,
        x=x_n,
        xi=xi_n,
        residual=stats.residual,
        alpha=alpha_n,
        inner_stats=stats,
        dual_gap=norm(xi_n - penalties.gradient(theta, x_n)),
        theta_value=penalties.value(theta, x_n),
    )


def _initial_state(op, theta, ydelta):
    """x_0 = 0 and xi_0 = grad Theta(x_0), so the dual gap starts at zero."""
    x0 = zeros(op.domain_space)
    return NitState(
        n=0, x=x0, xi=penalties.gradient(theta, x0),
        residual=norm(op.apply(x0) - ydelta), dual_gap=0.0,
        theta_value=penalties.value(theta, x0),
    )


def run(
    op: ForwardOp,
    theta: Penalty,
    ydelta: GridFn,
    delta: float,
    schedule: AlphaSchedule,
    stop: StoppingRule,
    settings: InnerSettings | None = None,
    r: float = InnerProblem.r,
    config: dict | None = None,
) -> RunReport:
    """Run the outer iteration until the stopping rule fires.

    With the plain discrepancy rule the first iterate with residual <= tau*delta
    is returned.  With the max-index variant the iteration runs until the
    residual first drops strictly below tau*delta and the previous iterate is
    returned (index 0 if already below at the start).  For delta = 0 the
    threshold falls back to `atol_zero`.
    """
    if delta < 0.0:
        raise ValueError("delta must be >= 0")
    threshold = stop.tau * delta if delta > 0.0 else stop.atol_zero
    states = [_initial_state(op, theta, ydelta)]

    rule41 = stop.kind == "rule41"
    crossed = operator.lt if rule41 else operator.le
    terminated_by = "max_outer"
    n_delta = 0
    if states[0].residual <= threshold:
        terminated_by = stop.kind
    else:
        for n in range(1, stop.max_outer + 1):
            states.append(
                step(op, theta, ydelta, schedule.alpha(n), states[-1], settings, r)
            )
            if crossed(states[-1].residual, threshold):
                terminated_by = stop.kind
                n_delta = n - 1 if rule41 else n
                break
        else:
            n_delta = int(np.argmin([s.residual for s in states]))

    report = RunReport(
        states=states,
        n_delta=n_delta,
        terminated_by=terminated_by,
        x_out=states[n_delta].x,
        delta=delta,
        tau=stop.tau,
        threshold=threshold,
        config=dict(config or {}),
    )
    return report


def diagnostics_bregman(report: RunReport, theta: Penalty, x_ref: GridFn) -> np.ndarray:
    """Series D_{xi_n} Theta(x_ref, x_n) along the stored trajectory."""
    return np.array(
        [penalties.bregman(theta, x_ref, s.x, s.xi) for s in report.states]
    )

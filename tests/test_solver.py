import functools

import numpy as np
import pytest
from conftest import CountingIntegralOp, PenaltyPreconditionedIntegralOp
from scipy.optimize import minimize

from nitreg import harness, inner_cg, operators, penalties, solver, spaces
from nitreg.inner_cg import InnerProblem, InnerSettings
from nitreg.operators import IntegralOp
from nitreg.penalties import Penalty
from nitreg.solver import (
    AlphaSchedule,
    RunReport,
    StoppingRule,
    diagnostics_bregman,
    run,
    step,
)
from nitreg.spaces import GridFn, GridSpace, duality_map, norm


def small_problem(n=80, delta=1e-3, seed=0):
    """Linear test problem with exact-magnitude noise."""
    op = IntegralOp(n)
    t = op.domain_space.axis_nodes(0)
    x_dagger = GridFn(op.domain_space, np.sin(np.pi * t) + 0.5 * np.sin(3 * np.pi * t))
    y = op.apply(x_dagger)
    ydelta = harness.add_noise(y, delta, seed)
    return op, x_dagger, y, ydelta


class NegatedAdjointOp(IntegralOp):
    """Integral operator with a wrong-signed adjoint map in its linearization."""

    def linearized(self, x):
        fx, deriv, adjoint = super().linearized(x)
        return fx, deriv, lambda w: -1.0 * adjoint(w)


def spikes_start(op):
    """Smoothed-L1 penalty, spikes data at delta 5e-4 (seed 1), initial state."""
    theta = Penalty(mu=0.01, a=1.0)
    ydelta = harness.add_noise(op.apply(harness.spikes_1d(op.domain_space)), 5e-4, 1)
    return theta, ydelta, solver._initial_state(op, theta, ydelta)


def small_paper_run(penalty):
    """The config, operator and noisy data of a paper run on a small grid:
    example 5.1 with the smoothed-L1 penalty (n = 80), or example 5.2 with TV,
    mu = 0.01 (10x10)."""
    if penalty == "l2_l1":
        cfg = harness.example51_config("l2_l1", {("problem", "n"): 80})
    else:
        cfg = harness.example52_config("l2_tv", 0.01, {("problem", "nx"): 10,
                                                      ("problem", "ny"): 10})
    op, _x_dagger, y = harness.make_problem(cfg)
    return cfg, op, harness.add_noise(y, cfg.noise.delta, cfg.noise.seed)


def assert_reports_the_iterate(out, theta):
    """Theta(x_n) and the dual gap ||xi_n - grad Theta(x_n)||_* of a step, taken
    from the inner solve, match their definitions at the returned x_n."""
    gap = norm(out.xi - penalties.gradient(theta, out.x))
    assert out.dual_gap == pytest.approx(gap, rel=1e-6, abs=1e-12 * max(1.0, norm(out.xi)))
    assert out.theta_value == penalties.value(theta, out.x)


GEOM = AlphaSchedule(alpha1=0.5, q=0.5)


class TestAlphaSchedule:
    def test_geometric_powers_of_two(self):
        # alpha_n = 2^-n realized as a geometric schedule
        for n in range(1, 8):
            assert GEOM.alpha(n) == pytest.approx(2.0 ** (-n))

    def test_constant(self):
        # a constant schedule is the geometric one with q = 1
        s = AlphaSchedule(alpha1=0.7, q=1.0)
        assert [s.alpha(n) for n in (1, 5, 50)] == [0.7, 0.7, 0.7]

    def test_ratio_condition(self):
        # alpha_n <= c0 * alpha_{n+1} with c0 = 1/q
        for s, c0 in ((GEOM, 2.0), (AlphaSchedule(0.3, q=1.0), 1.0)):
            for n in range(1, 20):
                assert s.alpha(n) <= c0 * s.alpha(n + 1) + 1e-15

    def test_divergent_sum_of_inverses(self):
        # partial sums of 1/alpha_n grow without bound (checked far out)
        for s in (GEOM, AlphaSchedule(1.0, q=1.0)):
            partial = sum(1.0 / s.alpha(n) for n in range(1, 60))
            assert partial > 50.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AlphaSchedule(1.0, q=0.0)
        with pytest.raises(ValueError):
            AlphaSchedule(1.0, q=1.5)
        with pytest.raises(ValueError):
            GEOM.alpha(0)


class TestStoppingRule:
    def test_tau_must_exceed_one(self):
        with pytest.raises(ValueError):
            StoppingRule(tau=1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            StoppingRule(kind="oracle")


def _run_at_delta(delta):
    op, _xd, _y, ydelta = small_problem(n=10)
    run(op, Penalty(), ydelta, delta, GEOM, StoppingRule())


def _inner_problem(**kw):
    op, _xd, _y, ydelta = small_problem(n=10)
    x0 = spaces.zeros(op.domain_space)
    InnerProblem(op, ydelta, Penalty(), x_prev=x0, xi_prev=spaces.zeros(x0.space, spaces.DUAL),
                 **{"alpha": 1.0, **kw})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build", [
    lambda v: GridSpace((3,), v),
    lambda v: Penalty(mu=v),
    lambda v: Penalty(a=v),
    lambda v: Penalty(b=1.0, eps=v),
    lambda v: _inner_problem(alpha=v),
    lambda v: _inner_problem(r=v),
    lambda v: InnerSettings(grad_tol_rel=v),
    lambda v: AlphaSchedule(alpha1=v),
    lambda v: AlphaSchedule(q=v),
    lambda v: StoppingRule(tau=v),
    lambda v: StoppingRule(atol_zero=v),
    lambda v: _run_at_delta(v),
    lambda v: harness.add_noise(GridFn(GridSpace((3,)), np.ones(3)), v, 0),
    lambda v: harness.Problem(n=v),
    lambda v: harness.Problem(nx=v),
    lambda v: harness.Problem(ny=v),
    lambda v: harness.Noise(seed=v),
    lambda v: StoppingRule(max_outer=v),
    lambda v: InnerSettings(max_iters=v),
], ids=["space_exponent", "penalty_mu", "penalty_a", "penalty_eps", "inner_alpha", "inner_r",
        "grad_tol_rel", "alpha1", "q", "tau", "atol_zero", "run_delta", "noise_delta",
        "problem_n", "problem_nx", "problem_ny", "noise_seed", "max_outer", "max_iters"])
def test_non_finite_parameter_rejected(build, value):
    # `nan <= 0` is False: each range check must also fail NaN and +-inf, before
    # a non-finite value reaches a GridFn ("GridFn values must be finite") or, for
    # a count, a `range` or a grid shape (a TypeError, which no run handler catches)
    with pytest.raises(ValueError, match=r"must be (>|in |nonnegative|positive)"):
        build(value)


class TestStep:
    def test_zero_residual_leaves_xi_unchanged(self):
        # if y = F(x_prev) and xi_prev = grad Theta(x_prev) the inner solver
        # stays put and J_r(0) = 0 keeps the dual variable fixed
        op, x_dagger, y, _ = small_problem()
        theta = Penalty(mu=1.0)
        xi = penalties.gradient(theta, x_dagger)
        prev = solver.NitState(n=0, x=x_dagger, xi=xi, residual=0.0)
        out = step(op, theta, op.apply(x_dagger), 0.5, prev)
        assert out.residual <= 1e-10
        assert np.allclose(out.xi.values, xi.values, atol=1e-10)
        assert_reports_the_iterate(out, theta)

    def test_dual_update_formula(self):
        op, x_dagger, y, ydelta = small_problem()
        theta = Penalty(mu=1.0)
        prev = solver._initial_state(op, theta, ydelta)
        alpha = 0.25
        out = step(op, theta, ydelta, alpha, prev)
        res = op.apply(out.x) - ydelta
        expected = prev.xi - (1.0 / alpha) * op.adjoint(out.x, duality_map(res, 2.0))
        assert np.array_equal(out.xi.values, expected.values)
        assert out.residual == norm(res)

    def test_failed_line_search_reports_the_returned_iterate(self):
        # with a negated adjoint no Newton direction descends, so all 50
        # trials are finite and rejected; the residual and xi_n must still be
        # those of the returned x, not of the last rejected trial
        op = NegatedAdjointOp(80)
        theta, ydelta, prev = spikes_start(op)
        alpha = 0.05
        out = step(op, theta, ydelta, alpha, prev)
        assert out.inner_stats.line_search_failed
        res = op.apply(out.x) - ydelta
        assert out.residual == norm(res)
        expected = prev.xi - (1.0 / alpha) * op.adjoint(out.x, duality_map(res, 2.0))
        assert np.array_equal(out.xi.values, expected.values)
        assert_reports_the_iterate(out, theta)

    @pytest.mark.parametrize("penalty", ["l2_l1", "tv"])
    def test_reports_theta_and_dual_gap_of_the_iterate(self, penalty):
        # two steps, so that the second starts from xi_1 != grad Theta(x_1)
        cfg, op, ydelta = small_paper_run(penalty)
        state = solver._initial_state(op, cfg.theta, ydelta)
        for n in (1, 2):
            state = step(op, cfg.theta, ydelta, cfg.alpha_schedule.alpha(n), state,
                         cfg.inner, cfg.method.r)
            assert state.inner_stats.iterations > 0
            assert_reports_the_iterate(state, cfg.theta)
            # the reported gap is the one the inner stopping test bounds
            assert state.dual_gap == state.inner_stats.grad_norm / state.alpha

    def test_applies_operator_only_in_the_inner_solve(self):
        # the initial point, then one trial point per accepted step or backtrack
        op = CountingIntegralOp(80)
        theta, ydelta, prev = spikes_start(op)
        op.evaluations = 0
        stats = step(op, theta, ydelta, 0.05, prev).inner_stats
        assert op.evaluations == 1 + stats.iterations + stats.backtracks

    def test_dual_gap_small_at_optimality(self):
        # a linear-quadratic subproblem is one Newton step with CG at rtol
        # 1e-13, which makes xi_n equal grad Theta(x_n) up to roundoff
        op, _xd, _y, ydelta = small_problem()
        theta = Penalty(mu=1.0)
        prev = solver._initial_state(op, theta, ydelta)
        out = step(op, theta, ydelta, 0.5, prev)
        scale = max(1.0, norm(out.xi))
        assert out.dual_gap <= 1e-12 * scale


class TestRun:
    @pytest.mark.parametrize("penalty", ["l2_l1", "tv"])
    def test_evaluates_the_penalty_once_per_point(self, monkeypatch, penalty):
        # each outer step evaluates F (one `linearized` call) and Theta (one
        # `penalties.Evaluation`, with TV one `_cells`) at x_prev and at each trial point of
        # its inner solve, and nowhere else: the accepted trial's evaluation serves its
        # gradient and Newton step.  Outside the steps only x_0 is evaluated, F and Theta
        # once each: one evaluation gives Theta's value and gradient
        cfg, op, ydelta = small_paper_run(penalty)
        count = dict.fromkeys(["linearized", "evaluation", "cells"], 0)

        def counted(owner, name, key):
            function = getattr(owner, name)

            def wrapper(*args):
                count[key] += 1
                return function(*args)
            monkeypatch.setattr(owner, name, wrapper)

        counted(op, "linearized", "linearized")
        counted(penalties.Evaluation, "__init__", "evaluation")
        counted(penalties, "_cells", "cells")
        steps = []

        def recorded(*args):
            before = dict(count)
            state = step(*args)
            stats = state.inner_stats
            # a solve that ends on a step that no longer lowers f evaluated that trial too
            untaken = not (stats.converged or stats.line_search_failed
                           or stats.iterations == cfg.inner.max_iters)
            trials = stats.iterations + stats.backtracks + untaken
            steps.append(({k: count[k] - before[k] for k in count}, trials))
            return state

        monkeypatch.setattr(solver, "step", recorded)
        report = harness.solve(cfg, op, ydelta)
        assert report.terminated_by == "discrepancy" and report.n_delta > 1
        assert len(steps) == len(report.states) - 1
        tv = penalty == "tv"
        for counts, trials in steps:
            assert trials >= 1
            assert counts == {"linearized": 1 + trials, "evaluation": 1 + trials,
                              "cells": (1 + trials) * tv}
        outside = {"linearized": 1, "evaluation": 1, "cells": tv}
        assert count == {k: outside[k] + sum(c[k] for c, _trials in steps) for k in count}

    @pytest.mark.parametrize("penalty", ["l2_l1", "tv"])
    def test_bregman_series_evaluates_theta_once(self, monkeypatch, tmp_path, penalty):
        # the iteration CSV's D_{xi_n} Theta(x_ref, x_n) evaluates Theta at x_ref alone and
        # reads Theta(x_n) from each state, and equals the definition bit for bit
        cfg, op, ydelta = small_paper_run(penalty)
        _op, x_ref, _y = harness.make_problem(cfg)
        report = harness.solve(cfg, op, ydelta)
        evaluations = []
        evaluation = penalties.Evaluation.__init__

        def counted(self, theta, x):
            evaluations.append(x)
            evaluation(self, theta, x)
        monkeypatch.setattr(penalties.Evaluation, "__init__", counted)
        harness.write_iteration_csv(tmp_path / "iterations.csv", report, cfg.theta, x_ref)
        assert len(evaluations) == 1 and evaluations[0] is x_ref
        monkeypatch.undo()
        series = diagnostics_bregman(report, cfg.theta, x_ref)
        assert len(series) == len(report.states) > 2
        for s, d in zip(report.states, series):
            assert d == penalties.bregman(cfg.theta, x_ref, s.x, s.xi)

    def test_elliptic_subproblems_start_on_the_cached_factor(self, monkeypatch):
        # EllipticOp keeps the factor of the last point it evaluated, and each subproblem
        # starts at x_prev, the last accepted trial: so a quadratic solve factors once at
        # x_0 and once per trial point, never at a subproblem's start
        cfg = harness.example52_config(
            "quadratic", overrides={("problem", "nx"): 10, ("problem", "ny"): 10})
        op, _c_dagger, y = harness.make_problem(cfg)
        ydelta = harness.add_noise(y, cfg.noise.delta, cfg.noise.seed)
        calls = []
        for module in (operators, inner_cg):
            factor = module.banded_cholesky

            def counted(*args, factor=factor):
                calls.append(args[1].size)
                return factor(*args)
            monkeypatch.setattr(module, "banded_cholesky", counted)
        report = harness.solve(cfg, op, ydelta)
        assert report.terminated_by == "discrepancy" and report.n_delta > 1
        stats = [s.inner_stats for s in report.states[1:]]
        assert all(s.converged for s in stats)
        trials = sum(s.iterations + s.backtracks for s in stats)
        assert trials >= len(stats)
        assert len(calls) == trials + 1

    def test_discrepancy_terminates(self):
        op, x_dagger, y, ydelta = small_problem()
        report = run(
            op, Penalty(mu=1.0), ydelta, 1e-3, GEOM,
            StoppingRule(tau=1.05, max_outer=60),
        )
        assert report.terminated_by == "discrepancy"
        assert report.states[report.n_delta].residual <= report.threshold
        # every earlier residual is above the threshold
        for s in report.states[: report.n_delta]:
            assert s.residual > report.threshold

    def test_residual_monotone(self):
        op, _xd, _y, ydelta = small_problem()
        report = run(
            op, Penalty(mu=1.0), ydelta, 1e-3, GEOM,
            StoppingRule(tau=1.05, max_outer=60),
        )
        res = report.residuals
        assert np.all(np.diff(res) <= 1e-8)

    def test_bregman_to_solution_monotone(self):
        op, x_dagger, _y, ydelta = small_problem()
        theta = Penalty(mu=1.0)
        report = run(
            op, theta, ydelta, 1e-3, GEOM,
            StoppingRule(tau=1.05, max_outer=60),
        )
        d = diagnostics_bregman(report, theta, x_dagger)
        # strict decrease up to the step before the threshold crossing
        assert np.all(np.diff(d[: report.n_delta]) <= 1e-8)
        # the crossing step obeys D(n) <= D(n-1) + tau^(r-1) delta^r / alpha_n
        nd = report.n_delta
        slack = report.tau * report.delta**2 / report.states[nd].alpha
        assert d[nd] <= d[nd - 1] + slack + 1e-8

    def test_telescoped_dual_updates(self):
        # xi_n - xi_0 equals minus the sum of adjoint terms along the run
        op, _xd, _y, ydelta = small_problem()
        theta = Penalty(mu=1.0)
        report = run(
            op, theta, ydelta, 1e-3, GEOM,
            StoppingRule(tau=1.05, max_outer=60),
        )
        acc = report.states[0].xi
        for s in report.states[1:]:
            res = op.apply(s.x) - ydelta
            acc = acc - (1.0 / s.alpha) * op.adjoint(s.x, duality_map(res, 2.0))
        xi_last = report.states[-1].xi
        gap = norm(acc - xi_last)
        assert gap <= 1e-12 * max(1.0, norm(xi_last))

    def test_noise_free_residual_bound(self):
        # exact data: |F(x_n) - y|^r * sum_{j<=n} 1/alpha_j stays below
        # D_{xi_0} Theta(x_dagger, x_0)  (linear operator, eta = 0)
        op, x_dagger, y, _ = small_problem()
        theta = Penalty(mu=1.0)
        report = run(
            op, theta, y, 0.0, GEOM,
            StoppingRule(tau=1.05, max_outer=15, atol_zero=1e-14),
        )
        x0, xi0 = report.states[0].x, report.states[0].xi
        d0 = penalties.bregman(theta, x_dagger, x0, xi0)
        inv_sum = 0.0
        for s in report.states[1:]:
            inv_sum += 1.0 / s.alpha
            assert s.residual**2 * inv_sum <= d0 * (1.0 + 1e-8) + 1e-12

    def test_rule41_returns_previous_iterate(self):
        op, _xd, _y, ydelta = small_problem()
        theta = Penalty(mu=1.0)
        dp = run(op, theta, ydelta, 1e-3, GEOM,
                 StoppingRule("discrepancy", tau=1.05, max_outer=60))
        r41 = run(op, theta, ydelta, 1e-3, GEOM,
                  StoppingRule("rule41", tau=1.05, max_outer=60))
        # deterministic solver: trajectories agree where both exist
        for a, b in zip(dp.states, r41.states):
            assert np.array_equal(a.x.values, b.x.values)
        assert r41.terminated_by == "rule41"
        assert r41.n_delta == dp.n_delta - 1
        assert r41.states[r41.n_delta].residual >= r41.threshold
        assert r41.states[r41.n_delta + 1].residual < r41.threshold

    @pytest.mark.parametrize("kind", ["discrepancy", "rule41"])
    def test_already_below_threshold_at_start(self, kind):
        # x_0 = 0 has residual ||ydelta||, below tau * delta for delta = ||ydelta||
        op, _xd, _y, ydelta = small_problem()
        report = run(
            op, Penalty(mu=1.0), ydelta, norm(ydelta), GEOM,
            StoppingRule(kind, tau=1.05, max_outer=5),
        )
        assert report.terminated_by == kind
        assert report.n_delta == 0
        assert len(report.states) == 1

    @pytest.mark.parametrize("kind", ["discrepancy", "rule41"])
    def test_max_outer_fallback_returns_best_residual(self, kind):
        op, _xd, _y, ydelta = small_problem()
        report = run(
            op, Penalty(mu=1.0), ydelta, 1e-12, GEOM,
            StoppingRule(kind, tau=1.05, max_outer=5),
        )
        assert report.terminated_by == "max_outer"
        assert report.n_delta == int(np.argmin(report.residuals))

    def test_stalled_inner_solve_ends_the_run(self):
        # on L^1.2 with r = 1.2, step 2's line search fails without moving x;
        # the steps after it would not move x either, and their duals overflow.
        # Preconditioned by IntegralOp's Newton inverse, the same data end as
        # discrepancy instead, after 2,419 Newton iterations and with no inner
        # solve converged, so this route is kept on the penalty preconditioner
        op = PenaltyPreconditionedIntegralOp(400, 1.2)
        ydelta = harness.add_noise(op.apply(harness.spikes_1d(op.domain_space)), 5e-4, 1)
        report = run(op, Penalty(mu=0.01, a=1.0), ydelta, 5e-4, GEOM, StoppingRule(), r=1.2)
        assert report.terminated_by == "inner_failure"
        assert len(report.states) == 3
        last, prev = report.states[-1], report.states[-2]
        assert last.inner_stats.line_search_failed
        assert np.array_equal(last.x.values, prev.x.values)
        assert report.n_delta == int(np.argmin(report.residuals))

    def test_frozen_x_ends_the_run(self):
        # exact data: from step 6 each inner solve stops at x_{n-1} and no later
        # one can move x, while xi_n grows like 1/alpha_n until its norm overflows
        op = IntegralOp(80)
        y = op.apply(harness.spikes_1d(op.domain_space))
        report = run(op, Penalty(mu=0.01, a=1.0), y, 0.0, AlphaSchedule(q=0.01), StoppingRule())
        assert report.terminated_by == "stagnation"
        assert len(report.states) == 7
        last, prev = report.states[-1], report.states[-2]
        assert last.inner_stats.converged and last.inner_stats.iterations == 0
        assert np.array_equal(last.x.values, prev.x.values)
        assert report.n_delta == int(np.argmin(report.residuals)) == 5

    def test_negative_delta_rejected(self):
        op, _xd, _y, ydelta = small_problem()
        with pytest.raises(ValueError):
            run(op, Penalty(mu=1.0), ydelta, -1.0, GEOM, StoppingRule())

    def test_deterministic_trajectories(self):
        op, _xd, _y, ydelta = small_problem()
        theta = Penalty(mu=1.0, a=0.5, eps=1e-3)
        settings = InnerSettings(max_iters=200)
        kw = dict(settings=settings)
        r1 = run(op, theta, ydelta, 1e-3, GEOM, StoppingRule(tau=1.05, max_outer=8), **kw)
        r2 = run(op, theta, ydelta, 1e-3, GEOM, StoppingRule(tau=1.05, max_outer=8), **kw)
        for a, b in zip(r1.states, r2.states):
            assert np.array_equal(a.x.values, b.x.values)
            assert np.array_equal(a.xi.values, b.xi.values)

    def test_initial_state_defaults(self):
        op, _xd, _y, ydelta = small_problem()
        theta = Penalty(mu=2.0)
        st = solver._initial_state(op, theta, ydelta)
        assert np.all(st.x.values == 0.0)
        assert np.all(st.xi.values == 0.0)  # grad Theta(0) = 0
        assert st.dual_gap == 0.0
        assert st.residual == pytest.approx(norm(ydelta))



def dense_elliptic_tv_steps(nx, ny, f, g, ydelta, theta, steps):
    """ex52's TV subproblems solved densely by scipy's trust-exact, then one Newton step, for
    each (alpha_n, x_{n-1}, xi_{n-1}) of steps: (x_n, xi_n) in nodal arrays; b = 0 gives the
    quadratic penalty's.  Built here from the data alone: 5-point -Lap with the boundary
    lift, TV from forward differences, sqrt(dx^2 + dy^2 + eps) per cell, trapezoid weights,
    and the exact Hessian.  Trust-exact stops where its model test no longer resolves a
    decrease of the objective, up to 7e-7 from the minimizer relative to a small x_n; the
    Newton step, which reads only the gradient, takes it to where a second step moves it
    no more."""
    size, hx, hy = (nx + 1) * (ny + 1), 1.0 / nx, 1.0 / ny
    node = np.arange(size).reshape(nx + 1, ny + 1)
    inner, cells = node[1:-1, 1:-1].ravel(), node[:-1, :-1].ravel()
    rows = np.zeros((inner.size, size))  # -Lap at the interior nodes
    for r, k in enumerate(inner):
        rows[r, k] = 2 / hx**2 + 2 / hy**2
        rows[r, [k - ny - 1, k + ny + 1]], rows[r, [k - 1, k + 1]] = -1 / hx**2, -1 / hy**2
    rhs = f[inner] - rows @ np.where(np.isin(np.arange(size), inner), 0.0, g)
    w = np.outer(*(np.r_[0.5, np.ones(n - 1), 0.5] / n for n in (nx, ny))).ravel()
    diff = np.zeros((2, cells.size, size))  # forward differences along x, then y
    for c, k in enumerate(cells):
        diff[0, c, [k, k + ny + 1]], diff[1, c, [k, k + 1]] = (-1 / hx, 1 / hx), (-1 / hy, 1 / hy)
    flat, mu, tv, eps = diff.reshape(-1, size), theta.mu, theta.b * hx * hy, theta.eps

    def state(c):
        """u(c), the interior inverse of -Lap + c, and the Jacobian of c -> u."""
        inverse = np.linalg.inv(rows[:, inner] + np.diag(c[inner]))
        u, jac = g.copy(), np.zeros((size, size))
        u[inner] = inverse @ rhs
        jac[np.ix_(inner, inner)] = -inverse * u[inner]
        return u, inverse, jac

    out = []
    for alpha, x_prev, xi_prev in steps:
        @functools.lru_cache(maxsize=1)
        def parts(key):
            """Objective, gradient and Hessian at the nodal values c."""
            c = np.frombuffer(key)
            (u, inverse, jac), d = state(c), diff @ c
            res, m = u - ydelta, np.sqrt((d * d).sum(axis=0) + eps)
            value = 0.5 * (w * res**2).sum() + alpha * (
                mu * (w * c * c).sum() + tv * m.sum() - (w * xi_prev * c).sum())
            grad = jac.T @ (w * res) + alpha * (
                2 * mu * w * c + tv * flat.T @ (d / m).ravel() - w * xi_prev)
            cell = (np.eye(2)[:, :, None] - d[:, None] * d / m**2) / m  # A, per cell
            a_diff = np.einsum("ijc,jcl->icl", cell, diff).reshape(flat.shape)  # A D
            hess = jac.T @ (w[:, None] * jac) + alpha * (2 * mu * np.diag(w) + tv * flat.T @ a_diff)
            curvature = (inverse @ (w * res)[inner])[:, None] * inverse * u[inner]
            hess[np.ix_(inner, inner)] += curvature + curvature.T  # <w res, u''(c)>
            return value, grad, hess

        x = minimize(lambda c: parts(c.tobytes())[:2], x_prev, jac=True,
                     hess=lambda c: parts(c.tobytes())[2], method="trust-exact",
                     options={"gtol": 1e-13}).x
        _value, grad, hess = parts(x.tobytes())
        x = x - np.linalg.solve(hess, grad)
        u, _inverse, jac = state(x)
        out.append((x, xi_prev - jac.T @ (w * (u - ydelta)) / (w * alpha)))
    return out


def dense_integral_l1_steps(a_mat, a_star, ydelta, theta, steps):
    """ex51's smoothed-L1 subproblems (r = p = 2) solved densely by scipy's trust-exact, for
    each (alpha_n, x_{n-1}, xi_{n-1}) of steps: (x_n, xi_n) in nodal arrays.  Built here from
    the trapezoid matrices of F and F* (`conftest.trapezoid_matrices`) and the penalty
    mu int x^2 + a int sqrt(x^2 + eps), with the exact Hessian."""
    n = ydelta.size - 1
    w = np.r_[0.5, np.ones(n - 1), 0.5] / n
    mu, a, eps = theta.mu, theta.a, theta.eps
    gram = a_mat.T @ (w[:, None] * a_mat)
    out = []
    for alpha, x_prev, xi_prev in steps:
        def fun(c):
            res, s = a_mat @ c - ydelta, np.sqrt(c * c + eps)
            value = 0.5 * (w * res**2).sum() + alpha * (
                mu * (w * c * c).sum() + a * (w * s).sum() - (w * xi_prev * c).sum())
            return value, a_mat.T @ (w * res) + alpha * w * (2 * mu * c + a * c / s - xi_prev)

        def hess(c):
            s = c * c + eps
            return gram + alpha * np.diag(w * (2 * mu + a * eps / s / np.sqrt(s)))

        sol = minimize(fun, x_prev, jac=True, hess=hess, method="trust-exact",
                       options={"gtol": 1e-13})
        out.append((sol.x, xi_prev - a_star @ (a_mat @ sol.x - ydelta) / alpha))
    return out


class TestTrajectoryOracle:
    def test_quadratic_run_is_classical_iterated_tikhonov(self, integral_matrices):
        # With Theta = mu ||x||^2, r = 2 and linear F the method is classical
        # nonstationary iterated Tikhonov (Hanke & Groetsch 1998):
        #   (F*F + 2 alpha_n mu I) x_n = F*y + alpha_n xi_{n-1},
        #   xi_n = xi_{n-1} - F*(F x_n - y) / alpha_n,
        # with F and its weight-adjoint F* built densely from the quadrature.
        cfg = harness.example51_config("quadratic", {("problem", "n"): 80})
        op, _x_dagger, y = harness.make_problem(cfg)
        ydelta = harness.add_noise(y, cfg.noise.delta, cfg.noise.seed)
        report = harness.solve(cfg, op, ydelta)
        assert report.terminated_by == "discrepancy" and len(report.states) > 10
        A, Astar = integral_matrices(80)
        mu, y = cfg.theta.mu, ydelta.values
        x, xi = np.zeros_like(y), np.zeros_like(y)
        for state in report.states[1:]:
            alpha = state.alpha
            x = np.linalg.solve(Astar @ A + 2.0 * alpha * mu * np.eye(len(y)),
                                Astar @ y + alpha * xi)
            xi = xi - Astar @ (A @ x - y) / alpha
            for got, exact in ((state.x.values, x), (state.xi.values, xi)):
                assert np.linalg.norm(got - exact) <= 1e-9 * np.linalg.norm(exact)



    @staticmethod
    def assert_elliptic_steps_match_a_dense_reference(penalty, min_steps, x_tol, xi_tol):
        """ex52 with `penalty` on the 8x8 grid at grad_tol_rel = 1e-12: each step's
        (x_n, xi_n) against the dense reference's solve of the same subproblem, from
        nitreg's (x_{n-1}, xi_{n-1}), relative to nitreg's."""
        cfg = harness.example52_config(penalty, 0.01, {
            ("problem", "nx"): 8, ("problem", "ny"): 8, ("inner", "grad_tol_rel"): 1e-12})
        op, c_dagger, y = harness.make_problem(cfg)
        ydelta = harness.add_noise(y, cfg.noise.delta, cfg.noise.seed)
        report = harness.solve(cfg, op, ydelta)
        assert report.terminated_by == "discrepancy" and len(report.states) > min_steps
        xs, ys = op.domain_space.coords()
        states = report.states
        reference = dense_elliptic_tv_steps(
            8, 8, c_dagger.values * (xs + ys), xs + ys, ydelta.values, cfg.theta,
            [(s.alpha, prev.x.values, prev.xi.values) for prev, s in zip(states, states[1:])])
        for state, (x, xi) in zip(states[1:], reference):
            for got, want, tol in ((state.x.values, x, x_tol), (state.xi.values, xi, xi_tol)):
                assert np.linalg.norm(got - want) <= tol * np.linalg.norm(got)

    def test_tv_steps_match_a_dense_reference(self):
        # TV mu = 0.01: the worst errors read 8.0e-9 (x) and 3.8e-8 (xi), with one BLAS
        # thread and with two; the bounds are five times those
        self.assert_elliptic_steps_match_a_dense_reference("l2_tv", 20, 4e-8, 1.9e-7)

    def test_quadratic_elliptic_steps_match_a_dense_reference(self):
        # the quadratic penalty (b = 0), whose steps take EllipticOp's Newton-CG: the worst
        # errors read 5.6e-8 (x, at a step that stops on no decrease of the objective) and
        # 7.3e-8 (xi), with one BLAS thread and with two; the bounds are five times those
        self.assert_elliptic_steps_match_a_dense_reference("quadratic", 15, 2.8e-7, 3.6e-7)

    def test_l1_steps_match_a_dense_reference(self, integral_matrices):
        # ex51 l2_l1 on IntegralOp(80): each step's (x_n, xi_n) against the dense
        # reference's solve of the same subproblem, from nitreg's (x_{n-1}, xi_{n-1}).
        # At grad_tol_rel = 1e-11 every inner solve converges, and the worst relative errors read
        # 3.0e-8 (x) and 5.4e-9 (xi), with one BLAS thread and with two; the bounds are
        # five times those.
        cfg = harness.example51_config("l2_l1", {
            ("problem", "n"): 80, ("inner", "grad_tol_rel"): 1e-11})
        op, _x_dagger, y = harness.make_problem(cfg)
        ydelta = harness.add_noise(y, cfg.noise.delta, cfg.noise.seed)
        report = harness.solve(cfg, op, ydelta)
        states = report.states
        assert report.terminated_by == "discrepancy" and len(states) > 10
        assert cfg.method.r == 2.0 and all(s.inner_stats.converged for s in states[1:])
        reference = dense_integral_l1_steps(
            *integral_matrices(80), ydelta.values, cfg.theta,
            [(s.alpha, prev.x.values, prev.xi.values) for prev, s in zip(states, states[1:])])
        for state, (x, xi) in zip(states[1:], reference):
            for got, want, tol in ((state.x.values, x, 1.5e-7), (state.xi.values, xi, 2.7e-8)):
                assert np.linalg.norm(got - want) <= tol * np.linalg.norm(got)


def grid_family(make_config, sizes):
    """The runs of make_config(size) for each size, at the config's noise seed (1)."""
    reports = []
    for size in sizes:
        cfg = make_config(size)
        op, _x_dagger, y = harness.make_problem(cfg)
        ydelta = harness.add_noise(y, cfg.noise.delta, cfg.noise.seed)
        reports.append(harness.solve(cfg, op, ydelta))
    return reports


def assert_grid_independent(reports):
    n_deltas = [report.n_delta for report in reports]
    assert max(n_deltas) - min(n_deltas) <= 2, n_deltas
    for report in reports:
        assert report.terminated_by == "discrepancy"
        assert all(s.inner_stats.converged for s in report.states[1:])


class TestGridRefinement:
    # The method is defined on function spaces, so refining the grid must not
    # change how it runs: n_delta stays within a spread of 2, and every inner
    # solve converges. The l2 error is not compared across grids: white noise
    # on a finer grid is a different realization.
    @pytest.mark.parametrize("penalty", ["quadratic", "l2_l1"])
    def test_example51(self, penalty):
        reports = grid_family(
            lambda n: harness.example51_config(penalty, {("problem", "n"): n}), (100, 400, 1600))
        assert_grid_independent(reports)
        for report in reports:
            # IntegralOp's Newton inverse keeps CG at <= 2 per Newton direction
            assert all(s.inner_stats.cg_iterations <= 2 * s.inner_stats.iterations
                       for s in report.states[1:])

    def test_example52_quadratic(self):
        reports = grid_family(lambda n: harness.example52_config("quadratic", overrides={
            ("problem", "nx"): n, ("problem", "ny"): n}), (10, 20, 40))
        assert_grid_independent(reports)

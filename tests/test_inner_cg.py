from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from conftest import CountingIntegralOp, PenaltyPreconditionedIntegralOp
from scipy.linalg import lapack

from nitreg import harness, inner_cg, penalties, spaces
from nitreg.harness import add_noise, example52_config, make_problem, spikes_1d
from nitreg.inner_cg import InnerProblem, InnerSettings, is_linear_quadratic, minimize
from nitreg.operators import EllipticOp, ForwardOp, IntegralOp, OperatorError
from nitreg.penalties import Penalty
from nitreg.spaces import DUAL, PRIMAL, GridFn, GridSpace, norm


class DiagOp(ForwardOp):
    """Diagonal linear operator on a grid space, self-adjoint in the
    weighted pairing; handy for problems with closed-form minimizers."""

    is_linear = True

    def __init__(self, space, diag):
        self.domain_space = space
        self.range_space = space
        self.diag = np.asarray(diag, float)

    def apply(self, x):
        self._check_domain(x)
        return GridFn(self.range_space, self.diag * x.values, PRIMAL)

    def linearized(self, x):
        self._check_domain(x)
        return (lambda h: self.diag * h), (lambda w: self.diag * w)


class NaNAdjointOp(DiagOp):
    """Diagonal operator whose linearized adjoint returns NaN after its first
    `finite_calls` calls."""

    def __init__(self, space, diag, finite_calls):
        super().__init__(space, diag)
        self.calls = 0
        self.finite_calls = finite_calls

    def linearized(self, x):
        deriv, adjoint = super().linearized(x)

        def nan_adjoint(w):
            self.calls += 1
            return adjoint(w) if self.calls <= self.finite_calls else np.full_like(w, np.nan)

        return deriv, nan_adjoint


class CappedIntegralOp(IntegralOp):
    """Integral operator that fails, like a singular elliptic solve would,
    wherever max(x) exceeds `cap`; counts its failures."""

    def __init__(self, n, cap):
        super().__init__(n)
        self.cap = cap
        self.failures = 0

    def apply(self, x):
        if x.values.max() > self.cap:
            self.failures += 1
            raise OperatorError("max(x) above the cap")
        return super().apply(x)


def spikes_l1_problem():
    """First outer step of a smoothed-L1 reconstruction of the spikes."""
    op = IntegralOp(80)
    theta = Penalty(mu=0.01, a=1.0, eps=1e-6)
    x_prev = spaces.zeros(op.domain_space)
    ydelta = add_noise(op.apply(spikes_1d(op.domain_space)), 5e-4, 1)
    return InnerProblem(op, ydelta, theta, 0.05, x_prev, penalties.gradient(theta, x_prev))


def tv_problem():
    """First outer step of example 5.2's TV reconstruction on a 10x10 grid."""
    cfg = example52_config("l2_tv", mu=0.01,
                           overrides={("problem", "nx"): 10, ("problem", "ny"): 10})
    op, _c_dagger, y = make_problem(cfg)
    x_prev = spaces.zeros(op.domain_space)
    theta = cfg.theta
    return InnerProblem(op, add_noise(y, 1e-3, 1), theta, 0.5, x_prev,
                        penalties.gradient(theta, x_prev))


def quadratic_problem(n=60, alpha=0.1, mu=1.0, seed=0):
    op = IntegralOp(n)
    rng = np.random.default_rng(seed)
    theta = Penalty(mu=mu)
    x_prev = GridFn(op.domain_space, rng.standard_normal(op.domain_space.size))
    xi_prev = penalties.gradient(theta, x_prev)
    y = GridFn(op.range_space, np.sin(2 * np.pi * op.range_space.axis_nodes(0)))
    return InnerProblem(op, y, theta, alpha, x_prev, xi_prev)


def count_factorizations(monkeypatch):
    """Make LAPACK's banded Cholesky `dpbtrf` record each call in the returned
    list, as ("dpbtrf", columns)."""
    calls = []
    dpbtrf = lapack.dpbtrf

    def counted_dpbtrf(ab, *args, **kwargs):
        calls.append(("dpbtrf", ab.shape[1]))
        return dpbtrf(ab, *args, **kwargs)

    monkeypatch.setattr(lapack, "dpbtrf", counted_dpbtrf)
    return calls


def start(p):
    """The residual and the gradient at x_prev, as nodal arrays, as a solve
    begins; an operator that factors a system factors it at x_prev here."""
    res = inner_cg.objective(p, p.x_prev)[1]
    return res, inner_cg.grad_objective(p, p.x_prev, res, p.op.linearized(p.x_prev)[1])[0]


def direction(p, res, g, rtol):
    """`inner_cg._newton_direction` at x_prev, with the maps of `linearized` there."""
    maps = p.op.linearized(p.x_prev)
    return inner_cg._newton_direction(p, p.x_prev, maps, res, g, None, rtol,
                                      is_linear_quadratic(p))


def value(p, x):
    return inner_cg.objective(p, x)[0]


def gradient(p, x):
    g = inner_cg.grad_objective(p, x, inner_cg.objective(p, x)[1], p.op.linearized(x)[1])[0]
    return GridFn(p.op.domain_space, g, DUAL)


def dense_minimizer(p, A, Astar):
    """Independent oracle: assemble (A*A + 2 mu alpha I) x = A*y + alpha xi
    densely in the node basis and solve directly; A and Astar are the
    node-values matrices of the operator and of its adjoint."""
    w = p.op.domain_space.weights
    M = Astar @ A + 2.0 * p.theta.mu * p.alpha * np.eye(len(w))
    rhs = Astar @ p.ydelta.values + p.alpha * p.xi_prev.values
    return np.linalg.solve(M, rhs)


class TestValidation:
    def test_alpha_positive(self):
        p = quadratic_problem()
        with pytest.raises(ValueError):
            InnerProblem(p.op, p.ydelta, p.theta, 0.0, p.x_prev, p.xi_prev)

    def test_r_greater_than_one(self):
        p = quadratic_problem()
        with pytest.raises(ValueError):
            InnerProblem(p.op, p.ydelta, p.theta, 1.0, p.x_prev, p.xi_prev, r=1.0)

    def test_xi_must_be_dual(self):
        p = quadratic_problem()
        with pytest.raises(ValueError):
            InnerProblem(p.op, p.ydelta, p.theta, 1.0, p.x_prev, p.x_prev)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            InnerSettings(grad_tol_rel=0)
        with pytest.raises(ValueError):
            InnerSettings(max_iters=0)


class TestObjective:
    def test_quadratic_closed_form(self):
        # with xi_prev = grad Theta(x_prev) the Bregman term is
        # mu * |x - x_prev|^2, so the objective has a closed form
        p = quadratic_problem(alpha=0.3, mu=2.0)
        rng = np.random.default_rng(1)
        x = GridFn(p.op.domain_space, rng.standard_normal(p.op.domain_space.size))
        expected = (
            0.5 * norm(p.op.apply(x) - p.ydelta) ** 2
            + 0.3 * 2.0 * norm(x - p.x_prev) ** 2
        )
        f, res, theta_x = inner_cg.objective(p, x)
        assert f == pytest.approx(expected, rel=1e-12)
        assert np.array_equal(res, (p.op.apply(x) - p.ydelta).values)
        assert theta_x == penalties.value(p.theta, x)

    def test_objective_at_x_prev_is_pure_fit(self):
        p = quadratic_problem()
        fit = 0.5 * norm(p.op.apply(p.x_prev) - p.ydelta) ** 2
        assert value(p, p.x_prev) == pytest.approx(fit, rel=1e-12)

    def test_gradient_finite_difference(self):
        p = quadratic_problem(n=40)
        rng = np.random.default_rng(2)
        x = GridFn(p.op.domain_space, rng.standard_normal(p.op.domain_space.size))
        g = gradient(p, x)
        d = GridFn(p.op.domain_space, rng.standard_normal(p.op.domain_space.size))
        d = (1.0 / norm(d)) * d
        h = 1e-6
        approx = (value(p, x + h * d) - value(p, x - h * d)) / (2 * h)
        assert spaces.pairing(g, d) == pytest.approx(approx, rel=1e-6, abs=1e-9)


class TestDiagonalToy:
    def test_matches_closed_form(self):
        # per-node optimality: (d_i^2 + 2 mu alpha) x_i = d_i y_i + alpha xi_i
        space = GridSpace.interval(1)  # two nodes
        op = DiagOp(space, [2.0, 0.5])
        theta = Penalty(mu=1.0)
        alpha = 0.25
        y = GridFn(space, np.array([1.0, -3.0]))
        x_prev = GridFn(space, np.array([0.3, 0.7]))
        xi_prev = penalties.gradient(theta, x_prev)
        p = InnerProblem(op, y, theta, alpha, x_prev, xi_prev)
        exact = (op.diag * y.values + alpha * xi_prev.values) / (
            op.diag**2 + 2 * alpha
        )
        x_cg = minimize(p, InnerSettings(grad_tol_rel=1e-12))[0]
        assert np.allclose(x_cg.values, exact, atol=1e-9)
        x_lin = minimize(p)[0]
        assert np.allclose(x_lin.values, exact, atol=1e-12)


class TestOracle:
    def test_against_dense_normal_equations(self, integral_matrices):
        p = quadratic_problem(n=60, alpha=0.05, mu=1.0)
        exact = dense_minimizer(p, *integral_matrices(60))
        scale = np.linalg.norm(exact)

        x_lin, _xi, stats_lin = minimize(p)
        assert np.linalg.norm(x_lin.values - exact) <= 1e-10 * scale
        assert stats_lin.converged

        x_cg = minimize(p, InnerSettings(grad_tol_rel=1e-10, max_iters=5000))[0]
        assert np.linalg.norm(x_cg.values - exact) <= 1e-6 * scale

    def test_stops_when_steps_no_longer_move_x(self, integral_matrices):
        # the subproblem of acceptance test 04 with a gradient tolerance below
        # rounding, so steps eventually no longer lower the objective
        p = quadratic_problem(n=120, alpha=0.05, mu=1.0, seed=3)
        exact = dense_minimizer(p, *integral_matrices(120))
        x, _xi, stats = minimize(p, InnerSettings(grad_tol_rel=1e-20, max_iters=5000))
        assert stats.iterations < 5000
        assert not stats.converged
        assert not stats.line_search_failed
        assert np.linalg.norm(x.values - exact) <= 1e-6 * np.linalg.norm(exact)

    @pytest.mark.parametrize("seed", range(1, 7))
    @pytest.mark.parametrize("n", [80, 120, 200])
    def test_stops_when_steps_no_longer_lower_the_objective(self, integral_matrices, n, seed):
        # below rounding, Armijo's test passes steps that move x but leave f as it
        # is; a stop on x alone ran 7 of these 18 solves to the iteration cap
        p = quadratic_problem(n=n, alpha=0.05, mu=1.0, seed=seed)
        exact = dense_minimizer(p, *integral_matrices(n))
        x, _xi, stats = minimize(p, InnerSettings(grad_tol_rel=1e-20, max_iters=2000))
        assert stats.iterations < 2000
        assert not stats.converged
        assert not stats.line_search_failed
        assert np.linalg.norm(x.values - exact) <= 1e-6 * np.linalg.norm(exact)


class TestMinimize:
    def test_objective_monotone_decrease(self):
        p = quadratic_problem(n=50)
        # replace penalty by the smoothed l1 variant to exercise the
        # nonlinear path
        p = InnerProblem(
            p.op,
            p.ydelta,
            Penalty(mu=1.0, a=0.5, eps=1e-3),
            p.alpha,
            p.x_prev,
            penalties.gradient(Penalty(mu=1.0, a=0.5, eps=1e-3), p.x_prev),
        )
        # the objective after k iterations, for k = 0 (the start) to 6
        hist = [value(p, p.x_prev)] + [
            minimize(p, InnerSettings(max_iters=k))[2].objective for k in range(1, 7)
        ]
        assert np.all(np.diff(hist) <= 1e-12)
        assert hist[-1] < hist[0]

    def test_gradient_tolerance_reached(self):
        p = quadratic_problem(n=40)
        stats = minimize(p, InnerSettings(grad_tol_rel=1e-6, max_iters=2000))[2]
        assert stats.converged
        assert stats.grad_norm <= 1e-6 * max(1.0, stats.initial_grad_norm)

    def test_warm_start_at_minimizer_converges_immediately(self):
        # the subproblem centred at x*, with xi_prev chosen so that x* is its
        # minimizer: grad Theta(x*) + (1/alpha) F'(x*)* J_r(F(x*) - y)
        p = quadratic_problem(n=40)
        x_star = minimize(p)[0]
        res = p.op.apply(x_star) - p.ydelta
        xi = penalties.gradient(p.theta, x_star) + (1.0 / p.alpha) * p.op.adjoint(
            x_star, spaces.duality_map(res, p.r))
        centred = replace(p, x_prev=x_star, xi_prev=xi)
        stats = minimize(centred, InnerSettings(grad_tol_rel=1e-4))[2]
        assert stats.converged
        assert stats.iterations <= 2

    def test_smoothed_l1_subproblem_converges(self):
        stats = minimize(spikes_l1_problem())[2]
        assert stats.converged
        assert not stats.line_search_failed
        assert stats.grad_norm <= 1e-8 * max(1.0, stats.initial_grad_norm)

    def test_tv_subproblem_converges_in_few_newton_steps(self):
        stats = minimize(tv_problem())[2]
        assert stats.converged
        assert not stats.line_search_failed
        assert stats.iterations <= 10

    def test_smoothed_l1_subproblem_converges_at_r3(self):
        # 12 Newton steps; without the rank-one term of J_r' it takes 336
        stats = minimize(replace(spikes_l1_problem(), r=3.0))[2]
        assert stats.converged
        assert not stats.line_search_failed
        assert stats.iterations <= 20

    def test_operator_failure_at_trial_point_backtracks(self):
        # the minimizer peaks at 0.18, but early trial steps go above the cap
        op = CappedIntegralOp(80, cap=0.2)
        p = replace(spikes_l1_problem(), op=op)
        x, _xi, stats = minimize(p)
        assert op.failures > 0
        assert stats.backtracks >= op.failures
        assert stats.converged
        assert x.values.max() <= op.cap

    def test_operator_failing_at_every_trial_flags_line_search(self):
        op = CappedIntegralOp(80, cap=0.1)
        p = replace(spikes_l1_problem(), op=op)
        x, _xi, stats = minimize(p)
        assert stats.line_search_failed
        assert not stats.converged
        assert x.values.max() <= op.cap

    def test_indefinite_trial_is_a_rejected_step(self):
        # c† = -19 lies just above -lambda_min(-Lap_h) ~ -19.5 on the 8x8 grid,
        # so full Newton steps reach c where -Lap + c is indefinite; F is not
        # defined there, and those trials must be rejected, not solved
        space = GridSpace.rectangle(8, 8)
        xs, ys = space.coords()
        op = EllipticOp(8, 8, g=xs + ys)
        ydelta = op.apply(GridFn(space, np.full(space.size, -19.0)))
        theta, x_prev = Penalty(), spaces.zeros(space)
        p = InnerProblem(op, ydelta, theta, 1e-6, x_prev, penalties.gradient(theta, x_prev))
        x, _xi, stats = minimize(p)
        assert stats.converged
        assert stats.residual <= 1e-3
        op.apply(x)  # x lies where F is defined

    def test_applies_operator_once_per_point(self):
        # the initial point, then one trial point per accepted step or backtrack
        op = CountingIntegralOp(80)
        p = replace(spikes_l1_problem(), op=op)
        stats = minimize(p)[2]
        assert op.applies == 1 + stats.iterations + stats.backtracks

    def test_linearizes_once_per_point(self, monkeypatch):
        # at x_prev, then once per accepted step: the gradient's data term and
        # CG's matvecs take F'(x) from the same maps
        p = spikes_l1_problem()
        linearized, points = p.op.linearized, []

        def counted(x):
            points.append(x)
            return linearized(x)

        monkeypatch.setattr(p.op, "linearized", counted)
        stats = minimize(p)[2]
        assert stats.converged and stats.iterations >= 2
        assert len(points) == stats.iterations + 1
        assert points[0] is p.x_prev

    def test_evaluates_theta_at_x_prev_once(self, monkeypatch):
        # Theta(x_prev) in the Bregman term is a constant of the subproblem
        count = {"value": 0, "objective": 0}
        value, objective = penalties.value, inner_cg.objective

        def counted_value(*args):
            count["value"] += 1
            return value(*args)

        def counted_objective(*args):
            count["objective"] += 1
            return objective(*args)

        monkeypatch.setattr(penalties, "value", counted_value)
        monkeypatch.setattr(inner_cg, "objective", counted_objective)
        stats = minimize(spikes_l1_problem())[2]
        assert stats.converged and count["objective"] >= 2
        # once in InnerProblem, then once per objective call away from x_prev
        assert count["value"] == count["objective"]

    @pytest.mark.parametrize("finite_calls", [0, 1])
    def test_non_finite_adjoint_raises(self, finite_calls):
        # NaN at the first gradient (0), or only inside CG's matvecs (1): the
        # matvecs build no GridFn, so CG stops at its first NaN curvature and
        # the NaN direction is refused at the trial
        space = GridSpace.interval(10)
        op = NaNAdjointOp(space, np.linspace(0.5, 2.0, space.size), finite_calls)
        theta = Penalty(mu=1.0, a=0.5, eps=1e-3)
        x_prev = spaces.zeros(space)
        y = GridFn(space, np.sin(3.0 * space.axis_nodes(0)))
        p = InnerProblem(op, y, theta, 0.1, x_prev, penalties.gradient(theta, x_prev))
        with pytest.raises(ValueError, match="GridFn values must be finite"):
            minimize(p)
        assert op.calls == finite_calls + 1

    def test_builds_no_grid_function_in_cg(self, monkeypatch):
        # GridFn constructions scale with Newton steps and trial points, not
        # with CG iterations
        count = {"all": 0, "in_cg": 0, "cg": 0}
        post_init, cg = GridFn.__post_init__, inner_cg._cg
        in_cg = []

        def counted_post_init(self):
            count["all"] += 1
            count["in_cg"] += bool(in_cg)
            post_init(self)

        def flagged_cg(*args):
            count["cg"] += 1
            in_cg.append(True)
            try:
                return cg(*args)
            finally:
                in_cg.pop()

        monkeypatch.setattr(GridFn, "__post_init__", counted_post_init)
        monkeypatch.setattr(inner_cg, "_cg", flagged_cg)
        # without a Newton inverse every direction runs CG; with IntegralOp's, none does
        for op, runs_cg in ((PenaltyPreconditionedIntegralOp(80), True), (IntegralOp(80), False)):
            count.update(all=0, in_cg=0, cg=0)
            stats = minimize(replace(spikes_l1_problem(), op=op))[2]
            assert stats.converged and stats.iterations >= 1
            assert count["cg"] == (stats.iterations if runs_cg else 0)
            assert count["in_cg"] == 0
            assert count["all"] <= 4 * (stats.iterations + stats.backtracks + 1)

    def test_deterministic(self):
        p = quadratic_problem(n=40)
        x1 = minimize(p, InnerSettings(max_iters=50))[0]
        x2 = minimize(p, InnerSettings(max_iters=50))[0]
        assert np.array_equal(x1.values, x2.values)


def record_preconditioners(monkeypatch):
    """Make `inner_cg._cg` record the preconditioner of each call, and count
    its matvecs, in the returned list of [preconditioner, matvecs] pairs."""
    calls = []
    cg = inner_cg._cg

    def recorded_cg(matvec, precondition, b, rtol):
        call = [precondition, 0]
        calls.append(call)

        def counted_matvec(v):
            call[1] += 1
            return matvec(v)

        return cg(counted_matvec, precondition, b, rtol)

    monkeypatch.setattr(inner_cg, "_cg", recorded_cg)
    return calls


def count_cg_work(monkeypatch, op):
    """Count, in the returned dict, the calls of the deriv and adjoint maps that
    `op.linearized` returns, and the calls of CG's preconditioner or the direct
    step's inverse, whether `op.newton_inverse` or `_penalty_hessian` made it."""
    count = {"deriv": 0, "adjoint": 0, "precondition": 0}
    linearized, newton_inverse = op.linearized, op.newton_inverse
    penalty_hessian = inner_cg._penalty_hessian

    def counted(fn, key):
        def counted_fn(v):
            count[key] += 1
            return fn(v)
        return counted_fn

    def counted_linearized(x):
        deriv, adjoint = linearized(x)
        return counted(deriv, "deriv"), counted(adjoint, "adjoint")

    def counted_newton_inverse(*args):
        inverse = newton_inverse(*args)
        return None if inverse is None else counted(inverse, "precondition")

    def counted_penalty_hessian(*args):
        apply_hess, precondition = penalty_hessian(*args)
        return apply_hess, counted(precondition, "precondition")

    monkeypatch.setattr(op, "linearized", counted_linearized)
    monkeypatch.setattr(op, "newton_inverse", counted_newton_inverse)
    monkeypatch.setattr(inner_cg, "_penalty_hessian", counted_penalty_hessian)
    return count


def without_tv_problem(op, theta):
    p = replace(quadratic_problem(n=40), op=op, theta=theta)
    return replace(p, xi_prev=penalties.gradient(theta, p.x_prev))


def assert_solves_dense_newton_system(p, res, g, d, integral_matrices):
    """d solves the Newton system (W A* S A + alpha P) d = -W g, assembled densely, with
    ``S = ||res||^(r-2) (I + (r-2) res <res, .>_W / ||res||^2)``, the ``J_r'`` model at res."""
    w = p.op.domain_space.weights
    A, Astar = integral_matrices(p.op.domain_space.size - 1)
    rn2 = res @ (w * res)
    S = rn2 ** (p.r / 2 - 1) * (np.eye(w.size) + (p.r - 2) * np.outer(res, w * res) / rn2)
    newton = w[:, None] * (Astar @ S @ A) + p.alpha * np.diag(
        penalties.pointwise_hessian(p.theta, p.x_prev))
    exact = np.linalg.solve(newton, -w * g)
    assert np.linalg.norm(d - exact) <= 1e-8 * np.linalg.norm(exact)


WITHOUT_TV = pytest.mark.parametrize(
    "theta", [Penalty(mu=1.0), Penalty(mu=1.0, a=0.5, eps=1e-3)], ids=["quadratic", "l2_l1"])


class TestPreconditioner:
    @WITHOUT_TV
    def test_without_tv_divides_and_makes_no_lu(self, monkeypatch, integral_matrices, theta):
        # an operator without a Newton inverse: the penalty Hessian is
        # diagonal, and CG's preconditioner divides by it
        p = without_tv_problem(PenaltyPreconditionedIntegralOp(40), theta)
        calls = count_factorizations(monkeypatch)
        preconditioners = record_preconditioners(monkeypatch)
        res, g = start(p)
        d, _iterations = direction(p, res, g, 1e-12)
        assert calls == []
        assert_solves_dense_newton_system(p, res, g, d, integral_matrices)
        v = np.random.default_rng(3).standard_normal(d.size)
        diag = p.alpha * penalties.pointwise_hessian(p.theta, p.x_prev)
        assert np.array_equal(preconditioners[0][0](v), v / diag)
        minimize(p, InnerSettings(max_iters=1))
        assert calls == []

    @WITHOUT_TV
    def test_integral_newton_inverse_factors_once_per_direction(self, monkeypatch,
                                                               integral_matrices, theta):
        # IntegralOp's inverse of the Newton matrix factors one pentadiagonal
        # band on the n - 1 interior nodes per Newton direction
        p = without_tv_problem(IntegralOp(40), theta)
        calls = count_factorizations(monkeypatch)
        res, g = start(p)
        d, _iterations = direction(p, res, g, 1e-12)
        assert calls == [("dpbtrf", 39)]
        assert_solves_dense_newton_system(p, res, g, d, integral_matrices)
        calls.clear()
        stats = minimize(p, InnerSettings(max_iters=3))[2]
        assert stats.iterations >= 1 and not stats.line_search_failed
        assert calls == [("dpbtrf", 39)] * stats.iterations

    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
    def test_integral_newton_inverse_is_the_direction(self, monkeypatch, integral_matrices, r):
        # off the linear-quadratic route the exact inverse gives the direction: one
        # factor, one inverse apply, no CG iteration and no operator map
        p = replace(without_tv_problem(IntegralOp(40), Penalty(mu=1.0, a=0.5, eps=1e-3)), r=r)
        res, g = start(p)
        deriv, adjoint = p.op.linearized(p.x_prev)
        calls = count_factorizations(monkeypatch)
        count = count_cg_work(monkeypatch, p.op)
        d, iterations = direction(p, res, g, 0.5)
        assert iterations == 0 and calls == [("dpbtrf", 39)]
        assert count == {"deriv": 0, "adjoint": 0, "precondition": 1}
        assert_solves_dense_newton_system(p, res, g, d, integral_matrices)
        # nothing checks the direct step, so the inverse must be exact to rounding: the
        # Newton residual in CG's own measure read at worst 4.6e-13 (r = 1.5)
        w, rw = p.x_prev.space.weights, p.ydelta.space.weights
        rn2, fd = res.dot(rw * res), deriv(d)
        jd = rn2 ** (r / 2 - 1) * (fd + (r - 2) * (rw * res).dot(fd) * res / rn2)
        newton = w * adjoint(jd) + p.alpha * penalties.pointwise_hessian(p.theta, p.x_prev) * d
        assert np.linalg.norm(newton + w * g) <= 1e-11 * np.linalg.norm(w * g)

    def test_integral_newton_inverse_keeps_cg_short(self, monkeypatch):
        # example 5.1 with the quadratic penalty: as alpha_n falls, CG
        # preconditioned by alpha P alone took up to 127 matvecs per direction
        cfg = harness.example51_config("quadratic")
        op, _x_dagger, y = make_problem(cfg)
        ydelta = add_noise(y, cfg.noise.delta, cfg.noise.seed)
        preconditioners = record_preconditioners(monkeypatch)
        report = harness.solve(cfg, op, ydelta)
        assert report.terminated_by == "discrepancy"
        assert len(preconditioners) >= len(report.states) - 1
        assert max(matvecs for _m, matvecs in preconditioners) <= 2
        cg_iterations = sum(s.inner_stats.cg_iterations for s in report.states[1:])
        assert cg_iterations == sum(matvecs for _m, matvecs in preconditioners)

    @pytest.mark.parametrize("problem, direct", [
        (lambda: without_tv_problem(IntegralOp(40), Penalty(mu=1.0, a=0.5, eps=1e-3)), True),
        (lambda: without_tv_problem(PenaltyPreconditionedIntegralOp(40),
                                    Penalty(mu=1.0, a=0.5, eps=1e-3)), False),
        (tv_problem, False),
    ], ids=["newton_inverse", "penalty_diagonal", "tv_band"])
    def test_no_operator_work_outside_cg_iterations(self, monkeypatch, problem, direct):
        # each CG iteration is one Newton matvec and one preconditioner apply,
        # with no probe or set-up call around them; the direct step of an exact
        # Newton inverse is one inverse apply and no CG iteration
        p = problem()
        res, g = start(p)
        count = count_cg_work(monkeypatch, p.op)
        _d, iterations = direction(p, res, g, 1e-12)
        assert iterations == 0 if direct else iterations >= 1
        assert count["deriv"] == count["adjoint"] == iterations
        assert count["precondition"] == (1 if direct else iterations)

    def test_tv_factors_the_penalty_hessian_once_per_newton_step(self, monkeypatch):
        # the elliptic system at x_prev is factored by `start`; its interior
        # has fewer nodes than the grid
        p = tv_problem()
        res, g = start(p)
        calls = count_factorizations(monkeypatch)
        direction(p, res, g, 0.5)
        n = p.x_prev.space.size
        assert calls == [("dpbtrf", n)]
        calls.clear()
        stats = minimize(p)[2]
        assert stats.converged and stats.iterations >= 2
        assert [c for c in calls if c[1] == n] == [("dpbtrf", n)] * stats.iterations

    def test_tv_hessian_not_positive_definite_raises(self, monkeypatch):
        # alpha P is positive definite for mu > 0, so a failed Cholesky is a bug;
        # the problem is built first, so that its EllipticOp factors normally
        p = tv_problem()
        monkeypatch.setattr(lapack, "dpbtrf", lambda ab, **kwargs: (ab, 1))
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            inner_cg._penalty_hessian(p, p.x_prev, None, np.ones(p.x_prev.space.size))

    @pytest.mark.parametrize("problem", [spikes_l1_problem, tv_problem], ids=["1d", "2d"])
    def test_tv_preconditioner_inverts_alpha_p(self, problem):
        p = problem()
        p = replace(p, theta=replace(p.theta, a=0.0, b=0.5))
        rng = np.random.default_rng(8)
        n = p.x_prev.space.size
        x = GridFn(p.x_prev.space, rng.uniform(0.0, 2.0, n))
        diag = p.alpha * penalties.pointwise_hessian(p.theta, x)
        apply_hess, precondition = inner_cg._penalty_hessian(p, x, None, diag)
        dense = np.diag(diag) + p.alpha * penalties.tv_hessian(p.theta, x)[0].toarray()
        v = rng.standard_normal(n)
        assert np.linalg.norm(apply_hess(v) - dense @ v) <= 1e-12 * np.linalg.norm(dense @ v)
        exact = np.linalg.solve(dense, v)
        assert np.linalg.norm(precondition(v) - exact) <= 1e-10 * np.linalg.norm(exact)


class TestConjugateGradients:
    @staticmethod
    def system(n=30, seed=4):
        """An SPD matrix, and as preconditioner the inverse of its tridiagonal
        part, which is SPD and not diagonal."""
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((n, n))
        a = q @ q.T + n * np.eye(n)
        m = np.linalg.inv(np.triu(np.tril(a, 1), -1))
        return a, m, rng.standard_normal(n)

    @pytest.mark.parametrize("rtol", [0.5, 1e-6, 1e-13])
    def test_iterates_as_scipy_cg(self, rtol):
        a, m, b = self.system()
        scipy_iterations = []
        expected = spla.cg(a, b, rtol=rtol, M=m,
                           callback=lambda _x: scipy_iterations.append(1))[0]
        x, iterations = inner_cg._cg(a.dot, m.dot, b, rtol)
        assert np.array_equal(x, expected)
        assert iterations == len(scipy_iterations) >= 1

    def test_zero_right_hand_side_returns_zeros(self):
        a, m, b = self.system()
        x, iterations = inner_cg._cg(a.dot, m.dot, np.zeros_like(b), 1e-6)
        assert np.array_equal(x, np.zeros_like(b)) and iterations == 0

    def test_stops_at_the_first_non_finite_curvature(self):
        # scipy's cg would run its 10 n iterations on NaNs
        a, m, b = self.system()
        matvecs = []

        def nan_matvec(v):
            matvecs.append(1)
            return np.full_like(v, np.nan)

        x, iterations = inner_cg._cg(nan_matvec, m.dot, b, 1e-6)
        assert iterations == len(matvecs) == 1
        assert not np.isfinite(x).any()


class TestExactRoute:
    def test_route_predicate(self):
        p = quadratic_problem()
        assert is_linear_quadratic(p)
        p_l1 = InnerProblem(
            p.op,
            p.ydelta,
            Penalty(mu=1.0, a=1.0, eps=1e-3),
            p.alpha,
            p.x_prev,
            p.xi_prev,
        )
        assert not is_linear_quadratic(p_l1)
        # the weights, not the constructor, make a penalty quadratic
        assert not is_linear_quadratic(replace(p, theta=Penalty(mu=1.0, a=1.0)))
        p_r3 = InnerProblem(p.op, p.ydelta, p.theta, p.alpha, p.x_prev, p.xi_prev, r=3.0)
        assert not is_linear_quadratic(p_r3)

    def test_first_order_optimality(self):
        p = quadratic_problem(n=80, alpha=0.02)
        x_star = minimize(p)[0]
        g = gradient(p, x_star)
        g0 = gradient(p, p.x_prev)
        assert norm(g) <= 1e-10 * max(1.0, norm(g0))


def record_forcing_terms(monkeypatch):
    """Make `inner_cg._newton_direction` record CG's rtol and ||g||_* of each
    Newton direction in the returned list of (rtol, ||g||) pairs."""
    calls = []
    newton_direction = inner_cg._newton_direction

    def recorded(p, x, maps, res, g, cell, rtol, exact):
        calls.append((rtol, spaces.values_norm(x.space, g, DUAL)))
        return newton_direction(p, x, maps, res, g, cell, rtol, exact)

    monkeypatch.setattr(inner_cg, "_newton_direction", recorded)
    return calls


class TestForcingTerm:
    def test_no_direction_solved_past_the_inner_stop(self, monkeypatch):
        # the last subproblem of example 5.2 with the quadratic penalty on a
        # 10x10 grid: CG is preconditioned by alpha P alone, and the
        # Eisenstat–Walker term sqrt(||g|| / g_0) asks for ~5e-4 where the stop
        # needs ~2e-2
        cfg = example52_config("quadratic",
                               overrides={("problem", "nx"): 10, ("problem", "ny"): 10})
        op, _c_dagger, y = make_problem(cfg)
        ydelta = add_noise(y, cfg.noise.delta, cfg.noise.seed)
        report = harness.solve(cfg, op, ydelta)
        prev, last = report.states[-2:]
        p = InnerProblem(op, ydelta, cfg.theta, last.alpha, prev.x, prev.xi, cfg.method.r)
        assert not is_linear_quadratic(p)
        calls = record_forcing_terms(monkeypatch)
        stats = minimize(p, cfg.inner)[2]
        assert stats.converged and calls
        tol = cfg.inner.grad_tol_rel * max(1.0, stats.initial_grad_norm)
        for rtol, gn in calls:
            assert gn > tol
            assert min(0.5, 0.5 * tol / gn) <= rtol <= 0.5

    def test_linear_quadratic_route_solves_exactly(self, monkeypatch):
        p = quadratic_problem()
        calls = record_forcing_terms(monkeypatch)
        assert minimize(p)[2].converged
        assert calls and all(rtol == inner_cg.EXACT_RTOL for rtol, _gn in calls)

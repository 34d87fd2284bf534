from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from nitreg import inner_cg, penalties, spaces
from nitreg.harness import add_noise, example52_config, make_problem, spikes_1d
from nitreg.inner_cg import InnerProblem, InnerSettings, is_linear_quadratic, minimize
from nitreg.operators import ForwardOp, IntegralOp, OperatorError
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


class CountingIntegralOp(IntegralOp):
    """Integral operator that counts its applications."""

    def __init__(self, n):
        super().__init__(n)
        self.applies = 0

    def apply(self, x):
        self.applies += 1
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
    """Make `scipy.sparse.linalg.splu` and LAPACK's banded Cholesky `dpbtrf`
    record each call in the returned list, as ("splu", rows) or
    ("dpbtrf", columns)."""
    calls = []
    splu, dpbtrf = spla.splu, lapack.dpbtrf

    def counted_splu(a, *args, **kwargs):
        calls.append(("splu", a.shape[0]))
        return splu(a, *args, **kwargs)

    def counted_dpbtrf(ab, *args, **kwargs):
        calls.append(("dpbtrf", ab.shape[1]))
        return dpbtrf(ab, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted_splu)
    monkeypatch.setattr(lapack, "dpbtrf", counted_dpbtrf)
    return calls


def start(p):
    """The residual and the gradient at x_prev, as a solve begins; an operator
    that factors a system factors it at x_prev here."""
    res = inner_cg.objective(p, p.x_prev)[1]
    return res, inner_cg.grad_objective(p, p.x_prev, res)[0]


def value(p, x):
    return inner_cg.objective(p, x)[0]


def gradient(p, x):
    return inner_cg.grad_objective(p, x, inner_cg.objective(p, x)[1])[0]


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
        f, res = inner_cg.objective(p, x)
        assert f == pytest.approx(expected, rel=1e-12)
        assert np.array_equal(res.values, (p.op.apply(x) - p.ydelta).values)

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
        # rounding, so steps eventually leave x unchanged
        p = quadratic_problem(n=120, alpha=0.05, mu=1.0, seed=3)
        exact = dense_minimizer(p, *integral_matrices(120))
        x, _xi, stats = minimize(p, InnerSettings(grad_tol_rel=1e-20, max_iters=5000))
        assert stats.iterations < 5000
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

    def test_applies_operator_once_per_point(self):
        # the initial point, then one trial point per accepted step or backtrack
        op = CountingIntegralOp(80)
        p = replace(spikes_l1_problem(), op=op)
        stats = minimize(p)[2]
        assert op.applies == 1 + stats.iterations + stats.backtracks

    @pytest.mark.parametrize("finite_calls", [0, 1])
    def test_non_finite_adjoint_raises(self, finite_calls):
        # NaN at the first gradient (0), or only inside CG's matvecs (1): the
        # matvecs build no GridFn, so the NaN direction is refused at the trial
        space = GridSpace.interval(10)
        op = NaNAdjointOp(space, np.linspace(0.5, 2.0, space.size), finite_calls)
        theta = Penalty(mu=1.0, a=0.5, eps=1e-3)
        x_prev = spaces.zeros(space)
        y = GridFn(space, np.sin(3.0 * space.axis_nodes(0)))
        p = InnerProblem(op, y, theta, 0.1, x_prev, penalties.gradient(theta, x_prev))
        with pytest.raises(ValueError, match="GridFn values must be finite"):
            minimize(p)
        assert op.calls > finite_calls

    def test_builds_no_grid_function_in_cg(self, monkeypatch):
        # GridFn constructions scale with Newton steps and trial points, not
        # with CG iterations
        count = {"all": 0, "in_cg": 0}
        post_init, cg = GridFn.__post_init__, spla.cg
        in_cg = []

        def counted_post_init(self):
            count["all"] += 1
            count["in_cg"] += bool(in_cg)
            post_init(self)

        def flagged_cg(*args, **kwargs):
            in_cg.append(True)
            try:
                return cg(*args, **kwargs)
            finally:
                in_cg.pop()

        monkeypatch.setattr(GridFn, "__post_init__", counted_post_init)
        monkeypatch.setattr(inner_cg.spla, "cg", flagged_cg)
        stats = minimize(spikes_l1_problem())[2]
        assert count["in_cg"] == 0
        assert count["all"] <= 8 * (stats.iterations + stats.backtracks + 1)

    def test_deterministic(self):
        p = quadratic_problem(n=40)
        x1 = minimize(p, InnerSettings(max_iters=50))[0]
        x2 = minimize(p, InnerSettings(max_iters=50))[0]
        assert np.array_equal(x1.values, x2.values)


class TestPreconditioner:
    @pytest.mark.parametrize("theta", [Penalty(mu=1.0), Penalty(mu=1.0, a=0.5, eps=1e-3)],
                             ids=["quadratic", "l2_l1"])
    def test_without_tv_divides_and_makes_no_lu(self, monkeypatch, integral_matrices, theta):
        # the penalty Hessian is diagonal; the direction still solves the
        # Newton system (W A* A + alpha P) d = -W g, assembled densely
        p = quadratic_problem(n=40)
        p = replace(p, theta=theta, xi_prev=penalties.gradient(theta, p.x_prev))
        calls = count_factorizations(monkeypatch)
        res, g = start(p)
        d = inner_cg._newton_direction(p, p.x_prev, res, g, None, 1e-12)
        assert calls == []
        w = p.op.domain_space.weights
        A, Astar = integral_matrices(40)
        newton = w[:, None] * (Astar @ A) + p.alpha * np.diag(
            penalties.pointwise_hessian(theta, p.x_prev))
        exact = np.linalg.solve(newton, -w * g.values)
        assert np.linalg.norm(d - exact) <= 1e-8 * np.linalg.norm(exact)
        minimize(p, InnerSettings(max_iters=1))
        assert calls == []

    def test_tv_factors_the_penalty_hessian_once_per_newton_step(self, monkeypatch):
        # the elliptic system at x_prev is factored by `start`; its interior
        # has fewer nodes than the grid
        p = tv_problem()
        res, g = start(p)
        calls = count_factorizations(monkeypatch)
        inner_cg._newton_direction(p, p.x_prev, res, g, None, 0.5)
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
            inner_cg._penalty_hessian(p, p.x_prev, None)

    @pytest.mark.parametrize("problem", [spikes_l1_problem, tv_problem], ids=["1d", "2d"])
    def test_tv_preconditioner_inverts_alpha_p(self, problem):
        p = problem()
        p = replace(p, theta=replace(p.theta, a=0.0, b=0.5))
        rng = np.random.default_rng(8)
        n = p.x_prev.space.size
        x = GridFn(p.x_prev.space, rng.uniform(0.0, 2.0, n))
        apply_hess, precondition = inner_cg._penalty_hessian(p, x, None)
        dense = p.alpha * (np.diag(penalties.pointwise_hessian(p.theta, x))
                           + penalties.tv_hessian(p.theta, x).toarray())
        v = rng.standard_normal(n)
        assert np.linalg.norm(apply_hess(v) - dense @ v) <= 1e-12 * np.linalg.norm(dense @ v)
        exact = np.linalg.solve(dense, v)
        assert np.linalg.norm(precondition(v) - exact) <= 1e-10 * np.linalg.norm(exact)


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

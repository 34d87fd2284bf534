import numpy as np
import pytest

from nitreg import spaces
from nitreg.operators import EllipticOp, IntegralOp, OperatorError, estimate_eta
from nitreg.spaces import DUAL, GridFn, norm, pairing


def random_fn(space, rng, variance=spaces.PRIMAL):
    return GridFn(space, rng.standard_normal(space.size), variance)


def adjoint_gap(op, x, rng):
    """|<w, F'(x)h> - <F'(x)*w, h>| and the scale it is measured against."""
    h = random_fn(op.domain_space, rng)
    w = random_fn(op.range_space, rng, DUAL)
    lhs = pairing(w, op.deriv(x, h))
    rhs = pairing(op.adjoint(x, w), h)
    scale = norm(w) * norm(op.deriv(x, h)) + 1e-300
    return abs(lhs - rhs), scale


def taylor_slope(op, x, h, steps=(1e-2, 1e-3, 1e-4)):
    """Log-log slope of ||F(x+t h) - F(x) - t F'(x)h|| against t."""
    errs = []
    for t in steps:
        pert = op.apply(x + t * h)
        lin = op.apply(x) + t * op.deriv(x, h)
        errs.append(norm(pert - lin))
    logs_t = np.log(steps)
    logs_e = np.log(errs)
    slope, _ = np.polyfit(logs_t, logs_e, 1)
    return slope


class TestIntegralOp:
    def test_zero_maps_to_zero(self):
        op = IntegralOp(50)
        out = op.apply(spaces.zeros(op.domain_space))
        assert np.all(out.values == 0.0)

    def test_greens_function_inverse_relation(self):
        # K is the Green's function of -y'' = 40 x, y(0)=y(1)=0, so applying
        # K to x(t)=sin(pi t) gives (40/pi^2) sin(pi t) up to quadrature error.
        op = IntegralOp(400)
        t = op.domain_space.axis_nodes(0)
        x = GridFn(op.domain_space, np.sin(np.pi * t))
        expected = (40.0 / np.pi**2) * np.sin(np.pi * t)
        rel = norm(op.apply(x) - GridFn(op.range_space, expected)) / norm(
            GridFn(op.range_space, expected)
        )
        assert rel <= 0.02

    def test_constant_input_exact(self):
        # For x = 1 the integrand is piecewise linear in t with nodes on the
        # grid, so the trapezoid rule is exact: (K 1)(s) = 20 s (1 - s).
        op = IntegralOp(200)
        s = op.domain_space.axis_nodes(0)
        out = op.apply(GridFn(op.domain_space, np.ones(op.domain_space.size)))
        assert np.allclose(out.values, 20.0 * s * (1.0 - s), atol=1e-12)

    def test_deriv_equals_apply(self):
        op = IntegralOp(60)
        rng = np.random.default_rng(0)
        x, h = random_fn(op.domain_space, rng), random_fn(op.domain_space, rng)
        assert np.array_equal(op.deriv(x, h).values, op.apply(h).values)

    def test_adjoint_consistency(self):
        op = IntegralOp(120)
        rng = np.random.default_rng(1)
        x = random_fn(op.domain_space, rng)
        for _ in range(10):
            gap, scale = adjoint_gap(op, x, rng)
            assert gap <= 1e-8 * scale

    def test_variance_checks(self):
        op = IntegralOp(30)
        with pytest.raises(ValueError):
            op.apply(spaces.zeros(op.domain_space, DUAL))
        with pytest.raises(ValueError):
            op.adjoint(
                spaces.zeros(op.domain_space),
                spaces.zeros(op.range_space, spaces.PRIMAL),
            )


def make_elliptic(nx=20, ny=20):
    """Elliptic operator whose exact state for c(x,y)=x+y is u=x+y."""
    space = spaces.GridSpace.rectangle(nx, ny)
    xs, ys = space.coords()
    g = xs + ys
    c_true = xs + ys
    f = c_true * (xs + ys)
    op = EllipticOp(nx, ny, f=f, g=g)
    return op, GridFn(space, c_true)


class TestEllipticOp:
    def test_harmonic_exact_solution(self):
        # u = x + y is discretely harmonic, so the 5-point scheme reproduces
        # it to machine precision.
        op, c = make_elliptic()
        u = op.apply(c)
        xs, ys = op.range_space.coords()
        assert np.max(np.abs(u.values - (xs + ys))) <= 1e-12

    def test_zero_coefficient_pure_laplace(self):
        # -Lap(u) = 0 with boundary data x+y has solution x+y.
        space = spaces.GridSpace.rectangle(16, 16)
        xs, ys = space.coords()
        op = EllipticOp(16, 16, f=np.zeros(space.size), g=xs + ys)
        u = op.apply(spaces.zeros(space))
        assert np.max(np.abs(u.values - (xs + ys))) <= 1e-12

    def test_maximum_principle(self):
        # with c >= 0 and f = 0 the solution attains its extrema on the
        # boundary (discrete maximum principle)
        space = spaces.GridSpace.rectangle(16, 16)
        xs, ys = space.coords()
        g = np.sin(3 * xs) + np.cos(2 * ys)
        op = EllipticOp(16, 16, f=np.zeros(space.size), g=g)
        c = GridFn(space, np.abs(np.sin(xs * ys)) + 0.1)
        u = op.apply(c).values.reshape(space.dims)
        boundary = np.concatenate([u[0, :], u[-1, :], u[:, 0], u[:, -1]])
        assert u.max() <= boundary.max() + 1e-12
        assert u.min() >= boundary.min() - 1e-12

    def test_adjoint_consistency(self):
        op, c = make_elliptic()
        rng = np.random.default_rng(2)
        for _ in range(10):
            gap, scale = adjoint_gap(op, c, rng)
            assert gap <= 1e-8 * scale

    def test_taylor_second_order(self):
        op, c = make_elliptic()
        rng = np.random.default_rng(3)
        h = random_fn(op.domain_space, rng)
        h = (1.0 / norm(h)) * h
        assert taylor_slope(op, c, h) >= 1.9

    @pytest.mark.parametrize("nx, ny", [(12, 7), (7, 12)])
    def test_non_square_grid(self, nx, ny):
        # hx != hy, so the two axes' spacings and node counts must not swap.
        # The 5-point stencil is exact on quadratics, and -Lap(u) = -8 needs
        # each second difference scaled by its own axis' spacing.
        space = spaces.GridSpace.rectangle(nx, ny)
        xs, ys = space.coords()
        u = xs**2 + 3 * ys**2
        c = GridFn(space, 1 + xs * ys)
        op = EllipticOp(nx, ny, f=c.values * u - 8.0, g=u)
        assert np.max(np.abs(op.apply(c).values - u)) <= 1e-12
        rng = np.random.default_rng(5)
        for _ in range(5):
            gap, scale = adjoint_gap(op, c, rng)
            assert gap <= 1e-8 * scale

    @pytest.mark.parametrize("nx, ny", [(12, 7), (7, 12)])
    def test_indefinite_system_solved_exactly(self, nx, ny):
        # c = -30 lies below -lambda_min(-Lap_h) ~ -2 pi^2, so -Lap + c is
        # indefinite but nonsingular, as at a line-search trial point; the
        # factorization must still reach the exact state.
        space = spaces.GridSpace.rectangle(nx, ny)
        xs, ys = space.coords()
        u = xs**2 + 3 * ys**2
        c = GridFn(space, np.full(space.size, -30.0))
        op = EllipticOp(nx, ny, f=c.values * u - 8.0, g=u)
        assert np.max(np.abs(op.apply(c).values - u)) <= 1e-11

    def test_singular_system_raises_operator_error(self):
        # One interior node, where -Lap has diagonal 4/h^2 = 16: c = -16
        # makes the 1x1 system exactly zero.
        op = EllipticOp(2, 2)
        c = GridFn(op.domain_space, np.full(op.domain_space.size, -16.0))
        with pytest.raises(OperatorError, match="singular"):
            op.apply(c)

    def test_factorization_cache_reuse(self):
        op, c = make_elliptic()
        op.apply(c)
        lu1, _ = op._factorization(c)
        lu2, _ = op._factorization(c)
        assert lu1 is lu2
        rng = np.random.default_rng(4)
        c2 = c + 0.1 * random_fn(op.domain_space, rng)
        lu3, _ = op._factorization(c2)
        assert lu3 is not lu1

    def test_failed_factorization_is_wrapped(self, monkeypatch):
        # a RuntimeError of the factorization reaches callers as OperatorError
        from nitreg import operators as ops_mod

        op, c = make_elliptic(8, 8)

        def boom(*args, **kwargs):
            raise RuntimeError("singular")

        monkeypatch.setattr(ops_mod.spla, "splu", boom)
        with pytest.raises(OperatorError, match="elliptic solve failed: singular"):
            op.apply(c)


class TestEstimateEta:
    def test_linear_operator_is_zero(self):
        op = IntegralOp(40)
        x0 = spaces.zeros(op.domain_space)
        assert estimate_eta(op, x0, radius=1.0, samples=5) == 0.0

    def test_elliptic_small_radius_small_eta(self):
        op, c = make_elliptic()
        eta = estimate_eta(op, c, radius=1e-4, samples=10, seed=0)
        assert 0.0 <= eta <= 1e-4

    def test_elliptic_eta_grows_with_radius(self):
        op, c = make_elliptic()
        small = estimate_eta(op, c, radius=1e-3, samples=20, seed=1)
        large = estimate_eta(op, c, radius=0.5, samples=20, seed=1)
        assert large > small
        assert large < 1.0

    def test_rejects_bad_samples(self):
        op = IntegralOp(10)
        with pytest.raises(ValueError):
            estimate_eta(op, spaces.zeros(op.domain_space), 1.0, 0)

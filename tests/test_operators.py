import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from nitreg import operators, spaces
from nitreg.operators import EllipticOp, ForwardOp, IntegralOp, OperatorError
from nitreg.spaces import DUAL, PRIMAL, GridFn, norm, pairing


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


def assert_linearization(op, x, closures, rng):
    """The closures of `op.linearized(x)` give `deriv` and `adjoint` at x bit
    for bit, and satisfy <F'(x)h, w> = <h, F'(x)* w> to rounding."""
    deriv, adjoint = closures
    h = random_fn(op.domain_space, rng)
    w = random_fn(op.range_space, rng, DUAL)
    fh = GridFn(op.range_space, deriv(h.values))
    fw = GridFn(op.domain_space, adjoint(w.values), DUAL)
    assert np.array_equal(fh.values, op.deriv(x, h).values)
    assert np.array_equal(fw.values, op.adjoint(x, w).values)
    gap = abs(pairing(w, fh) - pairing(fw, h))
    assert gap <= 1e-13 * (norm(w) * norm(fh) + 1e-300)


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

    @pytest.mark.parametrize("n", [1, 2, 80, 400])
    def test_linearized_matches_deriv_and_adjoint(self, n):
        op = IntegralOp(n)
        rng = np.random.default_rng(n)
        x = random_fn(op.domain_space, rng)
        for _ in range(3):
            assert_linearization(op, x, op.linearized(x), rng)

    def test_adjoint_consistency(self):
        op = IntegralOp(120)
        rng = np.random.default_rng(1)
        x = random_fn(op.domain_space, rng)
        for _ in range(10):
            gap, scale = adjoint_gap(op, x, rng)
            assert gap <= 1e-13 * scale

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 80, 400])
    def test_equals_its_quadrature(self, integral_matrices, n, p):
        # the 3-point solve is the trapezoid rule of the closed-form kernel
        op = IntegralOp(n, p)
        A, Astar = integral_matrices(n)
        rng = np.random.default_rng(n)
        for _ in range(3):
            x, w = random_fn(op.domain_space, rng), random_fn(op.range_space, rng, DUAL)
            for out, exact in ((op.apply(x), A @ x.values), (op.adjoint(x, w), Astar @ w.values)):
                assert np.linalg.norm(out.values - exact) <= 1e-12 * np.linalg.norm(exact)
                if n == 1:  # no interior node: the kernel vanishes on the boundary
                    assert np.all(out.values == 0.0)

    def test_memory_is_linear_in_n(self):
        # a dense 4001x4001 kernel alone would take 128 MB
        tracemalloc.start()
        try:
            op = IntegralOp(4000)
            op.apply(GridFn(op.domain_space, np.ones(op.domain_space.size)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_variance_checks(self):
        op = IntegralOp(30)
        with pytest.raises(ValueError):
            op.apply(spaces.zeros(op.domain_space, DUAL))
        with pytest.raises(ValueError):
            op.adjoint(
                spaces.zeros(op.domain_space),
                spaces.zeros(op.range_space, spaces.PRIMAL),
            )


def dense_system(space, f, g, c):
    """The interior 5-point system of -Lap(u) + c u = f, u = g on the
    boundary, as a dense matrix, with g's boundary values lifted into the
    right-hand side."""
    (hx, hy), (mx, my) = space.spacings, (n - 2 for n in space.dims)

    def second_difference(m, h):
        return (2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) / h**2

    matrix = (np.kron(second_difference(mx, hx), np.eye(my))
              + np.kron(np.eye(mx), second_difference(my, hy))
              + np.diag(c.reshape(space.dims)[1:-1, 1:-1].ravel()))
    edge = g.reshape(space.dims).copy()
    edge[1:-1, 1:-1] = 0.0
    lift = ((edge[:-2, 1:-1] + edge[2:, 1:-1]) / hx**2
            + (edge[1:-1, :-2] + edge[1:-1, 2:]) / hy**2)
    return matrix, (f.reshape(space.dims)[1:-1, 1:-1] + lift).ravel()


def make_elliptic(nx=20, ny=20):
    """Elliptic operator whose exact state for c(x,y)=x+y is u=x+y."""
    space = spaces.GridSpace.rectangle(nx, ny)
    xs, ys = space.coords()
    g = xs + ys
    c_true = xs + ys
    f = c_true * (xs + ys)
    op = EllipticOp(nx, ny, f=f, g=g)
    return op, GridFn(space, c_true)


def test_upper_band_layout():
    # row kd + i - j of column j holds entry (i, j) of the upper triangle;
    # the entries outside the band are zero
    rng = np.random.default_rng(9)
    lower = np.tril(np.triu(rng.standard_normal((7, 7)), -2))
    dense = lower + lower.T
    band = operators.upper_band(sp.csc_matrix(dense))
    expected = np.zeros((3, 7))
    for i, j in zip(*np.triu_indices(7)):
        if j - i <= 2:
            expected[2 + i - j, j] = dense[i, j]
    assert np.array_equal(band, expected)


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

    def test_linearized_keeps_its_factor(self):
        # the closures at c still use c's factor after the cache moved to c2
        op, c = make_elliptic()
        rng = np.random.default_rng(8)
        c2 = c + 0.5 * GridFn(op.domain_space, rng.uniform(size=c.space.size))
        closures = [(x, op.linearized(x)) for x in (c, c2)]
        for x, lin in closures + closures[::-1]:
            assert_linearization(op, x, lin, rng)

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
        solve1, _ = op._factorization(c)
        solve2, _ = op._factorization(c)
        assert solve1 is solve2
        rng = np.random.default_rng(4)
        c2 = c + 0.1 * random_fn(op.domain_space, rng)
        solve3, _ = op._factorization(c2)
        assert solve3 is not solve1

    def test_failed_factorization_is_wrapped(self, monkeypatch):
        # Cholesky reports the system not positive definite, and the pivoted
        # LU it falls back to raises: callers see an OperatorError
        op, c = make_elliptic(8, 8)

        def not_positive_definite(ab, *args, **kwargs):
            return ab, 1

        def boom(*args, **kwargs):
            raise RuntimeError("singular")

        monkeypatch.setattr(operators.lapack, "dpbtrf", not_positive_definite)
        monkeypatch.setattr(operators.spla, "splu", boom)
        with pytest.raises(OperatorError, match="elliptic solve failed: singular"):
            op.apply(c)

    @pytest.mark.parametrize("nx, ny", [(40, 40), (20, 80)])
    def test_matches_dense_solves(self, nx, ny):
        # (20, 80) has the half-bandwidth of the 80x80 grid, 79, on a system
        # small enough to solve densely
        space = spaces.GridSpace.rectangle(nx, ny)
        xs, ys = space.coords()
        rng = np.random.default_rng(6)
        f, g = np.cos(3 * xs) * ys, xs - ys**2
        c = GridFn(space, 1.0 + np.sin(5 * xs * ys))
        op = EllipticOp(nx, ny, f=f, g=g)
        matrix, rhs = dense_system(space, f, g, c.values)
        inner = np.zeros(space.dims, dtype=bool)
        inner[1:-1, 1:-1] = True
        inner = inner.ravel()
        w = space.weights

        def close(got, want):
            return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

        u = g.copy()
        u[inner] = np.linalg.solve(matrix, rhs)
        assert close(op.apply(c).values, u)

        h, dual = random_fn(space, rng), random_fn(space, rng, DUAL)
        v = np.zeros(space.size)
        v[inner] = np.linalg.solve(matrix, -h.values[inner] * u[inner])
        assert close(op.deriv(c, h).values, v)

        z = np.zeros(space.size)
        z[inner] = -u[inner] * np.linalg.solve(matrix.T, (w * dual.values)[inner]) / w[inner]
        assert close(op.adjoint(c, dual).values, z)

    @pytest.mark.parametrize("nx, ny", [(2, 2), (9, 7), (40, 40)])
    def test_laplacian_is_the_five_point_stencil(self, nx, ny):
        # -Lap is D^T D of TV's forward differences; its interior rows must be
        # the 5-point stencil, built here from sp.kron as the reference
        space = spaces.GridSpace.rectangle(nx, ny)
        tx, ty = (sp.diags([-1.0, 2.0, -1.0], (-1, 0, 1), shape=(n, n)) / h**2
                  for n, h in zip(space.dims, space.spacings))
        five_point = sp.kron(tx, sp.identity(ny + 1)) + sp.kron(sp.identity(nx + 1), ty)
        inner = np.arange(space.size).reshape(space.dims)[1:-1, 1:-1].ravel()
        rows = five_point.tocsr()[inner]
        g = np.random.default_rng(10).standard_normal(space.size)
        op = EllipticOp(nx, ny, g=g)

        system, want = op._laplacian, rows[:, inner]
        assert abs(system - want).max() <= 1e-12 * abs(want).max()
        assert abs(system - system.T).max() == 0.0
        g[inner] = 0.0  # the boundary columns lift g
        lift = -(rows @ g)
        assert np.linalg.norm(op._rhs0 - lift) <= 1e-12 * np.linalg.norm(lift)

    def test_positive_coefficient_makes_no_lu(self, monkeypatch):
        def no_lu(*args, **kwargs):
            raise AssertionError("splu called for a positive definite system")

        monkeypatch.setattr(operators.spla, "splu", no_lu)
        op, c = make_elliptic()
        rng = np.random.default_rng(7)
        for coeff in (c, c + 0.5 * GridFn(op.domain_space, rng.uniform(size=c.space.size))):
            op.deriv(coeff, random_fn(op.domain_space, rng))
            op.adjoint(coeff, random_fn(op.range_space, rng, DUAL))

    def test_nan_coefficient_raises_operator_error(self):
        # GridFn refuses a NaN when it is built, so this one is written in
        # place; the factorization must still not return a state
        op, c = make_elliptic()
        c.values[c.space.size // 2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OperatorError):
                op.apply(c)


def estimate_eta(
    op: ForwardOp,
    x0: GridFn,
    radius: float,
    samples: int,
    seed: int = 0,
) -> float:
    """Sampled estimate of the tangential-cone constant around x0.

    Maximizes ||F(xb) - F(x) - F'(x)(xb - x)|| / ||F(xb) - F(x)|| over random
    pairs in the ball; degenerate pairs with F(xb) = F(x) are skipped.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if op.is_linear:
        return 0.0
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        pair = []
        for _i in range(2):
            e = rng.standard_normal(x0.space.size)
            step = GridFn(x0.space, e, PRIMAL)
            step = (radius * rng.uniform() / max(norm(step), 1e-300)) * step
            pair.append(x0 + step)
        xb, x = pair
        fxb, fx = op.apply(xb), op.apply(x)
        den = norm(fxb - fx)
        if den < 1e-14:
            continue
        num = norm(fxb - fx - op.deriv(x, xb - x))
        best = max(best, num / den)
    return best


class TestEstimateEta:
    """Paper's tangential-cone condition: ||F(x̄) − F(x) − F'(x)(x̄ − x)|| ≤ η ||F(x̄) − F(x)||."""

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

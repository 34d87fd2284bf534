import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import assert_band_of
from scipy.linalg import lapack

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


def record_lapack(monkeypatch, *names):
    """Make the named LAPACK routines record each call, by name, in the returned list."""
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(lapack, name, counted(name, getattr(lapack, name)))
    return calls


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

    @pytest.mark.parametrize("zero_residual", [False, True], ids=["residual", "zero_residual"])
    @pytest.mark.parametrize("p", [1.5, 2.0])
    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
    def test_newton_inverse_inverts_the_dense_newton_matrix(self, integral_matrices, r, p,
                                                            zero_residual):
        # W A* S A + D, S = scale (I + rank1 res <res, .>) the J_r' model of
        # inner_cg._newton_direction, assembled from the quadrature oracle
        rng = np.random.default_rng(7)
        for n in (1, 2, 40):
            op = IntegralOp(n, p)
            space, w = op.domain_space, op.domain_space.weights
            x = random_fn(space, rng)
            diag = rng.uniform(1e-4, 1.0, space.size) * w
            res = np.zeros(space.size) if zero_residual else rng.standard_normal(space.size)
            rn = norm(GridFn(space, res))
            scale = rn ** (r - 2.0) if rn > 0.0 else float(r == 2.0)
            rank1 = (r - 2.0) / rn**2 if rn > 0.0 else 0.0
            A, Astar = integral_matrices(n)
            jr = scale * (np.eye(space.size) + rank1 * np.outer(res, w * res))
            newton = w[:, None] * (Astar @ jr @ A) + np.diag(diag)
            inverse = op.newton_inverse(x, diag, scale, rank1, res)
            for _ in range(3):
                v = rng.standard_normal(space.size)
                exact = np.linalg.solve(newton, v)
                assert np.linalg.norm(inverse(v) - exact) <= 1e-10 * np.linalg.norm(exact)

    def test_newton_inverse_at_r2_solves_no_rank_one_term(self, monkeypatch):
        # at r = 2, rank1 = 0: one factorization, and no Sherman–Morrison solve
        op = IntegralOp(40)
        space = op.domain_space
        calls = record_lapack(monkeypatch, "dpbtrf", "dpbtrs")
        res = np.random.default_rng(5).standard_normal(space.size)
        inverse = op.newton_inverse(spaces.zeros(space), space.weights, 1.0, 0.0, res)
        assert calls == ["dpbtrf"]
        inverse(res)
        assert calls == ["dpbtrf", "dpbtrs"]

    def test_solves_the_tridiagonal_system_by_pttrs(self, monkeypatch):
        # F, F'(x) and F'(x)* each make one tridiagonal LDL^T solve, no banded one
        op = IntegralOp(40)
        rng = np.random.default_rng(6)
        x, v = random_fn(op.domain_space, rng), rng.standard_normal(op.domain_space.size)
        calls = record_lapack(monkeypatch, "dpbtrs", "dpttrs")
        op.apply(x)
        deriv, adjoint = op.linearized(x)
        deriv(v)
        adjoint(v)
        assert calls == ["dpttrs"] * 3

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


def random_sparse(rows, n, rng):
    return sp.random(rows, n, density=0.3, format="csr", random_state=rng)


@pytest.mark.parametrize("case", ["same", "swapped", "no terms"])
def test_weighted_product_matches_dense(case):
    # CSR data and band of L^T diag(w) R against the dense product; "swapped" is
    # L = [P; Q], R = [Q; P] with equal weights on both halves, as TV's cross terms
    rng = np.random.default_rng(12)
    n, p, q = 9, random_sparse(14, 9, rng), random_sparse(14, 9, rng)
    left, right, w = {
        "same": (p, p, rng.standard_normal(14)),
        "swapped": (sp.vstack([p, q]), sp.vstack([q, p]), np.tile(rng.standard_normal(14), 2)),
        "no terms": (sp.csr_matrix((0, n)), sp.csr_matrix((0, n)), np.zeros(0)),
    }[case]
    indptr, indices, data_map, band_map = operators.weighted_product(left, right)
    dense = left.T.toarray() @ np.diag(w) @ right.toarray()
    matrix = sp.csr_matrix((data_map @ w, indices, indptr), (n, n))
    assert matrix.has_canonical_format
    assert np.linalg.norm(matrix.toarray() - dense) <= 1e-13 * np.linalg.norm(dense)
    assert_band_of((band_map @ w).reshape((-1, n), order="F"), dense)


@pytest.mark.parametrize("layout", ["flat", "2-D"])
@pytest.mark.parametrize("kd", [0, 1, 2])
def test_banded_cholesky_matches_dense_solve(kd, layout):
    # a random SPD matrix of half-bandwidth kd: its upper band, flat or F-ordered 2-D,
    # holding part of the main diagonal, and the rest passed as diag
    rng = np.random.default_rng(16 + kd)
    n = 9
    upper = np.triu(rng.standard_normal((n, n)))
    upper -= np.triu(upper, kd + 1)  # entries i <= j <= i + kd
    dense = upper + np.triu(upper, 1).T
    diag = np.abs(dense).sum(axis=1) + 1.0  # diagonally dominant with dense's own diagonal
    band = np.zeros((kd + 1, n), order="F")
    for i, j in zip(*np.triu_indices(n)):
        if j - i <= kd:
            band[kd + i - j, j] = dense[i, j]
    b = rng.standard_normal(n)
    want = np.linalg.solve(dense + np.diag(diag), b)
    got = operators.banded_cholesky(band.ravel(order="F") if layout == "flat" else band, diag)(b)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_banded_cholesky_of_an_empty_matrix_is_the_identity():
    b = np.zeros(0)
    assert operators.banded_cholesky(np.zeros(0), np.zeros(0))(b) is b


def test_banded_cholesky_raises_if_not_positive_definite():
    band = np.array([0.0, 0.0, 2.0, 0.0])  # [[1, 2], [2, 1]]: its off-diagonal band, flat
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        operators.banded_cholesky(band, np.ones(2))


class TestEllipticOp:
    def test_has_no_newton_inverse(self):
        # its Newton–CG keeps the penalty Hessian as preconditioner
        op, c = make_elliptic()
        n = op.domain_space.size
        assert op.newton_inverse(c, np.ones(n), 1.0, 0.0, np.zeros(n)) is None

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

    @pytest.mark.parametrize("nx, ny", [(20, 20), (1, 1), (1, 4), (3, 1)])
    def test_adjoint_consistency(self, nx, ny):
        # (1, 1), (1, 4) and (3, 1) have no interior node: both maps are zero
        op, c = make_elliptic(nx, ny)
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

    @pytest.mark.parametrize("nx, ny, coeff", [
        (12, 7, -30.0), (7, 12, -30.0),
        # one interior node, where -Lap has diagonal 4/h^2 = 16: c = -16
        # makes the 1x1 system exactly zero
        (2, 2, -16.0),
    ], ids=["12-7", "7-12", "2-2"])
    def test_indefinite_system_raises_operator_error(self, nx, ny, coeff):
        # c = -30 lies below -lambda_min(-Lap_h) ~ -2 pi^2, so -Lap + c is
        # indefinite, as at a line-search trial point: F is not defined there
        op = EllipticOp(nx, ny)
        c = GridFn(op.domain_space, np.full(op.domain_space.size, coeff))
        with pytest.raises(OperatorError, match="not positive definite"):
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
        # Cholesky reports the system not positive definite: callers see an
        # OperatorError
        op, c = make_elliptic(8, 8)

        def not_positive_definite(ab, *args, **kwargs):
            return ab, 1

        monkeypatch.setattr(operators.lapack, "dpbtrf", not_positive_definite)
        with pytest.raises(OperatorError, match="elliptic solve failed: .*not positive definite"):
            op.apply(c)

    @pytest.mark.parametrize("nx, ny", [(40, 40), (20, 80), (2, 2), (3, 3), (9, 7), (12, 7),
                                        (1, 1), (1, 4), (3, 1)])
    def test_matches_dense_solves(self, nx, ny):
        # (20, 80) has the half-bandwidth of the 80x80 grid, 79, on a system
        # small enough to solve densely; (2, 2) has one interior node and no
        # red one, and on (9, 7) and (12, 7) the black and red counts differ
        # and hx != hy; (1, 1), (1, 4) and (3, 1) have no interior node, so
        # F(c) = g and both maps are zero
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

    @pytest.mark.parametrize("nx, ny", [(2, 2), (3, 3), (9, 7), (12, 7)])
    def test_schur_band_map_matches_dense(self, nx, ny):
        # the map from w to the band of -E diag(w) E^T; (2, 2) has no red node
        op = EllipticOp(nx, ny)
        e = op._coupling.toarray()
        w = np.random.default_rng(13).uniform(0.5, 2.0, e.shape[1])
        band = (op._band_map @ w).reshape((-1, e.shape[0]), order="F")
        assert_band_of(band, -e @ np.diag(w) @ e.T)

    @pytest.mark.parametrize("nx, ny", [(2, 2), (9, 7), (40, 40)])
    def test_laplacian_is_the_five_point_stencil(self, nx, ny):
        # -Lap is D^T D of TV's forward differences; its interior rows must be
        # the 5-point stencil, built here from sp.kron as the reference
        space = spaces.GridSpace.rectangle(nx, ny)
        tx, ty = (sp.diags([-1.0, 2.0, -1.0], (-1, 0, 1), shape=(n, n)) / h**2
                  for n, h in zip(space.dims, space.spacings))
        five_point = sp.kron(tx, sp.identity(ny + 1)) + sp.kron(sp.identity(nx + 1), ty)
        g = np.random.default_rng(10).standard_normal(space.size)
        op = EllipticOp(nx, ny, g=g)
        inner = op._inner  # the operator's node order
        interior = np.arange(space.size).reshape(space.dims)[1:-1, 1:-1].ravel()
        assert np.array_equal(np.sort(inner), interior)
        rows = five_point.tocsr()[inner]

        system, want = op._laplacian, rows[:, inner]
        assert abs(system - want).max() <= 1e-12 * abs(want).max()
        assert abs(system - system.T).max() == 0.0
        g[inner] = 0.0  # the boundary columns lift g
        lift = -(rows @ g)
        assert np.linalg.norm(op._rhs0 - lift) <= 1e-12 * np.linalg.norm(lift)

    @pytest.mark.parametrize("nx, ny", [(8, 8), (9, 7)])
    def test_one_factorization_of_half_the_unknowns(self, monkeypatch, nx, ny):
        # only the black Schur complement is factored: one dpbtrf per new c,
        # on ceil(m / 2) columns, m the number of interior nodes
        op, c = make_elliptic(nx, ny)
        columns = []
        dpbtrf = operators.lapack.dpbtrf

        def counting(ab, *args, **kwargs):
            columns.append(ab.shape[1])
            return dpbtrf(ab, *args, **kwargs)

        monkeypatch.setattr(operators.lapack, "dpbtrf", counting)
        rng = np.random.default_rng(11)
        for x in (c, c + 0.1 * random_fn(op.domain_space, rng)):
            op.apply(x)
            op.deriv(x, random_fn(op.domain_space, rng))
            op.adjoint(x, random_fn(op.range_space, rng, DUAL))
        m = (nx - 1) * (ny - 1)
        assert columns == [(m + 1) // 2] * 2

    def test_freed_without_the_cycle_collector(self):
        # the cached solve must not hold the operator: a reference cycle
        # through _cache keeps every operator built by a set-up alive until a
        # collection, which raised the benchmark's peak memory by a third
        op, c = make_elliptic(8, 8)
        op.apply(c)
        alive = weakref.ref(op)
        gc.disable()
        try:
            del op
            assert alive() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("pivot", ["zero", "nan"])
    def test_failing_red_pivot_raises_operator_error(self, pivot):
        # a red node whose diagonal d_r + c_r is 0 or NaN: A is not positive
        # definite, which is found before any division by it
        op, c = make_elliptic(9, 7)
        (hx, hy), red = op.domain_space.spacings, op.domain_space.dims[1] + 2  # node (1, 2): i + j odd
        c.values[red] = -(2 / hx**2 + 2 / hy**2) if pivot == "zero" else np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OperatorError, match="not positive definite"):
                op.apply(c)

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

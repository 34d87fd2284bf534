import numpy as np
import pytest
from conftest import assert_band_of

from nitreg import penalties, spaces
from nitreg.penalties import Penalty
from nitreg.spaces import GridFn, GridSpace, norm, pairing


@pytest.fixture
def line():
    return GridSpace.interval(200)


@pytest.fixture
def square():
    return GridSpace.rectangle(24, 24)


def random_fn(space, rng):
    return GridFn(space, rng.standard_normal(space.size))


def fd_gradient_check(theta, x, rng, h=1e-6):
    """Relative error of <grad, d> against a central difference."""
    g = penalties.gradient(theta, x)
    d = random_fn(x.space, rng)
    d = (1.0 / norm(d)) * d
    directional = pairing(g, d)
    fp = penalties.value(theta, x + h * d)
    fm = penalties.value(theta, x - h * d)
    approx = (fp - fm) / (2 * h)
    return abs(directional - approx) / max(1.0, abs(approx))


class TestValidation:
    def test_requires_positive_mu(self):
        with pytest.raises(ValueError):
            Penalty(mu=0.0)

    def test_requires_eps_with_l1_term(self):
        with pytest.raises(ValueError):
            Penalty(mu=1.0, a=1.0, eps=0.0)


class TestQuadratic:
    def test_value_on_constant_one(self, line):
        theta = Penalty(mu=0.5)
        one = GridFn(line, np.ones(line.size))
        assert penalties.value(theta, one) == pytest.approx(0.5)

    def test_value_is_mu_norm_squared(self, line):
        theta = Penalty(mu=2.0)
        rng = np.random.default_rng(0)
        x = random_fn(line, rng)
        assert penalties.value(theta, x) == pytest.approx(
            2.0 * norm(x) ** 2, rel=1e-12
        )

    def test_gradient_is_2mu_x(self, line):
        theta = Penalty(mu=3.0)
        rng = np.random.default_rng(1)
        x = random_fn(line, rng)
        g = penalties.gradient(theta, x)
        assert g.variance == spaces.DUAL
        assert np.allclose(g.values, 6.0 * x.values, rtol=1e-12)

    def test_bregman_is_mu_distance_squared(self, line):
        theta = Penalty(mu=1.5)
        rng = np.random.default_rng(2)
        x, xbar = random_fn(line, rng), random_fn(line, rng)
        d = penalties.bregman(theta, xbar, x, penalties.gradient(theta, x))
        assert d == pytest.approx(1.5 * norm(xbar - x) ** 2, rel=1e-10)


class TestL2L1:
    def test_value_on_constant(self, line):
        theta = Penalty(mu=1.0, a=1.0, eps=1e-4)
        one = GridFn(line, np.ones(line.size))
        assert penalties.value(theta, one) == pytest.approx(
            1.0 + np.sqrt(1 + 1e-4), rel=1e-12
        )

    def test_gradient_finite_difference(self, line):
        theta = Penalty(mu=1.0, a=0.5, eps=1e-3)
        rng = np.random.default_rng(3)
        for _ in range(5):
            assert fd_gradient_check(theta, random_fn(line, rng), rng) <= 1e-6

    def test_smoothing_monotonicity(self, line):
        # value decreases toward mu|x|_2^2 + a|x|_1 as eps decreases
        rng = np.random.default_rng(4)
        x = random_fn(line, rng)
        vals = [
            penalties.value(Penalty(mu=1.0, a=1.0, eps=e), x)
            for e in (1e-2, 1e-4, 1e-6)
        ]
        assert vals[0] > vals[1] > vals[2]
        sharp = norm(x) ** 2 + np.sum(line.weights * np.abs(x.values))
        assert vals[2] == pytest.approx(sharp, rel=1e-3)
        assert vals[2] >= sharp


class TestL2TV:
    def test_value_on_constant_1d(self, line):
        # constant function: gradient term reduces to b*sqrt(eps)*|domain|
        theta = Penalty(mu=1.0, b=2.0, eps=1e-4)
        c = GridFn(line, np.full(line.size, 3.0))
        assert penalties.value(theta, c) == pytest.approx(
            9.0 + 2.0 * np.sqrt(1e-4), rel=1e-10
        )

    def test_tv_of_ramp_1d(self, line):
        # linear ramp x(t)=t has |x'| = 1 everywhere
        theta = Penalty(mu=1e-12, b=1.0, eps=1e-12)
        ramp = GridFn(line, line.axis_nodes(0))
        assert penalties.value(theta, ramp) == pytest.approx(1.0, rel=1e-6)

    def test_tv_of_plane_2d(self, square):
        # x(s,t)=s+t has |grad| = sqrt(2) everywhere
        theta = Penalty(mu=1e-12, b=1.0, eps=1e-12)
        xs, ys = square.coords()
        plane = GridFn(square, xs + ys)
        assert penalties.value(theta, plane) == pytest.approx(np.sqrt(2.0), rel=1e-6)

    def test_gradient_finite_difference_1d(self, line):
        theta = Penalty(mu=1.0, b=0.5, eps=1e-3)
        rng = np.random.default_rng(5)
        for _ in range(5):
            assert fd_gradient_check(theta, random_fn(line, rng), rng) <= 1e-5

    def test_gradient_finite_difference_2d(self, square):
        theta = Penalty(mu=1.0, b=0.5, eps=1e-3)
        rng = np.random.default_rng(6)
        for _ in range(5):
            assert fd_gradient_check(theta, random_fn(square, rng), rng) <= 1e-5

    def test_smoothing_monotonicity(self, square):
        rng = np.random.default_rng(7)
        x = random_fn(square, rng)
        vals = [
            penalties.value(Penalty(mu=1.0, b=1.0, eps=e), x)
            for e in (1e-2, 1e-4, 1e-6)
        ]
        assert vals[0] > vals[1] > vals[2]


PENALTY_CASES = [
    Penalty(mu=1.0),
    Penalty(mu=0.7, a=1.0, eps=1e-3),
    Penalty(mu=0.7, b=1.0, eps=1e-3),
]
PENALTY_IDS = ["quadratic", "l2_l1", "l2_tv"]


class TestConvexity:
    @pytest.mark.parametrize("theta", PENALTY_CASES, ids=PENALTY_IDS)
    def test_midpoint_uniform_convexity(self, theta):
        # Theta((x+y)/2) <= (Theta(x)+Theta(y))/2 - (mu/4)|x-y|^2: the
        # quadratic part makes every penalty uniformly convex.
        space = GridSpace.interval(120)
        rng = np.random.default_rng(8)
        for _ in range(10):
            x, y = random_fn(space, rng), random_fn(space, rng)
            mid = 0.5 * (x + y)
            gap = (
                0.5 * (penalties.value(theta, x) + penalties.value(theta, y))
                - penalties.value(theta, mid)
                - 0.25 * theta.mu * norm(x - y) ** 2
            )
            assert gap >= -1e-12

    @pytest.mark.parametrize("theta", PENALTY_CASES, ids=PENALTY_IDS)
    def test_bregman_lower_bound(self, theta):
        # D_xi Theta(xbar, x) >= mu |xbar - x|^2
        space = GridSpace.interval(120)
        rng = np.random.default_rng(9)
        for _ in range(10):
            x, xbar = random_fn(space, rng), random_fn(space, rng)
            d = penalties.bregman(theta, xbar, x, penalties.gradient(theta, x))
            assert d >= theta.mu * norm(xbar - x) ** 2 - 1e-10


def three_point(theta, x2, x1, x, xi1, xi):
    """Residual of the three-point Bregman identity; ~0 up to roundoff."""
    lhs = penalties.bregman(theta, x2, x, xi) - penalties.bregman(theta, x1, x, xi)
    rhs = penalties.bregman(theta, x2, x1, xi1) + pairing(xi1 - xi, x2 - x1)
    return abs(lhs - rhs)


class TestThreePoint:
    @pytest.mark.parametrize("theta", PENALTY_CASES, ids=PENALTY_IDS)
    def test_identity_residual_small(self, theta):
        space = GridSpace.interval(100)
        rng = np.random.default_rng(10)
        for _ in range(10):
            x, x1, x2 = (random_fn(space, rng) for _ in range(3))
            xi = penalties.gradient(theta, x)
            xi1 = penalties.gradient(theta, x1)
            assert three_point(theta, x2, x1, x, xi1, xi) <= 1e-10


class TestHessian:
    @pytest.mark.parametrize("theta", PENALTY_CASES[1:], ids=PENALTY_IDS[1:])
    @pytest.mark.parametrize("space", [GridSpace.interval(60), GridSpace.rectangle(9, 7)],
                             ids=["1d", "2d"])
    def test_finite_difference_of_gradient(self, theta, space):
        # the Euclidean gradient is W times the dual representation
        rng = np.random.default_rng(11)
        x, d = random_fn(space, rng), random_fn(space, rng)
        h = 1e-7  # the truncation error dominates down to here
        fd = space.weights * (penalties.gradient(theta, x + h * d)
                              - penalties.gradient(theta, x - h * d)).values / (2 * h)
        hd = (penalties.pointwise_hessian(theta, x) * d.values
              + penalties.tv_hessian(theta, x)[0] @ d.values)
        assert np.linalg.norm(hd - fd) <= 1e-7 * np.linalg.norm(fd)

    @pytest.mark.parametrize("space", [GridSpace.interval(60), GridSpace.rectangle(9, 7)],
                             ids=["1d", "2d"])
    def test_tv_hessian_matches_dense(self, space):
        # b * area * D^T A D with the per-cell block A = I/m - sym(cell d^T)/m^2,
        # built densely from the differences, for a field with |cell| < 1
        theta = Penalty(mu=1.0, b=0.7, eps=1e-2)
        rng = np.random.default_rng(14)
        x = random_fn(space, rng)
        diff = spaces.differences(space).toarray()
        k = len(space.dims)
        d = (diff @ x.values).reshape(k, -1)
        m = np.sqrt((d * d).sum(axis=0) + theta.eps)
        cell = rng.uniform(-1.0, 1.0, d.shape) / np.sqrt(k)
        a = np.block([[np.diag(float(i == j) / m - (cell[i] * d[j] + cell[j] * d[i]) / (2 * m**2))
                       for j in range(k)] for i in range(k)])
        dense = theta.b * np.prod(space.spacings) * diff.T @ a @ diff
        matrix, band = penalties.tv_hessian(theta, x, cell)
        assert np.linalg.norm(matrix.toarray() - dense) <= 1e-13 * np.linalg.norm(dense)
        assert_band_of(band.reshape((-1, space.size), order="F"), dense)

    def test_finite_for_a_huge_eps(self):
        # eps / (v^2 + eps)^1.5 must not overflow in the power
        theta = Penalty(mu=1.0, a=1.0, eps=1e300)
        for space in (GridSpace.interval(60), GridSpace.rectangle(9, 7)):
            x = GridFn(space, np.linspace(-1.0, 1.0, space.size))
            assert np.all(np.isfinite(penalties.pointwise_hessian(theta, x)))

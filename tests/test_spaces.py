import numpy as np
import pytest

from nitreg import spaces
from nitreg.spaces import (
    GridFn,
    GridSpace,
    bregman_norm,
    duality_map,
    norm,
    pairing,
)


@pytest.fixture
def interval():
    return GridSpace.interval(400)


def random_fn(space, rng, variance=spaces.PRIMAL):
    return GridFn(space, rng.standard_normal(space.size), variance)


class TestWeights:
    def test_sum_to_domain_measure_1d(self, interval):
        assert abs(interval.weights.sum() - 1.0) <= 1e-12

    def test_sum_to_domain_measure_2d(self):
        space = GridSpace.rectangle(40, 40)
        assert abs(space.weights.sum() - 1.0) <= 1e-12

    def test_trapezoid_structure(self):
        space = GridSpace.interval(10)
        h = 0.1
        assert space.weights[0] == pytest.approx(h / 2)
        assert space.weights[-1] == pytest.approx(h / 2)
        assert np.allclose(space.weights[1:-1], h)

    def test_2d_weights_are_tensor_products(self):
        space = GridSpace.rectangle(4, 6)
        wx = spaces._trapezoid_weights(5)
        wy = spaces._trapezoid_weights(7)
        assert np.allclose(space.weights, np.outer(wx, wy).ravel())

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            GridSpace.interval(10, p=1.0)

    def test_one_node_axis_rejected(self):
        # a single node has no spacing, so no trapezoidal weights
        with pytest.raises(ValueError, match="at least 2 nodes"):
            GridSpace((1,))


class TestGridFn:
    def test_rejects_wrong_length(self, interval):
        with pytest.raises(ValueError):
            GridFn(interval, np.zeros(interval.size - 1))

    def test_rejects_non_finite(self, interval):
        vals = np.zeros(interval.size)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            GridFn(interval, vals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", [0, 200, -1], ids=["first", "middle", "last"])
    def test_rejects_each_non_finite_value_at_each_node(self, interval, bad, where):
        vals = np.random.default_rng(6).standard_normal(interval.size)
        vals[where] = bad
        with pytest.raises(ValueError, match="^GridFn values must be finite$"):
            GridFn(interval, vals)

    @pytest.mark.parametrize("extreme", [1.7976931348623157e308, -1.7976931348623157e308,
                                         5e-324, -5e-324, 2.2250738585072014e-308, -0.0],
                             ids=["max", "-max", "subnormal", "-subnormal", "tiny", "-0"])
    def test_accepts_every_finite_value(self, interval, extreme):
        # the finiteness test is one dot with zeros: finite * 0 is +-0, never NaN
        vals = np.full(interval.size, extreme)
        vals[::3] = -extreme
        assert np.array_equal(GridFn(interval, vals).values, vals)

    def test_mixed_variance_arithmetic_rejected(self, interval):
        x = spaces.zeros(interval)
        xi = spaces.zeros(interval, spaces.DUAL)
        with pytest.raises(ValueError):
            x + xi


class TestNorm:
    def test_constant_one(self, interval):
        assert norm(GridFn(interval, np.ones(interval.size))) == pytest.approx(1.0)

    def test_zero(self, interval):
        assert norm(spaces.zeros(interval)) == 0.0

    def test_linear_ramp(self, interval):
        f = GridFn(interval, interval.axis_nodes(0))
        assert norm(f) == pytest.approx(1 / np.sqrt(3), abs=1e-4)

    def test_dual_uses_conjugate_exponent(self):
        space = GridSpace.interval(50, p=3.0)
        vals = np.random.default_rng(0).standard_normal(space.size)
        f_dual = GridFn(space, vals, spaces.DUAL)
        expected = np.sum(space.weights * np.abs(vals) ** 1.5) ** (1 / 1.5)
        assert norm(f_dual) == pytest.approx(expected, rel=1e-12)


class TestPairing:
    def test_ones(self, interval):
        xi = GridFn(interval, np.ones(interval.size), spaces.DUAL)
        x = GridFn(interval, np.ones(interval.size))
        assert pairing(xi, x) == pytest.approx(1.0)

    def test_zero(self, interval):
        xi = spaces.zeros(interval, spaces.DUAL)
        rng = np.random.default_rng(1)
        assert pairing(xi, random_fn(interval, rng)) == 0.0

    def test_matches_independent_summation(self, interval):
        rng = np.random.default_rng(2)
        xi = random_fn(interval, rng, spaces.DUAL)
        x = random_fn(interval, rng)
        brute = sum(
            float(w) * float(a) * float(b)
            for w, a, b in zip(interval.weights, xi.values, x.values)
        )
        assert pairing(xi, x) == pytest.approx(brute, rel=1e-13)

    def test_space_mismatch(self, interval):
        other = GridSpace.interval(10)
        with pytest.raises(ValueError):
            pairing(spaces.zeros(other, spaces.DUAL), spaces.zeros(interval))


class TestDualityMap:
    def test_identity_for_p2_r2(self, interval):
        rng = np.random.default_rng(3)
        f = random_fn(interval, rng)
        assert np.allclose(duality_map(f, 2.0).values, f.values)

    def test_zero_input(self, interval):
        j = duality_map(spaces.zeros(interval), 3.0)
        assert np.all(j.values == 0.0)
        assert j.variance == spaces.DUAL

    def test_r4_scaling(self, interval):
        rng = np.random.default_rng(4)
        f = random_fn(interval, rng)
        f = (2.0 / norm(f)) * f
        j = duality_map(f, 4.0)
        assert np.allclose(j.values, 4.0 * f.values, rtol=1e-12)
        assert pairing(j, f) == pytest.approx(16.0, rel=1e-12)

    def test_invalid_gauge(self, interval):
        with pytest.raises(ValueError):
            duality_map(spaces.zeros(interval), 1.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
    def test_defining_identities(self, p, r):
        space = GridSpace.interval(60, p=p)
        rng = np.random.default_rng(int(10 * p + r))
        for _ in range(20):
            f = random_fn(space, rng)
            j = duality_map(f, r)
            nf = norm(f)
            assert abs(norm(j) - nf ** (r - 1)) <= 1e-10 * (1 + nf ** (r - 1))
            assert abs(pairing(j, f) - nf**r) <= 1e-10 * (1 + nf**r)


class TestBregmanNorm:
    def test_self_distance(self, interval):
        rng = np.random.default_rng(5)
        f = random_fn(interval, rng)
        assert bregman_norm(f, f, 2.5) == pytest.approx(0.0, abs=1e-14)

    def test_hilbert_case_is_half_squared_distance(self, interval):
        rng = np.random.default_rng(6)
        fbar, f = random_fn(interval, rng), random_fn(interval, rng)
        assert bregman_norm(fbar, f, 2.0) == pytest.approx(
            0.5 * norm(fbar - f) ** 2, rel=1e-10
        )

    def test_r3_nonnegative_and_matches_definition(self, interval):
        rng = np.random.default_rng(7)
        for _ in range(10):
            fbar, f = random_fn(interval, rng), random_fn(interval, rng)
            d = bregman_norm(fbar, f, 3.0)
            by_terms = (
                norm(fbar) ** 3 / 3
                - norm(f) ** 3 / 3
                - pairing(duality_map(f, 3.0), fbar - f)
            )
            assert d >= -1e-12
            assert d == pytest.approx(by_terms, rel=1e-12)

    def test_positive_away_from_diagonal(self, interval):
        rng = np.random.default_rng(8)
        f = random_fn(interval, rng)
        g = random_fn(interval, rng)
        g = f + (1e-3 / norm(g)) * g
        assert bregman_norm(g, f, 2.0) >= 1e-12

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
    def test_three_point_identity(self, p, r):
        space = GridSpace.interval(40, p=p)
        rng = np.random.default_rng(int(100 * p + 10 * r))
        for _ in range(10):
            x, x1, x2 = (random_fn(space, rng) for _ in range(3))
            lhs = bregman_norm(x2, x, r) - bregman_norm(x1, x, r)
            rhs = bregman_norm(x2, x1, r) + pairing(
                duality_map(x1, r) - duality_map(x, r), x2 - x1
            )
            scale = 1 + abs(lhs) + abs(rhs)
            assert abs(lhs - rhs) <= 1e-10 * scale


class TestLincomb:
    def test_zero_scale(self, interval):
        rng = np.random.default_rng(10)
        f = random_fn(interval, rng)
        assert np.all((0.0 * f).values == 0.0)


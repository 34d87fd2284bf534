import numpy as np
import pytest

from nitreg.operators import IntegralOp


class PenaltyPreconditionedIntegralOp(IntegralOp):
    """Integral operator without a Newton inverse, so that its Newton–CG is
    preconditioned by the penalty Hessian alone."""

    def newton_inverse(self, diag, model):
        return None


class CountingIntegralOp(IntegralOp):
    """Integral operator that counts its evaluations, each one `linearized` call: `apply`
    makes one too."""

    evaluations = 0

    def linearized(self, x):
        self.evaluations += 1
        return super().linearized(x)


def assert_band_of(band, dense):
    """band is the upper band of the symmetric dense, which is zero outside it: row
    kd + i - j of column j holds entry (i, j) for i <= j <= i + kd, at 1e-13 relative."""
    kd = band.shape[0] - 1
    assert not np.triu(dense, kd + 1).any()
    want = np.zeros((kd + 1, dense.shape[0]))
    for i, j in zip(*np.triu_indices(dense.shape[0])):
        if j - i <= kd:
            want[kd + i - j, j] = dense[i, j]
    assert np.linalg.norm(band - want) <= 1e-13 * np.linalg.norm(want)


def trapezoid_matrices(n):
    """Node-values matrices of the trapezoid rule, on n intervals of [0, 1], of
    the integral operator with kernel k(s,t) = 40*min(s,t)*(1-max(s,t)) and of
    its adjoint in the weighted pairing, assembled densely from the closed-form
    kernel: (A x)_i = sum_j w_j k(t_i, t_j) x_j and (A* y)_j = sum_i w_i k(t_i, t_j) y_i."""
    t = np.linspace(0.0, 1.0, n + 1)
    kernel = 40.0 * np.minimum.outer(t, t) * (1.0 - np.maximum.outer(t, t))
    w = np.full(n + 1, 1.0 / n)
    w[[0, -1]] /= 2
    return kernel * w[None, :], kernel.T * w[None, :]


@pytest.fixture
def integral_matrices():
    """`trapezoid_matrices`: a dense oracle that does not read `IntegralOp`."""
    return trapezoid_matrices

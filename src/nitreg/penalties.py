"""Uniformly convex penalty functionals with smoothed non-smooth parts.

The penalty is ``mu * int |x|^2 + a * int |x| + b * TV(x)``; the L1 and TV
terms are replaced by the smooth surrogates ``int sqrt(x^2 + eps)`` and
``int sqrt(|grad x|^2 + eps)``.  The quadratic part (mu > 0) supplies a
2-uniform convexity modulus regardless of a and b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import DUAL, GridFn, GridSpace, pairing


@dataclass(frozen=True)
class Penalty:
    """The weights of the penalty; a = b = 0 is the quadratic penalty."""

    mu: float = 1.0
    a: float = 0.0
    b: float = 0.0
    eps: float = 1e-6

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError("mu must be > 0 (uniform convexity)")
        if (self.a > 0.0 or self.b > 0.0) and self.eps <= 0.0:
            raise ValueError("eps must be > 0 when a non-smooth term is active")
        if self.a < 0.0 or self.b < 0.0:
            raise ValueError("a and b must be nonnegative")


def quadratic(mu: float = Penalty.mu) -> Penalty:
    return Penalty(mu=mu)


def l2_l1(mu: float, a: float = 1.0, eps: float = Penalty.eps) -> Penalty:
    return Penalty(mu=mu, a=a, eps=eps)


def l2_tv(mu: float, b: float = 1.0, eps: float = Penalty.eps) -> Penalty:
    return Penalty(mu=mu, b=b, eps=eps)


def _forward_diffs(space: GridSpace, vals: np.ndarray):
    """Forward differences on the cell grid (one cell per subinterval)."""
    h = space.spacings
    if len(space.dims) == 1:
        return (np.diff(vals) / h[0],), h[0]
    g = vals.reshape(space.dims)
    dx = (g[1:, :-1] - g[:-1, :-1]) / h[0]
    dy = (g[:-1, 1:] - g[:-1, :-1]) / h[1]
    return (dx, dy), h[0] * h[1]


def value(theta: Penalty, x: GridFn) -> float:
    w = x.space.weights
    v = x.values
    total = theta.mu * float(np.sum(w * v * v))
    if theta.a > 0.0:
        total += theta.a * float(np.sum(w * np.sqrt(v * v + theta.eps)))
    if theta.b > 0.0:
        diffs, area = _forward_diffs(x.space, v)
        mag = np.sqrt(sum(d * d for d in diffs) + theta.eps)
        total += theta.b * area * float(np.sum(mag))
    return total


def _tv_euclidean_gradient(space: GridSpace, vals: np.ndarray, eps: float) -> np.ndarray:
    """Euclidean gradient of the smoothed TV term w.r.t. nodal values."""
    h = space.spacings
    if len(space.dims) == 1:
        d = np.diff(vals) / h[0]
        q = d / np.sqrt(d * d + eps)  # cell measure h cancels the 1/h of d
        g = np.zeros_like(vals)
        g[1:] += q
        g[:-1] -= q
        return g
    hx, hy = h
    (dx, dy), _area = _forward_diffs(space, vals)
    inv = 1.0 / np.sqrt(dx * dx + dy * dy + eps)
    qx = hy * inv * dx  # area/hx = hy
    qy = hx * inv * dy
    g = np.zeros(space.dims)
    g[1:, :-1] += qx
    g[:-1, :-1] -= qx
    g[:-1, 1:] += qy
    g[:-1, :-1] -= qy
    return g.ravel()


def gradient(theta: Penalty, x: GridFn) -> GridFn:
    """Gradient of the smoothed penalty in the dual representation.

    The returned xi satisfies <xi, h> = d/dt value(x + t h)|_{t=0} with the
    quadrature-weighted pairing.
    """
    w = x.space.weights
    v = x.values
    # Euclidean gradient w.r.t. nodal values, converted to dual form at the end
    g = 2.0 * theta.mu * w * v
    if theta.a > 0.0:
        g = g + theta.a * w * v / np.sqrt(v * v + theta.eps)
    if theta.b > 0.0:
        g = g + theta.b * _tv_euclidean_gradient(x.space, v, theta.eps)
    return GridFn(x.space, g / w, DUAL)


def bregman(theta: Penalty, xbar: GridFn, x: GridFn, xi: GridFn) -> float:
    """Bregman distance Theta(xbar) - Theta(x) - <xi, xbar - x>.

    xi must be a (sub)gradient of the penalty at x for nonnegativity; the
    solver passes the dual-update element, which agrees with the smoothed
    gradient only at inner-solver optimality.
    """
    return value(theta, xbar) - value(theta, x) - pairing(xi, xbar - x)


def three_point(
    theta: Penalty,
    x2: GridFn,
    x1: GridFn,
    x: GridFn,
    xi1: GridFn,
    xi: GridFn,
) -> float:
    """Residual of the three-point Bregman identity; ~0 up to roundoff."""
    lhs = bregman(theta, x2, x, xi) - bregman(theta, x1, x, xi)
    rhs = bregman(theta, x2, x1, xi1) + pairing(xi1 - xi, x2 - x1)
    return abs(lhs - rhs)

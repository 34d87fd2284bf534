"""Uniformly convex penalty functionals with smoothed non-smooth parts.

The penalty is ``mu * int |x|^2 + a * int |x| + b * TV(x)``; the L1 and TV
terms are replaced by the smooth surrogates ``int sqrt(x^2 + eps)`` and
``int sqrt(|grad x|^2 + eps)``.  The quadratic part (mu > 0) supplies a
2-uniform convexity modulus regardless of a and b.

TV is defined through the grid's forward differences D (`spaces.differences`), one
difference per cell and axis.  An `Evaluation` at x holds what Theta's value, gradient and
Hessian share there.  The Hessian is a diagonal (`pointwise_hessian`) plus the TV term
(`tv_hessian`), linear in per-cell coefficients through maps fixed per grid
(`operators.weighted_product`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .operators import weighted_product
from .spaces import DUAL, GridFn, GridSpace, differences, pairing


@dataclass(frozen=True)
class Penalty:
    """The weights of the penalty; a = b = 0 is the quadratic penalty."""

    mu: float = 1.0
    a: float = 0.0
    b: float = 0.0
    eps: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.mu < math.inf:
            raise ValueError("mu must be > 0 (uniform convexity)")
        if (self.a > 0.0 or self.b > 0.0) and not 0.0 < self.eps < math.inf:
            raise ValueError("eps must be > 0 when a non-smooth term is active")
        if not (0.0 <= self.a < math.inf and 0.0 <= self.b < math.inf):
            raise ValueError("a and b must be nonnegative and finite")


def _cells(space: GridSpace, vals: np.ndarray, eps: float):
    """D, the differences d = D v (one row per axis) and m = sqrt(|d|^2 + eps)."""
    diff = differences(space)
    d = (diff @ vals).reshape(len(space.dims), -1)
    return diff, d, np.sqrt(np.sum(d * d, axis=0) + eps)


class Evaluation:
    """Theta(x) as ``value``, and what the gradient and Hessians at x read, each computed once:
    for L1 ``s = x^2 + eps`` and ``m = sqrt(s)``, for TV `_cells`."""

    def __init__(self, theta: Penalty, x: GridFn):
        self.theta, self.x, w, v = theta, x, x.space.weights, x.values
        self.value = theta.mu * float(v.dot(w * v))
        if theta.a > 0.0:
            self.s = v * v + theta.eps
            self.m = np.sqrt(self.s)
            self.value += theta.a * float(w.dot(self.m))
        if theta.b > 0.0:
            self.cells = _cells(x.space, v, theta.eps)
            self.value += theta.b * math.prod(x.space.spacings) * float(self.cells[2].sum())

    def gradient(self) -> np.ndarray:
        """Nodal values of the gradient in the dual representation: ``<xi, h> = d/dt
        value(x + t h)|_{t=0}`` in the quadrature-weighted pairing."""
        theta, w, v = self.theta, self.x.space.weights, self.x.values
        # Euclidean gradient w.r.t. nodal values, converted to dual form at the end
        g = 2.0 * theta.mu * w * v
        if theta.a > 0.0:
            g = g + theta.a * w * v / self.m
        if theta.b > 0.0:
            diff, d, m = self.cells
            g = g + theta.b * math.prod(self.x.space.spacings) * (diff.T @ (d / m).ravel())
        return g / w

    def pointwise_hessian(self) -> np.ndarray:
        """The diagonal of the Euclidean Hessian of the mu and L1 terms w.r.t. nodal values:
        without TV (b = 0), the whole penalty Hessian."""
        theta, w = self.theta, self.x.space.weights
        diag = 2.0 * theta.mu * w
        if theta.a > 0.0:  # eps / s^1.5, written so that a large eps cannot overflow
            diag = diag + theta.a * w * (theta.eps / self.s) / self.m
        return diag

    def tv_hessian(self, cell: np.ndarray) -> tuple:
        """Euclidean Hessian of the TV term w.r.t. nodal values, ``b * area * D^T A D`` with
        the per-cell block ``A = I/m - sym(cell d^T)/m^2``, as CSR and as its flat upper band:
        the grid's maps (`_tv_pattern`) applied to A.  ``cell`` is the dual field of Chan,
        Golub & Mulet (one row per axis, |cell| < 1); at d/m this is the exact Hessian."""
        (_diff, d, m), space = self.cells, self.x.space
        a = np.eye(len(d))[:, :, None] / m - (cell[:, None] * d + d[:, None] * cell) / (2 * m**2)
        coef, n = self.theta.b * math.prod(space.spacings) * a.ravel(), space.size
        indptr, indices, data_map, band_map = _tv_pattern(space)
        return sp.csr_matrix((data_map @ coef, indices, indptr), (n, n)), band_map @ coef

    def tv_field_step(self, cell: np.ndarray, step: np.ndarray) -> np.ndarray:
        """The TV dual field after the primal step x -> x + step, nodal (Chan, Golub & Mulet):
        Newton's correction of the field's equation ``m cell = d``, linearized at x, damped to
        0.9 of the largest step that keeps |cell| <= 1 in every cell, and to at most 1."""
        diff, d, m = self.cells
        dd = (diff @ step).reshape(d.shape)
        dw = d / m - cell + (dd - cell * np.sum(d * dd, axis=0) / m) / m
        # per cell, |cell + s dw| = 1 at s = c / (b + sqrt(b^2 + a c))
        a = np.sum(dw * dw, axis=0)
        b = np.sum(cell * dw, axis=0)
        c = 1.0 - np.sum(cell * cell, axis=0)
        den = b + np.sqrt(b * b + a * c)
        moving = den > 0.0
        s = min(1.0, 0.9 * np.min(c[moving] / den[moving], initial=np.inf))
        return cell + s * dw


def value(theta: Penalty, x: GridFn) -> float:
    return Evaluation(theta, x).value


def gradient(theta: Penalty, x: GridFn) -> GridFn:
    """Gradient of the smoothed penalty in the dual representation (`Evaluation.gradient`)."""
    return GridFn(x.space, Evaluation(theta, x).gradient(), DUAL)


@functools.lru_cache(maxsize=8)
def _tv_pattern(space: GridSpace):
    """`weighted_product` of ``D^T A D``: a term per ordered pair of axes (i, j), row-major,
    and cell, with the cell's row of D's block i on the left and of block j on the right."""
    diff, k = differences(space), len(space.dims)
    rows = np.arange(diff.shape[0]).reshape(k, -1)  # D's rows of each axis
    return weighted_product(diff[rows.repeat(k, axis=0).ravel()],
                            diff[np.tile(rows, (k, 1)).ravel()])


def bregman(theta: Penalty, xbar: GridFn, x: GridFn, xi: GridFn) -> float:
    """Bregman distance Theta(xbar) - Theta(x) - <xi, xbar - x>.

    xi must be a (sub)gradient of the penalty at x for nonnegativity; the
    solver passes the dual-update element, which agrees with the smoothed
    gradient only at inner-solver optimality.
    """
    return value(theta, xbar) - value(theta, x) - pairing(xi, xbar - x)

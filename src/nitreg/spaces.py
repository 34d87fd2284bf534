"""Discretized L^p function spaces on uniform grids of the unit interval and
the unit square.

Functions are represented by their nodal values.  All norms, pairings and
duality mappings are taken with respect to trapezoidal quadrature weights
baked into the space, so quantities are consistent across grid resolutions.
Dual-space elements are stored in the same nodal representation with a
``variance`` tag; the pairing is the quadrature-weighted bilinear form
``<xi, x> = sum_i w_i xi_i x_i``, under which the dual norm is the one with
the conjugate exponent.  `differences` is the grid's one discrete gradient D,
for TV and for the elliptic operator's Laplacian ``D^T D``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas

PRIMAL = "primal"
DUAL = "dual"


def _trapezoid_weights(num_nodes: int) -> np.ndarray:
    h = 1.0 / (num_nodes - 1)
    w = np.full(num_nodes, h)
    w[0] = h / 2
    w[-1] = h / 2
    return w


@dataclass(frozen=True)
class GridSpace:
    """A discretized L^p space on the unit interval or the unit square.

    ``dims`` holds the node count per axis (N subintervals give N+1 nodes),
    ``exponent`` the p of the underlying norm.
    """

    dims: tuple[int, ...]
    exponent: float = 2.0
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    size: int = field(init=False, repr=False, compare=False)
    zero: np.ndarray = field(init=False, repr=False, compare=False)  # GridFn's finiteness probe

    def __post_init__(self):
        if not 1.0 < self.exponent < math.inf:
            raise ValueError(f"exponent must be > 1, got {self.exponent}")
        if min(self.dims) < 2:
            raise ValueError(f"every axis needs at least 2 nodes, got dims {self.dims}")
        w = functools.reduce(np.multiply.outer, [_trapezoid_weights(n) for n in self.dims])
        object.__setattr__(self, "weights", w.ravel())
        object.__setattr__(self, "size", int(np.prod(self.dims)))
        object.__setattr__(self, "zero", np.zeros(self.size))
        self.zero.flags.writeable = False

    @classmethod
    def interval(cls, n: int, p: float = 2.0) -> "GridSpace":
        """Space on [0, 1] with n subintervals (n+1 nodes)."""
        return cls((n + 1,), p)

    @classmethod
    def rectangle(cls, nx: int, ny: int, p: float = 2.0) -> "GridSpace":
        """Space on the unit square with nx-by-ny subintervals."""
        return cls((nx + 1, ny + 1), p)

    @property
    def conjugate_exponent(self) -> float:
        p = self.exponent
        return p / (p - 1.0)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(1.0 / (n - 1) for n in self.dims)

    def axis_nodes(self, axis: int) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.dims[axis])

    def coords(self) -> tuple[np.ndarray, ...]:
        """Node coordinates per axis, each flattened to `size`."""
        grids = np.meshgrid(
            *(self.axis_nodes(a) for a in range(len(self.dims))), indexing="ij"
        )
        return tuple(g.ravel() for g in grids)


@functools.lru_cache(maxsize=8)
def differences(space: GridSpace) -> sp.csr_matrix:
    """Forward differences D on the cell grid, one block of rows per axis.

    Each cell has its lower corner at a node that is not last on any axis;
    block k holds (v[node + e_k] - v[node]) / h_k for every such node.
    """
    first = [sp.eye(n - 1, n) for n in space.dims]  # drops the last node of an axis
    blocks = []
    for k, (n, h) in enumerate(zip(space.dims, space.spacings)):
        factors = first.copy()
        factors[k] = (sp.eye(n - 1, n, k=1) - sp.eye(n - 1, n)) / h
        blocks.append(functools.reduce(sp.kron, factors))
    return sp.vstack(blocks).tocsr()


@dataclass(frozen=True)
class GridFn:
    """A real-valued function on a GridSpace, tagged primal or dual."""

    space: GridSpace
    values: np.ndarray
    variance: str = PRIMAL

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.space.size,):
            raise ValueError(f"values shape {vals.shape} does not match space size "
                             f"{self.space.size}")
        if not blas.ddot(vals, self.space.zero) == 0.0:  # inf * 0, nan * 0 are NaN; no warning
            raise ValueError("GridFn values must be finite")
        if self.variance not in (PRIMAL, DUAL):
            raise ValueError(f"unknown variance tag {self.variance!r}")
        object.__setattr__(self, "values", vals)

    def _compatible(self, other: "GridFn") -> None:
        if self.space != other.space:
            raise ValueError("grid functions live on different spaces")
        if self.variance != other.variance:
            raise ValueError("cannot combine primal and dual grid functions")

    def __add__(self, other: "GridFn") -> "GridFn":
        self._compatible(other)
        return GridFn(self.space, self.values + other.values, self.variance)

    def __sub__(self, other: "GridFn") -> "GridFn":
        self._compatible(other)
        return GridFn(self.space, self.values - other.values, self.variance)

    def __mul__(self, c: float) -> "GridFn":
        return GridFn(self.space, c * self.values, self.variance)

    __rmul__ = __mul__


def zeros(space: GridSpace, variance: str = PRIMAL) -> GridFn:
    return GridFn(space, np.zeros(space.size), variance)


def values_norm(space: GridSpace, values: np.ndarray, variance: str = PRIMAL) -> float:
    """Quadrature-weighted p-norm; dual elements use the conjugate exponent."""
    p = space.exponent if variance == PRIMAL else space.conjugate_exponent
    if p == 2.0:
        return math.sqrt(values.dot(space.weights * values))
    return float(space.weights.dot(np.abs(values) ** p) ** (1.0 / p))


def norm(f: GridFn) -> float:
    return values_norm(f.space, f.values, f.variance)


def pairing(xi: GridFn, x: GridFn) -> float:
    """Duality pairing <xi, x> = sum_i w_i xi_i x_i."""
    if xi.space != x.space:
        raise ValueError("pairing requires functions on the same space")
    if xi.variance != DUAL or x.variance != PRIMAL:
        raise ValueError("pairing takes a dual and a primal grid function")
    return float(xi.values.dot(xi.space.weights * x.values))


def duality_map(f: GridFn, r: float) -> GridFn:
    """Duality mapping with gauge t -> t^(r-1) on the discretized L^p space.

    Satisfies ||J_r(f)||_* = ||f||^(r-1) and <J_r(f), f> = ||f||^r.  Returns
    the zero dual element when f = 0 (the 0/0 limit of the formula).
    """
    if not 1.0 < r < math.inf:
        raise ValueError(f"gauge exponent r must be > 1, got {r}")
    if f.variance != PRIMAL:
        raise ValueError("duality_map takes a primal grid function")
    return GridFn(f.space, duality_values(f.space, f.values, r, norm(f)), DUAL)


def duality_values(space: GridSpace, values: np.ndarray, r: float, nrm: float) -> np.ndarray:
    """`duality_map` on nodal arrays, given nrm = ||f||: ``||f||^(r-p) |f|^(p-1) sign(f)``."""
    p = space.exponent
    if nrm == 0.0:
        return np.zeros(space.size)
    return nrm ** (r - p) * np.abs(values) ** (p - 1.0) * np.sign(values)


class DualityDerivative:
    """``J_r'(u) h = scale (h + rank1 <u, h> u)``, ``scale = ||u||^(r-2)``, ``rank1 = (r-2) /
    ||u||^2`` given nrm = ||u||, on nodal arrays: `duality_map`'s derivative at u on a p = 2
    space, symmetric positive definite for r > 1; for p != 2 a Gauss–Newton model."""

    def __init__(self, space: GridSpace, u: np.ndarray, nrm: float, r: float):
        self.scale = nrm ** (r - 2.0) if nrm > 0.0 else float(r == 2.0)
        self.rank1 = (r - 2.0) / nrm**2 if nrm > 0.0 else 0.0
        self.u, self.weighted = u, space.weights * u

    def __call__(self, h: np.ndarray) -> np.ndarray:
        return self.scale * (h + self.rank1 * self.weighted.dot(h) * self.u)


def bregman_norm(fbar: GridFn, f: GridFn, r: float) -> float:
    """Bregman distance induced by ||.||^r / r."""
    if not 1.0 < r < math.inf:
        raise ValueError(f"r must be > 1, got {r}")
    jf = duality_map(f, r)
    return norm(fbar) ** r / r - norm(f) ** r / r - pairing(jf, fbar - f)


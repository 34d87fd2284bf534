"""Forward operators: a first-kind integral operator and an elliptic
parameter-to-state map, each with derivative and quadrature-exact adjoint."""

from __future__ import annotations

import abc

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .spaces import DUAL, PRIMAL, GridFn, GridSpace, differences


class OperatorError(RuntimeError):
    """Operator evaluation failed."""


def upper_band(matrix) -> np.ndarray:
    """LAPACK upper band storage of a symmetric sparse matrix without duplicate
    entries (such as a canonical CSC matrix), as `lapack.dpbtrf` takes it: row
    ``kd + i - j`` of column j holds entry (i, j) for i <= j, where kd is the
    half-bandwidth.  The lower triangle is not read."""
    upper = sp.triu(matrix, format="coo")
    offset = upper.col - upper.row
    band = np.zeros((offset.max(initial=0) + 1, matrix.shape[0]), order="F")
    band[-1 - offset, upper.col] = upper.data
    return band


def banded_cholesky(band: np.ndarray):
    """The solve ``b -> A^-1 b`` of a symmetric matrix A in `upper_band`
    storage, factored in place by LAPACK's banded Cholesky; None if A is not
    positive definite."""
    factor, info = lapack.dpbtrf(band, overwrite_ab=1)
    if info != 0:
        return None
    return lambda b: lapack.dpbtrs(factor, b)[0]


class ForwardOp(abc.ABC):
    """Operator F between two grid spaces, defined by F and its linearization."""

    domain_space: GridSpace
    range_space: GridSpace
    is_linear: bool = False

    @abc.abstractmethod
    def apply(self, x: GridFn) -> GridFn:
        """Evaluate F(x)."""

    @abc.abstractmethod
    def linearized(self, x: GridFn):
        """Check x once; return the maps h -> F'(x)h and w -> F'(x)* w on nodal
        arrays, the adjoint taken w.r.t. the quadrature pairings."""

    def deriv(self, x: GridFn, h: GridFn) -> GridFn:
        """Directional derivative F'(x)h."""
        self._check_domain(h)
        return GridFn(self.range_space, self.linearized(x)[0](h.values), PRIMAL)

    def adjoint(self, x: GridFn, w: GridFn) -> GridFn:
        """Adjoint F'(x)* w w.r.t. the quadrature pairings."""
        if w.space != self.range_space or w.variance != DUAL:
            raise ValueError("argument is not a dual element of the range space")
        return GridFn(self.domain_space, self.linearized(x)[1](w.values), DUAL)

    def _check_domain(self, x: GridFn) -> None:
        if x.space != self.domain_space or x.variance != PRIMAL:
            raise ValueError("argument is not a primal element of the domain space")


class IntegralOp(ForwardOp):
    """Trapezoid rule on n intervals of the integral operator on [0, 1] whose
    kernel 40*min(s,t)*(1-max(s,t)) is the Green's function of -u'' = 40 x,
    u(0) = u(1) = 0. The kernel vanishes on the boundary and every interior
    weight is h, so the rule is exactly the 3-point solve of that problem, in
    O(n) by one banded Cholesky factor; it is self-adjoint in the weighted pairing."""

    is_linear = True

    def __init__(self, n: int, p: float = 2.0):
        self.domain_space = self.range_space = GridSpace.interval(n, p)
        # upper band of tridiag(-1, 2, -1) / (40 h^2) on the n - 1 interior nodes, h = 1/n
        solve = banded_cholesky(np.outer([-1.0, 2.0], np.full(n - 1, n**2 / 40.0)))
        self._green = lambda v: np.concatenate(([0.0], solve(v[1:-1]), [0.0]))

    def apply(self, x: GridFn) -> GridFn:
        return self.deriv(x, x)

    def linearized(self, x: GridFn):
        self._check_domain(x)
        return self._green, self._green


class EllipticOp(ForwardOp):
    """Parameter-to-state map c -> u for -Lap(u) + c u = f, u = g on the
    boundary, discretized with the 5-point stencil on a uniform grid.

    -Lap at the interior nodes is those rows of ``D^T D``, D the grid's
    forward differences that also define TV (`spaces.differences`): the
    5-point stencil. Their interior block plus diag(c) is the system for the
    interior state; their boundary columns lift g into the right-hand side.
    The measurement is the whole state on the grid. Whenever c changes the
    system is refactorized by banded Cholesky (LAPACK ``pbtrf``), since it is
    symmetric positive definite for c >= 0 and its half-bandwidth in natural
    order is ny - 1. Where a line-search trial c makes it indefinite,
    Cholesky fails, and that system falls back to a pivoted sparse LU.
    """

    is_linear = False

    def __init__(self, nx: int, ny: int, f=None, g=None, p: float = 2.0):
        space = GridSpace.rectangle(nx, ny, p)
        self.domain_space = self.range_space = space
        f = np.zeros(space.size) if f is None else np.asarray(f, float).reshape(space.size)
        self.g = np.zeros(space.size) if g is None else np.asarray(g, float).reshape(space.size)

        diff = differences(space)
        self._inner = np.arange(space.size).reshape(space.dims)[1:-1, 1:-1].ravel()
        rows = (diff.T @ diff).tocsr()[self._inner]  # -Lap at the interior nodes
        self._laplacian = rows[:, self._inner].tocsc()
        self._band = upper_band(self._laplacian)
        self._rhs0 = f[self._inner] - rows @ self._embed(0.0, self.g)
        self._cache = None  # (c_bytes, solve, u_int)

    def _embed(self, values, base: np.ndarray) -> np.ndarray:
        """Copy of a full-grid array with its interior nodes set to values."""
        full = base.copy()
        full[self._inner] = values
        return full

    def _factorization(self, c: GridFn):
        """The solve of the system at c, and the interior state u; cached for
        the last c."""
        key = c.values.tobytes()
        if self._cache is not None and self._cache[0] == key:
            return self._cache[1], self._cache[2]
        c_int = c.values[self._inner]
        band = self._band.copy(order="F")
        band[-1] += c_int
        solve = banded_cholesky(band)
        if solve is None:  # not positive definite, as at an indefinite trial c: pivoted LU
            try:
                solve = spla.splu((self._laplacian + sp.diags(c_int)).tocsc()).solve
            except RuntimeError as exc:
                raise OperatorError(f"elliptic solve failed: {exc}") from exc
        u_int = solve(self._rhs0)
        if not np.all(np.isfinite(u_int)):
            raise OperatorError("elliptic solve produced non-finite state")
        self._cache = (key, solve, u_int)
        return solve, u_int

    def apply(self, c: GridFn) -> GridFn:
        self._check_domain(c)
        _solve, u_int = self._factorization(c)
        return GridFn(self.range_space, self._embed(u_int, self.g), PRIMAL)

    def linearized(self, c: GridFn):
        self._check_domain(c)
        solve, u_int = self._factorization(c)
        zero, w_int = np.zeros_like(self.g), self.domain_space.weights[self._inner]

        def deriv(h):
            return self._embed(solve(-h[self._inner] * u_int), zero)

        def adjoint(w):
            psi = solve((self.range_space.weights * w)[self._inner])
            return self._embed(-u_int * psi / w_int, zero)

        return deriv, adjoint

"""Forward operators: a first-kind integral operator and an elliptic
parameter-to-state map, each with derivative and quadrature-exact adjoint."""

from __future__ import annotations

import abc
import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla  # unused here: bench/layers.py traces operators.spla.splu
from scipy.linalg import lapack

from .spaces import DUAL, PRIMAL, DualityDerivative, GridFn, GridSpace, differences


class OperatorError(RuntimeError):
    """Operator evaluation failed."""


def banded_cholesky(band: np.ndarray, diag: np.ndarray):
    """The solve ``b -> A^-1 b`` of a symmetric A by LAPACK's banded Cholesky, in place on
    band: A's upper band, flattened column by column (or F-ordered 2-D), row ``kd + i - j`` of
    column j holding entry (i, j), i <= j, kd the half-bandwidth, with diag added to the main
    diagonal (row kd).  An empty A gives the identity.  Raises `np.linalg.LinAlgError` if A is
    not positive definite.  Every banded factorization goes through here, the one reader of
    the band layout."""
    if diag.size == 0:
        return lambda b: b
    band = band.reshape((-1, diag.size), order="F")
    band[-1] += diag
    factor, info = lapack.dpbtrf(band, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"matrix is not positive definite (dpbtrf info {info})")
    return lambda b: lapack.dpbtrs(factor, b)[0]


def weighted_product(left, right):
    """For CSR L = left and R = right, one row per term, and symmetric ``M(w) = L^T diag(w) R``:
    M's CSR pattern ``(indptr, indices)``, and the sparse maps from w to M's CSR data and to
    its upper band, flat as `banded_cholesky` takes it; both CSC, one column per term."""
    terms, n = left.shape
    by_term = [sp.csr_matrix((a.data, np.arange(a.nnz), a.indptr), (terms, a.nnz))
               for a in (left, right)]  # row t holds row t's entries, each in its own column
    pairs = (by_term[0].T @ by_term[1]).tocoo()  # L_ti R_tj for entries of one row t
    i, j = left.indices[pairs.row], right.indices[pairs.col]
    t = np.repeat(np.arange(terms), np.diff(left.indptr))[pairs.row]
    keys, position = np.unique(i * np.int64(n) + j, return_inverse=True)  # (i, j) in row order
    data_map = sp.csc_matrix((pairs.data, (position, t)), (keys.size, terms))
    kd, up = np.max(j - i, initial=0), i <= j  # (i, j) is at kd + i - j + (kd + 1) j
    band_map = sp.csc_matrix((pairs.data[up], ((i + kd * (j + 1))[up], t[up])),
                             ((kd + 1) * n, terms))
    return np.searchsorted(keys, np.arange(n + 1) * n), keys % n, data_map, band_map


class ForwardOp(abc.ABC):
    """Operator F between two grid spaces, defined by `linearized`: one evaluation per point
    gives F(x) and its linearization there."""

    domain_space: GridSpace
    range_space: GridSpace
    is_linear: bool = False

    @abc.abstractmethod
    def linearized(self, x: GridFn):
        """Check x once; return F(x), unchecked for finiteness, and the maps h -> F'(x)h and
        w -> F'(x)* w, all on nodal arrays, the adjoint taken w.r.t. the quadrature pairings.
        A point where F is not defined raises `OperatorError`."""

    def apply(self, x: GridFn) -> GridFn:
        """Evaluate F(x), as a grid function, which refuses non-finite values."""
        return GridFn(self.range_space, self.linearized(x)[0], PRIMAL)

    def newton_inverse(self, diag: np.ndarray, model: DualityDerivative):
        """The inverse, on nodal arrays, of `inner_cg`'s Newton matrix ``W F'(x)* S F'(x) +
        diag(diag)`` at x, W the weights and S = model, the ``J_r'`` model at x's residual:
        exact to rounding, as `inner_cg` uses it unchecked, or None."""
        return None

    def adjoint(self, x: GridFn, w: GridFn) -> GridFn:
        """Adjoint F'(x)* w w.r.t. the quadrature pairings."""
        if w.space != self.range_space or w.variance != DUAL:
            raise ValueError("argument is not a dual element of the range space")
        return GridFn(self.domain_space, self.linearized(x)[2](w.values), DUAL)

    def _check_domain(self, x: GridFn) -> None:
        if x.space != self.domain_space or x.variance != PRIMAL:
            raise ValueError("argument is not a primal element of the domain space")


class IntegralOp(ForwardOp):
    """Trapezoid rule on n intervals of the integral operator on [0, 1] whose
    kernel 40*min(s,t)*(1-max(s,t)) is the Green's function of -u'' = 40 x,
    u(0) = u(1) = 0. The kernel vanishes on the boundary and every interior
    weight is h, so the rule is exactly the 3-point solve of that problem, in
    O(n) by one tridiagonal LDL^T factor (LAPACK ``pttrf``, solved by ``pttrs``), with no
    n×n kernel stored; it is self-adjoint in the weighted pairing.
    On the interior nodes F' = A^-1, A = tridiag(-1, 2, -1) / (40 h^2), so `newton_inverse`
    is exact: the Newton matrix ``A^-1 (h S + A D A) A^-1`` there is inverted by one
    pentadiagonal banded Cholesky factor, with Sherman–Morrison for S's rank-one term; on the
    boundary it is D."""

    is_linear = True

    def __init__(self, n: int, p: float = 2.0):
        self.domain_space = self.range_space = GridSpace.interval(n, p)
        self._k = n**2 / 40.0  # A = k tridiag(-1, 2, -1) on the n - 1 interior nodes
        # f2py wants at least one off-diagonal entry, which LAPACK ignores when n - 1 < 2
        self._d, self._e, _info = lapack.dpttrf(np.full(n - 1, 2.0 * self._k),
                                                np.full(max(n - 2, 1), -self._k))

    def _green(self, v: np.ndarray) -> np.ndarray:
        """F v: A^-1 v on the interior nodes, zero on the boundary."""
        out = np.array(v, float)
        out[0] = out[-1] = 0.0
        out[1:-1] = lapack.dpttrs(self._d, self._e, out[1:-1], overwrite_b=1)[0]
        return out

    def _stiffness(self, u: np.ndarray) -> np.ndarray:
        """A u on the interior nodes."""
        up = np.concatenate(([0.0], u, [0.0]))
        return self._k * (2.0 * u - up[:-2] - up[2:])

    def linearized(self, x: GridFn):
        self._check_domain(x)
        return self._green(x.values), self._green, self._green

    def newton_inverse(self, diag, model):
        h, scale, rank1 = 1.0 / (self.domain_space.size - 1), model.scale, model.rank1
        d = np.concatenate(([0.0], self._k**2 * diag[1:-1], [0.0]))  # k^2 D, zero-padded
        band = np.zeros((3, d.size - 2), order="F")  # upper band of h scale I + A D A, diagonal 0
        band[0, 2:] = d[2:-2]
        band[1, 1:] = -2.0 * (d[1:-2] + d[2:-1])
        solve = banded_cholesky(band, h * scale + 4.0 * d[1:-1] + d[:-2] + d[2:])
        if rank1 != 0.0:  # r != 2: h S = h scale I + c u u^T, u = res, by Sherman–Morrison
            z, c = solve(model.u[1:-1]), h * h * scale * rank1
            coef = c / (1.0 + c * (model.u[1:-1] @ z))

        def inverse(v):
            av = self._stiffness(v[1:-1])
            out, u = v / diag, solve(av)
            out[1:-1] = self._stiffness(u - coef * (z @ av) * z if rank1 != 0.0 else u)
            return out

        return inverse


@functools.lru_cache(maxsize=8)
def _red_black(space: GridSpace):
    """`EllipticOp`'s grid-only parts: the interior nodes, black ((i + j) even) then red;
    -Lap's rows there and the diagonal of their interior block; its black-red block E, and E^T;
    and the map, column k for red node k, from w to the band of -E diag(w) E^T, flattened
    (`weighted_product`)."""
    nodes = np.arange(space.size).reshape(space.dims)[1:-1, 1:-1]
    black = np.indices(nodes.shape).sum(axis=0) % 2 == 0
    inner, nb = np.concatenate((nodes[black], nodes[~black])), black.sum()
    diff = differences(space)
    rows = (diff.T @ diff).tocsr()[inner]
    lap = rows[:, inner].tocsc()
    coupling = lap[:nb, nb:]
    band_map = weighted_product(-coupling.T, coupling.T)[3]
    return inner, rows, lap.diagonal(), coupling.tocsr(), coupling.T.tocsr(), band_map


class EllipticOp(ForwardOp):
    """Parameter-to-state map c -> u for -Lap(u) + c u = f, u = g on the
    boundary, discretized with the 5-point stencil on a uniform grid.

    -Lap at the interior nodes is those rows of ``D^T D``, D the grid's
    forward differences that also define TV (`spaces.differences`): the
    5-point stencil. Their interior block plus diag(c) is the system for the
    interior state; their boundary columns lift g into the right-hand side.
    The measurement is the whole state on the grid. The stencil couples only
    nodes of opposite colour: with the interior nodes black, then red, the
    system is ``[[D_b + C_b, E], [E^T, W^-1]]``, ``W^-1 = diag(d_r + c_r)``, and
    whenever c changes only ``S = D_b + C_b - E W E^T`` is factorized, by banded
    Cholesky (LAPACK ``pbtrf``): half the unknowns at half-bandwidth ny - 1 (Saad,
    Iterative Methods for Sparse Linear Systems, 2nd ed., 2003, ch. 3). F is
    defined only where d_r + c_r > 0 and S is positive definite (as for c >= 0);
    elsewhere `OperatorError` is raised, which `inner_cg` takes as a rejected trial.
    Its `newton_inverse` is None.
    On a grid with no interior node (``EllipticOp(1, ny)`` or ``EllipticOp(nx, 1)``) the
    state is g and both derivative maps are zero; experiment configs require nx, ny >= 2.
    """

    def __init__(self, nx: int, ny: int, f=None, g=None, p: float = 2.0):
        space = GridSpace.rectangle(nx, ny, p)
        self.domain_space = self.range_space = space
        f = np.zeros(space.size) if f is None else np.asarray(f, float).reshape(space.size)
        self.g = np.zeros(space.size) if g is None else np.asarray(g, float).reshape(space.size)
        (self._inner, rows, self._diagonal, self._coupling, self._coupling_t,
         self._band_map) = _red_black(space)
        self._rhs0 = f[self._inner] - rows @ self._embed(0.0, self.g)
        self._zero, self._w_int = np.zeros(space.size), space.weights[self._inner]
        self._cache = None  # (c_bytes, solve, u_int): a subproblem starts at the last point

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
        e, et = self._coupling, self._coupling_t  # solve must not hold self: a cycle via _cache
        nb, d = e.shape[0], self._diagonal + c.values[self._inner]
        if not np.all(d[nb:] > 0.0):  # also catches NaN
            raise OperatorError("elliptic solve failed: not positive definite at a red node")
        w = 1.0 / d[nb:]
        try:
            solve_black = banded_cholesky(self._band_map @ w, d[:nb])
        except np.linalg.LinAlgError as exc:
            raise OperatorError(f"elliptic solve failed: {exc}") from exc

        def solve(b):
            y = solve_black(b[:nb] - e @ (w * b[nb:]))
            return np.concatenate((y, w * (b[nb:] - et @ y)))

        u_int = solve(self._rhs0)
        if not np.all(np.isfinite(u_int)):
            raise OperatorError("elliptic solve produced non-finite state")
        self._cache = (key, solve, u_int)
        return solve, u_int

    def linearized(self, c: GridFn):
        self._check_domain(c)
        solve, u_int = self._factorization(c)

        def deriv(h):
            return self._embed(solve(-h[self._inner] * u_int), self._zero)

        def adjoint(w):
            psi = solve((self.range_space.weights * w)[self._inner])
            return self._embed(-u_int * psi / self._w_int, self._zero)

        return self._embed(u_int, self.g), deriv, adjoint

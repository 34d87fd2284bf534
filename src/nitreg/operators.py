"""Forward operators: a first-kind integral operator and an elliptic
parameter-to-state map, each with derivative and quadrature-exact adjoint."""

from __future__ import annotations

import abc

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .spaces import DUAL, PRIMAL, GridFn, GridSpace, norm


class OperatorError(RuntimeError):
    """Operator evaluation failed."""


class ForwardOp(abc.ABC):
    """Operator F between two grid spaces with derivative and adjoint."""

    domain_space: GridSpace
    range_space: GridSpace
    is_linear: bool = False

    @abc.abstractmethod
    def apply(self, x: GridFn) -> GridFn:
        """Evaluate F(x)."""

    @abc.abstractmethod
    def deriv(self, x: GridFn, h: GridFn) -> GridFn:
        """Directional derivative F'(x)h."""

    @abc.abstractmethod
    def adjoint(self, x: GridFn, w: GridFn) -> GridFn:
        """Adjoint F'(x)* w w.r.t. the quadrature pairings."""

    def _check_domain(self, x: GridFn) -> None:
        if x.space != self.domain_space or x.variance != PRIMAL:
            raise ValueError("argument is not a primal element of the domain space")

    def _check_range_dual(self, w: GridFn) -> None:
        if w.space != self.range_space or w.variance != DUAL:
            raise ValueError("argument is not a dual element of the range space")


class IntegralOp(ForwardOp):
    """Trapezoidal discretization of a symmetric first-kind kernel integral
    on [0, 1]; the kernel is the scaled Green's function 40*min(s,t)*(1-max(s,t))."""

    is_linear = True

    def __init__(self, n: int, p: float = 2.0):
        self.domain_space = self.range_space = GridSpace.interval(n, p)
        t = self.domain_space.axis_nodes(0)
        s_col = t[:, None]
        t_row = t[None, :]
        self.kernel = 40.0 * np.minimum(s_col, t_row) * (1.0 - np.maximum(s_col, t_row))

    def apply(self, x: GridFn) -> GridFn:
        return self.deriv(x, x)

    def deriv(self, x: GridFn, h: GridFn) -> GridFn:
        self._check_domain(h)
        vals = self.kernel @ (self.domain_space.weights * h.values)
        return GridFn(self.range_space, vals, PRIMAL)

    def adjoint(self, x: GridFn, w: GridFn) -> GridFn:
        self._check_range_dual(w)
        vals = self.kernel.T @ (self.range_space.weights * w.values)
        return GridFn(self.domain_space, vals, DUAL)


class EllipticOp(ForwardOp):
    """Parameter-to-state map c -> u for -Lap(u) + c u = f, u = g on the
    boundary, discretized with the 5-point stencil on a uniform grid.

    The system for the interior state is the interior block of one 5-point
    -Lap matrix on all grid nodes, plus diag(c); the boundary columns of that
    matrix lift g into the right-hand side. The measurement is the whole
    state on the grid. The system is symmetric, so its sparse LU uses a
    symmetric minimum-degree ordering (of A + A^T, diagonal pivots preferred);
    it is refactorized whenever c changes.
    """

    is_linear = False

    def __init__(self, nx: int, ny: int, f=None, g=None, p: float = 2.0):
        space = GridSpace.rectangle(nx, ny, p)
        self.domain_space = self.range_space = space
        f = np.zeros(space.size) if f is None else np.asarray(f, float).reshape(space.size)
        self.g = np.zeros(space.size) if g is None else np.asarray(g, float).reshape(space.size)

        tx, ty = (
            sp.diags([-1.0, 2.0, -1.0], (-1, 0, 1), shape=(n, n)) / h**2
            for n, h in zip(space.dims, space.spacings)
        )
        lap = sp.kron(tx, sp.identity(ny + 1)) + sp.kron(sp.identity(nx + 1), ty)
        self._inner = np.arange(space.size).reshape(space.dims)[1:-1, 1:-1].ravel()
        rows = lap.tocsr()[self._inner]
        self._laplacian = rows[:, self._inner].tocsc()
        self._rhs0 = f[self._inner] - rows @ self._embed(0.0, self.g)
        self._cache = None  # (c_bytes, lu, u_int)

    def _embed(self, values, base: np.ndarray) -> np.ndarray:
        """Copy of a full-grid array with its interior nodes set to values."""
        full = base.copy()
        full[self._inner] = values
        return full

    def _factorization(self, c: GridFn):
        key = c.values.tobytes()
        if self._cache is not None and self._cache[0] == key:
            return self._cache[1], self._cache[2]
        matrix = self._laplacian + sp.diags(c.values[self._inner])
        try:
            # Pivoting stays on: a line-search trial c can make the system indefinite.
            lu = spla.splu(
                matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True)
            )
            u_int = lu.solve(self._rhs0)
        except RuntimeError as exc:
            raise OperatorError(f"elliptic solve failed: {exc}") from exc
        if not np.all(np.isfinite(u_int)):
            raise OperatorError("elliptic solve produced non-finite state")
        self._cache = (key, lu, u_int)
        return lu, u_int

    def apply(self, c: GridFn) -> GridFn:
        self._check_domain(c)
        _lu, u_int = self._factorization(c)
        return GridFn(self.range_space, self._embed(u_int, self.g), PRIMAL)

    def deriv(self, c: GridFn, h: GridFn) -> GridFn:
        self._check_domain(c)
        self._check_domain(h)
        lu, u_int = self._factorization(c)
        v_int = lu.solve(-h.values[self._inner] * u_int)
        return GridFn(self.range_space, self._embed(v_int, np.zeros_like(self.g)), PRIMAL)

    def adjoint(self, c: GridFn, w: GridFn) -> GridFn:
        self._check_domain(c)
        self._check_range_dual(w)
        lu, u_int = self._factorization(c)
        psi = lu.solve((self.range_space.weights * w.values)[self._inner])
        z_int = -u_int * psi / self.domain_space.weights[self._inner]
        return GridFn(self.domain_space, self._embed(z_int, np.zeros_like(self.g)), DUAL)


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

"""Forward operators: a first-kind integral operator and an elliptic
parameter-to-state map, each with derivative and quadrature-exact adjoint."""

from __future__ import annotations

import abc

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .spaces import DUAL, PRIMAL, GridFn, GridSpace, norm


class OperatorError(RuntimeError):
    """Operator evaluation failed; carries the offending coefficient."""

    def __init__(self, message: str, coefficient=None):
        super().__init__(message)
        self.coefficient = coefficient


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
        self.domain_space = GridSpace.interval(n, p)
        self.range_space = GridSpace.interval(n, p)
        t = self.domain_space.axis_nodes(0)
        s_col = t[:, None]
        t_row = t[None, :]
        self.kernel = 40.0 * np.minimum(s_col, t_row) * (1.0 - np.maximum(s_col, t_row))

    def apply(self, x: GridFn) -> GridFn:
        self._check_domain(x)
        vals = self.kernel @ (self.domain_space.weights * x.values)
        return GridFn(self.range_space, vals, PRIMAL)

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

    The measurement is the whole state on the grid (interior + boundary).
    Linear systems use a direct sparse factorization, refactorized whenever
    c changes.
    """

    is_linear = False

    def __init__(self, nx: int, ny: int, f=None, g=None, p: float = 2.0):
        self.domain_space = GridSpace.rectangle(nx, ny, p)
        self.range_space = GridSpace.rectangle(nx, ny, p)
        self.nx, self.ny = nx, ny
        dims = self.domain_space.dims
        self.f = np.zeros(dims) if f is None else np.asarray(f, float).reshape(dims)
        self.g = np.zeros(dims) if g is None else np.asarray(g, float).reshape(dims)

        hx, hy = self.domain_space.spacings
        self.hx, self.hy = hx, hy
        tx = sp.diags(
            [np.full(nx - 2, -1.0 / hx**2), np.full(nx - 1, 2.0 / hx**2),
             np.full(nx - 2, -1.0 / hx**2)],
            offsets=(-1, 0, 1), format="csc",
        )
        ty = sp.diags(
            [np.full(ny - 2, -1.0 / hy**2), np.full(ny - 1, 2.0 / hy**2),
             np.full(ny - 2, -1.0 / hy**2)],
            offsets=(-1, 0, 1), format="csc",
        )
        self._laplacian = (
            sp.kron(tx, sp.identity(ny - 1)) + sp.kron(sp.identity(nx - 1), ty)
        ).tocsc()
        # Dirichlet data contribution to the interior right-hand side
        gz = np.zeros(dims)
        gz[0, :] = self.g[0, :]
        gz[-1, :] = self.g[-1, :]
        gz[:, 0] = self.g[:, 0]
        gz[:, -1] = self.g[:, -1]
        self._rhs0 = self.f[1:-1, 1:-1].ravel() - self._stencil_interior(gz)
        self._cache = None  # (c_bytes, lu, u_int)

    def _stencil_interior(self, u: np.ndarray) -> np.ndarray:
        hx2, hy2 = self.hx**2, self.hy**2
        out = (
            (2.0 / hx2 + 2.0 / hy2) * u[1:-1, 1:-1]
            - (u[2:, 1:-1] + u[:-2, 1:-1]) / hx2
            - (u[1:-1, 2:] + u[1:-1, :-2]) / hy2
        )
        return out.ravel()

    def _factorization(self, c: GridFn):
        key = c.values.tobytes()
        if self._cache is not None and self._cache[0] == key:
            return self._cache[1], self._cache[2]
        c_int = c.grid()[1:-1, 1:-1].ravel()
        matrix = self._laplacian + sp.diags(c_int)
        try:
            lu = spla.splu(matrix.tocsc())
            u_int = lu.solve(self._rhs0)
        except RuntimeError as exc:
            raise OperatorError(f"elliptic solve failed: {exc}", c) from exc
        if not np.all(np.isfinite(u_int)):
            raise OperatorError("elliptic solve produced non-finite state", c)
        self._cache = (key, lu, u_int)
        return lu, u_int

    def _embed_interior(self, interior: np.ndarray, boundary: np.ndarray | None = None):
        full = np.zeros(self.domain_space.dims)
        if boundary is not None:
            full[0, :] = boundary[0, :]
            full[-1, :] = boundary[-1, :]
            full[:, 0] = boundary[:, 0]
            full[:, -1] = boundary[:, -1]
        full[1:-1, 1:-1] = interior.reshape(self.nx - 1, self.ny - 1)
        return full.ravel()

    def apply(self, c: GridFn) -> GridFn:
        self._check_domain(c)
        _lu, u_int = self._factorization(c)
        return GridFn(self.range_space, self._embed_interior(u_int, self.g), PRIMAL)

    def deriv(self, c: GridFn, h: GridFn) -> GridFn:
        self._check_domain(c)
        self._check_domain(h)
        lu, u_int = self._factorization(c)
        h_int = h.grid()[1:-1, 1:-1].ravel()
        v_int = lu.solve(-h_int * u_int)
        return GridFn(self.range_space, self._embed_interior(v_int), PRIMAL)

    def adjoint(self, c: GridFn, w: GridFn) -> GridFn:
        self._check_domain(c)
        self._check_range_dual(w)
        lu, u_int = self._factorization(c)
        w_weighted = (self.range_space.weights * w.values).reshape(self.range_space.dims)
        psi = lu.solve(w_weighted[1:-1, 1:-1].ravel())
        wx_int = self.domain_space.weights.reshape(self.domain_space.dims)[1:-1, 1:-1].ravel()
        z_int = -u_int * psi / wx_int
        return GridFn(self.domain_space, self._embed_interior(z_int), DUAL)


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

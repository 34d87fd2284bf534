"""Discretized L^p function spaces on uniform interval and rectangle grids.

Functions are represented by their nodal values.  All norms, pairings and
duality mappings are taken with respect to trapezoidal quadrature weights
baked into the space, so quantities are consistent across grid resolutions.
Dual-space elements are stored in the same nodal representation with a
``variance`` tag; the pairing is the quadrature-weighted bilinear form
``<xi, x> = sum_i w_i xi_i x_i``, under which the dual norm is the one with
the conjugate exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PRIMAL = "primal"
DUAL = "dual"


def _trapezoid_weights(num_nodes: int, length: float) -> np.ndarray:
    h = length / (num_nodes - 1)
    w = np.full(num_nodes, h)
    w[0] = h / 2
    w[-1] = h / 2
    return w


@dataclass(frozen=True)
class GridSpace:
    """A discretized L^p space on an interval or a rectangle.

    ``dims`` holds the node count per axis (N subintervals give N+1 nodes),
    ``domain`` the bounding box, ``exponent`` the p of the underlying norm.
    """

    dims: tuple[int, ...]
    domain: tuple[tuple[float, float], ...]
    exponent: float = 2.0
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.exponent <= 1.0:
            raise ValueError(f"exponent must be > 1, got {self.exponent}")
        if len(self.dims) != len(self.domain):
            raise ValueError("dims and domain must have the same length")
        axis_w = [
            _trapezoid_weights(n, hi - lo)
            for n, (lo, hi) in zip(self.dims, self.domain)
        ]
        w = axis_w[0]
        for aw in axis_w[1:]:
            w = np.multiply.outer(w, aw)
        object.__setattr__(self, "weights", w.ravel())
        object.__setattr__(self, "size", int(np.prod(self.dims)))

    @classmethod
    def interval(cls, n: int, p: float = 2.0, domain=(0.0, 1.0)) -> "GridSpace":
        """Space on [a, b] with n subintervals (n+1 nodes)."""
        return cls((n + 1,), (tuple(domain),), p)

    @classmethod
    def rectangle(
        cls, nx: int, ny: int, p: float = 2.0,
        domain=((0.0, 1.0), (0.0, 1.0)),
    ) -> "GridSpace":
        """Space on a rectangle with nx-by-ny subintervals."""
        return cls((nx + 1, ny + 1), (tuple(domain[0]), tuple(domain[1])), p)

    @property
    def conjugate_exponent(self) -> float:
        p = self.exponent
        return p / (p - 1.0)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / (n - 1) for n, (lo, hi) in zip(self.dims, self.domain)
        )

    def axis_nodes(self, axis: int) -> np.ndarray:
        lo, hi = self.domain[axis]
        return np.linspace(lo, hi, self.dims[axis])

    def coords(self) -> tuple[np.ndarray, ...]:
        """Node coordinates per axis, each flattened to `size`."""
        grids = np.meshgrid(
            *(self.axis_nodes(a) for a in range(len(self.dims))), indexing="ij"
        )
        return tuple(g.ravel() for g in grids)


@dataclass(frozen=True)
class GridFn:
    """A real-valued function on a GridSpace, tagged primal or dual."""

    space: GridSpace
    values: np.ndarray
    variance: str = PRIMAL

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.space.size,):
            raise ValueError(
                f"values shape {vals.shape} does not match space size "
                f"{self.space.size}"
            )
        if not np.all(np.isfinite(vals)):
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

    def __neg__(self) -> "GridFn":
        return GridFn(self.space, -self.values, self.variance)


def primal(space: GridSpace, values) -> GridFn:
    return GridFn(space, values, PRIMAL)


def dual(space: GridSpace, values) -> GridFn:
    return GridFn(space, values, DUAL)


def zeros(space: GridSpace, variance: str = PRIMAL) -> GridFn:
    return GridFn(space, np.zeros(space.size), variance)


def norm(f: GridFn) -> float:
    """Quadrature-weighted p-norm; dual elements use the conjugate exponent."""
    p = f.space.exponent if f.variance == PRIMAL else f.space.conjugate_exponent
    if p == 2.0:
        return float(np.sqrt(np.sum(f.space.weights * f.values**2)))
    return float(np.sum(f.space.weights * np.abs(f.values) ** p) ** (1.0 / p))


def pairing(xi: GridFn, x: GridFn) -> float:
    """Duality pairing <xi, x> = sum_i w_i xi_i x_i."""
    if xi.space != x.space:
        raise ValueError("pairing requires functions on the same space")
    if xi.variance != DUAL or x.variance != PRIMAL:
        raise ValueError("pairing takes a dual and a primal grid function")
    return float(np.sum(xi.space.weights * xi.values * x.values))


def duality_map(f: GridFn, r: float) -> GridFn:
    """Duality mapping with gauge t -> t^(r-1) on the discretized L^p space.

    Satisfies ||J_r(f)||_* = ||f||^(r-1) and <J_r(f), f> = ||f||^r.  Returns
    the zero dual element when f = 0 (the 0/0 limit of the formula).
    """
    if r <= 1.0:
        raise ValueError(f"gauge exponent r must be > 1, got {r}")
    if f.variance != PRIMAL:
        raise ValueError("duality_map takes a primal grid function")
    p = f.space.exponent
    nrm = norm(f)
    if nrm == 0.0:
        return zeros(f.space, DUAL)
    vals = nrm ** (r - p) * np.abs(f.values) ** (p - 1.0) * np.sign(f.values)
    return GridFn(f.space, vals, DUAL)


def bregman_norm(fbar: GridFn, f: GridFn, r: float) -> float:
    """Bregman distance induced by ||.||^r / r."""
    if r <= 1.0:
        raise ValueError(f"r must be > 1, got {r}")
    jf = duality_map(f, r)
    return norm(fbar) ** r / r - norm(f) ** r / r - pairing(jf, fbar - f)


def write_csv(f: GridFn, path) -> None:
    """Serialize a grid function: header with space metadata, one value per line."""
    dims = ",".join(str(d) for d in f.space.dims)
    dom = ";".join(f"{lo:.17g}:{hi:.17g}" for lo, hi in f.space.domain)
    with open(path, "w") as fh:
        fh.write(
            f"# dims={dims} domain={dom} exponent={f.space.exponent:.17g} "
            f"variance={f.variance}\n"
        )
        for v in f.values:
            fh.write(f"{v:.17g}\n")


def read_csv(path) -> GridFn:
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing grid-function header")
        meta = dict(tok.split("=", 1) for tok in header[1:].split())
        dims = tuple(int(d) for d in meta["dims"].split(","))
        domain = tuple(
            tuple(float(v) for v in seg.split(":"))
            for seg in meta["domain"].split(";")
        )
        space = GridSpace(dims, domain, float(meta["exponent"]))
        values = np.array([float(line) for line in fh if line.strip()])
    return GridFn(space, values, meta["variance"])

"""The corexp weight and the inf-convolution behind the tau-property check.

The product's weight is the piecewise quadratic-then-linear family w_delta
for the symmetric exponential law (`corexp`): even, zero at 0 and
non-negative.

The tau-property product check integrates exp(f [] w) and exp(-f) against
a one-dimensional law with composite Simpson quadrature; [] denotes the
inf-convolution, computed exactly as a discrete min over grid nodes
(`inf_convolution`).  Up to 1600 nodes the weight table is cached, and
each 64-row block reads, along the table's rows, only the columns whose f
value plus the block's smallest weight in that column is at most an upper
bound on the block's row minima; no other column can hold a minimum, so
the result is the full min's to the bit.  Above 1600 nodes each block's
weight rows are computed and read in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError
from .measures import AlphaLaw


@dataclass(frozen=True)
class WeightFunction:
    """The corexp weight w_delta, delta in (0, 1/2): delta e^{-1/delta} t^2 / 8
    for |t| <= 2 / delta^2 and (1 - 2 delta) |t| beyond.

    Frozen and hashable, so weight tables are cached under it.
    """

    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise DomainError(f"corexp weight needs delta in (0,1/2), got {self.delta}")

    def __call__(self, t) -> np.ndarray:
        t = np.abs(np.asarray(t, dtype=float))
        d = self.delta
        coef = d * math.exp(-1.0 / d)
        # np.where drops this branch past the cut, where t**2 may overflow;
        # where coef underflows to 0 the branch is 0, not 0 * inf
        with np.errstate(over="ignore"):
            quad = coef * t**2 / 8.0 if coef > 0.0 else np.zeros_like(t)
        lin = (1.0 - 2.0 * d) * t
        # where delta^2 underflows to 0, 2 / delta^2 lies beyond every double
        cut = 2.0 / d**2 if d**2 > 0.0 else math.inf
        return np.where(t <= cut, quad, lin)


def corexp(delta: float) -> WeightFunction:
    return WeightFunction(delta)


def _weight_table(w, grid: np.ndarray) -> np.ndarray:
    """W[i,j] = w(x_i - x_j), built 64 rows at a time, the blocks
    `inf_convolution` evaluates above 1600 nodes, so no n x n temporary of
    w's expression is ever live; each block holds its differences until w
    has read them."""
    n = grid.size
    table = np.empty((n, n))
    for start in range(0, n, 64):
        rows = table[start : start + 64]
        np.subtract(grid[start : start + 64, None], grid[None, :], out=rows)
        rows[...] = w(rows)
    return table


@lru_cache(maxsize=8)
def _table_entry(w: WeightFunction, grid_bytes: bytes):
    """(table, floors) of w on the grid whose float64 bytes are given, built
    once per weight and grid and reused across tau-product corpora: the
    table W[i,j] = w(x_i - x_j), and floors[b, j], the smallest entry of
    column j over the 64-row block b.

    W equals its transpose bit for bit and holds no -0.0, because
    x - y = -(y - x) in IEEE arithmetic, w reads |t| and w(+0) = +0.  A
    non-finite entry raises `DomainError`.
    """
    table = _weight_table(w, np.frombuffer(grid_bytes))
    if not np.isfinite(table).all():
        raise DomainError(f"{w} has a non-finite entry on this grid")
    floors = np.array([table[start : start + 64].min(axis=0) for start in range(0, len(table), 64)])
    return table, floors


def inf_convolution(f, w: WeightFunction, grid) -> np.ndarray:
    """Discrete inf-convolution of a tabulated f with the corexp weight w on a grid.

    (f [] w)(x_i) = min_j f(x_j) + w(x_i - x_j), exact over grid nodes.
    f may contain +inf and -inf entries; a NaN entry, a weight that is not a
    `WeightFunction`, and a grid that is not finite and strictly increasing
    or whose span overflows raise `DomainError`.

    Above 1600 nodes, where no n x n table fits, each 64-row block computes
    its weight rows and reads them in full.  Up to 1600 nodes the table
    W[i,j] = w(x_i - x_j) is cached (`_table_entry`), and each 64-row block
    b reads only the columns that can hold a row's minimum.  One anchor per
    64-column chunk, the chunk's smallest f, gives each row i an upper bound
    ub_i on its minimum (a candidate value f_a + W[i,a]); with t_b the
    largest ub_i of the block, column j is kept when f_j + floors[b,j] <=
    t_b.  A dropped column has f_j + W[i,j] >= f_j + floors[b,j] > t_b >=
    ub_i for every row of the block, because rounded addition is monotone,
    so it holds no row's minimum.  The anchor bounds and each block's kept
    columns are read as contiguous row segments W[j, block]: W is its own
    transpose, so these are the entries W[block, j] to the bit; with no NaN
    and, since W holds no -0.0, no -0.0 among the sums, each row's minimum
    is the dense add-and-min's to the bit.
    """
    if not isinstance(w, WeightFunction):
        raise DomainError(f"inf_convolution needs a WeightFunction weight, got {type(w).__name__}")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("inf_convolution needs a non-empty grid")
    # NaN fails both tests; a strictly increasing grid with a finite span is finite
    with np.errstate(over="ignore", invalid="ignore"):
        if not ((np.diff(grid) > 0).all() and np.isfinite(grid[-1] - grid[0])):
            raise DomainError("grid must be finite and strictly increasing, with a finite span")
    f = np.asarray(f, dtype=float)
    if f.shape != grid.shape:
        raise DomainError("tabulated f must match the grid")
    if np.isnan(f).any():
        raise DomainError("inf_convolution needs f without NaN entries")
    n = grid.size
    out = np.empty(n)
    if n > 1600:
        for start in range(0, n, 64):
            block = slice(start, start + 64)
            out[block] = np.min(f[None, :] + w(grid[block, None] - grid[None, :]), axis=1)
        return out
    table, floors = _table_entry(w, grid.tobytes())
    starts = np.arange(0, n, 64)
    padded = np.full(starts.size * 64, np.inf)
    padded[:n] = f
    anchors = starts + padded.reshape(-1, 64).argmin(axis=1)
    ub = np.min(f[anchors, None] + table[anchors], axis=0)
    keep = f + floors <= np.maximum.reduceat(ub, starts)[:, None]
    # each block's kept columns, from one pass over the mask
    kept = np.flatnonzero(keep)
    bounds = np.searchsorted(kept, np.arange(starts.size + 1) * n)
    for b, start in enumerate(starts):
        cols = kept[bounds[b] : bounds[b + 1]] - b * n
        out[start : start + 64] = np.min(f[cols, None] + table[cols, start : start + 64], axis=0)
    return out


def _simpson_weights(n: int, h: float) -> np.ndarray:
    if n % 2 == 0:
        raise DomainError("composite Simpson needs an odd node count")
    wts = np.ones(n)
    wts[1:-1:2] = 4.0
    wts[2:-1:2] = 2.0
    return wts * (h / 3.0)


@lru_cache(maxsize=8)
def _quadrature(law: AlphaLaw, grid_bytes: bytes) -> np.ndarray:
    """Simpson weights times law's density on the grid whose float64 bytes
    are given, built once per AlphaLaw and grid.  A grid of fewer than 3
    nodes, not uniform or whose weights sum to a mass off 1 by more than
    1e-6 raises and is not cached, so it raises on every call."""
    grid = np.frombuffer(grid_bytes)
    if grid.size < 3:
        raise DomainError("tau_product needs a Simpson grid of at least 3 nodes")
    h = grid[1] - grid[0]
    if not np.allclose(np.diff(grid), h, rtol=1e-9):
        raise DomainError("tau_product needs a uniform Simpson grid")
    wd = _simpson_weights(grid.size, h) * law.density(grid)
    mass = float(np.sum(wd))
    if abs(mass - 1.0) > 1e-6:
        raise AccuracyError(f"quadrature weights sum to {mass}, not the law's mass 1")
    return wd


def tau_product(law: AlphaLaw, w, f, grid) -> float:
    """Product (int e^{f[]w} dnu) (int e^{-f} dnu) via fixed quadrature.

    ``grid`` carries the Simpson nodes and ``f`` the tabulated non-negative
    function on them.  Raises `AccuracyError` when the grid's Simpson
    weights times the density sum to a mass off 1 by more than 1e-6.
    """
    grid = np.asarray(grid, dtype=float)
    f = np.asarray(f, dtype=float)
    if not (f >= 0).all():
        raise DomainError("tau_product needs a non-negative f")
    wd = _quadrature(law, grid.tobytes())
    fw = inf_convolution(f, w, grid)
    left = float(np.sum(wd * np.exp(np.minimum(fw, 700.0))))
    right = float(np.sum(wd * np.exp(-f)))
    return left * right

"""The corexp weight and the inf-convolution behind the tau-property check.

The product's weight is the piecewise quadratic-then-linear family w_delta
for the symmetric exponential law (`corexp`): even, zero at 0 and
non-negative.

The tau-property product check integrates exp(f [] w) and exp(-f) against
a one-dimensional law with composite Simpson quadrature; [] denotes the
inf-convolution, computed exactly as a discrete min over grid nodes.  On a
cached weight table each 64-row block reads only the columns whose f
value, plus the block's smallest weight in that column, is at most an
upper bound on the block's row minima; no other column can hold a minimum,
so the result is the full min's to the bit (`inf_convolution`).  A table
equal to its own transpose, as corexp's tables are, is read along rows
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        quad = d * math.exp(-1.0 / d) * t**2 / 8.0
        lin = (1.0 - 2.0 * d) * t
        return np.where(t <= 2.0 / d**2, quad, lin)


def corexp(delta: float) -> WeightFunction:
    return WeightFunction(delta)


# weight tables W[i,j] = w(x_i - x_j), reused across tau-product corpora, each
# kept beside its block floors and whether it reads as its own transpose
# (`_table_entry`)
_TABLE_CACHE: dict[tuple, tuple] = {}

# Simpson weights times the law's density, per law and grid (`_quadrature`)
_QUAD_CACHE: dict[tuple, np.ndarray] = {}

# a block whose kept columns exceed this share of the row takes the dense
# add-and-min, which is faster there (read as row segments or as columns,
# the kept columns cost the same as the dense block near 0.4 at 1201 nodes)
_DENSE_SHARE = 0.4


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


def _block_floors(table: np.ndarray) -> np.ndarray | None:
    """floors[b, j]: the smallest entry of column j over the 64-row block b.

    None when some entry of the table is not finite.  Read 64 rows at a time.
    """
    floors = np.array([table[start : start + 64].min(axis=0) for start in range(0, len(table), 64)])
    # max and min propagate NaN, so a NaN entry fails both tests
    if not (table.max() < math.inf and floors.min() > -math.inf):
        return None
    return floors


def _table_entry(w, grid: np.ndarray):
    """(table, floors, symmetric) of w on grid, built once per WeightFunction
    and grid and looked up under one key.

    ``symmetric`` holds when the floors exist, W equals its transpose
    exactly and no entry is -0.0: then W[i,j] and W[j,i] have the same bits
    and a column of the table can be read as a row.  corexp's tables pass,
    because x - y = -(y - x) in IEEE arithmetic and w reads |t|.
    """
    key = (w, grid.tobytes()) if isinstance(w, WeightFunction) else None
    entry = _TABLE_CACHE.get(key)
    if entry is None:
        table = _weight_table(w, grid)
        floors = _block_floors(table)
        symmetric = (floors is not None and np.array_equal(table, table.T)
                     and not np.signbit(table[table == 0.0]).any())
        entry = table, floors, symmetric
        if key is not None:
            if len(_TABLE_CACHE) > 8:
                _TABLE_CACHE.clear()
            _TABLE_CACHE[key] = entry
    return entry


def inf_convolution(f, w, grid) -> np.ndarray:
    """Discrete inf-convolution of a tabulated f with weight w on a grid.

    (f [] w)(x_i) = min_j f(x_j) + w(x_i - x_j), exact over grid nodes.
    f may contain +inf and -inf entries, and a NaN entry makes every value
    NaN; w may be any callable weight.

    Up to 1600 nodes the table W[i,j] = w(x_i - x_j) is cached, and when it
    is finite and f holds no NaN each 64-row block b reads only the columns
    that can hold a row's minimum.  One anchor per 64-column chunk, the
    chunk's smallest f, gives each row i an upper bound ub_i on its minimum
    (a candidate value f_a + W[i,a]); with t_b the largest ub_i of the
    block, column j is kept when f_j + floors[b,j] <= t_b.  A dropped column
    has f_j + W[i,j] >= f_j + floors[b,j] > t_b >= ub_i for every row of
    the block, because rounded addition is monotone, so it holds no row's
    minimum.  The kept columns give each row the same single addition of
    the same table entry, and min selects without rounding, so the result
    is the dense add-and-min's to the bit.  On a symmetric table
    (`_table_entry`) the anchor bounds and each block's kept columns are
    read as contiguous row segments W[j, block] in place of column gathers
    W[block, j]; the entries have the same bits, and with no -0.0 among
    the sums each row's minimum is the same double.  Above 1600 nodes the
    rows are computed per block and read in full.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("inf_convolution needs a non-empty grid")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("grid must be strictly increasing")
    f = np.asarray(f, dtype=float)
    if f.shape != grid.shape:
        raise DomainError("tabulated f must match the grid")
    n = grid.size
    # cached table rows up to 1600 nodes, rows computed per block above;
    # 64-row blocks keep every temporary in cache
    table, floors, symmetric = _table_entry(w, grid) if n <= 1600 else (None, None, False)
    keep = None
    if floors is not None and not np.isnan(f).any():
        starts = np.arange(0, n, 64)
        padded = np.full(starts.size * 64, np.inf)
        padded[:n] = f
        anchors = starts + padded.reshape(-1, 64).argmin(axis=1)
        if symmetric:
            ub = np.min(f[anchors, None] + table[anchors], axis=0)
        else:
            ub = np.min(f[anchors] + table[:, anchors], axis=1)
        keep = f + floors <= np.maximum.reduceat(ub, starts)[:, None]
        # each block's kept columns, from one pass over the mask
        kept = np.flatnonzero(keep)
        bounds = np.searchsorted(kept, np.arange(starts.size + 1) * n)
    out = np.empty(n)
    for b, start in enumerate(range(0, n, 64)):
        block = slice(start, start + 64)
        if keep is not None and bounds[b + 1] - bounds[b] <= _DENSE_SHARE * n:
            cols = kept[bounds[b] : bounds[b + 1]] - b * n
            if symmetric:
                out[block] = np.min(f[cols, None] + table[cols, block], axis=0)
            else:
                out[block] = np.min(f[cols] + table[block, cols], axis=1)
        else:
            rows = w(grid[block, None] - grid[None, :]) if table is None else table[block]
            out[block] = np.min(f[None, :] + rows, axis=1)
    return out


def _simpson_weights(n: int, h: float) -> np.ndarray:
    if n % 2 == 0:
        raise DomainError("composite Simpson needs an odd node count")
    wts = np.ones(n)
    wts[1:-1:2] = 4.0
    wts[2:-1:2] = 2.0
    return wts * (h / 3.0)


def _quadrature(law: AlphaLaw, grid: np.ndarray) -> np.ndarray:
    """Simpson weights times law's density on grid, built once per AlphaLaw
    and grid.  A grid of fewer than 3 nodes, not uniform or whose weights
    sum to a mass off 1 by more than 1e-6 raises and is not cached, so it
    raises on every call."""
    key = law, grid.tobytes()
    wd = _QUAD_CACHE.get(key)
    if wd is None:
        if grid.size < 3:
            raise DomainError("tau_product needs a Simpson grid of at least 3 nodes")
        h = grid[1] - grid[0]
        if not np.allclose(np.diff(grid), h, rtol=1e-9):
            raise DomainError("tau_product needs a uniform Simpson grid")
        wd = _simpson_weights(grid.size, h) * law.density(grid)
        mass = float(np.sum(wd))
        if abs(mass - 1.0) > 1e-6:
            raise AccuracyError(f"quadrature weights sum to {mass}, not the law's mass 1")
        if len(_QUAD_CACHE) > 8:
            _QUAD_CACHE.clear()
        _QUAD_CACHE[key] = wd
    return wd


def tau_product(law: AlphaLaw, w, f, grid) -> float:
    """Product (int e^{f[]w} dnu) (int e^{-f} dnu) via fixed quadrature.

    ``grid`` carries the Simpson nodes and ``f`` the tabulated non-negative
    function on them.  Raises `AccuracyError` when the grid's Simpson
    weights times the density sum to a mass off 1 by more than 1e-6.
    """
    grid = np.asarray(grid, dtype=float)
    f = np.asarray(f, dtype=float)
    if np.any(f < 0):
        raise DomainError("tau_product needs a non-negative f")
    wd = _quadrature(law, grid)
    fw = inf_convolution(f, w, grid)
    left = float(np.sum(wd * np.exp(np.minimum(fw, 700.0))))
    right = float(np.sum(wd * np.exp(-f)))
    return left * right

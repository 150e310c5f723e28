"""Weight families and inf-convolution machinery for concentration checks.

Three weight families drive the transport-cost concentration inequalities:
the smooth Talagrand family ``c_lam``, the piecewise quadratic-then-linear
family ``w_delta`` for the symmetric exponential law, and a truncated
family ``w_{alpha,eps}^{(m)}`` whose linear-branch exponent is alpha.  All
are even, vanish at 0, and are non-negative.

The tau-property product check integrates exp(f [] w) and exp(-f) against
a one-dimensional law (or a small tensor product of it) with composite
Simpson quadrature; [] denotes the inf-convolution, computed exactly as a
discrete min over grid nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
from .measures import AlphaLaw

# defaults for the truncated family; the admissible constants are not pinned
# down numerically, so both stay caller-overridable everywhere
KAPPA_DEFAULT = 1.0
EPS0_DEFAULT = 0.25


@dataclass(frozen=True)
class WeightFunction:
    """An even, non-negative weight with w(0) = 0.

    kind is one of "talagrand" (parameter lam), "corexp" (parameter delta)
    or "truncated" (parameters alpha, eps, m, kappa).
    """

    kind: str
    lam: float = 0.0
    delta: float = 0.0
    alpha: float = 0.0
    eps: float = 0.0
    m: float = 1.0
    kappa: float = KAPPA_DEFAULT

    def __post_init__(self):
        if self.kind == "talagrand":
            if not 0.0 < self.lam < 1.0:
                raise DomainError(f"talagrand weight needs lam in (0,1), got {self.lam}")
        elif self.kind == "corexp":
            if not 0.0 < self.delta < 0.5:
                raise DomainError(f"corexp weight needs delta in (0,1/2), got {self.delta}")
        elif self.kind == "truncated":
            if not 0.0 < self.eps < EPS0_DEFAULT:
                raise DomainError(f"truncated weight needs eps in (0,{EPS0_DEFAULT})")
            if self.m < 1.0:
                raise DomainError(f"truncated weight needs m >= 1, got {self.m}")
            if self.kappa <= 0.0:
                raise DomainError(f"truncated weight needs kappa > 0, got {self.kappa}")
            if self.alpha <= 0.0:
                raise DomainError(f"truncated weight needs alpha > 0, got {self.alpha}")
        else:
            raise DomainError(f"unknown weight kind {self.kind!r}")

    def __call__(self, t) -> np.ndarray:
        t = np.abs(np.asarray(t, dtype=float))
        if self.kind == "talagrand":
            lam = self.lam
            return (1.0 / lam - 1.0) * (np.exp(-lam * t) - 1.0 + lam * t)
        if self.kind == "corexp":
            d = self.delta
            quad = d * math.exp(-1.0 / d) * t**2 / 8.0
            lin = (1.0 - 2.0 * d) * t
            return np.where(t <= 2.0 / d**2, quad, lin)
        cut = self.m / self.eps
        quad = t**2 * math.exp(-((cut) ** (self.alpha / 2.0))) / self.kappa
        lin = (1.0 - self.kappa * self.eps ** min(self.alpha / 2.0, 1.0)) * t**self.alpha
        return np.where(t <= cut, quad, lin)


def talagrand(lam: float) -> WeightFunction:
    return WeightFunction("talagrand", lam=lam)


def corexp(delta: float) -> WeightFunction:
    return WeightFunction("corexp", delta=delta)


def truncated(alpha: float, eps: float, m: float = 1.0, kappa: float = KAPPA_DEFAULT) -> WeightFunction:
    return WeightFunction("truncated", alpha=alpha, eps=eps, m=m, kappa=kappa)


# weight tables W[i,j] = w(x_i - x_j) are reused across tau-product corpora
_TABLE_CACHE: dict[tuple, np.ndarray] = {}


def _weight_table(w, grid: np.ndarray) -> np.ndarray:
    key = None
    if isinstance(w, WeightFunction):
        key = (w, grid.tobytes())
        hit = _TABLE_CACHE.get(key)
        if hit is not None:
            return hit
    table = w(grid[:, None] - grid[None, :])
    if key is not None:
        if len(_TABLE_CACHE) > 8:
            _TABLE_CACHE.clear()
        _TABLE_CACHE[key] = table
    return table


def inf_convolution(f, w, grid) -> np.ndarray:
    """Discrete inf-convolution of a tabulated f with weight w on a grid.

    (f [] w)(x_i) = min_j f(x_j) + w(x_i - x_j), exact over grid nodes.
    f may contain +inf entries; w may be any callable weight.
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
    table = _weight_table(w, grid) if n <= 1600 else None
    out = np.empty(n)
    for start in range(0, n, 64):
        block = slice(start, start + 64)
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


def tau_product(law: AlphaLaw, w, f, grid, dim: int = 1) -> float:
    """Product (int e^{f[]w} dnu) (int e^{-f} dnu) via fixed quadrature.

    For dim == 1, ``grid`` carries the Simpson nodes and ``f`` the tabulated
    non-negative function.  For dim in {2, 3} the law is tensorized on the
    same per-axis grid, ``f`` has shape (len(grid),)*dim, and the weight sum
    W(x) = sum_i w(x_i) is inf-convolved axis by axis (valid because W is
    separable).  Raises when the grid covers less than 1 - 1e-6 of the mass.
    """
    grid = np.asarray(grid, dtype=float)
    f = np.asarray(f, dtype=float)
    if np.any(f < 0):
        raise DomainError("tau_product needs a non-negative f")
    if dim not in (1, 2, 3):
        raise DomainError("tau_product supports tensor grids of dimension <= 3")
    h = grid[1] - grid[0]
    if not np.allclose(np.diff(grid), h, rtol=1e-9):
        raise DomainError("tau_product needs a uniform Simpson grid")
    wts = _simpson_weights(grid.size, h)
    dens = law.density(grid)
    mass = float(np.sum(wts * dens))
    if mass < 1.0 - 1e-6:
        raise AccuracyError(f"quadrature grid carries only {mass} of the law's mass")

    if dim == 1:
        fw = inf_convolution(f, w, grid)
        left = float(np.sum(wts * dens * np.exp(np.minimum(fw, 700.0))))
        right = float(np.sum(wts * dens * np.exp(-f)))
        return left * right

    if f.shape != (grid.size,) * dim:
        raise DomainError("tensor f must have shape (len(grid),)*dim")
    fw = f.copy()
    for axis in range(dim):
        fw = np.apply_along_axis(lambda row: inf_convolution(row, w, grid), axis, fw)
    wd = wts * dens
    tensor = wd
    for _ in range(dim - 1):
        tensor = np.multiply.outer(tensor, wd)
    left = float(np.sum(tensor * np.exp(np.minimum(fw, 700.0))))
    right = float(np.sum(tensor * np.exp(-f)))
    return left * right


def split_enlargement(y, eps: float, m: float):
    """Split y into small and large coordinates at the threshold m/eps.

    Returns (y1, y2) with y = y1 + y2, disjoint supports, |y1| <= m/eps
    coordinate-wise and |y2| > m/eps on its support.  When the sum of the
    truncated weight (alpha, eps, m, kappa) over y is below
    r (1 - kappa eps^{(alpha/2) and 1}), the parts satisfy
    ||y1||_2 <= k_m(eps) sqrt(r) and ||y2||_alpha^alpha <= r with
    k_m(eps) = sqrt(kappa) exp((m/eps)^{alpha/2} / 2).
    """
    y = np.asarray(y, dtype=float)
    cut = m / eps
    small = np.abs(y) <= cut
    y1 = np.where(small, y, 0.0)
    y2 = np.where(small, 0.0, y)
    return y1, y2


def split_constant(alpha: float, eps: float, m: float, kappa: float = KAPPA_DEFAULT) -> float:
    """The Euclidean-part constant k_m(eps) of the enlargement split."""
    return math.sqrt(kappa) * math.exp(0.5 * (m / eps) ** (alpha / 2.0))

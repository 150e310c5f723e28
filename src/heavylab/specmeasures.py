"""Atomic measures on the line, spectral distances, and free convolution.

Everything spectral in the package flows through `Measure1D` (sorted atoms,
weights).  Distances between measures are evaluated through Stieltjes
transforms on a fixed contour above the real axis, through quantile-coupled
Wasserstein costs, or through the fractional-moment distance d_p for
exponents below 1.  Free convolution with the semicircle law is computed from
Biane's subordination equation G(z) = g_nu(z - G(z)) (Indiana Univ. Math. J.
46, 1997), solved by Newton's method with its exact derivative and a damped
fixed-point step as the safeguard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ConvergenceError, DomainError

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
# Newton iterations per free-convolution solve before ConvergenceError
_NEWTON_ITERS = 1000
# a free-convolution node stops once its fixed-point residual is below this
_NEWTON_TOL = 1e-12
# distance_dp stops doubling its sampling once two sweeps agree to this
_DP_TOL = 1e-9
# points per d_p difference evaluation; bounds the (points x atoms) temporaries
_DP_CHUNK = 1024
# distance_dp splits each segment that its end values leave uncertified into
# this many pieces, once
_DP_PIECES = 8
# distance_dp's rounding margin is _DP_SLACK (m + 4) (eps (A + B) + eta),
# eps = 2^-52 and eta = 2^-1074 (the smallest subnormal)
_DP_SLACK = 24.0
_EPS = 2.0**-52
_TINY = 2.0**-1074


@dataclass(frozen=True)
class Measure1D:
    """Discrete probability measure: strictly sorted finite atoms with
    matching finite non-negative weights summing to 1 (checked to 1e-12)."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim != 1 or atoms.shape != weights.shape:
            raise DomainError("atoms and weights must be matching 1-d arrays")
        if atoms.size == 0:
            raise DomainError("a measure needs at least one atom")
        if not (np.isfinite(atoms).all() and np.isfinite(weights).all()):
            raise DomainError("atoms and weights must be finite")
        if np.any(np.diff(atoms) <= 0):
            raise DomainError("atoms must be strictly sorted")
        if np.any(weights < 0):
            raise DomainError("probability weights must be non-negative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise DomainError("probability weights must sum to 1")
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @staticmethod
    def from_atoms(atoms, weights=None) -> "Measure1D":
        """Probability measure from unsorted atoms, merging exact duplicates (`_merge_rows`)."""
        atoms = np.asarray(atoms, dtype=float).reshape(1, -1)
        if atoms.size == 0:
            raise DomainError("a measure needs at least one atom")
        if weights is None:
            weights = np.full(atoms.size, 1.0 / atoms.size)
        weights = np.asarray(weights, dtype=float).reshape(1, -1)
        if weights.shape != atoms.shape:
            raise DomainError("atoms and weights must be matching arrays")
        return Measure1D(*_merge_rows(atoms, weights)[:2])

    def moment(self, p: float) -> float:
        """p-th absolute moment (finite by construction)."""
        return float(np.dot(np.abs(self.atoms) ** p, self.weights))

    def dilate(self, t: float) -> "Measure1D":
        """Pushforward under x -> t x (t > 0)."""
        if t <= 0:
            raise DomainError("dilation factor must be positive")
        return Measure1D(self.atoms * t, self.weights)

    @staticmethod
    def from_csv(text: str) -> "Measure1D":
        """Probability measure from "atom,weight" lines; DomainError on a malformed line."""
        atoms, weights = [], []
        for line in text.strip().splitlines():
            line = line.strip()
            if not line or line.startswith(("atom", "#")):
                continue
            try:
                a, w = map(float, line.split(","))
            except ValueError:
                a = w = math.nan
            if not (math.isfinite(a) and math.isfinite(w)):
                raise DomainError(f"measure line {line!r} is not two finite numbers atom,weight")
            atoms.append(a)
            weights.append(w)
        return Measure1D.from_atoms(np.array(atoms), np.array(weights))


def _merge_rows(atoms: np.ndarray, weights: np.ndarray):
    """Each row of the (m, n) ``atoms`` sorted stably, keeping the first of
    equal atoms (of -0.0 and +0.0, the one the row holds first), and the
    (m, n) ``weights`` of equal atoms summed from 0 by np.add.at in sorted
    row order.  Returns the kept atoms and their weights, rows concatenated,
    and each row's count of kept atoms."""
    order = np.argsort(atoms, axis=1, kind="stable")
    atoms = np.take_along_axis(atoms, order, axis=1)
    first = np.ones(atoms.shape, dtype=bool)
    first[:, 1:] = atoms[:, 1:] != atoms[:, :-1]
    merged = np.zeros(np.count_nonzero(first))
    np.add.at(merged, np.cumsum(first) - 1, np.take_along_axis(weights, order, axis=1).ravel())
    return atoms[first], merged, first.sum(axis=1)


@dataclass(frozen=True)
class StieltjesContour:
    """Evaluation nodes for the transform distance (`default_contour`'s: Im >= 2, diameter <= 1)."""

    nodes: np.ndarray


_CONTOUR = StieltjesContour(np.linspace(0.0, 1.0, 64) + 2.0j)
_CONTOUR.nodes.setflags(write=False)


def default_contour() -> StieltjesContour:
    """64 equispaced nodes on the segment {x + 2i : x in [0, 1]}: one read-only object."""
    return _CONTOUR


def stieltjes(mu: Measure1D, z):
    """g_mu(z) = sum_i w_i / (z - x_i) for Im z > 0."""
    z = np.asarray(z, dtype=complex)
    shape = (z.size, mu.atoms.size)
    g = _stieltjes_rows(mu.atoms, mu.weights, z.reshape(-1), np.empty(shape, complex),
                        np.empty(shape, complex), False)
    return g.reshape(z.shape)


def _stieltjes_rows(atoms: np.ndarray, weights: np.ndarray, z: np.ndarray, gaps: np.ndarray,
                    terms: np.ndarray, derivative: bool):
    """`stieltjes` at the nodes of the 1-d array z, with the (z.size, atoms)
    differences and terms written into the buffers ``gaps`` and ``terms``.

    ``atoms`` and ``weights`` are one measure's, or one row per node.  With
    ``derivative`` returns the pair (g(z), g'(z)), where
    g'(z) = -sum_i w_i / (z - x_i)^2 comes from the same differences."""
    if np.any(z.imag <= 0):
        raise DomainError("Stieltjes transform needs Im z > 0")
    np.subtract(z[:, None], atoms, out=gaps)
    np.divide(weights, gaps, out=terms)
    g = terms.sum(axis=1)
    if not derivative:
        return g
    terms /= gaps
    return g, -terms.sum(axis=1)


def g_semicircle(z) -> np.ndarray:
    """Stieltjes transform of the semicircle law, branch with g ~ 1/z at inf.

    Defined off the open cut (-2, 2); real arguments with |z| >= 2 take the
    boundary values (g(2) = 1, g(-2) = -1).
    """
    z = np.asarray(z, dtype=complex)
    on_cut = (z.imag == 0) & (np.abs(z.real) < 2.0)
    if np.any(on_cut):
        raise DomainError("g_semicircle is undefined on the cut (-2, 2)")
    s = np.sqrt(z - 2.0) * np.sqrt(z + 2.0)
    # 2/(z+s) equals (z-s)/2 without cancellation at large |z|
    return 2.0 / (z + s)


def distance_d(mu: Measure1D, nu: Measure1D) -> float:
    """sup over the default contour's nodes of |g_mu - g_nu|."""
    nodes = default_contour().nodes
    return transform_distance(stieltjes(mu, nodes), stieltjes(nu, nodes))


def transform_distance(gvals_a, gvals_b) -> float:
    """Distance between two precomputed transform vectors on one contour."""
    return float(np.max(np.abs(np.asarray(gvals_a) - np.asarray(gvals_b))))


def _quantile_slices(mu: Measure1D, nu: Measure1D):
    """Common refinement of the two cumulative-weight partitions."""
    cum_a = np.cumsum(mu.weights)
    cum_b = np.cumsum(nu.weights)
    cuts = np.unique(np.concatenate([[0.0], cum_a, cum_b, [1.0]]))
    cuts = cuts[(cuts > 0.0) & (cuts <= 1.0)]
    mass = np.diff(np.concatenate([[0.0], cuts]))
    ia = np.searchsorted(cum_a, cuts - 1e-15)
    ib = np.searchsorted(cum_b, cuts - 1e-15)
    ia = np.minimum(ia, mu.atoms.size - 1)
    ib = np.minimum(ib, nu.atoms.size - 1)
    return mass, mu.atoms[ia], nu.atoms[ib]


def wasserstein_p(mu: Measure1D, nu: Measure1D, p: float) -> float:
    """L^p Wasserstein distance through the monotone (quantile) coupling.

    The quantile coupling is optimal in one dimension for p >= 1.
    """
    if p < 1:
        raise DomainError("wasserstein_p needs p >= 1; use distance_dp below 1")
    return monotone_coupling_cost(mu, nu, p) ** (1.0 / p)


def monotone_coupling_cost(mu: Measure1D, nu: Measure1D, p: float) -> float:
    """sum_i pi_i |x_i - y_i|^p under the quantile coupling (any p > 0)."""
    mass, xa, xb = _quantile_slices(mu, nu)
    return float(np.sum(mass * np.abs(xa - xb) ** p))


def _dp_parts(mu: Measure1D, nu: Measure1D, p: float, t) -> np.ndarray:
    """The pair (int (t-x)_+^p dmu, int (t-x)_+^p dnu), elementwise over any t.

    Points are evaluated in runs of ``_DP_CHUNK``; each point is summed on
    its own, so the values do not depend on the chunking.  The power is
    taken only where t > x: elsewhere the term is an exact +0, as 0^p is.
    """
    t = np.asarray(t, dtype=float)
    flat = t.reshape(-1)
    out = np.empty((2, flat.size))
    for start in range(0, flat.size, _DP_CHUNK):
        x = flat[start : start + _DP_CHUNK, None]
        for row, sigma in zip(out, (mu, nu)):
            base = x - sigma.atoms
            np.maximum(base, 0.0, out=base)
            np.power(base, p, out=base, where=base > 0)
            base *= sigma.weights
            row[start : start + _DP_CHUNK] = base.sum(axis=-1)
    return out.reshape(2, *t.shape)


def _dp_diff(mu: Measure1D, nu: Measure1D, p: float):
    """t -> int (t-x)_+^p dmu - int (t-x)_+^p dnu, the difference of `_dp_parts`."""

    def diff(t):
        a, b = _dp_parts(mu, nu, p, t)
        return a - b

    return diff


def _dp_may_reach(parts: np.ndarray, floor: float, size: int) -> np.ndarray:
    """Pieces between consecutive points of the last axis on which the
    computed |A - B| may reach ``floor``; ``parts`` holds (A, B) at the
    points, as `_dp_parts` gives them, and ``size`` is the larger atom count.

    A and B do not decrease, so on a piece [s, s'] the exact |A - B| is at
    most max(A(s') - B(s), B(s') - A(s)); `distance_dp` derives the margin.
    """
    a, b = parts
    bound = np.maximum(a[..., 1:] - b[..., :-1], b[..., 1:] - a[..., :-1])
    margin = _DP_SLACK * (size + 4) * (_EPS * (a[..., 1:] + b[..., 1:]) + _TINY)
    return ~(bound + margin < floor)


def _golden_max(fun, lo, hi, iters: int = 80) -> np.ndarray:
    """Golden-section maxima of ``fun`` on the brackets [lo_i, hi_i], in lockstep.

    ``fun`` maps an array of points to their values.  Every bracket takes
    the scalar golden-section update, one ``fun`` call per step for all
    live brackets, and leaves the live set at its own stop
    b - a < 1e-13 max(1, |a| + |b|) or after ``iters`` steps.  Returns
    max(f(c), f(d)) of each bracket's final probe pair.
    """
    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    c = b - _GOLD * (b - a)
    d = a + _GOLD * (b - a)
    fc, fd = np.split(fun(np.concatenate([c, d])), 2)
    best = np.empty(a.size)
    live = np.arange(a.size)
    for _ in range(iters):
        # left: keep [a, d], old c becomes d; right: keep [c, b], old d becomes c
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        probe = np.where(left, b - _GOLD * (b - a), a + _GOLD * (b - a))
        f = fun(probe)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, f, fd), np.where(left, fc, f)
        done = b - a < 1e-13 * np.maximum(1.0, np.abs(a) + np.abs(b))
        if done.any():
            best[live[done]] = np.maximum(fc[done], fd[done])
            keep = ~done
            a, b, c, d, fc, fd, live = (v[keep] for v in (a, b, c, d, fc, fd, live))
            if live.size == 0:
                return best
    best[live] = np.maximum(fc, fd)
    return best


def distance_dp(mu: Measure1D, nu: Measure1D, p: float) -> float:
    """sup_t | int (t-x)_+^p dmu - int (t-x)_+^p dnu | for p in (0, 1).

    The difference is continuous, vanishes at -inf and +inf, and is smooth
    except for kinks at atoms, so the sup is searched per inter-atom
    interval (plus a tail window) by sampling and golden-section
    refinement, doubling the sampling density until two sweeps agree to
    ``_DP_TOL`` = 1e-9.
    All segments are sampled in one evaluation and refined by one lockstep
    golden section; the difference is evaluated in chunks of points, which
    bounds memory without changing any value.

    Segments that provably stay below the knots are left out of the search.
    Both parts A(t) = int (t-x)_+^p dmu and B(t) do not decrease, so on a
    piece [s, s'] the exact |A - B| is at most
    U = max(A(s') - B(s), B(s') - A(s)).  A segment is dropped when, on
    its whole length or on each of its ``_DP_PIECES`` = 8 equal pieces (one
    split, no recursion), the computed U plus the margin
    M = 24 (m + 4) (eps (A(s') + B(s')) + eta) lies below the knots'
    maximum, with m the larger atom count, eps = 2^-52 and eta = 2^-1074.
    M bounds the rounding of the computed |diff(t)| at any t of the piece
    and of the computed U together: each of the four parts involved is m
    non-negative terms w (t - x)^p, whose subtraction, power and product
    err by a few ulps each and whose pairwise sum errs by at most (m - 1)
    eps of the total, at most (m + 4) eps A(s') with a pow good to 3 ulps;
    the two subtractions add eps (A + B) each, and a product that
    underflows adds at most eta per term.  That sums to about
    4 (m + 5) eps (A + B) + 2 m eta, which M exceeds several times over.
    So every value the search would compute on a dropped segment lies below
    the result, while the kept segments sample, bracket and refine exactly
    the points they did before: every sweep, the 1e-9 stop and the result
    keep their bits.  A pair whose parts cancel (mu = nu) certifies
    nothing and takes the full search.
    """
    if not 0.0 < p < 1.0:
        raise DomainError("distance_dp needs p in (0, 1)")
    diff = _dp_diff(mu, nu, p)
    absdiff = lambda t: np.abs(diff(t))
    knots = np.unique(np.concatenate([mu.atoms, nu.atoms]))
    span = max(knots[-1] - knots[0], 1.0)
    ends = np.append(knots[1:], knots[-1] + 10.0 * span)
    parts = _dp_parts(mu, nu, p, np.append(knots, ends[-1]))
    at_knots = float(np.max(np.abs(parts[0, :-1] - parts[1, :-1])))
    size = max(mu.atoms.size, nu.atoms.size)
    live = _dp_may_reach(parts, at_knots, size)
    split = np.flatnonzero(live)
    pieces = np.linspace(knots[split], ends[split], _DP_PIECES + 1, axis=1)
    live[split] = _dp_may_reach(_dp_parts(mu, nu, p, pieces), at_knots, size).any(axis=1)
    rows = np.flatnonzero(live)
    if rows.size == 0:
        return at_knots
    local = np.arange(rows.size)

    def sweep(per_segment: int) -> float:
        # spaced over every segment, then taken: linspace switches its
        # formula for all rows when one row's step underflows to 0
        ts = np.linspace(knots, ends, per_segment, axis=1)[rows]
        vals = absdiff(ts)
        k = np.argmax(vals, axis=1)
        a = ts[local, np.maximum(k - 1, 0)]
        b = ts[local, np.minimum(k + 1, per_segment - 1)]
        return max(at_knots, float(np.max(vals)), float(np.max(_golden_max(absdiff, a, b))))

    result = sweep(17)
    for per_segment in (33, 65, 129):
        refined = sweep(per_segment)
        if abs(refined - result) <= _DP_TOL:
            return max(refined, result)
        result = refined
    return result


def cp_constant(p: float) -> float:
    """C_p = sqrt(pi) (p+1) Gamma((p+1)/2) / Gamma(1 + p/2) for p in (0, 1]."""
    if not 0.0 < p <= 1.0:
        raise DomainError("cp_constant needs p in (0, 1]")
    return math.sqrt(math.pi) * (p + 1.0) * math.gamma((p + 1.0) / 2.0) / math.gamma(1.0 + p / 2.0)


def _semicircle_cdf(x: np.ndarray) -> np.ndarray:
    """Distribution function of the semicircle law, for x in [-2, 2]."""
    return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * math.pi) + np.arcsin(x / 2.0) / math.pi


def semicircle_measure(n_atoms: int = 2000) -> Measure1D:
    """Equal-mass quantile discretization of the semicircle law on [-2, 2].

    Atom k is a double whose CDF is no farther from q_k = (k + 1/2) / n_atoms
    than at either neighbouring double.  One vectorised bisection of the
    closed-form CDF runs on the atoms still live: an atom leaves at an exact
    hit (the q = 1/2 atom of odd n_atoms is 0 at the first step) or once its
    bracket is two adjacent doubles.  The rounded CDF is not monotone from
    one double to the next near the edges, so each atom then walks from its
    bracket's lower end to a neighbour while that is strictly nearer q_k,
    the lower neighbour on a tie.
    """
    if n_atoms < 1:
        raise DomainError("need at least one atom")
    qs = (np.arange(n_atoms) + 0.5) / n_atoms
    lo, hi = np.full(n_atoms, -2.0), np.full(n_atoms, 2.0)
    live = np.arange(n_atoms)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        inner = (lo[live] < mid) & (mid < hi[live])
        live, mid = live[inner], mid[inner]
        cdf = _semicircle_cdf(mid)
        lo[live] = np.where(cdf <= qs[live], mid, lo[live])
        hi[live] = np.where(cdf >= qs[live], mid, hi[live])
    dist = lambda x: np.abs(_semicircle_cdf(x) - qs)
    atoms = lo
    while True:
        down, up = np.nextafter(atoms, -np.inf), np.nextafter(atoms, np.inf)
        step = np.where(dist(up) < dist(down), up, down)
        nearer = dist(step) < dist(atoms)
        if not nearer.any():
            return Measure1D.from_atoms(atoms)
        atoms = np.where(nearer, step, atoms)


def freeconv_transform(nu: Measure1D, z_nodes):
    """Subordination fixed point G(z) = g_nu(z - G(z)) at arbitrary Im z > 0.

    Newton's method on F(G) = G - g_nu(z - G), whose exact derivative is
    F'(G) = 1 - sum_i w_i / (z - G - x_i)^2, started at the semicircle
    transform (Biane, Indiana Univ. Math. J. 46, 1997).  The safeguard is
    the damped step (G + g_nu(z - G)) / 2, which stays in the lower half
    plane and converges from anywhere there: a node takes it where the
    Newton step is not finite or leaves the lower half plane, and in place
    of a Newton step that did not shrink |F(G)|^2 / (Im G Im g_nu(z - G)),
    a monotone function of the hyperbolic distance from G to g_nu(z - G).
    A node stops once |F(G)| < ``_NEWTON_TOL`` = 1e-12 and still takes that
    iteration's step, so the returned residual lies well below 1e-12.
    Returns G with Im G < 0.
    """
    z = np.asarray(z_nodes, dtype=complex).reshape(-1)
    g = _subordination(nu.atoms[None, :], nu.weights[None, :], z)
    return g.reshape(np.shape(z_nodes))


def _freeconv_rows(points: np.ndarray, z: np.ndarray) -> np.ndarray:
    """`freeconv_transform` of the uniform measure on each row of ``points``,
    an (m, n) array, at the 1-d nodes z, one row each.

    Row r equals freeconv_transform(Measure1D.from_atoms(points[r]), z) bit
    for bit: the rows are merged as from_atoms merges one (`_merge_rows`),
    each atom weighing 1/n.  Rows with equal numbers of distinct atoms share
    one `_subordination` call, whose rows each keep the bits of their own
    solve.  Rows of unequal length are never padded into one stack:
    zero-weight atoms would change the pairwise summation of numpy's row
    sums.  The atoms must be finite; sorted atoms and weights summing to 1
    hold by construction.
    """
    m, n = points.shape
    if not np.isfinite(points).all():
        raise DomainError("atoms and weights must be finite")
    out = np.empty((m, z.size), dtype=complex)
    atoms, weights, sizes = _merge_rows(points, np.full(points.shape, 1.0 / n))
    starts = np.cumsum(sizes) - sizes
    for k in np.unique(sizes):
        group = np.flatnonzero(sizes == k)
        cols = starts[group, None] + np.arange(k)
        out[group] = _subordination(atoms[cols], weights[cols], z)
    return out


def _subordination(atoms: np.ndarray, weights: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The `freeconv_transform` iteration for m measures in one loop.

    Row r of the (m, z.size) result solves G = g_r(z - G) at the 1-d nodes z
    for the measure with atoms ``atoms[r]`` and weights ``weights[r]``, both
    (m, k).  Every node takes the steps it would take alone.  A single
    measure (m = 1) broadcasts, so it is not gathered per node.
    """
    if np.any(z.imag <= 0):
        raise DomainError("fixed point needs Im z > 0")
    m, size = atoms.shape[0], z.size
    z = np.tile(z, m)
    g = g_semicircle(z)
    # per node: the damped step from the last point whose merit set the bar
    fallback = np.empty_like(g)
    bar = np.full(z.shape, np.inf)
    newton = np.zeros(z.shape, dtype=bool)
    active = np.arange(z.size)
    # the active nodes' differences and terms, in the leading rows of two buffers
    gaps = np.empty((z.size, atoms.shape[1]), dtype=complex)
    terms = np.empty_like(gaps)
    for _ in range(_NEWTON_ITERS):
        cur = g[active]
        rows = slice(active.size)
        if m == 1:
            at, wt = atoms, weights
        else:
            row = active // size
            at, wt = atoms.take(row, axis=0), weights.take(row, axis=0)
        target, slope = _stieltjes_rows(at, wt, z[active] - cur, gaps[rows], terms[rows], True)
        resid = cur - target
        done = np.abs(resid) < _NEWTON_TOL
        damped = 0.5 * (cur + target)
        with np.errstate(divide="ignore", invalid="ignore"):
            merit = np.abs(resid) ** 2 / (cur.imag * target.imag)
            step = cur - resid / (1.0 + slope)
        unsafe = ~np.isfinite(step) | (step.imag >= 0)
        step[unsafe] = damped[unsafe]
        # undo a Newton step that did not pay off: damped step from its origin
        undo = newton[active] & ~done & ~(merit < bar[active])
        step[undo] = fallback[active[undo]]
        keep = active[~undo]
        fallback[keep], bar[keep] = damped[~undo], merit[~undo]
        newton[active] = ~(unsafe | undo)
        g[active] = step
        active = active[~done]
        if active.size == 0:
            break
    else:
        raise ConvergenceError("free convolution fixed point did not converge")
    # keep the physical branch
    if np.any(g.imag >= 0):
        raise AccuracyError("fixed point left the lower half plane")
    return g.reshape(m, size)


def free_conv_semicircle(nu: Measure1D, eta: float, grid):
    """Semicircle free convolution: transform on grid + i eta and density.

    Returns (G, density) with density = -Im G / pi, the Stieltjes inversion
    at the working height eta.
    """
    if not 0.0 < eta <= 1.0:
        raise DomainError("eta must lie in (0, 1]")
    grid = np.asarray(grid, dtype=float)
    lo, hi = nu.atoms.min() - 3.0, nu.atoms.max() + 3.0
    if grid.min() > lo or grid.max() < hi:
        raise DomainError("grid must cover the support fattened by 3 per side")
    g = freeconv_transform(nu, grid + 1j * eta)
    return g, -g.imag / math.pi

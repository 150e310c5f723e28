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

import io
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


@dataclass(frozen=True)
class Measure1D:
    """Discrete measure: strictly sorted atoms with matching weights.

    Probability measures carry non-negative weights summing to 1 (checked
    to 1e-12); signed measures (``probability=False``) reuse the same
    container with arbitrary weights.
    """

    atoms: np.ndarray
    weights: np.ndarray
    probability: bool = True

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim != 1 or atoms.shape != weights.shape:
            raise DomainError("atoms and weights must be matching 1-d arrays")
        if atoms.size == 0:
            raise DomainError("a measure needs at least one atom")
        if np.any(np.diff(atoms) <= 0):
            raise DomainError("atoms must be strictly sorted")
        if self.probability:
            if np.any(weights < 0):
                raise DomainError("probability weights must be non-negative")
            if abs(weights.sum() - 1.0) > 1e-12:
                raise DomainError("probability weights must sum to 1")
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @staticmethod
    def from_atoms(atoms, weights=None, probability: bool = True) -> "Measure1D":
        """Build from unsorted atoms, merging exact duplicates."""
        atoms = np.asarray(atoms, dtype=float)
        if weights is None:
            weights = np.full(atoms.size, 1.0 / atoms.size)
        weights = np.asarray(weights, dtype=float)
        order = np.argsort(atoms, kind="stable")
        atoms, weights = atoms[order], weights[order]
        uniq, inverse = np.unique(atoms, return_inverse=True)
        merged = np.zeros(uniq.size)
        np.add.at(merged, inverse, weights)
        return Measure1D(uniq, merged, probability=probability)

    @staticmethod
    def dirac(x: float) -> "Measure1D":
        return Measure1D(np.array([float(x)]), np.array([1.0]))

    @property
    def total_variation(self) -> float:
        return float(np.sum(np.abs(self.weights)))

    def mean(self) -> float:
        return float(np.dot(self.atoms, self.weights))

    def moment(self, p: float) -> float:
        """p-th absolute moment (finite by construction)."""
        return float(np.dot(np.abs(self.atoms) ** p, self.weights))

    def dilate(self, t: float) -> "Measure1D":
        """Pushforward under x -> t x (t > 0)."""
        if t <= 0:
            raise DomainError("dilation factor must be positive")
        return Measure1D(self.atoms * t, self.weights, probability=self.probability)

    def to_csv(self) -> str:
        """Two-column CSV (atom, weight), '.' decimal separator."""
        buf = io.StringIO()
        buf.write("atom,weight\n")
        for a, w in zip(self.atoms, self.weights):
            buf.write(f"{float(a)!r},{float(w)!r}\n")
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "Measure1D":
        """Probability measure from `to_csv` text; DomainError on a malformed line."""
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


@dataclass(frozen=True)
class StieltjesContour:
    """Evaluation nodes for the transform distance: Im >= 2, diameter <= 1."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=complex)
        if nodes.size < 8:
            raise DomainError("a contour needs at least 8 nodes")
        if np.any(nodes.imag < 2.0):
            raise DomainError("every contour node needs Im z >= 2")
        span = np.abs(nodes[:, None] - nodes[None, :]).max()
        if span > 1.0 + 1e-12:
            raise DomainError("contour diameter must not exceed 1")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)


def default_contour() -> StieltjesContour:
    """64 equispaced nodes on the segment {x + 2i : x in [0, 1]}."""
    return StieltjesContour(np.linspace(0.0, 1.0, 64) + 2.0j)


def stieltjes(mu: Measure1D, z, derivative: bool = False):
    """g_mu(z) = sum_i w_i / (z - x_i) for Im z > 0.

    With ``derivative`` returns the pair (g_mu(z), g_mu'(z)), where
    g_mu'(z) = -sum_i w_i / (z - x_i)^2 comes from the same differences.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0):
        raise DomainError("Stieltjes transform needs Im z > 0")
    gaps = z.reshape(-1, 1) - mu.atoms[None, :]
    terms = mu.weights[None, :] / gaps
    g = terms.sum(axis=1).reshape(z.shape)
    if not derivative:
        return g
    terms /= gaps
    return g, -terms.sum(axis=1).reshape(z.shape)


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


def _dp_diff(mu: Measure1D, nu: Measure1D, p: float):
    """t -> int (t-x)_+^p dmu - int (t-x)_+^p dnu, elementwise over any t.

    Points are evaluated in runs of ``_DP_CHUNK``; each point is summed on
    its own, so the values do not depend on the chunking.
    """

    def diff(t):
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        out = np.empty(flat.size)
        for start in range(0, flat.size, _DP_CHUNK):
            x = flat[start : start + _DP_CHUNK, None]
            a = np.sum(mu.weights[None, :] * np.maximum(x - mu.atoms[None, :], 0.0) ** p, axis=-1)
            b = np.sum(nu.weights[None, :] * np.maximum(x - nu.atoms[None, :], 0.0) ** p, axis=-1)
            out[start : start + _DP_CHUNK] = a - b
        return out.reshape(t.shape)

    return diff


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
    """
    if not 0.0 < p < 1.0:
        raise DomainError("distance_dp needs p in (0, 1)")
    diff = _dp_diff(mu, nu, p)
    absdiff = lambda t: np.abs(diff(t))
    knots = np.unique(np.concatenate([mu.atoms, nu.atoms]))
    span = max(knots[-1] - knots[0], 1.0)
    ends = np.append(knots[1:], knots[-1] + 10.0 * span)
    at_knots = float(np.max(absdiff(knots)))
    rows = np.arange(knots.size)

    def sweep(per_segment: int) -> float:
        ts = np.linspace(knots, ends, per_segment, axis=1)
        vals = absdiff(ts)
        k = np.argmax(vals, axis=1)
        a = ts[rows, np.maximum(k - 1, 0)]
        b = ts[rows, np.minimum(k + 1, per_segment - 1)]
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


def frac_integral(sigma: Measure1D, alpha: float, t: float, side: str) -> float:
    """Fractional integral of order alpha+1 of an atomic signed measure.

    side "+": (1/Gamma(alpha+1)) sum_{x_i <= t} w_i (t - x_i)^alpha;
    side "-": same with (x_i - t)^alpha over x_i >= t.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("frac_integral needs alpha in (0, 1)")
    if side == "+":
        mask = sigma.atoms <= t
        gaps = t - sigma.atoms[mask]
    elif side == "-":
        mask = sigma.atoms >= t
        gaps = sigma.atoms[mask] - t
    else:
        raise DomainError("side must be '+' or '-'")
    return float(np.sum(sigma.weights[mask] * gaps**alpha) / math.gamma(alpha + 1.0))


def semicircle_measure(n_atoms: int = 2000) -> Measure1D:
    """Equal-mass quantile discretization of the semicircle law on [-2, 2]."""
    # imported here, not at the top: scipy.optimize nearly doubles the
    # package's import time, and only this table needs it
    from scipy.optimize import brentq

    if n_atoms < 1:
        raise DomainError("need at least one atom")

    def cdf(x):
        x = min(max(x, -2.0), 2.0)
        return 0.5 + x * math.sqrt(4.0 - x * x) / (4.0 * math.pi) + math.asin(x / 2.0) / math.pi

    qs = (np.arange(n_atoms) + 0.5) / n_atoms
    atoms = np.array([brentq(lambda x: cdf(x) - q, -2.0, 2.0, xtol=1e-14) for q in qs])
    return Measure1D.from_atoms(atoms)


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
    if np.any(z.imag <= 0):
        raise DomainError("fixed point needs Im z > 0")
    g = np.asarray(g_semicircle(z), dtype=complex).copy()
    # per node: the damped step from the last point whose merit set the bar
    fallback = np.empty_like(g)
    bar = np.full(z.shape, np.inf)
    newton = np.zeros(z.shape, dtype=bool)
    active = np.arange(z.size)
    for _ in range(_NEWTON_ITERS):
        cur = g[active]
        target, slope = stieltjes(nu, z[active] - cur, derivative=True)
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
    return g.reshape(np.shape(z_nodes))


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


def fixed_point_residual(nu: Measure1D, z_nodes, g) -> float:
    """max |G - g_nu(z - G)|, the defining-equation residual."""
    z = np.asarray(z_nodes, dtype=complex)
    return float(np.max(np.abs(g - stieltjes(nu, z - g))))

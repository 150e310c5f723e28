"""Explicit large-deviation rate functions and variational constants.

The closed-form evaluators (`rate_J`, `rate_K`, `rate_L`, and the symmetric
special case of the spectral-measure rate) are exact piecewise formulas,
each taking only the constants it reads, checked by one helper (`_check`).
The constants entering them are variational infima over matrices.  One
search, `optimize_constant`, gives c and c_sigma as infima of the energy
W_alpha over one homogeneous constraint; it and `rate_I_variational` give
*upper bound estimates* by projected local search with restarts, never
certified minima, and nothing is hardcoded from external sources.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .specmeasures import Measure1D, _freeconv_rows, default_contour, g_semicircle

# the searches import what they run when they run, so the closed forms load
# only specmeasures
if TYPE_CHECKING:
    from .freeprob import NCPolynomial
    from .matrixlab import WignerEnsemble

INF = float("inf")


_FLOORS = {"c": 0, "c1": 0, "c_minus1": 0, "d": 1}


def _check(x: float, alpha: float, **constants: float) -> None:
    """Raise DomainError unless alpha lies in (0, 2], x and the constants
    are finite, c, c1 and c_minus1 are non-negative and d is at least 1."""
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"alpha must lie in (0, 2], got {alpha}")
    for name, val in constants.items():
        if not math.isfinite(val):
            raise DomainError(f"{name} must be finite, got {val}")
        if val < _FLOORS.get(name, -INF):
            raise DomainError(f"{name} must be at least {_FLOORS[name]}, got {val}")
    if not math.isfinite(x):
        raise DomainError(f"rate functions are evaluated at a finite x, got {x}")


def rate_J(x: float, alpha: float, c: float) -> float:
    """Largest-eigenvalue rate: c g_sc(x)^(-alpha) above 2, 0 at 2, inf below."""
    _check(x, alpha, c=c)
    if x < 2.0:
        return INF
    if x == 2.0:
        return 0.0
    g = float(np.real(g_semicircle(x)))
    return c * g ** (-alpha)


def rate_K(x: float, alpha: float, c1: float, c_minus1: float, tau_p: float, d: int) -> float:
    """Polynomial-trace rate with one-sided constants c1 / c_minus1 about tau(P)."""
    _check(x, alpha, c1=c1, c_minus1=c_minus1, tau_p=tau_p, d=d)
    gap = x - tau_p
    if gap == 0.0:
        return 0.0
    expo = alpha / d
    if gap > 0:
        return c1 * gap**expo
    return c_minus1 * abs(gap) ** expo


def rate_L(x: float, alpha: float, g11: float) -> float:
    """Last-passage rate: (x - g(1,...,1))^alpha on the right of g(1,...,1)."""
    _check(x, alpha, g11=g11)
    if x < g11:
        return INF
    return (x - g11) ** alpha


def rate_I_symmetric(nu: Measure1D, ens: WignerEnsemble) -> float:
    """Closed form min(b, a1/2) int |x|^alpha dnu for symmetric targets (``ens``'s alpha, b, a1).

    The deformation measure must be mirror-symmetric (checked to 1e-12).
    """
    atoms, wts = nu.atoms, nu.weights
    if np.max(np.abs(atoms + atoms[::-1])) > 1e-12 or np.max(np.abs(wts - wts[::-1])) > 1e-12:
        raise DomainError("rate_I_symmetric needs a mirror-symmetric measure")
    return min(ens.b, ens.a1 / 2.0) * nu.moment(ens.alpha)


def _noise(gen, n: int, beta: int) -> np.ndarray:
    """An n x n array of standard normal draws, complex for beta = 2."""
    z = gen.normal(size=(n, n))
    return z + 1j * gen.normal(size=(n, n)) if beta == 2 else z


def optimize_constant(ens: WignerEnsemble, poly: NCPolynomial | None = None, sigma: int = 1,
                      n_max: int = 3, restarts: int = 50, iters: int = 150):
    """Upper bound estimate of inf{W_alpha(H): sigma s(H) = 1} over sizes n <= n_max.

    s is lambda_max of one matrix without ``poly`` (c of `rate_J`, k = 1),
    or tr P(H_1, ..., H_p) for a homogeneous ``poly`` of degree k (c_sigma
    of `rate_K`).  As s(tH) = t^k s(H) for t > 0, each start and each
    accepted move is rescaled onto sigma s = 1, and a candidate with
    sigma s <= 1e-9 is rejected.  Restart 0 is the witness sigma e_1 e_1^T
    in every letter, which keeps c <= b; restart r draws from Philox key
    (0, r).  Returns (value, minimizer tuple), or (inf, None) when no
    candidate was feasible.
    """
    from . import freeprob as fp
    from . import matrixlab as ml
    from . import rng

    if sigma not in (-1, 1):
        raise DomainError("sigma must be -1 or +1")
    if n_max > 8:
        raise DomainError("n_max is capped at 8 (desk-scale search)")
    k, p = 1, 1
    if poly is not None:
        degrees = {len(w) for _, w in poly.monomials}
        if len(degrees) != 1 or 0 in degrees:
            raise DomainError("optimize_constant needs a homogeneous polynomial of degree >= 1")
        k, p = degrees.pop(), poly.p

    def ratio(mats):
        """(W_alpha(H) (sigma s)^(-alpha/k), sigma s), the ratio inf where sigma s <= 1e-9."""
        s = sigma * (mats[0].largest_eig() if poly is None else complex(fp.eval_trace(poly, mats)).real)
        if not s > 1e-9:
            return INF, s
        return sum(ml.w_alpha_energy(m, ens) for m in mats) * s ** (-ens.alpha / k), s

    def onto(mats, s):
        # s ** 1.0 is s, so a lambda_max candidate is divided by lambda_max itself
        return tuple(ml.HermitianMatrix(m.mat / s ** (1.0 / k)) for m in mats)

    best_val, best = INF, None
    for n in range(1, n_max + 1):
        witness = np.zeros((n, n))
        witness[0, 0] = sigma
        for restart in range(restarts + 1):
            gen = rng.philox(0, restart)
            starts = [witness] * p if restart == 0 else [_noise(gen, n, ens.beta) for _ in range(p)]
            cur = tuple(ml.HermitianMatrix(a) for a in starts)
            cur_val, s = ratio(cur)
            if cur_val == INF:
                continue
            cur = onto(cur, s)
            step = 0.5
            for _ in range(iters):
                j = int(gen.integers(p))
                cand = tuple(ml.HermitianMatrix(m.mat + step * _noise(gen, n, ens.beta)) if i == j else m
                             for i, m in enumerate(cur))
                val, s = ratio(cand)
                if val < cur_val:
                    cur, cur_val = onto(cand, s), val
                else:
                    step *= 0.95
                if step < 1e-6:
                    break
            if cur_val < best_val:
                best_val, best = cur_val, cur
    return best_val, best


def rate_I_variational(
    target,
    alpha: float,
    ens: WignerEnsemble,
    n: int = 32,
    delta: float = 0.05,
    restarts: int = 50,
    iters: int = 120,
    init=None,
):
    """Upper bound estimate of the spectral-measure rate at a target measure.

    Searches diagonal deformations h (the deformation measure has atoms
    n^(1/alpha) h_i with uniform weights), minimizing W_alpha(diag h)
    subject to the transform distance between the semicircle free
    convolution and the target staying below delta on the default contour.
    ``target`` holds the target's transform values at the default contour's
    nodes, one per node; ``init``, when given, is a starting h of n
    entries.  Returns +inf when no feasible point is found within the
    budget.  Restart r draws from Philox key (2, r).

    The restarts run in lockstep.  A restart's draws never depend on which
    of its points were feasible, so one fixed-point solve checks the
    starting points of all restarts (a restart with an infeasible start is
    dropped), and at each step one solve checks every candidate that beats
    its restart's current cost.  The candidates go to the solver as the
    rows of one array (`specmeasures._freeconv_rows`), with no `Measure1D`
    built per candidate, and each row's transform has the bits of its
    measure's own solve.  Each restart walks the path it would walk alone,
    and the result is the least final cost over the restarts.

    Feasibility is decided in two stages.  Every node's solve is the one it
    would take alone, so a candidate is first solved at the contour's two
    end nodes only, and only the candidates within delta there are solved
    at the other 62 nodes; each decision, each restart's path and the
    estimate are those of one solve on the whole contour.  Stage 1 sees
    every candidate, so a non-finite one still raises `DomainError`.  A
    `ConvergenceError` or `AccuracyError` comes only from a node that is
    solved: a candidate rejected at an end node no longer solves the other
    62, which cannot change a decision.  ``alpha`` must equal ``ens.alpha``.
    """
    from . import rng

    if not 1 <= n <= 64:
        raise DomainError("n must lie in 1..64 (desk-scale search)")
    if not delta > 0:
        raise DomainError(f"delta must be positive, got {delta}")
    if alpha != ens.alpha:
        raise DomainError(f"alpha {alpha} differs from the ensemble's {ens.alpha}")
    nodes = default_contour().nodes
    tvals = np.asarray(target, dtype=complex)
    if tvals.shape != nodes.shape:
        raise DomainError(f"target needs one value per contour node, shape {nodes.shape}")
    if not np.isfinite(tvals).all():
        raise DomainError("target values must be finite")
    if init is not None and np.shape(init) != (n,):
        raise DomainError(f"init needs n = {n} entries, got shape {np.shape(init)}")
    scale = n ** (1.0 / alpha)
    ends = np.zeros(nodes.shape, dtype=bool)
    ends[[0, -1]] = True

    def within(points, at) -> np.ndarray:
        g = _freeconv_rows(points, nodes[at])
        return (np.abs(g - tvals[at]) < delta).all(axis=1)

    def feasible(hs) -> np.ndarray:
        points = scale * np.reshape(hs, (-1, n))
        ok = within(points, ends)
        ok[ok] = within(points[ok], ~ends)
        return ok

    def cost(h) -> float:
        return ens.b * float(np.sum(np.abs(h) ** alpha))

    seeds = [np.zeros(n)]
    if init is not None:
        seeds.append(np.asarray(init, dtype=float))
    gens = [rng.philox(2, restart) for restart in range(restarts)]
    cur = []
    for restart, gen in enumerate(gens):
        if restart < len(seeds):
            cur.append(seeds[restart].copy())
        else:
            base = seeds[-1]
            cur.append(base + 0.1 * gen.normal(size=n) * (np.abs(base).max() + 0.1))
    live = [r for r, ok in enumerate(feasible(cur)) if ok]
    cur_val = {r: cost(cur[r]) for r in live}
    for _ in range(iters):
        moves = []
        for r in live:
            gen = gens[r]
            move = gen.integers(3)
            cand = cur[r].copy()
            if move == 0:
                cand *= 1.0 - 10 ** gen.uniform(-3, -0.7)
            elif move == 1:
                k = int(gen.integers(n))
                cand[k] *= 1.0 - 10 ** gen.uniform(-3, -0.7)
            else:
                k = int(gen.integers(n))
                cand[k] = 0.0
            val = cost(cand)
            if val < cur_val[r]:
                moves.append((r, cand, val))
        for (r, cand, val), ok in zip(moves, feasible([cand for _, cand, _ in moves])):
            if ok:
                cur[r], cur_val[r] = cand, val
    return min(cur_val.values(), default=INF)

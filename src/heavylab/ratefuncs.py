"""Explicit large-deviation rate functions and variational constants.

The closed-form evaluators (`rate_J`, `rate_K`, `rate_L`, and the symmetric
special case of the spectral-measure rate) are exact piecewise formulas.
The constants entering them are variational infima over matrices; the
optimizers below produce *upper bound estimates* by projected local search
with restarts, never certified minima, and nothing is hardcoded from
external sources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import DomainError
from .freeprob import NCPolynomial, eval_trace
from .matrixlab import HermitianMatrix, WignerEnsemble, w_alpha_energy
from .specmeasures import Measure1D, default_contour, freeconv_transform, g_semicircle

INF = float("inf")


@dataclass(frozen=True)
class RateParams:
    """Constants shared by the rate-function evaluators.

    Only the fields an evaluator needs must be set; the rest may stay None.
    ``a`` is the off-diagonal coefficient entering min(b, a/2); it defaults
    to a1 (the real-part coefficient).
    """

    alpha: float
    b: float = 1.0
    a1: float = 1.0
    a2: float = 1.0
    constant_c: float | None = None
    c1: float | None = None
    c_minus1: float | None = None
    tauP: float | None = None
    g11: float | None = None
    d: int | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise DomainError(f"alpha must lie in (0, 2], got {self.alpha}")
        for name in ("constant_c", "c1", "c_minus1"):
            val = getattr(self, name)
            if val is not None and val < 0:
                raise DomainError(f"{name} must be non-negative")


def rate_J(x: float, params: RateParams) -> float:
    """Largest-eigenvalue rate: c g_sc(x)^(-alpha) above 2, 0 at 2, inf below."""
    if params.constant_c is None:
        raise DomainError("rate_J needs constant_c")
    if x < 2.0:
        return INF
    if x == 2.0:
        return 0.0
    g = float(np.real(g_semicircle(x)))
    return params.constant_c * g ** (-params.alpha)


def rate_K(x: float, params: RateParams) -> float:
    """Polynomial-trace rate with one-sided constants c1 / c_minus1."""
    if params.c1 is None or params.c_minus1 is None or params.tauP is None or params.d is None:
        raise DomainError("rate_K needs c1, c_minus1, tauP and d")
    gap = x - params.tauP
    if gap == 0.0:
        return 0.0
    expo = params.alpha / params.d
    if gap > 0:
        return params.c1 * gap**expo
    return params.c_minus1 * abs(gap) ** expo


def rate_L(x: float, params: RateParams) -> float:
    """Last-passage rate: (x - g(1,...,1))^alpha on the right of g(1,...,1)."""
    if params.g11 is None:
        raise DomainError("rate_L needs g11")
    if x < params.g11:
        return INF
    return (x - params.g11) ** params.alpha


def rate_I_symmetric(nu: Measure1D, params: RateParams, a: float | None = None) -> float:
    """Closed form min(b, a/2) int |x|^alpha dnu for symmetric targets.

    The deformation measure must be mirror-symmetric (checked to 1e-12).
    ``a`` defaults to the real-part off-diagonal coefficient a1.
    """
    atoms, wts = nu.atoms, nu.weights
    if np.max(np.abs(atoms + atoms[::-1])) > 1e-12 or np.max(np.abs(wts - wts[::-1])) > 1e-12:
        raise DomainError("rate_I_symmetric needs a mirror-symmetric measure")
    a = params.a1 if a is None else a
    return min(params.b, a / 2.0) * nu.moment(params.alpha)


def _perturbed(mat: np.ndarray, gen, step: float, beta: int) -> np.ndarray:
    n = mat.shape[0]
    if beta == 2:
        noise = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    else:
        noise = gen.normal(size=(n, n))
    return mat + step * noise


def optimize_constant_c(
    alpha: float,
    ens: WignerEnsemble,
    n_max: int = 4,
    restarts: int = 50,
    iters: int = 200,
    seed: int = 0,
):
    """Upper bound estimate of inf{W_alpha(A): lambda_A = 1} over n <= n_max.

    Projected local search: each candidate is renormalized by its largest
    eigenvalue after every move.  The rank-one diagonal witness guarantees
    the estimate never exceeds b.
    """
    if n_max > 8:
        raise DomainError("n_max is capped at 8 (desk-scale search)")
    best_val, best_mat = INF, None
    for n in range(1, n_max + 1):
        # deterministic witness: the first-coordinate projector
        witness = np.zeros((n, n))
        witness[0, 0] = 1.0
        for restart in range(restarts + 1):
            gen = rng.philox(seed, restart)
            if restart == 0:
                cur = witness.copy()
            else:
                cur = _perturbed(np.zeros((n, n)), gen, 1.0, ens.beta)
            hm = HermitianMatrix(cur)
            lam = hm.largest_eig()
            if lam <= 1e-9:
                continue
            cur = hm.mat / lam
            cur_val = w_alpha_energy(HermitianMatrix(cur), ens)
            step = 0.5
            for _ in range(iters):
                cand = _perturbed(cur, gen, step, ens.beta)
                hm = HermitianMatrix(cand)
                lam = hm.largest_eig()
                if lam <= 1e-9:
                    step *= 0.7
                    continue
                cand = hm.mat / lam
                val = w_alpha_energy(HermitianMatrix(cand), ens)
                if val < cur_val:
                    cur, cur_val = cand, val
                else:
                    step *= 0.95
                if step < 1e-6:
                    break
            if cur_val < best_val:
                best_val, best_mat = cur_val, HermitianMatrix(cur)
    return best_val, best_mat


def optimize_constant_csigma(
    alpha: float,
    ens: WignerEnsemble,
    poly_d: NCPolynomial,
    sigma: int,
    n_max: int = 3,
    restarts: int = 50,
    iters: int = 150,
    seed: int = 0,
) -> float:
    """Upper bound estimate of inf{W_alpha(H): tr P_d(H) = sigma}.

    Exploits tr P_d(tH) = t^d tr P_d(H): any candidate whose trace sign
    matches sigma is rescaled onto the constraint, so the objective is
    W_alpha(H) (sigma/s)^(alpha/d).  Returns +inf when no tested candidate
    ever achieves the requested sign.
    """
    if sigma not in (-1, 1):
        raise DomainError("sigma must be -1 or +1")
    if n_max > 6:
        raise DomainError("n_max is capped at 6 (desk-scale search)")
    degrees = {len(w) for _, w in poly_d.monomials}
    if len(degrees) != 1:
        raise DomainError("optimize_constant_csigma needs a homogeneous polynomial")
    d = degrees.pop()
    p = poly_d.p
    best = INF

    def cost(mats) -> float:
        s = eval_trace(poly_d, mats, normalize=False)
        if not isinstance(s, float):
            s = s.real
        if s == 0.0 or math.copysign(1.0, s) != float(sigma):
            return INF
        w = sum(w_alpha_energy(m, ens) for m in mats)
        return w * (abs(1.0 / s)) ** (alpha / d)

    for n in range(1, n_max + 1):
        for restart in range(restarts):
            gen = rng.philox(seed + 1, restart)
            cur = [_perturbed(np.zeros((n, n)), gen, 1.0, ens.beta) for _ in range(p)]
            cur_mats = tuple(HermitianMatrix(m) for m in cur)
            cur_val = cost(cur_mats)
            step = 0.5
            for _ in range(iters):
                k = int(gen.integers(p))
                cand = list(cur)
                cand[k] = _perturbed(cand[k], gen, step, ens.beta)
                cand_mats = tuple(HermitianMatrix(m) for m in cand)
                val = cost(cand_mats)
                if val < cur_val:
                    cur, cur_mats, cur_val = cand, cand_mats, val
                else:
                    step *= 0.95
                if step < 1e-6:
                    break
            best = min(best, cur_val)
    return best


def rate_I_variational(
    target,
    alpha: float,
    ens: WignerEnsemble,
    n: int = 32,
    delta: float = 0.05,
    restarts: int = 50,
    iters: int = 120,
    seed: int = 0,
    init=None,
):
    """Upper bound estimate of the spectral-measure rate at a target measure.

    Searches diagonal deformations h (the deformation measure has atoms
    n^(1/alpha) h_i with uniform weights), minimizing W_alpha(diag h)
    subject to the transform distance between the semicircle free
    convolution and the target staying below delta on the default contour.
    ``target`` holds the target's transform values at the default contour's
    nodes, one per node.  Returns +inf when no feasible point is found
    within the budget.
    """
    if n > 64:
        raise DomainError("n is capped at 64 (desk-scale search)")
    if delta <= 0:
        raise DomainError("delta must be positive")
    nodes = default_contour().nodes
    tvals = np.asarray(target, dtype=complex)
    if tvals.shape != nodes.shape:
        raise DomainError(f"target needs one value per contour node, shape {nodes.shape}")
    scale = n ** (1.0 / alpha)

    def feasible(h) -> bool:
        deform = Measure1D.from_atoms(scale * h)
        g = freeconv_transform(deform, nodes)
        return float(np.max(np.abs(g - tvals))) < delta

    def cost(h) -> float:
        return ens.b * float(np.sum(np.abs(h) ** alpha))

    best = INF
    seeds = [np.zeros(n)]
    if init is not None:
        seeds.append(np.asarray(init, dtype=float))
    for restart in range(restarts):
        gen = rng.philox(seed + 2, restart)
        if restart < len(seeds):
            cur = seeds[restart].copy()
        else:
            base = seeds[-1]
            cur = base + 0.1 * gen.normal(size=n) * (np.abs(base).max() + 0.1)
        if not feasible(cur):
            continue
        cur_val = cost(cur)
        for _ in range(iters):
            move = gen.integers(3)
            cand = cur.copy()
            if move == 0:
                cand *= 1.0 - 10 ** gen.uniform(-3, -0.7)
            elif move == 1:
                k = int(gen.integers(n))
                cand[k] *= 1.0 - 10 ** gen.uniform(-3, -0.7)
            else:
                k = int(gen.integers(n))
                cand[k] = 0.0
            val = cost(cand)
            if val < cur_val and feasible(cand):
                cur, cur_val = cand, val
        best = min(best, cur_val)
    return best

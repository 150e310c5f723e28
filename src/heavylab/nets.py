"""Greedy covering nets of the l^p ball under the l^q metric (`heavylab net`).

Probes of the ball are drawn from one Philox stream through the transport
map of `measures`, so a net is a pure function of its arguments.
"""

from __future__ import annotations

import math

import numpy as np

from . import measures, rng
from .errors import DomainError


def _lp_radius(v: np.ndarray, e, p: float):
    """(sum_i |v_i|^p + e)^(1/p) over the last axis; DomainError where it is not finite.

    For small p the power overflows (at p = 0.01 for sums above about 1200,
    which 16 coordinates reach); dividing by it would collapse the points to
    the origin.
    """
    with np.errstate(over="ignore"):
        radius = (np.sum(np.abs(v) ** p, axis=-1) + e) ** (1.0 / p)
    if not np.isfinite(radius).all():
        raise DomainError(f"the l^p radius at p={p} is not finite")
    return radius


def _net_probe(p: float, m: int, gen) -> np.ndarray:
    """One probe of the l^p ball: uniform volume or sparse boundary.

    Uniform-volume probes concentrate near the origin for p < 1 and never
    visit the ball's spiky extremes, so half the probes put Dirichlet-split
    l^p mass on a random sparse support at a random radius.
    """
    if gen.random() < 0.5:
        mags = measures.transport(p, "one", -np.log1p(-gen.random(m)))
        signs = np.where(gen.random(m) < 0.5, -1.0, 1.0)
        vec = signs * mags
        return vec / _lp_radius(vec, -math.log1p(-gen.random()), p)
    k = int(gen.integers(1, m + 1))
    support = gen.choice(m, size=k, replace=False)
    split = gen.dirichlet(np.ones(k))
    # half the sparse probes sit on the boundary: extreme points and faces
    # are exactly what a net of a spiky ball must cover
    r = 1.0 if gen.random() < 0.5 else gen.random() ** (1.0 / p)
    out = np.zeros(m)
    out[support] = np.where(gen.random(k) < 0.5, -1.0, 1.0) * split ** (1.0 / p) * r
    return out


def greedy_net_centers(p: float, q: float, eps: float, m: int, trials: int, seed: int, centers=None):
    """Greedy epsilon-net of the l^p ball under the l^q metric.

    Random probes not covered by an existing center are promoted to
    centers; the construction stops after ``trials`` consecutive covered
    probes.  Passing previous centers enforces nesting across decreasing
    eps.  Returns the centers as the rows of one (size, m) array.
    """
    if not 0.0 < p < q:
        raise DomainError("need 0 < p < q")
    if not 0.0 < eps < math.inf:
        raise DomainError(f"eps must be positive and finite, got {eps}")
    if not 0.0 < p <= 2.0:
        raise DomainError("probe sampling covers p in (0, 2]")
    if m < 1 or trials < 1:
        raise DomainError(f"need m >= 1 and trials >= 1, got m={m}, trials={trials}")
    centers = np.asarray([] if centers is None else centers, dtype=float).reshape(-1, m)
    covered_run = 0
    gen = rng.philox(seed, 2**34)
    while covered_run < trials:
        probe = _net_probe(p, m, gen)
        if not np.isfinite(probe).all():
            # a NaN distance compares as covered and would end the net early
            raise DomainError(f"a probe of the l^p ball at p={p} is not finite")
        # the root of the least sum is the least distance, with its own bits
        sums = np.sum(np.abs(probe - centers) ** q, axis=1)
        dist = float(np.min(sums) ** (1.0 / q)) if len(centers) else math.inf
        if dist > eps:
            centers = np.concatenate([centers, probe[None]])
            covered_run = 0
        else:
            covered_run += 1
    return centers


def greedy_net_profile(p: float, q: float, eps_list, m: int, trials: int, seed: int):
    """Net sizes over a decreasing eps ladder, centers reused for nesting."""
    eps_sorted = sorted(eps_list, reverse=True)
    centers = None
    sizes = {}
    for eps in eps_sorted:
        centers = greedy_net_centers(p, q, eps, m, trials, seed, centers=centers)
        sizes[eps] = len(centers)
    return [(eps, sizes[eps]) for eps in eps_list]

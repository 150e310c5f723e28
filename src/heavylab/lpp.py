"""Last-passage percolation: passage times, limit shape, deterministic twin.

Directed paths increase one coordinate per step; a path is identified with
its vertex set, endpoints included.  Monte Carlo passage times come from
one engine, `passage_times`: it hands the replicas to the replica pool
(`pool.run`), which runs chunks of them on one thread per usable CPU.  A
chunk draws its (seed, stream) draws once, for the largest of the call's
boxes, lays them out with replicas last, and runs the dynamic program on
each box's prefix of them as a wavefront over diagonals of constant
coordinate sum, each step one vector operation across the replicas.  A
stream's first draws do not depend on how many follow, so every box gets
the draws a call for it alone would.  The draws and replicas-last copies of
all chunks in flight together stay within the pool's 2^22-cell budget
(32 MB).  The max is exact and every cell keeps its single addition, so the
times equal the per-site `last_passage` bit for bit, whatever the chunking,
the thread count or the scheduling; `last_passage` and `enumerate_paths`
are acceptance criterion 10's references.  The deterministic equivalent,
which the lpp-error-curve preset reads with a `CachedShape` estimate of g,
replaces random fluctuation with the limit shape g between chain vertices,
collecting the positive part of the deformation at every chain vertex
(including both endpoints).  Chains are ordered coordinatewise so every
increment stays in the closed positive orthant where g lives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import measures, pool
from .errors import DomainError


@dataclass(frozen=True)
class WeightField:
    """Weights indexed by the square {0,...,n}^2."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"lattice size must be >= 1, got {self.n}")
        if self.n > 200:
            raise DomainError("n is capped at 200")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.n + 1, self.n + 1):
            raise DomainError(f"values must have shape {(self.n + 1, self.n + 1)}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def last_passage(field: WeightField, v1, v2) -> float:
    """Maximal directed-path weight sum from v1 to v2, endpoints included."""
    v1 = tuple(int(c) for c in v1)
    v2 = tuple(int(c) for c in v2)
    if len(v1) != 2 or len(v2) != 2:
        raise DomainError("endpoints must be lattice points of the square")
    if any(a > b for a, b in zip(v1, v2)):
        raise DomainError("endpoints must be coordinatewise ordered")
    x = field.values
    sub = x[tuple(slice(a, b + 1) for a, b in zip(v1, v2))]
    m = np.full(sub.shape, -np.inf)
    for idx in itertools.product(*(range(s) for s in sub.shape)):
        best = 0.0 if all(i == 0 for i in idx) else -np.inf
        for axis in range(2):
            if idx[axis] > 0:
                prev = idx[:axis] + (idx[axis] - 1,) + idx[axis + 1 :]
                best = max(best, m[prev])
        m[idx] = sub[idx] + best
    return float(m[tuple(s - 1 for s in sub.shape)])


def enumerate_paths(v1, v2):
    """All directed paths between ordered lattice points (acceptance criterion 10)."""
    v1, v2 = tuple(v1), tuple(v2)
    if v1 == v2:
        yield [v1]
        return
    for axis in range(len(v1)):
        if v1[axis] < v2[axis]:
            nxt = v1[:axis] + (v1[axis] + 1,) + v1[axis + 1 :]
            for tail in enumerate_paths(nxt, v2):
                yield [v1] + tail


def passage_times(alpha: float, boxes, replicas: int, seed: int, shift=None) -> np.ndarray:
    """Corner-to-corner passage times of ``replicas`` i.i.d. weight boxes, one row per box.

    ``boxes`` is a list of boxes, each two side lengths; a bare box is a
    `DomainError`.  Replica k of a box takes the first prod(box) one-sided
    draws of stream k, in C order of that box.  With ``shift`` (an array of
    the largest box's size, read in C order) the weights are
    (draws + shift)^+: the shift is added to the largest box's draws before
    any box reads its prefix of them.  The raw times come back in stream
    order, shape (len(boxes), replicas), each row identical to `last_passage`
    on each replica's field and to a call for that box alone, whatever the
    chunking or the thread count.

    Chunks of replicas run on the replica pool (`pool.run`; numpy
    releases the interpreter lock in the draws, the map and the wavefront)
    and write disjoint slices of the result.  A chunk draws each stream
    once, for the largest box, and holds those draws and their
    replicas-last copy, two cells per site of the largest box and replica.
    """
    boxes = list(boxes)
    if not boxes:
        raise DomainError("passage_times needs at least one box")
    boxes = [tuple(int(s) for s in np.atleast_1d(box)) for box in boxes]
    for box in boxes:
        if len(box) != 2 or min(box) < 1:
            raise DomainError(f"box must have two positive sides, got {box}")
    if replicas < 0:
        raise DomainError(f"replicas must be non-negative, got {replicas}")
    law = measures.mu(alpha)
    cells = max(math.prod(box) for box in boxes)
    if shift is not None:
        shift = np.asarray(shift, dtype=float).reshape(cells, 1)
    out = np.empty((len(boxes), replicas))

    def run_chunk(streams: range) -> None:
        field = measures.sample(law, cells, seed, streams).T.copy()  # replicas last
        if shift is not None:
            field += shift
            np.maximum(field, 0.0, out=field)
        for row, box in zip(out, boxes):
            row[streams.start : streams.stop] = _wavefront(field[: math.prod(box)], box)

    pool.run(run_chunk, replicas, 2 * cells)
    return out


def _wavefront(field: np.ndarray, box) -> np.ndarray:
    """Corner values of the passage-time DP on a (cells, replicas) field.

    The DP sweeps the diagonals k + l = t of the (k_side, l_side) box.
    ``front[k + 1]`` holds row k's value on the latest diagonal it met,
    behind a -inf border at ``front[0]``.  A diagonal's cells are one
    strided slice of the field, and their predecessors (k - 1, l) and
    (k, l - 1) are two neighbouring slices of ``front``; each cell takes
    f + max(predecessors), as in `last_passage`.
    """
    k_side, l_side = box
    reps = field.shape[1]
    front = np.full((k_side + 1, reps), -np.inf)
    front[1] = 0.0  # the origin's predecessor
    best = np.empty((k_side, reps))
    step = max(l_side - 1, 1)
    for t in range(k_side + l_side - 1):
        lo, hi = max(0, t - l_side + 1), min(k_side - 1, t)
        acc = best[: hi - lo + 1]
        np.maximum(front[lo : hi + 1], front[lo + 1 : hi + 2], out=acc)
        first = t + lo * (l_side - 1)
        np.add(field[first : first + (hi - lo) * step + 1 : step], acc, out=front[lo + 1 : hi + 2])
    return front[-1]


def estimate_g(alpha: float, directions, n: int, replicas: int, seed: int):
    """Monte Carlo estimates of E T_{0, floor(n v)} / n, with standard errors.

    Weights are i.i.d. one-sided draws with exponent alpha in (0, 1).  All
    directions v share one `passage_times` call; returns arrays of the
    means and of their standard errors, one entry per direction.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("the last-passage regime needs alpha in (0, 1)")
    if replicas < 2:
        raise DomainError("need at least two replicas")
    boxes = [tuple(int(math.floor(n * float(c))) + 1 for c in v) for v in directions]
    if any(side < 1 for box in boxes for side in box):
        raise DomainError("direction must be non-negative")
    times = passage_times(alpha, boxes, replicas, seed) / n
    return times.mean(axis=1), times.std(axis=1, ddof=1) / math.sqrt(replicas)


class CachedShape:
    """Limit shape cached on a direction grid with bilinear interpolation.

    The deterministic-equivalent DP evaluates g at every lattice gap of the
    box, so Monte Carlo estimates are taken once for the whole direction
    grid, in one `estimate_g` call, and interpolated.
    """

    def __init__(self, alpha: float, n_mc: int, replicas: int, seed: int, grid_points: int = 9):
        qs = np.linspace(0.0, 1.0, grid_points)
        self.qs = qs
        directions = list(itertools.product(qs, repeat=2))[1:]  # row-major, the origin left out
        means, _ = estimate_g(alpha, directions, n_mc, replicas, seed)
        self.table = np.zeros((grid_points, grid_points))
        self.table.flat[1:] = means

    def __call__(self, v) -> float:
        v = np.asarray(v, dtype=float)
        if np.any(v < 0) or np.any(v > 1.0 + 1e-12):
            raise DomainError("cached shape covers directions in [0, 1]^2")
        pos = np.clip(v, 0.0, 1.0) * (len(self.qs) - 1)
        lo = np.minimum(pos.astype(int), len(self.qs) - 2)
        frac = pos - lo
        total = 0.0
        for corner in itertools.product((0, 1), repeat=2):
            weight = 1.0
            idx = []
            for axis, bit in enumerate(corner):
                weight *= frac[axis] if bit else 1.0 - frac[axis]
                idx.append(lo[axis] + bit)
            total += weight * self.table[tuple(idx)]
        return float(total)


def deterministic_equivalent_T(h: WeightField, g_eval) -> float:
    """Deterministic equivalent: best chain value of H^+ plus shape terms.

    M(v) = H_v^+ + max over coordinatewise-smaller u of (M(u) + g((v-u)/n)),
    chains implicitly starting at 0 and ending at (n,...,n), both collecting
    their H^+, with n = h.n.  Always at least g(1,...,1).

    g is tabulated once per lattice gap, gtab[k] = g(k/n); then, in
    row-major order, which reaches every coordinatewise-smaller u before v,
    the candidates M(u) + g((v-u)/n) for all u <= v are the box m[:v+1] plus
    gtab reversed along every axis, with u = v masked out.  Each candidate is one addition and the max is
    exact, so M does not depend on the order in which candidates are met.
    """
    n = h.n
    hp = np.maximum(h.values, 0.0)
    cells = list(np.ndindex(hp.shape))[1:]  # row-major, the origin left out
    gtab = np.zeros(hp.shape)
    for gap in cells:
        gtab[gap] = g_eval(tuple(k / n for k in gap))
    m = np.full(hp.shape, -np.inf)
    m.flat[0] = hp.flat[0]
    for v in cells:
        window = m[tuple(slice(k + 1) for k in v)] + gtab[tuple(slice(k, None, -1) for k in v)]
        window[v] = -np.inf  # u = v is not a step
        m[v] = hp[v] + window.max()
    return float(m.flat[-1])


def rate_L_consistency(h: WeightField, g_eval, alpha: float) -> float:
    """Slack ||H^+||_alpha^alpha - (T_det(H) - g(1,...,1))^alpha.

    Non-negative under any superadditive shape; zero exactly for the
    single corner spike.
    """
    t_det = deterministic_equivalent_T(h, g_eval)
    g11 = g_eval((1.0, 1.0))
    hp = np.maximum(h.values, 0.0)
    norm = float(np.sum(hp**alpha))
    return norm - max(t_det - g11, 0.0) ** alpha

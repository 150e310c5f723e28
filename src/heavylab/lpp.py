"""Last-passage percolation: passage times, limit shape, deterministic twin.

Directed paths increase one coordinate per step; a path is identified with
its vertex set, endpoints included.  Monte Carlo passage times come from
one engine, `passage_times`: it hands the replicas to the replica pool
(`pool.run`), which runs chunks of them on one thread per usable CPU.  A
chunk fills its replicas from their (seed, stream) draws, lays them out
with replicas last, and runs the dynamic program as a wavefront over
planes of constant coordinate sum, each step one vector operation across
the replicas.  The draws and replicas-last copies of all chunks in flight
together stay within the pool's 2^22-cell budget (32 MB).  The max is
exact and every cell keeps its single addition, so the times equal the
per-site `last_passage` bit for bit, whatever the chunking, the thread
count or the scheduling; `last_passage` and `enumerate_paths` serve as
test oracles.  The deterministic equivalent replaces random fluctuation
with the limit shape g between chain vertices, collecting the positive
part of the deformation at every chain vertex (including both endpoints).
Chains are ordered coordinatewise so every increment stays in the closed
positive orthant where g lives.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import measures, pool
from .errors import DomainError


@dataclass(frozen=True)
class WeightField:
    """Weights indexed by the box {0,...,n}^d (d in {2, 3})."""

    d: int
    n: int
    values: np.ndarray

    def __post_init__(self):
        if self.d not in (2, 3):
            raise DomainError(f"dimension must be 2 or 3, got {self.d}")
        if self.n < 1:
            raise DomainError(f"lattice size must be >= 1, got {self.n}")
        if self.d == 2 and self.n > 200:
            raise DomainError("n is capped at 200 for d = 2")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.n + 1,) * self.d:
            raise DomainError(f"values must have shape {(self.n + 1,) * self.d}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"d={self.d},n={self.n}\n")
        for idx in itertools.product(range(self.n + 1), repeat=self.d):
            coords = ",".join(str(i) for i in idx)
            buf.write(f"{coords},{float(self.values[idx])!r}\n")
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "WeightField":
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        header = dict(kv.split("=") for kv in lines[0].split(","))
        d, n = int(header["d"]), int(header["n"])
        vals = np.zeros((n + 1,) * d)
        for line in lines[1:]:
            toks = line.split(",")
            idx = tuple(int(t) for t in toks[:d])
            vals[idx] = float(toks[d])
        return WeightField(d, n, vals)


def sample_field(alpha: float, d: int, n: int, seed: int, stream: int = 0) -> WeightField:
    """i.i.d. one-sided draws on the box."""
    shape = (n + 1,) * d
    draws = measures.sample(measures.mu(alpha), int(np.prod(shape)), seed, stream)
    return WeightField(d, n, draws.reshape(shape))


def last_passage(field: WeightField, v1, v2) -> float:
    """Maximal directed-path weight sum from v1 to v2, endpoints included."""
    v1 = tuple(int(c) for c in v1)
    v2 = tuple(int(c) for c in v2)
    if len(v1) != field.d or len(v2) != field.d:
        raise DomainError("endpoints must match the field dimension")
    if any(a > b for a, b in zip(v1, v2)):
        raise DomainError("endpoints must be coordinatewise ordered")
    x = field.values
    sub = x[tuple(slice(a, b + 1) for a, b in zip(v1, v2))]
    m = np.full(sub.shape, -np.inf)
    for idx in itertools.product(*(range(s) for s in sub.shape)):
        best = 0.0 if all(i == 0 for i in idx) else -np.inf
        for axis in range(field.d):
            if idx[axis] > 0:
                prev = idx[:axis] + (idx[axis] - 1,) + idx[axis + 1 :]
                best = max(best, m[prev])
        m[idx] = sub[idx] + best
    return float(m[tuple(s - 1 for s in sub.shape)])


def enumerate_paths(v1, v2):
    """All directed paths between ordered lattice points (test oracle)."""
    v1, v2 = tuple(v1), tuple(v2)
    if v1 == v2:
        yield [v1]
        return
    for axis in range(len(v1)):
        if v1[axis] < v2[axis]:
            nxt = v1[:axis] + (v1[axis] + 1,) + v1[axis + 1 :]
            for tail in enumerate_paths(nxt, v2):
                yield [v1] + tail


def passage_times(alpha: float, box, replicas: int, seed: int, shift=None) -> np.ndarray:
    """Corner-to-corner passage times of ``replicas`` i.i.d. weight boxes.

    ``box`` gives the side lengths (two or three of them).  Replica k takes
    the one-sided draws of stream k in C order of the box; with ``shift``
    (an array of the box's shape) its weights are (draws + shift)^+.  The
    raw times come back in stream order, identical to `last_passage` on
    each replica's field, whatever the chunking or the thread count.

    Chunks of replicas run on the replica pool (`pool.run`; numpy
    releases the interpreter lock in the draws, the map and the wavefront)
    and write disjoint slices of the result.  A chunk holds its draws and
    their replicas-last copy, two cells per site and replica.
    """
    box = tuple(int(s) for s in box)
    if len(box) not in (2, 3) or min(box) < 1:
        raise DomainError(f"box must have two or three positive sides, got {box}")
    if replicas < 0:
        raise DomainError(f"replicas must be non-negative, got {replicas}")
    law = measures.mu(alpha)
    measures.rearrangement_map(law.alpha)  # tabulated here, not by two workers at once
    cells = math.prod(box)
    if shift is not None:
        shift = np.asarray(shift, dtype=float).reshape(cells, 1)
    out = np.empty(replicas)

    def run_chunk(streams: range) -> None:
        field = measures.sample(law, cells, seed, streams).T.copy()  # replicas last
        if shift is not None:
            field += shift
            np.maximum(field, 0.0, out=field)
        out[streams.start : streams.stop] = _wavefront(field, box)

    pool.run(run_chunk, replicas, 2 * cells)
    return out


def _wavefront(field: np.ndarray, box) -> np.ndarray:
    """Corner values of the passage-time DP on a (cells, replicas) field.

    The DP sweeps planes of constant coordinate sum.  ``front`` is indexed
    by all coordinates but the last, each shifted by one behind a -inf
    border, and holds each position's value on the latest plane it met.
    On a plane, fixing the leading coordinates (the prefix) leaves a run
    of consecutive second-to-last coordinates: the run's field values are
    one strided slice, and its predecessors are slices of ``front``.  Each
    cell takes f + max(predecessors), as in `last_passage`.  Prefixes go in
    descending order, so a run reads its lower neighbours before they are
    overwritten with the current plane.
    """
    *heads, k_side, l_side = box
    reps = field.shape[1]
    front = np.full(tuple(s + 1 for s in box[:-1]) + (reps,), -np.inf)
    front[(1,) * (len(box) - 1)] = 0.0  # the origin's predecessor
    best = np.empty((k_side, reps))
    step = max(l_side - 1, 1)
    strides = [math.prod(box[a + 1 :]) for a in range(len(heads))]
    prefixes = list(itertools.product(*(range(s - 1, -1, -1) for s in heads)))
    for plane in range(sum(box) - len(box) + 1):
        for prefix in prefixes:
            t = plane - sum(prefix)  # k + l along the run
            lo, hi = max(0, t - l_side + 1), min(k_side - 1, t)
            if lo > hi:
                continue
            row = front[tuple(i + 1 for i in prefix)]
            acc = best[: hi - lo + 1]
            np.maximum(row[lo : hi + 1], row[lo + 1 : hi + 2], out=acc)
            for a in range(len(heads)):
                lower = tuple(i + (b != a) for b, i in enumerate(prefix))
                np.maximum(acc, front[lower][lo + 1 : hi + 2], out=acc)
            first = sum(i * st for i, st in zip(prefix, strides)) + t + lo * (l_side - 1)
            cells = field[first : first + (hi - lo) * step + 1 : step]
            np.add(cells, acc, out=row[lo + 1 : hi + 2])
    return front[(-1,) * (len(box) - 1)]


def estimate_g(alpha: float, v, n: int, replicas: int, seed: int):
    """Monte Carlo estimate of E T_{0, floor(n v)} / n with standard error.

    Weights are i.i.d. one-sided draws with exponent alpha in (0, 1).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("the last-passage regime needs alpha in (0, 1)")
    if replicas < 2:
        raise DomainError("need at least two replicas")
    v = tuple(float(c) for c in v)
    corner = tuple(int(math.floor(n * c)) for c in v)
    if any(c < 0 for c in corner):
        raise DomainError("direction must be non-negative")
    times = passage_times(alpha, tuple(c + 1 for c in corner), replicas, seed) / n
    mean = float(times.mean())
    stderr = float(times.std(ddof=1) / math.sqrt(replicas))
    return mean, stderr


def additive_g(v) -> float:
    """Exactly superadditive reference shape g(v) = sum_i v_i."""
    return float(np.sum(np.asarray(v, dtype=float)))


class CachedShape:
    """Limit shape cached on a direction grid with multilinear interpolation.

    The deterministic-equivalent DP evaluates g at every lattice gap of the
    box, so Monte Carlo estimates are taken once per grid direction and
    interpolated.
    """

    def __init__(self, alpha: float, d: int, n_mc: int, replicas: int, seed: int, grid_points: int = 9):
        self.alpha = alpha
        self.d = d
        qs = np.linspace(0.0, 1.0, grid_points)
        self.qs = qs
        table = np.zeros((grid_points,) * d)
        for idx in itertools.product(range(grid_points), repeat=d):
            direction = tuple(qs[i] for i in idx)
            if all(c == 0 for c in direction):
                continue
            mean, _ = estimate_g(alpha, direction, n_mc, replicas, seed)
            table[idx] = mean
        self.table = table

    def __call__(self, v) -> float:
        v = np.asarray(v, dtype=float)
        if np.any(v < 0) or np.any(v > 1.0 + 1e-12):
            raise DomainError("cached shape covers directions in [0, 1]^d")
        pos = np.clip(v, 0.0, 1.0) * (len(self.qs) - 1)
        lo = np.minimum(pos.astype(int), len(self.qs) - 2)
        frac = pos - lo
        total = 0.0
        for corner in itertools.product((0, 1), repeat=self.d):
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

    One window recursion serves d = 2 and 3.  g is tabulated once per
    lattice gap, gtab[k] = g(k/n); then, in row-major order, which reaches
    every coordinatewise-smaller u before v, the candidates M(u) + g((v-u)/n)
    for all u <= v are the box m[:v+1] plus gtab reversed along every axis,
    with u = v masked out.  Each candidate is one addition and the max is
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
    g11 = g_eval((1.0,) * h.d)
    hp = np.maximum(h.values, 0.0)
    norm = float(np.sum(hp**alpha))
    return norm - max(t_det - g11, 0.0) ** alpha

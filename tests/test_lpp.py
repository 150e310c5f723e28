import functools
import itertools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from heavylab import experiments as ex
from heavylab import lpp, measures, pool
from heavylab.errors import DomainError

from oracles import additive_g


def brute_force_T(field, v1, v2):
    best = -math.inf
    for path in lpp.enumerate_paths(v1, v2):
        best = max(best, sum(field.values[v] for v in path))
    return best


def last_passage_batch_2d(fields):
    """The replicas-first (r, n+1, n+1) DP the engine replaced (oracle)."""
    r, rows, cols = fields.shape
    m = np.empty_like(fields)
    m[:, 0, 0] = fields[:, 0, 0]
    for j in range(1, cols):
        m[:, 0, j] = m[:, 0, j - 1] + fields[:, 0, j]
    for i in range(1, rows):
        m[:, i, 0] = m[:, i - 1, 0] + fields[:, i, 0]
        for j in range(1, cols):
            m[:, i, j] = fields[:, i, j] + np.maximum(m[:, i - 1, j], m[:, i, j - 1])
    return m[:, -1, -1]


def lpp_times(alpha, n, replicas, seed, chunk=1000):
    """The per-replica fill and replicas-first DP the engine replaced (oracle)."""
    law = measures.mu(alpha)
    out = np.empty(replicas)
    for start in range(0, replicas, chunk):
        m = min(chunk, replicas - start)
        stack = np.empty((m, n + 1, n + 1))
        for k in range(m):
            stack[k] = measures.sample(law, (n + 1) ** 2, seed, stream=start + k).reshape(
                n + 1, n + 1
            )
        out[start : start + m] = last_passage_batch_2d(stack) / n
    return out


def site_passage(values):
    """Per-site `last_passage` over a box of any two side lengths (oracle)."""
    side = max(2, *values.shape)  # a WeightField is a square of side >= 2
    square = np.zeros((side, side))
    square[: values.shape[0], : values.shape[1]] = values
    field = lpp.WeightField(side - 1, square)
    return lpp.last_passage(field, (0, 0), tuple(s - 1 for s in values.shape))


def test_field_validation():
    # LPP is two-dimensional: every shape but the (n + 1) x (n + 1) square is rejected
    for shape in ((3,), (3, 3, 3), (3, 3, 3, 3), (2, 2), (3, 4)):
        with pytest.raises(DomainError):
            lpp.WeightField(2, np.zeros(shape))


def test_last_passage_trivial_cases():
    f = lpp.WeightField(3, measures.sample(measures.mu(0.5), 16, 2).reshape(4, 4))
    assert lpp.last_passage(f, (1, 2), (1, 2)) == f.values[1, 2]
    ones = lpp.WeightField(1, np.ones((2, 2)))
    assert lpp.last_passage(ones, (0, 0), (1, 1)) == 3.0
    with pytest.raises(DomainError):
        lpp.last_passage(f, (2, 0), (1, 3))


def test_last_passage_exhaustive_oracle_n2():
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = lpp.WeightField(2, rng.normal(size=(3, 3)))
        assert lpp.last_passage(f, (0, 0), (2, 2)) == pytest.approx(
            brute_force_T(f, (0, 0), (2, 2))
        )


def test_last_passage_exhaustive_oracle_many():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 4):
        for _ in range(100 // (n + 1)):
            f = lpp.WeightField(n, rng.normal(size=(n + 1, n + 1)))
            assert lpp.last_passage(f, (0, 0), (n, n)) == pytest.approx(
                brute_force_T(f, (0, 0), (n, n))
            )


def test_batch_matches_scalar_dp():
    (batch,) = lpp.passage_times(0.5, [(5, 5)], 6, seed=10)
    for k in range(6):
        draws = measures.sample(measures.mu(0.5), 25, 10, stream=k)
        f = lpp.WeightField(4, draws.reshape(5, 5))
        assert batch[k] == pytest.approx(lpp.last_passage(f, (0, 0), (4, 4)))


def random_boxes():
    rng = np.random.default_rng(20)
    # one-row and one-column runs, and diagonals longer than 64 cells
    fixed = [(1, 1), (1, 6), (6, 1), (7, 3), (3, 7), (1, 70), (70, 1), (65, 9)]
    drawn = [tuple(rng.integers(1, 9, size=2).tolist()) for _ in range(6)]
    return fixed + drawn


@pytest.mark.parametrize("box", random_boxes(), ids=str)
def test_engine_equals_site_oracle(box):
    law = measures.mu(0.5)
    shift = np.random.default_rng(sum(box)).normal(scale=2.0, size=box)
    for sh in (None, shift):
        (times,) = lpp.passage_times(0.5, [box], 4, seed=21, shift=sh)
        for k in range(4):
            vals = measures.sample(law, math.prod(box), 21, stream=k).reshape(box)
            if sh is not None:
                vals = np.maximum(vals + sh, 0.0)
            assert times[k] == site_passage(vals)


@pytest.mark.parametrize("box", random_boxes(), ids=str)
def test_wavefront_equals_site_oracle_on_signed_fields(box):
    # signed weights: a wrong -inf border or a stale front entry would win the max
    fields = np.random.default_rng(len(box) * 100 + sum(box)).normal(size=(3,) + box)
    corner = lpp._wavefront(fields.reshape(3, -1).T.copy(), box)
    assert corner.tolist() == [site_passage(f) for f in fields]


@pytest.mark.parametrize("n, budget", [(1, 2**11), (10, 2**17), (40, None), (160, None)])
def test_engine_equals_replaced_lpp_times(monkeypatch, n, budget):
    if budget is not None:
        monkeypatch.setattr(pool, "_CELL_BUDGET", budget)
    # one full chunk per thread, then one more replica: a second round of chunks
    workers, most = pool.plan(2 * (n + 1) ** 2)
    for replicas in (workers * most, workers * most + 1):
        (times,) = lpp.passage_times(0.5, [(n + 1, n + 1)], replicas, seed=22) / n
        assert np.array_equal(times, lpp_times(0.5, n, replicas, seed=22))


@pytest.mark.parametrize("budget", [1, 1000])
def test_outputs_do_not_depend_on_chunking(monkeypatch, budget):
    # 101 replicas, a prime: with 1000 cells a chunk holds one replica or a
    # few, and no chunk size from 2 to 100 divides the total
    cfg = ex.ExperimentConfig(
        functional="lpp_time", alpha=0.5, n_list=(4, 9), replicas=101, seed=23
    )

    def outputs():
        return (
            [a.tolist() for a in lpp.estimate_g(0.5, [(1.0, 0.5)], n=12, replicas=101, seed=23)],
            ex.tail_rate(cfg, 2.5),
            ex.equivalent_error_curve("lpp", cfg, spike=3.0, g_eval=additive_g),
        )

    default = outputs()
    monkeypatch.setattr(pool, "_CELL_BUDGET", budget)
    assert outputs() == default


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("box", [(5, 4)], ids=str)
def test_pool_equals_site_oracle(monkeypatch, workers, box):
    # 480 cells: 4 to 12 replicas per chunk, none of which divides 23
    monkeypatch.setattr(pool, "_WORKERS", workers)
    monkeypatch.setattr(pool, "_CELL_BUDGET", 480)
    assert 1 < pool.plan(2 * math.prod(box))[1] < 23
    law = measures.mu(0.5)
    shift = np.random.default_rng(workers).normal(scale=2.0, size=box)
    interval = sys.getswitchinterval()
    for sh in (None, shift):
        sys.setswitchinterval(1e-6)  # hand the interpreter lock between chunks often
        try:
            (times,) = lpp.passage_times(0.5, [box], 23, seed=26, shift=sh)
        finally:
            sys.setswitchinterval(interval)
        oracle = []
        for k in range(23):
            vals = measures.sample(law, math.prod(box), 26, stream=k).reshape(box)
            if sh is not None:
                vals = np.maximum(vals + sh, 0.0)
            oracle.append(site_passage(vals))
        assert times.tolist() == oracle


# mixed shapes (one row, one column, diagonals longer than 64 cells), a
# duplicate and no order by size, with room for 4 replicas of the largest
# box (1 to 4 per chunk); then small boxes under a 480-cell budget (3 to 11)
MULTI_BOX_CASES = {
    "mixed": ([(7, 3), (65, 9), (1, 70), (70, 1), (7, 3)], 4 * 2 * 65 * 9),
    "small": ([(5, 4), (1, 6), (3, 7), (6, 1), (5, 4)], 480),
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(MULTI_BOX_CASES))
def test_multi_box_call_equals_per_box_calls(monkeypatch, workers, case):
    boxes, budget = MULTI_BOX_CASES[case]
    monkeypatch.setattr(pool, "_WORKERS", workers)
    monkeypatch.setattr(pool, "_CELL_BUDGET", budget)
    cells = max(math.prod(box) for box in boxes)
    assert pool.plan(2 * cells)[1] < 23  # more than one chunk
    shift = np.random.default_rng(workers).normal(scale=2.0, size=cells)
    interval = sys.getswitchinterval()
    for sh in (None, shift):
        sys.setswitchinterval(1e-6)  # hand the interpreter lock between chunks often
        try:
            times = lpp.passage_times(0.5, boxes, 23, seed=29, shift=sh)
        finally:
            sys.setswitchinterval(interval)
        assert times.shape == (len(boxes), 23)
        for row, box in zip(times, boxes):
            own = None if sh is None else sh[: math.prod(box)].reshape(box)
            assert row.tolist() == lpp.passage_times(0.5, [box], 23, seed=29, shift=own)[0].tolist()


def test_each_chunk_draws_its_streams_once_for_the_largest_box(monkeypatch):
    monkeypatch.setattr(pool, "_WORKERS", 2)
    monkeypatch.setattr(pool, "_CELL_BUDGET", 2 * 2 * 30 * 4)  # 4 replicas per chunk
    sample = measures.sample
    calls = []

    def counting_sample(law, count, seed, streams):
        calls.append((count, streams))  # list.append is atomic
        return sample(law, count, seed, streams)

    monkeypatch.setattr(measures, "sample", counting_sample)
    lpp.passage_times(0.5, [(3, 4), (6, 5), (2, 2), (6, 5)], 23, seed=30)
    assert len(calls) > 1
    assert {count for count, _ in calls} == {30}
    drawn = sorted(s for _, streams in calls for s in streams)
    assert drawn == list(range(23))  # each stream once


def test_estimate_g_over_directions_equals_one_direction_at_a_time():
    directions = [(1.0, 0.5), (0.25, 1.0), (0.0, 0.0), (1.0, 0.5)]
    means, stderrs = lpp.estimate_g(0.5, directions, n=12, replicas=50, seed=31)
    for k, v in enumerate(directions):
        (mean,), (se,) = lpp.estimate_g(0.5, [v], n=12, replicas=50, seed=31)
        assert (means[k], stderrs[k]) == (mean, se)


def test_pool_cancels_chunks_after_a_failure(monkeypatch):
    monkeypatch.setattr(pool, "_WORKERS", 2)
    monkeypatch.setattr(pool, "_CELL_BUDGET", 2 * 2 * 25)  # one replica per chunk
    sample = measures.sample
    starts = []

    def failing_sample(law, count, seed, streams):
        starts.append(streams.start)  # list.append is atomic
        if streams.start == 2:
            raise DomainError("third chunk")
        time.sleep(0.01)  # the caller sees the failure before the other worker ends
        return sample(law, count, seed, streams)

    monkeypatch.setattr(measures, "sample", failing_sample)
    with pytest.raises(DomainError, match="third chunk"):
        lpp.passage_times(0.5, [(5, 5)], 40, seed=27)
    assert 2 in starts
    assert len(starts) < 40


def test_pool_builds_a_fresh_map_once_inside_the_workers(monkeypatch):
    # the first chunk to ask for an alpha builds its map; the others wait for it
    built = []

    class RecordingMap(measures.RearrangementMap):
        def __post_init__(self):
            built.append(threading.current_thread())
            time.sleep(0.05)  # the other workers ask while it is built
            super().__post_init__()

    monkeypatch.setattr(measures, "_tabulated", functools.cache(RecordingMap))
    monkeypatch.setattr(pool, "_WORKERS", 3)
    monkeypatch.setattr(pool, "_CELL_BUDGET", 600)  # 4 replicas per chunk, 5 chunks
    times = lpp.passage_times(0.4321, [(5, 5)], 20, seed=28)
    assert len(built) == 1 and built[0] is not threading.main_thread()
    monkeypatch.setattr(pool, "_WORKERS", 1)
    assert np.array_equal(lpp.passage_times(0.4321, [(5, 5)], 20, seed=28), times)
    assert len(built) == 1


def test_engine_memory_stays_within_the_cell_budget():
    lpp.passage_times(0.5, [(3, 3)], 2, seed=0)  # the transport map is built outside the trace
    tracemalloc.start()
    try:
        lpp.passage_times(0.5, [(161, 161)], 400, seed=25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a chunk's draws and their replicas-last copy are 2 x budget x 8 bytes
    assert peak <= 4 * pool._CELL_BUDGET * 8


def test_passage_times_rejects_bad_boxes():
    # a bare box, such as (3, 3), is not read as a list of one
    for box in ((5,), (2, 2, 2), (2, 2, 2, 2), (0, 3), (3, 3), [5, 5], [], [(3, 3), (0, 3)],
                [(3, 3), (2, 2, 2)]):
        with pytest.raises(DomainError):
            lpp.passage_times(0.5, box, 3, seed=0)
    with pytest.raises(DomainError):
        lpp.estimate_g(0.5, [], n=4, replicas=3, seed=0)


def test_passage_times_rejects_negative_replicas():
    with pytest.raises(DomainError):
        lpp.passage_times(0.5, [(3, 3)], -3, seed=0)


def test_estimate_g_monotone_in_direction():
    (m_diag, m_axis), (se_diag, se_axis) = lpp.estimate_g(
        0.5, [(1.0, 1.0), (1.0, 0.0)], n=12, replicas=200, seed=3
    )
    assert m_diag >= m_axis
    assert se_diag > 0


def test_estimate_g_degenerate_direction_mean():
    # single-site box: T = X_0, so the estimate is the first moment
    (mean,), (se,) = lpp.estimate_g(0.5, [(0.0, 0.0)], n=8, replicas=4000, seed=4)
    exact = measures.moment(measures.mu(0.5), 1) / 8.0
    assert abs(mean - exact) < 4 * se


def test_estimate_g_superadditivity():
    (m2,), (se2,) = lpp.estimate_g(0.5, [(1.0, 1.0)], n=24, replicas=400, seed=5)
    (m1,), (se1,) = lpp.estimate_g(0.5, [(1.0, 1.0)], n=12, replicas=400, seed=6)
    assert m2 >= m1 - 3 * (se1 + se2)


def test_det_equivalent_zero_field_additive_shape():
    for n in (2, 4, 6):
        h = lpp.WeightField(n, np.zeros((n + 1, n + 1)))
        val = lpp.deterministic_equivalent_T(h, additive_g)
        assert val == pytest.approx(2.0, abs=1e-12)


def test_det_equivalent_nonpositive_field_collapses_to_g11():
    rng = np.random.default_rng(11)
    for n in (2, 4, 6):
        h = lpp.WeightField(n, -np.abs(rng.normal(size=(n + 1, n + 1))))
        val = lpp.deterministic_equivalent_T(h, additive_g)
        assert val == pytest.approx(2.0, abs=1e-12)


def test_det_equivalent_corner_spike():
    n = 5
    vals = np.zeros((n + 1, n + 1))
    vals[n, n] = 1.3
    h = lpp.WeightField(n, vals)
    assert lpp.deterministic_equivalent_T(h, additive_g) == pytest.approx(2.0 + 1.3)


def brute_force_det_equiv(h, g_eval, n):
    box = list(itertools.product(range(n + 1), repeat=2))
    hp = np.maximum(h.values, 0.0)
    start = (0, 0)
    end = (n, n)
    interior = [v for v in box if v != start and v != end]
    best = -math.inf

    def all_chains(prefix, remaining):
        yield prefix
        for i, v in enumerate(remaining):
            if all(a <= b for a, b in zip(prefix[-1], v)) and prefix[-1] != v:
                yield from all_chains(prefix + [v], remaining[i + 1 :])

    order = sorted(interior)
    for chain in all_chains([start], order):
        full = chain + [end] if chain[-1] != end else chain
        if any(
            not all(a <= b for a, b in zip(u, v)) or u == v
            for u, v in zip(full, full[1:])
        ):
            continue
        val = sum(hp[v] for v in full) + sum(
            g_eval(tuple((b - a) / n for a, b in zip(u, v)))
            for u, v in zip(full, full[1:])
        )
        best = max(best, val)
    return best


def root_shape(v) -> float:
    """(sum_i sqrt(v_i))^2: a superadditive shape that is not additive."""
    return float(np.sum(np.sqrt(np.asarray(v, dtype=float))) ** 2)


def sparse_signed_field(rng, n):
    vals = rng.normal(size=(n + 1, n + 1))
    keep = rng.random(vals.shape) < 0.2
    return lpp.WeightField(n, np.where(keep, np.abs(vals), -np.abs(vals)))


def test_det_equivalent_matches_chain_enumeration():
    rng = np.random.default_rng(12)
    for trial in range(100):
        h = sparse_signed_field(rng, 3)
        for g_eval in (additive_g, root_shape):
            mine = lpp.deterministic_equivalent_T(h, g_eval)
            oracle = brute_force_det_equiv(h, g_eval, 3)
            assert mine == pytest.approx(oracle, abs=1e-12)


def pairwise_det_equiv(h, g_eval, n):
    """The recursion one (u, v) pair at a time, vertices in order of coordinate sum."""
    hp = np.maximum(h.values, 0.0)
    shape = hp.shape
    m = np.full(shape, -np.inf)
    order = sorted(itertools.product(*(range(s) for s in shape)), key=sum)
    for idx in order:
        if all(i == 0 for i in idx):
            m[idx] = hp[idx]
            continue
        best = -np.inf
        for u in itertools.product(*(range(i + 1) for i in idx)):
            if u == idx:
                continue
            gap = tuple((a - b) / n for a, b in zip(idx, u))
            cand = m[u] + g_eval(gap)
            if cand > best:
                best = cand
        m[idx] = hp[idx] + best
    return float(m[tuple(s - 1 for s in shape)])


@pytest.mark.parametrize("sizes", [(1, 2, 5, 8)], ids=["d2"])
def test_det_equivalent_equals_pairwise_oracle(sizes):
    # the window recursion meets the same candidates as the pairwise loop, so == holds
    rng = np.random.default_rng(22)
    cached = lpp.CachedShape(0.5, n_mc=4, replicas=20, seed=18, grid_points=3)
    for n in sizes:
        for _ in range(3):
            h = lpp.WeightField(n, rng.normal(size=(n + 1, n + 1)))
            for g_eval in (additive_g, cached):
                assert lpp.deterministic_equivalent_T(h, g_eval) == pairwise_det_equiv(h, g_eval, n)


def test_det_equivalent_monotone_in_h():
    rng = np.random.default_rng(13)
    n = 4
    base = rng.normal(size=(n + 1, n + 1))
    h = lpp.WeightField(n, base)
    bumped = lpp.WeightField(n, base + np.abs(rng.normal(size=(n + 1, n + 1))))
    lowered = lpp.WeightField(n, np.where(base < 0, base - 1.0, base))
    v0 = lpp.deterministic_equivalent_T(h, additive_g)
    assert lpp.deterministic_equivalent_T(bumped, additive_g) >= v0
    assert lpp.deterministic_equivalent_T(lowered, additive_g) == pytest.approx(v0)


def test_rate_consistency_slack():
    n, alpha = 4, 0.5
    spike = np.zeros((n + 1, n + 1))
    spike[n, n] = 2.7
    h = lpp.WeightField(n, spike)
    assert lpp.rate_L_consistency(h, additive_g, alpha) == pytest.approx(0.0, abs=1e-12)
    zero = lpp.WeightField(n, np.zeros((n + 1, n + 1)))
    assert lpp.rate_L_consistency(zero, additive_g, alpha) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(14)
    for _ in range(50):
        h = lpp.WeightField(n, rng.normal(size=(n + 1, n + 1)))
        assert lpp.rate_L_consistency(h, additive_g, alpha) >= -1e-9


def test_cached_shape_interpolates_table():
    shape = lpp.CachedShape(0.5, n_mc=8, replicas=40, seed=15, grid_points=5)
    qs = shape.qs
    for i, j in itertools.product(range(5), repeat=2):
        if i == j == 0:
            continue
        direct = shape.table[i, j]
        assert shape((qs[i], qs[j])) == pytest.approx(direct, rel=1e-12)
    with pytest.raises(DomainError):
        shape((1.5, 0.0))


def test_uniform_equivalent_echo_median_shrinks():
    # |T(X + nH)^+/n - T_det(H)| median decreasing from n=20 to n=80
    alpha, spike_height = 0.5, 3.0
    shape = lpp.CachedShape(alpha, n_mc=40, replicas=300, seed=16, grid_points=5)
    medians = {}
    for n in (20, 80):
        hvals = np.zeros((n + 1, n + 1))
        hvals[n, n] = spike_height
        h = lpp.WeightField(n, hvals)
        t_det = lpp.deterministic_equivalent_T(h, shape)
        reps = 60
        (times,) = lpp.passage_times(alpha, [(n + 1, n + 1)], reps, 17, shift=n * hvals) / n
        medians[n] = float(np.median(np.abs(times - t_det)))
    assert medians[80] < medians[20]

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.optimize import linprog

from heavylab import specmeasures as sm
from heavylab.errors import ConvergenceError, DomainError

from oracles import dirac, fixed_point_residual

RNG = np.random.default_rng(314)


def random_measure(rng, max_atoms=8, span=4.0):
    n = int(rng.integers(1, max_atoms + 1))
    atoms = rng.uniform(-span, span, size=n)
    w = rng.uniform(0.05, 1.0, size=n)
    return sm.Measure1D.from_atoms(atoms, w / w.sum())


def lp_wasserstein_cost(mu, nu, p):
    """Exhaustive LP coupling oracle; returns the optimal sum pi |x-y|^p."""
    na, nb = mu.atoms.size, nu.atoms.size
    cost = (np.abs(mu.atoms[:, None] - nu.atoms[None, :]) ** p).ravel()
    a_eq = []
    b_eq = []
    for i in range(na):
        row = np.zeros((na, nb))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(mu.weights[i])
    for j in range(nb):
        row = np.zeros((na, nb))
        row[:, j] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(nu.weights[j])
    res = linprog(cost, A_eq=np.array(a_eq), b_eq=np.array(b_eq), bounds=(0, None))
    assert res.success
    return res.fun


# ---------------------------------------------------------------- Measure1D


def test_measure_validation_and_merge():
    nan, inf = math.nan, math.inf
    for atoms, weights in [
        ([0.0, 0.0], [0.5, 0.5]),
        ([0.0, 1.0], [0.6, 0.6]),
        ([nan], [1.0]),
        ([0.0, nan], [0.5, 0.5]),
        ([0.0, 1.0], [nan, 0.5]),
        ([0.0, inf], [0.5, 0.5]),
        ([0.0, 1.0], [1.0]),
        ([-inf, 0.0], [0.5, -0.5]),
        ([0.0, 1.0], [0.5, 0.5 + 1e-9]),
        ([0.0, 1.0], [inf, -inf]),
    ]:
        with pytest.raises(DomainError):
            sm.Measure1D(np.array(atoms), np.array(weights))
    with pytest.raises(DomainError, match="at least one atom"):
        sm.Measure1D.from_atoms(np.array([]))
    # an extra weight was once dropped, a missing one an IndexError
    for atoms, weights in (([2.0, 1.0], [0.5, 0.5, 0.25]), ([2.0, 1.0, 3.0], [0.5, 0.5])):
        with pytest.raises(DomainError, match="matching"):
            sm.Measure1D.from_atoms(np.array(atoms), np.array(weights))
    m = sm.Measure1D.from_atoms(np.array([1.0, 0.0, 1.0]), np.array([0.25, 0.5, 0.25]))
    assert m.atoms.tolist() == [0.0, 1.0]
    assert m.weights.tolist() == [0.5, 0.5]


def test_csv_roundtrip():
    m = random_measure(np.random.default_rng(5))
    text = "atom,weight\n" + "".join(f"{float(a)!r},{float(w)!r}\n" for a, w in zip(m.atoms, m.weights))
    again = sm.Measure1D.from_csv(text)
    assert np.array_equal(m.atoms, again.atoms)
    assert np.array_equal(m.weights, again.weights)


# ---------------------------------------------------------------- transforms


def test_stieltjes_dirac_and_two_point():
    z = 2.0j
    assert complex(sm.stieltjes(dirac(0.0), z)) == pytest.approx(-0.5j)
    two = sm.Measure1D(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    assert complex(sm.stieltjes(two, z)) == pytest.approx(-0.4j)


def test_stieltjes_linearity_and_sign():
    rng = np.random.default_rng(0)
    a, b = random_measure(rng), random_measure(rng)
    mix = sm.Measure1D.from_atoms(
        np.concatenate([a.atoms, b.atoms]),
        np.concatenate([a.weights / 2, b.weights / 2]),
    )
    z = rng.uniform(-1, 1, 16) + 1j * rng.uniform(0.5, 3, 16)
    lhs = sm.stieltjes(mix, z)
    rhs = 0.5 * (sm.stieltjes(a, z) + sm.stieltjes(b, z))
    assert np.allclose(lhs, rhs, atol=1e-13)
    assert np.all(sm.stieltjes(a, z).imag < 0)


def test_stieltjes_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        sm.stieltjes(dirac(0.0), 1.0 - 1j)


def test_g_semicircle_values():
    assert complex(sm.g_semicircle(2.0)) == pytest.approx(1.0)
    assert complex(sm.g_semicircle(2.5)) == pytest.approx(0.5)
    assert complex(sm.g_semicircle(-2.0)) == pytest.approx(-1.0)
    big = 1e6 * np.exp(1j * np.linspace(0.1, np.pi - 0.1, 9))
    assert np.all(np.abs(big * sm.g_semicircle(big) - 1.0) < 1e-5)


def test_g_semicircle_self_consistency():
    z = np.linspace(-1, 1, 21) + 2j
    g = sm.g_semicircle(z)
    assert np.max(np.abs(g - 1.0 / (z - g))) < 1e-12
    with pytest.raises(DomainError):
        sm.g_semicircle(0.5)


def test_semicircle_measure_atoms_are_nearest_quantiles():
    density = lambda x: math.sqrt(4.0 - x * x) / (2.0 * math.pi)
    for x in (-2.0, -1.3, 0.0, 0.4, 1.9, 2.0):
        want = integrate.quad(density, -2.0, x, epsabs=1e-14)[0]
        assert sm._semicircle_cdf(np.array(x)) == pytest.approx(want, abs=1e-12)
    for n in (1, 2, 199, 200, 2000):
        m = sm.semicircle_measure(n)
        q = (np.arange(n) + 0.5) / n
        assert m.atoms.size == n and np.all(np.diff(m.atoms) > 0.0)
        assert np.all(m.weights == 1.0 / n)
        err = np.abs(sm._semicircle_cdf(m.atoms) - q)
        for side in (-np.inf, np.inf):
            neighbour = np.nextafter(m.atoms, side)
            assert np.all(err <= np.abs(sm._semicircle_cdf(neighbour) - q))
    assert sm.semicircle_measure(1).atoms.tolist() == [0.0]
    with pytest.raises(DomainError):
        sm.semicircle_measure(0)


def test_contour_invariants():
    # one contour, built once: the same read-only object on every call
    c = sm.default_contour()
    assert sm.default_contour() is c
    assert c.nodes.size == 64 and not c.nodes.flags.writeable
    with pytest.raises(ValueError):
        c.nodes[0] = 3.0j
    assert np.all(c.nodes.imag >= 2.0)
    assert np.abs(c.nodes[:, None] - c.nodes[None, :]).max() <= 1.0


# ---------------------------------------------------------------- distances


def test_distance_d_basic():
    m = random_measure(np.random.default_rng(1))
    assert sm.distance_d(m, m) == 0.0
    d0, d1 = dirac(0.0), dirac(1.0)
    nodes = sm.default_contour().nodes
    oracle = np.max(np.abs(1.0 / nodes - 1.0 / (nodes - 1.0)))
    assert sm.distance_d(d0, d1) == pytest.approx(float(oracle), rel=1e-14)
    assert sm.distance_d(d0, d1) == sm.distance_d(d1, d0)


def test_distance_d_below_wasserstein_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b = random_measure(rng), random_measure(rng)
        d = sm.distance_d(a, b)
        w1 = sm.wasserstein_p(a, b, 1.0)
        assert d <= w1 + 1e-12
        assert w1 <= sm.wasserstein_p(a, b, 2.0) + 1e-12


def test_wasserstein_diracs_and_split():
    assert sm.wasserstein_p(dirac(-1.5), dirac(2.0), 1.7) == pytest.approx(3.5)
    split = sm.Measure1D(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
    assert sm.wasserstein_p(split, dirac(1.0), 2.0) == pytest.approx(1.0)


def test_wasserstein_matches_lp_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = random_measure(rng, max_atoms=5)
        b = random_measure(rng, max_atoms=5)
        for p in (1.0, 1.5, 2.0):
            mine = sm.wasserstein_p(a, b, p) ** p
            lp = lp_wasserstein_cost(a, b, p)
            assert mine == pytest.approx(lp, rel=1e-7, abs=1e-9)


def test_wasserstein_rejects_small_p():
    a = dirac(0.0)
    with pytest.raises(DomainError):
        sm.wasserstein_p(a, a, 0.5)


def test_distance_dp_basic():
    d0, d1 = dirac(0.0), dirac(1.0)
    m = random_measure(np.random.default_rng(2))
    for p in (0.25, 0.5, 0.75):
        assert sm.distance_dp(m, m, p) == 0.0
        assert sm.distance_dp(d0, d1, p) == pytest.approx(1.0, abs=1e-10)


def test_distance_dp_brute_force_oracle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a, b = random_measure(rng), random_measure(rng)
        p = float(rng.uniform(0.2, 0.8))
        mine = sm.distance_dp(a, b, p)
        diff = sm._dp_diff(a, b, p)
        knots = np.concatenate([a.atoms, b.atoms])
        ts = np.concatenate([np.linspace(knots.min(), knots.max() + 50.0, 200001), knots])
        oracle = float(np.max(np.abs(diff(ts))))
        assert mine >= oracle - 1e-12
        assert mine <= oracle + 1e-4


def test_distance_dp_dominated_by_coupling_cost():
    rng = np.random.default_rng(29)
    for _ in range(50):
        a, b = random_measure(rng), random_measure(rng)
        for p in (0.25, 0.5, 0.75):
            cost = sm.monotone_coupling_cost(a, b, p)
            assert sm.distance_dp(a, b, p) <= cost + 1e-9


def scalar_dp_diff(mu, nu, p):
    """The d_p difference on all points at once, without chunking or a masked power."""

    def diff(t):
        t = np.asarray(t, dtype=float)
        a = np.sum(mu.weights[None, :] * np.maximum(t[..., None] - mu.atoms[None, :], 0.0) ** p, axis=-1)
        b = np.sum(nu.weights[None, :] * np.maximum(t[..., None] - nu.atoms[None, :], 0.0) ** p, axis=-1)
        return a - b

    return diff


@pytest.mark.parametrize("seed", range(5))
def test_dp_diff_masked_power_matches_plain_formula(seed):
    # a term with t <= x is an exact +0 with or without the power, so every
    # value keeps its bits, at points placed exactly on atoms too
    rng = np.random.default_rng(61 + seed)
    for _ in range(60):
        a, b = random_measure(rng, max_atoms=9), random_measure(rng, max_atoms=9)
        p = float(rng.uniform(0.01, 0.99))
        t = np.concatenate([a.atoms, b.atoms, rng.uniform(-5.0, 5.0, size=40)])
        assert sm._dp_diff(a, b, p)(t).tobytes() == scalar_dp_diff(a, b, p)(t).tobytes()
    # -0.0 - 0.0 is -0.0, which both forms clip to +0
    zero = sm.Measure1D(np.array([-1.0, 0.0]), np.array([0.5, 0.5]))
    t = np.array([-0.0, 0.0, -1.0, 2.0])
    assert sm._dp_diff(zero, dirac(0.0), 0.5)(t).tobytes() == \
        scalar_dp_diff(zero, dirac(0.0), 0.5)(t).tobytes()


def scalar_golden_max(fun, lo, hi, iters=80):
    """Golden-section maximum of a scalar function on one bracket [lo, hi]."""
    a, b = lo, hi
    c = b - sm._GOLD * (b - a)
    d = a + sm._GOLD * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - sm._GOLD * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + sm._GOLD * (b - a)
            fd = fun(d)
        if b - a < 1e-13 * max(1.0, abs(a) + abs(b)):
            break
    return max(fc, fd)


def scalar_distance_dp(mu, nu, p, tol=1e-9):
    """Segment-by-segment sweep with one scalar search per segment, the oracle."""
    diff = scalar_dp_diff(mu, nu, p)
    absdiff = lambda t: float(np.abs(diff(np.atleast_1d(t)))[0])
    knots = np.unique(np.concatenate([mu.atoms, nu.atoms]))
    span = max(knots[-1] - knots[0], 1.0)
    segments = list(zip(knots[:-1], knots[1:]))
    segments.append((knots[-1], knots[-1] + 10.0 * span))

    def sweep(per_segment):
        best = float(np.max(np.abs(diff(knots))))
        for a, b in segments:
            ts = np.linspace(a, b, per_segment)
            vals = np.abs(diff(ts))
            k = int(np.argmax(vals))
            best = max(best, float(vals[k]))
            lo = ts[max(k - 1, 0)]
            hi = ts[min(k + 1, per_segment - 1)]
            best = max(best, scalar_golden_max(absdiff, lo, hi))
        return best

    result = sweep(17)
    for per_segment in (33, 65, 129):
        refined = sweep(per_segment)
        if abs(refined - result) <= tol:
            return max(refined, result)
        result = refined
    return result


def dp_oracle_cases():
    """200 random pairs over spans 1e-2..1e3, Dirac and equal pairs, extreme p,
    and a 540-segment pair."""
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(200):
        span = 10.0 ** rng.uniform(-2.0, 3.0)
        p = float(rng.uniform(0.02, 0.98))
        cases.append((random_measure(rng, span=span), random_measure(rng, span=span), p))
    d0, d1 = dirac(0.0), dirac(1.5)
    m = random_measure(rng)
    cases += [(d0, d1, 0.5), (d1, d0, 0.02), (d0, d0, 0.98), (m, m, 0.5)]
    for span in (1e-2, 1e3):
        for p in (0.02, 0.98):
            cases.append((random_measure(rng, span=span), random_measure(rng, span=span), p))
    # 540 segments: the first golden probes (two per segment) span two chunks
    wide = sm.Measure1D.from_atoms(rng.normal(size=500))
    narrow = sm.Measure1D.from_atoms(rng.normal(size=40))
    assert 2 * (wide.atoms.size + narrow.atoms.size) > sm._DP_CHUNK
    cases.append((wide, narrow, 0.4))
    return cases


def test_distance_dp_matches_scalar_oracle():
    # the lockstep search probes the same points as the scalar sweep, so
    # every result agrees bit for bit
    for a, b, p in dp_oracle_cases():
        assert sm.distance_dp(a, b, p) == scalar_distance_dp(a, b, p)


def unpruned_distance_dp(mu, nu, p):
    """`distance_dp` before it left out the segments it certifies: every
    segment is swept and refined."""
    diff = sm._dp_diff(mu, nu, p)
    absdiff = lambda t: np.abs(diff(t))
    knots = np.unique(np.concatenate([mu.atoms, nu.atoms]))
    span = max(knots[-1] - knots[0], 1.0)
    ends = np.append(knots[1:], knots[-1] + 10.0 * span)
    at_knots = float(np.max(absdiff(knots)))
    rows = np.arange(knots.size)

    def sweep(per_segment):
        ts = np.linspace(knots, ends, per_segment, axis=1)
        vals = absdiff(ts)
        k = np.argmax(vals, axis=1)
        a = ts[rows, np.maximum(k - 1, 0)]
        b = ts[rows, np.minimum(k + 1, per_segment - 1)]
        return max(at_knots, float(np.max(vals)), float(np.max(sm._golden_max(absdiff, a, b))))

    result = sweep(17)
    for per_segment in (33, 65, 129):
        refined = sweep(per_segment)
        if abs(refined - result) <= sm._DP_TOL:
            return max(refined, result)
        result = refined
    return result


def test_distance_dp_pruning_keeps_every_bit():
    # pairs whose parts cancel certify nothing and take the full search:
    # mu = nu, a Dirac against itself, and a dilation by 1 + 1e-12
    rng = np.random.default_rng(43)
    cases = dp_oracle_cases()
    small = sm.semicircle_measure(200)
    for m in (random_measure(rng), dirac(0.0), small):
        for p in (0.02, 0.5, 0.98):
            cases += [(m, m, p), (m, m.dilate(1.0 + 1e-12), p), (m.dilate(1.0 + 1e-12), m, p)]
    for p in (0.02, 0.98):
        cases.append((small, small.dilate(1.05), p))
    for a, b, p in cases:
        got = sm.distance_dp(a, b, p)
        assert np.float64(got).tobytes() == np.float64(unpruned_distance_dp(a, b, p)).tobytes()


def test_dp_bound_keeps_every_piece_that_reaches_the_floor():
    # the probability pairs' sup sits at a knot, so a wrong certificate would
    # not move a result: check the bound itself against each piece's own
    # sampled maximum, on random pieces and on the pieces between knots
    rng = np.random.default_rng(53)
    for _ in range(60):
        a, b = random_measure(rng, max_atoms=9), random_measure(rng, max_atoms=9)
        p = float(rng.uniform(0.02, 0.98))
        knots = np.unique(np.concatenate([a.atoms, b.atoms]))
        ends = np.sort(rng.uniform(knots[0] - 1.0, knots[-1] + 1.0, size=(20, 2)), axis=1)
        pieces = np.concatenate([np.c_[knots[:-1], knots[1:]], ends])
        ts = np.linspace(pieces[:, 0], pieces[:, 1], 257, axis=1)
        top = np.max(np.abs(sm._dp_diff(a, b, p)(ts)), axis=1)
        size = max(a.atoms.size, b.atoms.size)
        for (s0, s1), floor in zip(pieces, top):
            assert sm._dp_may_reach(sm._dp_parts(a, b, p, np.array([s0, s1])), floor, size)


@pytest.mark.parametrize("size", [1, 40, 500])
def test_dp_margin_covers_the_rounding_it_derives(size):
    # a piece whose bound U falls short of the floor by the rounding of two
    # evaluations, 4 (m + 5) eps (A + B), is kept; one short by more than
    # the margin 24 (m + 4) eps (A + B) is dropped
    eps = np.finfo(float).eps
    for top in (1.0, 3e-7, 2.0**-1000):
        parts = np.array([[0.0, top], [0.0, 0.0]])
        near = top * (1.0 + 4 * (size + 5) * eps)
        far = top * (1.0 + 25 * (size + 4) * eps)
        assert sm._dp_may_reach(parts, near, size)
        assert not sm._dp_may_reach(parts, far, size)
    # products that underflow err absolutely: eta per term
    tiny = np.array([[0.0, 0.0], [0.0, 0.0]])
    assert sm._dp_may_reach(tiny, 2 * size * math.ulp(0.0), size)


def test_distance_dp_skips_most_segments_of_the_benchmark_pair(monkeypatch):
    # a search that silently fell back to every segment would pass the
    # equality tests, so count the brackets refined: at most a fifth
    brackets = []
    plain = sm._golden_max

    def counted(fun, lo, hi, iters=80):
        brackets.append(np.size(lo))
        return plain(fun, lo, hi, iters)

    monkeypatch.setattr(sm, "_golden_max", counted)
    small = sm.semicircle_measure(200)
    segments = np.unique(np.concatenate([small.atoms, small.dilate(1.05).atoms])).size
    for p in (0.25, 0.5, 0.75):
        brackets.clear()
        sm.distance_dp(small, small.dilate(1.05), p)
        assert max(brackets, default=0) <= 0.2 * segments
    brackets.clear()
    sm.distance_dp(small, small, 0.5)
    assert brackets[0] == small.atoms.size


@pytest.mark.parametrize("iters", [80, 20])
def test_golden_max_matches_scalar_search(iters):
    # distance_dp's sup sat at a knot on every probability pair tried, so
    # the search is checked on its own: widths from 1e-6 to 10 leave the
    # live set at different steps, 20 steps stop most brackets at the cap,
    # and the quartic has interior maxima
    rng = np.random.default_rng(47)
    fun = lambda t: 0.5 * t - (t * t - 1.0) ** 2
    lo = rng.uniform(-2.0, 2.0, size=300)
    hi = lo + 10.0 ** rng.uniform(-6.0, 1.0, size=300)
    scalar = lambda t: float(fun(np.atleast_1d(t))[0])
    want = [scalar_golden_max(scalar, a, b, iters) for a, b in zip(lo, hi)]
    assert np.array_equal(sm._golden_max(fun, lo, hi, iters), want)


def test_distance_dp_benchmark_pair_pinned():
    small = sm.semicircle_measure(200)
    dilated = small.dilate(1.05)
    pinned = {0.25: 0.014452800899268814, 0.5: 0.014726446038897445, 0.75: 0.01686586660759687}
    for p, value in pinned.items():
        assert sm.distance_dp(small, dilated, p) == value


def test_distance_dp_diff_call_count(monkeypatch):
    # one difference evaluation per search step for all segments together;
    # the scalar sweep made about 38 000 for this pair
    calls = []
    plain = sm._dp_diff

    def counted(*args, **kwargs):
        diff = plain(*args, **kwargs)

        def wrapped(t):
            calls.append(1)
            return diff(t)

        return wrapped

    monkeypatch.setattr(sm, "_dp_diff", counted)
    small = sm.semicircle_measure(200)
    for p in (0.25, 0.5, 0.75):
        calls.clear()
        sm.distance_dp(small, small.dilate(1.05), p)
        assert len(calls) <= 4 * 84


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=12),
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=12),
    st.floats(min_value=-2.0, max_value=3.0),
    st.floats(min_value=0.02, max_value=0.98),
)
def test_distance_dp_symmetric_and_above_knots(unit_a, unit_b, log_spread, p):
    a = sm.Measure1D.from_atoms(10.0**log_spread * np.array(unit_a))
    b = sm.Measure1D.from_atoms(10.0**log_spread * np.array(unit_b))
    d = sm.distance_dp(a, b, p)
    assert d == sm.distance_dp(b, a, p)
    knots = np.concatenate([a.atoms, b.atoms])
    assert d >= np.max(np.abs(sm._dp_diff(a, b, p)(knots)))


def test_cp_constant_values():
    assert sm.cp_constant(1.0) == pytest.approx(4.0, rel=1e-12)
    assert sm.cp_constant(1e-9) == pytest.approx(math.pi, rel=1e-6)
    ps = np.linspace(0.1, 0.9, 9)
    vals = [sm.cp_constant(p) for p in ps]
    assert all(math.pi < v < 4.0 for v in vals)
    with pytest.raises(DomainError):
        sm.cp_constant(1.5)


def test_compdistdp_on_random_pairs():
    # d <= C_p d_p across random atom pairs
    rng = np.random.default_rng(31)
    for _ in range(100):
        a, b = random_measure(rng), random_measure(rng)
        p = float(rng.choice([0.25, 0.5, 0.75]))
        assert sm.distance_d(a, b) <= sm.cp_constant(p) * sm.distance_dp(a, b, p) + 1e-9


# ------------------------------------------------------- fractional integral


def frac_integral(sigma, alpha, t, side):
    """Fractional integral of order alpha+1 of an atomic measure (the paper's
    d_p representation; no product path reads it).

    side "+": (1/Gamma(alpha+1)) sum_{x_i <= t} w_i (t - x_i)^alpha;
    side "-": same with (x_i - t)^alpha over x_i >= t.
    """
    assert 0.0 < alpha < 1.0 and side in ("+", "-")
    if side == "+":
        mask = sigma.atoms <= t
        gaps = t - sigma.atoms[mask]
    else:
        mask = sigma.atoms >= t
        gaps = sigma.atoms[mask] - t
    return float(np.sum(sigma.weights[mask] * gaps**alpha) / math.gamma(alpha + 1.0))


def test_frac_integral_single_atom():
    d0 = dirac(0.0)
    for alpha in (0.25, 0.5, 0.75):
        assert frac_integral(d0, alpha, 1.0, "+") == pytest.approx(
            1.0 / math.gamma(alpha + 1.0)
        )
        assert frac_integral(d0, alpha, -1.0, "+") == 0.0
        assert frac_integral(d0, alpha, -1.0, "-") == pytest.approx(
            1.0 / math.gamma(alpha + 1.0)
        )


def test_frac_integral_integration_by_parts():
    rng = np.random.default_rng(37)
    for _ in range(25):
        a, b = random_measure(rng), random_measure(rng)
        alpha = float(rng.uniform(0.1, 0.9))
        lhs = sum(
            wb * frac_integral(a, alpha, tb, "+")
            for tb, wb in zip(b.atoms, b.weights)
        )
        rhs = sum(
            wa * frac_integral(b, alpha, xa, "-")
            for xa, wa in zip(a.atoms, a.weights)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
def test_stieltjes_kernel_as_fractional_integral(p):
    # 1/(z-x) equals the order-(p+1) fractional integral of
    # e^{i pi (p+1)} Gamma(p+2) (z-t)^{-(p+2)} for Im z >= 1
    pref = math.gamma(p + 2.0) * np.exp(1j * math.pi * (p + 1.0)) / math.gamma(p + 1.0)
    for z in (2.0j, 1.0 + 1.5j, -0.5 + 2.0j):
        for x in (-1.0, 0.0, 2.5):
            kernel = lambda t: (t - x) ** p * (z - t) ** (-(p + 2.0))
            re, _ = integrate.quad(lambda t: kernel(t).real, x, np.inf, limit=400)
            im, _ = integrate.quad(lambda t: kernel(t).imag, x, np.inf, limit=400)
            val = pref * (re + 1j * im)
            assert abs(val - 1.0 / (z - x)) < 1e-8


# ------------------------------------------------------------ free convolution


def damped_fixed_point(nu, z_nodes, tol=1e-12, max_iter=100_000):
    """Damped iteration G <- (1 - theta) G + theta g_nu(z - G), the oracle.

    Started at the semicircle transform; the damping is halved when the
    update oscillates.  Slow near the real axis, but independent of Newton.
    """
    z = np.atleast_1d(np.asarray(z_nodes, dtype=complex))
    g = np.asarray(sm.g_semicircle(z), dtype=complex).copy()
    theta = np.full(z.shape, 0.5)
    last_step = np.full(z.shape, np.inf)
    active = np.ones(z.shape, dtype=bool)
    for _ in range(max_iter):
        target = sm.stieltjes(nu, z[active] - g[active])
        step = np.abs(target - g[active])
        # halve the damping on oscillation, let it recover otherwise
        theta_act = theta[active]
        osc = step > 1.25 * last_step[active]
        theta_act[osc] *= 0.5
        theta_act[~osc] = np.minimum(0.5, theta_act[~osc] * 1.02)
        theta[active] = theta_act
        g[active] = (1.0 - theta_act) * g[active] + theta_act * target
        last_step[active] = step
        done = step < tol
        sub = np.where(active)[0]
        active[sub[done]] = False
        if not active.any():
            return g
    raise AssertionError("damped oracle did not converge")


def heavy_deformation(alpha=0.5, n=32):
    """A rate-search candidate: atoms n^(1/alpha) h_i with uniform weights."""
    h = np.concatenate([np.full(n // 2, 2.0), np.full(n // 2, -2.0)]) / n
    h = h + 0.1 * np.random.default_rng(11).normal(size=n) * (np.abs(h).max() + 0.1)
    return sm.Measure1D.from_atoms(n ** (1.0 / alpha) * h)


FREECONV_MEASURES = {
    "dirac": lambda: dirac(0.0),
    "atoms_pm2": lambda: sm.Measure1D(np.array([-2.0, 2.0]), np.array([0.5, 0.5])),
    "semicircle_2000": lambda: sm.semicircle_measure(2000),
    "spread_101": lambda: sm.Measure1D.from_atoms(np.linspace(-50.0, 50.0, 101)),
    "heavy_alpha_0_5": heavy_deformation,
}


@pytest.mark.parametrize("eta", [2.0, 0.1, 0.01, 1e-3])
@pytest.mark.parametrize("name", sorted(FREECONV_MEASURES))
def test_freeconv_newton_matches_damped_oracle(name, eta):
    nu = FREECONV_MEASURES[name]()
    z = np.linspace(nu.atoms.min() - 3.0, nu.atoms.max() + 3.0, 101) + 1j * eta
    g = sm.freeconv_transform(nu, z)
    assert np.max(np.abs(g - damped_fixed_point(nu, z))) < 1e-10
    assert fixed_point_residual(nu, z, g) <= 1e-12
    assert np.all(g.imag < 0)


def test_freeconv_safeguard_grid():
    # the CLI freeconv case: plain Newton leaves the lower half plane in its
    # second step here, so the damped safeguard has to take over
    nu = sm.Measure1D(np.array([-2.0, 2.0]), np.array([0.5, 0.5]))
    z = np.linspace(-6.0, 6.0, 2001) + 0.01j

    def newton(g):
        buffers = np.empty((2, z.size, nu.atoms.size), complex)
        target, slope = sm._stieltjes_rows(nu.atoms, nu.weights, z - g, *buffers, True)
        return g - (g - target) / (1.0 + slope)

    first = newton(sm.g_semicircle(z))
    assert np.all(first.imag < 0)
    assert np.any(newton(first).imag >= 0)
    g = sm.freeconv_transform(nu, z)
    assert np.max(np.abs(g - damped_fixed_point(nu, z))) < 1e-10
    assert fixed_point_residual(nu, z, g) <= 1e-12
    assert np.all(g.imag < 0)


def test_freeconv_newton_iteration_counts(monkeypatch):
    # one transform evaluation per Newton iteration; the damped iteration
    # took 38 on the contour and 213 at Im z = 0.01 for these solves
    calls = []
    plain = sm._stieltjes_rows

    def counted(*args, **kwargs):
        calls.append(1)
        return plain(*args, **kwargs)

    monkeypatch.setattr(sm, "_stieltjes_rows", counted)
    two = sm.Measure1D(np.array([-2.0, 2.0]), np.array([0.5, 0.5]))
    sm.freeconv_transform(two, sm.default_contour().nodes)
    assert 0 < len(calls) <= 5
    calls.clear()
    semicircle = sm.semicircle_measure(2000)
    sm.freeconv_transform(semicircle, np.linspace(-5.5, 5.5, 401) + 0.01j)
    assert 0 < len(calls) <= 10


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=50),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=1e-3, max_value=2.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_freeconv_residual_property(unit_atoms, log_spread, eta, seed):
    # up to 50 atoms spread over up to [-1e3, 1e3], any height in [1e-3, 2]
    gen = np.random.default_rng(seed)
    atoms = 10.0**log_spread * np.array(unit_atoms)
    w = gen.uniform(0.01, 1.0, size=atoms.size)
    nu = sm.Measure1D.from_atoms(atoms, w / w.sum())
    z = gen.uniform(atoms.min() - 3.0, atoms.max() + 3.0, size=16) + 1j * eta
    g = sm.freeconv_transform(nu, z)
    assert fixed_point_residual(nu, z, g) <= 1e-12
    assert np.all(g.imag < 0)


def candidate_rows(rng, n, count=24):
    """Rows as the criterion-11 search makes them: random entries, some
    repeated, some zero, and rows of one value, so the distinct-atom counts
    mix and the rows form groups."""
    rows = rng.normal(size=(count, n)) * 10.0 ** rng.uniform(-2.0, 1.0, size=(count, 1))
    for row in rows[: count // 2]:
        picks = rng.integers(n, size=rng.integers(1, n + 1))
        row[picks] = row[rng.integers(n)]
        row[rng.integers(n, size=rng.integers(0, n + 1))] = 0.0
    rows[-3] = 0.0
    rows[-2] = rows[-2, 0]
    return rows


def test_freeconv_rows_match_single_solves():
    # rows of one distinct-atom count share a Newton loop, yet each keeps
    # the bits of its own measure's solve, weights summed as from_atoms does
    # (k (1/n) is not that sum for n = 10 or 33)
    for n in (1, 10, 32, 33, 64):
        rng = np.random.default_rng(67 + n)
        z = np.concatenate([
            sm.default_contour().nodes,
            rng.uniform(-7.0, 7.0, size=24) + 1j * 10.0 ** rng.uniform(-3.0, math.log10(2.0), size=24),
        ])
        rows = candidate_rows(rng, n)
        if n > 1:
            assert len({np.unique(row).size for row in rows}) > 1
        # -0.0 before +0.0 and after it: both keep the zero the row holds first
        half = (n + 1) // 2
        rows[-1, :half], rows[-1, half:] = -0.0, 0.0
        rows[-4, :half], rows[-4, half:] = 0.0, -0.0
        for row, sign in ((rows[-1], True), (rows[-4], False)):
            zeros = sm.Measure1D.from_atoms(row).atoms
            assert zeros.tolist() == [0.0] and bool(np.signbit(zeros[0])) == sign
        got = sm._freeconv_rows(rows, z)
        for row, g in zip(rows, got):
            assert g.tobytes() == sm.freeconv_transform(sm.Measure1D.from_atoms(row), z).tobytes()
        # each node solves as it would alone, so rows solved at some of the
        # contour's nodes (the search's end-node screen, then the rest) carry
        # the full contour solve's bits there, whichever rows share the call
        ends = np.zeros(64, dtype=bool)
        ends[[0, -1]] = True
        interior = np.zeros(64, dtype=bool)
        interior[37] = True
        for at in (ends, interior, ~ends):
            assert sm._freeconv_rows(rows, z[:64][at]).tobytes() == got[:, :64][:, at].tobytes()
            assert sm._freeconv_rows(rows[1::3], z[:64][at]).tobytes() == got[1::3, :64][:, at].tobytes()


def test_freeconv_rows_keep_the_checks(monkeypatch):
    rows = candidate_rows(np.random.default_rng(71), 3, count=6)
    with pytest.raises(DomainError):
        sm._freeconv_rows(rows, np.array([1.0 + 1.0j, 0.5 + 0.0j]))
    for bad in (np.inf, np.nan):
        broken = rows.copy()
        broken[2, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            sm._freeconv_rows(broken, sm.default_contour().nodes)
    assert sm._freeconv_rows(np.empty((0, 3)), sm.default_contour().nodes).shape == (0, 64)
    monkeypatch.setattr(sm, "_NEWTON_ITERS", 1)
    with pytest.raises(ConvergenceError):
        sm._freeconv_rows(rows, np.linspace(-4.0, 4.0, 9) + 0.01j)


def test_freeconv_dirac_recovers_semicircle():
    nodes = sm.default_contour().nodes
    g = sm.freeconv_transform(dirac(0.0), nodes)
    assert np.max(np.abs(g - sm.g_semicircle(nodes))) < 1e-11
    # node arrays keep their shape
    grid = sm.freeconv_transform(dirac(0.0), nodes.reshape(8, 8))
    assert np.array_equal(grid, g.reshape(8, 8))
    assert sm.freeconv_transform(dirac(0.0), nodes[3]).shape == ()


def test_freeconv_fixed_point_residual():
    nu = sm.Measure1D(np.array([-2.0, 2.0]), np.array([0.5, 0.5]))
    grid = np.linspace(-6, 6, 241)
    g, dens = sm.free_conv_semicircle(nu, eta=1e-2, grid=grid)
    assert fixed_point_residual(nu, grid + 1e-2j, g) <= 1e-12
    assert np.all(dens >= -1e-15)
    total = np.trapezoid(dens, grid)
    assert total == pytest.approx(1.0, abs=0.05)  # Cauchy-smoothed mass


def test_freeconv_semicircle_sum_closed_form():
    # semicircle [+] semicircle is the radius-2 sqrt(2) semicircle
    nu = sm.semicircle_measure(2000)
    nodes = sm.default_contour().nodes
    g = sm.freeconv_transform(nu, nodes)
    target = (nodes - np.sqrt(nodes - 2.0 * math.sqrt(2.0)) * np.sqrt(nodes + 2.0 * math.sqrt(2.0))) / 4.0
    assert np.max(np.abs(g - target)) < 1e-6


def test_freeconv_grid_precondition():
    nu = dirac(0.0)
    with pytest.raises(DomainError):
        sm.free_conv_semicircle(nu, 0.01, np.linspace(-1, 1, 11))
    with pytest.raises(DomainError):
        sm.free_conv_semicircle(nu, 2.0, np.linspace(-4, 4, 11))


def test_semicircle_measure_transform_accuracy():
    disc = sm.semicircle_measure(2000)
    nodes = sm.default_contour().nodes
    err = np.max(np.abs(sm.stieltjes(disc, nodes) - sm.g_semicircle(nodes)))
    assert err < 1e-6
    assert disc.moment(2) == pytest.approx(1.0, abs=1e-3)

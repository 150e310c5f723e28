import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heavylab import measures, weights
from heavylab.errors import AccuracyError, DomainError

# The paper's two other weight families and its enlargement split.  No
# product path reads them; they are checked here as statements of the paper.

# the truncated family's fixed bound eps0: its eps lies in (0, eps0)
EPS0 = 0.25


def talagrand(lam):
    """The smooth Talagrand weight c_lam(t) = (1/lam - 1)(e^{-lam|t|} - 1 + lam|t|)."""
    if not 0.0 < lam < 1.0:
        raise DomainError(f"talagrand weight needs lam in (0,1), got {lam}")

    def w(t):
        t = np.abs(np.asarray(t, dtype=float))
        return (1.0 / lam - 1.0) * (np.exp(-lam * t) - 1.0 + lam * t)

    return w


def truncated(alpha, eps, m=1.0):
    """The truncated weight w_{alpha,eps}^{(m)}: quadratic up to m/eps, then
    (1 - eps^{(alpha/2) and 1}) |t|^alpha."""
    if not 0.0 < eps < EPS0:
        raise DomainError(f"truncated weight needs eps in (0,{EPS0})")
    if m < 1.0:
        raise DomainError(f"truncated weight needs m >= 1, got {m}")
    if alpha <= 0.0:
        raise DomainError(f"truncated weight needs alpha > 0, got {alpha}")
    cut = m / eps

    def w(t):
        t = np.abs(np.asarray(t, dtype=float))
        quad = t**2 * math.exp(-(cut ** (alpha / 2.0)))
        lin = (1.0 - eps ** min(alpha / 2.0, 1.0)) * t**alpha
        return np.where(t <= cut, quad, lin)

    return w


def split_enlargement(y, eps, m):
    """Split y into small and large coordinates at the threshold m/eps.

    Returns (y1, y2) with y = y1 + y2, disjoint supports, |y1| <= m/eps
    coordinate-wise and |y2| > m/eps on its support.  When the sum of the
    truncated weight (alpha, eps, m) over y is below
    r (1 - eps^{(alpha/2) and 1}), the parts satisfy
    ||y1||_2 <= k_m(eps) sqrt(r) and ||y2||_alpha^alpha <= r with
    k_m(eps) = `split_constant`.
    """
    y = np.asarray(y, dtype=float)
    small = np.abs(y) <= m / eps
    return np.where(small, y, 0.0), np.where(small, 0.0, y)


def split_constant(alpha, eps, m):
    """The Euclidean-part constant k_m(eps) = exp((m/eps)^{alpha/2} / 2) of the split."""
    return math.exp(0.5 * (m / eps) ** (alpha / 2.0))


def brute_inf_conv(f, w, grid, at=None):
    """min_j f_j + w(x - y_j) at the nodes x of ``at`` (all of ``grid`` by default).

    Each row w(x - grid) is evaluated on an array, as `inf_convolution` does:
    the weight evaluated one scalar at a time can differ from it by 1 ulp.
    """
    at = grid if at is None else at
    out = np.empty(len(at))
    for i, x in enumerate(at):
        row = w(x - grid)
        best = math.inf
        for j in range(len(grid)):
            val = f[j] + row[j]
            if val < best:
                best = val
        out[i] = best
    return out


@pytest.mark.parametrize(
    "w",
    [talagrand(0.3), weights.corexp(0.25), truncated(1.5, 0.1, m=2.0)],
)
def test_weight_even_zero_nonneg(w):
    t = np.linspace(-50, 50, 1001)
    vals = w(t)
    assert np.all(vals >= 0)
    assert w(0.0) == 0.0
    assert np.allclose(vals, w(-t))


def test_talagrand_closed_form_value():
    # (1/lam - 1)(exp(-lam|x|) - 1 + lam|x|) at lam=1/2, x=2
    assert float(talagrand(0.5)(2.0)) == pytest.approx(
        math.exp(-1.0), rel=1e-12
    )


def test_talagrand_convex_and_asymptotically_linear():
    lam = 0.3
    w = talagrand(lam)
    t = np.linspace(-40, 40, 2001)
    v = w(t)
    assert np.all(v[:-2] + v[2:] - 2 * v[1:-1] >= -1e-12)
    big = np.geomspace(1e3, 1e6, 7)
    ratios = w(big) / ((1 - lam) * big)
    assert np.allclose(ratios, 1.0, rtol=1e-2)


def test_corexp_branches():
    w = weights.corexp(0.25)
    # |t| > 2/delta^2 = 32 is the linear branch
    assert float(w(40.0)) == pytest.approx(20.0, rel=1e-12)
    d = 0.25
    assert float(w(10.0)) == pytest.approx(
        d * math.exp(-1 / d) * 100.0 / 8.0, rel=1e-12
    )


def test_truncated_branches():
    alpha, eps, m, kappa = 1.5, 0.1, 2.0, 1.0
    w = truncated(alpha, eps, m=m)
    cut = m / eps
    t = cut + 1.0
    expected = (1 - kappa * eps ** min(alpha / 2, 1.0)) * t**alpha
    assert float(w(t)) == pytest.approx(expected, rel=1e-12)
    inside = 0.5 * cut
    assert float(w(inside)) == pytest.approx(
        inside**2 * math.exp(-(cut ** (alpha / 2))) / kappa, rel=1e-12
    )


def test_weight_parameter_validation():
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(DomainError):
            talagrand(bad)
    for bad in (0.0, 0.5, math.nan):
        with pytest.raises(DomainError):
            weights.corexp(bad)
    with pytest.raises(DomainError):
        truncated(1.0, 0.3)  # eps beyond default eps0
    with pytest.raises(DomainError):
        truncated(1.0, 0.1, m=0.5)


def test_sum_weight_basics():
    w = weights.corexp(0.1)
    assert float(np.sum(w(np.zeros(7)))) == 0.0
    h = np.zeros(5)
    h[0] = 3.3
    assert float(np.sum(w(h))) == pytest.approx(float(w(3.3)))
    rngv = np.random.default_rng(0).normal(size=8)
    assert float(np.sum(w(rngv))) == pytest.approx(float(np.sum(w(rngv[::-1]))))


def test_sum_weight_truncated_branch_arithmetic():
    alpha, eps, m, kappa = 0.5, 0.05, 1.0, 1.0
    w = truncated(alpha, eps, m=m)
    t = m / eps + 1.0
    for k in (1, 3, 6):
        h = np.full(k, t)
        expected = k * (1 - kappa * eps ** min(alpha / 2, 1)) * t**alpha
        assert float(np.sum(w(h))) == pytest.approx(expected, rel=1e-12)


def test_inf_convolution_zero_and_identity():
    grid = np.linspace(-5, 5, 41)
    w = weights.corexp(0.25)
    zero = np.zeros_like(grid)
    assert np.allclose(weights.inf_convolution(zero, w, grid), 0.0)


def test_inf_convolution_upper_bound_and_monotone():
    grid = np.linspace(-8, 8, 101)
    w = weights.corexp(0.4)
    rng = np.random.default_rng(3)
    f = rng.uniform(0, 5, size=grid.size)
    g = f + rng.uniform(0, 1, size=grid.size)
    fw = weights.inf_convolution(f, w, grid)
    gw = weights.inf_convolution(g, w, grid)
    assert np.all(fw <= f + 1e-12)
    assert np.all(fw <= gw + 1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=41),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_inf_convolution_matches_brute_force(npts, seed):
    rng = np.random.default_rng(seed)
    grid = np.sort(rng.uniform(-10, 10, size=npts))
    grid = grid + 1e-9 * np.arange(npts)  # enforce strict increase
    f = rng.uniform(0, 6, size=npts)
    f[rng.random(npts) < 0.1] = np.inf
    w = weights.corexp(0.2)
    assert np.array_equal(
        weights.inf_convolution(f, w, grid), brute_inf_conv(f, w, grid)
    )


def test_inf_convolution_brute_force_201_nodes():
    grid = np.linspace(-12, 12, 201)
    rng = np.random.default_rng(11)
    f = rng.uniform(0, 4, size=201)
    w = weights.corexp(0.25)
    assert np.array_equal(
        weights.inf_convolution(f, w, grid), brute_inf_conv(f, w, grid)
    )


def test_inf_convolution_large_grid_with_inf_entries():
    # above 1600 nodes the weight rows are computed block by block; the
    # brute force runs on every 16th row and the rows around block ends
    grid = np.linspace(-30, 30, 1601)
    rng = np.random.default_rng(17)
    f = rng.uniform(0, 4, size=grid.size)
    f[rng.random(grid.size) < 0.2] = np.inf
    w = weights.corexp(0.25)
    rows = np.unique(np.r_[0 : grid.size : 16, 63, 64, 1535, 1536, 1599, 1600])
    fw = weights.inf_convolution(f, w, grid)
    assert np.array_equal(fw[rows], brute_inf_conv(f, w, grid, at=grid[rows]))


# a cached 1201-node table, where each 64-row block reads only the columns that
# can hold a row's minimum; the brute force runs on every 16th row and the
# rows around block ends
PRUNE_GRID = np.linspace(-30, 30, 1201)
PRUNE_ROWS = np.unique(np.r_[0:1201:16, 63, 64, 575, 576, 1151, 1152, 1200])


def _matches_brute_force_on_rows(f, w):
    fw = weights.inf_convolution(f, w, PRUNE_GRID)
    brute = brute_inf_conv(f, w, PRUNE_GRID, at=PRUNE_GRID[PRUNE_ROWS])
    return np.array_equal(fw[PRUNE_ROWS], brute)


@pytest.mark.parametrize("w", [weights.corexp(0.25)], ids=["w0"])
@pytest.mark.parametrize("special", [np.inf, -np.inf, np.nan])
def test_pruned_inf_convolution_with_non_finite_f(w, special):
    rng = np.random.default_rng(31)
    f = rng.uniform(0, 4, size=PRUNE_GRID.size)
    assert _matches_brute_force_on_rows(f, w)
    # +inf on a fifth of the nodes, a whole 64-column chunk included; one -inf
    # entry turns every row to -inf, and one NaN entry is rejected
    if special == np.inf:
        f[rng.random(f.size) < 0.2] = np.inf
        f[128:192] = np.inf
    else:
        f[700] = special
    if np.isnan(special):
        with pytest.raises(DomainError, match="without NaN"):
            weights.inf_convolution(f, w, PRUNE_GRID)
    else:
        assert _matches_brute_force_on_rows(f, w)


class TenfoldCorexp(weights.WeightFunction):
    """10 w_delta, the negative control's inflated weight."""

    def __call__(self, t):
        return 10.0 * super().__call__(t)


class CappedCorexp(weights.WeightFunction):
    """w_delta up to |t| = 25 and +inf beyond."""

    def __call__(self, t):
        return np.where(np.abs(t) > 25.0, np.inf, super().__call__(t))


def test_inf_convolution_rejects_other_weights():
    # the row read rests on a table equal to its transpose, which only a
    # WeightFunction guarantees; a table with an infinite entry is refused
    for grid in (PRUNE_GRID, np.linspace(-30, 30, 2401)):
        f = np.zeros_like(grid)
        with pytest.raises(DomainError, match="WeightFunction"):
            weights.inf_convolution(f, lambda t: np.abs(t), grid)
    with pytest.raises(DomainError, match="non-finite"):
        weights.inf_convolution(np.zeros_like(PRUNE_GRID), CappedCorexp(0.25), PRUNE_GRID)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
    st.sampled_from([1, 2, 63, 64, 65, 200]),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(delta=0.25, n=1201, uniform=True, seed=0)
@example(delta=5e-324, n=2, uniform=False, seed=0)  # delta^2 underflows to 0
def test_weight_tables_equal_their_transpose(delta, n, uniform, seed):
    # inf_convolution reads W[block, j] as W[j, block]: the entries must have
    # the same bits, with no -0.0 that a min could order differently
    rng = np.random.default_rng(seed)
    half = 10.0 ** rng.uniform(-2, 3)
    if uniform:
        grid = np.linspace(-half, half, n)
    else:
        grid = np.sort(rng.uniform(-half, half, n))
        grid = grid + 1e-9 * half * np.arange(n)  # enforce strict increase
    table, _ = weights._table_entry(weights.corexp(delta), grid.tobytes())
    assert table.tobytes() == table.T.tobytes()
    assert not np.signbit(table).any()


@settings(max_examples=12, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=100.0),
    st.floats(min_value=0.02, max_value=0.49),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pruned_inf_convolution_matches_brute_force(top, delta, seed):
    rng = np.random.default_rng(seed)
    knots = np.linspace(-30, 30, 8) + rng.uniform(-2, 2, size=8)
    smooth = np.interp(PRUNE_GRID, knots, rng.uniform(0, top, size=8))
    rough = rng.uniform(0, top, size=PRUNE_GRID.size)
    for f in (smooth, rough):
        assert _matches_brute_force_on_rows(f, weights.corexp(delta))


TABLE_WEIGHTS = [talagrand(0.4), weights.corexp(0.45), truncated(0.7, 0.2)]


def test_weight_table_blocks_equal_whole_table():
    # block ends at 64 rows; corexp switches branch at |t| = 9.9, truncated at 5
    rng = np.random.default_rng(29)
    for n in (1, 63, 64, 65, 1201):
        uniform = np.linspace(-30, 30, n)
        random = np.sort(rng.uniform(-30, 30, n)) + 1e-9 * np.arange(n)
        for grid in (uniform, random):
            for w in TABLE_WEIGHTS:
                weights._table_entry.cache_clear()
                table = weights._weight_table(w, grid)
                assert table.shape == (n, n)
                assert np.array_equal(table, w(grid[:, None] - grid[None, :]))
    weights._table_entry.cache_clear()


def test_weight_table_build_memory():
    # the whole-table expression peaked at 4-5 tables (56 MB for 11.5 MB)
    grid = np.linspace(-30, 30, 1201)
    for w in TABLE_WEIGHTS:
        weights._table_entry.cache_clear()
        tracemalloc.start()
        try:
            weights._weight_table(w, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * grid.size**2 * 8
    weights._table_entry.cache_clear()


def test_inf_convolution_rejects_bad_grid():
    w = weights.corexp(0.2)
    with pytest.raises(DomainError):
        weights.inf_convolution(np.zeros(0), w, np.zeros(0))
    with pytest.raises(DomainError):
        weights.inf_convolution(np.zeros(3), w, np.array([0.0, 0.0, 1.0]))
    # a NaN node fails every comparison, and an infinite node or a span past
    # the largest double would give NaN or zero rows
    for grid in ([0.0, math.nan, 1.0], [0.0, 1.0, math.inf], [-1e308, 1e308]):
        with pytest.raises(DomainError, match="finite span"):
            weights.inf_convolution(np.zeros(len(grid)), w, np.array(grid))


@pytest.mark.parametrize("delta", [0.2, 0.001])
def test_wide_finite_grid_raises_no_warning(delta):
    # past |t| of about 1.3e154 the quadratic branch, which np.where discards
    # there, overflows in t**2, and at delta = 0.001, where e^(-1/delta)
    # underflows, it is 0 * inf; under the RuntimeWarning filter either once
    # raised
    w = weights.corexp(delta)
    assert np.array_equal(weights.inf_convolution(np.zeros(2), w, np.array([0.0, 1e200])), np.zeros(2))
    assert float(w(-1e200)) == (1.0 - 2.0 * delta) * 1e200


@pytest.mark.parametrize("delta, t", [(1e-100, 1e200), (1e-78, 1e155)], ids=["1e-100", "1e-78"])
def test_corexp_is_zero_where_its_coefficient_underflows(delta, t):
    # delta e^(-1/delta) underflows to 0 while |t| lies inside the cut
    # 2 / delta^2 and t**2 overflows: the quadratic branch once read
    # 0 * inf = nan, and inf_convolution raised on the non-finite table
    w = weights.corexp(delta)
    assert t <= 2.0 / delta**2
    vals = w(np.array([-t, 0.0, t]))
    assert np.array_equal(vals, np.zeros(3)) and not np.signbit(vals).any()
    assert np.array_equal(weights.inf_convolution(np.zeros(2), w, np.array([0.0, t])), np.zeros(2))


def _simpson_grid(lo, hi, n=1201):
    return np.linspace(lo, hi, n)


def test_tau_product_zero_f_is_one():
    law = measures.nu(1.0)
    grid = _simpson_grid(-30, 30, 4801)
    w = weights.corexp(0.25)
    prod = weights.tau_product(law, w, np.zeros_like(grid), grid)
    assert prod == pytest.approx(1.0, abs=1e-9)


def test_tau_product_ramp_example():
    law = measures.nu(1.0)
    grid = _simpson_grid(-30, 30, 2401)
    f = np.maximum(0.0, grid - 1.0)
    prod = weights.tau_product(law, weights.corexp(0.25), f, grid)
    assert prod <= 1.0 + 1e-6


def test_tau_product_negative_control_recorded():
    # inflated weight 10*w may push the product above 1; recorded, not asserted
    law = measures.nu(1.0)
    grid = _simpson_grid(-30, 30, 2401)
    f = np.maximum(0.0, grid - 1.0)
    prod = weights.tau_product(law, TenfoldCorexp(0.25), f, grid)
    print(f"negative-control tau product: {prod}")
    assert prod > 0.0


def test_tau_product_mass_deficit_raises():
    law = measures.nu(1.0)
    grid = _simpson_grid(-2, 2, 101)
    with pytest.raises(AccuracyError):
        weights.tau_product(law, weights.corexp(0.25), np.zeros_like(grid), grid)


def test_tau_product_rejects_negative_f():
    law = measures.nu(1.0)
    grid = _simpson_grid(-30, 30, 301)
    with pytest.raises(DomainError):
        weights.tau_product(law, weights.corexp(0.25), np.full_like(grid, -1.0), grid)


def test_tau_product_checks_hold_on_every_call():
    # the Simpson weights are cached per law and grid; a grid that fails a
    # check is not, so it fails again, and f is checked on each call
    law, w = measures.nu(1.0), weights.corexp(0.25)
    uneven = np.concatenate([np.linspace(-30, 0, 600, endpoint=False), np.linspace(0, 30, 401)])
    short = _simpson_grid(-2, 2, 101)
    coarse = np.array([-30.0, 0.0, 30.0])  # weights sum to 20: f = 0 would read 400
    grid = _simpson_grid(-30, 30, 1201)
    zero = np.zeros_like(grid)
    one_nan = zero.copy()
    one_nan[600] = math.nan
    weights._quadrature.cache_clear()
    cold = {law: weights.tau_product(law, w, zero, grid)}
    for _ in range(2):
        with pytest.raises(DomainError, match="uniform Simpson grid"):
            weights.tau_product(law, w, np.zeros_like(uneven), uneven)
        with pytest.raises(AccuracyError):
            weights.tau_product(law, w, np.zeros_like(short), short)
        with pytest.raises(AccuracyError, match="sum to 20"):
            weights.tau_product(law, w, np.zeros_like(coarse), coarse)
        with pytest.raises(DomainError, match="non-negative f"):
            weights.tau_product(law, w, np.full_like(grid, -1.0), grid)
        with pytest.raises(DomainError, match="non-negative f"):
            weights.tau_product(law, w, one_nan, grid)
        for tiny in (np.zeros(0), np.zeros(1)):
            with pytest.raises(DomainError, match="at least 3 nodes"):
                weights.tau_product(law, w, np.zeros_like(tiny), tiny)
        assert weights.tau_product(law, w, zero, grid) == cold[law]
    # another law on the same grid reads its own density
    other = measures.nu(2.0)
    cold[other] = weights.tau_product(other, w, zero, grid)
    assert cold[other] != cold[law]
    weights._quadrature.cache_clear()
    assert weights.tau_product(other, w, zero, grid) == cold[other]
    # too much mass fails as too little does: the one-sided density jumps at
    # 0, a node of this grid, and Simpson's rule gives it a mass of 1.0167
    with pytest.raises(AccuracyError, match="sum to 1.01"):
        weights.tau_product(measures.mu(1.0), w, zero, grid)


def test_tau_product_equals_explicit_simpson_sum():
    # on the 1201-node corpus grid; every other f lies near 700, so f [] w
    # passes 700 at some nodes and exp(f [] w) is clipped there
    law = measures.nu(1.0)
    grid = _simpson_grid(-30, 30, 1201)
    h = grid[1] - grid[0]
    simpson = np.ones(grid.size)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    mass = simpson * (h / 3.0) * law.density(grid)
    w = weights.corexp(0.25)
    rng = np.random.default_rng(2027)
    clipped = 0
    for k in range(20):
        f = rng.uniform(0, 4, size=grid.size) + (rng.uniform(690, 710) if k % 2 else 0.0)
        fw = weights.inf_convolution(f, w, grid)
        clipped += int(np.sum(fw > 700.0))
        left = float(np.sum(mass * np.exp(np.minimum(fw, 700.0))))
        right = float(np.sum(mass * np.exp(-f)))
        assert weights.tau_product(law, w, f, grid) == left * right
    assert clipped > 0


def test_corexp_dominated_by_talagrand_comparison():
    # w_delta <= 2 c_delta(./2) on a dense grid, for delta in (0, 1/2)
    t = np.linspace(-500, 500, 20001)
    for delta in (0.05, 0.1, 0.25, 0.4, 0.45):
        wd = weights.corexp(delta)(t)
        cd = 2.0 * talagrand(delta)(t / 2.0)
        assert np.all(wd <= cd + 1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("m", [1.0, 4.0])
@pytest.mark.parametrize("eps", [0.05, 0.2])
def test_split_enlargement_postconditions(alpha, m, eps):
    kappa = 1.0
    rng = np.random.default_rng(int(alpha * 10 + m * 100 + eps * 1000))
    w = truncated(alpha, eps, m=m)
    km = split_constant(alpha, eps, m)
    for _ in range(125):  # 8 parameter combinations x 125 = 1000 inputs
        y = rng.standard_cauchy(100) * rng.uniform(0.1, 30)
        y1, y2 = split_enlargement(y, eps, m)
        assert np.allclose(y1 + y2, y)
        assert np.all(y1 * y2 == 0.0)
        assert np.all(np.abs(y1) <= m / eps)
        assert np.all((y2 == 0) | (np.abs(y2) > m / eps))
        total = float(np.sum(w(y)))
        slack = 1.0 - kappa * eps ** min(alpha / 2.0, 1.0)
        r = total / slack + 1e-12
        assert np.linalg.norm(y1) <= km * math.sqrt(r) + 1e-9
        assert np.sum(np.abs(y2) ** alpha) <= r + 1e-9


def test_split_enlargement_trivial_cases():
    y_small = np.array([0.1, -0.2, 0.05])
    y1, y2 = split_enlargement(y_small, 0.2, 1.0)
    assert np.array_equal(y1, y_small) and not y2.any()
    y_big = np.array([100.0, -200.0])
    y1, y2 = split_enlargement(y_big, 0.2, 1.0)
    assert np.array_equal(y2, y_big) and not y1.any()


def test_tau_property_corpus_nu1():
    # 200 random non-negative tabulated f against w_delta for three deltas
    law = measures.nu(1.0)
    grid = _simpson_grid(-30, 30, 1201)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for delta in (0.1, 0.25, 0.4):
        w = weights.corexp(delta)
        for _ in range(200):
            knots = np.linspace(-30, 30, 8) + rng.uniform(-2, 2, size=8)
            vals = rng.uniform(0, 4, size=8)
            f = np.interp(grid, knots, vals)
            prod = weights.tau_product(law, w, f, grid)
            worst = max(worst, prod)
            assert prod <= 1.0 + 1e-6
    print(f"worst tau product over corpus: {worst}")

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavylab import measures, weights
from heavylab.errors import AccuracyError, DomainError


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
    [weights.talagrand(0.3), weights.corexp(0.25), weights.truncated(1.5, 0.1, m=2.0)],
)
def test_weight_even_zero_nonneg(w):
    t = np.linspace(-50, 50, 1001)
    vals = w(t)
    assert np.all(vals >= 0)
    assert w(0.0) == 0.0
    assert np.allclose(vals, w(-t))


def test_talagrand_closed_form_value():
    # (1/lam - 1)(exp(-lam|x|) - 1 + lam|x|) at lam=1/2, x=2
    assert float(weights.talagrand(0.5)(2.0)) == pytest.approx(
        math.exp(-1.0), rel=1e-12
    )


def test_talagrand_convex_and_asymptotically_linear():
    lam = 0.3
    w = weights.talagrand(lam)
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
    w = weights.truncated(alpha, eps, m=m, kappa=kappa)
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
            weights.talagrand(bad)
    with pytest.raises(DomainError):
        weights.corexp(0.5)
    with pytest.raises(DomainError):
        weights.truncated(1.0, 0.3)  # eps beyond default eps0
    with pytest.raises(DomainError):
        weights.truncated(1.0, 0.1, m=0.5)
    with pytest.raises(DomainError):
        weights.WeightFunction("mystery")


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
    w = weights.truncated(alpha, eps, m=m, kappa=kappa)
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
    # indicator-style weight (0 at 0, +inf elsewhere) acts as identity
    delta_w = lambda t: np.where(np.abs(t) < 1e-12, 0.0, np.inf)
    f = np.abs(grid) ** 1.3
    assert np.array_equal(weights.inf_convolution(f, delta_w, grid), f)


def test_inf_convolution_upper_bound_and_monotone():
    grid = np.linspace(-8, 8, 101)
    w = weights.talagrand(0.4)
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
    w = weights.talagrand(0.25)
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


def test_inf_convolution_rejects_bad_grid():
    w = weights.corexp(0.2)
    with pytest.raises(DomainError):
        weights.inf_convolution(np.zeros(0), w, np.zeros(0))
    with pytest.raises(DomainError):
        weights.inf_convolution(np.zeros(3), w, np.array([0.0, 0.0, 1.0]))


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
    inflated = lambda t: 10.0 * weights.corexp(0.25)(t)
    prod = weights.tau_product(law, inflated, f, grid)
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


def test_tau_product_tensor_dim2():
    law = measures.nu(1.0)
    grid = _simpson_grid(-30, 30, 121)
    rng = np.random.default_rng(5)
    f = rng.uniform(0, 2, size=(grid.size, grid.size))
    prod = weights.tau_product(law, weights.corexp(0.25), f, grid, dim=2)
    assert prod <= 1.0 + 1e-6


def test_corexp_dominated_by_talagrand_comparison():
    # w_delta <= 2 c_delta(./2) on a dense grid, for delta in (0, 1/2)
    t = np.linspace(-500, 500, 20001)
    for delta in (0.05, 0.1, 0.25, 0.4, 0.45):
        wd = weights.corexp(delta)(t)
        cd = 2.0 * weights.talagrand(delta)(t / 2.0)
        assert np.all(wd <= cd + 1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("m", [1.0, 4.0])
@pytest.mark.parametrize("eps", [0.05, 0.2])
def test_split_enlargement_postconditions(alpha, m, eps):
    kappa = 1.0
    rng = np.random.default_rng(int(alpha * 10 + m * 100 + eps * 1000))
    w = weights.truncated(alpha, eps, m=m, kappa=kappa)
    km = weights.split_constant(alpha, eps, m, kappa)
    for _ in range(125):  # 8 parameter combinations x 125 = 1000 inputs
        y = rng.standard_cauchy(100) * rng.uniform(0.1, 30)
        y1, y2 = weights.split_enlargement(y, eps, m)
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
    y1, y2 = weights.split_enlargement(y_small, 0.2, 1.0)
    assert np.array_equal(y1, y_small) and not y2.any()
    y_big = np.array([100.0, -200.0])
    y1, y2 = weights.split_enlargement(y_big, 0.2, 1.0)
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

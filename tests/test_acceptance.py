"""Acceptance suite: one test per criterion, one pass/fail line each.

Run as  pytest tests/test_acceptance.py -v -s  to see the checklist.
Criterion 12's trend clause is a known-red diagnostic at desk scale; see
the README for the analysis summary.
"""

import math
import time
from itertools import product

import numpy as np
import pytest
from scipy.stats import ks_2samp

from heavylab import experiments as ex
from heavylab import freeprob as fp
from heavylab import lpp
from heavylab import matrixlab as ml
from heavylab import measures
from heavylab import ratefuncs as rf
from heavylab import specmeasures as sm
from heavylab import weights

from oracles import additive_g, all_pairings_count


def report(k: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {k:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_free_convolution_identity():
    t0 = time.perf_counter()
    nu = sm.semicircle_measure(2000)
    nodes = sm.default_contour().nodes
    g = sm.freeconv_transform(nu, nodes)
    root8 = np.sqrt(nodes - 2.0 * math.sqrt(2.0)) * np.sqrt(nodes + 2.0 * math.sqrt(2.0))
    target = (nodes - root8) / 4.0
    err = float(np.max(np.abs(g - target)))
    elapsed = time.perf_counter() - t0
    ok = err < 1e-6 and elapsed < 10.0
    report(1, ok, f"semicircle doubling err={err:.2e} runtime={elapsed:.2f}s")
    assert err < 1e-6
    assert elapsed < 10.0


def test_criterion_02_inverse_stieltjes_identity():
    ts = np.linspace(0.01, 1.0, 100)
    errs = [abs(complex(sm.g_semicircle(ml.rho(1.0 / t))) - t) for t in ts]
    worst = max(errs)
    ok = worst < 1e-12
    report(2, ok, f"max |g(rho(1/t)) - t| = {worst:.2e} over 100 points")
    assert worst < 1e-12


def test_criterion_03_spectral_variation_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    lidskii_bad = rotfeld_bad = stieltjes_bad = 0
    for _ in range(500):
        n = int(rng.integers(2, 33))
        a = ml.HermitianMatrix(rng.normal(size=(n, n)))
        b = ml.HermitianMatrix(rng.normal(size=(n, n)))
        diff = ml.HermitianMatrix(a.mat - b.mat)
        mu_a, mu_b = a.esm(), b.esm()
        for p in (1.0, 1.5, 2.0):
            if sm.wasserstein_p(mu_a, mu_b, p) > diff.lp_norm(p) / n ** (1.0 / p) + 1e-9:
                lidskii_bad += 1
        la, lb, ld = a.spectrum(), b.spectrum(), diff.spectrum()
        ts = np.linspace(-3 * math.sqrt(n), 3 * math.sqrt(n), 20)
        d_ab = sm.distance_d(mu_a, mu_b)
        for p in (0.25, 0.5, 0.75):
            rhs = float(np.sum(np.abs(ld) ** p))
            lhs = np.abs(
                np.sum(np.maximum(ts[:, None] - la[None, :], 0.0) ** p, axis=1)
                - np.sum(np.maximum(ts[:, None] - lb[None, :], 0.0) ** p, axis=1)
            )
            if np.any(lhs > rhs + 1e-9):
                rotfeld_bad += 1
            if d_ab > sm.cp_constant(p) * diff.lp_norm(p) ** p / n + 1e-9:
                stieltjes_bad += 1
    elapsed = time.perf_counter() - t0
    ok = lidskii_bad == rotfeld_bad == stieltjes_bad == 0 and elapsed < 60.0
    report(
        3,
        ok,
        f"violations lidskii={lidskii_bad} rotfeld={rotfeld_bad} "
        f"transform={stieltjes_bad} runtime={elapsed:.1f}s",
    )
    assert lidskii_bad == 0 and rotfeld_bad == 0 and stieltjes_bad == 0
    assert elapsed < 60.0


def test_criterion_04_tau_property_product():
    law = measures.nu(1.0)
    grid = np.linspace(-30, 30, 1201)
    rng = np.random.default_rng(777)
    worst = 0.0
    for delta in (0.1, 0.25, 0.4):
        w = weights.corexp(delta)
        for _ in range(200):
            knots = np.linspace(-30, 30, 8) + rng.uniform(-2, 2, size=8)
            f = np.interp(grid, knots, rng.uniform(0, 4, size=8))
            worst = max(worst, weights.tau_product(law, w, f, grid))
    ok = worst <= 1.0 + 1e-6
    report(4, ok, f"worst tau product over 600 runs = {worst:.8f}")
    assert worst <= 1.0 + 1e-6


def test_criterion_05_transport_pushforward_ks():
    worst_p = 1.0
    for alpha in (0.5, 1.0, 1.5, 2.0):
        law = measures.mu(alpha)
        transported = measures.sample(law, 10**4, seed=11, stream=0)
        direct = measures.sample_inverse_cdf(law, 10**4, seed=11, stream=1)
        pval = ks_2samp(transported, direct).pvalue
        worst_p = min(worst_p, pval)
    ok = worst_p > 0.001
    report(5, ok, f"min two-sample KS p-value = {worst_p:.4f} (level 0.001)")
    assert worst_p > 0.001


def test_criterion_06_wigner_limits_desk_scale():
    n, reps = 400, 50
    ens = ml.unit_variance_ensemble(1.0)
    ref = sm.semicircle_measure(2000)
    dists, tops = [], []
    for stream in range(reps):
        x = ml.sample_wigner(ens, n, seed=606, stream=stream)
        x = ml.HermitianMatrix(x.mat * (1.0 / math.sqrt(n)))
        dists.append(sm.distance_d(x.esm(), ref))
        tops.append(x.largest_eig())
    mean_d, mean_top = float(np.mean(dists)), float(np.mean(tops))
    ok = mean_d < 0.05 and 1.85 <= mean_top <= 2.15
    report(6, ok, f"mean d(ESM, sc)={mean_d:.4f}, mean top eig={mean_top:.3f}")
    assert mean_d < 0.05
    assert 1.85 <= mean_top <= 2.15


def test_criterion_07_bbp_equivalent():
    n, reps, theta = 1000, 50, 2.0
    ens = ml.unit_variance_ensemble(1.0)
    spike = ml.spike_matrix(n, theta)
    errs = []
    for stream in range(reps):
        x = ml.sample_wigner(ens, n, seed=707, stream=stream)
        top = ml.HermitianMatrix(x.mat / math.sqrt(n) + spike.mat).largest_eig()
        errs.append(abs(top - ml.rho(theta)))
    mean_err = float(np.mean(errs))
    ok = mean_err < 0.1
    report(7, ok, f"mean |top - rho(2)| = {mean_err:.4f} at n=1000")
    assert mean_err < 0.1


def test_criterion_08_polynomial_equivalent():
    n, reps = 500, 20
    ens = ml.unit_variance_ensemble(1.0)
    cubic = fp.NCPolynomial.word_power(1, 3)
    quartic = fp.NCPolynomial.word_power(1, 4)
    spike = ml.spike_matrix(n, 1.0)
    cubic_vals, quartic_vals = [], []
    for stream in range(reps):
        x = ml.sample_wigner(ens, n, seed=808, stream=stream)
        w = x.mat / math.sqrt(n)
        y = ml.HermitianMatrix(w + n ** (1.0 / 3.0) * spike.mat)
        cubic_vals.append(fp.eval_trace(cubic, (y,), normalize=True))
        quartic_vals.append(fp.eval_trace(quartic, (ml.HermitianMatrix(w),), normalize=True))
    cubic_err = abs(float(np.mean(cubic_vals)) - 1.0)
    quartic_err = abs(float(np.mean(quartic_vals)) - 2.0)
    ok = cubic_err < 0.1 and quartic_err < 0.05
    report(8, ok, f"|mean tau3 - 1|={cubic_err:.4f}, |mean tau4 - 2|={quartic_err:.4f}")
    assert cubic_err < 0.1
    assert quartic_err < 0.05


def test_criterion_09_free_moments():
    catalan = [1, 1, 2, 5, 14, 42]
    exact = all(
        fp.tau_semicircular(fp.NCPolynomial.word_power(1, 2 * k)) == catalan[k]
        for k in range(6)
    )
    alternating = fp.tau_semicircular(fp.NCPolynomial(((1.0, (1, 2, 1, 2)),), 2)) == 0.0
    oracle_ok = True
    for length in range(0, 11):
        for word in product((1, 2), repeat=length):
            if fp._nc_pairings(word) != all_pairings_count(word):
                oracle_ok = False
                break
    ok = exact and alternating and oracle_ok
    report(9, ok, f"catalan={exact}, alternating-zero={alternating}, oracle={oracle_ok}")
    assert exact and alternating and oracle_ok


def test_criterion_10_lpp_oracles():
    rng = np.random.default_rng(1010)

    def brute(field, end):
        return max(
            sum(field.values[v] for v in path)
            for path in lpp.enumerate_paths((0, 0), end)
        )

    dp_ok = True
    for trial in range(100):
        n = int(rng.integers(1, 5))
        f = lpp.WeightField(n, rng.normal(size=(n + 1, n + 1)))
        if not math.isclose(lpp.last_passage(f, (0, 0), (n, n)), brute(f, (n, n)), abs_tol=1e-10):
            dp_ok = False
    det_ok = True
    from test_lpp import brute_force_det_equiv

    for trial in range(100):
        vals = rng.normal(size=(4, 4))
        h = lpp.WeightField(3, vals)
        mine = lpp.deterministic_equivalent_T(h, additive_g)
        if not math.isclose(mine, brute_force_det_equiv(h, additive_g, 3), abs_tol=1e-10):
            det_ok = False
    zero = lpp.WeightField(5, np.zeros((6, 6)))
    zero_ok = abs(lpp.deterministic_equivalent_T(zero, additive_g) - 2.0) < 1e-12
    ok = dp_ok and det_ok and zero_ok
    report(10, ok, f"dp-oracle={dp_ok}, chain-oracle={det_ok}, zero-field exact={zero_ok}")
    assert dp_ok and det_ok and zero_ok


def test_criterion_11_rate_function_ledger():
    edge = rf.rate_J(2.0, 1.0, 1.0) == 0.0
    below = all(rf.rate_J(x, 1.0, 1.0) == math.inf for x in (1.999, 0.0, -5.0))

    spike = np.zeros((5, 5))
    spike[4, 4] = 2.7
    h = lpp.WeightField(4, spike)
    slack = lpp.rate_L_consistency(h, additive_g, alpha=0.5)
    slack_ok = abs(slack) < 1e-12

    alpha, theta, n = 1.0, 2.0, 32
    ens = ml.WignerEnsemble(alpha, b=1.0, a1=2.0)
    nu = sm.Measure1D(np.array([-theta, theta]), np.array([0.5, 0.5]))
    target = sm.freeconv_transform(nu, sm.default_contour().nodes)
    init = np.concatenate([np.full(n // 2, theta), np.full(n // 2, -theta)]) / n
    est = rf.rate_I_variational(
        target, alpha, ens, n=n, delta=0.01, restarts=50, iters=120, init=init
    )
    closed = min(1.0, 2.0 / 2.0) * theta**alpha
    var_ok = abs(est - closed) <= 0.1 * closed
    ok = edge and below and slack_ok and var_ok
    report(
        11,
        ok,
        f"J-edge={edge}, J-below={below}, spike-slack={slack:.1e}, "
        f"variational={est:.3f} vs {closed:.1f}",
    )
    assert edge and below and slack_ok
    assert var_ok


def test_criterion_12_lpp_tail_trend():
    t0 = time.perf_counter()
    n_list = (10, 20, 40)
    # limit reference from the stable five-size extrapolation; shorter fits
    # carry ~2 units of seed spread, enough to flip the trend clause
    g_hat, diag = ex.estimate_g_limit(
        0.5, n_list + (80, 160), replicas=3000, seed=1003 + 1
    )
    config = ex.ExperimentConfig(
        functional="lpp_time", alpha=0.5, n_list=n_list, replicas=12000, seed=1003
    )
    rows = ex.tail_rate(config, g_hat + 1.0)
    ests = {n: est for n, _, est, _, _, _ in rows}
    elapsed = time.perf_counter() - t0
    in_band = all(0.5 <= ests[n] <= 2.0 for n in n_list)
    trend = abs(ests[40] - 1.0) < abs(ests[10] - 1.0)
    ok = in_band and trend and elapsed < 600.0
    report(
        12,
        ok,
        f"g_hat={g_hat:.2f}, estimates={ {n: round(e, 3) for n, e in ests.items()} }, "
        f"in-band={in_band}, trend={trend}, runtime={elapsed:.0f}s "
        f"(trend clause is a known desk-scale defect; see README)",
    )
    assert elapsed < 600.0
    assert in_band
    # known-red clause: the n=10 estimate sits near 1 through cancellation
    # of superadditivity bias against the union-bound prefactor
    assert trend


def test_criterion_13_determinism():
    out1 = ex.run_preset("eig-concentration-small")
    out2 = ex.run_preset("eig-concentration-small")
    preset_ok = out1 == out2
    curve1 = ex.run_preset("esm-error-curve")
    curve2 = ex.run_preset("esm-error-curve")
    curve_ok = curve1 == curve2
    ok = preset_ok and curve_ok
    report(13, ok, f"preset reruns byte-identical: audit={preset_ok}, curve={curve_ok}")
    assert preset_ok and curve_ok

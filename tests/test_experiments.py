import json
import math

import numpy as np
import pytest

from heavylab import experiments as ex
from heavylab.errors import DomainError


def small_config(**kw):
    base = dict(
        functional="largest_eig",
        alpha=1.0,
        n_list=(40,),
        replicas=150,
        seed=7,
        t_grid=(0.1, 0.25, 0.5, 1.0),
    )
    base.update(kw)
    return ex.ExperimentConfig(**base)


def test_speed_table():
    assert ex.speed("esm_distance", 1.0, 100) == pytest.approx(100.0**1.5)
    assert ex.speed("largest_eig", 0.5, 100) == pytest.approx(100.0**0.25)
    assert ex.speed("trace_poly", 1.0, 100, d=4) == pytest.approx(100.0**0.75)
    assert ex.speed("lpp_time", 0.5, 100) == pytest.approx(10.0)
    with pytest.raises(DomainError):
        ex.speed("trace_poly", 1.0, 100)
    with pytest.raises(DomainError):
        ex.speed("mystery", 1.0, 100)


def test_config_validation_and_hash():
    with pytest.raises(DomainError):
        small_config(functional="nope")
    with pytest.raises(DomainError):
        small_config(replicas=50, assertable=True)
    with pytest.raises(DomainError):
        small_config(t_grid=(0.5, 0.25))
    a, b = small_config(), small_config()
    assert a.config_hash() == b.config_hash()
    assert small_config(seed=8).config_hash() != a.config_hash()


def test_concentration_audit_largest_eig():
    rows, c_hat = ex.concentration_audit(small_config())
    ts = [r[0] for r in rows]
    exceed = [r[1] for r in rows]
    assert all(e1 >= e2 for e1, e2 in zip(exceed, exceed[1:]))  # non-increasing
    assert 0.0 < c_hat < math.inf
    # fitted bound dominates every observed exceedance
    for t, e, bound in rows:
        assert e <= bound + 1e-12
    # far beyond the observed range nothing exceeds
    far_rows, _ = ex.concentration_audit(small_config(t_grid=(25.0, 50.0)))
    assert all(r[1] == 0.0 for r in far_rows)


def test_concentration_audit_esm_distance():
    cfg = small_config(
        functional="esm_distance", t_grid=(0.005, 0.02, 0.08, 0.3), replicas=120
    )
    rows, c_hat = ex.concentration_audit(cfg)
    exceed = [r[1] for r in rows]
    assert all(e1 >= e2 for e1, e2 in zip(exceed, exceed[1:]))
    assert c_hat > 0


def test_concentration_audit_deterministic():
    cfg = small_config(replicas=120)
    assert ex.concentration_audit(cfg) == ex.concentration_audit(cfg)


def test_replica_doubling_shrinks_stderr():
    cfg_small = small_config(functional="esm_distance", replicas=100, n_list=(30,))
    cfg_big = small_config(functional="esm_distance", replicas=400, n_list=(30,))
    small = ex.equivalent_error_curve("esm", cfg_small, spike=0.0)
    big = ex.equivalent_error_curve("esm", cfg_big, spike=0.0)
    assert big[0][2] < small[0][2]  # stderr shrinks with replicas (loose)


def test_error_curve_esm_decreasing():
    cfg = small_config(functional="esm_distance", n_list=(25, 50, 100), replicas=100)
    rows = ex.equivalent_error_curve("esm", cfg, spike=0.0)
    assert rows[-1][1] < rows[0][1]
    assert rows[-1][1] < 0.05  # n=100 already well under the desk tolerance


def test_error_curve_eig_bbp():
    cfg = small_config(n_list=(100, 300), replicas=60)
    rows = ex.equivalent_error_curve("eig", cfg, spike=2.0)
    assert rows[-1][1] < rows[0][1]
    assert rows[-1][1] < 0.1


def test_error_curve_poly():
    cfg = small_config(functional="trace_poly", n_list=(50, 150), replicas=60, d=3)
    rows = ex.equivalent_error_curve("poly", cfg, spike=1.0)
    assert rows[-1][1] < rows[0][1]


def test_error_curve_lpp():
    from heavylab import lpp

    cfg = small_config(
        functional="lpp_time", alpha=0.5, n_list=(10, 30), replicas=100
    )
    shape = lpp.CachedShape(0.5, 2, n_mc=30, replicas=150, seed=99, grid_points=5)
    rows = ex.equivalent_error_curve("lpp", cfg, spike=3.0, g_eval=shape)
    assert rows[-1][1] < rows[0][1]


def test_tail_rate_low_threshold_near_zero():
    cfg = small_config(functional="lpp_time", alpha=0.5, n_list=(10, 20), replicas=400)
    rows = ex.tail_rate(cfg, x=1.0)  # far below typical: p ~ 1, rate ~ 0
    for n, p, est, lo, hi, hits in rows:
        assert p > 0.9
        assert est < 0.05


def test_tail_rate_zero_hits_reports_bound():
    cfg = small_config(functional="lpp_time", alpha=0.5, n_list=(10,), replicas=200)
    rows = ex.tail_rate(cfg, x=1e9)
    n, p, est, lo, hi, hits = rows[0]
    assert hits == 0 and p == 0.0
    assert est == math.inf and math.isfinite(lo)


def test_estimate_g_limit_exceeds_finite_means():
    g_hat, diag = ex.estimate_g_limit(0.5, (8, 16, 32), replicas=300, seed=5)
    assert g_hat > max(diag["means"])
    assert 0.0 < diag["gamma"] < 1.5
    # these means' increments grow, so there is no interior optimum
    assert diag["gamma_at_grid_end"] is True


def test_power_fit_is_stationary():
    # the least-squares optimum itself, not an optimizer's stopping point:
    # every Jacobian column is orthogonal to the residual to rounding
    n = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
    means = 33.3 - 18.9 * n**-0.34 + np.array([0.01, -0.02, 0.015, -0.01, 0.005])
    g, c, gamma, at_grid_end = ex._power_fit(n, means)
    assert at_grid_end is False
    r = means - (g - c * n**-gamma)
    jac = np.column_stack([np.ones_like(n), -(n**-gamma), c * n**-gamma * np.log(n)])
    cosines = jac.T @ r / (np.linalg.norm(jac, axis=0) * np.linalg.norm(r))
    assert np.all(np.abs(cosines) < 1e-10)


def test_lp_ball_sampler_inside_ball():
    for p in (0.5, 1.0, 2.0):
        pts = ex.sample_lp_ball(p, 16, 200, seed=3)
        norms = np.sum(np.abs(pts) ** p, axis=1)
        assert np.all(norms <= 1.0 + 1e-9)
        assert norms.mean() > 0.1  # not collapsed at the origin


def test_greedy_net_trivial_and_nesting():
    assert len(ex.greedy_net_centers(0.5, 2.0, eps=10.0, m=16, trials=50, seed=11)) == 1
    profile = ex.greedy_net_profile(0.5, 2.0, (1.0, 0.5, 0.25), m=16, trials=40, seed=11)
    sizes = {eps: s for eps, s in profile}
    assert sizes[1.0] <= sizes[0.5] <= sizes[0.25]


def test_greedy_net_slope_positive():
    eps_grid = (0.3, 0.5, 0.7, 0.9)
    profile = ex.greedy_net_profile(0.5, 2.0, eps_grid, m=16, trials=120, seed=13)
    xs = np.array([eps ** (1 / 2.0 - 1 / 0.5) for eps, _ in profile])
    ys = np.log([max(s, 1) for _, s in profile])
    slope = np.polyfit(xs, ys, 1)[0]
    assert 0.0 < slope < math.inf


def test_emission_headers_and_determinism():
    cfg = small_config(replicas=120)
    text = ex.emit_jsonl(cfg, [{"value": 1.5}])
    lines = text.strip().splitlines()
    head = json.loads(lines[0])
    assert head["version"] == ex.VERSION
    assert head["config_hash"] == cfg.config_hash()
    rec = json.loads(lines[1])
    assert rec["seed"] == cfg.seed and rec["config_hash"] == cfg.config_hash()
    csv_text = ex.emit_csv(cfg, ("a", "b"), [(1, 2.5)])
    head = csv_text.splitlines()[0]
    assert head.startswith(f"# heavylab {ex.VERSION} ")
    assert f"config_hash={cfg.config_hash()}" in head.split()
    assert f"seed={cfg.seed}" in head.split()
    assert csv_text.splitlines()[1:] == ["a,b", "1,2.5"]


def test_preset_rerun_byte_identical():
    out1 = ex.run_preset("eig-concentration-small")
    out2 = ex.run_preset("eig-concentration-small")
    assert out1 == out2
    with pytest.raises(DomainError):
        ex.run_preset("nope")


def test_lp_ball_sampler_draws_radius_exponentials_from_offset_stream():
    from heavylab import measures, rng

    p, m, count, seed, stream = 0.7, 5, 300, 9, 4
    g = measures.sample(measures.nu(p), count * m, seed, stream).reshape(count, m)
    e = -np.log1p(-rng.philox(seed, stream + 2**33).random(count))
    radius = (np.sum(np.abs(g) ** p, axis=1) + e) ** (1.0 / p)
    assert np.array_equal(ex.sample_lp_ball(p, m, count, seed, stream), g / radius[:, None])


def test_csv_header_splits_back_into_every_pair():
    import shlex
    from dataclasses import asdict

    cfg = ex.PRESETS["eig-concentration-small"]
    head = ex.emit_csv(cfg, ("a",), [(1,)]).splitlines()[0]
    tokens = shlex.split(head)
    assert tokens[:4] == ["#", "heavylab", ex.VERSION, f"config_hash={cfg.config_hash()}"]
    pairs = dict(tok.split("=", 1) for tok in tokens[4:])
    assert pairs["t_grid"] == "(0.1,0.2,0.4,0.8)" and pairs["n_list"] == "(50,)"
    for key, value in asdict(cfg).items():
        assert pairs[key] == (value if isinstance(value, str) else str(value).replace(" ", ""))
    conf = {"measure": "my runs/atoms 1.csv", "quote": "it's", "t_grid": (), "eta": 0.01}
    tokens = shlex.split(ex.csv_text(conf, ("x",), []).splitlines()[0])
    assert dict(tok.split("=", 1) for tok in tokens[4:]) == {
        "measure": "my runs/atoms 1.csv",
        "quote": "it's",
        "t_grid": "()",
        "eta": "0.01",
    }

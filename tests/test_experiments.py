import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from heavylab import emit, openblas
from heavylab import experiments as ex
from heavylab import nets
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
        small_config(replicas=0)
    with pytest.raises(DomainError):
        small_config(t_grid=(0.5, 0.25))
    for bad in (math.nan, math.inf):  # a NaN once passed both the order and the sign check
        with pytest.raises(DomainError, match="finite"):
            small_config(t_grid=(0.1, bad))
    for functional in ex.FUNCTIONALS:  # the audits read n_list[-1], the lpp-tail rows max(n_list)
        with pytest.raises(DomainError, match="n_list"):
            small_config(functional=functional, n_list=())
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


def test_concentration_audit_reads_one_size_and_a_t_grid():
    # an empty grid once ran a hidden default grid, and of several sizes
    # only the largest was audited, while the header recorded them all
    with pytest.raises(DomainError, match="t_grid"):
        ex.concentration_audit(small_config(t_grid=()))
    for functional in ("largest_eig", "esm_distance"):
        with pytest.raises(DomainError, match="one size"):
            ex.concentration_audit(small_config(functional=functional, n_list=(20, 40)))


def test_concentration_audit_checks_its_domain_before_sampling(monkeypatch):
    # an n = 1 audit once ran all its replicas before learning that log n = 0
    def sampled(*args, **kwargs):
        raise AssertionError("the audit entered the replica loop")

    monkeypatch.setattr(ex, "_wigner_replicas", sampled)
    for functional in ("largest_eig", "esm_distance"):
        with pytest.raises(DomainError, match="n >= 2"):
            ex.concentration_audit(small_config(functional=functional, n_list=(1,), replicas=500))
    with pytest.raises(DomainError, match="cover esm_distance and largest_eig"):
        ex.concentration_audit(small_config(functional="trace_poly"))


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


def test_error_curve_esm_takes_spike_zero_only():
    # the rank-one target (the semicircle's free convolution with the spike)
    # is not planted, so a spiked esm curve is refused rather than estimated
    for spike in (1.5, -2.0, math.nan):
        with pytest.raises(DomainError, match="spike 0"):
            cfg = small_config(functional="esm_distance", n_list=(10,), replicas=4)
            ex.equivalent_error_curve("esm", cfg, spike=spike)


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
    shape = lpp.CachedShape(0.5, n_mc=30, replicas=150, seed=99, grid_points=5)
    rows = ex.equivalent_error_curve("lpp", cfg, spike=3.0, g_eval=shape)
    assert rows[-1][1] < rows[0][1]
    with pytest.raises(DomainError, match="g_eval"):
        ex.equivalent_error_curve("lpp", cfg, spike=3.0)
    with pytest.raises(DomainError, match="unknown curve kind"):
        ex.equivalent_error_curve("nope", cfg)


# each curve kind's functional
CURVE_FUNCTIONALS = {
    "esm": "esm_distance", "eig": "largest_eig", "poly": "trace_poly", "lpp": "lpp_time"
}


@pytest.mark.parametrize("kind", ["esm", "eig", "poly"])
def test_error_curve_g_eval_only_for_lpp(kind):
    # these kinds never read g_eval, which was once accepted and dropped
    from heavylab import lpp

    cfg = small_config(functional=CURVE_FUNCTIONALS[kind], n_list=(10,), replicas=4)
    shape = lpp.CachedShape(0.5, n_mc=10, replicas=10, seed=99, grid_points=3)
    with pytest.raises(DomainError, match=f"{kind} curves read no g_eval"):
        ex.equivalent_error_curve(kind, cfg, spike=1.0, g_eval=shape)


def test_error_curve_takes_only_its_kinds_functional(monkeypatch):
    # ("eig", <trace_poly config>) and ("esm", <lpp_time config>) once ran
    # whatever the config named and returned a curve
    def sampled(*args, **kwargs):
        raise AssertionError("the curve entered a replica loop")

    monkeypatch.setattr(ex, "_wigner_replicas", sampled)
    monkeypatch.setattr(ex.lpp, "passage_times", sampled)
    for kind, want in CURVE_FUNCTIONALS.items():
        for functional in ex.FUNCTIONALS:
            if functional != want:
                cfg = small_config(functional=functional, n_list=(10,), replicas=4)
                with pytest.raises(DomainError, match=f"{kind} curves take a {want} config"):
                    ex.equivalent_error_curve(kind, cfg, spike=0.0)


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


def test_net_probes_lie_in_the_ball():
    from heavylab import rng

    for p in (0.3, 0.5, 1.0, 2.0):
        gen = rng.philox(5, 2**34)
        probes = np.array([nets._net_probe(p, 16, gen) for _ in range(400)])
        assert np.isfinite(probes).all()
        norms = np.sum(np.abs(probes) ** p, axis=1)
        assert np.all(norms <= 1.0 + 1e-12)
        assert norms.mean() > 0.5  # not collapsed at the origin


def test_net_probes_at_p1_read_no_table(monkeypatch):
    # phi is the identity at p = 1: probes once read the Hermite table there,
    # up to 1.1e-14 relative off the exact exponential magnitudes
    from heavylab import measures

    def no_table(alpha):
        raise AssertionError(f"the transport table was read at p={alpha}")

    monkeypatch.setattr(measures, "rearrangement_map", no_table)
    assert len(nets.greedy_net_centers(1.0, 2.0, eps=0.5, m=8, trials=30, seed=5)) == 27


@pytest.mark.parametrize(
    "p, digest",
    [
        (0.3, "3f730be36a0d9edbf889fa7bf0c6523cbdc28bb96ecf59da4bfe4cbe20eb5688"),
        (0.5, "750244d7252a75049031f59b2b34f378a153cbe0d52c61aa5de08fe00fdf75a7"),
        (1.0, "5ab59d2cafd023e763d56f786786c9154ad0246b1a8b345d9c1441416ef810fd"),
    ],
)
def test_net_center_bytes_pinned(p, digest):
    # `heavylab net` writes only net sizes, so its pins cannot see the
    # probes' bits: at p = 1, 30 of these 216 coordinates once moved by up
    # to 7.1e-15 relative while the CLI's bytes stayed
    centers = nets.greedy_net_centers(p, 2.0, 0.5, 8, 30, 5)
    assert hashlib.sha256(centers.tobytes()).hexdigest() == digest


def test_greedy_net_trivial_and_nesting():
    assert len(nets.greedy_net_centers(0.5, 2.0, eps=10.0, m=16, trials=50, seed=11)) == 1
    profile = nets.greedy_net_profile(0.5, 2.0, (1.0, 0.5, 0.25), m=16, trials=40, seed=11)
    sizes = {eps: s for eps, s in profile}
    assert sizes[1.0] <= sizes[0.5] <= sizes[0.25]


@pytest.mark.parametrize("eps", [math.inf, math.nan])
def test_greedy_net_rejects_non_finite_eps(eps):
    # eps = inf once gave a net of size 0, though one center covers at any
    # radius, and eps = nan a size-0 row as well
    with pytest.raises(DomainError, match="finite"):
        nets.greedy_net_profile(0.5, 2.0, (0.5, eps), m=4, trials=5, seed=1)


def test_greedy_net_slope_positive():
    eps_grid = (0.3, 0.5, 0.7, 0.9)
    profile = nets.greedy_net_profile(0.5, 2.0, eps_grid, m=16, trials=120, seed=13)
    xs = np.array([eps ** (1 / 2.0 - 1 / 0.5) for eps, _ in profile])
    ys = np.log([max(s, 1) for _, s in profile])
    slope = np.polyfit(xs, ys, 1)[0]
    assert 0.0 < slope < math.inf


def test_emission_headers_and_determinism():
    cfg = small_config(replicas=120)
    text = ex.emit_jsonl(cfg, ("value",), [(1.5,)])
    lines = text.strip().splitlines()
    head = json.loads(lines[0])
    assert head["version"] == emit.VERSION
    assert head["config_hash"] == cfg.config_hash()
    rec = json.loads(lines[1])
    assert rec["seed"] == cfg.seed and rec["config_hash"] == cfg.config_hash()
    with pytest.raises(ValueError):
        ex.emit_jsonl(cfg, ("value", "extra"), [(1.5,)])
    csv_text = emit.csv_text(dataclasses.asdict(cfg), ("a", "b"), [(1, 2.5)])
    head = csv_text.splitlines()[0]
    assert head.startswith(f"# heavylab {emit.VERSION} ")
    assert f"config_hash={cfg.config_hash()}" in head.split()
    assert f"seed={cfg.seed}" in head.split()
    assert csv_text.splitlines()[1:] == ["a,b", "1,2.5"]
    with pytest.raises(ValueError):
        emit.csv_text(dataclasses.asdict(cfg), ("a",), [(1, 2.5)])


def test_preset_rerun_byte_identical():
    out1 = ex.run_preset("eig-concentration-small")
    out2 = ex.run_preset("eig-concentration-small")
    assert out1 == out2
    with pytest.raises(DomainError):
        ex.run_preset("nope")


@pytest.mark.parametrize(
    "name, digest",
    [
        ("eig-concentration-small", "49ad91c72f513094717ed4242568a66c38d56cf769192c8dc06d9e3ca87c08c0"),
        ("esm-error-curve", "b8984e1837c1283764ea376056ecb1e09bca288846a1a80a3f686e5ca11c4bf6"),
        ("lpp-tail-trend", "910c3f083a0ec084c24f4682f4177674c398a81cec2865c8ae85e4bec5830f8c"),
        ("eig-error-curve", "8ce4a5befe6c099f41333a410ee10ecfcc1f3be00188c7ea7ff31a49c8620110"),
        ("poly-error-curve", "455b00ec80f18dd4f5a6bff8268d98bfca6342ea7e5465bb32541dcaa9f60776"),
        ("lpp-error-curve", "441a598b072b52ef8717fb2028285ed838d3d84514198467313b1f6843643360"),
    ],
)
def test_preset_output_bytes_pinned(name, digest):
    # run_preset builds its rows on one BLAS thread, whatever its caller
    # runs, so eig-error-curve's serial n = 1000 solves read the same here
    # as in a CLI process
    text = ex.run_preset(name)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.skipif(openblas._library() is None, reason="numpy without its bundled OpenBLAS")
def test_presets_build_their_rows_on_one_blas_thread(monkeypatch):
    lib = openblas._library()
    seen = []

    def build(config):
        seen.append(lib.scipy_openblas_get_num_threads64_())
        return [(50, 0.125, 0.5)]

    monkeypatch.setitem(ex._PRESET_OUTPUTS, "eig-error-curve", (ex.CURVE_FIELDS, build))
    old = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        ex.run_preset("eig-error-curve")
        assert seen == [1]
        assert lib.scipy_openblas_get_num_threads64_() == 2  # the caller's count is restored
    finally:
        lib.scipy_openblas_set_num_threads64_(old)


def test_presets_reach_their_entry_points_through_the_module(monkeypatch):
    # the preset table looks these four functions up when it runs, so a
    # wrapper set on the module (a tracer's span) sees every preset's calls
    calls = []

    def fake(name, result):
        def run(*args, **kwargs):
            calls.append(name)
            return result

        monkeypatch.setattr(ex, name, run)

    fake("concentration_audit", ([(0.1, 0.5, 0.25)], 2.0))
    fake("equivalent_error_curve", [(50, 0.125, 0.5)])
    fake("estimate_g_limit", (1.5, {}))
    fake("tail_rate", [(10, 0.5, 1.0, 0.75, 1.25, 6000)])
    expected = {
        "eig-concentration-small": (["concentration_audit"], {"t": 0.1, "c_hat": 2.0}),
        "esm-error-curve": (["equivalent_error_curve"], {"n": 50, "stderr": 0.5}),
        "lpp-tail-trend": (["estimate_g_limit", "tail_rate"], {"hits": 6000, "g11_hat": 1.5}),
        "eig-error-curve": (["equivalent_error_curve"], {"n": 50, "stderr": 0.5}),
        "poly-error-curve": (["equivalent_error_curve"], {"n": 50, "stderr": 0.5}),
        "lpp-error-curve": (["equivalent_error_curve"], {"n": 50, "stderr": 0.5}),
    }
    assert set(ex._PRESET_OUTPUTS) == set(ex.PRESETS) == set(expected)
    for name, (entry_points, fields) in expected.items():
        # the config is read from PRESETS when the preset runs
        config = ex.PRESETS[name]
        monkeypatch.setitem(ex.PRESETS, name, dataclasses.replace(config, seed=config.seed + 1))
        calls.clear()
        records = [json.loads(line) for line in ex.run_preset(name).splitlines()]
        assert calls == entry_points
        assert records[0]["config"]["seed"] == config.seed + 1
        assert records[1].items() >= {**fields, "seed": config.seed + 1}.items()


def test_csv_header_splits_back_into_every_pair():
    import shlex
    from dataclasses import asdict

    cfg = ex.PRESETS["eig-concentration-small"]
    head = emit.csv_text(asdict(cfg), ("a",), [(1,)]).splitlines()[0]
    tokens = shlex.split(head)
    assert tokens[:4] == ["#", "heavylab", emit.VERSION, f"config_hash={cfg.config_hash()}"]
    pairs = dict(tok.split("=", 1) for tok in tokens[4:])
    assert pairs["t_grid"] == "(0.1,0.2,0.4,0.8)" and pairs["n_list"] == "(50,)"
    for key, value in asdict(cfg).items():
        assert pairs[key] == (value if isinstance(value, str) else str(value).replace(" ", ""))
    conf = {"measure": "my runs/atoms 1.csv", "quote": "it's", "t_grid": (), "eta": 0.01}
    tokens = shlex.split(emit.csv_text(conf, ("x",), []).splitlines()[0])
    assert dict(tok.split("=", 1) for tok in tokens[4:]) == {
        "measure": "my runs/atoms 1.csv",
        "quote": "it's",
        "t_grid": "()",
        "eta": "0.01",
    }

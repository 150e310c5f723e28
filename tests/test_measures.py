import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaincc
from scipy.stats import ks_2samp, kstest

from heavylab import measures, rng
from heavylab.errors import DomainError

from oracles import cdf_one_sided, rearrangement, rearrangement_inverse

ALPHAS = [0.5, 1.0, 1.5, 2.0]
# the map contracts also hold for small exponents, where phi grows fastest
MAP_ALPHAS = [0.1, 0.25, 0.3] + ALPHAS

# Frozen oracle: v solving  int_v^inf exp(-sqrt(u)) du = 2 exp(-5), computed
# by 40-digit quadrature + bisection (and cross-checked against the closed
# form (1+s)e^{-s} = e^{-5}, v = s^2).
PHI_HALF_AT_5 = 50.278273319774928689


def test_normalizers_closed_forms():
    assert measures.normalizers(1.0) == pytest.approx((2.0, 1.0), rel=1e-12)
    assert measures.normalizers(2.0) == pytest.approx(
        (math.sqrt(math.pi), math.sqrt(math.pi) / 2.0), rel=1e-12
    )
    assert measures.normalizers(0.5) == pytest.approx((4.0, 2.0), rel=1e-12)


def test_normalizers_rejects_nonpositive_alpha():
    with pytest.raises(DomainError):
        measures.normalizers(0.0)
    with pytest.raises(DomainError):
        measures.normalizers(-1.0)


def test_normalizers_smallest_alpha_is_where_they_overflow():
    y, z = measures.normalizers(measures._ALPHA_MIN)
    assert math.isfinite(y) and math.isfinite(z)
    below = math.nextafter(measures._ALPHA_MIN, 0.0)
    assert 2.0 * math.gamma(1.0 + 1.0 / below) == math.inf
    with pytest.raises(DomainError, match="at least"):
        measures.normalizers(below)


def test_map_smallest_alpha_keeps_the_largest_draw_finite():
    x_top = 53.0 * math.log(2.0)  # -log 2^-53, the largest exponential draw
    log_top = math.log(sys.float_info.max) + math.log1p(-1e-8)

    def excess(alpha):  # phi's closed-form inverse at DBL_MAX (1 - 1e-8), less x_top
        return -math.log(gammaincc(1.0 / alpha, math.exp(alpha * log_top))) - x_top

    lo, hi = 0.006, 0.009
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if excess(mid) < 0 else (lo, mid)
    assert measures._ALPHA_MAP_MIN == hi
    top = measures.rearrangement_map(hi)(x_top)
    assert top <= sys.float_info.max
    assert np.all(np.isfinite(measures.sample(measures.nu(hi), 1000, seed=3)))
    below = math.nextafter(hi, 0.0)
    with np.errstate(over="ignore"):
        assert measures._phi(below, x_top) > sys.float_info.max * (1.0 - 1e-8)
    with pytest.raises(DomainError, match="at least 0.00775312"):
        measures.rearrangement_map(below)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("sided", ["two", "one"])
def test_density_integrates_to_one(alpha, sided):
    law = measures.AlphaLaw(alpha, sided)
    lo = -np.inf if sided == "two" else 0.0
    total, err = integrate.quad(
        lambda x: float(law.density(x)), lo, np.inf, limit=400, points=None
    )
    assert abs(total - 1.0) < 1e-10
    assert law.Y_alpha == pytest.approx(2.0 * law.Z_alpha, rel=1e-14)
    assert law.Z_alpha == pytest.approx(math.gamma(1.0 + 1.0 / alpha), rel=1e-13)


@pytest.mark.parametrize("alpha", MAP_ALPHAS)
def test_rearrangement_zero_and_monotone(alpha):
    assert rearrangement(alpha, 0.0) == 0.0
    xs = np.geomspace(1e-6, 500.0, 200)
    vals = np.array([rearrangement(alpha, x) for x in xs])
    assert np.all(np.diff(vals) > 0)


def test_rearrangement_identity_at_alpha_one():
    assert rearrangement(1.0, 3.7) == pytest.approx(3.7, abs=1e-10)


def test_rearrangement_frozen_oracle():
    assert rearrangement(0.5, 5.0) == pytest.approx(PHI_HALF_AT_5, abs=1e-10)


def test_rearrangement_tail_equation_direct():
    # independent check through raw quadrature of the one-sided density
    v = rearrangement(0.5, 5.0)
    integral, _ = integrate.quad(lambda u: math.exp(-math.sqrt(u)), v, np.inf, limit=200)
    assert integral == pytest.approx(2.0 * math.exp(-5.0), rel=1e-9)


@pytest.mark.parametrize("alpha", MAP_ALPHAS)
def test_map_matches_direct_solves_and_inverse(alpha):
    tmap = measures.rearrangement_map(alpha)
    # 2^-53 is the smallest nonzero exponential draw
    xs = np.concatenate([[2.0**-53, 1e-12], np.geomspace(1e-4, 600.0, 120)])
    exact = np.array([rearrangement(alpha, x) for x in xs])
    got = tmap(xs)
    assert np.all(np.abs(got - exact) <= 1e-8 * np.maximum(1.0, exact))
    back = rearrangement_inverse(alpha, tmap(xs))
    assert np.all(np.abs(back - xs) <= 1e-8 * np.maximum(1.0, xs))
    # strict monotonicity on a dense grid
    dense = np.linspace(0.0, 700.0, 20001)
    vals = tmap(dense)
    assert np.all(np.diff(vals) > 0)
    assert tmap(0.0) == 0.0


def test_map_odd_extension():
    tmap = measures.rearrangement_map(0.5)
    x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    psi = tmap.odd(x)
    assert np.allclose(psi, -psi[::-1], atol=0)
    assert np.all(np.sign(psi) == np.sign(x))


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
def test_growth_bound_beyond_fitted_threshold(alpha):
    # phi(x) <= K x^(1/alpha) past phi^{-1}(1), with K fitted once
    tmap = measures.rearrangement_map(alpha)
    x0 = rearrangement_inverse(alpha, 1.0)
    grid = np.geomspace(max(x0, 1e-3), 700.0, 64)
    K = float(np.max(tmap(grid) / grid ** (1.0 / alpha))) * (1.0 + 1e-9)
    fine = np.geomspace(max(x0, 1e-3), 700.0, 1024)
    assert np.all(tmap(fine) <= K * fine ** (1.0 / alpha))


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
def test_increment_growth_ratio(alpha):
    # psi^{-1}(s)/s^alpha enters [0.8, 1.2] past a fitted threshold and
    # converges monotonely toward 1 along the tail of a geometric grid
    tmap = measures.rearrangement_map(alpha)
    s = np.geomspace(1.0, 1e3, 40)
    s = s[s <= float(tmap(700.0))]
    ratio = rearrangement_inverse(alpha, s) / s**alpha
    inside = np.abs(ratio - 1.0) <= 0.2
    assert inside.any()
    s0 = int(np.argmax(inside))
    assert inside[s0:].all()
    gap = np.abs(ratio[s0:] - 1.0)
    assert np.all(np.diff(gap) <= 1e-12)


def test_sample_empty_and_deterministic():
    law = measures.nu(1.0)
    assert measures.sample(law, 0, seed=1).size == 0
    a = measures.sample(law, 1000, seed=42, stream=3)
    b = measures.sample(law, 1000, seed=42, stream=3)
    assert np.array_equal(a, b)
    c = measures.sample(law, 1000, seed=42, stream=4)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("law", [measures.mu(0.5), measures.nu(1.3)], ids=["mu", "nu"])
def test_sample_blocks_and_stream_ranges_keep_every_draw(law):
    # the map runs in blocks; rows of a stream range are single-stream draws
    tmap = measures.rearrangement_map(law.alpha)
    count = 3 * measures._MAP_BLOCK + 17
    if law.sided == "one":
        whole = tmap(rng.exponentials(5, 2, count))
    else:
        whole = tmap.odd(rng.laplaces(5, 2, count))
    assert np.array_equal(measures.sample(law, count, seed=5, stream=2), whole)
    rows = measures.sample(law, 40_001, seed=5, stream=range(1, 5))
    assert rows.shape == (4, 40_001)
    for k, stream in enumerate(range(1, 5)):
        assert np.array_equal(rows[k], measures.sample(law, 40_001, seed=5, stream=stream))
    assert measures.sample(law, 3, seed=5, stream=range(0)).shape == (0, 3)


def test_sample_variance_matches_moment():
    n = 10**5
    draws = measures.sample(measures.nu(2.0), n, seed=7)
    target = 0.5  # Gamma(3/2)/Gamma(1/2)
    m4 = measures.moment(measures.nu(2.0), 4)
    se = math.sqrt((m4 - target**2) / n)
    assert abs(np.var(draws) - target) < 3 * se


def test_sample_one_sided_ks_against_exact_cdf():
    draws = measures.sample(measures.mu(0.5), 10**5, seed=7)
    stat = kstest(draws, lambda x: cdf_one_sided(0.5, x)).statistic
    crit_1pct = 1.6276 / math.sqrt(10**5)
    assert stat < crit_1pct


@pytest.mark.parametrize("alpha", ALPHAS)
def test_pushforward_two_sample_ks(alpha):
    # transport sampler vs the inverse-CDF oracle at level 0.001
    n = 10**4
    transported = measures.sample(measures.mu(alpha), n, seed=11, stream=0)
    direct = measures.sample_inverse_cdf(measures.mu(alpha), n, seed=11, stream=1)
    assert ks_2samp(transported, direct).pvalue > 0.001


def test_moments_closed_forms():
    assert measures.moment(measures.nu(1.0), 2) == pytest.approx(2.0, rel=1e-12)
    assert measures.moment(measures.nu(2.0), 2) == pytest.approx(0.5, rel=1e-12)
    # one-sided odd moments do not vanish
    assert measures.moment(measures.mu(1.0), 1) == pytest.approx(1.0)


def test_moment_rejects_negative_order():
    with pytest.raises(DomainError):
        measures.moment(measures.nu(1.0), -1)


def test_law_validation():
    with pytest.raises(DomainError):
        measures.AlphaLaw(2.5, "two")
    with pytest.raises(DomainError):
        measures.AlphaLaw(1.0, "both")


def _probe(code: str) -> str:
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize(
    "first, second", [("heavylab.measures", "scipy.special"), ("scipy.special", "heavylab.measures")]
)
def test_gamma_ufuncs_are_scipy_specials_own(first, second):
    # the extension module loaded first is the one both imports end up with
    assert _probe(
        f"import sys; import {first}; ext = sys.modules.get('scipy.special._special_ufuncs'); "
        f"import {second}; from heavylab import measures; import scipy.special as special; "
        "print(sys.modules['scipy.special._special_ufuncs'] is ext, "
        "[getattr(measures, f) is getattr(special, f) for f in measures._GAMMA_UFUNCS])"
    ) == "True [True, True]"


def test_gamma_ufuncs_fallback_builds_identical_maps():
    coef = (
        "import hashlib, sys; from heavylab import measures; "
        "print('scipy.special' in sys.modules, [hashlib.sha256(measures.RearrangementMap(a)"
        "._coef.tobytes()).hexdigest() for a in (0.3, 0.5, 1.0, 2.0)])"
    )
    # hides the compiled extension from the file lookup, so scipy.special is imported
    hide = (
        "import os; isfile = os.path.isfile; "
        "os.path.isfile = lambda p: '_special_ufuncs' not in p and isfile(p); "
    )
    direct = _probe(coef).split(" ", 1)
    fallback = _probe(hide + coef).split(" ", 1)
    assert direct[0] == "False" and fallback[0] == "True"
    assert fallback[1] == direct[1]

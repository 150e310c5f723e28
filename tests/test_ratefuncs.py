import math

import numpy as np
import pytest

from heavylab import matrixlab as ml
from heavylab import ratefuncs as rf
from heavylab import specmeasures as sm
from heavylab.errors import DomainError
from heavylab.freeprob import NCPolynomial


def params_J(alpha=1.0, c=1.0):
    return rf.RateParams(alpha=alpha, constant_c=c)


def test_rate_J_piecewise():
    p = params_J()
    assert rf.rate_J(2.0, p) == 0.0
    assert rf.rate_J(1.0, p) == math.inf
    assert rf.rate_J(2.5, p) == pytest.approx(2.0)  # g(2.5) = 1/2
    p2 = params_J(alpha=1.5, c=0.7)
    assert rf.rate_J(2.5, p2) == pytest.approx(0.7 * 0.5 ** (-1.5))


def test_rate_J_monotone_and_scales_in_c():
    xs = np.linspace(2.0, 6.0, 41)
    p = params_J(alpha=0.8, c=1.3)
    vals = np.array([rf.rate_J(float(x), p) for x in xs])
    assert vals[0] == 0.0
    assert np.all(np.diff(vals) > 0)
    doubled = np.array([rf.rate_J(float(x), params_J(alpha=0.8, c=2.6)) for x in xs])
    assert np.allclose(doubled[1:], 2 * vals[1:])


def test_rate_K_piecewise():
    p = rf.RateParams(alpha=1.0, c1=0.4, c_minus1=0.9, tauP=2.0, d=5)
    assert rf.rate_K(2.0, p) == 0.0
    assert rf.rate_K(3.0, p) == pytest.approx(0.4)
    assert rf.rate_K(2.0 - 32.0, p) == pytest.approx(0.9 * 2.0)  # 32^(1/5) = 2


def test_rate_L_piecewise():
    p = rf.RateParams(alpha=0.5, g11=2.0)
    assert rf.rate_L(2.0, p) == 0.0
    assert rf.rate_L(1.0, p) == math.inf
    assert rf.rate_L(3.0, p) == pytest.approx(1.0)
    assert rf.rate_L(6.0, p) == pytest.approx(2.0)


def test_rate_missing_constants_raise():
    with pytest.raises(DomainError):
        rf.rate_J(3.0, rf.RateParams(alpha=1.0))
    with pytest.raises(DomainError):
        rf.rate_K(3.0, rf.RateParams(alpha=1.0, c1=1.0))
    with pytest.raises(DomainError):
        rf.rate_L(3.0, rf.RateParams(alpha=1.0))
    with pytest.raises(DomainError):
        rf.RateParams(alpha=1.0, constant_c=-1.0)


def test_rate_I_symmetric_values_and_scaling():
    p = rf.RateParams(alpha=1.0, b=1.0, a1=3.0)
    dirac0 = sm.Measure1D.dirac(0.0)
    assert rf.rate_I_symmetric(dirac0, p) == 0.0
    pair = sm.Measure1D(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    assert rf.rate_I_symmetric(pair, p) == pytest.approx(min(1.0, 1.5))
    p2 = rf.RateParams(alpha=0.7, b=2.0, a1=1.0)
    v1 = rf.rate_I_symmetric(pair, p2)
    v3 = rf.rate_I_symmetric(pair.dilate(3.0), p2)
    assert v3 == pytest.approx(3.0**0.7 * v1)
    assert rf.rate_I_symmetric(pair, p2, a=5.0) == pytest.approx(2.0 * pair.moment(0.7))


def test_rate_I_symmetric_rejects_asymmetric():
    lop = sm.Measure1D(np.array([-1.0, 2.0]), np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        rf.rate_I_symmetric(lop, rf.RateParams(alpha=1.0))


def test_optimize_constant_c_upper_bound_and_n1():
    ens = ml.WignerEnsemble(1.0, b=0.8, a1=1.0)
    val1, mat1 = rf.optimize_constant_c(1.0, ens, n_max=1, restarts=5, iters=50)
    assert val1 == pytest.approx(0.8, abs=1e-9)
    assert mat1.n == 1
    val3, _ = rf.optimize_constant_c(1.0, ens, n_max=3, restarts=10, iters=80)
    assert val3 <= 0.8 + 1e-9
    assert val3 <= val1 + 1e-9  # monotone in n_max


def test_optimize_constant_c_witness_bound():
    for alpha in (0.5, 1.5):
        ens = ml.WignerEnsemble(alpha, b=1.2, a1=2.0)
        val, mat = rf.optimize_constant_c(alpha, ens, n_max=2, restarts=8, iters=60)
        assert val <= 1.2 + 1e-9
        assert mat.largest_eig() == pytest.approx(1.0, abs=1e-9)


def test_optimize_csigma_scalar_and_infeasible():
    ens = ml.WignerEnsemble(1.0, b=1.0, a1=1.0)
    for d in (3, 4):
        pd = NCPolynomial.word_power(1, d)
        val = rf.optimize_constant_csigma(1.0, ens, pd, sigma=1, n_max=1, restarts=6, iters=60)
        assert val == pytest.approx(1.0, rel=1e-4)  # scalar h with h^d = 1 costs b
    square = NCPolynomial.word_power(1, 2)
    assert rf.optimize_constant_csigma(1.0, ens, square, sigma=-1, n_max=2, restarts=4, iters=40) == math.inf


def test_optimize_csigma_requires_homogeneous():
    ens = ml.WignerEnsemble(1.0)
    mixed = NCPolynomial(((1.0, (1,)), (1.0, (1, 1))), 1)
    with pytest.raises(DomainError):
        rf.optimize_constant_csigma(1.0, ens, mixed, sigma=1)


def test_variational_semicircle_target_is_zero():
    ens = ml.WignerEnsemble(1.0, b=1.0, a1=2.0)
    target = sm.g_semicircle(sm.default_contour().nodes)
    val = rf.rate_I_variational(target, 1.0, ens, n=16, delta=0.05, restarts=3, iters=20)
    assert val == 0.0


@pytest.mark.parametrize("shape", [(32,), (8, 8), ()])
def test_variational_rejects_a_target_off_the_contour(shape):
    # the target is the vector of transform values, one per default-contour node
    ens = ml.WignerEnsemble(1.0, b=1.0, a1=2.0)
    target = np.zeros(shape, dtype=complex)
    with pytest.raises(DomainError, match="one value per contour node"):
        rf.rate_I_variational(target, 1.0, ens, n=8, delta=0.05, restarts=1, iters=1)


def test_variational_large_delta_everything_feasible():
    ens = ml.WignerEnsemble(1.0, b=1.0, a1=2.0)
    nu = sm.Measure1D(np.array([-2.0, 2.0]), np.array([0.5, 0.5]))
    target = sm.freeconv_transform(nu, sm.default_contour().nodes)
    val = rf.rate_I_variational(target, 1.0, ens, n=16, delta=10.0, restarts=3, iters=20)
    assert val == 0.0


def test_variational_infeasible_reports_inf():
    ens = ml.WignerEnsemble(1.0, b=1.0, a1=2.0)
    nu = sm.Measure1D(np.array([-9.0, 9.0]), np.array([0.5, 0.5]))
    target = sm.freeconv_transform(nu, sm.default_contour().nodes)
    val = rf.rate_I_variational(target, 1.0, ens, n=8, delta=0.01, restarts=2, iters=10)
    assert val == math.inf


def test_variational_matches_symmetric_closed_form():
    # target = semicircle [+] (delta_2 + delta_-2)/2 with min(b, a/2) = b = 1
    alpha, theta, n = 1.0, 2.0, 32
    ens = ml.WignerEnsemble(alpha, b=1.0, a1=2.0)
    nu = sm.Measure1D(np.array([-theta, theta]), np.array([0.5, 0.5]))
    target = sm.freeconv_transform(nu, sm.default_contour().nodes)
    init = np.concatenate([np.full(n // 2, theta), np.full(n // 2, -theta)]) / n
    val = rf.rate_I_variational(
        target, alpha, ens, n=n, delta=0.01, restarts=50, iters=120, init=init
    )
    closed = min(1.0, 2.0 / 2.0) * theta**alpha
    assert abs(val - closed) <= 0.1 * closed


def test_variational_monotone_in_delta():
    alpha, n = 1.0, 16
    ens = ml.WignerEnsemble(alpha, b=1.0, a1=2.0)
    nu = sm.Measure1D(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    target = sm.freeconv_transform(nu, sm.default_contour().nodes)
    init = np.concatenate([np.full(n // 2, 1.0), np.full(n // 2, -1.0)]) / n
    vals = [
        rf.rate_I_variational(target, alpha, ens, n=n, delta=d, restarts=6, iters=40, init=init)
        for d in (0.02, 0.1, 0.5)
    ]
    assert vals[0] >= vals[1] >= vals[2] >= 0.0

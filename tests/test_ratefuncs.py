import math

import numpy as np
import pytest

from heavylab import matrixlab as ml
from heavylab import ratefuncs as rf
from heavylab import rng
from heavylab import specmeasures as sm
from heavylab.errors import DomainError
from heavylab.freeprob import NCPolynomial

from oracles import dirac


def test_rate_J_piecewise():
    assert rf.rate_J(2.0, 1.0, 1.0) == 0.0
    assert rf.rate_J(1.0, 1.0, 1.0) == math.inf
    assert rf.rate_J(2.5, 1.0, 1.0) == pytest.approx(2.0)  # g(2.5) = 1/2
    assert rf.rate_J(2.5, 1.5, 0.7) == pytest.approx(0.7 * 0.5 ** (-1.5))


def test_rate_J_monotone_and_scales_in_c():
    xs = np.linspace(2.0, 6.0, 41)
    vals = np.array([rf.rate_J(float(x), 0.8, 1.3) for x in xs])
    assert vals[0] == 0.0
    assert np.all(np.diff(vals) > 0)
    doubled = np.array([rf.rate_J(float(x), 0.8, 2.6) for x in xs])
    assert np.allclose(doubled[1:], 2 * vals[1:])


def test_rate_K_piecewise():
    k = {"alpha": 1.0, "c1": 0.4, "c_minus1": 0.9, "tau_p": 2.0, "d": 5}
    assert rf.rate_K(2.0, **k) == 0.0
    assert rf.rate_K(3.0, **k) == pytest.approx(0.4)
    assert rf.rate_K(2.0 - 32.0, **k) == pytest.approx(0.9 * 2.0)  # 32^(1/5) = 2


def test_rate_L_piecewise():
    assert rf.rate_L(2.0, 0.5, 2.0) == 0.0
    assert rf.rate_L(1.0, 0.5, 2.0) == math.inf
    assert rf.rate_L(3.0, 0.5, 2.0) == pytest.approx(1.0)
    assert rf.rate_L(6.0, 0.5, 2.0) == pytest.approx(2.0)


# one valid set of constants per evaluator
_CONSTANTS = {
    rf.rate_J: {"c": 1.0},
    rf.rate_K: {"c1": 1.0, "c_minus1": 1.0, "tau_p": 0.0, "d": 2},
    rf.rate_L: {"g11": 2.0},
}


def test_rate_constants_out_of_domain_raise():
    for bad in (-1.0, 0.0):
        with pytest.raises(DomainError, match="d must be at least 1"):
            rf.rate_K(3.0, 1.0, 1.0, 1.0, 0.0, bad)
    for name in ("c1", "c_minus1"):
        with pytest.raises(DomainError, match=f"{name} must be at least 0"):
            rf.rate_K(3.0, 1.0, **{**_CONSTANTS[rf.rate_K], name: -1.0})
    with pytest.raises(DomainError, match="c must be at least 0"):
        rf.rate_J(3.0, 1.0, -1.0)
    for rate, constants in _CONSTANTS.items():
        for alpha in (0.0, -0.5, 2.5, math.nan):
            with pytest.raises(DomainError, match="alpha must lie in"):
                rate(3.0, alpha, **constants)


def test_rate_evaluators_reject_non_finite_input():
    # each of these once returned nan (x = nan or inf in rate_J, a NaN g11
    # or tau_p) or passed the constant's sign check (a NaN c)
    for rate, constants in _CONSTANTS.items():
        for name in constants:
            for bad in (math.nan, math.inf):
                with pytest.raises(DomainError, match=f"{name} must be finite"):
                    rate(3.0, 1.0, **{**constants, name: bad})
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite x"):
                rate(bad, 1.0, **constants)
    pair = sm.Measure1D(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    for name in ("b", "a1"):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="b, a1 and a2 must be finite"):
                rf.rate_I_symmetric(pair, ml.WignerEnsemble(1.0, **{name: bad}))


def test_rate_I_symmetric_values_and_scaling():
    ens = ml.WignerEnsemble(1.0, b=1.0, a1=3.0)
    dirac0 = dirac(0.0)
    assert rf.rate_I_symmetric(dirac0, ens) == 0.0
    pair = sm.Measure1D(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    assert rf.rate_I_symmetric(pair, ens) == pytest.approx(min(1.0, 1.5))
    ens2 = ml.WignerEnsemble(0.7, b=2.0, a1=1.0)
    v1 = rf.rate_I_symmetric(pair, ens2)
    v3 = rf.rate_I_symmetric(pair.dilate(3.0), ens2)
    assert v3 == pytest.approx(3.0**0.7 * v1)
    ens5 = ml.WignerEnsemble(0.7, b=2.0, a1=5.0)
    assert rf.rate_I_symmetric(pair, ens5) == pytest.approx(2.0 * pair.moment(0.7))


def test_rate_I_symmetric_rejects_asymmetric():
    lop = sm.Measure1D(np.array([-1.0, 2.0]), np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        rf.rate_I_symmetric(lop, ml.WignerEnsemble(1.0))


def test_optimize_constant_c_upper_bound_and_n1():
    ens = ml.WignerEnsemble(1.0, b=0.8, a1=1.0)
    val1, mats1 = rf.optimize_constant(ens, n_max=1, restarts=5, iters=50)
    assert val1 == pytest.approx(0.8, abs=1e-9)
    assert mats1[0].n == 1
    val3, _ = rf.optimize_constant(ens, n_max=3, restarts=10, iters=80)
    assert val3 <= 0.8 + 1e-9
    assert val3 <= val1 + 1e-9  # monotone in n_max


def test_optimize_constant_c_witness_bound():
    for alpha in (0.5, 1.5):
        ens = ml.WignerEnsemble(alpha, b=1.2, a1=2.0)
        val, mats = rf.optimize_constant(ens, n_max=2, restarts=8, iters=60)
        assert val <= 1.2 + 1e-9
        assert mats[0].largest_eig() == pytest.approx(1.0, abs=1e-9)


def test_optimize_csigma_scalar_and_infeasible():
    ens = ml.WignerEnsemble(1.0, b=1.0, a1=1.0)
    for d in (3, 4):
        pd = NCPolynomial.word_power(1, d)
        val = rf.optimize_constant(ens, pd, sigma=1, n_max=1, restarts=6, iters=60)[0]
        assert val == pytest.approx(1.0, rel=1e-4)  # scalar h with h^d = 1 costs b
    # at any alpha, so the cost's exponent alpha/d must be the ensemble's
    for alpha in (0.5, 1.5):
        ens_alpha = ml.WignerEnsemble(alpha, b=1.3, a1=1.0)
        for d in (3, 4):
            pd = NCPolynomial.word_power(1, d)
            val = rf.optimize_constant(ens_alpha, pd, sigma=1, n_max=1, restarts=6, iters=60)[0]
            assert val == pytest.approx(1.3, rel=1e-4)
    square = NCPolynomial.word_power(1, 2)
    assert rf.optimize_constant(ens, square, sigma=-1, n_max=2, restarts=4, iters=40)[0] == math.inf


def test_optimize_csigma_requires_homogeneous():
    ens = ml.WignerEnsemble(1.0)
    mixed = NCPolynomial(((1.0, (1,)), (1.0, (1, 1))), 1)
    with pytest.raises(DomainError):
        rf.optimize_constant(ens, mixed, sigma=1)


@pytest.mark.parametrize("poly, sigma, n_max, match", [
    # a constant has degree 0, and its rescaling t^(-1/0) divided by zero
    (NCPolynomial(((1.0, ()),), 1), 1, 3, "degree >= 1"),
    (None, 0, 3, "sigma must be"),
    (None, 1, 9, "capped at 8"),
], ids=["degree-0", "sigma-0", "n_max-9"])
def test_optimize_constant_rejects_bad_settings(poly, sigma, n_max, match):
    with pytest.raises(DomainError, match=match):
        rf.optimize_constant(ml.WignerEnsemble(1.0), poly, sigma=sigma, n_max=n_max)


def test_optimize_constant_minimizers_lie_on_their_constraints():
    # above alpha = 1 the minimizer of W_alpha on lambda_max = 1 is a block,
    # not one entry (c / b = 0.894 at alpha = 1.5)
    ens = ml.WignerEnsemble(1.5, b=1.0, a1=1.0)
    val, mats = rf.optimize_constant(ens, n_max=3, restarts=20)
    assert mats[0].n == 2
    assert val <= 0.9
    assert mats[0].largest_eig() == pytest.approx(1.0, abs=1e-9)
    # the c_{-1} search for x^3 keeps its minimizer on tr H^3 = -1; at alpha = 1
    # that minimizer is one diagonal entry, so c_{-1} = b
    cube = NCPolynomial.word_power(1, 3)
    val, mats = rf.optimize_constant(ml.WignerEnsemble(1.0, b=1.0, a1=1.0), cube, sigma=-1,
                                     n_max=3, restarts=20)
    assert np.trace(np.linalg.matrix_power(mats[0].mat, 3)) == pytest.approx(-1.0, abs=1e-9)
    assert val == pytest.approx(1.0, rel=1e-6)


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


@pytest.mark.parametrize("n", [0, 65])
def test_variational_rejects_a_size_outside_1_to_64(n):
    ens = ml.WignerEnsemble(1.0, b=1.0, a1=2.0)
    target = sm.g_semicircle(sm.default_contour().nodes)
    with pytest.raises(DomainError, match="1..64"):
        rf.rate_I_variational(target, 1.0, ens, n=n, delta=0.05, restarts=1, iters=1)


@pytest.mark.parametrize("size", [7, 9])
def test_variational_rejects_an_init_of_another_length(size):
    # both ran: a long init searched with more atoms than n, and a short one
    # raised IndexError only when a move drew its missing index
    ens = ml.WignerEnsemble(1.0, b=1.0, a1=2.0)
    target = sm.g_semicircle(sm.default_contour().nodes)
    with pytest.raises(DomainError, match="init needs n = 8 entries"):
        rf.rate_I_variational(target, 1.0, ens, n=8, delta=0.05, restarts=2, iters=3,
                              init=np.full(size, 0.1))


def test_variational_rejects_a_nan_delta():
    # delta <= 0 let NaN through, and every candidate then read infeasible
    ens = ml.WignerEnsemble(1.0, b=1.0, a1=2.0)
    target = sm.g_semicircle(sm.default_contour().nodes)
    with pytest.raises(DomainError, match="delta must be positive"):
        rf.rate_I_variational(target, 1.0, ens, n=8, delta=math.nan, restarts=1, iters=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_variational_rejects_a_non_finite_target(bad):
    ens = ml.WignerEnsemble(1.0, b=1.0, a1=2.0)
    target = sm.g_semicircle(sm.default_contour().nodes)
    target[17] = bad
    with pytest.raises(DomainError, match="target values must be finite"):
        rf.rate_I_variational(target, 1.0, ens, n=8, delta=0.05, restarts=1, iters=1)


def test_variational_rejects_an_alpha_other_than_the_ensembles():
    ens = ml.WignerEnsemble(1.0, b=1.0, a1=2.0)
    target = sm.g_semicircle(sm.default_contour().nodes)
    with pytest.raises(DomainError, match="differs from the ensemble"):
        rf.rate_I_variational(target, 0.5, ens, n=8, delta=0.05, restarts=1, iters=1)


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


def serial_rate_I_variational(target, alpha, ens, n, delta, restarts, iters, init=None):
    """The search one restart after another, one solve per candidate: the oracle.

    Returns the estimate and the number of restarts whose start was feasible.
    """
    nodes = sm.default_contour().nodes
    tvals = np.asarray(target, dtype=complex)
    scale = n ** (1.0 / alpha)

    def feasible(h) -> bool:
        deform = sm.Measure1D.from_atoms(scale * h)
        g = sm.freeconv_transform(deform, nodes)
        return float(np.max(np.abs(g - tvals))) < delta

    def cost(h) -> float:
        return ens.b * float(np.sum(np.abs(h) ** alpha))

    best, started = math.inf, 0
    seeds = [np.zeros(n)]
    if init is not None:
        seeds.append(np.asarray(init, dtype=float))
    for restart in range(restarts):
        gen = rng.philox(2, restart)
        if restart < len(seeds):
            cur = seeds[restart].copy()
        else:
            base = seeds[-1]
            cur = base + 0.1 * gen.normal(size=n) * (np.abs(base).max() + 0.1)
        if not feasible(cur):
            continue
        started += 1
        cur_val = cost(cur)
        for _ in range(iters):
            move = gen.integers(3)
            cand = cur.copy()
            if move == 0:
                cand *= 1.0 - 10 ** gen.uniform(-3, -0.7)
            elif move == 1:
                k = int(gen.integers(n))
                cand[k] *= 1.0 - 10 ** gen.uniform(-3, -0.7)
            else:
                k = int(gen.integers(n))
                cand[k] = 0.0
            val = cost(cand)
            if val < cur_val and feasible(cand):
                cur, cur_val = cand, val
        best = min(best, cur_val)
    return best, started


def two_atom_target(theta):
    nu = sm.Measure1D(np.array([-theta, theta]), np.array([0.5, 0.5]))
    return sm.freeconv_transform(nu, sm.default_contour().nodes)


def split_init(n, theta):
    return np.concatenate([np.full(n // 2, theta), np.full(n // 2, -theta)]) / n


# the interior contour node at which the departing lockstep case moves its target
INTERIOR = 31

# (theta, alpha, n, delta, restarts, iters, with init, feasible starts):
# criterion 11 first; its zero start is infeasible, so restart 0 drops out
LOCKSTEP_CASES = [
    (2.0, 1.0, 32, 0.01, 50, 120, True, "some"),
    (2.0, 1.0, 8, 0.01, 8, 40, True, "some"),
    (1.0, 1.0, 16, 0.05, 8, 40, True, "some"),
    (0.5, 0.7, 16, 0.01, 8, 40, False, "some"),
    (1.0, 0.7, 16, 0.05, 8, 40, False, "some"),
    (0.5, 1.0, 8, 0.05, 8, 40, False, "all"),
    (2.0, 1.0, 16, 10.0, 4, 20, True, "all"),
    (2.0, 1.0, 8, 10.0, 4, 20, False, "all"),
    (1.0, 1.0, 8, 0.01, 8, 40, False, "none"),
    (2.0, 1.5, 16, 0.05, 4, 20, True, "none"),
    # theta as (theta, shift): the two-atom target moved by shift = delta at
    # the node INTERIOR alone, so a candidate can pass both end nodes and
    # still fail there
    pytest.param((1.0, 0.05), 1.0, 16, 0.05, 8, 40, True, "some", id="interior-departure"),
]


def count_solves(monkeypatch, target, delta):
    """Wrap the search's `_freeconv_rows` with counters: candidates solved at
    the first contour node, node solves, and candidates rejected by a solve
    at interior nodes only."""
    nodes = sm.default_contour().nodes
    solve = rf._freeconv_rows
    counts = {"screened": 0, "node_solves": 0, "interior_rejects": 0}

    def counted(points, z):
        g = solve(points, z)
        at = np.isin(nodes, z)
        assert np.array_equal(nodes[at], z)
        counts["node_solves"] += g.size
        if at[0]:
            counts["screened"] += len(points)
        elif not at[-1]:
            counts["interior_rejects"] += int(np.count_nonzero(
                ~(np.abs(g - target[at]) < delta).all(axis=1)))
        return g

    monkeypatch.setattr(rf, "_freeconv_rows", counted)
    return counts


@pytest.mark.parametrize("theta, alpha, n, delta, restarts, iters, with_init, starts", LOCKSTEP_CASES)
def test_variational_lockstep_matches_serial_search(theta, alpha, n, delta, restarts, iters,
                                                    with_init, starts, monkeypatch):
    # the restarts advance together and share each step's solve, but every
    # restart draws and accepts as it would alone, so the estimate is the
    # serial search's bit for bit
    ens = ml.WignerEnsemble(alpha, b=1.0, a1=2.0)
    theta, shift = theta if isinstance(theta, tuple) else (theta, 0.0)
    target = two_atom_target(theta)
    if shift:
        target[INTERIOR] += shift
    init = split_init(n, theta) if with_init else None
    want, started = serial_rate_I_variational(target, alpha, ens, n, delta, restarts, iters, init)
    assert {"none": started == 0, "some": 0 < started < restarts, "all": started == restarts}[starts]
    counts = count_solves(monkeypatch, target, delta)
    got = rf.rate_I_variational(target, alpha, ens, n=n, delta=delta, restarts=restarts,
                                iters=iters, init=init)
    assert got == want
    assert (got == math.inf) == (starts == "none")
    if shift:
        # the end-node screen passed these, and only the interior solve rejected them
        assert counts["interior_rejects"] > 0


def test_criterion_11_search_solves_at_most_a_quarter_of_its_nodes(monkeypatch):
    # unscreened, criterion 11's search solves its 2 917 candidates at all 64
    # nodes; the end-node screen leaves the other 62 to the few it passes
    # (32 370 node solves, 17 %); a work count, not a timing
    theta, alpha, n = 2.0, 1.0, 32
    target = two_atom_target(theta)
    counts = count_solves(monkeypatch, target, 0.01)
    est = rf.rate_I_variational(target, alpha, ml.WignerEnsemble(alpha, b=1.0, a1=2.0), n=n,
                                delta=0.01, restarts=50, iters=120, init=split_init(n, theta))
    assert est == 1.9095724902146265
    assert counts["screened"] == 2917
    assert counts["node_solves"] <= 2917 * 64 / 4

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavylab import freeprob as fp
from heavylab import matrixlab as ml
from heavylab.errors import DomainError

from oracles import all_pairings_count

CATALAN = [1, 1, 2, 5, 14, 42]


def test_tau_basic_words():
    assert fp.tau_semicircular(fp.NCPolynomial(((1.0, (1, 1)),), 1)) == 1.0
    assert fp.tau_semicircular(fp.NCPolynomial(((1.0, (1, 1, 1, 1)),), 1)) == 2.0
    assert fp.tau_semicircular(fp.NCPolynomial(((1.0, (1, 2, 1, 2)),), 2)) == 0.0
    assert fp.tau_semicircular(fp.NCPolynomial(((1.0, (1, 1, 1)),), 1)) == 0.0


@pytest.mark.parametrize("k", range(6))
def test_tau_even_powers_are_catalan(k):
    poly = fp.NCPolynomial(((1.0, (1,) * (2 * k)),), 1)
    assert fp.tau_semicircular(poly) == CATALAN[k]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=0, max_size=10))
def test_tau_matches_brute_force_enumeration(word):
    word = tuple(word)
    assert fp._nc_pairings(word) == all_pairings_count(word)


def test_tau_exhaustive_short_words():
    for length in range(0, 7):
        for word in product((1, 2), repeat=length):
            assert fp._nc_pairings(word) == all_pairings_count(word)


def test_homogeneous_part():
    poly = fp.NCPolynomial(((1.0, (1,)), (1.0, (1, 1, 1))), 1)
    cubic = fp.homogeneous_part(poly, 3)
    assert cubic == fp.NCPolynomial(((1.0, (1, 1, 1)),), 1)
    assert fp.homogeneous_part(poly, 2).monomials == ()


def test_eval_trace_identity_and_swap():
    eye = ml.HermitianMatrix(np.eye(4))
    assert fp.eval_trace(fp.NCPolynomial(((1.0, (1,)),), 1), (eye,), normalize=True) == pytest.approx(1.0)
    swap = ml.HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    sq = fp.NCPolynomial.word_power(1, 2)
    assert fp.eval_trace(sq, (swap,), normalize=True) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        fp.eval_trace(sq, (eye, ml.HermitianMatrix(np.eye(3))))
    with pytest.raises(DomainError):
        fp.eval_trace(fp.NCPolynomial(((1.0, (2,)),), 2), (eye,))


def test_eval_trace_reads_the_letters_the_polynomial_uses():
    # the same monomials, declared over one letter and over two
    one, two = (fp.NCPolynomial(((1.0, (1,)),), p) for p in (1, 2))
    assert one.monomials == two.monomials
    eye = ml.HermitianMatrix(np.eye(3))
    assert fp.eval_trace(one, (eye,)) == fp.eval_trace(two, (eye,)) == 3.0


def test_eval_trace_unitary_conjugation_invariance():
    rng = np.random.default_rng(2)
    poly = fp.NCPolynomial(((1.0, (1, 2, 1, 2)), (0.5, (2, 2, 1))), 2)
    a = ml.HermitianMatrix(rng.normal(size=(9, 9)))
    b = ml.HermitianMatrix(rng.normal(size=(9, 9)))
    q, _ = np.linalg.qr(rng.normal(size=(9, 9)))
    ca = ml.HermitianMatrix(q.T @ a.mat @ q)
    cb = ml.HermitianMatrix(q.T @ b.mat @ q)
    before = fp.eval_trace(poly, (a, b), normalize=True)
    after = fp.eval_trace(poly, (ca, cb), normalize=True)
    assert after == pytest.approx(before, rel=1e-9, abs=1e-9)


def test_trace_quartic_monte_carlo():
    # normalized trace of the fourth power near the second Catalan number
    n, replicas = 500, 20
    ens = ml.unit_variance_ensemble(1.0)
    quartic = fp.NCPolynomial.word_power(1, 4)
    vals = []
    for s in range(replicas):
        x = ml.sample_wigner(ens, n, seed=8, stream=s)
        x = ml.HermitianMatrix(x.mat * (1 / math.sqrt(n)))
        vals.append(fp.eval_trace(quartic, (x,), normalize=True))
    assert abs(np.mean(vals) - 2.0) < 0.05


def test_deterministic_equivalent_poly():
    cubic = fp.NCPolynomial.word_power(1, 3)
    zero = ml.HermitianMatrix(np.zeros((6, 6)))
    assert fp.deterministic_equivalent_poly(cubic, (zero,), 6) == pytest.approx(0.0)
    h = 1.7
    hd = ml.HermitianMatrix(np.diag([h] + [0.0] * 5))
    assert fp.deterministic_equivalent_poly(cubic, (hd,), 6) == pytest.approx(h**3)
    theta = 0.8
    spike = ml.spike_matrix(5, theta)
    for d in (2, 3, 4):
        pd = fp.NCPolynomial.word_power(1, d)
        expected = fp.tau_semicircular(pd) + theta**d
        assert fp.deterministic_equivalent_poly(pd, (spike,), 5) == pytest.approx(expected)


def test_deterministic_equivalent_monte_carlo():
    # deformed cubic trace near tr P_3(H) = 1 with spike scaling n^(1/3)
    n, replicas = 500, 20
    ens = ml.unit_variance_ensemble(1.0)
    cubic = fp.NCPolynomial.word_power(1, 3)
    spike = ml.spike_matrix(n, 1.0)
    vals = []
    for s in range(replicas):
        x = ml.sample_wigner(ens, n, seed=21, stream=s)
        y = ml.HermitianMatrix(x.mat / math.sqrt(n) + n ** (1.0 / 3.0) * spike.mat)
        vals.append(fp.eval_trace(cubic, (y,), normalize=True))
    assert abs(np.mean(vals) - 1.0) < 0.1


def test_word_length_cap():
    with pytest.raises(DomainError):
        fp.NCPolynomial(((1.0, (1,) * 17),), 1)

import math

import numpy as np
import pytest
from scipy.stats import kstest

from heavylab import matrixlab as ml
from heavylab import measures
from heavylab import specmeasures as sm
from heavylab.errors import DomainError

from oracles import cdf_two_sided


def schatten(a, q):
    """Eigenvalue norm (tr |A|^q)^(1/q) via the spectrum (the paper's Schatten
    norm; no product path reads it)."""
    assert q > 0
    return float(np.sum(np.abs(a.spectrum()) ** q) ** (1.0 / q))


def random_pair(rng, n, scale=1.0):
    a = ml.HermitianMatrix(rng.normal(size=(n, n)) * scale)
    b = ml.HermitianMatrix(rng.normal(size=(n, n)) * scale)
    return a, b


# ------------------------------------------------------------------- energy


def test_energy_zero_and_identity():
    ens = ml.WignerEnsemble(1.0, b=1.0, a1=1.0)
    zero = ml.HermitianMatrix(np.zeros((3, 3)))
    assert ml.w_alpha_energy(zero, ens) == 0.0
    eye = ml.HermitianMatrix(np.eye(2))
    assert ml.w_alpha_energy(eye, ens) == pytest.approx(2.0)


def test_energy_homogeneity():
    rng = np.random.default_rng(0)
    for alpha in (0.5, 1.0, 1.7):
        ens = ml.WignerEnsemble(alpha, b=0.7, a1=1.3, a2=0.9, beta=2)
        a = ml.HermitianMatrix(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        w1 = ml.w_alpha_energy(a, ens)
        w3 = ml.w_alpha_energy(a.scale(3.0), ens)
        assert w3 == pytest.approx(3.0**alpha * w1, rel=1e-12)


# ----------------------------------------------------------------- sampling


def test_sample_symmetric_and_deterministic():
    ens = ml.unit_variance_ensemble(1.0)
    x = ml.sample_wigner(ens, 20, seed=5)
    assert np.array_equal(x.mat, x.mat.T)
    y = ml.sample_wigner(ens, 20, seed=5)
    assert np.array_equal(x.mat, y.mat)
    z = ml.sample_wigner(ens, 20, seed=5, stream=1)
    assert not np.array_equal(x.mat, z.mat)


def test_sample_hermitian_adjoint():
    ens = ml.unit_variance_ensemble(1.5, beta=2)
    x = ml.sample_wigner(ens, 15, seed=9)
    assert np.array_equal(x.mat, x.mat.conj().T)
    assert np.all(x.mat.diagonal().imag == 0)


@pytest.mark.parametrize("beta", [1, 2])
def test_built_matrices_are_read_only_with_n_and_beta(beta):
    ens = ml.unit_variance_ensemble(1.0, beta=beta)
    x = ml.sample_wigner(ens, 6, seed=3)
    for m in (x, x.scale(0.5), ml.HermitianMatrix(np.array(x.mat))):
        assert not m.mat.flags.writeable
        assert (m.n, m.beta) == (6, beta)
        with pytest.raises(ValueError):
            m.mat[0, 0] = 1.0
    assert np.array_equal(x.scale(0.5).mat, x.mat * 0.5)


def test_unit_variance_offdiagonal_moment():
    # 82 replicas x 1225 entries > 1e5 draws per beta
    for beta in (1, 2):
        ens = ml.unit_variance_ensemble(1.0, beta=beta)
        vals = []
        for stream in range(82):
            x = ml.sample_wigner(ens, 50, seed=123, stream=stream)
            iu = np.triu_indices(50, k=1)
            vals.append(np.abs(x.mat[iu]) ** 2)
        vals = np.concatenate(vals)
        assert vals.size >= 10**5
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) < 3 * se


def test_unit_variance_coefficients_pinned():
    # one coefficient b = a1 = a2, (m2)^(alpha/2) for beta = 1 and
    # (2 m2)^(alpha/2) for beta = 2, with the bits of the closed form
    pinned = {
        (0.3, 1): "0x1.769c7e51e2f7ep+2",
        (0.3, 2): "0x1.9fa8428719022p+2",
        (1.0, 1): "0x1.6a09e667f3bccp+0",
        (1.0, 2): "0x1.ffffffffffffep+0",
        (2.0, 1): "0x1.ffffffffffffbp-2",
        (2.0, 2): "0x1.ffffffffffffbp-1",
    }
    for (alpha, beta), coef in pinned.items():
        ens = ml.unit_variance_ensemble(alpha, beta=beta)
        assert (ens.b.hex(), ens.a1.hex(), ens.a2.hex()) == (coef, coef, coef)
        assert (ens.alpha, ens.beta) == (alpha, beta)


@pytest.mark.parametrize("alpha", [0.01, 0.0105, 0.0138, 0.00775312])
def test_unit_variance_coefficient_where_the_variance_overflows(alpha):
    # E|X|^2 overflows a double below alpha ~ 0.01387, while the coefficient
    # m2^(alpha/2) stays moderate (e^5.25 at alpha = 0.01); it comes from logs
    with pytest.raises(DomainError, match="moment 2"):
        measures.moment(measures.nu(alpha), 2)
    log_m2 = math.lgamma(3.0 / alpha) - math.lgamma(1.0 / alpha)
    for beta, spread in ((1, 1.0), (2, 2.0)):
        ens = ml.unit_variance_ensemble(alpha, beta=beta)
        want = math.exp(alpha / 2.0 * (log_m2 + math.log(spread)))
        assert math.isfinite(ens.b) and ens.b == pytest.approx(want, rel=1e-12)
        assert ens.b == ens.a1 == ens.a2
    if alpha == 0.01:
        assert ml.unit_variance_ensemble(alpha).b == pytest.approx(math.exp(5.25), rel=1e-3)


@pytest.mark.parametrize("coefficient", ["b", "a1", "a2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ensemble_rejects_non_finite_coefficients(coefficient, bad):
    # b = nan once ended in a LinAlgError from the eigensolve, and b = inf
    # in a zero diagonal
    for beta in (1, 2):
        with pytest.raises(DomainError, match="must be finite"):
            ml.WignerEnsemble(1.0, beta=beta, **{coefficient: bad})


def test_scalar_matrix_law_matches_scaled_base_law():
    # n=1 draws follow the diagonal law: b^(-1/alpha) times the base law
    ens = ml.WignerEnsemble(0.5, b=2.0, a1=1.0)
    draws = np.array(
        [ml.sample_wigner(ens, 1, seed=77, stream=s).mat[0, 0] for s in range(4000)]
    )
    scale = ens.diag_scale
    cdf = lambda x: cdf_two_sided(0.5, np.asarray(x) / scale)
    assert kstest(draws, cdf).pvalue > 0.001


def test_largest_eigenvalue_near_two():
    ens = ml.unit_variance_ensemble(1.0)
    tops = [
        ml.sample_wigner(ens, 200, seed=31, stream=s).scale(1 / math.sqrt(200)).largest_eig()
        for s in range(50)
    ]
    assert abs(np.mean(tops) - 2.0) < 0.15


def test_largest_eig_does_not_depend_on_the_cached_spectrum():
    ens = ml.unit_variance_ensemble(0.5, beta=2)
    first = ml.sample_wigner(ens, 60, seed=8)
    top = first.largest_eig()
    first.spectrum()
    assert first.largest_eig() == top
    second = ml.sample_wigner(ens, 60, seed=8)
    second.spectrum()
    assert second.largest_eig() == top


# ----------------------------------------------------------------- spectrum


def test_spectrum_diagonal_and_two_by_two():
    d = ml.HermitianMatrix(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(d.spectrum(), [-1.0, 2.0, 3.0])
    swap = ml.HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(swap.spectrum(), [-1.0, 1.0])


def test_writing_into_a_spectrum_leaves_later_calls_alone():
    d = ml.HermitianMatrix(np.diag([3.0, -1.0, 2.0]))
    first = d.spectrum()
    first[:] = 0.0
    assert d.spectrum().tolist() == [-1.0, 2.0, 3.0]
    assert schatten(d, 1.0) == 6.0


def test_spectrum_trace_identity_and_residual():
    rng = np.random.default_rng(3)
    a = ml.HermitianMatrix(rng.normal(size=(40, 40)))
    lam = a.spectrum()
    norm = a.lp_norm(2.0)
    assert abs(lam.sum() - np.trace(a.mat)) <= 1e-9 * a.n * norm
    w, v = np.linalg.eigh(a.mat)
    for k in (0, 17, 39):
        assert np.linalg.norm(a.mat @ v[:, k] - w[k] * v[:, k]) <= 1e-9 * norm


def char_poly_coeffs(a):
    """Characteristic polynomial [1, c_{n-1}, ..., c_0] by Faddeev-LeVerrier,
    independent of any eigensolver."""
    m = np.asarray(a.mat, dtype=complex)
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    mk = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        mk = m @ mk
        ck = -np.trace(mk) / k
        coeffs[k] = ck
        mk += ck * np.eye(n)
    return coeffs


def test_spectrum_against_char_poly_roots():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = ml.HermitianMatrix(rng.normal(size=(8, 8)))
        mine = a.spectrum()
        roots = np.sort(np.roots(char_poly_coeffs(a)).real)
        assert np.max(np.abs(mine - roots)) < 1e-8


def test_esm_basics():
    c = ml.HermitianMatrix(np.array([[2.5]]))
    m = c.esm()
    assert m.atoms.tolist() == [2.5] and m.weights.tolist() == [1.0]
    rng = np.random.default_rng(4)
    a = ml.HermitianMatrix(rng.normal(size=(12, 12)))
    esm = a.esm()
    mean = float(np.dot(esm.atoms, esm.weights))
    assert mean == pytest.approx(np.trace(a.mat) / a.n, rel=1e-10, abs=1e-12)


def test_esm_close_to_semicircle_at_n400():
    ens = ml.unit_variance_ensemble(1.0)
    ref = sm.semicircle_measure(2000)
    dists = []
    for stream in range(10):
        x = ml.sample_wigner(ens, 400, seed=2, stream=stream).scale(1 / 20.0)
        dists.append(sm.distance_d(x.esm(), ref))
    assert np.mean(dists) < 0.05


# -------------------------------------------------------------------- norms


def test_norms_basics():
    eye = ml.HermitianMatrix(np.eye(3))
    assert eye.lp_norm(2.0) == pytest.approx(math.sqrt(3.0))
    d = ml.HermitianMatrix(np.diag([1.0, -2.0, 0.5]))
    for q in (0.5, 1.0, 2.0, 3.0):
        assert schatten(d, q) == pytest.approx(
            float(np.sum(np.abs([1, -2, 0.5]) ** q) ** (1 / q))
        )
    with pytest.raises(DomainError):
        eye.lp_norm(0.0)


def test_schatten_below_entrywise_norm():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        a = ml.HermitianMatrix(rng.normal(size=(n, n)))
        for q in (0.5, 1.0, 1.5, 2.0):
            assert schatten(a, q) <= a.lp_norm(q) * (1 + 1e-12)


def test_rho_values():
    assert ml.rho(0.5) == 2.0
    assert ml.rho(1.0) == 2.0
    assert ml.rho(2.0) == 2.5
    xs = np.linspace(-3, 5, 401)
    vals = np.array([ml.rho(float(x)) for x in xs])
    assert np.all(np.diff(vals) >= 0)
    assert np.max(np.abs(np.diff(vals))) <= (xs[1] - xs[0]) + 1e-12


# ------------------------------------------------- spectral variation suites


def test_lidskii_wasserstein_bound():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(2, 33))
        a, b = random_pair(rng, n)
        diff = ml.HermitianMatrix(a.mat - b.mat)
        for p in (1.0, 1.5, 2.0):
            lhs = sm.wasserstein_p(a.esm(), b.esm(), p)
            rhs = diff.lp_norm(p) / n ** (1.0 / p)
            assert lhs <= rhs + 1e-9
            assert sm.distance_d(a.esm(), b.esm()) <= rhs + 1e-9


def test_rotfeld_bound():
    rng = np.random.default_rng(22)
    for _ in range(200):
        n = int(rng.integers(2, 33))
        a, b = random_pair(rng, n)
        diff = ml.HermitianMatrix(a.mat - b.mat)
        la, lb, ld = a.spectrum(), b.spectrum(), diff.spectrum()
        ts = np.linspace(-3 * math.sqrt(n), 3 * math.sqrt(n), 20)
        for p in (0.25, 0.5, 0.75):
            rhs = np.sum(np.abs(ld) ** p)
            lhs = np.abs(
                np.sum(np.maximum(ts[:, None] - la[None, :], 0) ** p, axis=1)
                - np.sum(np.maximum(ts[:, None] - lb[None, :], 0) ** p, axis=1)
            )
            assert np.all(lhs <= rhs + 1e-9)
            # transform distance controlled by the entrywise quasi-norm
            dd = sm.distance_d(a.esm(), b.esm())
            assert dd <= sm.cp_constant(p) * diff.lp_norm(p) ** p / n + 1e-9


def test_weyl_stability():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 20))
        a = ml.HermitianMatrix(rng.normal(size=(n, n)))
        e = ml.HermitianMatrix(0.1 * rng.normal(size=(n, n)))
        assert abs(ml.HermitianMatrix(a.mat + e.mat).largest_eig() - a.largest_eig()) <= e.lp_norm(2.0) + 1e-12


# -------------------------------------------------- free convolution MC audit


def test_freeconv_matches_monte_carlo_histogram():
    # two-point deformation: X/sqrt(n) + H with H = diag(+-2) halves
    n, replicas = 600, 200
    ens = ml.unit_variance_ensemble(1.0)
    h = np.concatenate([np.full(n // 2, 2.0), np.full(n // 2, -2.0)])
    nodes = sm.default_contour().nodes
    acc = np.zeros(nodes.size, dtype=complex)
    for stream in range(replicas):
        x = ml.sample_wigner(ens, n, seed=44, stream=stream)
        mat = ml.HermitianMatrix(x.mat / math.sqrt(n) + np.diag(h))
        acc += sm.stieltjes(mat.esm(), nodes)
    mc = acc / replicas
    nu = sm.Measure1D(np.array([-2.0, 2.0]), np.array([0.5, 0.5]))
    g = sm.freeconv_transform(nu, nodes)
    assert sm.transform_distance(mc, g) < 0.05


def test_strict_upper_mask_cached_read_only():
    mask = ml._strict_upper(7)
    assert ml._strict_upper(7) is mask and not mask.flags.writeable
    vals = np.arange(21.0)
    rows, cols = np.triu_indices(7, k=1)
    a = np.zeros((7, 7))
    a[mask] = vals
    a.T[mask] = -vals
    b = np.zeros((7, 7))
    b[rows, cols] = vals
    b[cols, rows] = -vals
    assert np.array_equal(a, b)

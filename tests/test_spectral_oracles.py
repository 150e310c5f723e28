"""The spectral replica loop against the per-functional loops it replaced.

The oracles below are the earlier construction: `sample_wigner` filled the
upper triangle and every matrix (sample, scaled copy, spiked copy) was
rebuilt from its upper triangle.  Each audit and curve had its own replica
loop.  The single loop must reproduce them bit for bit.
"""

import math

import numpy as np
import pytest

from heavylab import experiments as ex
from heavylab import matrixlab as ml
from heavylab import measures, openblas
from heavylab import specmeasures as sm
from heavylab.freeprob import NCPolynomial, eval_trace, homogeneous_part, tau_semicircular


class RebuiltMatrix:
    """Self-adjoint matrix rebuilt from the upper triangle on every construction (oracle)."""

    def __init__(self, upper):
        upper = np.asarray(upper)
        u = np.triu(upper, 1)
        if np.iscomplexobj(upper):
            self.mat = u + u.conj().T + np.diag(np.real(np.diag(upper)))
        else:
            self.mat = u + u.T + np.diag(np.diag(upper).astype(float))
        self.n = upper.shape[0]

    def scale(self, t):
        return RebuiltMatrix(self.mat * t)

    def largest_eig(self):
        # the top-only kernel `HermitianMatrix.largest_eig` uses: this oracle
        # checks how the matrices are built, not the eigensolver
        return openblas.largest_eigvalsh(self.mat)

    def esm(self):
        return sm.Measure1D.from_atoms(np.linalg.eigvalsh(self.mat))


def upper_sample_wigner(ens, n, seed, stream=0):
    """Upper-triangle fill, then the rebuild (oracle)."""
    law = measures.nu(ens.alpha)
    n_off = n * (n - 1) // 2
    draws = measures.sample(law, n + n_off, seed, stream=2 * stream)
    diag = ens.diag_scale * draws[:n]
    off_re = ens.offdiag_real_scale * draws[n:]
    if ens.beta == ml.BETA_SYMMETRIC:
        upper = np.zeros((n, n))
        upper[np.diag_indices(n)] = diag
        upper[np.triu_indices(n, k=1)] = off_re
        return RebuiltMatrix(upper)
    im_draws = measures.sample(law, n_off, seed, stream=2 * stream + 1)
    upper = np.zeros((n, n), dtype=complex)
    upper[np.diag_indices(n)] = diag
    upper[np.triu_indices(n, k=1)] = off_re + 1j * ens.offdiag_imag_scale * im_draws
    return RebuiltMatrix(upper)


def rebuilt_spike(n, theta):
    upper = np.zeros((n, n))
    upper[0, 0] = theta
    return RebuiltMatrix(upper)


def spectral_replicas(config, n):
    """Per-replica audit values, scaled by the reciprocal root (oracle)."""
    ens = ml.unit_variance_ensemble(config.alpha, beta=config.beta)
    nodes = sm.default_contour().nodes
    root = math.sqrt(n)
    if config.functional == "largest_eig":
        def one(stream):
            x = upper_sample_wigner(ens, n, config.seed, stream=stream)
            return x.scale(1.0 / root).largest_eig()
    else:
        def one(stream):
            x = upper_sample_wigner(ens, n, config.seed, stream=stream)
            return sm.stieltjes(x.scale(1.0 / root).esm(), nodes)
    return np.array([one(s) for s in range(config.replicas)])


def esm_errors(config, n, spike):
    # the esm curve takes spike 0 alone: the undeformed matrix against the semicircle
    assert spike == 0.0
    ens = ml.unit_variance_ensemble(config.alpha, beta=config.beta)
    nodes = sm.default_contour().nodes
    root = math.sqrt(n)
    target = sm.g_semicircle(nodes)

    def one(stream):
        x = upper_sample_wigner(ens, n, config.seed, stream=stream)
        g = sm.stieltjes(RebuiltMatrix(x.mat / root).esm(), nodes)
        return float(np.max(np.abs(g - target)))

    return np.array([one(s) for s in range(config.replicas)])


def eig_errors(config, n, spike):
    ens = ml.unit_variance_ensemble(config.alpha, beta=config.beta)
    root = math.sqrt(n)
    target = ml.rho(spike)

    def one(stream):
        x = upper_sample_wigner(ens, n, config.seed, stream=stream)
        mat = x.mat / root + rebuilt_spike(n, spike).mat
        return abs(RebuiltMatrix(mat).largest_eig() - target)

    return np.array([one(s) for s in range(config.replicas)])


def poly_errors(config, n, spike):
    poly = NCPolynomial.word_power(1, 3)
    d = poly.total_degree
    ens = ml.unit_variance_ensemble(config.alpha, beta=config.beta)
    root = math.sqrt(n)
    h = rebuilt_spike(n, spike)
    limit = tau_semicircular(poly) + eval_trace(homogeneous_part(poly, d), (h,))

    def one(stream):
        x = upper_sample_wigner(ens, n, config.seed, stream=stream)
        y = RebuiltMatrix(x.mat / root + n ** (1.0 / d) * h.mat)
        return abs(eval_trace(poly, (y,), normalize=True) - limit)

    return np.array([one(s) for s in range(config.replicas)])


ORACLE_ERRORS = {"esm": esm_errors, "eig": eig_errors, "poly": poly_errors}


def config(**kw):
    base = dict(functional="largest_eig", alpha=1.0, n_list=(12, 30), replicas=20, seed=11)
    base.update(kw)
    return ex.ExperimentConfig(**base)


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_sample_wigner_equals_upper_fill(beta, n):
    for ens in (
        ml.unit_variance_ensemble(1.0, beta=beta),
        ml.WignerEnsemble(0.7, b=0.5, a1=2.0, a2=1.3, beta=beta),
    ):
        for stream in (0, 3):
            x = ml.sample_wigner(ens, n, seed=17, stream=stream)
            want = upper_sample_wigner(ens, n, seed=17, stream=stream).mat
            assert x.mat.dtype == want.dtype
            assert np.array_equal(x.mat, want)
            assert np.array_equal(x.spectrum(), np.linalg.eigvalsh(want))


@pytest.mark.parametrize(
    "spike, beta, kind",
    [(spike, beta, kind) for spike in (0.0, 1.5, 2.0) for beta in (1, 2)
     for kind in ("eig", "esm", "poly") if kind != "esm" or spike == 0.0],
)
def test_error_curve_equals_per_functional_loops(kind, beta, spike):
    cfg = config(beta=beta)
    got = ex.equivalent_error_curve(kind, cfg, spike=spike)
    want = []
    for n in cfg.n_list:
        errs = ORACLE_ERRORS[kind](cfg, n, spike)
        want.append((n, float(np.mean(errs)), float(np.std(errs, ddof=1) / math.sqrt(len(errs)))))
    assert got == want


@pytest.mark.parametrize(
    "functional, beta, t_grid",
    [
        ("largest_eig", 1, (0.1, 0.25, 0.5, 1.0)),
        ("largest_eig", 2, (0.1, 0.25, 0.5, 1.0)),
        ("esm_distance", 1, (0.005, 0.02, 0.08, 0.3)),
    ],
)
def test_concentration_audit_equals_per_functional_loop(monkeypatch, functional, beta, t_grid):
    cfg = config(functional=functional, beta=beta, n_list=(40,), replicas=150, t_grid=t_grid)
    got = ex.concentration_audit(cfg)
    # the same reduction over the earlier per-replica values
    monkeypatch.setattr(ex, "_wigner_replicas", lambda c, n, fn, corner=0.0: spectral_replicas(c, n))
    assert got == ex.concentration_audit(cfg)


def test_audit_values_move_by_rounding_only():
    # x / sqrt(n) in place of x * (1 / sqrt(n)): the top eigenvalues agree to rounding
    cfg = config(n_list=(200,), replicas=10)
    got = ex._wigner_replicas(cfg, 200, ml.HermitianMatrix.largest_eig)
    assert np.max(np.abs(got - spectral_replicas(cfg, 200))) <= 1e-13

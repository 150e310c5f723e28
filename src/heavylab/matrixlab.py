"""Heavy-tailed Wigner ensembles: energy, sampling, spectra, norms.

An ensemble is parameterized by the tail exponent alpha and positive
coefficients (b, a1, a2) weighting diagonal, real off-diagonal and
imaginary off-diagonal parts in the matrix energy

    W_alpha(A) = b sum_i |A_ii|^alpha
                 + sum_{i<j} (a1 |Re A_ij|^alpha + a2 |Im A_ij|^alpha).

Entries of a sampled matrix scale the base symmetric law by coef^(-1/alpha),
so each draw comes from the transport-map sampler of `measures` (at
alpha = 1 those are the exact Laplace draws, with no map).
`unit_variance_ensemble` derives one coefficient b = a1 = a2 from
closed-form moments so that E|X_12|^2 = 1.

Spectra come from `openblas.eigvalsh`, the LAPACK call `np.linalg.eigvalsh`
makes, with identical output.  The largest eigenvalue is solved alone by
`openblas.largest_eigvalsh` and agrees with the spectrum's last entry to
rounding.  Both release the interpreter lock, so the replica pool's threads
solve at the same time.  `_replica_cells` gives the memory one sampled
matrix holds until its spectrum is known, which sets how many replicas the
pool runs at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import measures, openblas
from .errors import DomainError
from .specmeasures import Measure1D

BETA_SYMMETRIC = 1
BETA_HERMITIAN = 2


@dataclass(frozen=True)
class WignerEnsemble:
    """Parameters of the heavy-tailed Wigner class."""

    alpha: float
    b: float = 1.0
    a1: float = 1.0
    a2: float = 1.0
    beta: int = BETA_SYMMETRIC

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise DomainError(f"alpha must lie in (0, 2], got {self.alpha}")
        if self.beta not in (BETA_SYMMETRIC, BETA_HERMITIAN):
            raise DomainError(f"beta must be 1 or 2, got {self.beta}")
        if not all(math.isfinite(c) for c in (self.b, self.a1, self.a2)):
            raise DomainError(f"b, a1 and a2 must be finite, got {self.b}, {self.a1}, {self.a2}")
        if self.b <= 0 or self.a1 <= 0:
            raise DomainError("b and a1 must be positive")
        if self.beta == BETA_HERMITIAN and self.a2 <= 0:
            raise DomainError("a2 must be positive for the Hermitian class")

    @property
    def diag_scale(self) -> float:
        return self.b ** (-1.0 / self.alpha)

    @property
    def offdiag_real_scale(self) -> float:
        return self.a1 ** (-1.0 / self.alpha)

    @property
    def offdiag_imag_scale(self) -> float:
        return self.a2 ** (-1.0 / self.alpha)


def unit_variance_ensemble(alpha: float, beta: int = BETA_SYMMETRIC) -> WignerEnsemble:
    """The ensemble with E|X_12|^2 = 1 and one coefficient b = a1 = a2.

    For beta = 1 the off-diagonal scale c has c^2 m2 = 1, i.e. a1 = c^-alpha;
    for beta = 2 the real and imaginary parts carry variance 1/2 each.
    Below alpha ~ 0.01387 the variance overflows a double while the
    coefficient stays moderate (e^5.25 at alpha = 0.01), so there it is
    taken from logs; elsewhere it is the plain power, whose last bit the
    log form would move.
    """
    law = measures.nu(alpha)
    spread = 1.0 if beta == BETA_SYMMETRIC else 2.0
    try:
        var = spread * measures.moment(law, 2)
    except DomainError:
        var = math.inf
    if var < math.inf:
        coef = var ** (alpha / 2.0)
    else:
        coef = math.exp(alpha / 2.0 * (measures.log_moment(law, 2) + math.log(spread)))
    return WignerEnsemble(alpha, b=coef, a1=coef, a2=coef, beta=beta)


class HermitianMatrix:
    """Dense self-adjoint matrix, read-only.

    ``HermitianMatrix(upper)`` takes a square array from outside (a
    rate-function search, a test) and builds the stored matrix from its
    upper triangle: the strict lower triangle is replaced by the mirrored
    (conjugated) upper one and the diagonal by its real part.  Matrices
    made here -- `sample_wigner`, `scale` -- are exactly self-adjoint
    already and are wrapped as they are, with no second build.
    """

    __slots__ = ("mat", "n", "beta")

    def __init__(self, upper: np.ndarray):
        upper = np.asarray(upper)
        if upper.ndim != 2 or upper.shape[0] != upper.shape[1]:
            raise DomainError("need a square array")
        u = np.triu(upper, 1)
        if np.iscomplexobj(upper):
            full = u + u.conj().T + np.diag(np.real(np.diag(upper)))
        else:
            full = u + u.T + np.diag(np.diag(upper).astype(float))
        self._adopt(full)

    @classmethod
    def _wrap(cls, full: np.ndarray) -> "HermitianMatrix":
        """Wrap an exactly self-adjoint array as is; the array becomes read-only."""
        obj = cls.__new__(cls)
        obj._adopt(full)
        return obj

    def _adopt(self, full: np.ndarray) -> None:
        full.setflags(write=False)
        self.mat = full
        self.n = full.shape[0]
        self.beta = BETA_HERMITIAN if np.iscomplexobj(full) else BETA_SYMMETRIC

    def scale(self, t: float) -> "HermitianMatrix":
        """The matrix times the real number t."""
        return HermitianMatrix._wrap(self.mat * float(t))

    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues, a new array per call (`openblas.eigvalsh`)."""
        return openblas.eigvalsh(self.mat)

    def largest_eig(self) -> float:
        """Largest eigenvalue, solved alone (`openblas.largest_eigvalsh`).

        It agrees with ``spectrum()[-1]`` to rounding, not bit for bit.
        """
        return openblas.largest_eigvalsh(self.mat)

    def esm(self) -> Measure1D:
        """Empirical spectral measure: eigenvalue atoms, uniform weights."""
        return Measure1D.from_atoms(self.spectrum())

    def lp_norm(self, p: float) -> float:
        """Entrywise norm (sum_{i,j} |A_ij|^p)^(1/p)."""
        if p <= 0:
            raise DomainError("lp_norm needs p > 0")
        return float(np.sum(np.abs(self.mat) ** p) ** (1.0 / p))


@lru_cache(maxsize=8)
def _strict_upper(n: int) -> np.ndarray:
    """Read-only boolean mask of the strict upper triangle, per n.

    Boolean indexing visits it in row-major order, the order of the draws;
    on the transposed view it addresses the mirrored lower triangle.
    """
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def w_alpha_energy(a: HermitianMatrix, ens: WignerEnsemble) -> float:
    """Matrix energy W_alpha(A); homogeneous of degree alpha."""
    m = a.mat
    alpha = ens.alpha
    diag = ens.b * np.sum(np.abs(np.diag(m).real) ** alpha)
    off = m[_strict_upper(a.n)]
    total = diag + ens.a1 * np.sum(np.abs(off.real) ** alpha)
    if a.beta == BETA_HERMITIAN:
        total += ens.a2 * np.sum(np.abs(off.imag) ** alpha)
    return float(total)


def sample_wigner(ens: WignerEnsemble, n: int, seed: int, stream: int = 0) -> HermitianMatrix:
    """Draw from the ensemble: entry = coef^(-1/alpha) x (symmetric-law draw).

    Draw order is fixed (diagonal first, then the upper triangle row-major;
    imaginary parts from the following stream), so output is deterministic
    per (seed, n, stream).  The draws fill the diagonal and both triangles
    of one array -- the lower triangle gets the conjugates for beta = 2 --
    which is wrapped without a second build.
    """
    return HermitianMatrix._wrap(_wigner_array(ens, n, seed, stream))


def _wigner_array(ens: WignerEnsemble, n: int, seed: int, stream: int) -> np.ndarray:
    """The writable array `sample_wigner` wraps; the draws are scaled in place
    and written through the real and imaginary views of the array."""
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    law = measures.nu(ens.alpha)
    n_off = n * (n - 1) // 2
    hermitian = ens.beta == BETA_HERMITIAN
    draws = measures.sample(law, n + n_off, seed, stream=2 * stream)
    off = draws[n:]
    off *= ens.offdiag_real_scale
    if hermitian:
        im_off = measures.sample(law, n_off, seed, stream=2 * stream + 1)
        im_off *= ens.offdiag_imag_scale
    full = np.empty((n, n), dtype=complex if hermitian else float)
    full[np.diag_indices(n)] = ens.diag_scale * draws[:n]
    upper = _strict_upper(n)
    # a real array is its own .real
    full.real[upper] = off
    full.real.T[upper] = off
    if hermitian:
        full.imag[upper] = im_off
        full.imag.T[upper] = np.negative(im_off, out=im_off)
    return full


def _replica_cells(n: int, beta: int) -> int:
    """Cells (doubles) one sampled matrix holds at once until its spectrum is known.

    The draw block, the matrix and the eigensolver's copy of it, a complex
    entry counting two cells.
    """
    entry = 1 if beta == BETA_SYMMETRIC else 2
    draws = n + (n * (n - 1) // 2) * entry
    return draws + 2 * entry * n * n


def rho(x: float) -> float:
    """Largest-eigenvalue location of a rank-one additive deformation.

    x + 1/x beyond 1, pinned at the bulk edge 2 below; continuous,
    non-decreasing, 1-Lipschitz.
    """
    if x >= 1.0:
        return x + 1.0 / x
    return 2.0


def spike_matrix(n: int, theta: float) -> HermitianMatrix:
    """theta times the first coordinate projector."""
    upper = np.zeros((n, n))
    upper[0, 0] = theta
    return HermitianMatrix(upper)

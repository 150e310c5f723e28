"""Reference implementations the tests compare the product against.

Each is a direct, unoptimized statement of a quantity that the package
computes another way: the transport map phi and its inverse in closed form,
the laws' distribution functions, a brute-force count of non-crossing
pairings, the free-convolution fixed-point residual, a point mass, and the
additive reference shape for last-passage percolation.
"""

import numpy as np
from scipy.special import gammainc, gammaincc

from heavylab import measures
from heavylab import specmeasures as sm
from heavylab.errors import DomainError


def rearrangement(alpha: float, x: float) -> float:
    """Transport value phi(x) matching exponential and one-sided tails.

    phi solves ``exp(-x) = P(X > phi(x))`` for the one-sided law; the tail
    is a regularized upper incomplete Gamma function, so phi is its inverse
    in closed form.
    """
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"alpha must lie in (0, 2], got {alpha}")
    if x < 0:
        raise DomainError(f"x must be non-negative, got {x}")
    if x > measures._X_MAX:
        raise DomainError(f"x beyond tabulated range [0, {measures._X_MAX}]")
    return float(measures._phi(alpha, x))


def rearrangement_inverse(alpha: float, v):
    """phi^{-1}(v) for v >= 0, exact: -log P(X > v) (vectorized)."""
    v = np.asarray(v, dtype=float)
    scalar = v.ndim == 0
    v = np.atleast_1d(v)
    if np.any(v < 0):
        raise DomainError("inverse map evaluated at negative value")
    a = 1.0 / alpha
    w = v**alpha
    out = gammainc(a, w)
    # -log1p(-P) keeps its digits while P is small, -log Q once Q is
    lo = out < 0.5
    out[lo] = -np.log1p(-out[lo])
    hi = ~lo
    out[hi] = -np.log(gammaincc(a, w[hi]))
    return float(out[0]) if scalar else out


def cdf_one_sided(alpha: float, x) -> np.ndarray:
    """Distribution function of the one-sided law."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = gammainc(1.0 / alpha, np.power(x[pos], alpha))
    return out


def cdf_two_sided(alpha: float, x) -> np.ndarray:
    """Distribution function of the symmetric law."""
    x = np.asarray(x, dtype=float)
    return 0.5 + 0.5 * np.sign(x) * cdf_one_sided(alpha, np.abs(x))


def all_pairings_count(word: tuple) -> int:
    """Brute-force count: enumerate every pairing, keep letter-respecting
    non-crossing ones."""
    n = len(word)
    if n % 2 == 1:
        return 0

    def crossings_free(pairs):
        for (a, b) in pairs:
            for (c, d) in pairs:
                if a < c < b < d:
                    return False
        return True

    def enumerate_pairings(slots):
        if not slots:
            yield []
            return
        first = slots[0]
        for j in range(1, len(slots)):
            partner = slots[j]
            rest = slots[1:j] + slots[j + 1 :]
            for tail in enumerate_pairings(rest):
                yield [(first, partner)] + tail

    count = 0
    for pairing in enumerate_pairings(list(range(n))):
        if all(word[a] == word[b] for a, b in pairing) and crossings_free(pairing):
            count += 1
    return count


def fixed_point_residual(nu: sm.Measure1D, z_nodes, g) -> float:
    """max |G - g_nu(z - G)|, the defining-equation residual."""
    z = np.asarray(z_nodes, dtype=complex)
    return float(np.max(np.abs(g - sm.stieltjes(nu, z - g))))


def dirac(x: float) -> sm.Measure1D:
    """The point mass at x."""
    return sm.Measure1D(np.array([float(x)]), np.array([1.0]))


def additive_g(v) -> float:
    """Exactly superadditive reference shape g(v) = sum_i v_i."""
    return float(np.sum(np.asarray(v, dtype=float)))

"""Non-commutative polynomials and free semicircular moments.

Words are tuples of 1-based letter indices.  The trace state of a free
semicircular family assigns to each word the number of non-crossing pair
partitions of its positions that pair equal letters only; odd words vanish.
Counting splits on the partner of the first position and recurses on the
two enclosed subwords, with memoization on subwords (words are capped at
length 16, so the cap keeps the recursion desk-sized).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

MAX_WORD_LENGTH = 16


@dataclass(frozen=True)
class NCPolynomial:
    """Sum of (coefficient, word) monomials over letters 1..p."""

    monomials: tuple
    p: int

    def __post_init__(self):
        mono = []
        for coeff, word in self.monomials:
            word = tuple(int(w) for w in word)
            if len(word) > MAX_WORD_LENGTH:
                raise DomainError(f"words are capped at length {MAX_WORD_LENGTH}")
            for letter in word:
                if not 1 <= letter <= self.p:
                    raise DomainError(f"letter {letter} outside 1..{self.p}")
            mono.append((complex(coeff), word))
        object.__setattr__(self, "monomials", tuple(mono))

    @property
    def total_degree(self) -> int:
        return max((len(w) for _, w in self.monomials), default=0)

    @staticmethod
    def word_power(i: int, k: int) -> "NCPolynomial":
        """The monomial x_i^k."""
        return NCPolynomial(((1.0, (i,) * k),), i)


@lru_cache(maxsize=100_000)
def _nc_pairings(word: tuple) -> int:
    """Non-crossing pairings of positions, pairing equal letters only."""
    if not word:
        return 1
    if len(word) % 2 == 1:
        return 0
    total = 0
    for k in range(1, len(word), 2):
        if word[k] == word[0]:
            total += _nc_pairings(word[1:k]) * _nc_pairings(word[k + 1 :])
    return total


def tau_semicircular(poly: NCPolynomial):
    """Trace of the polynomial in a free semicircular family.

    Real output for real-coefficient input; complex otherwise.
    """
    total = 0.0 + 0.0j
    for coeff, word in poly.monomials:
        total += coeff * _nc_pairings(word)
    if abs(total.imag) <= 1e-12 * (1.0 + abs(total)):
        return float(total.real)
    return total


def homogeneous_part(poly: NCPolynomial, k: int) -> NCPolynomial:
    """Monomials whose word length equals k (possibly the zero polynomial)."""
    kept = tuple((c, w) for c, w in poly.monomials if len(w) == k)
    return NCPolynomial(kept, poly.p)


def eval_trace(poly: NCPolynomial, mats, normalize: bool = False):
    """Trace of the polynomial evaluated on a tuple of matrices.

    ``normalize`` divides by the common dimension.  Real output when the
    imaginary part is negligible.
    """
    mats = tuple(mats)
    if not mats:
        raise DomainError("need at least one matrix")
    n = mats[0].n
    if any(m.n != n for m in mats):
        raise DomainError("all matrices must share one dimension")
    letters = max((max(word) for _, word in poly.monomials if word), default=0)
    if letters > len(mats):
        raise DomainError(f"polynomial uses {letters} letters, got {len(mats)} matrices")
    total = 0.0 + 0.0j
    for coeff, word in poly.monomials:
        if not word:
            total += coeff * n
            continue
        prod = mats[word[0] - 1].mat
        for letter in word[1:]:
            prod = prod @ mats[letter - 1].mat
        total += coeff * np.trace(prod)
    if normalize:
        total /= n
    if abs(total.imag) <= 1e-9 * (1.0 + abs(total)):
        return float(total.real)
    return total


def deterministic_equivalent_poly(poly: NCPolynomial, h_mats, n: int):
    """Limit object tau[P(s)] + tr P_d(H) for the deformed trace.

    d is the total degree of the polynomial; H is the tuple of deformation
    matrices (dimension n).
    """
    h_mats = tuple(h_mats)
    if h_mats and any(m.n != n for m in h_mats):
        raise DomainError("deformation matrices must have dimension n")
    head = homogeneous_part(poly, poly.total_degree)
    correction = eval_trace(head, h_mats, normalize=False) if h_mats else 0.0
    return tau_semicircular(poly) + correction

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
    def letter(i: int, p: int | None = None) -> "NCPolynomial":
        return NCPolynomial(((1.0, (i,)),), p or i)

    @staticmethod
    def word_power(i: int, k: int, p: int | None = None) -> "NCPolynomial":
        """The monomial x_i^k."""
        return NCPolynomial(((1.0, (i,) * k),), p or i)

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        p = max(self.p, other.p)
        return NCPolynomial(self.monomials + other.monomials, p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return _collect(self.monomials) == _collect(other.monomials)

    def __hash__(self):
        return hash((tuple(sorted(_collect(self.monomials).items(), key=lambda kv: kv[0])), self.p))

    def to_text(self) -> str:
        if not self.monomials:
            return "0"
        parts = []
        for coeff, word in self.monomials:
            c = repr(coeff) if coeff.imag else repr(coeff.real)
            if word:
                parts.append(f"{c} * " + " ".join(f"x{k}" for k in word))
            else:
                parts.append(c)
        return " + ".join(parts)


def _collect(monomials) -> dict:
    acc: dict[tuple, complex] = {}
    for coeff, word in monomials:
        acc[word] = acc.get(word, 0.0) + coeff
    return {w: c for w, c in acc.items() if c != 0}


def parse_polynomial(text: str, p: int | None = None) -> NCPolynomial:
    """Read the textual format "coeff * x1 x2 x1" with terms joined by '+'.

    The coefficient token is any Python float or complex literal (complex
    coefficients must be parenthesized, e.g. "(1+2j) * x1 x1").  A bare
    coefficient with no word is the constant monomial.
    """
    terms = _split_terms(text)
    monomials = []
    max_letter = 0
    for term in terms:
        if "*" in term:
            coeff_tok, _, word_tok = term.partition("*")
            letters = word_tok.split()
            if not letters:
                raise DomainError(f"empty word in term {term!r}")
            word = []
            for tok in letters:
                if not tok.startswith("x"):
                    raise DomainError(f"expected a letter like x1, got {tok!r}")
                try:
                    word.append(int(tok[1:]))
                except ValueError as exc:
                    raise DomainError(f"bad letter token {tok!r}") from exc
            word = tuple(word)
        else:
            coeff_tok, word = term, ()
        try:
            coeff = complex(coeff_tok.strip())
        except ValueError as exc:
            raise DomainError(f"bad coefficient {coeff_tok!r}") from exc
        monomials.append((coeff, word))
        max_letter = max(max_letter, max(word, default=0))
    letters_needed = max(max_letter, 1)
    return NCPolynomial(tuple(monomials), p or letters_needed)


def _split_terms(text: str) -> list[str]:
    terms, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "+" and depth == 0:
            terms.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    terms.append("".join(cur).strip())
    terms = [t for t in terms if t]
    if not terms:
        raise DomainError("empty polynomial text")
    return terms


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


def all_pairings_count(word: tuple) -> int:
    """Brute-force oracle: enumerate every pairing, keep letter-respecting
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
    if poly.p > len(mats):
        raise DomainError(f"polynomial uses {poly.p} letters, got {len(mats)} matrices")
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

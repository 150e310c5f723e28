"""One-dimensional exponential-power laws and their transport maps.

Two families are supported: the symmetric law with density
``exp(-|x|^alpha) / Y_alpha`` on the line and its one-sided counterpart
``exp(-x^alpha) / Z_alpha`` on the half line, for tail exponents
``alpha in (0, 2]``.  Sampling is routed through the monotone rearrangement
``phi`` that pushes the exponential law onto the one-sided law (odd extension
``psi`` for the symmetric law).  phi has a closed form through the inverse
regularized incomplete Gamma function; draws at alpha != 1 go through a cubic
Hermite table of it.  At alpha = 1 the two laws are the exponential and
Laplace laws, phi is the identity, and the draws are the exact exponential
and Laplace draws of `rng`.
Acceptance criterion 5 checks the draws against a direct inverse-CDF sampler.

The two inverse incomplete-Gamma ufuncs are scipy's own, loaded from the
compiled ``scipy.special._special_ufuncs`` extension by file: running
``scipy/special/__init__.py`` would cost every process about a quarter
second of imports (numpy.f2py and numpy.testing among them) for two
ufuncs that load in about 2 ms.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import DomainError

_GAMMA_UFUNCS = ("gammaincinv", "gammainccinv")


def _incomplete_gamma_ufuncs() -> list:
    """scipy's inverse incomplete-Gamma ufuncs, without importing ``scipy.special``.

    The extension is registered in ``sys.modules`` under its own name, so a
    later ``import scipy.special`` reuses it and exports these very objects
    (and an earlier one is reused here).  Releases that lack the extension,
    or whose extension lacks the two ufuncs, import them from
    ``scipy.special``.
    """
    name = "scipy.special._special_ufuncs"
    module = sys.modules.get(name)
    if module is None:
        stem = os.path.join(
            os.path.dirname(importlib.util.find_spec("scipy").origin), "special", "_special_ufuncs"
        )
        suffixes = importlib.machinery.EXTENSION_SUFFIXES
        paths = [stem + s for s in suffixes if os.path.isfile(stem + s)]
        if paths:
            loader = importlib.machinery.ExtensionFileLoader(name, paths[0])
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            sys.modules[name] = module
            loader.exec_module(module)
    if module is None or not all(hasattr(module, f) for f in _GAMMA_UFUNCS):
        import scipy.special as module
    return [getattr(module, f) for f in _GAMMA_UFUNCS]


gammaincinv, gammainccinv = _incomplete_gamma_ufuncs()

# Upper end of the map's domain; exp(-709) is still a nonzero double.
_X_MAX = 709.0
# Smallest exponent with finite normalizers: Y = 2 Gamma(1 + 1/alpha)
# overflows a double once 1 + 1/alpha exceeds 171.48957582105547.
_ALPHA_MIN = 1.0 / 170.48957582105547


def normalizers(alpha: float) -> tuple[float, float]:
    """Normalizing constants (Y, Z) of the two laws with exponent ``alpha``.

    Z = Gamma(1 + 1/alpha) is the one-sided mass, Y = 2Z the two-sided one.
    """
    if not alpha >= _ALPHA_MIN:
        raise DomainError(
            f"alpha must be at least {_ALPHA_MIN:.6g}, below which the normalizer "
            f"2 Gamma(1 + 1/alpha) overflows a double; got {alpha}"
        )
    z = math.gamma(1.0 + 1.0 / alpha)
    return 2.0 * z, z


def _phi_pow(alpha: float, x) -> np.ndarray:
    """phi(x)**alpha = Q(1/alpha, exp(-x)) for x >= 0 (vectorized).

    Q inverts the regularized upper incomplete Gamma function.  Below
    x = 0.5, where exp(-x) rounds towards 1, the lower function P is
    inverted at 1 - exp(-x) instead.
    """
    x = np.asarray(x, dtype=float)
    a = 1.0 / alpha
    out = np.empty_like(x)
    lo = x < 0.5
    out[lo] = gammaincinv(a, -np.expm1(-x[lo]))
    hi = ~lo
    out[hi] = gammainccinv(a, np.exp(-x[hi]))
    return out


def _phi(alpha: float, x) -> np.ndarray:
    """The transport map phi(x) in closed form (vectorized)."""
    return _phi_pow(alpha, x) ** (1.0 / alpha)


# The table spans t = log x over [log _X_LO, log _X_MAX]; _X_LO lies below
# 2^-53, the smallest nonzero exponential draw.  The largest draw is
# -log 2^-53 = 53 log 2.
_X_LO = 2.0**-60
_T_LO = math.log(_X_LO)
_NODES = 2049
_STEP = (math.log(_X_MAX) - _T_LO) / (_NODES - 1)
# Smallest exponent whose map keeps every draw finite.  Below it the image
# phi(53 log 2) of the largest draw exceeds DBL_MAX (1 - 1e-8), the largest
# value that stays finite under the map's 1e-8 relative tolerance.  It solves
# -log Q(1/alpha, (DBL_MAX (1 - 1e-8))^alpha) = 53 log 2, phi's closed-form
# inverse, bisected to adjacent doubles.
_ALPHA_MAP_MIN = 1.0 / 128.9803418798537


@dataclass(frozen=True)
class RearrangementMap:
    """Tabulated monotone transport map phi.

    y = log phi is tabulated against t = log x on a uniform grid and
    interpolated by cubic Hermite segments whose slopes come from the
    analytic derivative phi'(x) = Z_alpha * exp(phi(x)^alpha - x).  The grid
    index is found by arithmetic; inputs below the first node are evaluated
    in closed form.
    """

    alpha: float
    _coef: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise DomainError(f"alpha must lie in (0, 2], got {self.alpha}")
        if self.alpha < _ALPHA_MAP_MIN:
            raise DomainError(
                f"alpha must be at least {_ALPHA_MAP_MIN:.6g} for the transport map, below "
                f"which phi(53 log 2), the image of the largest draw, is not finite; "
                f"got {self.alpha}"
            )
        t = _T_LO + _STEP * np.arange(_NODES)
        x = np.exp(t)
        w = _phi_pow(self.alpha, x)
        y = np.log(w) / self.alpha
        # dy/dt = x * phi'(x) / phi(x), taken in logs so nothing overflows
        dy = _STEP * np.exp(t + math.lgamma(1.0 + 1.0 / self.alpha) + w - x - y)
        rise = np.diff(y)
        # Hermite segment k in the local coordinate s in [0, 1], low order first
        coef = np.array(
            [y[:-1], dy[:-1], 3.0 * rise - 2.0 * dy[:-1] - dy[1:], dy[:-1] + dy[1:] - 2.0 * rise]
        )
        object.__setattr__(self, "_coef", coef)

    def __call__(self, x):
        """phi(x) for non-negative x (vectorized)."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if np.any(x < 0) or np.any(x > _X_MAX):
            raise DomainError(f"rearrangement map evaluated outside [0, {_X_MAX}]")
        s = np.maximum(x, _X_LO)
        np.log(s, out=s)
        s -= _T_LO
        s /= _STEP
        k = np.minimum(s.astype(np.intp), _NODES - 2)
        s -= k
        # Horner in s; each gather is one temporary of the input's size
        c = self._coef
        out = c[3][k]
        for row in c[2::-1]:
            out *= s
            out += row[k]
        np.exp(out, out=out)
        small = x < _X_LO
        if small.any():
            out[small] = _phi(self.alpha, x[small])
        return float(out[0]) if scalar else out

    def odd(self, x) -> np.ndarray:
        """Odd extension psi(x) = sign(x) * phi(|x|), with psi(-0.0) = +0.0."""
        x = np.asarray(x, dtype=float)
        # x + 0.0 is x, but +0.0 at x = -0.0: psi(-0.0) = sign(-0.0) * phi(0) = +0.0
        return np.copysign(self(np.abs(x)), x + 0.0)


_MAP_LOCK = threading.Lock()
_tabulated = functools.cache(RearrangementMap)


def rearrangement_map(alpha: float) -> RearrangementMap:
    """Shared tabulated map per alpha (maps are immutable), built once,
    by whichever thread asks first, while the others wait for it."""
    with _MAP_LOCK:
        return _tabulated(float(alpha))


@dataclass(frozen=True)
class AlphaLaw:
    """An exponential-power law: exponent, side, and normalizers."""

    alpha: float
    sided: str  # "two" for the symmetric law, "one" for the half-line law
    Y_alpha: float = field(init=False)
    Z_alpha: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise DomainError(f"alpha must lie in (0, 2], got {self.alpha}")
        if self.sided not in ("two", "one"):
            raise DomainError(f"sided must be 'two' or 'one', got {self.sided!r}")
        y, z = normalizers(self.alpha)
        object.__setattr__(self, "Y_alpha", y)
        object.__setattr__(self, "Z_alpha", z)

    def density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.sided == "two":
            return np.exp(-np.abs(x) ** self.alpha) / self.Y_alpha
        out = np.where(x >= 0, np.exp(-np.abs(x) ** self.alpha), 0.0)
        return out / self.Z_alpha


def nu(alpha: float) -> AlphaLaw:
    """The symmetric law on the line."""
    return AlphaLaw(alpha, "two")


def mu(alpha: float) -> AlphaLaw:
    """The one-sided law on the half line."""
    return AlphaLaw(alpha, "one")


def log_moment(law: AlphaLaw, k: int) -> float:
    """log E|X|^k = lgamma((k+1)/alpha) - lgamma(1/alpha), finite where the moment overflows."""
    if k < 0:
        raise DomainError(f"moment order must be non-negative, got {k}")
    if k == 0:
        return 0.0
    return math.lgamma((k + 1.0) / law.alpha) - math.lgamma(1.0 / law.alpha)


def moment(law: AlphaLaw, k: int) -> float:
    """k-th absolute moment: E|X|^k = Gamma((k+1)/alpha) / Gamma(1/alpha)."""
    try:
        return math.exp(log_moment(law, k))
    except OverflowError:
        raise DomainError(f"moment {k} of the law with alpha={law.alpha} overflows a double") from None


# Draws pass through the map in blocks of this many: a block and the map's
# temporaries stay in cache, where one pass over a whole chunk would not.
_MAP_BLOCK = 2**16


def transport(alpha: float, sided: str, draws: np.ndarray) -> np.ndarray:
    """``draws`` carried onto the law with exponent ``alpha`` and side ``sided``.

    One-sided: exponential draws mapped through phi.  Two-sided: Laplace
    draws mapped through the odd extension psi.  At alpha = 1 the laws are
    the exponential and Laplace laws themselves and phi is the identity, so
    the draws are returned exactly, with no table.  Otherwise the map runs
    over a C-contiguous ``draws`` in place, block by block, and returns it.
    """
    if alpha == 1.0:
        if sided == "two":
            draws += 0.0  # psi(-0.0) = +0.0
        return draws
    tmap = rearrangement_map(alpha)
    map_block = tmap if sided == "one" else tmap.odd
    flat = draws.reshape(-1)
    for lo in range(0, flat.size, _MAP_BLOCK):
        block = flat[lo : lo + _MAP_BLOCK]
        block[:] = map_block(block)
    return draws


def sample(law: AlphaLaw, count: int, seed: int, stream: int | range = 0) -> np.ndarray:
    """i.i.d. draws of ``law``: exponential or Laplace draws of `rng`, carried
    onto it by `transport`.

    Deterministic given (seed, stream).  With a range of streams the result
    has one row of ``count`` draws per stream, each row equal to that
    stream's own draw: one `rng` call fills the whole chunk, resetting one
    local Philox to each stream's key in turn (no state is shared across
    calls), and the map then runs over the chunk in place.
    """
    if count < 0:
        raise DomainError(f"count must be non-negative, got {count}")
    draw = rng.exponentials if law.sided == "one" else rng.laplaces
    return transport(law.alpha, law.sided, draw(seed, stream, count))


def sample_inverse_cdf(law: AlphaLaw, count: int, seed: int, stream: int = 0) -> np.ndarray:
    """Direct inverse-CDF sampler, for acceptance criterion 5; no product path calls it."""
    u = rng.uniforms(seed, stream, count)
    a = law.alpha
    if law.sided == "one":
        return gammaincinv(1.0 / a, u) ** (1.0 / a)
    u2 = rng.philox(seed, stream + 2**32).random(count)
    mag = gammaincinv(1.0 / a, u) ** (1.0 / a)
    return np.where(u2 < 0.5, -1.0, 1.0) * mag

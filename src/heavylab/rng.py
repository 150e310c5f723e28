"""Deterministic random source: one named counter-based generator.

Every stochastic routine in the package draws from Philox4x64 keyed by
``(seed, stream)``.  Philox is a counter-based 64-bit generator whose output
is fixed by specification, so draws are bit-identical across platforms and
independent of thread scheduling.  That carries over to results computed
from draws by exact or elementwise arithmetic, such as last-passage times,
but not to spectra: BLAS eigensolvers can differ in the last digits with
their thread count.  Parallel replicas use ``stream = replica index``; no
generator state is ever shared.

Non-uniform draws are derived from uniforms through explicit inverse-CDF
transforms so the mapping from counter stream to output is documented here
and nowhere else.
"""

from __future__ import annotations

import numpy as np


def philox(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the given (seed, stream) pair."""
    if not (0 <= int(stream)):
        raise ValueError("stream index must be non-negative")
    key = np.array([np.uint64(seed % 2**64), np.uint64(stream % 2**64)])
    return np.random.Generator(np.random.Philox(key=key))


def uniforms(seed: int, stream: int, count: int) -> np.ndarray:
    """``count`` i.i.d. uniforms on [0, 1)."""
    return philox(seed, stream).random(count)


def exponentials(seed: int, stream: int, count: int) -> np.ndarray:
    """Standard exponentials via u -> -log(1 - u)."""
    u = uniforms(seed, stream, count)
    return -np.log1p(-u)


def laplaces(seed: int, stream: int, count: int) -> np.ndarray:
    """Standard symmetric exponentials (Laplace with unit tail exponent).

    Consumes a (2, count) uniform block: row 0 sets the magnitude through
    the exponential inverse CDF, row 1 the sign.
    """
    u = philox(seed, stream).random((2, count))
    mag = -np.log1p(-u[0])
    sign = np.where(u[1] < 0.5, -1.0, 1.0)
    return sign * mag

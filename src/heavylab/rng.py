"""Deterministic random source: one named counter-based generator.

Every stochastic routine in the package draws from Philox4x64 keyed by
``(seed, stream)``.  Philox is a counter-based 64-bit generator whose output
is fixed by specification, so draws are bit-identical across platforms and
independent of thread scheduling.  That carries over to results computed
from draws by exact or elementwise arithmetic, such as last-passage times,
but not to spectra: BLAS eigensolvers can differ in the last digits with
their thread count (the replica pool solves with one BLAS thread, see
`pool`).  Parallel replicas use ``stream = replica index``.

Bulk draws go through one fill: each call builds one local Philox from a
prebuilt seed sequence and, for every stream it covers, resets it to
counter 0 and key ``(seed, stream)`` with an empty output buffer, then
draws straight into that stream's row of the result.  A reset yields
exactly the draws of a fresh ``philox(seed, stream)`` at a fraction of a
generator build, and no generator state is shared between calls.

The bulk draws of the replica engines (uniforms, exponentials, Laplace
draws) are derived here from uniforms through explicit inverse-CDF
transforms.  Other routines draw from a `philox` Generator of their own and
derive their draws where they use them: `nets`' probes, `ratefuncs`'
restarts and the criterion-5 sampler of `measures`.
"""

from __future__ import annotations

import numpy as np


def philox(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the given (seed, stream) pair."""
    if not (0 <= int(stream)):
        raise ValueError("stream index must be non-negative")
    key = np.array([np.uint64(seed % 2**64), np.uint64(stream % 2**64)])
    return np.random.Generator(np.random.Philox(key=key))


# Seeds the local Philox of each fill.  Its key and counter are replaced per
# stream, so the seed is irrelevant; one prebuilt sequence saves the hash a
# fresh seed would cost on every fill.  It is only read, never advanced.
_SEED_SEQUENCE = np.random.SeedSequence(0)


def _fill(seed: int, stream: int | range, shape: tuple) -> np.ndarray:
    """Uniforms on [0, 1): one C-ordered block of ``shape`` per stream.

    A single stream gives an array of ``shape``; a range gives one leading
    row per stream, each equal to ``philox(seed, s).random(shape)``.
    """
    streams = stream if isinstance(stream, range) else (stream,)
    if len(streams) and min(streams[0], streams[-1]) < 0:
        raise ValueError("stream index must be non-negative")
    out = np.empty((len(streams), *shape))
    gen = np.random.Generator(np.random.Philox(_SEED_SEQUENCE))  # key replaced per stream
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.zeros(2, np.uint64)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    key = state["state"]["key"]
    key[0] = int(seed) % 2**64
    for row, s in zip(out, streams):
        key[1] = int(s) % 2**64
        gen.bit_generator.state = state
        gen.random(out=row)
    return out if isinstance(stream, range) else out[0]


def _to_exponential(u: np.ndarray) -> np.ndarray:
    """u -> -log1p(-u) in place: the exponential inverse CDF."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)


def uniforms(seed: int, stream: int | range, count: int) -> np.ndarray:
    """``count`` i.i.d. uniforms on [0, 1) per stream."""
    return _fill(seed, stream, (count,))


def exponentials(seed: int, stream: int | range, count: int) -> np.ndarray:
    """Standard exponentials via u -> -log(1 - u), ``count`` per stream."""
    return _to_exponential(uniforms(seed, stream, count))


def laplaces(seed: int, stream: int | range, count: int) -> np.ndarray:
    """Standard symmetric exponentials (Laplace with unit tail exponent).

    Each stream consumes a (2, count) uniform block: row 0 sets the
    magnitude through the exponential inverse CDF, row 1 the sign (minus
    below 1/2).
    """
    u = _fill(seed, stream, (2, count))
    mag = _to_exponential(u[..., 0, :])
    sign = u[..., 1, :]
    sign -= 0.5
    return np.copysign(mag, sign)

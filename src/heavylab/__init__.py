"""Desk-scale laboratory for heavy-tailed Wigner spectra and last-passage
percolation: transport samplers, weight-function concentration checks,
spectral distances, semicircle free convolution, explicit rate functions,
lattice passage-time dynamic programs, and Monte Carlo audits.

Importing the package loads only its error classes and its version, not
numpy: import each module by name (``from heavylab import measures``).  A
CLI process thereby loads just the modules its command runs.
"""

from .emit import VERSION as __version__
from .errors import (
    AccuracyError,
    ConfigError,
    ConvergenceError,
    DomainError,
    HeavylabError,
)

__all__ = [
    "experiments",
    "freeprob",
    "lpp",
    "matrixlab",
    "measures",
    "ratefuncs",
    "rng",
    "specmeasures",
    "weights",
    "AccuracyError",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "HeavylabError",
    "__version__",
]

"""Desk-scale laboratory for heavy-tailed Wigner spectra and last-passage
percolation: transport samplers, weight-function concentration checks,
spectral distances, semicircle free convolution, explicit rate functions,
lattice passage-time dynamic programs, and Monte Carlo audits.
"""

from . import (
    experiments,
    freeprob,
    lpp,
    matrixlab,
    measures,
    ratefuncs,
    rng,
    specmeasures,
    weights,
)
from .errors import (
    AccuracyError,
    ConfigError,
    ConvergenceError,
    DomainError,
    HeavylabError,
)

__version__ = experiments.VERSION

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

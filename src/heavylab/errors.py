"""Semantic exception hierarchy shared across the package.

The CLI maps these onto exit codes: domain/config problems exit 1,
numerical non-convergence exits 2.
"""


class HeavylabError(Exception):
    """Base class for all package errors."""


class DomainError(HeavylabError, ValueError):
    """Input outside the documented domain of an operation."""


class ConfigError(HeavylabError, ValueError):
    """Malformed configuration (CLI flags or key=value files)."""


class AccuracyError(HeavylabError, RuntimeError):
    """A quadrature or fixed point failed its accuracy contract."""


class ConvergenceError(HeavylabError, RuntimeError):
    """An iterative solver exhausted its budget without converging."""

"""Exception hierarchy.

Estimation-time failures (weak identification, rank problems, non-convergence)
derive from :class:`EstimationError` so Monte Carlo harnesses and the bootstrap
can catch them uniformly; configuration/input problems derive from
:class:`InputError`.
"""

from __future__ import annotations


class LinearIvError(Exception):
    """Base class for all package errors."""


class InputError(LinearIvError):
    """Invalid user input: files, column mappings, term specs, configs."""


class SchemaError(InputError):
    """A required column or config field is missing or malformed."""


class ParseError(InputError):
    """A CSV cell failed to parse as a finite real number."""


class TermSpecError(InputError):
    """A basis term references an out-of-range column or cannot be parsed."""


class EstimationError(LinearIvError):
    """Base class for failures of an estimation run."""


class SingularDesignError(EstimationError):
    """Design matrix is rank deficient."""

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


class DegenerateWeightsError(EstimationError):
    """All weights are zero (or otherwise unusable) in a weighted fit."""


class DegenerateResponseError(EstimationError, ValueError):
    """A binary response holds one class only, so it has no maximum-likelihood
    fit (a bootstrap resample can draw one class).  Also a ValueError, which
    ``fit_binary`` raised for this case before the error was typed."""


class WeakIdentificationError(EstimationError):
    """The estimating-equation denominator is singular or ill-conditioned."""

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


class NonConvergenceError(EstimationError):
    """An iterative fit did not converge and the caller requires convergence."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class UnsupportedCombinationError(EstimationError):
    """The requested model combination has no exact closed form (see docs)."""


class UnreliableBootstrapError(EstimationError):
    """Too many bootstrap resamples failed for the interval to be trusted."""

"""Standard errors and confidence intervals.

Stacked-M-estimation sandwich variance, the conservative influence-function
standard error for the bias-reduced instrument-model estimator, and the
nonparametric percentile bootstrap.  Each resample has its own seed stream,
and resamples run in linked chunks whose size does not change the interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import _linked_estimates
from .errors import SingularDesignError, UnreliableBootstrapError
from .glm import _rowsum
from .rng import make_generator

__all__ = [
    "InferenceResult",
    "sandwich_se",
    "conservative_se_brgamma",
    "bootstrap_ci",
]

MAX_FAILED_FRACTION = 0.2
MIN_RESAMPLES = 100


@dataclass
class InferenceResult:
    se: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    method: str
    level: float
    resamples: int | None = None
    seed: int | None = None
    failed_resamples: int = 0


def sandwich_se(estfuns: np.ndarray, jacobian: np.ndarray) -> np.ndarray:
    """Sandwich standard errors for a stacked estimating-equation system.

    Parameters
    ----------
    estfuns : (n, k) array
        Per-observation estimating functions U_i evaluated at the solution.
    jacobian : (k, k) array
        Mean Jacobian (1/n) sum_i dU_i/dtheta.

    Returns
    -------
    (k,) array: sqrt(diag(J^-1 B J^-T)) with B = (1/n^2) sum_i U_i U_i'.
    J is singular, a SingularDesignError, when its smallest singular value is
    at most 1e-12 times the largest with its rows and then its columns scaled
    to unit norm, not in the units of the data; the raw J is inverted.
    """
    u = np.asarray(estfuns, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    jac = np.atleast_2d(np.asarray(jacobian, dtype=float))
    n = u.shape[0]
    unit = lambda a, axis: a / np.maximum(np.linalg.norm(a, axis=axis, keepdims=True), 1e-300)
    s = np.linalg.svd(unit(unit(jac, 1), 0), compute_uv=False)
    if s[-1] <= 1e-12 * max(s[0], 1e-300):
        raise SingularDesignError(
            f"sandwich jacobian is singular (condition {s[0] / max(s[-1], 1e-300):.3e})",
            condition=float(s[0] / max(s[-1], 1e-300)))
    bread = np.linalg.inv(jac)
    meat = _rowsum(u, u) / n**2
    cov = bread @ meat @ bread.T
    return np.sqrt(np.clip(np.diag(cov), 0.0, None))


def conservative_se_brgamma(data, br_result) -> float:
    """Conservative SE for the bias-reduced instrument-model estimator.

    1/sqrt(n) times the empirical standard deviation of the per-observation
    influence values, ignoring the estimation of the instrument-model
    coefficients (this over-covers).  The influence values are stored on the
    estimate by the fitting routine.
    """
    infl = br_result.diagnostics.get("influence")
    if infl is None:
        raise ValueError("estimate carries no influence values; refit with br_gamma_estimate")
    infl = np.asarray(infl, dtype=float)
    return float(np.std(infl, ddof=1) / np.sqrt(infl.shape[0]))


def bootstrap_ci(data, estimator, resamples: int = 1000, level: float = 0.95,
                 seed: int = 0) -> InferenceResult:
    """Percentile bootstrap over observation resamples.

    The full pipeline inside ``estimator`` is re-run on every resample (all
    nuisance stages re-fitted).  Resample b draws its row indices from a
    generator seeded by (seed, b), so results do not depend on execution
    order.  Failed resamples (estimation errors, non-finite results) are
    excluded and counted; more than 20% failures raises.  ``se`` is the kept
    estimates' sample standard deviation, exactly 0 where they are all equal.

    Resamples run in the linked chunks of
    :func:`~lineariv.dataset._linked_estimates` (16 at n=500, 8 at n=1000),
    as replicates do, so the bias-reduced pair that
    :func:`~lineariv.adaptive.br_gamma_estimate` and
    :func:`~lineariv.adaptive.br_beta_estimate` share is fitted as one stack
    per chunk.  The interval is byte-identical for every chunk size.
    """
    if resamples < MIN_RESAMPLES:
        raise ValueError(f"resamples must be at least {MIN_RESAMPLES}")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    n = data.n
    make = lambda items: [data.take(make_generator([seed, b]).integers(0, n, size=n)) for b in items]
    estimates = [est for _, _, est in _linked_estimates(resamples, n, make, {"estimator": estimator})
                 if est is not None]
    failed = resamples - len(estimates)
    if failed > MAX_FAILED_FRACTION * resamples:
        raise UnreliableBootstrapError(
            f"{failed}/{resamples} bootstrap resamples failed; interval not reliable")
    stacked = np.vstack(estimates)
    alpha = (1.0 - level) / 2.0
    lower = np.quantile(stacked, alpha, axis=0, method="linear")
    upper = np.quantile(stacked, 1.0 - alpha, axis=0, method="linear")
    se = np.std(stacked, axis=0, ddof=1)
    se[(stacked == stacked[0]).all(axis=0)] = 0.0
    return InferenceResult(
        se=se,
        ci_lower=lower,
        ci_upper=upper,
        method="bootstrap",
        level=level,
        resamples=resamples,
        seed=seed,
        failed_resamples=failed,
    )

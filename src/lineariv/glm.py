"""Nuisance-model fitters: OLS/WLS and binary regression with logit/probit link.

Linear solves go through a singular value decomposition (rank revealing,
no explicit inversion of the design cross-product); the inverse Gram matrix is
reconstructed from the factors only because sandwich variance estimation
needs it.  Binary fits use iteratively reweighted least squares with
step-halving on likelihood decrease.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit as _expit, ndtr as _ndtr, ndtri as _ndtri

from .errors import DegenerateWeightsError, SingularDesignError

__all__ = [
    "LinearFit",
    "BinaryFit",
    "fit_ols",
    "fit_wls",
    "fit_binary",
    "normal_cdf",
    "normal_quantile",
    "expit",
]

RANK_RTOL = 1e-10          # smallest/largest singular value below this is rank deficient
SCORE_TOL = 1e-8           # IRLS convergence on the max-abs score
PROB_CLIP = 1e-12          # probability clipping inside IRLS weights only
SEPARATION_NORM = 1e4


def normal_cdf(u):
    """Standard normal CDF, accurate to ~1e-15 (vectorised)."""
    return _ndtr(u)


def normal_quantile(p):
    """Inverse of :func:`normal_cdf` (vectorised)."""
    return _ndtri(p)


def expit(u):
    """Logistic function 1/(1+exp(-u)) (vectorised)."""
    return _expit(u)


@dataclass
class LinearFit:
    """Least-squares fit: coefficients, fitted values, residuals, inverse Gram."""

    coefficients: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    gram_inverse: np.ndarray
    condition: float

    def predict(self, design: np.ndarray) -> np.ndarray:
        return design @ self.coefficients


def _svd_solve(design: np.ndarray, response: np.ndarray, what: str):
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s[0] == 0.0:
        raise SingularDesignError(f"{what}: design is identically zero", condition=np.inf)
    condition = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    if s[-1] <= RANK_RTOL * s[0]:
        raise SingularDesignError(
            f"{what}: design is rank deficient (condition estimate {condition:.3e})",
            condition=condition,
        )
    coef = vt.T @ ((u.T @ response) / s)
    gram_inverse = (vt.T / s**2) @ vt
    return coef, gram_inverse, condition


def fit_ols(design: np.ndarray, response: np.ndarray) -> LinearFit:
    """Ordinary least squares via SVD.

    Raises
    ------
    SingularDesignError
        If the smallest singular value is below ``1e-10`` times the largest.
    """
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    if design.shape[0] < design.shape[1]:
        raise SingularDesignError(
            f"need at least as many rows as columns, got {design.shape}")
    coef, gram_inv, condition = _svd_solve(design, response, "fit_ols")
    fitted = design @ coef
    return LinearFit(coef, fitted, response - fitted, gram_inv, condition)


def fit_wls(design: np.ndarray, response: np.ndarray, weights: np.ndarray) -> LinearFit:
    """Weighted least squares, minimising sum of w_i * r_i^2.

    Zero weights exclude rows; all-zero weights raise
    :class:`DegenerateWeightsError`.  Fitted values and residuals refer to the
    full, unweighted rows.
    """
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.shape != response.shape:
        raise DegenerateWeightsError(f"weights shape {w.shape} does not match response {response.shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise DegenerateWeightsError("weights must be finite and nonnegative")
    if not np.any(w > 0):
        raise DegenerateWeightsError("all weights are zero")
    sw = np.sqrt(w)
    coef, gram_inv, condition = _svd_solve(design * sw[:, None], response * sw, "fit_wls")
    fitted = design @ coef
    return LinearFit(coef, fitted, response - fitted, gram_inv, condition)


@dataclass
class BinaryFit:
    """Maximum-likelihood binary regression fit."""

    coefficients: np.ndarray
    link: str
    converged: bool
    iterations: int
    score_norm: float
    separation: bool
    log_likelihood: float
    loglik_trace: list

    def predict(self, design: np.ndarray) -> np.ndarray:
        """Success probabilities, kept strictly inside (0, 1)."""
        mu = _mean_function(self.link)(np.asarray(design, dtype=float) @ self.coefficients)
        return np.clip(mu, 5e-324, 1.0 - 1e-16)


_LINK_MEANS = {"logit": _expit, "probit": _ndtr}


def _mean_function(link: str):
    try:
        return _LINK_MEANS[link]
    except KeyError:
        raise ValueError(f"unknown link {link!r}") from None


def fit_binary(design: np.ndarray, response: np.ndarray, link: str = "logit",
               max_iter: int = 100, tol: float = SCORE_TOL) -> BinaryFit:
    """Fit a binary regression by IRLS with step-halving.

    The start vector is zero except that the coefficient of an all-ones
    column (if present) is initialised at ``link(mean(response))``.
    Non-convergence is reported via ``converged`` rather than raised, so the
    caller decides; apparent separation (coefficient norm above 1e4) sets the
    ``separation`` flag.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("response must be binary 0/1")
    if y.min() == y.max():
        raise ValueError("response must contain both classes")
    n, p = design.shape

    beta = np.zeros(p)
    ones_cols = np.nonzero(np.all(design == 1.0, axis=0))[0]
    m = y.mean()
    if ones_cols.size:
        beta[ones_cols[0]] = np.log(m / (1 - m)) if link == "logit" else float(_ndtri(m))

    mean = _mean_function(link)
    one_minus_y = 1.0 - y

    def evaluate(b):
        # eta, mu, clipped mu and log-likelihood at coefficients b
        eta = design @ b
        mu = mean(eta)
        muc = np.minimum(np.maximum(mu, PROB_CLIP), 1.0 - PROB_CLIP)
        return eta, mu, muc, float(np.sum(y * np.log(muc) + one_minus_y * np.log1p(-muc)))

    def score_and_weights(eta, mu, muc):
        # likelihood score X'adj and Fisher weights per link; for the logit
        # (canonical) link adj is the raw residual y - mu
        if link == "logit":
            return y - mu, muc * (1.0 - muc)
        phi = np.exp(-0.5 * eta * eta) / np.sqrt(2.0 * np.pi)
        ratio = phi / (muc * (1.0 - muc))
        return (y - mu) * ratio, phi * ratio

    eta, mu, muc, ll = evaluate(beta)
    trace = [ll]
    adj, working_w = score_and_weights(eta, mu, muc)
    score_vec = design.T @ adj
    score_norm = float(np.max(np.abs(score_vec)))
    iterations = 0

    for iterations in range(1, max_iter + 1):
        if score_norm <= tol:
            iterations -= 1
            break
        # Fisher scoring step: solve (X'WX) d = X'(score residual)
        xw = design * working_w[:, None]
        hessian = design.T @ xw
        try:
            step = np.linalg.solve(hessian, score_vec)
        except np.linalg.LinAlgError:
            s = np.linalg.svd(hessian, compute_uv=False)
            cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
            raise SingularDesignError(
                f"fit_binary: weighted design is rank deficient (condition {cond:.3e})",
                condition=cond,
            ) from None
        # step-halving: the accepted candidate's eta, mu, clipped mu and
        # log-likelihood are kept; only when all 40 halvings fail is the final
        # (untried) step length evaluated afresh
        t = 1.0
        for _ in range(40):
            beta_c = beta + t * step
            eta_c, mu_c, muc_c, ll_c = evaluate(beta_c)
            if ll_c >= ll - 1e-10:
                beta, eta, mu, muc, ll = beta_c, eta_c, mu_c, muc_c, ll_c
                break
            t *= 0.5
        else:
            beta = beta + t * step
            eta, mu, muc, ll = evaluate(beta)
        trace.append(ll)
        adj, working_w = score_and_weights(eta, mu, muc)
        score_vec = design.T @ adj
        score_norm = float(np.max(np.abs(score_vec)))

    converged = score_norm <= tol
    separation = bool(np.linalg.norm(beta) > SEPARATION_NORM)
    return BinaryFit(
        coefficients=beta,
        link=link,
        converged=converged,
        iterations=iterations,
        score_norm=score_norm,
        separation=separation,
        log_likelihood=ll,
        loglik_trace=trace,
    )

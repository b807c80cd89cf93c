"""Nuisance-model fitters: OLS/WLS and binary regression with logit/probit link.

Linear solves go through a singular value decomposition (rank revealing,
no explicit inversion of the design cross-product); the inverse Gram matrix is
reconstructed from the factors only because sandwich variance estimation
needs it.  Binary fits use iteratively reweighted least squares with
step-halving on likelihood decrease.

Each method has one kernel that works on a stack of B problems at once
(``_lstsq``, ``_irls``), reporting degenerate members instead of raising;
the public fitters are stacks of one that raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class _Lstsq(NamedTuple):
    """Stacked SVD least squares, one entry per member."""

    coef: np.ndarray        # (B, p); NaN rows where ``deficient``
    s: np.ndarray           # (B, p) singular values, largest first
    vt: np.ndarray          # (B, p, p)
    condition: list         # s[0] / s[-1], inf when s[-1] is 0
    deficient: list         # s[-1] <= RANK_RTOL * s[0] (an all-zero design included)


def _lstsq(design: np.ndarray, response: np.ndarray) -> _Lstsq:
    """Least squares of ``response`` (B, n) on ``design`` (B, n, p) by SVD,
    member by member; a rank-deficient member is reported, not raised."""
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    ends = [(row[0], row[-1]) for row in s.tolist()]
    condition = [hi / lo if lo > 0 else np.inf for hi, lo in ends]
    deficient = [lo <= RANK_RTOL * hi for hi, lo in ends]
    bad = any(deficient)
    divisor = np.where(np.array(deficient)[:, None], 1.0, s) if bad else s
    coef = np.vecmat(np.vecmat(response, u) / divisor, vt)
    if bad:
        coef[deficient] = np.nan
    return _Lstsq(coef, s, vt, condition, deficient)


def _linear_fit(design: np.ndarray, response: np.ndarray, scaled_design: np.ndarray,
                scaled_response: np.ndarray, what: str) -> LinearFit:
    # the 2-D fit: a batch of one through _lstsq, raising for a degenerate design
    ls = _lstsq(scaled_design[None], scaled_response[None])
    s, vt, condition = ls.s[0], ls.vt[0], ls.condition[0]
    if s[0] == 0.0:
        raise SingularDesignError(f"{what}: design is identically zero", condition=np.inf)
    if ls.deficient[0]:
        raise SingularDesignError(
            f"{what}: design is rank deficient (condition estimate {condition:.3e})",
            condition=condition,
        )
    coef = ls.coef[0]
    fitted = design @ coef
    return LinearFit(coef, fitted, response - fitted, (vt.T / s**2) @ vt, condition)


def fit_ols(design: np.ndarray, response: np.ndarray) -> LinearFit:
    """Ordinary least squares via SVD.

    A batch of one through the stacked kernel ``_lstsq``, which the Monte
    Carlo bundles call directly on a (B, n, p) stack of designs.

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
    return _linear_fit(design, response, design, response, "fit_ols")


def fit_wls(design: np.ndarray, response: np.ndarray, weights: np.ndarray) -> LinearFit:
    """Weighted least squares, minimising sum of w_i * r_i^2.

    Zero weights exclude rows; all-zero weights raise
    :class:`DegenerateWeightsError`.  Fitted values and residuals refer to the
    full, unweighted rows.  The solve is a batch of one through ``_lstsq``
    on the rows scaled by sqrt(w).
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
    return _linear_fit(design, response, design * sw[:, None], response * sw, "fit_wls")


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


class _Irls(NamedTuple):
    """Stacked IRLS: one list entry per member."""

    coef: list          # (p,) arrays, NaN for a singular member
    iterations: list    # Fisher-scoring steps taken
    score_norm: list    # max |X'adj| at the final coefficients
    loglik: list
    traces: list        # log-likelihood at the start and after each step
    singular: list      # condition of the singular X'WX that stopped the member, or None
    exhausted: list     # True where some step failed all 40 halvings


def _irls(design: np.ndarray, y: np.ndarray, link: str, max_iter: int = 100,
          tol: float = SCORE_TOL) -> _Irls:
    """Binary regression by IRLS with step-halving for a stack of problems:
    design (B, n, p), binary y (B, n) holding both classes in every member.

    Each member follows the iterate sequence of a fit on its own: it stops
    once its own score norm is at most ``tol`` or after ``max_iter`` steps,
    and halves its own step (at most 40 times) until the log-likelihood does
    not drop by more than 1e-10.  A member whose X'WX is exactly singular
    stops there and is reported in ``singular``; the others go on.
    """
    mean = _mean_function(link)
    B, n, p = design.shape
    y0 = y == 0.0
    m = y.sum(-1) / n           # exact: a sum of zeros and ones, so m == mean(y)
    start = np.log(m / (1 - m)) if link == "logit" else _ndtri(m)
    beta = np.zeros((B, p))
    todo = list(range(B))
    for j in range(p):          # the first all-ones column starts at link(mean(y))
        if not todo:
            break
        ones = (design[:, :, j] == 1.0).all(-1).tolist()
        for k in todo:
            if ones[k]:
                beta[k, j] = start[k]
        todo = [k for k in todo if not ones[k]]

    def evaluate(x, y0, b):
        # eta, mu, clipped mu and log-likelihood at coefficients b; selecting
        # log(muc) or log1p(-muc) by y equals y*log(muc) + (1-y)*log1p(-muc)
        eta = np.matvec(x, b)
        mu = mean(eta)
        muc = np.minimum(np.maximum(mu, PROB_CLIP), 1.0 - PROB_CLIP)
        return eta, mu, muc, np.where(y0, np.log1p(-muc), np.log(muc)).sum(-1)

    def score_and_weights(x, y, eta, mu, muc):
        # likelihood score X'adj, its max-abs norm and the Fisher weights; for
        # the logit (canonical) link adj is the raw residual y - mu
        if link == "logit":
            adj, w = y - mu, muc * (1.0 - muc)
        else:
            phi = np.exp(-0.5 * eta * eta) / np.sqrt(2.0 * np.pi)
            ratio = phi / (muc * (1.0 - muc))
            adj, w = (y - mu) * ratio, phi * ratio
        score = np.vecmat(adj, x)
        return score, np.abs(score).max(-1), w

    eta, mu, muc, ll = evaluate(design, y0, beta)
    score, norm, w = score_and_weights(design, y, eta, mu, muc)
    traces = [[v] for v in ll.tolist()]
    coef = [None] * B
    iterations = [0] * B
    score_norm, loglik = [np.nan] * B, [np.nan] * B
    singular = [None] * B
    exhausted = [False] * B
    # the live members and their state; every live member has taken `steps` steps
    live = list(range(B))
    x, live_y, live_y0 = design, y, y0
    steps = 0
    while True:
        norms = norm.tolist()
        stop = [singular[member] is not None or v <= tol or steps >= max_iter
                for member, v in zip(live, norms)]
        if any(stop):
            for k, member in enumerate(live):
                if stop[k] and singular[member] is None:
                    coef[member], score_norm[member], iterations[member] = beta[k], norms[k], steps
                    loglik[member] = float(ll[k])
            keep = [k for k, s in enumerate(stop) if not s]
            if not keep:
                break
            live = [live[k] for k in keep]
            x, live_y, live_y0, beta, eta, mu, muc, ll, score, norm, w = (
                a[keep] for a in (x, live_y, live_y0, beta, eta, mu, muc, ll, score, norm, w))
        # Fisher scoring step: solve (X'WX) d = X'(score residual)
        hessian = x.mT @ (x * w[..., None])
        try:
            step = np.linalg.solve(hessian, score[..., None])[..., 0]
        except np.linalg.LinAlgError:
            found = False
            for k, member in enumerate(live):
                try:
                    np.linalg.solve(hessian[k], score[k])
                except np.linalg.LinAlgError:
                    s = np.linalg.svd(hessian[k], compute_uv=False)
                    singular[member] = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
                    coef[member] = np.full(p, np.nan)
                    found = True
            if not found:
                raise
            continue
        steps += 1
        # step-halving: the accepted candidate's eta, mu, clipped mu and
        # log-likelihood are kept; a member whose 40 halvings all fail takes
        # the next (untried) step length, evaluated afresh
        t = 1.0
        cand = beta + t * step
        found = (cand, *evaluate(x, live_y0, cand))
        pending = [k for k, ok in enumerate((found[-1] >= ll - 1e-10).tolist()) if not ok]
        for _ in range(39):
            if not pending:
                break
            t *= 0.5
            cand = beta[pending] + t * step[pending]
            retry = (cand, *evaluate(x[pending], live_y0[pending], cand))
            ok = (retry[-1] >= ll[pending] - 1e-10).tolist()
            accepted = [i for i, a in enumerate(ok) if a]
            if accepted:
                for state, value in zip(found, retry):
                    state[[pending[i] for i in accepted]] = value[accepted]
            pending = [k for k, a in zip(pending, ok) if not a]
        if pending:
            t *= 0.5
            cand = beta[pending] + t * step[pending]
            for state, value in zip(found, (cand, *evaluate(x[pending], live_y0[pending], cand))):
                state[pending] = value
            for k in pending:
                exhausted[live[k]] = True
        beta, eta, mu, muc, ll = found
        for member, value in zip(live, ll.tolist()):
            traces[member].append(value)
        score, norm, w = score_and_weights(x, live_y, eta, mu, muc)
    return _Irls(coef, iterations, score_norm, loglik, traces, singular, exhausted)


def fit_binary(design: np.ndarray, response: np.ndarray, link: str = "logit",
               max_iter: int = 100, tol: float = SCORE_TOL) -> BinaryFit:
    """Fit a binary regression by IRLS with step-halving.

    The start vector is zero except that the coefficient of an all-ones
    column (if present) is initialised at ``link(mean(response))``.
    Non-convergence is reported via ``converged`` rather than raised, so the
    caller decides; apparent separation (coefficient norm above 1e4) sets the
    ``separation`` flag.  The fit is a batch of one through the stacked
    kernel ``_irls``, which the Monte Carlo bundles call directly on a
    (B, n, p) stack of designs.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("response must be binary 0/1")
    if np.count_nonzero(y) in (0, y.size):
        raise ValueError("response must contain both classes")
    fit = _irls(design[None], y[None], link, max_iter, tol)
    cond = fit.singular[0]
    if cond is not None:
        raise SingularDesignError(
            f"fit_binary: weighted design is rank deficient (condition {cond:.3e})",
            condition=cond,
        )
    beta = fit.coef[0]
    score_norm = fit.score_norm[0]
    return BinaryFit(
        coefficients=beta,
        link=link,
        converged=score_norm <= tol,
        iterations=fit.iterations[0],
        score_norm=score_norm,
        separation=bool(np.linalg.norm(beta) > SEPARATION_NORM),
        log_likelihood=fit.loglik[0],
        loglik_trace=fit.traces[0],
    )

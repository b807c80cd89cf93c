"""Nuisance-model fitters: OLS/WLS and binary regression with logit/probit link.

Linear solves go through a singular value decomposition (rank revealing,
no explicit inversion of the design cross-product); the inverse Gram matrix is
reconstructed from the factors only because sandwich variance estimation
needs it.  Binary fits use iteratively reweighted least squares with
step-halving on likelihood decrease.  Its arithmetic is set for many small
fits: the logit mean is numpy's vectorised 1/(1+exp(-eta)), within 4 ulp of
scipy's ``expit`` (which the public :func:`expit` and the data generators
keep), evaluated in place with overflow ignored once a fit; the
log-likelihood takes one log a row; X'WX weights a C-contiguous (p, n) copy of
the design along its rows, into a buffer reused from step to step.

Each method has one kernel that works on a stack of B problems at once
(``_lstsq``, ``_irls``), reporting degenerate members instead of raising;
the public fitters are stacks of one that raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import expit as _expit, ndtr as _ndtr, ndtri as _ndtri

from .errors import (
    DegenerateResponseError,
    DegenerateWeightsError,
    EstimationError,
    SingularDesignError,
)

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
    """Logistic function 1/(1+exp(-u)) (vectorised), scipy's ``expit``."""
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


class _Flagged(Exception):
    """Positions in a stack of the members that leave it (:func:`_fit_stack`)."""

    def __init__(self, positions: list[int]):
        super().__init__(positions)
        self.positions = positions


def _check(errors: list) -> None:
    """Rejects the stack members whose entry of ``errors`` is not None: a
    stack of one (one dataset on its own) raises its member's error, the
    per-dataset one; a larger stack flags them (:class:`_Flagged`)."""
    bad = [k for k, err in enumerate(errors) if err is not None]
    if bad:
        raise errors[0] if len(errors) == 1 else _Flagged(bad)


def _fit_stack(compute: Callable[[list], list], items: list) -> list:
    """One value per item.  ``compute(stack)``, one value per member, runs on
    the items with numpy's warnings off, again without the members it flags
    (:class:`_Flagged`) until it succeeds; a member left on its own (flagged,
    alone, or after a LinAlgError) is then computed once as a stack of one
    with warnings on, whose EstimationError is its value (:func:`_attempt`)."""
    values: dict = {}
    members = list(range(len(items)))
    with np.errstate(all="ignore"):
        while len(members) > 1:
            try:
                values = dict(zip(members, compute([items[m] for m in members])))
                break
            except _Flagged as flagged:
                members = [m for k, m in enumerate(members) if k not in flagged.positions]
            except np.linalg.LinAlgError:
                break
    for k, item in enumerate(items):
        if k not in values:
            _attempt(values, k, lambda: compute([item])[0])
    return [values[k] for k in range(len(items))]


def _attempt(out: dict, key, compute: Callable, *needs) -> None:
    """``out[key] = compute(*out[need] for need in needs)``, or the
    :class:`EstimationError` it raised, or the first error among ``needs``:
    a stage fails exactly when it, or a stage it uses, raised.  On a stack
    of one each stage so holds its own error; on a larger stack a rejected
    member is flagged (:func:`_check`), which passes through."""
    for need in needs:
        if isinstance(out[need], EstimationError):
            out[key] = out[need]
            return
    try:
        out[key] = compute(*(out[need] for need in needs))
    except EstimationError as err:
        out[key] = err


class _Lstsq(NamedTuple):
    """Stacked SVD least squares, one entry per member."""

    coef: np.ndarray        # (B, p); NaN rows where ``deficient``
    s: np.ndarray           # (B, p) singular values, largest first
    vt: np.ndarray          # (B, p, p)
    condition: list         # s[0] / s[-1], inf when s[-1] is 0
    deficient: list         # numerical rank below p (an all-zero design included)


def _join(*blocks: np.ndarray) -> np.ndarray:
    """``np.concatenate(blocks, axis=-1)``, column by column: faster for a short last axis."""
    return np.stack([block[..., j] for block in blocks for j in range(block.shape[-1])], axis=-1)


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """``np.stack(arrays)``, but a view of a single array instead of a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _ranks(s: np.ndarray) -> list[int]:
    """The package's one rank test: per member of a (B, p) stack of singular
    values, largest first, the count above RANK_RTOL times the largest."""
    return (s > RANK_RTOL * s[:, :1]).sum(-1).tolist()


def _lstsq(design: np.ndarray, response: np.ndarray) -> _Lstsq:
    """Least squares of ``response`` (B, n) on ``design`` (B, n, p) by SVD,
    member by member; a rank-deficient member is reported, not raised."""
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    condition = [row[0] / row[-1] if row[-1] > 0 else np.inf for row in s.tolist()]
    deficient = [rank < s.shape[-1] for rank in _ranks(s)]
    bad = any(deficient)
    divisor = np.where(np.array(deficient)[:, None], 1.0, s) if bad else s
    coef = np.vecmat(np.vecmat(response, u) / divisor, vt)
    if bad:
        coef[deficient] = np.nan
    return _Lstsq(coef, s, vt, condition, deficient)


def _design_errors(ls: _Lstsq, what: str) -> list:
    """Per member of a stacked fit, the SingularDesignError the 2-D fit
    ``what`` raises for it, or None for a member of full rank."""
    return [None if not deficient else SingularDesignError(
        f"{what}: design is identically zero" if ls.s[k, 0] == 0.0 else
        f"{what}: design is rank deficient (condition estimate {ls.condition[k]:.3e})",
        condition=ls.condition[k]) for k, deficient in enumerate(ls.deficient)]


def _ols(design: np.ndarray, response: np.ndarray,
         what: str = "fit_ols") -> tuple[_Lstsq | None, list]:
    """Least squares on a stack with ``fit_ols``'s checks: the stacked fit
    (None for a design with fewer rows than columns) and, per member, the
    SingularDesignError the 2-D fit ``what`` raises, or None."""
    if design.shape[-2] < design.shape[-1]:
        return None, [SingularDesignError(
            f"need at least as many rows as columns, got {design.shape[-2:]}")] * len(design)
    fit = _lstsq(design, response)
    return fit, _design_errors(fit, what)


def _weight_errors(w: np.ndarray) -> list:
    """Per member of a (B, n) stack of weights, the DegenerateWeightsError
    ``fit_wls`` raises for it, or None."""
    usable = (np.isfinite(w).all(-1) & ~(w < 0).any(-1)).tolist()
    positive = (w > 0).any(-1).tolist()
    return [None if ok and pos else DegenerateWeightsError(
        "weights must be finite and nonnegative" if not ok else "all weights are zero")
        for ok, pos in zip(usable, positive)]


def _linear_fit(design: np.ndarray, response: np.ndarray, ls: _Lstsq, errors: list) -> LinearFit:
    # the 2-D fit from a stack of one, raising its error
    _check(errors)
    s, vt, coef = ls.s[0], ls.vt[0], ls.coef[0]
    fitted = design @ coef
    return LinearFit(coef, fitted, response - fitted, (vt.T / s**2) @ vt, ls.condition[0])


def fit_ols(design: np.ndarray, response: np.ndarray) -> LinearFit:
    """Ordinary least squares via SVD.

    A batch of one through the stacked kernel ``_lstsq``, which the Monte
    Carlo bundles call directly on a (B, n, p) stack of designs.

    Raises
    ------
    SingularDesignError
        If the design has fewer rows than columns, or its smallest singular
        value is at most ``RANK_RTOL`` (1e-10) times the largest.
    """
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    return _linear_fit(design, response, *_ols(design[None], response[None]))


def fit_wls(design: np.ndarray, response: np.ndarray, weights: np.ndarray) -> LinearFit:
    """Weighted least squares, minimising sum of w_i * r_i^2.

    Zero weights exclude rows; all-zero weights raise
    :class:`DegenerateWeightsError`.  Fitted values and residuals refer to the
    full, unweighted rows.  The solve, with its checks, is :func:`fit_ols`'s
    on the rows scaled by sqrt(w).
    """
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.shape != response.shape:
        raise DegenerateWeightsError(f"weights shape {w.shape} does not match response {response.shape}")
    _check(_weight_errors(w[None]))
    sw = np.sqrt(w)
    return _linear_fit(design, response,
                       *_ols((design * sw[:, None])[None], (response * sw)[None], "fit_wls"))


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


def _logistic(eta: np.ndarray) -> np.ndarray:
    """1/(1+exp(-eta)) by numpy's vectorised exp, in one fresh array; within
    4 ulp of scipy's expit and faster.  exp(-eta) overflows to inf below
    eta = -709.78, which gives 0 as expit does: callers ignore the overflow."""
    mu = np.negative(eta)
    np.exp(mu, out=mu)
    mu += 1.0
    return np.divide(1.0, mu, out=mu)


_LINK_MEANS = {"logit": _logistic, "probit": _ndtr}


def _mean_function(link: str):
    """The mean of ``link``, the logit's overflow ignored."""
    try:
        return np.errstate(over="ignore")(_LINK_MEANS[link])
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


@np.errstate(over="ignore")     # once a fit, for the logit mean
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
    mean = _LINK_MEANS.get(link) or _mean_function(link)    # which raises on an unknown link
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
        # eta, mu, the variance muc * (1 - muc) of the clipped mu and the log-
        # likelihood at b: one log a row, of the clipped P(observed class)
        eta = np.matvec(x, b)
        mu = mean(eta)
        muc = np.clip(mu, PROB_CLIP, 1.0 - PROB_CLIP)
        muq = 1.0 - muc
        ll = np.where(y0, muq, muc)
        return eta, mu, np.multiply(muc, muq, out=muc), np.log(ll, out=ll).sum(-1)

    def score_and_weights(x, y, eta, mu, var):
        # likelihood score X'adj, its max-abs norm and the Fisher weights; for
        # the logit (canonical) link adj is the raw residual y - mu
        if link == "logit":
            adj, w = y - mu, var
        else:
            phi = np.exp(-0.5 * eta * eta) / np.sqrt(2.0 * np.pi)
            ratio = phi / var
            adj, w = (y - mu) * ratio, phi * ratio
        score = np.vecmat(adj, x)
        return score, np.abs(score).max(-1), w

    eta, mu, var, ll = evaluate(design, y0, beta)
    score, norm, w = score_and_weights(design, y, eta, mu, var)
    traces = [[v] for v in ll.tolist()]
    coef = [None] * B
    iterations = [0] * B
    score_norm, loglik = [np.nan] * B, [np.nan] * B
    singular = [None] * B
    exhausted = [False] * B
    # the live members and their state; every live member has taken `steps` steps
    live = list(range(B))
    # xt is a C-contiguous copy of the design transposed, (B, p, n), so that
    # weighting its rows in X'WX (into the buffer xtw) runs along the long axis
    x, xt, live_y, live_y0 = design, np.ascontiguousarray(design.mT), y, y0
    xtw = np.empty_like(xt)
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
            x, xt, live_y, live_y0, beta, eta, mu, var, ll, score, norm, w = (
                a[keep] for a in (x, xt, live_y, live_y0, beta, eta, mu, var, ll, score, norm, w))
            xtw = xtw[:len(live)]
        # Fisher scoring step: solve (X'WX) d = X'(score residual)
        hessian = np.multiply(xt, w[:, None, :], out=xtw) @ x
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
        beta, eta, mu, var, ll = found
        for member, value in zip(live, ll.tolist()):
            traces[member].append(value)
        score, norm, w = score_and_weights(x, live_y, eta, mu, var)
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

    The log-likelihood clips probabilities to [1e-12, 1 - 1e-12]; the rest
    of the arithmetic is the module docstring's.  A member of a stack gets
    the bits of its fit alone.

    Raises
    ------
    ValueError
        If the response is not 0/1.
    DegenerateResponseError
        If it holds one class only (an :class:`EstimationError`, and a
        ValueError too).
    SingularDesignError
        If X'WX is exactly singular at some iterate.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("response must be binary 0/1")
    _check(_class_errors(y[None]))
    fit = _irls(design[None], y[None], link, max_iter, tol)
    _check(_singular_errors(fit))
    return _binary_fit(fit, 0, link, tol)


def _class_errors(y: np.ndarray) -> list:
    """Per member of a (B, n) stack of binary responses, the
    DegenerateResponseError ``fit_binary`` raises when it holds one class, or
    None."""
    n = y.shape[-1]
    return [DegenerateResponseError("response must contain both classes") if ones in (0, n)
            else None for ones in np.count_nonzero(y, axis=-1).tolist()]


def _singular_errors(fit: _Irls) -> list:
    """Per member of a stacked IRLS fit, the SingularDesignError ``fit_binary``
    raises when its X'WX was singular, or None."""
    return [None if cond is None else SingularDesignError(
        f"fit_binary: weighted design is rank deficient (condition {cond:.3e})", condition=cond)
        for cond in fit.singular]


def _binary_fit(fit: _Irls, k: int, link: str, tol: float = SCORE_TOL) -> BinaryFit:
    """Member ``k`` of a stacked IRLS fit as the BinaryFit ``fit_binary``
    returns; the member owns copies of the stack's arrays."""
    beta = np.array(fit.coef[k])
    score_norm = fit.score_norm[k]
    return BinaryFit(
        coefficients=beta,
        link=link,
        converged=score_norm <= tol,
        iterations=fit.iterations[k],
        score_norm=score_norm,
        separation=bool(np.linalg.norm(beta) > SEPARATION_NORM),
        log_likelihood=fit.loglik[k],
        loglik_trace=list(fit.traces[k]),
    )

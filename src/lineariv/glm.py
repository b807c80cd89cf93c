"""Nuisance-model fitters: OLS/WLS and binary regression with logit/probit link.

Linear solves go through a singular value decomposition (rank revealing,
no explicit inversion of the design cross-product); the inverse Gram matrix
that :class:`LinearFit` carries is reconstructed from the factors.  Binary
fits use iteratively reweighted least squares whose step
takes the first length 1, 1/2, ..., 2^-40 that lowers the log-likelihood by
at most 1e-10, the last untested.  Its arithmetic is set for many small fits:
the logit mean, which is also every fitted logistic model's probability, is
numpy's vectorised 1/(1+exp(-eta)), evaluated in place with overflow ignored
once a fit; the log-likelihood takes one log a row; X'WX weights a
C-contiguous (p, n) copy of the design along its rows, into a buffer reused
from step to step.  Only the public :func:`expit`, :func:`normal_cdf` and
:func:`normal_quantile` (the generators' and the probit link's) use scipy,
whose ``scipy.special`` they import on first call.

Each method has one kernel that fits a stack of B problems at once
(``_ols``, ``_wls``, ``_binary``); the public fitters are stacks of one.
Every stacked kernel of the package checks each member as its per-dataset
counterpart does and raises through :func:`_check`; a stack that any check
rejects is computed again member by member (``_fit_stack``), so each member
gets the error of its fit alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

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
MAX_ITER = 100             # IRLS Fisher-scoring steps
PROB_CLIP = 1e-12          # probability clipping inside IRLS weights only
SEPARATION_NORM = 1e4
ROW_BLOCK = 10_000         # rows a contraction sums in one call (:func:`_rowsum`)


def _special():
    """``scipy.special``, imported on first use: most of the package's import time."""
    import scipy.special
    return scipy.special


def normal_cdf(u):
    """Standard normal CDF, accurate to ~1e-15 (vectorised), scipy's ``ndtr``."""
    return _special().ndtr(u)


def normal_quantile(p):
    """Inverse of :func:`normal_cdf` (vectorised), scipy's ``ndtri``."""
    return _special().ndtri(p)


def expit(u):
    """Logistic function 1/(1+exp(-u)) (vectorised), scipy's ``expit``."""
    return _special().expit(u)


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
    """A stack of more than one that a check rejected (:func:`_fit_stack`)."""


def _check(errors: list) -> None:
    """Rejects a stack in which any member's entry of ``errors`` is not None:
    a stack of one (one dataset on its own) raises its member's error, the
    per-dataset one; a larger stack raises :class:`_Flagged`."""
    if any(err is not None for err in errors):
        raise errors[0] if len(errors) == 1 else _Flagged()


def _fit_stack(compute: Callable[[list], list], items: list) -> list:
    """One value per item.  ``compute(stack)``, one value per member, runs on
    all the items at once with numpy's warnings off; if a check rejects that
    stack (:class:`_Flagged`) or a solve in it is singular (LinAlgError),
    each item is computed again as a stack of one with warnings on, whose
    EstimationError is its value (:func:`_attempt`)."""
    if len(items) > 1:
        try:
            with np.errstate(all="ignore"):
                return compute(items)
        except (_Flagged, np.linalg.LinAlgError):
            pass
    values: dict = {}
    for k, item in enumerate(items):
        _attempt(values, k, lambda: compute([item])[0])
    return [values[k] for k in range(len(items))]


def _attempt(out: dict, key, compute: Callable, *needs) -> None:
    """``out[key] = compute(*out[need] for need in needs)``, or the
    :class:`EstimationError` it raised, or the first error among ``needs``:
    a stage fails exactly when it, or a stage it uses, raised.  On a stack
    of one each stage so holds its own error; a larger stack that a check
    rejects raises :class:`_Flagged`, which passes through."""
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

    coef: np.ndarray        # (B, p)
    s: np.ndarray           # (B, p) singular values, largest first
    vt: np.ndarray          # (B, p, p)
    condition: list         # s[0] / s[-1]


def _join(*blocks: np.ndarray) -> np.ndarray:
    """``np.concatenate(blocks, axis=-1)``, column by column: faster for a short last axis."""
    return np.stack([block[..., j] for block in blocks for j in range(block.shape[-1])], axis=-1)


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """``np.stack(arrays)``, but a view of a single array instead of a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _rowsum(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The sum over rows of ``left`` (..., n) or (..., n, k) times ``right``
    (..., n, m): ``np.vecmat(left, right)`` or ``left.mT @ right``, taken on
    consecutive blocks of at most ROW_BLOCK rows and added left to right.
    OpenBLAS splits a dot product (a 1 x 1 output) of more than 10,000
    elements across its threads, so a block is one thread's sum and the bits
    do not depend on the thread count.  Up to ROW_BLOCK rows it is one call."""
    vector = left.ndim < right.ndim
    contract = np.vecmat if vector else lambda a, b: a.mT @ b
    if right.shape[-2] <= ROW_BLOCK:
        return contract(left, right)
    parts = [contract(left[..., rows] if vector else left[..., rows, :], right[..., rows, :])
             for rows in (slice(lo, lo + ROW_BLOCK) for lo in range(0, right.shape[-2], ROW_BLOCK))]
    return sum(parts[1:], parts[0])


def _ranks(s: np.ndarray) -> list[int]:
    """The package's one rank test: per member of a (B, p) stack of singular
    values, largest first, the count above RANK_RTOL times the largest."""
    return (s > RANK_RTOL * s[:, :1]).sum(-1).tolist()


def _ols(design: np.ndarray, response: np.ndarray, what: str = "fit_ols") -> _Lstsq:
    """Least squares of ``response`` (B, n) on ``design`` (B, n, p) by SVD,
    member by member, with ``fit_ols``'s checks (see :func:`_check`): the
    SingularDesignError that the 2-D fit ``what`` raises."""
    if design.shape[-2] < design.shape[-1]:
        _check([SingularDesignError(
            f"need at least as many rows as columns, got {design.shape[-2:]}")] * len(design))
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    rows = s.tolist()
    condition = [row[0] / row[-1] if row[-1] > 0 else np.inf for row in rows]
    _check([None if rank == len(row) else SingularDesignError(
        f"{what}: design is identically zero" if row[0] == 0.0 else
        f"{what}: design is rank deficient (condition estimate {cond:.3e})", condition=cond)
        for row, cond, rank in zip(rows, condition, _ranks(s))])
    return _Lstsq(np.vecmat(_rowsum(response, u) / s, vt), s, vt, condition)


def _wls(design: np.ndarray, response: np.ndarray, w: np.ndarray) -> _Lstsq:
    """Weighted least squares on a stack with ``fit_wls``'s checks (see
    :func:`_check`): weights w (B, n) that are not finite and nonnegative,
    or all zero, then :func:`_ols`'s checks on the rows scaled by sqrt(w)."""
    usable = (np.isfinite(w).all(-1) & ~(w < 0).any(-1)).tolist()
    positive = (w > 0).any(-1).tolist()
    _check([None if ok and pos else DegenerateWeightsError(
        "weights must be finite and nonnegative" if not ok else "all weights are zero")
        for ok, pos in zip(usable, positive)])
    sw = np.sqrt(w)
    return _ols(design * sw[..., None], response * sw, "fit_wls")


def _linear_fit(design: np.ndarray, response: np.ndarray, ls: _Lstsq) -> LinearFit:
    # the 2-D fit from a checked stack of one
    s, vt, coef = ls.s[0], ls.vt[0], ls.coef[0]
    fitted = design @ coef
    return LinearFit(coef, fitted, response - fitted, (vt.T / s**2) @ vt, ls.condition[0])


def fit_ols(design: np.ndarray, response: np.ndarray) -> LinearFit:
    """Ordinary least squares via SVD.

    Raises
    ------
    SingularDesignError
        If the design has fewer rows than columns, or its smallest singular
        value is at most ``RANK_RTOL`` (1e-10) times the largest.
    """
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    return _linear_fit(design, response, _ols(design[None], response[None]))


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
    return _linear_fit(design, response, _wls(design[None], response[None], w[None]))


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


_LINK_MEANS = {"logit": _logistic, "probit": normal_cdf}


def _mean_function(link: str):
    """The mean of ``link``, the logit's overflow ignored."""
    try:
        return np.errstate(over="ignore")(_LINK_MEANS[link])
    except KeyError:
        raise ValueError(f"unknown link {link!r}") from None


class _Irls(NamedTuple):
    """Stacked IRLS: one row or list entry per member."""

    coef: np.ndarray    # (B, p)
    mean: np.ndarray    # (B, n) the mean at coef
    iterations: list    # Fisher-scoring steps taken
    score_norm: list    # max |X'adj| at the final coefficients
    loglik: list
    traces: list        # log-likelihood at the start and after each step
    exhausted: list     # True where some step took the last length, 2^-40, untested
    separated: list     # True where the coefficient norm is above SEPARATION_NORM


@np.errstate(over="ignore")     # once a fit, for the logit mean
def _irls(design: np.ndarray, y: np.ndarray, link: str, start: np.ndarray | None = None) -> _Irls:
    """Binary regression by IRLS with step-halving for a stack of problems:
    design (B, n, p), binary y (B, n) holding both classes in every member.
    A member starts at its row of ``start`` (B, p); without one, or where
    the row holds a NaN, at ``fit_binary``'s default start.

    Each member follows the iterate sequence of a fit on its own: it stops
    once its own score norm is at most SCORE_TOL or after MAX_ITER steps,
    and each step takes the first length 1, 1/2, ..., 2^-40 at which its
    log-likelihood does not drop by more than 1e-10, or 2^-40 untested
    (``exhausted``).  A member's ``mean`` is the one its last iterate was
    tested with, the link's mean at its coefficients.  An exactly singular
    X'WX raises ``fit_binary``'s SingularDesignError on a stack of one and
    LinAlgError on a larger stack.
    """
    mean = _LINK_MEANS.get(link) or _mean_function(link)    # which raises on an unknown link
    B, n, p = design.shape
    y0 = y == 0.0
    m = y.sum(-1) / n           # exact: a sum of zeros and ones, so m == mean(y)
    intercept = np.log(m / (1 - m)) if link == "logit" else normal_quantile(m)
    beta = np.zeros((B, p))
    todo = list(range(B))
    for j in range(p):          # the first all-ones column starts at link(mean(y))
        if not todo:
            break
        ones = (design[:, :, j] == 1.0).all(-1).tolist()
        for k in todo:
            if ones[k]:
                beta[k, j] = intercept[k]
        todo = [k for k in todo if not ones[k]]
    if start is not None:
        beta = np.where(np.isnan(start).any(-1, keepdims=True), beta, start)

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
        score = _rowsum(adj, x)
        return score, np.abs(score).max(-1), w

    eta, mu, var, ll = evaluate(design, y0, beta)
    score, norm, w = score_and_weights(design, y, eta, mu, var)
    traces = [[v] for v in ll.tolist()]
    coef, fitted = np.empty((B, p)), np.empty((B, n))
    iterations = [0] * B
    score_norm, loglik = [np.nan] * B, [np.nan] * B
    exhausted, separated = [False] * B, [False] * B
    # the live members and their state; every live member has taken `steps` steps
    live = list(range(B))
    # xt is a C-contiguous copy of the design transposed, (B, p, n), so that
    # weighting its rows in X'WX (into the buffer xtw) runs along the long axis
    x, xt, live_y, live_y0 = design, np.ascontiguousarray(design.mT), y, y0
    xtw = np.empty_like(xt)
    steps = 0
    while True:
        norms = norm.tolist()
        stop = [v <= SCORE_TOL or steps >= MAX_ITER for v in norms]
        if any(stop):
            done = [k for k, s in enumerate(stop) if s]
            members = [live[k] for k in done]
            coef[members], fitted[members] = beta[done], mu[done]
            for k, member in zip(done, members):
                score_norm[member], iterations[member] = norms[k], steps
                loglik[member] = float(ll[k])
                separated[member] = bool(np.linalg.norm(beta[k]) > SEPARATION_NORM)
            keep = [k for k, s in enumerate(stop) if not s]
            if not keep:
                break
            live = [live[k] for k in keep]
            # what the next step reads; eta, mu, var and norm are recomputed first
            x, xt, live_y, live_y0, beta, ll, score, w = (
                a[keep] for a in (x, xt, live_y, live_y0, beta, ll, score, w))
            xtw = xtw[:len(live)]
        # Fisher scoring step: solve (X'WX) d = X'(score residual)
        hessian = _rowsum(np.multiply(xt, w[:, None, :], out=xtw).mT, x)
        try:
            step = np.linalg.solve(hessian, score[..., None])[..., 0]
        except np.linalg.LinAlgError:
            if B > 1:
                raise
            s = np.linalg.svd(hessian[0], compute_uv=False)
            cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
            raise SingularDesignError(f"fit_binary: weighted design is rank deficient "
                                      f"(condition {cond:.3e})", condition=cond) from None
        steps += 1
        # step-halving over t = 1, 1/2, ..., 2^-40: the whole stack tries t = 1,
        # the members still pending each shorter t; the accepted candidate's
        # eta, mu, variance and log-likelihood are kept
        rows, pending, found = slice(None), range(len(live)), None
        for halving in range(41):
            cand = beta[rows] + 0.5 ** halving * step[rows]
            trial = (cand, *evaluate(x[rows], live_y0[rows], cand))
            if halving < 40:
                ok = (trial[-1] >= ll[rows] - 1e-10).tolist()
            else:       # the last length, untested
                ok = [True] * len(pending)
                for k in pending:
                    exhausted[live[k]] = True
            if found is None:
                found = trial
            elif any(ok):
                accepted = [i for i, a in enumerate(ok) if a]
                for state, value in zip(found, trial):
                    state[[pending[i] for i in accepted]] = value[accepted]
            rows = pending = [k for k, a in zip(pending, ok) if not a]
            if not pending:
                break
        beta, eta, mu, var, ll = found
        for member, value in zip(live, ll.tolist()):
            traces[member].append(value)
        score, norm, w = score_and_weights(x, live_y, eta, mu, var)
    return _Irls(coef, fitted, iterations, score_norm, loglik, traces, exhausted, separated)


def fit_binary(design: np.ndarray, response: np.ndarray, link: str = "logit") -> BinaryFit:
    """Fit a binary regression by IRLS with step-halving.

    Fisher scoring stops once the max-abs score is at most SCORE_TOL (1e-8)
    or after MAX_ITER (100) steps; a step is halved, at most 40 times, while
    the log-likelihood drops by more than 1e-10.  The start vector is zero
    except that the coefficient of an all-ones column (if present) is
    initialised at ``link(mean(response))``.  Non-convergence is reported via
    ``converged`` rather than raised, so the caller decides; apparent
    separation (coefficient norm above 1e4) sets the ``separation`` flag.

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
    return _binary_fit(_binary(design[None], y[None], link), 0, link)


def _binary(design: np.ndarray, y: np.ndarray, link: str, start: np.ndarray | None = None) -> _Irls:
    """The IRLS fit of a stack, design (B, n, p) and 0/1 responses y (B, n),
    from ``start`` (see :func:`_irls`), with ``fit_binary``'s checks (see
    :func:`_check`): a response of one class is a DegenerateResponseError,
    and :func:`_irls` raises for a singular X'WX."""
    n = y.shape[-1]
    _check([DegenerateResponseError("response must contain both classes") if ones in (0, n)
            else None for ones in np.count_nonzero(y, axis=-1).tolist()])
    return _irls(design, y, link, start)


def _binary_fit(fit: _Irls, k: int, link: str) -> BinaryFit:
    """Member ``k`` of a stacked IRLS fit as the BinaryFit ``fit_binary``
    returns; the member owns copies of the stack's arrays."""
    score_norm = fit.score_norm[k]
    return BinaryFit(
        coefficients=fit.coef[k].copy(),
        link=link,
        converged=score_norm <= SCORE_TOL,
        iterations=fit.iterations[k],
        score_norm=score_norm,
        separation=fit.separated[k],
        log_likelihood=fit.loglik[k],
        loglik_trace=list(fit.traces[k]),
    )

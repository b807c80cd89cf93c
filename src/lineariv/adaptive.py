"""Adaptive nuisance estimation for the constant-effect model.

Empirical efficiency maximisation (EEM) picks the index and outcome
coefficients to minimise the empirical asymptotic-variance ratio of the
G-estimator via two closed-form regressions; the bias-reduced procedures
re-estimate one nuisance model by zeroing the gradient of the estimator's
influence function with respect to the other, so that jointly misspecified
working models inflate the bias as little as possible.

Everything here is restricted to a constant causal effect and a single
(binary or scalar) instrument column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dataset import BasisSpec, Dataset, build_design
from .errors import (
    SingularDesignError,
    UnsupportedCombinationError,
    WeakIdentificationError,
)
from .estimators import EstimateResult, _Ee, _ee_result, _ee_solve, _ee_system, _g_stack, _solve_ee
from .glm import (
    SCORE_TOL,
    _attempt,
    _binary,
    _binary_fit,
    _check,
    _Flagged,
    _held,
    _Irls,
    _join,
    _ols,
    _ranks,
    _rowsum,
    _stack,
    _wls,
)
from .models import BinaryLogisticIv, IvModel, OutcomeModel, ScaledInstrument

__all__ = [
    "EemFit",
    "BrFit",
    "eem_fit_alpha",
    "eem_fit_beta",
    "eem_objective",
    "eem_estimate",
    "br_gamma_estimate",
    "br_beta_estimate",
]

_ALPHA_CONTEXT = "degenerate instrument variation: centered index design is rank deficient"


@dataclass
class EemFit:
    """Index and outcome coefficients chosen by variance minimisation."""

    alpha_tilde: np.ndarray
    beta_tilde: np.ndarray
    objective_value: float
    preliminary_psi: float


@dataclass
class BrFit:
    """Bias-reduced nuisance fit and the identity it enforces."""

    variant: str                  # "br_gamma" | "br_beta"
    gamma_hat: np.ndarray         # instrument-model coefficients (incl. extension)
    beta_hat: np.ndarray          # outcome coefficients (incl. extension), empty for br_gamma
    score_identity_norm: float
    converged: bool = True


_SINGLE_INSTRUMENT = "adaptive procedures require a single instrument column"


def _stack_errors(datasets: list[Dataset]) -> list:
    """Per dataset of a stack, the bias-reduced kernels' UnsupportedCombinationError
    for one without a single binary instrument column, or None (:func:`_check`)."""
    return [UnsupportedCombinationError(_SINGLE_INSTRUMENT) if ds.n_instruments != 1
            else UnsupportedCombinationError("bias-reduced procedures require a binary instrument")
            if not ds.z_is_binary() else None for ds in datasets]


def _stack_data(datasets: list[Dataset]) -> tuple:
    """y, x (B, n), z (B, n, q) and the covariates every member has (B, n, r)
    of a stack.  A member of another size or instrument count than the first
    flags the stack (:class:`~lineariv.glm._Flagged`): it is computed alone."""
    if any(ds.z.shape != datasets[0].z.shape for ds in datasets):
        raise _Flagged()
    r = min(ds.n_covariates for ds in datasets)
    return (_stack([ds.y for ds in datasets]), _stack([ds.x for ds in datasets]),
            _stack([ds.z for ds in datasets]), _stack([ds.c_raw[:, :r] for ds in datasets]))


# ---------------------------------------------------------------------------
# Empirical efficiency maximisation
# ---------------------------------------------------------------------------

def _eem_data(data: Dataset, iv: IvModel, *bases: BasisSpec) -> tuple:
    """z - E(z|C), x, y and the designs of ``bases`` of one dataset, each as a
    stack of one."""
    if data.n_instruments != 1:
        raise UnsupportedCombinationError(_SINGLE_INSTRUMENT)
    return ((data.z[:, 0] - iv.conditional_mean(data)[:, 0])[None], data.x[None], data.y[None],
            *(build_design(data, basis)[None] for basis in bases))


def eem_fit_alpha(data: Dataset, iv: IvModel, index_basis: BasisSpec) -> np.ndarray:
    """Index coefficients: OLS of x on (z - E(z|C)) * index basis columns."""
    zc, x, _, index_design = _eem_data(data, iv, index_basis)
    return _index_coef(zc, index_design, x, _ALPHA_CONTEXT)[0]


def eem_fit_beta(data: Dataset, iv: IvModel, alpha: np.ndarray, index_basis: BasisSpec,
                 outcome_basis: BasisSpec, preliminary_psi: float) -> np.ndarray:
    """Outcome coefficients: WLS of y - psi0*x on the outcome basis.

    Weights are (alpha' b(C))^2 (z - E(z|C))^2, the variance-minimising
    weighting for the centered-index G-estimator.
    """
    zc, x, y, index_design, outcome_design = _eem_data(data, iv, index_basis, outcome_basis)
    scale = np.matvec(index_design, np.asarray(alpha, dtype=float))
    return _wls(outcome_design, y - float(preliminary_psi) * x, scale**2 * zc**2).coef[0]


def eem_objective(data: Dataset, iv: IvModel, alpha, beta, psi: float,
                  index_basis: BasisSpec, outcome_basis: BasisSpec) -> float:
    """Empirical variance ratio of the G-estimator at the given coefficients.

    sample variance of d_i * eps_i over n * (mean of d_i * x_i)^2, with
    d the centered index at alpha and eps the structural residual at
    (beta, psi).
    """
    zc, x, y, index_design, outcome_design = _eem_data(data, iv, index_basis, outcome_basis)
    d = np.matvec(index_design, np.asarray(alpha, dtype=float)) * zc
    eps = y - np.matvec(outcome_design, np.asarray(beta, dtype=float)) - float(psi) * x
    return _eem_objective(d, x, eps)[0]


def _eem_objective(d: np.ndarray, x: np.ndarray, eps: np.ndarray) -> list:
    """:func:`eem_objective` of a stack from the centered index d and the
    structural residual eps (B, n); a zero mean(d*x) is an error."""
    means = (d * x).mean(-1).tolist()
    _check([WeakIdentificationError("objective denominator mean(d*x) is zero")
            if mean == 0.0 else None for mean in means])
    n = x.shape[-1]
    return [var / (n * mean**2) for var, mean in zip(np.var(d * eps, ddof=1, axis=-1).tolist(),
                                                     means)]


class _Eem(NamedTuple):
    """The EEM fits of a stack of B datasets."""

    beta: np.ndarray                # (B, q) outcome coefficients
    ee: _Ee                         # the G-estimating equation at the centered index
    objective: list                 # eem_objective at (alpha, beta, psi0)


def _eem_stack(zc: np.ndarray, x: np.ndarray, y: np.ndarray, index_design: np.ndarray,
               outcome_design: np.ndarray, psi0: np.ndarray, alpha: np.ndarray) -> _Eem:
    """The arithmetic of :func:`eem_estimate` from its preliminary estimates
    psi0 (B,) and index coefficients alpha (B, k) on, for a stack of B
    datasets of one size: zc = z - E(z|C), x, y (B, n) and the designs
    (B, n, p).  The weighted beta regression (:func:`eem_fit_beta`), the
    G-estimating equation at the centered index with that outcome fit fixed
    and the objective, with their checks in that order (see :func:`_check`)."""
    scale = np.matvec(index_design, alpha)
    beta = _wls(outcome_design, y - psi0[:, None] * x, scale**2 * zc**2).coef
    d = scale * zc
    ee = _g_stack(d[..., None], x[..., None], y - np.matvec(outcome_design, beta))
    return _Eem(beta, ee, _eem_objective(d, x, ee.response - psi0[:, None] * x))


def eem_estimate(data: Dataset, iv: IvModel, index_basis: BasisSpec,
                 outcome_basis: BasisSpec,
                 preliminary_psi: float | None = None) -> EstimateResult:
    """G-estimate at the variance-minimising index and outcome coefficients.

    The preliminary effect estimate anchors the beta regression.  Its
    default, the e=Z G-estimator with the outcome model profiled, solves the
    estimating equation of [z - E(z|C), outcome basis] against
    [x, outcome basis] and y, as :func:`~lineariv.estimators.g_estimate`
    does.  The final estimating equation is linear in the effect and is
    solved once, as g_estimate solves it at the centered index
    (alpha'b(C))(z - E(z|C)) with the outcome model fixed.  E(z|C) and each
    basis are evaluated once; all after the preliminary estimate is one
    stacked kernel, run here as a stack of one and by the Table 1 bundle on
    its chunks of Monte Carlo replicates.
    """
    zc, x, y, index_design, outcome_design = _eem_data(data, iv, index_basis, outcome_basis)
    if preliminary_psi is None:
        preliminary_psi = _g_stack(zc[..., None], x[..., None], y, outcome_design).theta[0, 0]
    psi0 = float(preliminary_psi)
    alpha = _index_coef(zc, index_design, x, _ALPHA_CONTEXT)
    fit = _eem_stack(zc, x, y, index_design, outcome_design, np.array([psi0]), alpha)
    alpha, beta = alpha[0], fit.beta[0]
    result = _ee_result(fit.ee, slice(0, 1), beta,
                        {"iv": iv, "index": ScaledInstrument(index_basis, alpha),
                         "outcome": OutcomeModel(outcome_basis, beta)}, {"profiled_outcome": False})
    result.nuisance["eem"] = EemFit(alpha_tilde=alpha, beta_tilde=beta,
                                    objective_value=fit.objective[0], preliminary_psi=psi0)
    result.diagnostics["preliminary_psi"] = psi0
    return result


# ---------------------------------------------------------------------------
# Bias-reduced estimation
# ---------------------------------------------------------------------------

def _extend(base: np.ndarray, extension: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """``base`` joined with the extension columns that raise the numerical
    rank of the design, and their indices.

    On a stack, ``base`` (B, n, p) and ``extension`` (B, n, q): in order, a
    column is kept when appending it to the base and the kept columns raises
    the rank under fit_ols's test (``glm._ranks``), which sets every column
    to unit norm: the columns kept do not depend on the index's scale or the
    covariates' units, nor do the estimators, and fit_ols accepts the design
    returned, of raw columns.  A column is kept when every member keeps it;
    a stack whose members disagree on one raises :class:`~lineariv.glm._Flagged`.
    """
    # [base, extension] = QR, so any of its column sets has the Gram matrix,
    # hence the ranks, of the same columns of the small R: the test runs on those
    p = base.shape[-1]
    r = np.linalg.qr(_join(base, extension), mode="r")
    current, ranks = r[..., :p], _ranks(r[..., :p])
    kept: list[int] = []
    for j in range(extension.shape[-1]):
        trial = np.concatenate([current, r[..., p + j:p + j + 1]], axis=-1)
        trial_ranks = _ranks(trial)
        keep = [new > old for new, old in zip(trial_ranks, ranks)]
        if all(keep):
            kept.append(j)
            current, ranks = trial, trial_ranks
        elif any(keep):
            raise _Flagged()
    return (_join(base, extension[:, :, kept]) if kept else base), kept


def _index_coef(zc: np.ndarray, index_design: np.ndarray, x: np.ndarray,
                context: str) -> np.ndarray:
    """fit_ols coefficients of x on zc * index basis for a stack (B, n); a
    rank-deficient member is a WeakIdentificationError that ``context``
    names (see :func:`_check`)."""
    try:
        return _ols(zc[..., None] * index_design, x).coef
    except SingularDesignError as err:
        raise WeakIdentificationError(f"{context} ({err})", condition=err.condition) from err


class _BrGamma(NamedTuple):
    """The bias-reduced instrument-model fits of a stack of B datasets."""

    psi: np.ndarray                 # (B,)
    index_coef: np.ndarray          # (B, k), refitted under the extended fit
    extended: _Irls                 # the extended instrument fit
    kept: list                      # extension columns kept, the same for every member
    d: np.ndarray                   # (B, n) index times instrument residual


def _refit_start(fit: _Irls, design: np.ndarray, refit_design: np.ndarray) -> np.ndarray:
    """The IRLS start (B, p) of a refit on ``refit_design`` after ``fit`` on
    ``design``: where a member's fit converged and is not separated, its
    linear predictor projected onto the refit design by least squares (the
    normal equations); NaN, the default start, for any other member.  A
    singular member fails the solve: with others it raises LinAlgError,
    which :func:`~lineariv.glm._fit_stack` answers by computing each member
    alone, and alone it takes the default start."""
    start = np.full((len(refit_design), refit_design.shape[-1]), np.nan)
    take = [k for k, (norm, separated) in enumerate(zip(fit.score_norm, fit.separated))
            if norm <= SCORE_TOL and not separated]
    x = refit_design[take]
    gram, rhs = _rowsum(x, x), _rowsum(np.matvec(design[take], fit.coef[take]), x)[..., None]
    try:
        start[take] = np.linalg.solve(gram, rhs)[..., 0]
    except np.linalg.LinAlgError:
        if len(take) > 1:
            raise
    return start


def _br_gamma_stack(z: np.ndarray, x: np.ndarray, y: np.ndarray, iv_design: np.ndarray,
                    outcome_design: np.ndarray, index_design: np.ndarray,
                    alpha: np.ndarray) -> _BrGamma:
    """The arithmetic of :func:`br_gamma_estimate` after the plain instrument
    fit, on a stack of B datasets of one size: z, x, y (B, n), the designs
    (B, n, p) and alpha (B, k), :func:`eem_fit_alpha` under the plain fit.
    The extended fit at alpha, the index refitted under it, the extended
    fit at that index from the first one's linear predictor
    (:func:`_refit_start`) and psi from the scalar estimating equation
    sum d(y - psi x) = 0 at d = e(C)(z - P), solved and checked by
    :func:`~lineariv.estimators._solve_ee` as eem's equation is.

    Members are independent: each takes the iterates, checks (:func:`_check`)
    and values of a stack of one; members that disagree on an extension
    column flag the stack (:func:`_extend`).
    """
    extend = lambda e_scale: _extend(iv_design, e_scale[..., None] * outcome_design)
    first_design = extend(np.matvec(index_design, alpha))[0]
    first = _binary(first_design, z, "logit")
    alpha = _index_coef(z - first.mean, index_design, x,
                        "degenerate instrument variation under the extended fit")
    e_scale = np.matvec(index_design, alpha)
    design, kept = extend(e_scale)
    fit = _binary(design, z, "logit", _refit_start(first, first_design, design))
    d = e_scale * (z - fit.mean)
    psi = _solve_ee(d[..., None], x[..., None], y, "br_gamma").theta[:, 0]
    return _BrGamma(psi, alpha, fit, kept, d)


def _br_stages(out: dict, z: np.ndarray, x: np.ndarray, y: np.ndarray, iv_design: np.ndarray,
               outcome_design: np.ndarray, index_design: np.ndarray) -> None:
    """The plain-law chain of eem and the bias-reduced pair on a stack of B
    datasets, added to ``out`` as three stages through :func:`_attempt`:
    "plain", ``BinaryLogisticIv.fit``'s ML instrument fit, whose mean is
    P(Z=1|C); "alpha", :func:`eem_fit_alpha` under it; "gamma",
    :func:`_br_gamma_stack` from those.  Each stage holds its own error, or
    the error of the stage before."""
    _attempt(out, "plain", lambda: _binary(iv_design, z, "logit"))
    _attempt(out, "alpha", lambda plain: _index_coef(z - plain.mean, index_design, x,
                                                     _ALPHA_CONTEXT), "plain")
    _attempt(out, "gamma", lambda alpha: _br_gamma_stack(z, x, y, iv_design, outcome_design,
                                                         index_design, alpha), "alpha")


def _br_records(datasets: list[Dataset], bases: tuple) -> dict:
    """The stages of the bias-reduced pair on a stack of datasets, which the
    pair memoises under ``bases`` (instrument, outcome, index): "data", the
    stacked z, x, y (B, n) and the designs, one read-only array a distinct basis;
    :func:`_br_stages` on them; br-gamma's score identity norms, "identity",
    and influence values (B, n), "influence", which only a full result needs."""
    _check(_stack_errors(datasets))
    y, x, zs, cs = _stack_data(datasets)
    designs = {basis: basis._evaluate(zs, cs) for basis in dict.fromkeys(bases)}
    data = (zs[..., 0], x, y, *(designs[basis] for basis in bases))
    stages: dict = {"data": data}
    _br_stages(stages, *data)
    # the column sums keep this form: a vecmat moves their last bits
    _attempt(stages, "identity", lambda gamma: np.abs(
        (gamma.d[..., None] * data[4]).sum(-2)).max(-1).tolist(), "gamma")
    _attempt(stages, "influence", lambda gamma: gamma.d * (y - gamma.psi[:, None] * x)
             / (gamma.d * x).mean(-1)[:, None], "gamma")
    return stages


def br_gamma_estimate(data: Dataset, index_basis: BasisSpec, outcome_basis: BasisSpec,
                      iv_basis: BasisSpec) -> EstimateResult:
    """Bias-reduced instrument-model G-estimator for a binary instrument.

    The logistic instrument model is extended with the columns
    e(C) * outcome_basis(C); maximum likelihood on the extended model makes
    the gradient of the estimator's influence function with respect to the
    outcome coefficients vanish, so the final estimating equation
    sum e(C)(z - P)(y - psi*x) = 0 involves no outcome model at all.

    The index e(C) starts from :func:`eem_fit_alpha` under the plain
    maximum-likelihood fit ``BinaryLogisticIv.fit(data, iv_basis)`` (never a
    known instrument law: the bias-reduction identity assumes the ML fit);
    its coefficients are then re-estimated once with centering under the
    extended fit (the instrument model this procedure actually uses) and the
    extension is rebuilt.  The refit starts at the first extended fit's
    linear predictor, projected onto the rebuilt design by least squares,
    where that fit converged and is not separated, and else at fit_binary's
    default start.  For polynomial bases such as ``1 c0`` both designs span
    one space, so the refit usually takes no Fisher-scoring step.

    Both fits, or the error that stopped them, are the dataset's memoised
    bias-reduced pair, shared with :func:`br_beta_estimate` on the same bases
    and fitted as one stack for a linked chunk of resamples.  Every call
    returns a fresh result.
    """
    bases = (iv_basis, outcome_basis, index_basis)
    stages, k = data.memo(bases, lambda chunk: _br_records(chunk, bases))
    gamma = _held(stages["gamma"])
    fit = _binary_fit(gamma.extended, k, "logit")
    plain = _binary_fit(stages["plain"], k, "logit")
    br = BrFit(
        variant="br_gamma",
        gamma_hat=fit.coefficients,
        beta_hat=np.empty(0),
        score_identity_norm=stages["identity"][k],
        converged=fit.converged,
    )
    diagnostics = {
        "br_fit": br,
        "extended_converged": fit.converged,
        "extension_columns_kept": list(gamma.kept),
        "separation": fit.separation,
        "influence": stages["influence"][k].copy(),
    }
    if not fit.converged:
        diagnostics["warning"] = ("extended instrument model did not converge; "
                                  "using the step-halved fit")
    return EstimateResult(
        psi_hat=gamma.psi[k:k + 1].copy(),
        beta_hat=np.empty(0),
        nuisance={"iv_plain": BinaryLogisticIv(iv_basis, plain.coefficients, plain.converged),
                  "index_coef": gamma.index_coef[k].copy(), "extended_fit": fit},
        diagnostics=diagnostics,
    )


class _BrBeta(NamedTuple):
    """The bias-reduced outcome-model fits of a stack of B datasets."""

    psi: np.ndarray                 # (B,)
    beta: np.ndarray                # (B, q) extended outcome coefficients
    kept: list                      # extension columns kept, the same for every member
    x_ext: np.ndarray               # (B, n, q) outcome design and kept extension
    e_scale: np.ndarray             # (B, n) index scale alpha'b(C)
    d: np.ndarray                   # (B, n) index times instrument residual


def _br_beta_stack(z: np.ndarray, x: np.ndarray, y: np.ndarray, prob: np.ndarray,
                   iv_design: np.ndarray, outcome_design: np.ndarray,
                   index_design: np.ndarray, alpha: np.ndarray,
                   start: Callable[[], np.ndarray] | None) -> _BrBeta:
    """The arithmetic of :func:`br_beta_estimate` on a stack of B datasets of
    one size: z, x, y and prob, the plain instrument fit's P(Z=1|C), (B, n);
    the designs (B, n, p); alpha (B, k), the index coefficients under that
    fit.  The scalar system sum(d x) of d = e(C)(z - P) is checked first by
    :func:`~lineariv.estimators._ee_system`, the rule of every estimating
    equation.  ``start()`` gives the one-step start values (B,) and is called
    only once that check has passed, so that a start that failed fails after
    this estimator's own checks; the one-step psi then solves
    sum d(y - X_ext beta - psi x) = 0 with the same system
    (:func:`~lineariv.estimators._ee_solve`).  ``start=None`` is the full
    solve, one joint :func:`~lineariv.estimators._solve_ee`.
    """
    e_scale = np.matvec(index_design, alpha)
    x_ext, kept = _extend(outcome_design, (e_scale * (prob * (1.0 - prob)))[..., None] * iv_design)
    d = e_scale * (z - prob)
    system, _ = _ee_system(d[..., None], x[..., None], "br_beta")
    if start is None:
        theta = _solve_ee(_join(x_ext, d[..., None]), _join(x_ext, x[..., None]), y, "br_beta").theta
        return _BrBeta(theta[:, -1], theta[:, :-1], kept, x_ext, e_scale, d)
    fit = _ols(x_ext, y - start()[:, None] * x)
    psi = _ee_solve(system, d[..., None], y - np.matvec(x_ext, fit.coef))[:, 0]
    return _BrBeta(psi, fit.coef, kept, x_ext, e_scale, d)


def br_beta_estimate(data: Dataset, index_basis: BasisSpec, outcome_basis: BasisSpec,
                     iv_basis: BasisSpec, update: str = "one_step",
                     start_psi: float | None = None) -> EstimateResult:
    """Bias-reduced outcome-model G-estimator for a binary instrument.

    The instrument model is fitted by plain maximum likelihood; the linear
    outcome model is extended with the columns e(C) P(1-P) iv_basis(C), whose
    least-squares normal equations zero the gradient of the influence
    function with respect to the instrument-model coefficients.

    ``one_step`` (default) fits the extended outcome regression at a starting
    effect value (default: the bias-reduced instrument-model estimate) and
    then solves the estimating equation once; ``full_solve`` solves the
    outcome fit and the estimating equation as one joint linear system, which
    forces the defining gradient identity to hold exactly at the solution.
    The two modes are different estimators and generally give different
    values.  Both first check the scalar denominator sum d x, at the index
    d = e(C)(z - P), by the rule that eem and every other estimating equation
    use (:func:`~lineariv.estimators._ee_system`), and ``full_solve`` then
    its joint system; a degenerate or ill-conditioned one raises
    :class:`WeakIdentificationError`.  A
    one-step fit whose extended outcome regression leaves no residual degrees
    of freedom returns its start value and says so in
    ``diagnostics["warning"]``.

    The plain fit ``BinaryLogisticIv.fit(data, iv_basis)``, the index
    coefficients under it, the designs and the default start value are read
    from the dataset's memoised bias-reduced pair, which
    :func:`br_gamma_estimate` on the same bases shares; filling it fits both
    stages, whatever the mode and start.  Both modes are then one stacked
    kernel, run here as a stack of one; the Table 1 bundle runs the same
    kernel (one step) on its chunks of Monte Carlo replicates.
    """
    if update not in ("one_step", "full_solve"):
        raise ValueError(f"unknown update mode {update!r}")
    bases = (iv_basis, outcome_basis, index_basis)
    stages, k = data.memo(bases, lambda chunk: _br_records(chunk, bases))
    plain, alpha, gamma = (stages[stage] for stage in ("plain", "alpha", "gamma"))
    alpha, prob = _held(alpha)[k], plain.mean[k]        # alpha holds the plain fit's error too
    iv_design, outcome_design, index_design = (design[k] for design in stages["data"][3:])
    start = lambda: np.array([float(_held(gamma).psi[k] if start_psi is None else start_psi)])
    fit = _br_beta_stack(data.z[:, 0][None], data.x[None], data.y[None], prob[None],
                         iv_design[None], outcome_design[None], index_design[None], alpha[None],
                         None if update == "full_solve" else start)
    psi, beta_ext, x_ext = float(fit.psi[0]), fit.beta[0], fit.x_ext[0]
    e_scale, d = fit.e_scale[0], fit.d[0]
    w = prob * (1.0 - prob)

    resid = data.y - x_ext @ beta_ext - psi * data.x
    # empirical gradient-identity residual (mean form)
    a_vec = ((e_scale * w)[:, None] * iv_design * data.x[:, None]).mean(axis=0)
    b_scal = float(np.mean(d * data.x))
    gamma_term = (data.z[:, 0] - prob)[:, None] * a_vec[None, :]
    beta_term = (w[:, None] * iv_design) * b_scal
    identity = ((e_scale * resid)[:, None] * (gamma_term - beta_term)).mean(axis=0)
    plain_fit = _binary_fit(plain, k, "logit")
    iv = BinaryLogisticIv(iv_basis, plain_fit.coefficients, plain_fit.converged)
    br = BrFit(
        variant="br_beta",
        gamma_hat=iv.coef,
        beta_hat=beta_ext,
        score_identity_norm=float(np.abs(identity).max()),
        converged=True,
    )
    diagnostics = {"br_fit": br, "update": update}
    if update == "one_step" and x_ext.shape[0] <= x_ext.shape[1]:
        # the extended regression interpolates y - start*x, so the one-step
        # equation gives back its start value
        diagnostics["warning"] = ("extended outcome regression has no residual degrees of "
                                  "freedom; the one-step estimate is its start value")
    return EstimateResult(
        psi_hat=np.array([psi]),
        beta_hat=beta_ext,
        nuisance={"iv_plain": iv, "index_coef": alpha.copy(), "extension_columns": fit.kept},
        diagnostics=diagnostics,
    )

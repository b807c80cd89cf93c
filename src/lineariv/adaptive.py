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

import numpy as np

from .dataset import BasisSpec, Dataset, build_design
from .errors import (
    SingularDesignError,
    UnsupportedCombinationError,
    WeakIdentificationError,
)
from .estimators import EstimateResult, _solve_ee, g_estimate
from .glm import expit, fit_binary, fit_ols, fit_wls
from .models import (
    BinaryLogisticIv,
    EffectModel,
    IvModel,
    OutcomeModel,
    RawInstruments,
    ScaledInstrument,
)

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

COLLINEARITY_TOL = 1e-8


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


def _require_single_instrument(data: Dataset) -> None:
    if data.n_instruments != 1:
        raise UnsupportedCombinationError(
            "adaptive procedures require a single instrument column")


def _centered_z(data: Dataset, iv: IvModel) -> np.ndarray:
    return data.z[:, 0] - iv.conditional_mean(data)[:, 0]


# ---------------------------------------------------------------------------
# Empirical efficiency maximisation
# ---------------------------------------------------------------------------

def eem_fit_alpha(data: Dataset, iv: IvModel, index_basis: BasisSpec) -> np.ndarray:
    """Index coefficients: OLS of x on (z - E(z|C)) * index basis columns."""
    _require_single_instrument(data)
    zc = _centered_z(data, iv)
    design = zc[:, None] * build_design(data, index_basis)
    try:
        return fit_ols(design, data.x).coefficients
    except SingularDesignError as err:
        raise WeakIdentificationError(
            f"degenerate instrument variation: centered index design is rank "
            f"deficient ({err})", condition=err.condition) from None


def eem_fit_beta(data: Dataset, iv: IvModel, alpha: np.ndarray, index_basis: BasisSpec,
                 outcome_basis: BasisSpec, preliminary_psi: float) -> np.ndarray:
    """Outcome coefficients: WLS of y - psi0*x on the outcome basis.

    Weights are (alpha' b(C))^2 (z - E(z|C))^2, the variance-minimising
    weighting for the centered-index G-estimator.
    """
    _require_single_instrument(data)
    zc = _centered_z(data, iv)
    scale = build_design(data, index_basis) @ np.asarray(alpha, dtype=float)
    weights = scale**2 * zc**2
    response = data.y - float(preliminary_psi) * data.x
    return fit_wls(build_design(data, outcome_basis), response, weights).coefficients


def eem_objective(data: Dataset, iv: IvModel, alpha, beta, psi: float,
                  index_basis: BasisSpec, outcome_basis: BasisSpec) -> float:
    """Empirical variance ratio of the G-estimator at the given coefficients.

    sample variance of d_i * eps_i over n * (mean of d_i * x_i)^2, with
    d the centered index at alpha and eps the structural residual at
    (beta, psi).
    """
    _require_single_instrument(data)
    zc = _centered_z(data, iv)
    d = (build_design(data, index_basis) @ np.asarray(alpha, dtype=float)) * zc
    eps = data.y - build_design(data, outcome_basis) @ np.asarray(beta, dtype=float) - float(psi) * data.x
    denom_mean = float(np.mean(d * data.x))
    if denom_mean == 0.0:
        raise WeakIdentificationError("objective denominator mean(d*x) is zero")
    return float(np.var(d * eps, ddof=1) / (data.n * denom_mean**2))


def _preliminary_psi_raw_z(data: Dataset, iv: IvModel, outcome_basis: BasisSpec,
                           effect: EffectModel) -> float:
    """G-estimator with index e=Z and OLS-profiled linear outcome model."""
    res = g_estimate(data, RawInstruments(), OutcomeModel(outcome_basis), iv, effect)
    return res.psi


def eem_estimate(data: Dataset, iv: IvModel, index_basis: BasisSpec,
                 outcome_basis: BasisSpec,
                 preliminary_psi: float | None = None) -> EstimateResult:
    """G-estimate at the variance-minimising index and outcome coefficients.

    The preliminary effect estimate (default: the e=Z G-estimator with an
    OLS outcome model) anchors the beta regression; the final estimating
    equation is linear in the effect and is solved once by
    :func:`~lineariv.estimators.g_estimate` with the outcome model fixed.
    """
    effect = EffectModel.constant()
    if preliminary_psi is None:
        preliminary_psi = _preliminary_psi_raw_z(data, iv, outcome_basis, effect)
    alpha = eem_fit_alpha(data, iv, index_basis)
    beta = eem_fit_beta(data, iv, alpha, index_basis, outcome_basis, preliminary_psi)
    index = ScaledInstrument(index_basis, alpha)
    outcome = OutcomeModel(outcome_basis, beta)
    result = g_estimate(data, index, outcome, iv, effect)
    fit = EemFit(
        alpha_tilde=alpha,
        beta_tilde=beta,
        objective_value=eem_objective(data, iv, alpha, beta, preliminary_psi,
                                      index_basis, outcome_basis),
        preliminary_psi=float(preliminary_psi),
    )
    result.nuisance["eem"] = fit
    result.diagnostics["preliminary_psi"] = float(preliminary_psi)
    return result


# ---------------------------------------------------------------------------
# Bias-reduced estimation
# ---------------------------------------------------------------------------

def _drop_collinear(base: np.ndarray, extension: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Keep extension columns not numerically in the span of base + kept ones."""
    kept_cols: list[int] = []
    current = base
    for j in range(extension.shape[1]):
        col = extension[:, j]
        norm = np.linalg.norm(col)
        if norm == 0.0:
            continue
        coef, *_ = np.linalg.lstsq(current, col, rcond=None)
        resid = col - current @ coef
        if np.linalg.norm(resid) > COLLINEARITY_TOL * norm:
            kept_cols.append(j)
            current = np.column_stack([current, col])
    return extension[:, kept_cols], kept_cols


def _br_denominator(d: np.ndarray, x: np.ndarray, what: str) -> float:
    """sum(d * x); raises :class:`WeakIdentificationError` when it is
    negligible against ``||d|| * ||x||``."""
    denom = float(np.sum(d * x))
    scale = float(np.linalg.norm(d) * np.linalg.norm(x))
    if abs(denom) <= 1e-10 * max(scale, 1e-300):
        raise WeakIdentificationError(
            f"{what} denominator {denom:.3e} is degenerate against scale {scale:.3e}")
    return denom


def _fit_extended_logistic(data: Dataset, iv_design: np.ndarray,
                           extension: np.ndarray):
    design = np.column_stack([iv_design, extension]) if extension.size else iv_design
    fit = fit_binary(design, data.z[:, 0], link="logit")
    prob = expit(design @ fit.coefficients)
    return fit, prob


def br_gamma_estimate(data: Dataset, index_basis: BasisSpec, outcome_basis: BasisSpec,
                      iv_basis: BasisSpec, refit_index: bool = True,
                      iv_plain: BinaryLogisticIv | None = None) -> EstimateResult:
    """Bias-reduced instrument-model G-estimator for a binary instrument.

    The logistic instrument model is extended with the columns
    e(C) * outcome_basis(C); maximum likelihood on the extended model makes
    the gradient of the estimator's influence function with respect to the
    outcome coefficients vanish, so the final estimating equation
    sum e(C)(z - P)(y - psi*x) = 0 involves no outcome model at all.

    With ``refit_index`` the index coefficients are re-estimated once with
    centering under the extended fit (the instrument model this procedure
    actually uses) and the extension is rebuilt.

    ``iv_plain`` is the plain maximum-likelihood fit
    ``BinaryLogisticIv.fit(data, iv_basis)`` that starts the procedure; pass
    it to share one fit with other estimators on the same dataset, or leave
    it ``None`` to fit it here.  It must be that fit on this dataset, not a
    known instrument law: the bias-reduction identity assumes the ML fit.
    """
    _require_single_instrument(data)
    if not data.z_is_binary():
        raise UnsupportedCombinationError("bias-reduced procedures require a binary instrument")
    iv_design = build_design(data, iv_basis)
    outcome_design = build_design(data, outcome_basis)
    index_design = build_design(data, index_basis)

    plain = iv_plain if iv_plain is not None else BinaryLogisticIv.fit(data, iv_basis)
    alpha = eem_fit_alpha(data, plain, index_basis)

    def build_and_fit(alpha_vec):
        e_scale = index_design @ alpha_vec
        extension, kept = _drop_collinear(iv_design, e_scale[:, None] * outcome_design)
        fit, prob = _fit_extended_logistic(data, iv_design, extension)
        return e_scale, extension, kept, fit, prob

    e_scale, extension, kept, fit, prob = build_and_fit(alpha)
    if refit_index:
        zc = data.z[:, 0] - prob
        try:
            alpha = fit_ols(zc[:, None] * index_design, data.x).coefficients
        except SingularDesignError as err:
            raise WeakIdentificationError(
                f"degenerate instrument variation under the extended fit ({err})",
                condition=err.condition) from None
        e_scale, extension, kept, fit, prob = build_and_fit(alpha)

    d = e_scale * (data.z[:, 0] - prob)
    denom = _br_denominator(d, data.x, "br_gamma")
    psi = float(np.sum(d * data.y) / denom)

    score_identity = np.abs((d[:, None] * outcome_design).sum(axis=0)).max()
    influence = d * (data.y - psi * data.x) / (denom / data.n)
    br = BrFit(
        variant="br_gamma",
        gamma_hat=fit.coefficients,
        beta_hat=np.empty(0),
        score_identity_norm=float(score_identity),
        converged=fit.converged,
    )
    diagnostics = {
        "br_fit": br,
        "extended_converged": fit.converged,
        "extension_columns_kept": kept,
        "separation": fit.separation,
        "influence": influence,
    }
    if not fit.converged:
        diagnostics["warning"] = ("extended instrument model did not converge; "
                                  "using the step-halved fit")
    return EstimateResult(
        psi_hat=np.array([psi]),
        beta_hat=np.empty(0),
        nuisance={"iv_plain": plain, "index_coef": alpha, "extended_fit": fit},
        diagnostics=diagnostics,
    )


def br_beta_estimate(data: Dataset, index_basis: BasisSpec, outcome_basis: BasisSpec,
                     iv_basis: BasisSpec, update: str = "one_step",
                     start_psi: float | None = None,
                     iv_plain: BinaryLogisticIv | None = None) -> EstimateResult:
    """Bias-reduced outcome-model G-estimator for a binary instrument.

    The instrument model is fitted by plain maximum likelihood; the linear
    outcome model is extended with the columns e(C) P(1-P) iv_basis(C), whose
    least-squares normal equations zero the gradient of the influence
    function with respect to the instrument-model coefficients.

    ``one_step`` (default) fits the extended outcome regression at a starting
    effect value (default: the bias-reduced instrument-model estimate) and
    then solves the estimating equation once; ``full_solve`` solves the
    outcome fit and the estimating equation as one joint linear system, which
    forces the defining gradient identity to hold exactly at the solution; a
    degenerate joint system raises :class:`WeakIdentificationError`.  The two
    modes are different estimators and generally give different values.

    ``iv_plain`` is the plain maximum-likelihood fit
    ``BinaryLogisticIv.fit(data, iv_basis)``, as for
    :func:`br_gamma_estimate`; when it is ``None`` it is fitted here, and
    the same fit is handed to the inner bias-reduced instrument-model
    estimate that supplies the default start value.  It must be that ML fit,
    not a known instrument law.
    """
    if update not in ("one_step", "full_solve"):
        raise ValueError(f"unknown update mode {update!r}")
    _require_single_instrument(data)
    if not data.z_is_binary():
        raise UnsupportedCombinationError("bias-reduced procedures require a binary instrument")
    iv_design = build_design(data, iv_basis)
    outcome_design = build_design(data, outcome_basis)
    index_design = build_design(data, index_basis)

    plain = iv_plain if iv_plain is not None else BinaryLogisticIv.fit(data, iv_basis)
    prob = plain.prob(data)
    alpha = eem_fit_alpha(data, plain, index_basis)
    e_scale = index_design @ alpha
    w = prob * (1.0 - prob)
    extension, kept = _drop_collinear(outcome_design, (e_scale * w)[:, None] * iv_design)
    x_ext = np.column_stack([outcome_design, extension]) if extension.size else outcome_design
    d = e_scale * (data.z[:, 0] - prob)
    denom = _br_denominator(d, data.x, "br_beta")

    if update == "one_step":
        if start_psi is None:
            start_psi = br_gamma_estimate(data, index_basis, outcome_basis, iv_basis,
                                          iv_plain=plain).psi
        beta_ext = fit_ols(x_ext, data.y - float(start_psi) * data.x).coefficients
        psi = float(np.sum(d * (data.y - x_ext @ beta_ext)) / denom)
    else:
        theta, _ = _solve_ee(np.column_stack([x_ext, d]), np.column_stack([x_ext, data.x]),
                             data.y, "br_beta")
        beta_ext = theta[:-1]
        psi = float(theta[-1])

    resid = data.y - x_ext @ beta_ext - psi * data.x
    # empirical gradient-identity residual (mean form)
    a_vec = ((e_scale * w)[:, None] * iv_design * data.x[:, None]).mean(axis=0)
    b_scal = float(np.mean(d * data.x))
    gamma_term = (data.z[:, 0] - prob)[:, None] * a_vec[None, :]
    beta_term = (w[:, None] * iv_design) * b_scal
    identity = ((e_scale * resid)[:, None] * (gamma_term - beta_term)).mean(axis=0)
    br = BrFit(
        variant="br_beta",
        gamma_hat=plain.coef,
        beta_hat=beta_ext,
        score_identity_norm=float(np.abs(identity).max()),
        converged=True,
    )
    return EstimateResult(
        psi_hat=np.array([psi]),
        beta_hat=beta_ext,
        nuisance={"iv_plain": plain, "index_coef": alpha, "extension_columns": kept},
        diagnostics={"br_fit": br, "update": update},
    )

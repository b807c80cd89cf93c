"""Core estimator lattice.

Standard TSLS with the implied first stage, the plug-in two-stage estimator
for arbitrary exposure links, the exposure-model-free locally efficient
estimator (joint solve over effect and outcome coefficients), and the generic
double-robust G-estimator built on a centered index.  Every estimating
equation here is linear: an estimator builds an index matrix D, a regressor
matrix R and a response y, solves D'(y - R theta) = 0 (:func:`_solve_ee`, or
an SVD regression for the two least-squares estimators) and takes the
sandwich at the solution (:func:`_ee_result`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import BasisSpec, Dataset, build_design
from .errors import (
    SingularDesignError,
    UnsupportedCombinationError,
    WeakIdentificationError,
)
from .glm import _check, _join, _linear_fit, _Lstsq, _ols, fit_ols
from .inference import sandwich_se
from .models import (
    CustomIndex,
    EffectModel,
    EmpiricalIv,
    ExposureModel,
    IndexFunction,
    IvModel,
    OutcomeModel,
    RawInstruments,
    ScaledInstrument,
)

__all__ = [
    "EstimateResult",
    "standard_tsls",
    "plug_in_two_stage",
    "locally_efficient_y",
    "g_estimate",
    "centered_index",
    "efficient_index",
    "outcome_coef_at",
]

WEAK_ID_CONDITION = 1e10
NORMAL_975 = 1.959963984540054


@dataclass
class EstimateResult:
    """Point estimate plus nuisance fits, optional SEs/CIs and diagnostics."""

    psi_hat: np.ndarray
    beta_hat: np.ndarray = field(default_factory=lambda: np.empty(0))
    nuisance: dict = field(default_factory=dict)
    se: np.ndarray | None = None
    ci: tuple[np.ndarray, np.ndarray] | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def psi(self) -> float:
        """Scalar effect estimate (constant-effect models)."""
        return float(self.psi_hat[0])


def _solve_ee(index: np.ndarray, regressors: np.ndarray, response: np.ndarray,
              what: str) -> tuple[np.ndarray, list, list]:
    """Solve index'(response - regressors @ theta) = 0 for each member of a
    stack: index and regressors (B, n, k), response (B, n).

    Returns theta (B, k), the condition numbers of index'regressors and, per
    member, the :class:`WeakIdentificationError` of a system that is
    degenerate against :func:`_moment_scale` or ill-conditioned, or None.  A
    member with an error gets a NaN row, so it fails no other member; a
    caller with one dataset passes a stack of one and raises its error.
    """
    system = index.mT @ regressors
    scale = _moment_scale(index, regressors, index.shape[1])
    s = np.linalg.svd(system, compute_uv=False)
    cond, errors = [], []
    for lo, hi, sc in zip(s[:, -1].tolist(), s[:, 0].tolist(), scale):
        cond.append(hi / lo if lo > 0 else np.inf)
        if lo <= 1e-10 * max(sc, 1e-300):
            errors.append(WeakIdentificationError(
                f"{what}: estimating-equation denominator is degenerate "
                f"(smallest singular value {lo:.3e} against scale {sc:.3e})", condition=cond[-1]))
        elif cond[-1] > WEAK_ID_CONDITION:
            errors.append(WeakIdentificationError(
                f"{what}: denominator condition number {cond[-1]:.3e} exceeds "
                f"{WEAK_ID_CONDITION:.0e}", condition=cond[-1]))
        else:
            errors.append(None)
    failed = [err is not None for err in errors]
    if any(failed):
        system[failed] = np.eye(system.shape[-1])
    theta = np.linalg.solve(system, np.vecmat(response, index)[..., None])[..., 0]
    theta[failed] = np.nan
    return theta, cond, errors


def _ee_result(index: np.ndarray, regressors: np.ndarray, response: np.ndarray,
               theta: np.ndarray, psi_slice: slice, beta: np.ndarray, nuisance: dict,
               diagnostics: dict) -> EstimateResult:
    """The result at a solution theta: sandwich SEs (``None`` if singular), normal
    CI and residual norm of the moments index_i * (response_i - regressors_i' theta).

    ``psi_slice`` picks the effect out of theta; the SEs of any other entries
    of theta (outcome coefficients) go to ``beta_se``.
    """
    resid = response - regressors @ theta
    moments = index * resid[:, None]
    jac = -(index.T @ regressors) / index.shape[0]
    try:
        se_all = sandwich_se(moments, jac)
    except SingularDesignError:
        se_all = None
    psi = theta[psi_slice]
    se = se_all[psi_slice] if se_all is not None else None
    ci = (psi - NORMAL_975 * se, psi + NORMAL_975 * se) if se is not None else None
    total, scale = np.abs(moments.sum(axis=0)), np.abs(moments).sum(axis=0)
    diagnostics = {**diagnostics,
                   "ee_residual_norm": float(np.max(total / np.maximum(scale, 1e-300)))}
    if theta.size > psi.size:
        diagnostics["beta_se"] = np.delete(se_all, psi_slice) if se_all is not None else None
    return EstimateResult(psi_hat=psi, beta_hat=beta, nuisance=nuisance, se=se, ci=ci,
                          diagnostics=diagnostics)


def outcome_coef_at(data: Dataset, effect: EffectModel, outcome_basis: BasisSpec,
                    psi) -> np.ndarray:
    """OLS coefficients of y - m(C;psi)*x on the outcome basis.

    The conventional way to freeze an outcome model at a preliminary effect
    estimate before running a G-estimator.
    """
    resid = data.y - effect.value(data, psi) * data.x
    return fit_ols(build_design(data, outcome_basis), resid).coefficients


# ---------------------------------------------------------------------------
# Standard TSLS
# ---------------------------------------------------------------------------

def standard_tsls(data: Dataset, effect: EffectModel, outcome_basis: BasisSpec,
                  instruments: BasisSpec) -> EstimateResult:
    """Two-stage least squares with the implied first stage.

    Each endogenous regressor x*w_j(C) (one per effect-basis term) is
    projected by OLS onto [instrument columns, outcome-basis columns]; the
    second stage regresses y on [outcome basis, fitted endogenous columns].
    Standard errors are the usual IV sandwich, with residuals formed from the
    actual (not fitted) endogenous columns.  Both stages and the rank
    condition are :func:`_tsls_stack`, shared with the Table 1 stack.
    """
    inst = build_design(data, instruments)
    by = build_design(data, outcome_basis)
    grad = effect.gradient(data)
    k = effect.dim
    if inst.shape[1] < k:
        raise UnsupportedCombinationError(
            f"order condition fails: {inst.shape[1]} instrument column(s) for {k} effect parameter(s)")
    endog = data.x[:, None] * grad
    first_design, first, second_design, second = _tsls_stack(
        inst[None], by[None], endog[None], data.y[None])
    first_fits, fs_summary = [], {}
    for j, fit in enumerate(first):
        f = _linear_fit(first_design[0], endog[:, j], fit, [None])
        tot = np.sum((endog[:, j] - endog[:, j].mean()) ** 2)
        r_squared = float(1.0 - np.sum(f.residuals ** 2) / tot) if tot > 0 else 0.0
        first_fits.append(f)
        fs_summary[f"endog{j}"] = {"r_squared": r_squared}
    p_y = by.shape[1]
    coef = second.coef[0]
    return _ee_result(second_design[0], _join(by, endog), data.y,
                      coef, slice(p_y, None), coef[:p_y], {"first_stage": first_fits},
                      {"condition": second.condition[0], "first_stage": fs_summary})


def _tsls_stack(inst: np.ndarray, by: np.ndarray, endog: np.ndarray,
                y: np.ndarray) -> tuple[np.ndarray, list[_Lstsq], np.ndarray, _Lstsq]:
    """:func:`standard_tsls` on a stack: designs (B, n, p), endogenous columns
    (B, n, k), y (B, n).  Returns the first stage's design and k fits and the
    second stage's design and fit.  A rank-deficient second stage, or one with
    condition above WEAK_ID_CONDITION, is a WeakIdentificationError (:func:`_check`)."""
    first_design = _join(inst, by)
    first = []
    for j in range(endog.shape[-1]):
        fit, errors = _ols(first_design, endog[..., j])
        _check(errors)
        first.append(fit)
    second_design = _join(by, np.stack([np.matvec(first_design, f.coef) for f in first], axis=-1))
    second, errors = _ols(second_design, y)
    _check([None if err is None else WeakIdentificationError(
        "rank condition fails: fitted endogenous regressors are collinear "
        f"with the outcome basis ({err})", condition=err.condition) for err in errors])
    _check([WeakIdentificationError(f"rank condition fails: second-stage condition {cond:.3e}",
                                    condition=cond) if cond > WEAK_ID_CONDITION else None
            for cond in second.condition])
    return first_design, first, second_design, second


# ---------------------------------------------------------------------------
# Plug-in two-stage
# ---------------------------------------------------------------------------

def plug_in_two_stage(data: Dataset, exposure: ExposureModel, effect: EffectModel,
                      outcome_basis: BasisSpec) -> EstimateResult:
    """Fit the exposure model, then regress y on [outcome basis, m_x*grad].

    Stage-1 non-convergence raises; stage-2 collinearity raises.  Reported
    standard errors condition on the fitted first stage.
    """
    fitted_exposure = exposure if exposure.is_fitted else exposure.fit(data, require_convergence=True)
    mhat = fitted_exposure.predict(data)
    by = build_design(data, outcome_basis)
    grad = effect.gradient(data)
    plug = mhat[:, None] * grad

    design = _join(by, plug)
    second = fit_ols(design, data.y)
    p_y = by.shape[1]
    return _ee_result(design, design, data.y, second.coefficients, slice(p_y, None),
                      second.coefficients[:p_y], {"exposure": fitted_exposure},
                      {"condition": second.condition,
                       "exposure_converged": fitted_exposure.fit_converged})


# ---------------------------------------------------------------------------
# Locally efficient estimation without reliance on the exposure model
# ---------------------------------------------------------------------------

def locally_efficient_y(data: Dataset, exposure: ExposureModel, effect: EffectModel,
                        outcome_basis: BasisSpec) -> EstimateResult:
    """Joint solve for (psi, beta) with index (m_x * dm/dpsi ; dm_y/dbeta).

    The exposure model only shapes the index, so the estimator stays
    consistent under exposure-model misspecification as long as the outcome
    model is correct.  The system is linear in (psi, beta), so one solve
    gives the estimate.
    """
    if not exposure.is_fitted:
        raise ValueError("exposure model must be fitted first")
    mhat = exposure.predict(data)
    by = build_design(data, outcome_basis)
    grad = effect.gradient(data)
    index_mat = _join(mhat[:, None] * grad, by)
    regressors = _join(data.x[:, None] * grad, by)
    theta, cond, errors = _solve_ee(index_mat[None], regressors[None], data.y[None],
                                    "locally_efficient_y")
    if errors[0] is not None:
        labels = ([f"m_x*{lab}" for lab in (effect.basis.labels() if effect.basis else ["1"])]
                  + outcome_basis.labels())
        raise SingularDesignError(
            f"locally efficient system is singular; index components: {labels} ({errors[0]})")
    k = effect.dim
    return _ee_result(index_mat, regressors, data.y, theta[0], slice(0, k), theta[0, k:],
                      {"exposure": exposure}, {"condition": cond[0]})


# ---------------------------------------------------------------------------
# Centered index and the double-robust G-estimator
# ---------------------------------------------------------------------------

def centered_index(data: Dataset, index: IndexFunction, iv: IvModel) -> np.ndarray:
    """Evaluate e(Z,C) - E{e(Z,C)|C} rowwise under the fitted instrument law.

    Exact closed forms: multiplicative indices subtract g(C)*E(Z|C); any
    index with a single binary instrument is centered by the two-point
    mixture; linear-in-Z indices substitute E(Z|C); an empirical instrument
    law with a general index falls back to averaging the index over the
    observed instrument values at each row's covariates.
    """
    values = index.evaluate(data)
    if values.ndim == 1:
        values = values[:, None]
    if getattr(index, "centered", False):
        return values
    cond_mean = iv.conditional_mean(data)
    if isinstance(index, RawInstruments):
        return data.z - cond_mean
    if isinstance(index, ScaledInstrument):
        return index.scale(data)[:, None] * (data.z - cond_mean)
    # custom index
    if data.n_instruments == 1 and data.z_is_binary():
        p = cond_mean[:, 0]
        e1 = index.evaluate(data.with_z(1.0))
        e0 = index.evaluate(data.with_z(0.0))
        return values - (p[:, None] * e1 + (1.0 - p)[:, None] * e0)
    if index.is_linear_in_z():
        return values - index.evaluate(data.with_z(cond_mean))
    if isinstance(iv, EmpiricalIv):
        if data.n > 4000:
            raise UnsupportedCombinationError(
                "empirical centering of a general index is quadratic in n; "
                f"n={data.n} exceeds the supported size")
        acc = np.zeros_like(values)
        for j in range(data.n):
            acc += index.evaluate(data.with_z(np.broadcast_to(data.z[j], data.z.shape)))
        return values - acc / data.n
    raise UnsupportedCombinationError(
        "no exact conditional mean for a nonlinear index with a continuous instrument")


def g_estimate(data: Dataset, index: IndexFunction, outcome: OutcomeModel | None,
               iv: IvModel, effect: EffectModel) -> EstimateResult:
    """Solve the centered estimating equation for the causal coefficients.

    ``outcome`` handling: a model with coefficients subtracts its prediction
    (the classical fixed-nuisance G-estimator); a model without coefficients
    is profiled jointly, appending its basis moment conditions to the system
    (equivalent to one Newton update of the stacked equations from any start);
    ``None`` means no outcome model (m_y = 0).

    When the index has more components than the effect has parameters, the
    leading components are used.
    """
    d_full = centered_index(data, index, iv)
    k = effect.dim
    if d_full.shape[1] < k:
        raise UnsupportedCombinationError(
            f"index dimension {d_full.shape[1]} below effect dimension {k}")
    d = d_full[:, :k]
    grad = effect.gradient(data)
    endog = data.x[:, None] * grad

    profiled = outcome is not None and outcome.coef is None
    if profiled:
        by = outcome.design(data)
        index_mat = _join(d, by)
        regressors = _join(endog, by)
        response = data.y
    else:
        index_mat, regressors = d, endog
        response = data.y if outcome is None else data.y - outcome.predict(data)
    theta, cond, errors = _solve_ee(index_mat[None], regressors[None], response[None],
                                    "g_estimate")
    _check(errors)
    theta = theta[0]
    beta = theta[k:] if profiled else np.asarray([] if outcome is None else outcome.coef, dtype=float)
    return _ee_result(index_mat, regressors, response, theta, slice(0, k), beta,
                      {"iv": iv, "index": index, "outcome": outcome},
                      {"condition": cond[0], "profiled_outcome": profiled})


def efficient_index(data: Dataset, exposure: ExposureModel, iv: IvModel,
                    effect: EffectModel) -> CustomIndex:
    """Locally efficient index under constant residual variance.

    e_opt(Z,C) = dm/dpsi * [m_x(Z,C) - E{m_x(Z,C)|C}], with the inner
    conditional expectation computed exactly: a two-point mixture for a
    binary instrument (any exposure link), or substitution of E(Z|C) for an
    exposure model linear in Z.  The result is centered by construction.
    """
    if not exposure.is_fitted:
        raise ValueError("exposure model must be fitted first")

    binary = data.n_instruments == 1 and data.z_is_binary()
    if binary:
        def cond_mean_mx(ds: Dataset) -> np.ndarray:
            p = iv.conditional_mean(ds)[:, 0]
            m1 = exposure.predict(ds.with_z(1.0))
            m0 = exposure.predict(ds.with_z(0.0))
            return p * m1 + (1.0 - p) * m0
    elif exposure.is_linear_in_z():
        def cond_mean_mx(ds: Dataset) -> np.ndarray:
            return exposure.predict(ds.with_z(iv.conditional_mean(ds)))
    else:
        raise UnsupportedCombinationError(
            "continuous instruments combined with a nonlinear exposure model "
            "have no exact efficient index here")

    def evaluator(ds: Dataset) -> np.ndarray:
        centered_mx = exposure.predict(ds) - cond_mean_mx(ds)
        return centered_mx[:, None] * effect.gradient(ds)

    return CustomIndex(evaluator=evaluator, centered=True,
                       linear_in_z=exposure.is_linear_in_z())


def _moment_scale(left: np.ndarray, right: np.ndarray, n: int) -> list[float]:
    # Per member of (B, n, k) stacks.  The ||right||^2 floor makes an
    # (effectively) zero index register as degenerate no matter how the
    # cancellation scale ||left||*||right|| shrinks with it; the estimating
    # equation is homogeneous in the index, so any sanely scaled index sits far
    # above both references.  Each norm is sqrt(a.a) over the member in C
    # order, as np.linalg.norm takes it.
    def norms(a):
        flat = a.reshape(len(a), -1)
        return np.sqrt(np.vecdot(flat, flat)).tolist()

    return [max(left_norm * right_norm, right_norm**2) / n
            for left_norm, right_norm in zip(norms(left), norms(right))]

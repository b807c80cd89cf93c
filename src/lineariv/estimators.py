"""Core estimator lattice.

Standard TSLS with the implied first stage, the plug-in two-stage estimator
for arbitrary exposure links, the exposure-model-free locally efficient
estimator (joint solve over effect and outcome coefficients), and the generic
double-robust G-estimator built on a centered index.  Every estimating
equation here is linear: an estimator builds an index matrix D, a regressor
matrix R and a response y, solves D'(y - R theta) = 0 (:func:`_solve_ee`, or
an SVD regression for the two least-squares estimators) and takes the
sandwich at the solution (:func:`_ee_result`).  The adaptive estimators of
:mod:`~lineariv.adaptive` (eem and the bias-reduced pair, br-gamma and
br-beta) solve their equations with the same function, so one rule
(:func:`_ee_system`) decides whether any denominator is degenerate.
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
from .glm import _check, _join, _linear_fit, _Lstsq, _mean_function, _ols, _rowsum, fit_ols
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


def _ee_system(index: np.ndarray, regressors: np.ndarray, what: str) -> tuple[np.ndarray, list]:
    """The denominator index'regressors (B, k, k) of the estimating equation
    index'(response - regressors @ theta) = 0 for each member of a stack
    (index and regressors (B, n, k)) and its condition numbers.  A system
    that is degenerate against :func:`_moment_scale` or ill-conditioned is a
    :class:`WeakIdentificationError` (see :func:`_check`).  This is the one
    degeneracy rule of every estimating equation in the package."""
    system = _rowsum(index, regressors)
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
    _check(errors)
    return system, cond


def _ee_solve(system: np.ndarray, index: np.ndarray, response: np.ndarray) -> np.ndarray:
    """theta (B, k) from a stack's :func:`_ee_system` and its response (B, n)."""
    return np.linalg.solve(system, _rowsum(response, index)[..., None])[..., 0]


def _solve_ee(index: np.ndarray, regressors: np.ndarray, response: np.ndarray,
              what: str) -> tuple[np.ndarray, list]:
    """Solve index'(response - regressors @ theta) = 0 for each member of a
    stack: index and regressors (B, n, k), response (B, n).

    Returns theta (B, k) and the condition numbers of :func:`_ee_system`,
    whose check (:func:`_check`) comes first.
    """
    system, cond = _ee_system(index, regressors, what)
    return _ee_solve(system, index, response), cond


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
    jac = -_rowsum(index, regressors) / index.shape[0]
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
        f = _linear_fit(first_design[0], endog[:, j], fit)
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
    first = [_ols(first_design, endog[..., j]) for j in range(endog.shape[-1])]
    second_design = _join(by, np.stack([np.matvec(first_design, f.coef) for f in first], axis=-1))
    try:
        second = _ols(second_design, y)
    except SingularDesignError as err:
        raise WeakIdentificationError(
            "rank condition fails: fitted endogenous regressors are collinear "
            f"with the outcome basis ({err})", condition=err.condition) from err
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
    labels = ([f"m_x*{lab}" for lab in (effect.basis.labels() if effect.basis else ["1"])]
              + outcome_basis.labels())
    index, regressors, theta, cond = _le_stack(
        exposure.predict(data)[None], build_design(data, outcome_basis)[None],
        effect.gradient(data)[None], data.x[None], data.y[None], labels)
    k = effect.dim
    return _ee_result(index[0], regressors[0], data.y, theta[0], slice(0, k), theta[0, k:],
                      {"exposure": exposure}, {"condition": cond[0]})


def _le_stack(mhat: np.ndarray, by: np.ndarray, grad: np.ndarray, x: np.ndarray, y: np.ndarray,
              labels: list) -> tuple:
    """:func:`locally_efficient_y`'s index (mhat * grad, by), regressors
    (x * grad, by) and :func:`_solve_ee` on a stack, whose
    WeakIdentificationError is a SingularDesignError naming ``labels``."""
    index, regressors = _join(mhat[..., None] * grad, by), _join(x[..., None] * grad, by)
    try:
        return (index, regressors, *_solve_ee(index, regressors, y, "locally_efficient_y"))
    except WeakIdentificationError as err:
        raise SingularDesignError(
            f"locally efficient system is singular; index components: {labels} ({err})") from err


# ---------------------------------------------------------------------------
# Centered index and the double-robust G-estimator
# ---------------------------------------------------------------------------

def centered_index(data: Dataset, index: IndexFunction, iv: IvModel) -> np.ndarray:
    """Evaluate e(Z,C) - E{e(Z,C)|C} rowwise under the fitted instrument law.

    Exact closed forms: multiplicative indices subtract g(C)*E(Z|C); any
    index with a single binary instrument is centered by the two-point
    mixture; linear-in-Z indices substitute E(Z|C); an empirical instrument
    law with a general index falls back to averaging the index over the
    observed instrument values at each row's covariates.  A custom index is
    evaluated at those counterfactual instrument values through its basis;
    an uncentered callable index raises UnsupportedCombinationError.
    """
    values = index.evaluate(data)
    if isinstance(index, CustomIndex) and index.centered:
        return values
    cond_mean = iv.conditional_mean(data)
    if isinstance(index, RawInstruments):
        return data.z - cond_mean
    if isinstance(index, ScaledInstrument):
        return index.scale(data)[:, None] * (data.z - cond_mean)
    if index.basis is None:
        raise UnsupportedCombinationError(
            "an uncentered index given as a callable cannot be evaluated at "
            "counterfactual instrument values; give the index as a basis")
    at = lambda z: index.basis._evaluate(z, data.c_raw)
    binary, linear = data.n_instruments == 1 and data.z_is_binary(), index.basis.is_linear_in_z()
    if not (binary or linear) and isinstance(iv, EmpiricalIv):
        if data.n > 4000:
            raise UnsupportedCombinationError(
                "empirical centering of a general index is quadratic in n; "
                f"n={data.n} exceeds the supported size")
        acc = np.zeros_like(values)
        for j in range(data.n):
            acc += at(np.broadcast_to(data.z[j], data.z.shape))
        return values - acc / data.n
    return _centered(at, values, cond_mean, binary, linear)


def _centered(at, observed: np.ndarray, z_mean: np.ndarray, binary: bool,
              linear: bool) -> np.ndarray:
    """``observed`` - E{f(Z,C)|C} in closed form, the centering of every
    G-estimator's index.  ``at(z)`` is f (..., n, m) at instrument values z
    shaped as E(Z|C) ``z_mean`` (..., n, q), over any leading axes, and
    ``observed`` is f at the observed instruments.  With one binary
    instrument (``binary``) E{f|C} is the two-point mixture
    p*f(1,C) + (1-p)*f(0,C) at p = E(Z|C); otherwise, for an f linear in Z
    (``linear``), it is f(E(Z|C), C)."""
    if binary:
        p = z_mean[..., :1]
        return observed - (p * at(np.ones_like(z_mean)) + (1.0 - p) * at(np.zeros_like(z_mean)))
    if linear:
        return observed - at(z_mean)
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
    theta, cond = _solve_ee(index_mat[None], regressors[None], response[None], "g_estimate")
    theta = theta[0]
    beta = theta[k:] if profiled else np.asarray([] if outcome is None else outcome.coef, dtype=float)
    return _ee_result(index_mat, regressors, response, theta, slice(0, k), beta,
                      {"iv": iv, "index": index, "outcome": outcome},
                      {"condition": cond[0], "profiled_outcome": profiled})


def efficient_index(data: Dataset, exposure: ExposureModel, iv: IvModel,
                    effect: EffectModel) -> CustomIndex:
    """Locally efficient index under constant residual variance.

    e_opt(Z,C) = dm/dpsi * [m_x(Z,C) - E{m_x(Z,C)|C}], the bracket by
    :func:`_centered`: exactly a two-point mixture for a binary instrument
    (any exposure link), or substitution of E(Z|C) for an exposure model
    linear in Z.  The result is centered by construction.
    """
    if not exposure.is_fitted:
        raise ValueError("exposure model must be fitted first")
    if not (data.n_instruments == 1 and data.z_is_binary() or exposure.is_linear_in_z()):
        raise UnsupportedCombinationError("continuous instruments combined with a nonlinear "
                                          "exposure model have no exact efficient index here")

    def evaluator(ds: Dataset) -> np.ndarray:
        binary = ds.n_instruments == 1 and ds.z_is_binary()
        return _exposure_bracket(exposure.link, exposure.basis, exposure.coef, ds.c_raw,
                                 build_design(ds, exposure.basis), iv.conditional_mean(ds),
                                 binary) * effect.gradient(ds)

    return CustomIndex(evaluator=evaluator, centered=True)


def _exposure_bracket(link: str, basis: BasisSpec, coef: np.ndarray, c: np.ndarray,
                      design: np.ndarray, z_mean: np.ndarray, binary: bool) -> np.ndarray:
    """m_x - E{m_x|C} (..., n, 1), :func:`efficient_index`'s bracket, for
    the exposure mean under ``link`` of ``basis`` at ``coef``, whose design
    at the observed instruments is ``design``, by :func:`_centered`."""
    mean = (lambda eta: eta) if link == "identity" else _mean_function(link)
    at = lambda design: mean(np.matvec(design, coef))[..., None]
    return _centered(lambda z: at(basis._evaluate(z, c)), at(design), z_mean, binary,
                     link == "identity" and basis.is_linear_in_z())


def _moment_scale(left: np.ndarray, right: np.ndarray, n: int) -> list[float]:
    # Per member of (B, n, k) stacks.  The ||right||^2 floor makes an
    # (effectively) zero index register as degenerate no matter how the
    # cancellation scale ||left||*||right|| shrinks with it; the estimating
    # equation is homogeneous in the index, so any sanely scaled index sits far
    # above both references.  Each norm is sqrt(a.a) over the member in C
    # order, as np.linalg.norm takes it, in blocks of ROW_BLOCK elements (_rowsum).
    def norms(a):
        flat = a.reshape(len(a), -1)
        return np.sqrt(_rowsum(flat, flat[..., None])[..., 0]).tolist()

    return [max(left_norm * right_norm, right_norm**2) / n
            for left_norm, right_norm in zip(norms(left), norms(right))]

"""Working-model types: causal effect form, outcome, exposure, instrument law,
and index functions for estimating equations.

All models are parameterised by a :class:`~lineariv.dataset.BasisSpec`; fitted
instances are immutable value objects carrying their coefficient vector, so
the same fitted model can be evaluated on new data (bootstrap resamples)
without re-fitting.  Counterfactual instrument values are evaluated on
arrays, through the basis, by :mod:`~lineariv.estimators`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .dataset import BasisSpec, Dataset, build_design
from .errors import NonConvergenceError, UnsupportedCombinationError
from .glm import _binary, _binary_fit, _check, _Irls, _Lstsq, _mean_function, _ols, fit_ols

__all__ = [
    "EffectModel",
    "OutcomeModel",
    "ExposureModel",
    "BinaryLogisticIv",
    "LinearMeanIv",
    "EmpiricalIv",
    "RawInstruments",
    "ScaledInstrument",
    "CustomIndex",
]


# ---------------------------------------------------------------------------
# Causal effect form m(C; psi)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EffectModel:
    """Causal effect of one exposure unit: constant, or linear in covariates.

    ``basis is None`` means the constant-effect model (a single coefficient);
    otherwise the effect is ``psi' @ basis(C)``.  ``value(data, 0) == 0`` in
    both cases, so the coefficient vector is the causal parameter itself.
    """

    basis: BasisSpec | None = None

    @classmethod
    def constant(cls) -> "EffectModel":
        return cls(None)

    @classmethod
    def with_modifiers(cls, basis: BasisSpec) -> "EffectModel":
        return cls(basis)

    @property
    def dim(self) -> int:
        return 1 if self.basis is None else len(self.basis)

    def gradient(self, data: Dataset) -> np.ndarray:
        """d m(C;psi)/d psi as an n-by-dim matrix (constant in psi)."""
        if self.basis is None:
            return np.ones((data.n, 1))
        return build_design(data, self.basis)

    def value(self, data: Dataset, psi) -> np.ndarray:
        psi = np.atleast_1d(np.asarray(psi, dtype=float))
        return self.gradient(data) @ psi


# ---------------------------------------------------------------------------
# Outcome model m_y(C; beta)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OutcomeModel:
    """Linear model for the covariate main effect on the outcome."""

    basis: BasisSpec
    coef: np.ndarray | None = None

    def design(self, data: Dataset) -> np.ndarray:
        return build_design(data, self.basis)

    def predict(self, data: Dataset) -> np.ndarray:
        if self.coef is None:
            raise ValueError("outcome model has no coefficients yet")
        return self.design(data) @ self.coef


# ---------------------------------------------------------------------------
# Exposure model m_x(Z, C; alpha)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExposureModel:
    """Conditional-mean model for the exposure with identity/logit/probit link."""

    link: str
    basis: BasisSpec
    coef: np.ndarray | None = None
    fit_converged: bool = True

    def __post_init__(self):
        if self.link not in ("identity", "logit", "probit"):
            raise ValueError(f"unknown link {self.link!r}")

    @property
    def is_fitted(self) -> bool:
        return self.coef is not None

    def is_linear_in_z(self) -> bool:
        return self.link == "identity" and self.basis.is_linear_in_z()

    def fit(self, data: Dataset, require_convergence: bool = False) -> "ExposureModel":
        """Fit by OLS (identity link) or maximum likelihood (logit/probit,
        which need a binary 0/1 exposure): :func:`_exposure_fit` on a stack of one."""
        fit = _exposure_fit(self.link, build_design(data, self.basis)[None], data.x[None])
        if self.link == "identity":
            return replace(self, coef=fit.coef[0], fit_converged=True)
        res = _binary_fit(fit, 0, self.link)
        if require_convergence and not res.converged:
            raise NonConvergenceError(
                f"exposure model ({self.link}) did not converge "
                f"(score norm {res.score_norm:.3e} after {res.iterations} iterations)",
                diagnostics={"score_norm": res.score_norm, "iterations": res.iterations,
                             "separation": res.separation},
            )
        return replace(self, coef=res.coefficients, fit_converged=res.converged)

    def predict(self, data: Dataset) -> np.ndarray:
        if self.coef is None:
            raise ValueError("exposure model has no coefficients yet")
        eta = build_design(data, self.basis) @ self.coef
        return eta if self.link == "identity" else _mean_function(self.link)(eta)


def _exposure_fit(link: str, design: np.ndarray, x: np.ndarray) -> _Lstsq | _Irls:
    """:meth:`ExposureModel.fit` on a stack, design (B, n, p) and exposure x
    (B, n): OLS for the identity link; else, with its checks (see
    :func:`~lineariv.glm._check`), a binary 0/1 exposure and the IRLS fit."""
    if link == "identity":
        return _ols(design, x)
    _check([None if ok else UnsupportedCombinationError(
        f"the {link} exposure model requires a binary 0/1 exposure")
        for ok in ((x == 0.0) | (x == 1.0)).all(-1).tolist()])
    return _binary(design, x, link)


# ---------------------------------------------------------------------------
# Instrument-law models f(Z | C)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinaryLogisticIv:
    """P(Z=1|C) = expit(gamma' basis(C)) for a single binary instrument."""

    basis: BasisSpec
    coef: np.ndarray
    fit_converged: bool = True

    @classmethod
    def fit(cls, data: Dataset, basis: BasisSpec) -> "BinaryLogisticIv":
        """Maximum likelihood: :func:`_logistic_iv` on a stack of one."""
        res = _binary_fit(_logistic_iv(data.z[None], data.c_raw[None], basis), 0, "logit")
        return cls(basis, res.coefficients, res.converged)

    @classmethod
    def known(cls, basis: BasisSpec, coef) -> "BinaryLogisticIv":
        return cls(basis, np.asarray(coef, dtype=float), True)

    def prob(self, data: Dataset) -> np.ndarray:
        return _mean_function("logit")(build_design(data, self.basis) @ self.coef)

    def conditional_mean(self, data: Dataset) -> np.ndarray:
        return self.prob(data)[:, None]


@dataclass(frozen=True)
class LinearMeanIv:
    """E(Z|C) = gamma' basis(C), one coefficient column per instrument."""

    basis: BasisSpec
    coef: np.ndarray  # (p, q)

    @classmethod
    def fit(cls, data: Dataset, basis: BasisSpec) -> "LinearMeanIv":
        design = build_design(data, basis)
        cols = [fit_ols(design, data.z[:, j]).coefficients for j in range(data.n_instruments)]
        return cls(basis, np.column_stack(cols))

    @classmethod
    def known(cls, basis: BasisSpec, coef) -> "LinearMeanIv":
        coef = np.asarray(coef, dtype=float)
        if coef.ndim == 1:
            coef = coef[:, None]
        return cls(basis, coef)

    def conditional_mean(self, data: Dataset) -> np.ndarray:
        return build_design(data, self.basis) @ self.coef


@dataclass(frozen=True)
class EmpiricalIv:
    """Instrument independent of covariates: E(Z|C) is the sample mean of Z."""

    means: np.ndarray

    @classmethod
    def fit(cls, data: Dataset) -> "EmpiricalIv":
        return cls(np.asarray(data.z.mean(axis=0)))

    def conditional_mean(self, data: Dataset) -> np.ndarray:
        return np.broadcast_to(self.means, (data.n, len(self.means))).copy()


def _logistic_iv(z: np.ndarray, c: np.ndarray, basis: BasisSpec) -> _Irls:
    """:meth:`BinaryLogisticIv.fit` on a stack, instruments z (B, n, q) and
    covariates c (B, n, r): a single binary 0/1 instrument column (see
    :func:`~lineariv.glm._check`), then the logit IRLS on ``basis``."""
    _check([UnsupportedCombinationError(
        "binary logistic instrument model requires a single instrument column") if z.shape[-1] != 1
        else None if ok else UnsupportedCombinationError("instrument column is not binary 0/1")
        for ok in ((z == 0.0) | (z == 1.0)).all((-2, -1)).tolist()])
    return _binary(basis._evaluate(z, c), z[..., 0], "logit")


IvModel = BinaryLogisticIv | LinearMeanIv | EmpiricalIv


# ---------------------------------------------------------------------------
# Index functions e(Z, C)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RawInstruments:
    """e(Z, C) = Z: one index component per instrument column."""

    def evaluate(self, data: Dataset) -> np.ndarray:
        return np.asarray(data.z)


@dataclass(frozen=True)
class ScaledInstrument:
    """e(Z, C) = (alpha' basis(C)) * Z, columnwise over instruments."""

    basis: BasisSpec
    coef: np.ndarray

    def scale(self, data: Dataset) -> np.ndarray:
        return build_design(data, self.basis) @ np.asarray(self.coef, dtype=float)

    def evaluate(self, data: Dataset) -> np.ndarray:
        return self.scale(data)[:, None] * data.z


@dataclass(frozen=True)
class CustomIndex:
    """Arbitrary index: a callable on datasets or a basis over (Z, C).

    ``centered`` marks indices that satisfy E{e(Z,C)|C} = 0 by construction,
    in which case centering is a no-op.  Centering evaluates the index at
    counterfactual instrument values, which only a basis allows: a callable
    index must be centered.
    """

    evaluator: Callable[[Dataset], np.ndarray] | None = None
    basis: BasisSpec | None = None
    centered: bool = False

    @classmethod
    def from_basis(cls, basis: BasisSpec) -> "CustomIndex":
        return cls(basis=basis)

    def evaluate(self, data: Dataset) -> np.ndarray:
        if self.basis is not None:
            vals = build_design(data, self.basis)
        elif self.evaluator is not None:
            vals = np.asarray(self.evaluator(data), dtype=float)
        else:
            raise ValueError("custom index needs an evaluator or a basis")
        if vals.ndim == 1:
            vals = vals[:, None]
        return vals


IndexFunction = RawInstruments | ScaledInstrument | CustomIndex

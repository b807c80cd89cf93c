"""Point estimates of the Table 1 bundle for a stack of datasets at once.

:func:`table1_point_estimates` computes the five estimates of
``suites.table1_estimators()`` for B datasets of one size with the stacked
kernels (:func:`~lineariv.glm._lstsq`, :func:`~lineariv.glm._irls` and
:func:`~lineariv.estimators._solve_ee` on a leading batch axis), so each numpy
call is paid once per stack instead of once per dataset.  Every expression
mirrors the per-dataset estimator it stands for, operands, order of
operations and memory layout included, so each member's estimates equal the
per-dataset ones to the last bit.

The collinearity and denominator rules are the per-dataset ones
(``adaptive._drop_collinear`` and ``adaptive._br_denominator`` take the same
leading batch axis), so they need no copy here.

A member is flagged, and left to the per-dataset estimators, where any check
of the per-dataset path would raise (rank, condition, degeneracy, a binary
instrument with both classes, a singular IRLS Hessian), where an IRLS step
ran out of halvings, and where ``_drop_collinear`` keeps other extension
columns for it than for most of the stack.  A flagged member leaves the stack
and the others are computed again without it.
"""

from __future__ import annotations

import numpy as np

from .adaptive import _br_denominator, _drop_collinear
from .dataset import Dataset
from .estimators import WEAK_ID_CONDITION, _solve_ee
from .glm import _irls, _lstsq, expit

__all__ = ["table1_point_estimates"]


class _Flagged(Exception):
    """Positions in the stack of members for the per-dataset path."""

    def __init__(self, positions: list[int]):
        super().__init__(positions)
        self.positions = positions


def _require(ok) -> None:
    bad = [k for k, good in enumerate(np.asarray(ok).tolist()) if not good]
    if bad:
        raise _Flagged(bad)


def _col(a: np.ndarray) -> np.ndarray:
    return a[..., None]


def _linear(design: np.ndarray, response: np.ndarray, well_conditioned: bool = False) -> np.ndarray:
    """fit_ols coefficients; flags a rank deficiency (and with
    ``well_conditioned`` a condition number above WEAK_ID_CONDITION)."""
    fit = _lstsq(design, response)
    _require([not (deficient or well_conditioned and cond > WEAK_ID_CONDITION)
              for deficient, cond in zip(fit.deficient, fit.condition)])
    return fit.coef


def _logistic(design: np.ndarray, z: np.ndarray) -> np.ndarray:
    """fit_binary(design, z, "logit") coefficients; flags a singular Hessian
    and a step whose halvings ran out."""
    fit = _irls(design, z, "logit")
    _require([c is None and not e for c, e in zip(fit.singular, fit.exhausted)])
    return np.array(fit.coef)


def _ee(index: np.ndarray, regressors: np.ndarray, response: np.ndarray) -> np.ndarray:
    theta, _ = _solve_ee(index, regressors, response, "g_estimate")
    _require(~np.isnan(theta[:, 0]))
    return theta[:, 0]


def _extension(base: np.ndarray, extension: np.ndarray) -> np.ndarray:
    """The extension columns ``_drop_collinear`` keeps; flags a member whose
    own decisions differ from the stack's."""
    kept, _, agree = _drop_collinear(base, extension)
    _require(agree)
    return kept


def _denominator(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``_br_denominator``; flags a member whose denominator is degenerate."""
    denom, _, degenerate = _br_denominator(d, x)
    _require(~degenerate)
    return denom


def _estimates(datasets: list[Dataset], iv_known_coef) -> list[dict]:
    y = np.stack([ds.y for ds in datasets])
    x = np.stack([ds.x for ds in datasets])
    z = np.stack([ds.z[:, 0] for ds in datasets])
    v = np.stack([ds.c_raw[:, 0] for ds in datasets])
    one = np.ones_like(y)
    zv = z * v
    lin = np.stack([one, v], axis=-1)                       # (1, c0)

    # standard_tsls: instruments (z0, z0:c0), outcome basis (1, c0)
    first = np.stack([z, zv, one, v], axis=-1)
    fitted = np.matvec(first, _linear(first, x))
    tsls = _linear(np.stack([one, v, fitted], axis=-1), y, well_conditioned=True)[:, 2]

    # BinaryLogisticIv.fit and fit_binary's class checks
    ones = z.sum(-1)
    _require(((z == 0.0) | (z == 1.0)).all(-1) & (ones > 0) & (ones < z.shape[1]))
    gamma = _logistic(lin, z)
    prob = expit(np.matvec(lin, gamma))                     # the plain fit's P(Z=1|C)
    if iv_known_coef is None:
        p_iv = prob
    else:
        p_iv = expit(np.matvec(lin, np.asarray(iv_known_coef, dtype=float)))

    # ExposureModel("identity", (1, z0, c0, z0:c0)).fit
    saturated = np.stack([one, z, v, zv], axis=-1)
    a_x = _linear(saturated, x)

    # loc_eff: g_estimate at efficient_index, outcome (1, c0) profiled
    m1 = np.matvec(np.stack([one, one, v, 1.0 * v], axis=-1), a_x)
    zero = np.zeros_like(y)
    m0 = np.matvec(np.stack([one, zero, v, 0.0 * v], axis=-1), a_x)
    d_eff = np.matvec(saturated, a_x) - (p_iv * m1 + (1.0 - p_iv) * m0)
    loc_eff = _ee(np.stack([d_eff, one, v], axis=-1), np.stack([x, one, v], axis=-1), y)

    def index_scale(zc):
        # (1, c0) @ alpha, alpha from eem_fit_alpha: x on zc * (1, c0)
        return np.matvec(lin, _linear(_col(zc) * lin, x))

    # eem: alpha, the weighted beta regression, then g_estimate
    zc_iv = z - p_iv
    scale_iv = index_scale(zc_iv)
    w = scale_iv**2 * zc_iv**2
    _require(np.isfinite(w).all(-1) & ~(w < 0).any(-1) & (w > 0).any(-1))
    sw = np.sqrt(w)
    beta = _linear(lin * _col(sw), (y - _col(tsls) * x) * sw)
    d_iv = scale_iv * zc_iv
    eem = _ee(_col(d_iv), _col(x), y - np.matvec(lin, beta))
    _require((d_iv * x).mean(-1) != 0.0)                   # eem_objective

    # br_gamma: the logistic instrument model extended by e(C) * (1, c0)
    zc = z - prob
    e_plain = scale_iv if iv_known_coef is None else index_scale(zc)

    def extended_fit(e_scale):
        extension = _extension(lin, _col(e_scale) * lin)
        design = np.concatenate([lin, extension], axis=-1) if extension.shape[-1] else lin
        return expit(np.matvec(design, _logistic(design, z)))

    ext_prob = extended_fit(e_plain)
    e_scale = index_scale(z - ext_prob)
    ext_prob = extended_fit(e_scale)
    d = e_scale * (z - ext_prob)
    br_gamma = (d * y).sum(-1) / _denominator(d, x)

    # br_beta (one step from br_gamma): the outcome model extended by e(C) P(1-P) * (1, c0)
    extension = _extension(lin, _col(e_plain * (prob * (1.0 - prob))) * lin)
    x_ext = np.concatenate([lin, extension], axis=-1) if extension.shape[-1] else lin
    d = e_plain * zc
    denom = _denominator(d, x)
    beta_ext = _linear(x_ext, y - _col(br_gamma) * x)
    br_beta = (d * (y - np.matvec(x_ext, beta_ext))).sum(-1) / denom

    columns = {"tsls": tsls, "loc_eff": loc_eff, "eem": eem, "br_gamma": br_gamma,
               "br_beta": br_beta}
    return [{name: col[k:k + 1] for name, col in columns.items()} for k in range(len(datasets))]


def table1_point_estimates(datasets: list[Dataset], iv_known_coef=None) -> list[dict | None]:
    """Per dataset, ``{estimator: psi_hat}`` of the Table 1 bundle, or ``None``
    where the dataset is left to the per-dataset estimators.

    Datasets of different sizes, or without one instrument column and a
    covariate, are all left to the per-dataset estimators.
    """
    out: list[dict | None] = [None] * len(datasets)
    n = datasets[0].n
    if any(ds.n != n or ds.n_instruments != 1 or ds.n_covariates < 1 for ds in datasets) or n < 4:
        return out
    members = list(range(len(datasets)))
    with np.errstate(all="ignore"):
        while members:
            try:
                values = _estimates([datasets[m] for m in members], iv_known_coef)
            except _Flagged as flagged:
                members = [m for k, m in enumerate(members) if k not in flagged.positions]
                continue
            except np.linalg.LinAlgError:
                return out
            for m, value in zip(members, values):
                out[m] = value
            return out
    return out

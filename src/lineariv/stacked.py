"""Point estimates of the Table 1 bundle for a stack of datasets at once.

:func:`table1_point_estimates` computes the five estimates of
``suites.table1_estimators()`` for B datasets of one size with the stacked
kernels (:func:`~lineariv.glm._lstsq`, :func:`~lineariv.glm._irls` and
:func:`~lineariv.estimators._solve_ee` on a leading batch axis), so each numpy
call is paid once per stack instead of once per dataset.  tsls, eem, br_gamma
and br_beta run the per-dataset estimators' own kernels
(``estimators._tsls_stack``, ``adaptive._eem_stack``, ``_br_gamma_stack`` and
``_br_beta_stack``), with their checks.  The plain instrument fit, the
exposure fit and loc_eff's efficient index are written out here for the
bundle's fixed bases, in the per-dataset expressions' operands, order and
layout, so each member's estimates equal the per-dataset ones to the last
bit.

A member is flagged, and left to the per-dataset estimators, where any check
of the per-dataset path would raise (rank, condition, degeneracy, a binary
instrument with both classes, a singular IRLS Hessian) and where
``_drop_collinear``'s rank test keeps other extension columns for it than for
most of the stack.  A flagged member leaves the stack and the others are
computed again without it.
"""

from __future__ import annotations

import numpy as np

from .adaptive import (
    _ALPHA_CONTEXT,
    _br_beta_stack,
    _br_gamma_stack,
    _eem_stack,
    _fit_stack,
    _index_coef,
    _logistic,
)
from .dataset import Dataset
from .estimators import _solve_ee, _tsls_stack
from .glm import _check, _class_errors, _ols, expit

__all__ = ["table1_point_estimates"]


def _estimates(datasets: list[Dataset], iv_known_coef) -> list[dict]:
    y = np.stack([ds.y for ds in datasets])
    x = np.stack([ds.x for ds in datasets])
    z = np.stack([ds.z[:, 0] for ds in datasets])
    v = np.stack([ds.c_raw[:, 0] for ds in datasets])
    one = np.ones_like(y)
    zv = z * v
    lin = np.stack([one, v], axis=-1)                       # (1, c0)

    # standard_tsls: instruments (z0, z0:c0), outcome basis (1, c0)
    tsls = _tsls_stack(np.stack([z, zv], axis=-1), lin, x[..., None], y)[-1].coef[:, 2]

    # BinaryLogisticIv.fit
    _check(_class_errors(z), strict=False)
    prob = _logistic(lin, z, strict=False)[1]               # the plain fit's P(Z=1|C)
    if iv_known_coef is None:
        p_iv = prob
    else:
        p_iv = expit(np.matvec(lin, np.asarray(iv_known_coef, dtype=float)))

    # ExposureModel("identity", (1, z0, c0, z0:c0)).fit
    saturated = np.stack([one, z, v, zv], axis=-1)
    exposure, errors = _ols(saturated, x)
    _check(errors, strict=False)
    a_x = exposure.coef

    # loc_eff: g_estimate at efficient_index, outcome (1, c0) profiled
    m1 = np.matvec(np.stack([one, one, v, 1.0 * v], axis=-1), a_x)
    zero = np.zeros_like(y)
    m0 = np.matvec(np.stack([one, zero, v, 0.0 * v], axis=-1), a_x)
    d_eff = np.matvec(saturated, a_x) - (p_iv * m1 + (1.0 - p_iv) * m0)
    theta, _, errors = _solve_ee(np.stack([d_eff, one, v], axis=-1),
                                 np.stack([x, one, v], axis=-1), y, "g_estimate")
    _check(errors, strict=False)

    # the per-dataset estimators' kernels: eem from tsls, br_gamma and br_beta
    # (one step from br_gamma) from the plain fit's index
    eem = _eem_stack(z - p_iv, x, y, lin, lin, tsls)
    alpha = eem.alpha if iv_known_coef is None else _index_coef(z - prob, lin, x, _ALPHA_CONTEXT,
                                                                strict=False)
    br_gamma = _br_gamma_stack(z, x, y, lin, lin, lin, alpha=alpha).psi
    br_beta = _br_beta_stack(z, x, y, prob, lin, lin, lin, alpha, lambda: br_gamma).psi

    columns = {"tsls": tsls, "loc_eff": theta[:, 0], "eem": eem.psi, "br_gamma": br_gamma,
               "br_beta": br_beta}
    return [{name: col[k:k + 1] for name, col in columns.items()} for k in range(len(datasets))]


def table1_point_estimates(datasets: list[Dataset], iv_known_coef=None) -> list[dict | None]:
    """Per dataset, ``{estimator: psi_hat}`` of the Table 1 bundle, or ``None``
    where the dataset is left to the per-dataset estimators.

    Datasets of different sizes, or without one instrument column and a
    covariate, are all left to the per-dataset estimators, as is a dataset
    whose instrument is not binary.
    """
    n = datasets[0].n
    if any(ds.n != n or ds.n_instruments != 1 or ds.n_covariates < 1 for ds in datasets) or n < 4:
        return [None] * len(datasets)
    return _fit_stack(lambda members: _estimates([datasets[m] for m in members], iv_known_coef),
                      [k for k, ds in enumerate(datasets) if ds.z_is_binary()], len(datasets))

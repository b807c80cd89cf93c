"""Estimates move with row order and units only as the maths says.

Each of the eight ``lineariv fit`` library calls (``perfbench/workloads.py``
CLI_FITS) on sim1 and Table 1 data must give the same psi after a row
permutation, psi scaled by s after y is scaled by s, and, where the exposure
is continuous, psi scaled by 1/s after x is scaled by s.
"""

import numpy as np
import pytest

from lineariv import Dataset, adaptive, estimators, models, simlab
from lineariv.dataset import BasisSpec
from lineariv.rng import make_generator

QUAD, LIN = BasisSpec(["1", "c0", "c0^2"]), BasisSpec(["1", "c0"])
EXPOSURE, INSTRUMENTS = BasisSpec(["z0", "1", "c0"]), BasisSpec(["z0"])
EFFECT = models.EffectModel.constant()
ESTIMATORS = ("tsls", "two-stage", "loc-eff-y", "g-est", "loc-eff-dr", "eem", "br-gamma",
              "br-beta")
RTOL = 1e-8


def _fit(estimator: str, data: Dataset, link: str) -> float:
    """The library calls of ``lineariv fit`` for CLI_FITS[estimator], the
    exposure models with ``link``."""
    exposure = models.ExposureModel(link, EXPOSURE)
    if estimator == "tsls":
        return estimators.standard_tsls(data, EFFECT, QUAD, INSTRUMENTS).psi
    if estimator == "two-stage":
        return estimators.plug_in_two_stage(data, exposure, EFFECT, QUAD).psi
    if estimator == "loc-eff-y":
        return estimators.locally_efficient_y(data, exposure.fit(data), EFFECT, QUAD).psi
    iv = models.BinaryLogisticIv.fit(data, LIN)
    if estimator == "g-est":
        psi0 = estimators.standard_tsls(data, EFFECT, QUAD, INSTRUMENTS).psi_hat
        beta = estimators.outcome_coef_at(data, EFFECT, QUAD, psi0)
        return estimators.g_estimate(data, models.RawInstruments(), models.OutcomeModel(QUAD, beta),
                                     iv, EFFECT).psi
    if estimator == "loc-eff-dr":
        index = estimators.efficient_index(data, exposure.fit(data), iv, EFFECT)
        return estimators.g_estimate(data, index, models.OutcomeModel(QUAD), iv, EFFECT).psi
    if estimator == "eem":
        return adaptive.eem_estimate(data, iv, LIN, QUAD).psi
    if estimator == "br-gamma":
        return adaptive.br_gamma_estimate(data, LIN, QUAD, LIN).psi
    return adaptive.br_beta_estimate(data, LIN, QUAD, LIN).psi


def _moves(data: Dataset, continuous_x: bool, seed: int):
    """(label, transformed dataset, the factor psi must move by)."""
    rows = make_generator([seed, 99]).permutation(data.n)
    yield "permutation", Dataset(data.y[rows], data.x[rows], data.z[rows], data.c_raw[rows]), 1.0
    for s in (1e-3, 1e3):
        yield f"y*{s:g}", Dataset(data.y * s, data.x, data.z, data.c_raw), s
        if continuous_x:
            yield f"x*{s:g}", Dataset(data.y, data.x * s, data.z, data.c_raw), 1.0 / s


@pytest.mark.parametrize("family", ["sim1", "table1"])
def test_psi_moves_only_as_the_maths_says(family):
    moves = []
    for seed in range(10):
        if family == "sim1":
            data, link, continuous_x = simlab.gen_sim1(500, seed).dataset, "probit", False
        else:
            data, link, continuous_x = simlab.gen_table1(0, 0, 0, 500, seed).dataset, "identity", True
        psi = {name: _fit(name, data, link) for name in ESTIMATORS}
        for label, moved, factor in _moves(data, continuous_x, seed):
            for name in ESTIMATORS:
                want = psi[name] * factor
                moves.append((abs(_fit(name, moved, link) - want) / abs(want), seed, label, name))
    worst = max(moves)
    assert worst[0] <= RTOL, worst

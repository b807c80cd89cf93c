"""Errors and values of eem and br-beta on degenerate inputs, pinned.

Each entry is the exception class and message a call raises, or its value as
``float.hex``.  They were recorded from the per-dataset implementations that
preceded the stacked kernels (``adaptive._eem_stack``, ``_br_beta_stack``),
which must raise the same errors in the same order.  The two one-step
br-beta values from the default start on the separated-instrument and
three-row cases were re-pinned when the IRLS arithmetic changed (see
``tests/test_golden.py``).  The values that go through a logistic instrument
law's probabilities (eem's, ``eem_fit_beta`` and ``eem_objective`` at an
index, one-step br-beta on the doubled exposure) were re-pinned when those
probabilities became IRLS's logit mean; none moved by more than 1.5e-15
relative, and no error or message changed.  When br-beta's scalar
denominator came to be checked and solved by the core solve
(``estimators._solve_ee``), the four zero-exposure br-beta errors took its
message (same class), and the two one-step values on the doubled exposure
were re-pinned; they moved by at most 3.6e-16 relative.  When br-gamma's
refit came to start at its first extended fit (see ``tests/test_golden.py``),
the one-step br-beta on the doubled exposure from br-gamma's estimate was
re-pinned: it moved by 6.4e-16 relative, and no error or message changed.
When every estimating equation came to be judged in its parameters' units
(each regressor column, and the index column paired with it, at the
regressor's unit norm; ``estimators._ee_system``), the degeneracy messages
of eem's preliminary equation on the constant covariate and the zero
exposure, of the four zero-exposure br-beta calls and of the two three-row
full-solve br-beta calls were re-pinned with their smallest singular value
and scale in those units (same class).  The two full-solve br-beta calls on
the separated instrument now return a value: they were rejected only
because their extension columns, which carry P(1-P) ~ 5e-8, were small
against one scale for the whole system.  No value changed.
"""

import numpy as np
import pytest

from lineariv import BasisSpec, Dataset, EstimationError
from lineariv.adaptive import br_beta_estimate, eem_estimate, eem_fit_beta, eem_objective
from lineariv.models import BinaryLogisticIv
from lineariv.simlab import gen_table1

LIN = BasisSpec(["1", "c0"])
IV = BinaryLogisticIv.known(LIN, [-0.5, 0.7])


def _cases() -> dict:
    d = gen_table1(1, 1, -1, 300, 61).dataset
    return {
        "constant covariate": Dataset(d.y, d.x, d.z, np.ones_like(d.c_raw)),
        "zero exposure": Dataset(d.y, np.zeros_like(d.x), d.z, d.c_raw),
        "separated instrument": Dataset(d.y, d.x, (d.c_raw[:, :1] > 0).astype(float), d.c_raw),
        "three rows": Dataset(d.y[:3], d.x[:3], d.z[:3], d.c_raw[:3]),
        "doubled exposure": Dataset(d.y, 2.0 * d.x, d.z, d.c_raw),
    }


def _calls(data: Dataset) -> dict:
    out = {}
    for pre in (None, 0.5):
        out[f"eem_estimate(preliminary_psi={pre})"] = lambda pre=pre: eem_estimate(
            data, IV, LIN, LIN, preliminary_psi=pre).psi_hat
    # a zero index makes every eem weight zero
    for name, alpha in (("zero index", [0.0, 0.0]), ("index", [1.0, 0.5])):
        out[f"eem_fit_beta({name})"] = lambda a=alpha: eem_fit_beta(
            data, IV, np.array(a), LIN, LIN, 0.5)
        out[f"eem_objective({name})"] = lambda a=alpha: eem_objective(
            data, IV, np.array(a), np.array([0.1, 0.2]), 0.5, LIN, LIN)
    for update in ("one_step", "full_solve"):
        for start in (None, 0.5):
            out[f"br_beta_estimate({update}, start_psi={start})"] = (
                lambda u=update, s=start: br_beta_estimate(data, LIN, LIN, LIN, update=u,
                                                           start_psi=s).psi_hat)
    return out


def _outcome(call):
    try:
        with np.errstate(all="ignore"):
            value = call()
    except EstimationError as err:
        return (type(err).__name__, str(err))
    return [float(v).hex() for v in np.ravel(value)]


PINS = {
    ('constant covariate', 'eem_estimate(preliminary_psi=None)'):
        ('WeakIdentificationError', 'g_estimate: estimating-equation denominator is degenerate (smallest singular value 2.513e-33 against scale 1.000e-02)'),
    ('constant covariate', 'eem_estimate(preliminary_psi=0.5)'):
        ('WeakIdentificationError', 'degenerate instrument variation: centered index design is rank deficient (fit_ols: design is rank deficient (condition estimate 3.759e+15))'),
    ('constant covariate', 'eem_fit_beta(zero index)'):
        ('DegenerateWeightsError', 'all weights are zero'),
    ('constant covariate', 'eem_objective(zero index)'):
        ('WeakIdentificationError', 'objective denominator mean(d*x) is zero'),
    ('constant covariate', 'eem_fit_beta(index)'):
        ('SingularDesignError', 'fit_wls: design is rank deficient (condition estimate 6.974e+15)'),
    ('constant covariate', 'eem_objective(index)'):
        ['0x1.cabeb4cc86bb6p-2'],
    ('constant covariate', 'br_beta_estimate(one_step, start_psi=None)'):
        ('WeakIdentificationError', 'degenerate instrument variation: centered index design is rank deficient (fit_ols: design is rank deficient (condition estimate 2.190e+15))'),
    ('constant covariate', 'br_beta_estimate(one_step, start_psi=0.5)'):
        ('WeakIdentificationError', 'degenerate instrument variation: centered index design is rank deficient (fit_ols: design is rank deficient (condition estimate 2.190e+15))'),
    ('constant covariate', 'br_beta_estimate(full_solve, start_psi=None)'):
        ('WeakIdentificationError', 'degenerate instrument variation: centered index design is rank deficient (fit_ols: design is rank deficient (condition estimate 2.190e+15))'),
    ('constant covariate', 'br_beta_estimate(full_solve, start_psi=0.5)'):
        ('WeakIdentificationError', 'degenerate instrument variation: centered index design is rank deficient (fit_ols: design is rank deficient (condition estimate 2.190e+15))'),
    ('zero exposure', 'eem_estimate(preliminary_psi=None)'):
        ('WeakIdentificationError', 'g_estimate: estimating-equation denominator is degenerate (smallest singular value 0.000e+00 against scale 4.496e-02)'),
    ('zero exposure', 'eem_estimate(preliminary_psi=0.5)'):
        ('DegenerateWeightsError', 'all weights are zero'),
    ('zero exposure', 'eem_fit_beta(zero index)'):
        ('DegenerateWeightsError', 'all weights are zero'),
    ('zero exposure', 'eem_objective(zero index)'):
        ('WeakIdentificationError', 'objective denominator mean(d*x) is zero'),
    ('zero exposure', 'eem_fit_beta(index)'):
        ['-0x1.2f47ef40eda1ap-6', '0x1.08d41fda78b0dp+2'],
    ('zero exposure', 'eem_objective(index)'):
        ('WeakIdentificationError', 'objective denominator mean(d*x) is zero'),
    ('zero exposure', 'br_beta_estimate(one_step, start_psi=None)'):
        ('WeakIdentificationError', 'br_beta: estimating-equation denominator is degenerate (smallest singular value 0.000e+00 against scale 3.333e-03)'),
    ('zero exposure', 'br_beta_estimate(one_step, start_psi=0.5)'):
        ('WeakIdentificationError', 'br_beta: estimating-equation denominator is degenerate (smallest singular value 0.000e+00 against scale 3.333e-03)'),
    ('zero exposure', 'br_beta_estimate(full_solve, start_psi=None)'):
        ('WeakIdentificationError', 'br_beta: estimating-equation denominator is degenerate (smallest singular value 0.000e+00 against scale 3.333e-03)'),
    ('zero exposure', 'br_beta_estimate(full_solve, start_psi=0.5)'):
        ('WeakIdentificationError', 'br_beta: estimating-equation denominator is degenerate (smallest singular value 0.000e+00 against scale 3.333e-03)'),
    ('separated instrument', 'eem_estimate(preliminary_psi=None)'):
        ['0x1.5022fdc2f7181p+1'],
    ('separated instrument', 'eem_estimate(preliminary_psi=0.5)'):
        ['0x1.0d9ed76972067p-1'],
    ('separated instrument', 'eem_fit_beta(zero index)'):
        ('DegenerateWeightsError', 'all weights are zero'),
    ('separated instrument', 'eem_objective(zero index)'):
        ('WeakIdentificationError', 'objective denominator mean(d*x) is zero'),
    ('separated instrument', 'eem_fit_beta(index)'):
        ['-0x1.c2b65d85a00edp-4', '0x1.d7cf3b81cad94p+0'],
    ('separated instrument', 'eem_objective(index)'):
        ['0x1.686f290824fb7p-7'],
    ('separated instrument', 'br_beta_estimate(one_step, start_psi=None)'):
        ['-0x1.541ba2de0f647p-1'],
    ('separated instrument', 'br_beta_estimate(one_step, start_psi=0.5)'):
        ['0x1.ffff2d087deafp-2'],
    ('separated instrument', 'br_beta_estimate(full_solve, start_psi=None)'):
        ['0x1.022c902d668bfp+0'],
    ('separated instrument', 'br_beta_estimate(full_solve, start_psi=0.5)'):
        ['0x1.022c902d668bfp+0'],
    ('three rows', 'eem_estimate(preliminary_psi=None)'):
        ['0x1.6f6f236937732p-1'],
    ('three rows', 'eem_estimate(preliminary_psi=0.5)'):
        ['0x1.14535f84ea6c7p-1'],
    ('three rows', 'eem_fit_beta(zero index)'):
        ('DegenerateWeightsError', 'all weights are zero'),
    ('three rows', 'eem_objective(zero index)'):
        ('WeakIdentificationError', 'objective denominator mean(d*x) is zero'),
    ('three rows', 'eem_fit_beta(index)'):
        ['0x1.07a1d3736b481p+1', '0x1.05599f269b938p+1'],
    ('three rows', 'eem_objective(index)'):
        ['0x1.1e2020bf4a93dp+0'],
    ('three rows', 'br_beta_estimate(one_step, start_psi=None)'):
        ['0x1.4d53a27cfdbc1p+0'],
    ('three rows', 'br_beta_estimate(one_step, start_psi=0.5)'):
        ['0x1.ffffffffffff9p-2'],
    ('three rows', 'br_beta_estimate(full_solve, start_psi=None)'):
        ('WeakIdentificationError', 'br_beta: estimating-equation denominator is degenerate (smallest singular value 4.994e-17 against scale 1.333e+00)'),
    ('three rows', 'br_beta_estimate(full_solve, start_psi=0.5)'):
        ('WeakIdentificationError', 'br_beta: estimating-equation denominator is degenerate (smallest singular value 4.994e-17 against scale 1.333e+00)'),
    ('doubled exposure', 'eem_estimate(preliminary_psi=None)'):
        ['-0x1.700ff8dc3a986p-5'],
    ('doubled exposure', 'eem_estimate(preliminary_psi=0.5)'):
        ['0x1.3c9e1af35d97dp-2'],
    ('doubled exposure', 'eem_fit_beta(zero index)'):
        ('DegenerateWeightsError', 'all weights are zero'),
    ('doubled exposure', 'eem_objective(zero index)'):
        ('WeakIdentificationError', 'objective denominator mean(d*x) is zero'),
    ('doubled exposure', 'eem_fit_beta(index)'):
        ['-0x1.0a59bdc972753p-2', '0x1.5ca2fffb4b55cp+0'],
    ('doubled exposure', 'eem_objective(index)'):
        ['0x1.104c015265018p-7'],
    ('doubled exposure', 'br_beta_estimate(one_step, start_psi=None)'):
        ['0x1.b98197df707adp-2'],
    ('doubled exposure', 'br_beta_estimate(one_step, start_psi=0.5)'):
        ['0x1.d816db80a82edp-2'],
    ('doubled exposure', 'br_beta_estimate(full_solve, start_psi=None)'):
        ['0x1.c603333248256p-2'],
    ('doubled exposure', 'br_beta_estimate(full_solve, start_psi=0.5)'):
        ['0x1.c603333248256p-2'],
}


@pytest.mark.parametrize("case", list(_cases()))
def test_eem_and_br_beta_outcomes_match_their_pins(case):
    data = _cases()[case]
    got = {(case, name): _outcome(call) for name, call in _calls(data).items()}
    assert got == {key: value for key, value in PINS.items() if key[0] == case}


def test_one_step_br_beta_on_a_saturated_design_warns():
    # three rows against (1, c0) plus one kept extension column: the one-step
    # regression interpolates, so the estimate is its start value
    with np.errstate(all="ignore"):
        for start in (None, 0.5):
            res = br_beta_estimate(_cases()["three rows"], LIN, LIN, LIN, start_psi=start)
            assert len(res.nuisance["extension_columns"]) == 1
            assert "no residual degrees of freedom" in res.diagnostics["warning"]
            assert [res.psi_hat[0].hex()] == PINS[
                ("three rows", f"br_beta_estimate(one_step, start_psi={start})")]
        assert abs(res.psi - 0.5) < 1e-14
        assert "warning" not in br_beta_estimate(_cases()["doubled exposure"], LIN, LIN,
                                                 LIN).diagnostics

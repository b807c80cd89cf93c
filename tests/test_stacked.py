"""Stacked Monte Carlo replicates: the chunk kernels against the per-dataset path."""

import tracemalloc

import numpy as np
import pytest

import lineariv.adaptive
import lineariv.estimators
import lineariv.glm
import lineariv.suites
from lineariv import BasisSpec, BinaryLogisticIv, Dataset, EstimationError, dataset, simlab
from lineariv.adaptive import br_beta_estimate, br_gamma_estimate, eem_estimate, eem_fit_alpha
from lineariv.inference import bootstrap_ci, conservative_se_brgamma
from lineariv.models import EffectModel, ExposureModel, OutcomeModel
from lineariv.rng import make_generator
from lineariv.adaptive import _br_gamma_stack, _extend
from lineariv.errors import (
    DegenerateResponseError,
    SingularDesignError,
    TermSpecError,
    WeakIdentificationError,
)
from lineariv.estimators import (
    _ee_system,
    _solve_ee,
    efficient_index,
    g_estimate,
    locally_efficient_y,
    outcome_coef_at,
    plug_in_two_stage,
    standard_tsls,
)
from lineariv.glm import (
    RANK_RTOL,
    SCORE_TOL,
    _binary_fit,
    _check,
    _Flagged,
    _irls,
    _mean_function,
    _ols,
    _rowsum,
    expit,
    fit_binary,
    fit_ols,
)
from lineariv.simlab import ScenarioConfig, generate, run_monte_carlo
from lineariv.suites import (
    C_LIN,
    C_QUAD,
    EFFECT_CONST,
    EFFECTMOD_NAMES,
    EXPOSURE_MAIN,
    EXPOSURE_SATURATED,
    FIG1_SEED,
    FIG2_SEED,
    INSTRUMENT_Z,
    INSTRUMENTS_ZVZ,
    SIM_BINARY_NAMES,
    TABLE1_GATED_ROWS,
    TABLE1_NAMES,
    TABLE1_ROWS,
    TABLE1_SEED,
    _attempt,
    _effectmod_stack,
    _sim_binary_stack,
    _table1_stack,
    effectmod_estimators,
    sim_binary_estimators,
    table1_estimators,
)

def _reference(data) -> dict:
    """The Table 1 bundle through the public per-dataset estimators: each
    estimate, or the EstimationError it or a fit it uses raised."""
    out = {}
    _attempt(out, "tsls", lambda: standard_tsls(data, EFFECT_CONST, C_LIN, INSTRUMENTS_ZVZ).psi_hat)
    _attempt(out, "iv", lambda: BinaryLogisticIv.fit(data, C_LIN))
    _attempt(out, "exposure", lambda: ExposureModel("identity", EXPOSURE_SATURATED).fit(data))
    _attempt(out, "loc_eff", lambda iv, exposure: g_estimate(
        data, efficient_index(data, exposure, iv, EFFECT_CONST), OutcomeModel(C_LIN), iv,
        EFFECT_CONST).psi_hat, "iv", "exposure")
    _attempt(out, "eem", lambda iv, tsls: eem_estimate(
        data, iv, C_LIN, C_LIN, preliminary_psi=float(tsls[0])).psi_hat, "iv", "tsls")
    _attempt(out, "br_gamma", lambda: br_gamma_estimate(data, C_LIN, C_LIN, C_LIN).psi_hat)
    # from br_gamma's estimate, whose error comes after br_beta's own checks
    _attempt(out, "br_beta", lambda: br_beta_estimate(data, C_LIN, C_LIN, C_LIN).psi_hat)
    return out


def _outcome(value):
    """An estimate as float.hex strings, or (class, message) of its error."""
    if isinstance(value, EstimationError):
        return type(value).__name__, str(value)
    return [float(v).hex() for v in value]


def _row_outcomes(stages, k, names):
    """The outcome of each estimate of ``names`` at row ``k`` of a stack
    function's stages: the stage's row, or the EstimationError it holds."""
    return {name: _outcome(stages[name] if isinstance(stages[name], EstimationError)
                           else stages[name][k]) for name in names}


def _outcomes(bundle, data):
    out = {}
    for name, estimator in bundle.items():
        try:
            out[name] = _outcome(estimator(data))
        except EstimationError as err:
            out[name] = _outcome(err)
    return out


def _per_dataset(datasets):
    """The reference outcomes of unlinked copies of ``datasets``."""
    return [{name: _outcome(value) for name, value in _reference(data).items()
             if name in TABLE1_NAMES} for data in _copies(datasets)]


def _bundle_outcomes(datasets, linked=True):
    """The bundle's outcomes on copies of ``datasets``, linked as one chunk or not."""
    copies = _copies(datasets)
    if linked:
        Dataset.link(copies)
    bundle = table1_estimators()
    return [_outcomes(bundle, data) for data in copies]


def _replicates(generator, lam, n, seed, reps):
    cfg = ScenarioConfig(generator, n=n, seed=seed, reps=max(reps, 2), lam=lam)
    return [generate(cfg, i).dataset for i in range(reps)]


def _case(i, generator, lam, n, seed, reps):
    # an id ends in the instrument law's known coefficients: None, as the law is fitted
    return pytest.param(generator, lam, n, seed, reps, id=f"{generator}-lam{i}-{n}-{seed}-{reps}-None")


CASES = ([_case(i, "table1", lam, 500, 555, 3) for i, lam in enumerate(TABLE1_ROWS)]
         + [_case(19, "extreme", (1, -1, -1), 500, 227, 6),
            _case(20, "table1", (1, 1, -1), 500, 555, 6),
            _case(22, "table1", (1, 1, 0), 8000, 20260809, 2)])


@pytest.mark.parametrize("generator, lam, n, seed, reps", CASES)
def test_stacked_bundle_bit_identical_to_per_dataset(generator, lam, n, seed, reps):
    datasets = _replicates(generator, lam, n, seed, reps)
    expected = _per_dataset(datasets)
    # the whole stack at once, no member flagged, as in a chunk of the harness
    with np.errstate(all="ignore"):
        stack = _table1_stack(datasets)
    assert [_row_outcomes(stack, k, TABLE1_NAMES) for k in range(len(datasets))] == expected
    # each member as a stack of one, and the bundle, linked and unlinked
    assert [_row_outcomes(_table1_stack([data]), 0, TABLE1_NAMES)
            for data in datasets] == expected
    assert _bundle_outcomes(datasets) == expected
    assert _bundle_outcomes(datasets, linked=False) == expected


def _failing(first, *args, **kwargs):
    """A kernel whose check rejects every member of its stack."""
    _check([WeakIdentificationError("forced failure")] * len(first))


def _kernel_sizes(monkeypatch, name, *modules):
    """Records the stack size of every call of the kernel ``name`` of
    ``modules[0]``, called through any of ``modules``."""
    sizes = []
    kernel = getattr(modules[0], name)

    def spy(first, *args, **kwargs):
        sizes.append(len(first))
        return kernel(first, *args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, spy)
    return sizes


def _report_bytes(tmp_path, tag):
    cfg = ScenarioConfig("table1", n=500, seed=555, reps=16, lam=(1, 1, -1))
    report = run_monte_carlo(cfg, table1_estimators())
    simlab.write_report_csv([report], tmp_path / f"{tag}.csv")
    simlab.write_report_json([report], tmp_path / f"{tag}.json")
    return (tmp_path / f"{tag}.csv").read_bytes() + (tmp_path / f"{tag}.json").read_bytes()


def test_reports_byte_identical_across_chunk_sizes(tmp_path, monkeypatch):
    reports = []
    for size in (1, 7, 16):
        monkeypatch.setattr(dataset, "CHUNK_ROWS", size * 500)
        assert dataset._chunk_size(500) == size
        reports.append(_report_bytes(tmp_path, f"chunk{size}"))
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("generator, lam, seed, bundle", [
    ("sim1", None, 777, lineariv.suites.sim_binary_estimators),
    ("sim2", None, 777, lineariv.suites.sim_binary_estimators),
    ("effectmod", None, 20260809, lineariv.suites.effectmod_estimators),
    ("extreme", (1, -1, -1), 227, table1_estimators)])
def test_every_family_reports_byte_identical_across_chunk_sizes(tmp_path, monkeypatch, generator,
                                                                 lam, seed, bundle):
    cfg = ScenarioConfig(generator, n=500, seed=seed, reps=16, lam=lam)
    reports = []
    for size in (1, 7, None):                   # None: the default budget, 16 at n=500
        with monkeypatch.context() as m:
            if size is not None:
                m.setattr(dataset, "CHUNK_ROWS", size * 500)
            assert dataset._chunk_size(500) == (size or 16)
            report = run_monte_carlo(cfg, bundle())
        simlab.write_report_csv([report], tmp_path / f"{size}.csv")
        simlab.write_report_json([report], tmp_path / f"{size}.json")
        reports.append((tmp_path / f"{size}.csv").read_bytes()
                       + (tmp_path / f"{size}.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_chunk_size_follows_the_row_budget():
    assert dataset._chunk_size(500) == 16
    assert dataset._chunk_size(1000) == 8
    assert dataset._chunk_size(4000) == 2
    assert dataset._chunk_size(8000) == 1


# a ceiling on the Python-heap peak of one default chunk, about 1.2x its
# measured 2.2-2.5 MB, so a larger row budget cannot quietly raise peak RSS
CHUNK_PEAK_BYTES = 3_000_000


def _traced_peak(compute) -> int:
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        compute()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("lam", [(0, 0, 0), (1, 1, -1)])
def test_a_default_table1_chunk_stays_under_the_peak_ceiling(lam):
    size = dataset._chunk_size(500)
    _table1_stack(_replicates("table1", lam, 500, 555, 1))     # warm-up
    chunk = _replicates("table1", lam, 500, 555, size)
    assert _traced_peak(lambda: _table1_stack(chunk)) < CHUNK_PEAK_BYTES


def test_a_default_bootstrap_chunk_stays_under_the_peak_ceiling():
    data = simlab.gen_table1(0, 0, 0, 1000, 1).dataset
    resamples = [data.take(make_generator([1, b]).integers(0, 1000, size=1000))
                 for b in range(1 + dataset._chunk_size(1000))]
    br_records, bases = lineariv.adaptive._br_records, (LIN, LIN, LIN)
    br_records(resamples[:1], bases)                                    # warm-up
    assert _traced_peak(lambda: br_records(resamples[1:], bases)) < CHUNK_PEAK_BYTES


def test_degenerate_member_falls_back_without_failing_its_chunk(monkeypatch):
    datasets = _replicates("table1", (1, 1, -1), 500, 555, 5)
    bad = datasets[2]
    # a constant covariate: every (1, c0) design is rank deficient
    datasets[2] = Dataset(bad.y, bad.x, bad.z, np.ones_like(bad.c_raw))
    expected = _per_dataset(datasets)
    assert all(isinstance(value, tuple) for value in expected[2].values())

    # the TSLS first stage's check flags the chunk, and each replicate is
    # computed again as a stack of one: the other four keep their estimates
    sizes = _kernel_sizes(monkeypatch, "_first_stage", lineariv.estimators, lineariv.suites)
    assert _bundle_outcomes(datasets) == expected
    assert sizes == [5, 1, 1, 1, 1, 1]


def test_bundles_of_one_stack_function_share_a_chunks_memo(monkeypatch):
    # the memo key is the stack function, not a bundle's closure: a second
    # bundle on a linked chunk reads the stages the first one computed
    datasets = _replicates("table1", (1, 1, -1), 500, 555, 4)
    Dataset.link(datasets)
    sizes = _kernel_sizes(monkeypatch, "_table1_stack", lineariv.suites)
    first, second = table1_estimators(), table1_estimators()
    assert [_outcomes(first, data) for data in datasets] == [
        _outcomes(second, data) for data in datasets]
    assert sizes == [4]


@pytest.mark.parametrize("kind", ["constant covariate", "second instrument column"])
def test_a_bundles_degenerate_member_re_raises_its_memoised_error(monkeypatch, kind):
    # a stage's error (constant covariate) or the member's own error, which
    # the stack raised alone (second instrument column)
    datasets = _replicates("table1", (1, 1, -1), 500, 555, 4)
    bad = datasets[1]
    datasets[1] = (Dataset(bad.y, bad.x, bad.z, np.ones_like(bad.c_raw))
                   if kind == "constant covariate" else
                   Dataset(bad.y, bad.x, np.column_stack([bad.z, bad.c_raw[:, :1]]), bad.c_raw))
    Dataset.link(datasets)
    sizes = _kernel_sizes(monkeypatch, "_table1_stack", lineariv.suites)
    with pytest.raises(EstimationError) as first:
        table1_estimators()["tsls"](datasets[1])
    assert sizes == [4, 1, 1, 1, 1]
    # the error is the member's memoised value: no second stack run
    with pytest.raises(EstimationError) as second:
        table1_estimators()["tsls"](datasets[1])
    assert second.value is first.value and sizes == [4, 1, 1, 1, 1]


def test_one_failing_estimator_fails_only_itself_and_its_dependants(monkeypatch):
    sizes = _kernel_sizes(monkeypatch, "_tsls_stack", lineariv.estimators, lineariv.suites)
    monkeypatch.setattr(lineariv.suites, "_br_beta_stack", _failing)
    cfg = ScenarioConfig("table1", n=500, seed=555, reps=3, lam=(1, 1, -1))
    report = run_monte_carlo(cfg, table1_estimators())
    failed = {name: s.failed for name, s in report.summaries.items()}
    assert failed == {"tsls": 0, "loc_eff": 0, "eem": 0, "br_gamma": 0, "br_beta": 3}
    # the chunk of three flags all three, and the bundle runs once more for
    # each of them alone, not once per estimator
    assert sizes == [3, 1, 1, 1]

    # an estimate fails with a fit it uses: eem needs tsls, br_beta needs br_gamma
    monkeypatch.setattr(lineariv.suites, "_tsls_stack", _failing)
    monkeypatch.setattr(lineariv.adaptive, "_br_gamma_stack", _failing)
    report = run_monte_carlo(cfg, table1_estimators())
    failed = {name: s.failed for name, s in report.summaries.items()}
    assert failed == {"tsls": 3, "loc_eff": 0, "eem": 3, "br_gamma": 3, "br_beta": 3}


def test_pinned_runs_never_reject_a_stack(monkeypatch):
    # the traffic that computing a rejected stack member by member assumes:
    # no chunk of the gated Table 1 rows at the pinned seed, nor of a br-gamma
    # or br-beta bootstrap, is rejected, so none is computed again as stacks
    # of one
    sizes = _kernel_sizes(monkeypatch, "_table1_stack", lineariv.suites)
    for lam in TABLE1_GATED_ROWS:
        cfg = ScenarioConfig("table1", n=500, seed=TABLE1_SEED, reps=32, lam=lam)
        run_monte_carlo(cfg, table1_estimators())
    assert sizes == [16] * (2 * len(TABLE1_GATED_ROWS))

    sizes = _kernel_sizes(monkeypatch, "_br_records", lineariv.adaptive)
    data = simlab.gen_table1(0, 0, 0, 1000, 1).dataset
    bootstrap_ci(data, lambda ds: br_gamma_estimate(ds, LIN, LIN, LIN).psi_hat, resamples=100,
                 seed=1)
    assert sizes == [8] * 12 + [4]

    sizes.clear()
    data = simlab.gen_table1(0, 0, 0, 200, 1).dataset
    bootstrap_ci(data, lambda ds: br_beta_estimate(ds, LIN, QUAD, LIN).psi_hat, resamples=100,
                 seed=1)
    assert sizes == [40, 40, 20]

    # nor a chunk of the Fig. 1 and Fig. 2 families at their pinned seeds
    for generator, seed, stack in (("sim1", FIG1_SEED, "_sim_binary_stack"),
                                   ("sim2", FIG1_SEED, "_sim_binary_stack"),
                                   ("effectmod", FIG2_SEED, "_effectmod_stack")):
        sizes = _kernel_sizes(monkeypatch, stack, lineariv.suites)
        cfg = ScenarioConfig(generator, n=500, seed=seed, reps=32)
        run_monte_carlo(cfg, lineariv.suites.BUNDLES[generator]())
        assert sizes == [16, 16], generator


def test_calls_after_the_first_member_of_a_chunk_fit_nothing(monkeypatch):
    # the first call on a linked chunk fits every member, so a call on any
    # other member must only read its memoised result: the latency median of
    # the Monte Carlo and bootstrap benchmarks is the cost of those calls, and
    # a factorisation there would multiply it
    table1 = _replicates("table1", (1, 1, -1), 500, TABLE1_SEED, 16)
    resamples = _resamples(simlab.gen_table1(0, 0, 0, 1000, 1).dataset, 8, 1)
    bundle = table1_estimators()
    chunks = [(table1, list(bundle.values())),
              (resamples, [lambda ds: br_gamma_estimate(ds, LIN, LIN, LIN)])]
    calls = []
    for name in ("svd", "solve", "qr", "inv"):
        def spy(*args, _name=name, _kernel=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    for datasets, estimators in chunks:
        Dataset.link(datasets)
        calls.clear()
        for estimator in estimators:
            estimator(datasets[0])
        assert "svd" in calls                       # the spies see the chunk's fit
        calls.clear()
        for data in datasets[1:]:
            for estimator in estimators:
                estimator(data)
        assert calls == []


def test_a_table1_chunk_fits_its_plain_law_index_once(monkeypatch):
    # eem and the bias-reduced pair share one index fit under the plain
    # instrument law; br_gamma then refits the index under its extended fit
    contexts = []
    kernel = lineariv.adaptive._index_coef

    def spy(zc, index_design, x, context):
        contexts.append((len(zc), context))
        return kernel(zc, index_design, x, context)

    monkeypatch.setattr(lineariv.adaptive, "_index_coef", spy)
    datasets = _replicates("table1", (1, 1, -1), 500, TABLE1_SEED, 16)
    outcomes = _bundle_outcomes(datasets)
    assert contexts == [(16, lineariv.adaptive._ALPHA_CONTEXT),
                        (16, "degenerate instrument variation under the extended fit")]
    assert outcomes == _per_dataset(datasets)


def _small(datasets, rows):
    return [Dataset(ds.y[:rows], ds.x[:rows], ds.z[:rows], ds.c_raw[:rows]) for ds in datasets]


def _degenerate(kind, datasets):
    data = datasets[2]
    if kind == "constant covariate":
        datasets[2] = Dataset(data.y, data.x, data.z, np.ones_like(data.c_raw))
    elif kind == "zero exposure":           # br_gamma's and br_beta's own checks both fail
        datasets[2] = Dataset(data.y, np.zeros_like(data.x), data.z, data.c_raw)
    elif kind == "one-class instrument":
        datasets[2] = Dataset(data.y, data.x, np.zeros_like(data.z), data.c_raw)
    elif kind == "orthogonal exposure":
        datasets[2] = _orthogonal_exposure(data, BinaryLogisticIv.fit(data, LIN).prob(data))
    elif kind == "another size":
        datasets[2:3] = _small(datasets[2:3], 300)
    else:
        return _small(datasets, int(kind.split()[0]))
    return datasets


KINDS = ["constant covariate", "zero exposure", "one-class instrument", "orthogonal exposure",
         "another size", "3 rows", "5 rows"]


# each id also names the bundle's instrument law, which is fitted
@pytest.mark.parametrize("kind", KINDS, ids=[f"{kind}-fitted" for kind in KINDS])
def test_degenerate_members_and_odd_sizes_match_the_reference(kind):
    datasets = _degenerate(kind, _replicates("table1", (1, 1, -1), 500, 555, 6))
    with np.errstate(all="ignore"):
        expected = _per_dataset(datasets)
        assert _bundle_outcomes(datasets) == expected
        assert _bundle_outcomes(datasets, linked=False) == expected


@pytest.mark.parametrize("kind", ["two instruments", "continuous instrument", "no covariate"])
def test_inputs_outside_the_bundles_working_models_fail_every_estimate(kind):
    datasets = _replicates("table1", (1, 1, -1), 500, 555, 3)
    data = datasets[1]
    z = {"two instruments": np.column_stack([data.z, data.z]),
         "continuous instrument": data.z + 0.5 * data.c_raw}.get(kind, data.z)
    c_raw = np.empty((data.n, 0)) if kind == "no covariate" else data.c_raw
    datasets[1] = Dataset(data.y, data.x, z, c_raw)
    if kind == "no covariate":
        # as build_design raises it on every dataset without the covariate c0
        with pytest.raises(TermSpecError, match="covariate index 0 out of range"):
            _bundle_outcomes(datasets)
        return
    got = _bundle_outcomes(datasets)
    assert {value[0] for value in got[1].values()} == {"UnsupportedCombinationError"}
    assert got[0] == _per_dataset(datasets[:1])[0] and got[2] == _per_dataset(datasets[2:])[0]


def test_other_bundles_fail_per_estimator(monkeypatch):
    def failing(*args, **kwargs):
        raise WeakIdentificationError("forced failure")

    monkeypatch.setattr(lineariv.suites, "_le_stack", failing)
    cfg = ScenarioConfig("sim1", n=500, seed=777, reps=2)
    report = run_monte_carlo(cfg, lineariv.suites.sim_binary_estimators())
    failed = {name: s.failed for name, s in report.summaries.items()}
    assert failed == {"tsls": 0, "ts": 0, "le_y_c": 2, "le_y_m": 2, "dr_cc": 0, "dr_cm": 0,
                      "dr_mm": 0}

    monkeypatch.setattr(lineariv.suites, "_plug_in_stack", failing)
    cfg = ScenarioConfig("effectmod", n=500, seed=20260809, reps=2)
    report = run_monte_carlo(cfg, lineariv.suites.effectmod_estimators())
    failed = {name: s.failed for name, s in report.summaries.items()}
    assert failed == {"tsls_c": 0, "tsls_m": 0, "ts_c": 2, "ts_m": 2}


# ---------------------------------------------------------------------------
# The Fig. 1 and Fig. 2 stacks against the public per-dataset estimators
# ---------------------------------------------------------------------------

def _sim_binary_reference(data) -> dict:
    """The Fig. 1 bundle through the public per-dataset estimators."""
    out = {}
    _attempt(out, "tsls", lambda: standard_tsls(data, EFFECT_CONST, C_LIN, INSTRUMENT_Z).psi_hat)
    _attempt(out, "probit", lambda: ExposureModel("probit", EXPOSURE_MAIN).fit(data))
    _attempt(out, "ts", lambda probit: plug_in_two_stage(
        data, probit, EFFECT_CONST, C_LIN).psi_hat, "probit")
    _attempt(out, "le_y_c", lambda probit: locally_efficient_y(
        data, probit, EFFECT_CONST, C_QUAD).psi_hat, "probit")
    _attempt(out, "le_y_m", lambda probit: locally_efficient_y(
        data, probit, EFFECT_CONST, C_LIN).psi_hat, "probit")
    _attempt(out, "iv", lambda: BinaryLogisticIv.fit(data, C_LIN))
    _attempt(out, "e_probit", lambda probit, iv: efficient_index(
        data, probit, iv, EFFECT_CONST), "probit", "iv")
    _attempt(out, "beta_c", lambda tsls: outcome_coef_at(data, EFFECT_CONST, C_QUAD, tsls), "tsls")
    _attempt(out, "beta_m", lambda tsls: outcome_coef_at(data, EFFECT_CONST, C_LIN, tsls), "tsls")
    _attempt(out, "dr_cc", lambda e, iv, beta: g_estimate(
        data, e, OutcomeModel(C_QUAD, beta), iv, EFFECT_CONST).psi_hat, "e_probit", "iv", "beta_c")
    _attempt(out, "dr_cm", lambda e, iv, beta: g_estimate(
        data, e, OutcomeModel(C_LIN, beta), iv, EFFECT_CONST).psi_hat, "e_probit", "iv", "beta_m")
    _attempt(out, "linear", lambda: ExposureModel("identity", EXPOSURE_MAIN).fit(data))
    _attempt(out, "e_lin", lambda linear, iv: efficient_index(
        data, linear, iv, EFFECT_CONST), "linear", "iv")
    _attempt(out, "dr_mm", lambda e, iv, beta: g_estimate(
        data, e, OutcomeModel(C_LIN, beta), iv, EFFECT_CONST).psi_hat, "e_lin", "iv", "beta_m")
    return out


def _effectmod_reference(data) -> dict:
    """The Fig. 2 bundle through the public per-dataset estimators."""
    effect = EffectModel.with_modifiers(C_LIN)
    out = {}
    _attempt(out, "tsls_c", lambda: standard_tsls(data, effect, C_QUAD, INSTRUMENTS_ZVZ).psi_hat)
    _attempt(out, "tsls_m", lambda: standard_tsls(data, effect, C_LIN, INSTRUMENTS_ZVZ).psi_hat)
    _attempt(out, "misspec", lambda: ExposureModel("identity", EXPOSURE_MAIN).fit(data))
    _attempt(out, "ts_c", lambda misspec: plug_in_two_stage(
        data, misspec, effect, C_QUAD).psi_hat, "misspec")
    _attempt(out, "ts_m", lambda misspec: plug_in_two_stage(
        data, misspec, effect, C_LIN).psi_hat, "misspec")
    return out


# generator -> (reference, estimate names, stack function, bundle)
FIGURE_BUNDLES = {
    "sim1": (_sim_binary_reference, SIM_BINARY_NAMES, _sim_binary_stack, sim_binary_estimators),
    "sim2": (_sim_binary_reference, SIM_BINARY_NAMES, _sim_binary_stack, sim_binary_estimators),
    "effectmod": (_effectmod_reference, EFFECTMOD_NAMES, _effectmod_stack, effectmod_estimators),
}


def _figure_outcomes(generator, datasets):
    """Every outcome of ``datasets`` under the bundle of ``generator``, as
    lists of per-dataset dicts: "reference", the public estimators on each
    dataset; "stack", the stack function through _fit_stack; "alone", each
    dataset as a stack of one; "linked" and "unlinked", the bundle on a
    linked chunk of copies or on unlinked copies."""
    reference, names, stack, bundle = FIGURE_BUNDLES[generator]
    fields = lambda member: {name: _outcome(member[name]) for name in names}
    linked = _copies(datasets)
    Dataset.link(linked)
    return {
        "reference": [fields(reference(data)) for data in _copies(datasets)],
        "stack": [_row_outcomes(stages, k, names)
                  for stages, k in lineariv.glm._fit_stack(stack, datasets)],
        "alone": [_row_outcomes(stack([data]), 0, names) for data in datasets],
        "linked": [_outcomes(bundle(), data) for data in linked],
        "unlinked": [_outcomes(bundle(), data) for data in _copies(datasets)],
    }


def _assert_all_equal(outcomes: dict):
    expected = outcomes.pop("reference")
    for path, got in outcomes.items():
        assert got == expected, path


@pytest.mark.parametrize("generator, seed", [
    ("sim1", FIG1_SEED), ("sim2", FIG1_SEED), ("effectmod", FIG2_SEED)])
@pytest.mark.parametrize("n, reps", [(500, 16), (4000, 2)])
def test_figure_stacks_bit_identical_to_per_dataset(generator, seed, n, reps):
    datasets = _replicates(generator, None, n, seed, reps)
    outcomes = _figure_outcomes(generator, datasets)
    assert all(isinstance(value, list) for member in outcomes["reference"]
               for value in member.values())
    _assert_all_equal(outcomes)


def _odd_member(kind, datasets):
    """``datasets`` with one member (or, for "3 rows", every member) of ``kind``."""
    data = datasets[2]
    odd = {
        "constant covariate": lambda: Dataset(data.y, data.x, data.z, np.ones_like(data.c_raw)),
        "one-class exposure": lambda: Dataset(data.y, np.zeros(data.n), data.z, data.c_raw),
        "exposure equal to the instrument": lambda: Dataset(data.y, data.z[:, 0], data.z,
                                                            data.c_raw),
        "continuous instrument": lambda: Dataset(data.y, data.x, data.z + 0.5 * data.c_raw[:, :1],
                                                 data.c_raw),
        "second instrument column": lambda: Dataset(
            data.y, data.x, np.column_stack([data.z, data.c_raw[:, :1]]), data.c_raw),
        "missing covariate": lambda: Dataset(data.y, data.x, data.z, np.empty((data.n, 0))),
    }
    if kind == "another size":
        datasets[2:3] = _small(datasets[2:3], 300)
    elif kind == "3 rows":
        return _small(datasets, 3)
    else:
        datasets[2] = odd[kind]()
    return datasets


ODD_KINDS = ["constant covariate", "one-class exposure", "another size", "3 rows",
             "exposure equal to the instrument", "continuous instrument",
             "second instrument column"]


@pytest.mark.parametrize("generator, seed", [("sim1", FIG1_SEED), ("effectmod", FIG2_SEED)])
@pytest.mark.parametrize("kind", ODD_KINDS)
def test_figure_stacks_match_the_reference_on_odd_members(generator, seed, kind):
    datasets = _odd_member(kind, _replicates(generator, None, 500, seed, 6))
    outcomes = _figure_outcomes(generator, datasets)
    if kind != "3 rows":
        # the other members keep their estimates
        assert all(isinstance(value, list) for k, member in enumerate(outcomes["reference"])
                   if k != 2 for value in member.values())
    _assert_all_equal(outcomes)


@pytest.mark.parametrize("generator, seed", [("sim1", FIG1_SEED), ("effectmod", FIG2_SEED)])
def test_figure_stacks_raise_the_evaluators_error_on_a_missing_covariate(generator, seed):
    datasets = _odd_member("missing covariate", _replicates(generator, None, 500, seed, 4))
    reference, _, stack, bundle = FIGURE_BUNDLES[generator]
    with pytest.raises(TermSpecError) as want:
        reference(datasets[2])
    copies = _copies(datasets)
    Dataset.link(copies)
    calls = [lambda: lineariv.glm._fit_stack(stack, datasets), lambda: stack(datasets[2:3]),
             lambda: bundle()["tsls" if generator == "sim1" else "tsls_c"](copies[0])]
    for call in calls:
        with pytest.raises(TermSpecError) as got:
            call()
        assert str(got.value) == str(want.value)
    # unlinked, the datasets with the covariate keep their estimates
    assert _outcomes(bundle(), _copies(datasets)[0]) == _figure_outcomes(
        generator, datasets[:1])["reference"][0]


@pytest.mark.parametrize("generator, seed, stack", [
    ("sim1", FIG1_SEED, _sim_binary_stack), ("sim2", FIG1_SEED, _sim_binary_stack),
    ("effectmod", FIG2_SEED, _effectmod_stack)])
def test_a_default_figure_chunk_stays_under_the_peak_ceiling(generator, seed, stack):
    stack(_replicates(generator, None, 500, seed, 1))                   # warm-up
    chunk = _replicates(generator, None, 500, seed, dataset._chunk_size(500))
    assert _traced_peak(lambda: stack(chunk)) < CHUNK_PEAK_BYTES


def test_a_fig1_chunk_centers_each_efficient_index_once(monkeypatch):
    # e_probit serves dr_cc and dr_cm, e_lin serves dr_mm: one centering of
    # each exposure model's mean for the whole chunk
    sizes, kernel = [], lineariv.estimators._centered

    def spy(at, observed, *args):
        sizes.append(len(observed))
        return kernel(at, observed, *args)

    monkeypatch.setattr(lineariv.estimators, "_centered", spy)
    datasets = _replicates("sim1", None, 500, FIG1_SEED, 16)
    Dataset.link(datasets)
    bundle = sim_binary_estimators()
    for data in datasets:
        for estimator in bundle.values():
            estimator(data)
    assert sizes == [16, 16]


@pytest.mark.parametrize("generator, lam, seed, stack, factorisations", [
    ("table1", (1, 1, -1), TABLE1_SEED, _table1_stack, 6),
    ("sim1", None, FIG1_SEED, _sim_binary_stack, 5),
    ("effectmod", None, FIG2_SEED, _effectmod_stack, 7)])
def test_a_chunk_factors_each_least_squares_problem_once(monkeypatch, generator, lam, seed,
                                                          stack, factorisations):
    # one SVD of an n-row design per least-squares problem of the chunk:
    # Table 1's exposure fit and Fig. 1's linear one are the TSLS first stage,
    # and Fig. 2's first stage solves its two endogenous columns together
    shapes, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    datasets = _replicates(generator, lam, 500, seed, 16)
    monkeypatch.setattr(np.linalg, "svd", spy)
    with np.errstate(all="ignore"):
        stack(datasets)
    assert [shape[0] for shape in shapes if shape[-2] == 500] == [16] * factorisations


def _lapack_outcomes(index, regressors):
    """Per member of a stack of scalar estimating equations, the condition and
    the error message of the degeneracy rule, on LAPACK's singular value of
    the 1 x 1 denominator in the parameter's units: the regressor, and the
    index with it, divided by the regressor's norm, against the scale
    max(||index||, 1) / n."""
    norms = np.sqrt((regressors * regressors).sum(-2))[..., None]
    index, regressors = index / norms, regressors / norms
    lows = np.linalg.svd(_rowsum(index, regressors), compute_uv=False)[:, 0].tolist()
    out = []
    for lo, norm in zip(lows, np.sqrt((index * index).sum((-2, -1))).tolist()):
        sc = max(norm, 1.0) / index.shape[1]
        cond = 1.0 if lo > 0 else np.inf
        out.append((cond, f"test: estimating-equation denominator is degenerate (smallest "
                          f"singular value {lo:.3e} against scale {sc:.3e})"
                    if lo <= 1e-10 * max(sc, 1e-300) else None))
    return out


@pytest.mark.parametrize("entries", ["random", "zero", "1e-300"])
def test_a_scalar_denominator_is_judged_on_lapacks_singular_value(entries):
    rng = np.random.default_rng(5)
    index, regressors = rng.standard_normal((2, 6, 40, 1))
    if entries == "zero":
        index[::2] = 0.0
    elif entries == "1e-300":
        index[1::2] *= 1e-300
    expected = _lapack_outcomes(index, regressors)
    got = []
    for k in range(len(index)):
        try:
            got.append((_ee_system(index[k:k + 1], regressors[k:k + 1], "test")[1][0], None))
        except WeakIdentificationError as err:
            got.append((err.condition, str(err)))
    assert got == expected
    if entries == "random":         # every member passes, and the stack with them
        assert _ee_system(index, regressors, "test")[1] == [cond for cond, _ in expected]
        system = _rowsum(index, regressors)
        assert np.array_equal(np.abs(system[:, 0]), np.linalg.svd(system, compute_uv=False))
    else:
        with pytest.raises(_Flagged):
            _ee_system(index, regressors, "test")


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_a_non_finite_scalar_denominator_is_weak_identification(value):
    rng = np.random.default_rng(6)
    index, regressors = rng.standard_normal((2, 3, 40, 1))
    index[1, 7, 0] = value
    with np.errstate(all="ignore"):
        with pytest.raises(WeakIdentificationError) as err:
            _ee_system(index[1:2], regressors[1:2], "test")
        with pytest.raises(_Flagged):
            _ee_system(index, regressors, "test")
    assert err.value.condition == np.inf


# ---------------------------------------------------------------------------
# Stacked kernels: a degenerate member rejects its stack, and on its own
# gets the error of its fit alone
# ---------------------------------------------------------------------------

def _designs(seed, b=4, n=300, p=3):
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((b, n, p))
    design[:, :, 0] = 1.0
    return rng, design


def test_lstsq_reports_a_deficient_member():
    rng, design = _designs(1)
    design[1, :, 2] = design[1, :, 1]
    response = rng.standard_normal(design.shape[:2])
    # the stack is flagged; the deficient member alone raises fit_ols's error
    with pytest.raises(_Flagged):
        _ols(design, response)
    with pytest.raises(SingularDesignError) as own:
        fit_ols(design[1], response[1])
    with pytest.raises(SingularDesignError) as alone:
        _ols(design[1:2], response[1:2])
    assert type(alone.value) is SingularDesignError
    assert (str(alone.value), alone.value.condition) == (str(own.value), own.value.condition)
    full = [0, 2, 3]
    fit = _ols(design[full], response[full])
    for row, k in zip(fit.coef, full):
        assert np.array_equal(row, fit_ols(design[k], response[k]).coefficients)


def test_irls_reports_a_singular_member():
    rng, design = _designs(2)
    design[3, :, 2] = design[3, :, 1]
    y = (rng.random(design.shape[:2]) < 0.4).astype(float)
    # the stack raises; each member alone is fit_binary's fit
    with pytest.raises(np.linalg.LinAlgError):
        _irls(design, y, "logit")
    with pytest.raises(SingularDesignError) as err:
        fit_binary(design[3], y[3])
    with pytest.raises(SingularDesignError) as alone:
        _irls(design[3:], y[3:], "logit")
    assert (str(alone.value), alone.value.condition) == (str(err.value), err.value.condition)
    for k in range(3):
        fit = _irls(design[k:k + 1], y[k:k + 1], "logit")
        own = fit_binary(design[k], y[k])
        assert np.array_equal(fit.coef[0], own.coefficients)
        assert (fit.iterations[0], fit.loglik[0], fit.traces[0]) == (
            own.iterations, own.log_likelihood, own.loglik_trace)


def test_irls_member_whose_halvings_run_out_follows_its_own_fit(monkeypatch):
    # a mean function that disagrees with the logit score for |eta| >= 0.7, so
    # some members' steps fail all 40 halvings and take the untried length
    from scipy.special import expit

    import lineariv.glm

    monkeypatch.setitem(lineariv.glm._LINK_MEANS, "logit",
                        lambda eta: np.where(np.abs(eta) < 0.7, expit(eta), expit(-eta)))
    monkeypatch.setattr(lineariv.glm, "MAX_ITER", 20)
    rng = np.random.default_rng(0)
    design = rng.standard_normal((6, 60, 2)) * rng.uniform(0.5, 6, size=(6, 1, 2))
    design[:, :, 0] = 1.0
    y = (rng.random((6, 60)) < 0.5).astype(float)
    fit = _irls(design, y, "logit")
    assert any(fit.exhausted) and not all(fit.exhausted)
    for k in range(6):
        own = fit_binary(design[k], y[k])
        assert np.array_equal(fit.coef[k], own.coefficients)
        assert (fit.iterations[k], fit.score_norm[k], fit.traces[k]) == (
            own.iterations, own.score_norm, own.loglik_trace)


@pytest.mark.parametrize("link", ["logit", "probit"])
def test_irls_members_bit_identical_to_stacks_of_one(link):
    # a weak member that leaves the stack early, two stronger ones and a
    # separated one whose coefficients run past SEPARATION_NORM
    rng = np.random.default_rng(5)
    design = np.empty((4, 200, 3))
    design[:, :, 0] = 1.0
    design[:, :, 1:] = rng.standard_normal((4, 200, 2))
    design[2, :, 1] *= 0.01
    y = np.empty((4, 200))
    for k, coef in enumerate(([0.1, 0.05, 0.0], [-0.5, 1.5, -2.0], None, [0.3, 3.0, 1.0])):
        y[k] = design[k, :, 1] > 0 if coef is None else rng.random(200) < expit(design[k] @ coef)
    fit = _irls(design, y, link)
    assert fit.iterations[0] < min(fit.iterations[1:])
    assert fit_binary(design[2], y[2], link=link).separation
    for k in range(4):
        own = _irls(design[k:k + 1], y[k:k + 1], link)
        assert np.array_equal(fit.coef[k], own.coef[0])
        assert (fit.iterations[k], fit.score_norm[k], fit.loglik[k], fit.traces[k],
                fit.exhausted[k]) == (own.iterations[0], own.score_norm[0], own.loglik[0],
                                      own.traces[0], own.exhausted[0])


def _assert_irls_mean(design, y, link):
    """A stacked fit's mean is the link's mean at its coefficients, and each
    member's coefficients and mean are its stack-of-one fit's, to the bit."""
    fit = _irls(design, y, link)
    assert fit.coef.shape == (len(design), design.shape[-1]) and fit.mean.shape == y.shape
    assert np.array_equal(fit.mean, _mean_function(link)(np.matvec(design, fit.coef)))
    for k in range(len(design)):
        own = _irls(design[k:k + 1], y[k:k + 1], link)
        assert np.array_equal(fit.coef[k], own.coef[0])
        assert np.array_equal(fit.mean[k], own.mean[0])
    return fit


@pytest.mark.parametrize("link", ["logit", "probit"])
def test_irls_mean_is_the_link_mean_at_each_members_coefficients(monkeypatch, link):
    # members that stop after different numbers of steps
    rng, design = _designs(11, b=5, n=200)
    design[:, :, 1:] *= np.linspace(0.05, 2.0, 5)[:, None, None]
    y = (rng.random(design.shape[:2]) < expit(design @ np.array([0.2, 1.0, -0.5]))).astype(float)
    fit = _assert_irls_mean(design, y, link)
    assert len(set(fit.iterations)) > 1 and not any(fit.exhausted)

    # a mean function that disagrees with the score for |eta| >= 0.3, so that
    # some members' steps fail all 40 halvings and take the untried length
    mean = {"logit": expit, "probit": lineariv.glm.normal_cdf}[link]
    monkeypatch.setitem(lineariv.glm._LINK_MEANS, link,
                        lambda eta: np.where(np.abs(eta) < 0.3, mean(eta), mean(-eta)))
    monkeypatch.setattr(lineariv.glm, "MAX_ITER", 20)
    rng = np.random.default_rng(0)
    design = rng.standard_normal((6, 60, 2)) * rng.uniform(0.5, 6, size=(6, 1, 2))
    design[:, :, 0] = 1.0
    y = (rng.random((6, 60)) < 0.5).astype(float)
    with np.errstate(all="ignore"):
        fit = _assert_irls_mean(design, y, link)
    assert any(fit.exhausted) and not all(fit.exhausted)
    assert len(set(fit.iterations)) > 1


def test_solve_ee_flags_a_stack_with_a_degenerate_member():
    rng, index = _designs(3, p=2)
    regressors = index + 0.1 * rng.standard_normal(index.shape)
    response = rng.standard_normal(index.shape[:2])
    index[0, :, 1] = 0.0
    # the degenerate member flags the stack, and alone raises its own error
    with pytest.raises(_Flagged):
        _solve_ee(index, regressors, response, "test")
    with pytest.raises(WeakIdentificationError, match="test: estimating-equation denominator"):
        _solve_ee(index[:1], regressors[:1], response[:1], "test")
    ee = _solve_ee(index[1:], regressors[1:], response[1:], "test")
    for k in (1, 2, 3):
        own = _solve_ee(index[k:k + 1], regressors[k:k + 1], response[k:k + 1], "test")
        assert np.array_equal(ee.theta[k - 1], own.theta[0])
        assert ee.condition[k - 1] == own.condition[0]


def _rank_keeps(base, extension):
    """The rank rule ``_extend`` implements: keep a column when it
    raises ``np.linalg.matrix_rank`` at fit_ols's tolerance RANK_RTOL * s_max."""
    def rank(design):
        return np.linalg.matrix_rank(design, tol=RANK_RTOL * np.linalg.norm(design, 2))

    kept, current = [], base
    for j in range(extension.shape[1]):
        trial = np.column_stack([current, extension[:, j]])
        if rank(trial) > rank(current):
            kept.append(j)
            current = trial
    return kept


def test_drop_collinear_of_one_dataset_is_the_rank_rule():
    rng = np.random.default_rng(11)
    for trial in range(200):
        n, p, q = 40, int(rng.integers(1, 4)), int(rng.integers(1, 4))
        base = rng.standard_normal((n, p))
        if trial % 4 == 0 and p > 1:
            base[:, -1] = base[:, 0]                      # a rank-deficient base
        # columns in the span of the base, or off it by 1e-4 or 1e-12, or zero
        extension = base @ rng.standard_normal((p, q))
        extension += rng.choice([0.0, 1e-4, 1e-12], size=q) * rng.standard_normal((n, q))
        extension[:, rng.random(q) < 0.1] = 0.0
        kept, cols = _extend(base[None], extension[None])
        assert cols == _rank_keeps(base, extension)
        assert np.array_equal(kept[0, :, p:], extension[:, cols])
        if np.linalg.matrix_rank(base, tol=RANK_RTOL * np.linalg.norm(base, 2)) == p:
            # on a full-rank base the extended design passes fit_ols's rank test
            design, extended = _extend(base[None], extension[None])
            assert extended == cols
            fit_ols(design[0], rng.standard_normal(n))


def test_drop_collinear_flags_members_that_disagree_with_the_stack():
    rng, base = _designs(3, p=2)
    extension = base * rng.standard_normal((4, 300, 1))
    extension[2] = 2.0 * base[2]                          # in the span of its base
    with pytest.raises(_Flagged):
        _extend(base, extension)
    # each member alone keeps its own columns, the agreeing ones those of
    # their stack
    assert _extend(base[2:3], extension[2:3])[1] == []
    kept, cols = _extend(base[[0, 1, 3]], extension[[0, 1, 3]])
    assert cols == [0, 1]
    for i, k in enumerate((0, 1, 3)):
        own = _extend(base[k:k + 1], extension[k:k + 1])
        assert own[1] == [0, 1] and np.array_equal(own[0][0, :, 2:], kept[i, :, 2:])


def test_drop_collinear_projects_on_the_numerical_range_of_a_deficient_base():
    rng, base = _designs(5, b=1)
    base[0, :, 2] = base[0, :, 1]
    u = np.linalg.svd(base[0], full_matrices=False)[0]
    # off the span only along the singular vector of the zero singular value
    col = base[0] @ rng.standard_normal(3) + 1e-4 * u[:, 2]
    extension = col[None, :, None]
    assert _rank_keeps(base[0], extension[0]) == [0]
    assert _extend(base, extension)[1] == [0]


def test_drop_collinear_judges_an_extension_the_test_cannot_see_at_the_base_scale():
    rng, base = _designs(6, b=1)
    # a column in the span of the base and one off it
    extension = np.stack([base[0] @ rng.standard_normal(3), rng.standard_normal(300)], axis=-1)
    assert _extend(base, extension[None])[1] == [1]
    for scale in (1e-13, 1e13):
        # numerically zero against the base, or the base against it
        assert _rank_keeps(base[0], scale * extension) == []
        assert _extend(base, scale * extension[None])[1] == [1]


# ---------------------------------------------------------------------------
# br_gamma: bootstrap resamples of one dataset in a linked chunk
# ---------------------------------------------------------------------------

LIN = BasisSpec(["1", "c0"])
QUAD = BasisSpec(["1", "c0", "c0^2"])
BR_BASES = [(LIN, LIN, LIN), (LIN, QUAD, LIN), (QUAD, LIN, QUAD), (LIN, BasisSpec(["1"]), LIN)]


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def _br_fields(data, bases):
    """Every field of br_gamma_estimate's result as float.hex, or its error."""
    try:
        res = br_gamma_estimate(data, *bases)
    except EstimationError as err:
        return type(err).__name__, str(err)
    fit, plain = res.nuisance["extended_fit"], res.nuisance["iv_plain"]
    return {"psi": _hex(res.psi_hat), "index_coef": _hex(res.nuisance["index_coef"]),
            "coefficients": _hex(fit.coefficients), "iterations": fit.iterations,
            "loglik_trace": _hex(fit.loglik_trace), "converged": fit.converged,
            "separation": fit.separation, "score_norm": _hex(fit.score_norm),
            "log_likelihood": _hex(fit.log_likelihood),
            "gamma_hat": _hex(res.diagnostics["br_fit"].gamma_hat),
            "kept": res.diagnostics["extension_columns_kept"],
            "score_identity_norm": _hex(res.diagnostics["br_fit"].score_identity_norm),
            "influence": _hex(res.diagnostics["influence"]),
            "plain": _hex(plain.coef), "plain_converged": plain.fit_converged,
            "conservative_se": _hex(conservative_se_brgamma(data, res)),
            "warning": res.diagnostics.get("warning")}


def _resamples(data, count, seed):
    return [data.take(make_generator([seed, b]).integers(0, data.n, size=data.n))
            for b in range(count)]


def _copies(datasets):
    return [Dataset(ds.y, ds.x, ds.z, ds.c_raw) for ds in datasets]


ORACLE_FIELDS = ("psi", "index_coef", "coefficients", "iterations", "loglik_trace", "converged",
                 "separation", "score_norm", "log_likelihood", "kept", "plain", "plain_converged")


def _br_oracle(data, bases):
    """The fields ORACLE_FIELDS of :func:`_br_fields`, or the error, from a
    plain fit of its own, ``eem_fit_alpha`` under it and ``_br_gamma_stack``
    on a stack of one: br_gamma outside the dataset memo."""
    index_basis, outcome_basis, iv_basis = bases
    try:
        plain = BinaryLogisticIv.fit(data, iv_basis)
        alpha = eem_fit_alpha(data, plain, index_basis)
        fit = _br_gamma_stack(data.z[:, 0][None], data.x[None], data.y[None],
                              *(dataset.build_design(data, basis)[None]
                                for basis in (iv_basis, outcome_basis, index_basis)),
                              alpha[None])
    except EstimationError as err:
        return type(err).__name__, str(err)
    ext = _binary_fit(fit.extended, 0, "logit")
    return {"psi": _hex(fit.psi), "index_coef": _hex(fit.index_coef[0]),
            "coefficients": _hex(ext.coefficients), "iterations": ext.iterations,
            "loglik_trace": _hex(ext.loglik_trace), "converged": ext.converged,
            "separation": ext.separation, "score_norm": _hex(ext.score_norm),
            "log_likelihood": _hex(ext.log_likelihood), "kept": fit.kept,
            "plain": _hex(plain.coef), "plain_converged": plain.fit_converged}


@pytest.mark.parametrize("lam, n", [((0, 0, 0), 300), ((1, 1, -1), 300), ((1, -1, -1), 120)])
@pytest.mark.parametrize("bases", BR_BASES)
@pytest.mark.parametrize("linked", [True, False])
def test_br_gamma_chunk_bit_identical_to_per_dataset(lam, n, bases, linked):
    datasets = _resamples(simlab.gen_table1(*lam, n, 40).dataset, 9, sum(lam) + n)
    # unlinked, each dataset is a stack of one through the memo
    fields = [_br_fields(ds, bases) for ds in _copies(datasets)]
    if linked:
        # the linked chunk, fitted as one stack, equals them in every field
        Dataset.link(datasets)
        linked_fields = [_br_fields(ds, bases) for ds in datasets]
        assert linked_fields == fields
        fields = linked_fields
    assert [value if isinstance(value, tuple) else {key: value[key] for key in ORACLE_FIELDS}
            for value in fields] == [_br_oracle(ds, bases) for ds in _copies(datasets)]


def test_br_gamma_degenerate_member_gets_its_own_error(monkeypatch):
    base = simlab.gen_table1(1, 1, -1, 300, 41).dataset
    datasets = _resamples(base, 6, 3)
    one_class, flat = datasets[2], datasets[4]
    datasets[2] = Dataset(one_class.y, one_class.x, np.zeros(base.n), one_class.c_raw)
    datasets[4] = Dataset(flat.y, flat.x, flat.z, np.ones_like(flat.c_raw))
    expected = [_br_fields(ds, (LIN, LIN, LIN)) for ds in _copies(datasets)]
    assert expected[2] == ("DegenerateResponseError", "response must contain both classes")
    assert expected[4][0] == "WeakIdentificationError"

    sizes = _kernel_sizes(monkeypatch, "_br_records", lineariv.adaptive)
    Dataset.link(datasets)
    assert [_br_fields(ds, (LIN, LIN, LIN)) for ds in datasets] == expected
    # the class check flags the chunk, and each resample is fitted again alone
    assert sizes == [6, 1, 1, 1, 1, 1, 1]


def test_br_gamma_memoises_a_degenerate_members_error(monkeypatch):
    datasets = _resamples(simlab.gen_table1(1, 1, -1, 300, 41).dataset, 4, 3)
    one_class = datasets[1]
    datasets[1] = Dataset(one_class.y, one_class.x, np.zeros(one_class.n), one_class.c_raw)
    Dataset.link(datasets)
    sizes = _kernel_sizes(monkeypatch, "_br_records", lineariv.adaptive)
    with pytest.raises(DegenerateResponseError) as first:
        br_gamma_estimate(datasets[1], LIN, LIN, LIN)
    assert sizes == [4, 1, 1, 1, 1]
    # the error is the member's memoised value: no second fit
    with pytest.raises(DegenerateResponseError) as second:
        br_gamma_estimate(datasets[1], LIN, LIN, LIN)
    assert second.value is first.value and sizes == [4, 1, 1, 1, 1]


def test_a_non_finite_basis_term_fails_only_its_member(monkeypatch):
    # c0^-1 is inf where c0 = 0: only the resample that draws that row fails
    base = simlab.gen_table1(0, 0, 0, 200, 43).dataset
    c = base.c_raw.copy()
    c[5, 0] = 0.0
    base = Dataset(base.y, base.x, base.z, c)
    rows = [make_generator([43, b]).integers(0, base.n, size=base.n) for b in range(5)]
    for k, draw in enumerate(rows):
        draw[draw == 5] = 6
        if k == 2:
            draw[0] = 5
    bases = (BasisSpec(["1", "c0^-1"]), LIN, LIN)
    expected = [_br_fields(base.take(draw), bases) for draw in rows]
    assert expected[2] == ("SingularDesignError", "basis term 'c0^-1' is not finite at some row")
    assert all(isinstance(value, dict) for k, value in enumerate(expected) if k != 2)

    datasets = [base.take(draw) for draw in rows]
    sizes = _kernel_sizes(monkeypatch, "_br_records", lineariv.adaptive)
    Dataset.link(datasets)
    assert [_br_fields(ds, bases) for ds in datasets] == expected
    # the evaluation flags the chunk, and each resample is fitted again alone
    assert sizes == [5, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("bases, evaluations", [((LIN, LIN, LIN), 1), ((LIN, QUAD, LIN), 2)])
def test_br_records_evaluate_each_distinct_basis_once(monkeypatch, bases, evaluations):
    # equal bases share one read-only design
    resamples = _resamples(simlab.gen_table1(0, 0, 0, 500, 1).dataset, 4, 1)
    evaluate, calls = BasisSpec._evaluate, []

    def spy(basis, z, c):
        calls.append(basis)
        return evaluate(basis, z, c)

    monkeypatch.setattr(BasisSpec, "_evaluate", spy)
    designs = lineariv.adaptive._br_records(resamples, bases)["data"][3:]
    assert len(calls) == evaluations
    assert designs[0] is designs[2] and not designs[0].flags.writeable


def test_br_gamma_calls_share_no_mutable_state():
    data = simlab.gen_table1(0, 0, 0, 200, 42).dataset
    first = br_gamma_estimate(data, LIN, LIN, LIN)
    before = _br_fields(data, (LIN, LIN, LIN))
    second = br_gamma_estimate(data, LIN, LIN, LIN)
    assert first.nuisance is not second.nuisance and first.diagnostics is not second.diagnostics
    assert first.diagnostics["br_fit"] is not second.diagnostics["br_fit"]
    arrays = [lambda r: r.nuisance["index_coef"], lambda r: r.diagnostics["influence"],
              lambda r: r.nuisance["extended_fit"].coefficients,
              lambda r: r.nuisance["iv_plain"].coef,
              lambda r: r.psi_hat]
    for get in arrays:
        assert not np.shares_memory(get(first), get(second))
        get(first)[...] = 0.0
    first.nuisance["extended_fit"].loglik_trace.append(0.0)
    first.diagnostics["extension_columns_kept"].append(7)
    assert _br_fields(data, (LIN, LIN, LIN)) == before

    # on a linked chunk, writing into every array and list of one member's
    # br_gamma and br_beta results changes neither a repeat call on that
    # member nor any other member's results
    datasets = _resamples(data, 3, 42)
    Dataset.link(datasets)
    fields = lambda: [(_br_fields(ds, (LIN, LIN, LIN)), _br_beta_fields(ds, (LIN, LIN, LIN)))
                      for ds in datasets]
    before = fields()
    for ds in datasets:
        for res in (br_gamma_estimate(ds, LIN, LIN, LIN), br_beta_estimate(ds, LIN, LIN, LIN)):
            _write_into(res)
        assert fields() == before


def _br_beta_fields(data, bases):
    """The arrays of br_beta_estimate's result as float.hex."""
    res = br_beta_estimate(data, *bases)
    return {"psi": _hex(res.psi_hat), "beta_hat": _hex(res.beta_hat),
            "index_coef": _hex(res.nuisance["index_coef"]),
            "plain": _hex(res.nuisance["iv_plain"].coef),
            "gamma_hat": _hex(res.diagnostics["br_fit"].gamma_hat),
            "kept": res.nuisance["extension_columns"]}


def _write_into(res):
    """Zeroes every array, and appends to every list, of a bias-reduced result."""
    br = res.diagnostics["br_fit"]
    arrays = [res.psi_hat, res.beta_hat, res.nuisance["index_coef"],
              res.nuisance["iv_plain"].coef, br.gamma_hat, br.beta_hat]
    lists = [res.nuisance.get("extension_columns", [])]
    if "extended_fit" in res.nuisance:
        arrays += [res.nuisance["extended_fit"].coefficients, res.diagnostics["influence"]]
        lists += [res.nuisance["extended_fit"].loglik_trace,
                  res.diagnostics["extension_columns_kept"]]
    for array in arrays:
        array[...] = 0.0
    for values in lists:
        values.append(7)


# ---------------------------------------------------------------------------
# br_gamma's refit starts at the first extended fit
# ---------------------------------------------------------------------------

def _spy_irls(monkeypatch) -> list:
    """Records (design, y, start, fit) of every call of the IRLS kernel."""
    calls = []

    def spy(design, y, link, start=None):
        fit = _irls(design, y, link, start)
        calls.append((design, y, start, fit))
        return fit

    monkeypatch.setattr(lineariv.glm, "_irls", spy)
    return calls


def _separated(data):
    """``data`` with the instrument the sign of c0: the extended fits do not converge."""
    return Dataset(data.y, data.x, (data.c_raw[:, :1] > 0).astype(float), data.c_raw)


def test_br_gamma_refit_of_a_table1_chunk_takes_no_step(monkeypatch):
    datasets = simlab._simulate("table1", 500, [[TABLE1_SEED, i] for i in range(16)], (0, 0, 0))
    assert len(datasets) == dataset._chunk_size(500)
    calls = _spy_irls(monkeypatch)
    fit = lineariv.adaptive._br_records(datasets, (LIN, LIN, LIN))["gamma"]
    (_, _, first_start, first), (_, _, start, refit) = calls[1:]
    # the first extended fit starts cold and takes steps; the refit starts
    # at its projected linear predictor, which already meets the stop rule
    assert first_start is None and min(first.iterations) > 0
    assert refit is fit.extended and np.isfinite(start).all()
    assert refit.iterations == [0] * 16
    assert max(refit.score_norm) <= SCORE_TOL


def test_br_gamma_refit_after_an_unconverged_first_fit_starts_by_default(monkeypatch):
    data = _separated(simlab.gen_table1(1, 1, -1, 300, 61).dataset)
    calls = _spy_irls(monkeypatch)
    with np.errstate(all="ignore"):
        br_gamma_estimate(data, LIN, LIN, LIN)
        (_, _, _, first), (design, y, start, refit) = calls[1:]
        assert first.score_norm[0] > SCORE_TOL and np.isnan(start).all()
        default = _irls(design, y, "logit")
    assert refit.iterations[0] > 0
    for field in refit._fields:
        assert repr(getattr(refit, field)) == repr(getattr(default, field)), field


def test_refit_start_projects_converged_unseparated_members_only():
    gen = make_generator(9)
    design = np.stack([np.column_stack([np.ones(40), gen.normal(size=40)]) for _ in range(5)])
    refit_design = np.concatenate([design, design[..., 1:] ** 2], axis=-1)
    refit_design[4, :, 2] = refit_design[4, :, 1]     # singular normal equations
    coef = np.array([[0.3, -0.5], [0.1, 0.2], [2e4, 1.0], [-0.4, 0.7], [0.2, 0.1]])
    mean = expit(np.matvec(design, coef))
    # member 1 did not converge, member 2 is separated
    fit = lineariv.glm._Irls(coef, mean, [5] * 5, [1e-12, 1e-6, 1e-12, 0.0, 1e-12], [0.0] * 5,
                             [[]] * 5, [False] * 5, [False, False, True, False, False])
    members = lambda rows: lineariv.glm._Irls(*(
        value[list(rows)] if isinstance(value, np.ndarray) else [value[k] for k in rows]
        for value in fit))
    start = lineariv.adaptive._refit_start(members(range(4)), design[:4], refit_design[:4])
    assert np.isnan(start).any(-1).tolist() == [False, True, True, False]
    for k in (0, 3):
        projection = np.linalg.lstsq(refit_design[k], design[k] @ coef[k], rcond=None)[0]
        np.testing.assert_allclose(start[k], projection, rtol=1e-10, atol=1e-12)
    for k in range(5):
        own = lineariv.adaptive._refit_start(members([k]), design[k:k + 1], refit_design[k:k + 1])
        assert own.tobytes() == (start[k:k + 1] if k < 4 else np.full((1, 3), np.nan)).tobytes()
    # with the singular member a stack raises, and _fit_stack fits each member alone
    with pytest.raises(np.linalg.LinAlgError):
        lineariv.adaptive._refit_start(members([0, 4]), design[[0, 4]], refit_design[[0, 4]])


def test_mixed_refit_starts_in_one_stack_match_each_member_alone(monkeypatch):
    base = simlab.gen_table1(1, 1, -1, 300, 61).dataset
    datasets = _resamples(base, 3, 5) + [_separated(base)] + _resamples(base, 2, 6)
    with np.errstate(all="ignore"):
        expected = [_br_fields(ds, (LIN, LIN, LIN)) for ds in _copies(datasets)]
        sizes = _kernel_sizes(monkeypatch, "_br_records", lineariv.adaptive)
        calls = _spy_irls(monkeypatch)
        Dataset.link(datasets)
        assert [_br_fields(ds, (LIN, LIN, LIN)) for ds in datasets] == expected
    # one stack, in which only the separated member's refit starts by default
    assert sizes == [6]
    assert np.isnan(calls[2][2]).any(-1).tolist() == [False, False, False, True, False, False]
    assert [value["iterations"] for value in expected] == [0, 0, 0, 100, 0, 0]


# ---------------------------------------------------------------------------
# eem and br_beta: one degenerate member of a linked Table 1 chunk
# ---------------------------------------------------------------------------

def _orthogonal_exposure(data, prob):
    """``data`` with its exposure made orthogonal to the index columns
    (z - prob) * (1, c0), so that the index fitted on them is zero up to
    rounding and so is every estimating equation built on it."""
    lin = np.column_stack([np.ones(data.n), data.c_raw[:, 0]])
    cols = (data.z[:, 0] - prob)[:, None] * lin
    x = data.x - cols @ np.linalg.lstsq(cols, data.x, rcond=None)[0]
    return Dataset(data.y, x, data.z, data.c_raw)


@pytest.mark.parametrize("kernel, sizes", [
    # the member flags the chunk, and each replicate is computed again as a
    # stack of one
    ("_eem_stack", [6, 1, 1, 1, 1, 1, 1]),
    # eem's check flags the chunk before br_beta's kernel sees it
    ("_br_beta_stack", [1] * 6),
], ids=["eem", "br_beta"])
def test_eem_and_br_beta_degenerate_member_gets_its_own_error(monkeypatch, kernel, sizes):
    datasets = _replicates("table1", (1, 1, -1), 500, 555, 6)
    data = datasets[2]
    # eem and br_beta fit one index under the plain fit, so both fail on it
    datasets[2] = _orthogonal_exposure(data, BinaryLogisticIv.fit(data, LIN).prob(data))
    expected = _per_dataset(datasets)
    # only eem and br_beta fail, each with its own error
    assert [name for name, value in expected[2].items() if isinstance(value, tuple)] == [
        "eem", "br_beta"]
    for estimator in ("eem", "br_beta"):
        assert expected[2][estimator][0] == "WeakIdentificationError"
    assert expected[2]["eem"][1].startswith(
        "g_estimate: estimating-equation denominator is degenerate")
    assert expected[2]["br_beta"][1].startswith(
        "br_beta: estimating-equation denominator is degenerate")

    seen = _kernel_sizes(monkeypatch, kernel, lineariv.adaptive, lineariv.suites)
    assert _bundle_outcomes(datasets) == expected
    assert seen == sizes


def test_every_logistic_model_has_the_irls_mean():
    # fit_binary's predict, the instrument law, a logit exposure model and
    # the bias-reduced pair's stacked fit, which is also the Table 1
    # bundle's, give the same probabilities to the last bit, wherever
    # predict does not clip
    data = generate(ScenarioConfig("table1", n=1000, seed=3, reps=1, lam=(1, 1, -1)), 0).dataset
    design, z = dataset.build_design(data, LIN), data.z[:, 0]
    fit = fit_binary(design, z)
    want = fit.predict(design)
    got = {
        "BinaryLogisticIv.prob": BinaryLogisticIv.fit(data, LIN).prob(data),
        "ExposureModel.predict": ExposureModel("logit", LIN, fit.coefficients).predict(data),
        "glm._binary": lineariv.glm._binary(design[None], z[None], "logit").mean[0],
    }
    unclipped = want == _mean_function("logit")(design @ fit.coefficients)
    assert unclipped.sum() >= 990
    for name, prob in got.items():
        assert np.array_equal(prob[unclipped], want[unclipped]), name

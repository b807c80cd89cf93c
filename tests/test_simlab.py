"""Generators and the Monte Carlo harness."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from lineariv import (
    SchemaError,
    WeakIdentificationError,
    gen_effectmod,
    gen_extreme,
    gen_sim1,
    gen_sim2,
    gen_table1,
    generate,
    load_csv,
    run_monte_carlo,
    write_report_csv,
    write_report_json,
)
from lineariv import dataset
from lineariv.dataset import ColumnMap
from lineariv.glm import expit, fit_binary, fit_ols, normal_cdf
from lineariv.rng import draw_normal, make_generator
from lineariv.simlab import ScenarioConfig, _simulate, report_rows, simulate

BIG_N = 100_000


def test_simulate_is_the_generator_dispatch_of_generate():
    cfg = ScenarioConfig("extreme", n=60, seed=8, reps=2, lam=(1, -1, 0))
    direct = simulate("extreme", 60, [8, 1], (1, -1, 0)).dataset
    assert_array_equal(generate(cfg, 1).dataset.y, direct.y)
    assert_array_equal(simulate("sim2", 60, 4).dataset.x, gen_sim2(60, 4).dataset.x)
    with pytest.raises(SchemaError, match="unknown generator"):
        simulate("sim3", 60, 4)


def test_generators_bit_deterministic():
    a = gen_table1(0, 0, 0, 50, 99)
    b = gen_table1(0, 0, 0, 50, 99)
    for field in ("y", "x", "z", "c_raw"):
        assert_array_equal(getattr(a.dataset, field), getattr(b.dataset, field))
    # frozen stream values pin the generator family and draw order
    sim = gen_table1(0, 0, 0, 5, 1)
    assert sim.dataset.y[0] == -2.635097855361767
    assert sim.dataset.x[1] == -0.19943957120269182
    assert_array_equal(sim.dataset.z[:, 0], [0.0, 1.0, 1.0, 0.0, 0.0])
    s1 = gen_sim1(4, [7, 2])
    assert s1.dataset.y[3] == 0.32294826059042026


def _reference(generator, n, seed, lam):
    """The per-seed generators drawn block by block, as draws from one
    generator: the reference the stacked kernels must match bit for bit."""
    gen = make_generator(seed)
    u = draw_normal(gen, n)
    v = draw_normal(gen, n)
    if generator in ("sim1", "sim2"):
        pz = 0.27 if generator == "sim1" else expit(-1.0 + v / 2.0)
        z = (gen.random(n) < pz).astype(float)
        mean = z + u + v if generator == "sim1" else z + u + v - z * v + v**2 / 2.0
        x = (gen.random(n) < normal_cdf(mean)).astype(float)
        y = 0.5 * x - u - 2.0 * v + v**2 + draw_normal(gen, n)
    elif generator == "effectmod":
        z = (gen.random(n) < 0.27).astype(float)
        x = 2.0 * z + v + u - z * v + 0.5 * v**2 + draw_normal(gen, n)
        y = 0.5 * x + x * v - u - 2.0 * v + v**2 + draw_normal(gen, n)
    elif generator == "table1":
        lx, ly, lz = lam
        z = (gen.random(n) < expit(-1.0 + v / 2.0 + lz * v**2 / 3.0)).astype(float)
        x = z + u + v - z * v + lx * v**2 + draw_normal(gen, n)
        y = x - u - v + ly * v**2 + draw_normal(gen, n)
    else:
        lx, ly, lz = lam
        pz = 1.0 - np.exp(-np.exp(-1.0 + v / 2.0 - v**2 / 2.0 + lz * v**2 / 8.0))
        z = (gen.random(n) < pz).astype(float)
        x = z + u + v - z * v + 2.0 * v**2 + 2.0 * z * v**2 + 2.0 * lx * v**3 + draw_normal(gen, n)
        y = x - u - v - 2.0 * v**2 + 2.0 * ly * v**3 + draw_normal(gen, n)
    return {"y": y, "x": x, "z": z[:, None], "c_raw": v[:, None]}


def _columns(data):
    return {field: getattr(data, field) for field in ("y", "x", "z", "c_raw")}


def _assert_same_dataset(got, want: dict):
    for field, column in _columns(got).items():
        assert column.shape == want[field].shape and column.tobytes() == want[field].tobytes()
        assert not column.flags.writeable


FAMILIES = [("sim1", None), ("sim2", None), ("effectmod", None),
            ("table1", (1, -1, 1)), ("extreme", (-1, 1, -1))]
GEN = {"sim1": lambda n, key, lam: gen_sim1(n, key), "sim2": lambda n, key, lam: gen_sim2(n, key),
       "effectmod": lambda n, key, lam: gen_effectmod(n, key),
       "table1": lambda n, key, lam: gen_table1(*lam, n, key),
       "extreme": lambda n, key, lam: gen_extreme(*lam, n, key)}


@pytest.mark.parametrize("generator, lam", FAMILIES)
@pytest.mark.parametrize("size", [1, 3, 8])
def test_stacked_generators_equal_per_seed_generators(generator, lam, size):
    seeds = [[91, i] for i in (5, 0, 13, 2, 7, 1, 11, 3)][:size]    # out of order
    stack = _simulate(generator, 51, seeds, lam)
    assert len(stack) == size
    for key, data in zip(seeds, stack):
        _assert_same_dataset(data, _reference(generator, 51, key, lam))
        _assert_same_dataset(data, _columns(GEN[generator](51, key, lam).dataset))
        _assert_same_dataset(data, _columns(simulate(generator, 51, key, lam).dataset))


@pytest.mark.parametrize("generator, lam", FAMILIES)
def test_generate_is_row_i_of_its_chunk(generator, lam, monkeypatch):
    cfg = ScenarioConfig(generator, n=51, seed=12, reps=10, lam=lam)
    for size in (3, dataset._chunk_size(51)):       # chunks of 3, 3, 3, 1 and one of 10
        monkeypatch.setattr(dataset, "CHUNK_ROWS", size * 51)
        seen = []
        report = run_monte_carlo(cfg, {"seen": lambda ds: seen.append(ds) or np.array([0.0])})
        assert len(seen) == 10
        for i, data in enumerate(seen):
            _assert_same_dataset(data, _columns(generate(cfg, i).dataset))
        assert_array_equal(report.psi_true, generate(cfg, 0).psi_true)


def test_sim1_marginal_oracles():
    sim = gen_sim1(BIG_N, 2024)
    data = sim.dataset
    assert abs(data.z.mean() - 0.27) <= 0.005
    v = data.c_raw[:, 0]
    corr = np.corrcoef(v, data.z[:, 0])[0, 1]
    assert abs(corr) <= 0.01
    # U integrates out: regression of y - 0.5x on (1, v, v^2) ~ (0, -2, 1)
    design = np.column_stack([np.ones(BIG_N), v, v**2])
    coef = fit_ols(design, data.y - 0.5 * data.x).coefficients
    assert_allclose(coef, [0.0, -2.0, 1.0], atol=0.03)
    assert_array_equal(np.unique(data.x), [0.0, 1.0])


def test_sim2_instrument_law_oracle():
    sim = gen_sim2(BIG_N, 2025)
    data = sim.dataset
    design = np.column_stack([np.ones(BIG_N), data.c_raw[:, 0]])
    fit = fit_binary(design, data.z[:, 0], "logit")
    assert_allclose(fit.coefficients, [-1.0, 0.5], atol=0.05)


def test_effectmod_exposure_mean_oracle():
    sim = gen_effectmod(BIG_N, 2026)
    data = sim.dataset
    v = data.c_raw[:, 0]
    z = data.z[:, 0]
    design = np.column_stack([np.ones(BIG_N), z, v, z * v, v**2])
    coef = fit_ols(design, data.x).coefficients
    assert_allclose(coef, [0.0, 2.0, 1.0, -1.0, 0.5], atol=0.03)
    assert_array_equal(sim.psi_true, [0.5, 1.0])


def test_table1_instrument_law_oracle():
    sim = gen_table1(0, 0, 0, BIG_N, 2027)
    data = sim.dataset
    design = np.column_stack([np.ones(BIG_N), data.c_raw[:, 0]])
    fit = fit_binary(design, data.z[:, 0], "logit")
    assert_allclose(fit.coefficients, [-1.0, 0.5], atol=0.05)


def test_extreme_marginal_against_direct_simulation():
    sim = gen_extreme(1, 1, 1, BIG_N, 2028)
    rng = np.random.default_rng(515)  # independent generator family as oracle
    v = rng.standard_normal(1_000_000)
    p_oracle = np.mean(1 - np.exp(-np.exp(-1 + v / 2 - v**2 / 2 + v**2 / 8)))
    assert abs(sim.dataset.z.mean() - p_oracle) <= 0.01


def test_scenario_config_validation():
    with pytest.raises(SchemaError):
        ScenarioConfig("quux", n=500, seed=1, reps=10)
    with pytest.raises(SchemaError):
        ScenarioConfig("table1", n=500, seed=1, reps=10)  # missing lam
    with pytest.raises(SchemaError):
        ScenarioConfig("table1", n=500, seed=1, reps=10, lam=(2, 0, 0))
    with pytest.raises(SchemaError):
        ScenarioConfig("sim1", n=10, seed=1, reps=10)


def test_seed_splitting_isolated_from_estimator_set():
    cfg = ScenarioConfig("table1", n=100, seed=33, reps=6, lam=(0, 0, 0))
    mean_est = lambda ds: np.array([ds.y.mean()])
    sd_est = lambda ds: np.array([ds.y.std()])
    rep_a = run_monte_carlo(cfg, {"mean": mean_est})
    rep_b = run_monte_carlo(cfg, {"mean": mean_est, "sd": sd_est})
    assert_array_equal(rep_a.estimates["mean"], rep_b.estimates["mean"])
    # replicate i only depends on (seed, i)
    assert_array_equal(generate(cfg, 3).dataset.y, gen_table1(0, 0, 0, 100, [33, 3]).dataset.y)


def test_harness_degenerate_constant_estimator():
    cfg = ScenarioConfig("table1", n=60, seed=4, reps=2, lam=(0, 0, 0))
    rep = run_monte_carlo(cfg, {"const": lambda ds: np.array([1.0])})
    s = rep.summaries["const"]
    assert_allclose(s.bias, [0.0])
    assert_allclose(s.sd, [0.0])
    assert s.outliers_removed == 0 and s.failed == 0


def test_harness_thread_and_order_invariance(tmp_path):
    cfg = ScenarioConfig("table1", n=100, seed=5, reps=8, lam=(0, 0, 0))
    ests = {
        "mean": lambda ds: np.array([ds.y.mean()]),
        "slope": lambda ds: np.array([fit_ols(np.column_stack([np.ones(ds.n), ds.x]), ds.y).coefficients[1]]),
    }
    serial = run_monte_carlo(cfg, ests)
    again = run_monte_carlo(cfg, ests)
    reordered = run_monte_carlo(cfg, dict(reversed(list(ests.items()))))
    for name in ests:
        assert_array_equal(serial.estimates[name], again.estimates[name])
        assert_array_equal(serial.estimates[name], reordered.estimates[name])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv([serial], p1)
    write_report_csv([again], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_harness_outlier_rule_and_failures():
    cfg = ScenarioConfig("table1", n=80, seed=6, reps=40, lam=(0, 0, 0))
    means = np.array([generate(cfg, i).dataset.y.mean() for i in range(40)])
    spike_cut = np.sort(np.abs(means))[-1] - 1e-12   # exactly one replicate above
    fail_cut = np.quantile([generate(cfg, i).dataset.y[0] for i in range(40)], 0.8)

    def spiky(ds):
        val = ds.y.mean()
        return np.array([1e6 if abs(val) > spike_cut else val])

    def sometimes_fails(ds):
        if ds.y[0] > fail_cut:
            raise WeakIdentificationError("synthetic")
        return np.array([ds.y.mean()])

    rep = run_monte_carlo(cfg, {"spiky": spiky, "flaky": sometimes_fails})
    s = rep.summaries["spiky"]
    assert s.outliers_removed == 1
    assert abs(s.bias[0]) < 10  # the spike is excluded from the moments
    f = rep.summaries["flaky"]
    assert 0 < f.failed < 20
    assert f.used + f.failed + f.outliers_removed == 40


def test_scenario_failure_flag():
    cfg = ScenarioConfig("table1", n=60, seed=7, reps=10, lam=(0, 0, 0))

    def broken(ds):
        raise WeakIdentificationError("always")

    rep = run_monte_carlo(cfg, {"broken": broken, "ok": lambda ds: np.array([1.0])})
    assert rep.summaries["broken"].scenario_failure
    assert rep.summaries["broken"].failed == 10
    assert not rep.summaries["ok"].scenario_failure


def test_report_serialization_round_trip(tmp_path):
    cfg = ScenarioConfig("table1", n=80, seed=8, reps=5, lam=(1, 0, -1))
    rep = run_monte_carlo(cfg, {"mean": lambda ds: np.array([ds.y.mean()])})
    json_path = tmp_path / "r.json"
    csv_path = tmp_path / "r.csv"
    write_report_json([rep], json_path)
    write_report_csv([rep], csv_path)
    payload = json.loads(json_path.read_text())
    assert payload["schema_version"] == 1
    rows = payload["rows"]
    assert rows == report_rows([rep])
    assert rows[0]["estimator"] == "mean"
    assert rows[0]["lambda_x"] == 1 and rows[0]["lambda_z"] == -1
    assert {"bias", "sd", "outliers_removed", "failed", "reps", "n", "seed"} <= set(rows[0])
    # CSV floats survive round trip at full precision
    import csv as csv_mod
    with open(csv_path) as fh:
        row = next(csv_mod.DictReader(fh))
    assert float(row["bias"]) == rows[0]["bias"]


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_report_json_strict_when_estimator_always_fails(tmp_path):
    cfg = ScenarioConfig("table1", n=60, seed=9, reps=4, lam=(0, 0, 0))

    def broken(ds):
        raise WeakIdentificationError("always")

    rep = run_monte_carlo(cfg, {"broken": broken, "mean": lambda ds: np.array([ds.y.mean()])})
    path = tmp_path / "r.json"
    write_report_json([rep], path)
    rows = {row["estimator"]: row for row in _strict_json(path.read_text())["rows"]}
    for key in ("bias", "sd", "raw_bias", "raw_sd"):
        assert rows["broken"][key] is None
    assert rows["broken"]["failed"] == 4 and rows["broken"]["used"] == 0
    assert rows["mean"] == report_rows([rep])[1]


def test_report_json_bytes_unchanged_without_nan(tmp_path):
    cfg = ScenarioConfig("table1", n=80, seed=8, reps=5, lam=(1, 0, -1))
    rep = run_monte_carlo(cfg, {"mean": lambda ds: np.array([ds.y.mean()])})
    path = tmp_path / "r.json"
    write_report_json([rep], path)
    legacy = json.dumps({"schema_version": 1, "rows": report_rows([rep])},
                        sort_keys=True, indent=1) + "\n"
    assert path.read_text(encoding="utf-8") == legacy


def test_generated_csv_reloads_lossless(tmp_path):
    from lineariv import write_csv
    sim = gen_sim2(40, 123)
    path = tmp_path / "sim.csv"
    cols = ColumnMap("y", "x", ["z"], ["v"])
    write_csv(sim.dataset, path, cols)
    back = load_csv(path, cols)
    for field in ("y", "x", "z", "c_raw"):
        assert_array_equal(getattr(back, field), getattr(sim.dataset, field))

"""Command-line interface: determinism, exit codes, library equality."""

import csv
import json

import numpy as np
import pytest

from lineariv import (
    BasisSpec,
    ColumnMap,
    Dataset,
    EffectModel,
    br_beta_estimate,
    load_csv,
    simlab,
    standard_tsls,
    write_csv,
)
from lineariv.cli import main
from lineariv.simlab import ScenarioConfig, generate


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_simulate_deterministic_and_reloadable(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--generator", "table1", "--lx", "0", "--ly", "0", "--lz", "0",
            "--n", "120", "--seed", "7"]
    code1, _, _ = run_cli(capsys, *args, "--out", str(p1))
    code2, _, _ = run_cli(capsys, *args, "--out", str(p2))
    assert code1 == code2 == 0
    assert p1.read_bytes() == p2.read_bytes()
    data = load_csv(p1, ColumnMap("y", "x", ["z"], ["v"]))
    assert data.n == 120


def test_fit_matches_library_call(tmp_path, capsys):
    csv_path = tmp_path / "d.csv"
    run_cli(capsys, "simulate", "--generator", "table1", "--n", "400", "--seed", "3",
            "--out", str(csv_path))
    code, out, _ = run_cli(
        capsys, "fit", "--data", str(csv_path), "--y-col", "y", "--x-col", "x",
        "--z-cols", "z", "--cov-cols", "v", "--estimator", "tsls",
        "--outcome-basis", "1", "c0", "--instrument-basis", "z0", "z0:c0")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    data = load_csv(csv_path, ColumnMap("y", "x", ["z"], ["v"]))
    direct = standard_tsls(data, EffectModel.constant(), BasisSpec(["1", "c0"]),
                           BasisSpec(["z0", "z0:c0"]))
    assert payload["psi_hat"] == [float(direct.psi_hat[0])]
    assert payload["se"] == [float(direct.se[0])]
    assert abs(payload["psi_hat"][0] - 1.0) < 0.5
    assert np.isfinite(payload["se"][0])


def test_fit_br_beta_with_a_quadratic_outcome_basis_on_sim1(tmp_path, capsys):
    # sim1 replicate 4: br-beta's second extension column would leave an
    # outcome design that fit_ols rejects (exit 3), so it is not kept
    data = generate(ScenarioConfig("sim1", n=500, seed=777, reps=2), 4).dataset
    csv_path = tmp_path / "sim1.csv"
    write_csv(data, csv_path)
    code, out, err = run_cli(
        capsys, "fit", "--data", str(csv_path), "--y-col", "y", "--x-col", "x",
        "--z-cols", "z", "--cov-cols", "v", "--estimator", "br-beta",
        "--index-basis", "1", "c0", "--outcome-basis", "1", "c0", "c0^2",
        "--iv-basis", "1", "c0")
    assert code == 0, err
    lin = BasisSpec(["1", "c0"])
    direct = br_beta_estimate(load_csv(csv_path, ColumnMap("y", "x", ["z"], ["v"])), lin,
                              BasisSpec(["1", "c0", "c0^2"]), lin)
    assert json.loads(out)["psi_hat"] == [direct.psi]


def test_fit_unknown_estimator_names_valid_set(tmp_path, capsys):
    csv_path = tmp_path / "d.csv"
    run_cli(capsys, "simulate", "--generator", "table1", "--n", "100", "--seed", "3",
            "--out", str(csv_path))
    code, _, err = run_cli(
        capsys, "fit", "--data", str(csv_path), "--y-col", "y", "--x-col", "x",
        "--z-cols", "z", "--cov-cols", "v",
        "--config", str(make_config(tmp_path, csv_path, estimator="frobnicate")))
    assert code == 2
    assert "tsls" in err and "br-beta" in err


def make_config(tmp_path, csv_path, **overrides):
    config = {
        "estimator": "tsls",
        "data": {"path": str(csv_path),
                 "columns": {"y": "y", "x": "x", "z": ["z"], "covariates": ["v"]}},
        "bases": {"outcome": ["1", "c0"], "instruments": ["z0", "z0:c0"]},
        "seed": 5,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_fit_config_file_and_byte_determinism(tmp_path, capsys):
    csv_path = tmp_path / "d.csv"
    run_cli(capsys, "simulate", "--generator", "table1", "--n", "300", "--seed", "9",
            "--out", str(csv_path))
    cfg = make_config(tmp_path, csv_path, estimator="eem",
                      bases={"outcome": ["1", "c0"], "index": ["1", "c0"], "iv": ["1", "c0"]})
    code1, out1, _ = run_cli(capsys, "fit", "--config", str(cfg))
    code2, out2, _ = run_cli(capsys, "fit", "--config", str(cfg))
    assert code1 == code2 == 0
    assert out1 == out2
    # flags override the config file
    code3, out3, _ = run_cli(capsys, "fit", "--config", str(cfg), "--estimator", "br-gamma")
    assert code3 == 0
    assert json.loads(out3)["estimator"] == "br-gamma"


def test_fit_bootstrap_inference(tmp_path, capsys):
    csv_path = tmp_path / "d.csv"
    run_cli(capsys, "simulate", "--generator", "table1", "--n", "250", "--seed", "4",
            "--out", str(csv_path))
    code, out, _ = run_cli(
        capsys, "fit", "--data", str(csv_path), "--y-col", "y", "--x-col", "x",
        "--z-cols", "z", "--cov-cols", "v", "--estimator", "tsls",
        "--outcome-basis", "1", "c0", "--instrument-basis", "z0", "z0:c0",
        "--inference", "bootstrap", "--resamples", "200", "--seed", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["inference"] == "bootstrap"
    assert payload["ci"]["lower"][0] < payload["psi_hat"][0] < payload["ci"]["upper"][0]


TSLS_FLAGS = ["--y-col", "y", "--x-col", "x", "--z-cols", "z", "--cov-cols", "v",
              "--estimator", "tsls", "--outcome-basis", "1", "c0",
              "--instrument-basis", "z0", "z0:c0"]


@pytest.mark.parametrize("n", ["0", "-1"])
def test_simulate_without_observations_is_a_usage_error(tmp_path, capsys, n):
    out_path = tmp_path / "d.csv"
    code, out, err = run_cli(capsys, "simulate", "--generator", "sim1", "--n", n,
                             "--out", str(out_path))
    assert (code, out, err) == (2, "", "error: dataset must contain at least one observation\n")
    assert not out_path.exists()


@pytest.mark.parametrize("flags, word", [
    # zero values must not fall back to the defaults (1000 resamples, 0.95)
    (["--resamples", "0", "--level", "0"], "resamples"),
    (["--resamples", "50"], "resamples"),
    (["--level", "1.5"], "level"),
])
def test_fit_bad_bootstrap_flags_are_usage_errors(tmp_path, capsys, flags, word):
    csv_path = tmp_path / "d.csv"
    run_cli(capsys, "simulate", "--generator", "table1", "--n", "100", "--seed", "3",
            "--out", str(csv_path))
    code, out, err = run_cli(capsys, "fit", "--data", str(csv_path), *TSLS_FLAGS,
                             "--inference", "bootstrap", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and word in err


def test_fit_bad_bootstrap_config_is_rejected_before_loading_data(tmp_path, capsys):
    cfg = make_config(tmp_path, tmp_path / "missing.csv",
                      inference={"method": "bootstrap", "resamples": 99})
    code, _, err = run_cli(capsys, "fit", "--config", str(cfg))
    assert code == 2
    assert "resamples" in err and "file not found" not in err


@pytest.mark.parametrize("document, message", [
    ({"inference": "bootstrap"}, "config 'inference' must be a JSON object, got str"),
    ({"data": "x.csv"}, "config 'data' must be a JSON object, got str"),
    ({"data": {"path": "x.csv", "columns": ["y", "x"]}},
     "config 'data.columns' must be a JSON object, got list"),
    ({"bases": ["1"]}, "config 'bases' must be a JSON object, got list"),
    ({"effect": 3}, "config 'effect' must be a JSON object, got int"),
    ([1, 2], "config document must be a JSON object, got list"),
])
def test_fit_config_sections_must_be_objects(tmp_path, capsys, document, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "fit", "--config", str(cfg), "--estimator", "tsls")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_fit_undecodable_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b'{"estimator": "tsls\xff"}')
    code, out, err = run_cli(capsys, "fit", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read config {cfg}: 'utf-8' codec can't decode byte 0xff "
                   "in position 19: invalid start byte\n")


def test_fit_config_with_a_byte_order_mark(tmp_path, capsys):
    # a leading byte-order mark is ignored, as load_csv ignores it
    csv_path = tmp_path / "d.csv"
    run_cli(capsys, "simulate", "--generator", "table1", "--n", "200", "--seed", "3",
            "--out", str(csv_path))
    cfg = make_config(tmp_path, csv_path)
    code, out, _ = run_cli(capsys, "fit", "--config", str(cfg))
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
    assert run_cli(capsys, "fit", "--config", str(bom)) == (code, out, "")
    assert code == 0


def test_fit_conservative_inference_of_another_estimator_is_rejected_before_loading_data(
        tmp_path, capsys):
    code, out, err = run_cli(capsys, "fit", "--data", str(tmp_path / "missing.csv"),
                             *TSLS_FLAGS, "--inference", "conservative")
    assert (code, out, err) == (2, "", "error: conservative inference is defined for "
                                       "br-gamma only\n")


def test_fit_estimation_failure_exit_code(tmp_path, capsys):
    # constant instrument column: the first stage is rank deficient
    csv_path = tmp_path / "bad.csv"
    rows = ["y,x,z,v"] + [f"{i},{i * 0.5},1.0,{i * 0.1}" for i in range(20)]
    csv_path.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(
        capsys, "fit", "--data", str(csv_path), "--y-col", "y", "--x-col", "x",
        "--z-cols", "z", "--cov-cols", "v", "--estimator", "tsls",
        "--outcome-basis", "1", "c0")
    assert code == 3
    assert "estimation error" in err


@pytest.mark.parametrize("estimator", ["br-gamma", "eem"])
def test_fit_one_class_instrument_is_an_estimation_failure(tmp_path, capsys, estimator):
    # an instrument that is all 0 has no logistic fit: exit 3, not a traceback
    csv_path = tmp_path / "one_class.csv"
    rows = ["y,x,z,v"] + [f"{i},{(i % 3) * 0.5},0,{i * 0.1}" for i in range(20)]
    csv_path.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(
        capsys, "fit", "--data", str(csv_path), "--y-col", "y", "--x-col", "x",
        "--z-cols", "z", "--cov-cols", "v", "--estimator", estimator,
        "--outcome-basis", "1", "c0", "--index-basis", "1", "c0")
    assert code == 3
    assert err.strip() == "estimation error: response must contain both classes"


PROBIT_INVERSE = ["--exposure-link", "probit", "--exposure-basis", "z0", "1", "c0^-1"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [
    ["g-est", "--outcome-basis", "1", "c0", "--iv-basis", "1", "c0^-1"],
    ["g-est", "--outcome-basis", "1", "c0^-1", "--iv-basis", "1", "c0"],
    ["br-gamma", "--index-basis", "1", "c0", "--outcome-basis", "1", "c0", "--iv-basis", "1", "c0^-1"],
    ["br-beta", "--index-basis", "1", "c0", "--outcome-basis", "1", "c0^-1", "--iv-basis", "1", "c0"],
    ["eem", "--index-basis", "1", "c0", "--outcome-basis", "1", "c0^-1", "--iv-basis", "1", "c0"],
    ["tsls", "--outcome-basis", "1", "c0^-1"],
    ["loc-eff-y", *PROBIT_INVERSE, "--outcome-basis", "1", "c0"],
    ["two-stage", *PROBIT_INVERSE, "--outcome-basis", "1", "c0"],
], ids=["g-est-iv", "g-est-outcome", "br-gamma", "br-beta", "eem", "tsls", "loc-eff-y",
        "two-stage"])
def test_fit_non_finite_basis_term_is_an_estimation_failure(tmp_path, capsys, flags):
    # c0^-1 is inf at the row where c0 = 0: exit 3 with one line that names
    # the term, and no traceback or numpy warning
    sim = simlab.gen_sim1(300, 3).dataset
    c = sim.c_raw.copy()
    c[5, 0] = 0.0
    csv_path = tmp_path / "zero.csv"
    write_csv(Dataset(sim.y, sim.x, sim.z, c), csv_path)
    code, out, err = run_cli(capsys, "fit", "--data", str(csv_path), "--y-col", "y", "--x-col",
                             "x", "--z-cols", "z", "--cov-cols", "v", "--estimator", *flags)
    assert (code, out) == (3, "")
    assert err == "estimation error: basis term 'c0^-1' is not finite at some row\n"


@pytest.mark.parametrize("estimator", ["loc-eff-y", "two-stage"])
@pytest.mark.parametrize("link", ["logit", "probit"])
def test_fit_binary_link_on_a_continuous_exposure_is_an_estimation_failure(tmp_path, capsys,
                                                                            estimator, link):
    # table1 has a continuous exposure, which no logit or probit model fits
    csv_path = tmp_path / "d.csv"
    run_cli(capsys, "simulate", "--generator", "table1", "--n", "100", "--seed", "3",
            "--out", str(csv_path))
    code, out, err = run_cli(
        capsys, "fit", "--data", str(csv_path), "--y-col", "y", "--x-col", "x",
        "--z-cols", "z", "--cov-cols", "v", "--estimator", estimator, "--exposure-link", link,
        "--exposure-basis", "1", "z0", "c0", "--outcome-basis", "1", "c0")
    assert (code, out) == (3, "")
    assert err == (f"estimation error: the {link} exposure model requires a binary 0/1 "
                   "exposure\n")


def test_fit_missing_column_exit_code(tmp_path, capsys):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("y,x,z\n1,2,0\n2,1,1\n")
    code, _, err = run_cli(
        capsys, "fit", "--data", str(csv_path), "--y-col", "y", "--x-col", "x",
        "--z-cols", "z", "--cov-cols", "w", "--estimator", "tsls",
        "--outcome-basis", "1")
    assert code == 2
    assert "'w'" in err


@pytest.mark.parametrize("contents, message", [
    (b"y,x,z,v\n1,2,0,1\n1,\xff,1,2\n", "data row 2 is not valid UTF-8"),
    (("y,x,z,v,note\n1,2,0,1,a\n1,2,1,2," + "a" * 140_000 + "\n").encode(),
     "data row 2: field larger than field limit (131072)"),
], ids=["invalid utf-8", "field over the csv limit"])
def test_fit_unreadable_csv_is_an_input_error(tmp_path, capsys, contents, message):
    csv_path = tmp_path / "d.csv"
    csv_path.write_bytes(contents)
    code, out, err = run_cli(capsys, "fit", "--data", str(csv_path), *TSLS_FLAGS)
    assert (code, out) == (2, "")
    assert err == f"error: {csv_path}: {message}\n"


def test_benchmark_smoke_schema(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    out_json = tmp_path / "bench.json"
    code, _, _ = run_cli(
        capsys, "benchmark", "--generator", "table1", "--lx", "0", "--ly", "0", "--lz", "0",
        "--reps", "3", "--n", "120", "--seed", "2", "--estimators", "tsls", "br_beta",
        "--out", str(out_csv), "--out-json", str(out_json))
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["schema_version"] == 1
    names = {row["estimator"] for row in payload["rows"]}
    assert names == {"tsls", "br_beta"}


def test_benchmark_full_grid_layout(tmp_path, capsys):
    out_json = tmp_path / "grid.json"
    code, _, _ = run_cli(
        capsys, "benchmark", "--table1-grid", "--reps", "2", "--n", "120",
        "--seed", "6", "--estimators", "tsls", "eem", "--out-json", str(out_json))
    assert code == 0
    rows = json.loads(out_json.read_text())["rows"]
    scenarios = {r["scenario"] for r in rows}
    assert len(scenarios) == 19          # every lambda-grid row of the design
    assert len(rows) == 19 * 2
    assert all(r["n"] == 120 and r["reps"] == 2 for r in rows)


@pytest.mark.parametrize("target, seed", [("table1", 555), ("fig1", 777), ("fig2", 20260809),
                                          ("fig3", 227)])
def test_replicate_below_audit_threshold_warns(tmp_path, capsys, target, seed):
    # without --seed every report row carries the target's pinned seed
    code, out, _ = run_cli(capsys, "replicate", target, "--reps", "2", "--out-dir", str(tmp_path))
    assert code == 0
    assert "below audit threshold" in out
    with open(tmp_path / f"{target}_report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(row["seed"] == str(seed) and row["reps"] == "2" for row in rows)


@pytest.mark.parametrize("reps", ["0", "1"])
def test_replicate_rejects_fewer_than_two_replications(capsys, reps):
    # --reps 0 is a request for no replicates, not for the default target of 1000
    code, out, err = run_cli(capsys, "replicate", "fig3", "--reps", reps)
    assert code == 2 and out == ""
    assert err == "error: at least 2 replications are required\n"


def test_replicate_gate_failure_exit_code(tmp_path, capsys):
    # a seed without the heavy-tail demonstration fails the blow-up gate
    code, out, _ = run_cli(capsys, "replicate", "fig3", "--reps", "300", "--seed", "1")
    assert code == 4
    assert "FAIL" in out


def test_replicate_thread_count_invariance(tmp_path, capsys):
    d1, d2 = tmp_path / "t1", tmp_path / "t2"
    # two runs of the same command write the same bytes
    code1, _, _ = run_cli(capsys, "replicate", "table1", "--reps", "20", "--out-dir", str(d1))
    code2, _, _ = run_cli(capsys, "replicate", "table1", "--reps", "20", "--out-dir", str(d2))
    assert code1 == code2 == 0
    assert (d1 / "table1_report.csv").read_bytes() == (d2 / "table1_report.csv").read_bytes()
    assert (d1 / "table1_report.json").read_bytes() == (d2 / "table1_report.json").read_bytes()


def test_fit_json_strict_with_non_finite_values(tmp_path, capsys, monkeypatch):
    import lineariv.cli as cli

    real_tsls = cli.standard_tsls

    def tsls_with_nan(*args, **kwargs):
        res = real_tsls(*args, **kwargs)
        res.se = np.array([np.nan])
        res.ci = (np.array([-np.inf]), np.array([np.inf]))
        res.diagnostics["probe"] = {"nan": float("nan"), "inf": np.float64(np.inf),
                                    "list": [1.0, float("-inf"), object()],
                                    "none": None, "opaque": object()}
        return res

    monkeypatch.setattr(cli, "standard_tsls", tsls_with_nan)
    csv_path = tmp_path / "d.csv"
    run_cli(capsys, "simulate", "--generator", "table1", "--n", "200", "--seed", "3",
            "--out", str(csv_path))
    out_path = tmp_path / "fit.json"
    code, out, _ = run_cli(
        capsys, "fit", "--data", str(csv_path), "--y-col", "y", "--x-col", "x",
        "--z-cols", "z", "--cov-cols", "v", "--estimator", "tsls",
        "--outcome-basis", "1", "c0", "--instrument-basis", "z0", "z0:c0",
        "--out", str(out_path))
    assert code == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    payload = json.loads(out, parse_constant=reject)
    assert json.loads(out_path.read_text(), parse_constant=reject) == payload
    assert payload["se"] == [None]
    assert payload["ci"] == {"lower": [None], "upper": [None]}
    # non-finite values keep their key as null; values with no JSON form are
    # dropped from dicts and null inside lists
    assert payload["diagnostics"]["probe"] == {"nan": None, "inf": None,
                                               "list": [1.0, None, None]}

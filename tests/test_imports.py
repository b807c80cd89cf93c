"""Import hygiene: fitting logit and linear models never loads scipy.special;
the functions that need it load it on first use and return its values."""

import textwrap

import pytest

from lineariv.dataset import write_csv
from lineariv.simlab import gen_table1
from test_heap import run_python

PRELUDE = """
    import sys
    import numpy as np
    import lineariv
    from lineariv import BasisSpec, ColumnMap, EffectModel, load_csv, standard_tsls
    from lineariv.adaptive import br_gamma_estimate, eem_estimate
    from lineariv.inference import bootstrap_ci
    from lineariv.models import BinaryLogisticIv

    def special_loaded():
        return "scipy.special" in sys.modules

    data = load_csv("table1.csv", ColumnMap("y", "x", ["z"], ["v"]))
    lin = BasisSpec(["1", "c0"])
    assert not special_loaded()
"""


@pytest.fixture
def table1_csv(tmp_path):
    write_csv(gen_table1(1, 1, -1, 400, 7).dataset, tmp_path / "table1.csv")
    return tmp_path


def test_logit_and_linear_fits_leave_scipy_special_unloaded(table1_csv):
    out = run_python(PRELUDE + """
    standard_tsls(data, EffectModel.constant(), lin, BasisSpec(["z0"]))
    eem_estimate(data, BinaryLogisticIv.fit(data, lin), lin, lin)
    res = bootstrap_ci(data, lambda ds: br_gamma_estimate(ds, lin, lin, lin).psi_hat,
                       resamples=100, seed=3)
    assert res.failed_resamples == 0
    print(special_loaded())
    """, cwd=table1_csv)
    assert out.split() == ["False"]


# name: (the call, its check against scipy.special called directly)
CASES = {
    "normal_cdf": ("""
        from lineariv import normal_cdf
        u = np.linspace(-40.0, 9.0, 1001)
        got = normal_cdf(u)
    """, """
        assert np.array_equal(got, scipy.special.ndtr(u))
    """),
    "probit fit_binary": ("""
        from lineariv import build_design, fit_binary
        design = build_design(data, BasisSpec(["z0", "1", "c0"]))
        fit = fit_binary(design, (data.c_raw[:, 0] + data.z[:, 0] > 0.5).astype(float),
                         link="probit")
    """, """
        assert fit.converged
        want = np.clip(scipy.special.ndtr(design @ fit.coefficients), 5e-324, 1.0 - 1e-16)
        assert np.array_equal(fit.predict(design), want)
    """),
    "draw_normal": ("""
        from lineariv.rng import draw_normal, make_generator
        got = draw_normal(make_generator([4, 2]), 5000)
    """, """
        u = np.maximum(make_generator([4, 2]).random(5000), 5e-324)
        assert np.array_equal(got, scipy.special.ndtri(u))
    """),
    "cli fit": ("""
        import contextlib, io, json
        from lineariv.cli import main
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["fit", "--data", "table1.csv", "--y-col", "y", "--x-col", "x",
                         "--z-cols", "z", "--cov-cols", "v", "--estimator", "br-gamma",
                         "--index-basis", "1", "c0", "--outcome-basis", "1", "c0",
                         "--iv-basis", "1", "c0", "--inference", "conservative"])
    """, """
        assert code == 0
        fit = json.loads(out.getvalue())
        zq = float(scipy.special.ndtri(0.975))
        (psi,), (se,) = fit["psi_hat"], fit["se"]
        assert fit["ci"] == {"lower": [psi - zq * se], "upper": [psi + zq * se]}
    """),
}


@pytest.mark.parametrize("case", list(CASES))
def test_special_functions_load_scipy_special_and_return_its_values(table1_csv, case):
    call, check = (textwrap.dedent(code) for code in CASES[case])
    out = run_python(textwrap.dedent(PRELUDE) + call + """
loaded = special_loaded()
import scipy.special
""" + check + "print(loaded)\n", cwd=table1_csv)
    assert out.split() == ["True"]

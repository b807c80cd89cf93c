"""Bit-identity guard: pinned outputs of the Table 1 bundle and of IRLS.

The values are ``float.hex`` strings recorded from the implementation before
the nuisance fits were shared and the IRLS line search stopped recomputing the
accepted step.  Any later speed-up must reproduce them to the last bit; a
change that is meant to move them must say so and re-pin them.
"""

from lineariv.dataset import BasisSpec, build_design
from lineariv.glm import fit_binary
from lineariv.simlab import ScenarioConfig, gen_sim1, gen_table1, generate
from lineariv.suites import table1_estimators

# table1_estimators() on replicates 0..9 of table1 lambda=(1,1,-1), n=500, seed 555
BUNDLE_HEX = {
    "tsls": [
        "-0x1.1ad38dcc8d2d9p-3",
        "0x1.0d18e94c9cb36p-3",
        "-0x1.2d5a3bce25623p+1",
        "0x1.c727d399a8230p-4",
        "0x1.d57df00c90006p-4",
        "0x1.679f6effa5d73p-4",
        "-0x1.ad307db4e3fa0p-1",
        "-0x1.b2451c2c35a06p-2",
        "-0x1.079093b4a20acp+0",
        "0x1.7ceb8f610aefep+0",
    ],
    "loc_eff": [
        "-0x1.3d0ca5aae1732p+2",
        "0x1.545e7e17743c4p-1",
        "0x1.c6967d3ffb06bp-1",
        "0x1.091601358912ep+0",
        "0x1.79d8758fc2bb3p-1",
        "-0x1.7d1cfc14ff574p+0",
        "0x1.ef29e8fe200a3p-2",
        "0x1.352a772d33e21p+0",
        "0x1.b73ae9541c63cp-3",
        "0x1.0aa933d4d3384p+1",
    ],
    "eem": [
        "0x1.64d9f0be70c6bp-4",
        "0x1.f9a346d0f4e43p-2",
        "-0x1.4703716661309p-2",
        "0x1.55240136aaed6p-1",
        "0x1.1f97c94d6fad5p-1",
        "0x1.8d686dfd1682ap-3",
        "-0x1.ddaa296e73756p-2",
        "0x1.40e7bac4525f8p-2",
        "-0x1.73bc7742647f6p-1",
        "0x1.160dbf9ebef69p+0",
    ],
    "br_gamma": [
        "0x1.0afb6c53f4f71p+0",
        "0x1.bad3573c6ff90p-1",
        "0x1.e0f84a1f08ee0p-1",
        "0x1.15d85bfecdfefp+0",
        "0x1.f4341e96261fap-1",
        "0x1.718b880b1cc76p-1",
        "0x1.40213892e53ccp-1",
        "0x1.2354e25362a60p+0",
        "0x1.59e99e286bcddp-1",
        "0x1.0428109b2270bp+0",
    ],
    "br_beta": [
        "0x1.1e64342215875p+0",
        "0x1.b65d3fcfab8dcp-1",
        "0x1.bf41e6f204c6ap-1",
        "0x1.1526b26fdc8adp+0",
        "0x1.de12b8db159d3p-1",
        "0x1.a75d17c9db23ap-1",
        "0x1.77610ef31cc3dp-1",
        "0x1.0cc59af11075ep+0",
        "0x1.a5ec2a90ef02cp-1",
        "0x1.0b0d6528bcbd0p+0",
    ],
}

# logistic fit of z on (1, c0, c0^2), table1 lambda=(1,1,-1), n=400, seed [31, 4]
LOGIT_HEX = {
    "coefficients": [
        "-0x1.0370e208b57e1p+0",
        "0x1.a598f7648e4afp-2",
        "-0x1.c9760d866c908p-3",
    ],
    "iterations": 5,
    "loglik_trace": [
        "-0x1.b68b7aeebb388p+7",
        "-0x1.ab82c4490975cp+7",
        "-0x1.aac273abc7886p+7",
        "-0x1.aac035d18947cp+7",
        "-0x1.aac035b99a0f7p+7",
        "-0x1.aac035b99a0f6p+7",
    ],
}

# probit fit of x on (z0, 1, c0), sim1, n=400, seed [31, 5]
PROBIT_HEX = {
    "coefficients": [
        "0x1.be26200c8eba0p-1",
        "-0x1.9c47150b46b43p-4",
        "0x1.960ee76d058c5p-1",
    ],
    "iterations": 8,
    "loglik_trace": [
        "-0x1.13416a1e433d6p+8",
        "-0x1.a99d05f690060p+7",
        "-0x1.a48ea0f8b7c12p+7",
        "-0x1.a4792998eac67p+7",
        "-0x1.a4792449ad693p+7",
        "-0x1.a479244923526p+7",
        "-0x1.a47924492343dp+7",
        "-0x1.a47924492343dp+7",
        "-0x1.a47924492343dp+7",
    ],
}


def _hex(values):
    return [float(v).hex() for v in values]


def test_table1_bundle_bit_identical():
    cfg = ScenarioConfig("table1", n=500, seed=555, reps=10, lam=(1, 1, -1))
    bundle = table1_estimators()
    got = {name: [] for name in bundle}
    for i in range(10):
        data = generate(cfg, i).dataset
        for name, estimator in bundle.items():
            got[name].extend(_hex(estimator(data)))
    assert got == BUNDLE_HEX


def _fit_hex(fit):
    return {"coefficients": _hex(fit.coefficients), "iterations": fit.iterations,
            "loglik_trace": _hex(fit.loglik_trace)}


def test_fit_binary_logit_bit_identical():
    data = gen_table1(1, 1, -1, 400, [31, 4]).dataset
    fit = fit_binary(build_design(data, BasisSpec(["1", "c0", "c0^2"])), data.z[:, 0],
                     link="logit")
    assert _fit_hex(fit) == LOGIT_HEX


def test_fit_binary_probit_bit_identical():
    data = gen_sim1(400, [31, 5]).dataset
    fit = fit_binary(build_design(data, BasisSpec(["z0", "1", "c0"])), data.x, link="probit")
    assert _fit_hex(fit) == PROBIT_HEX

"""Bit-identity guard: pinned outputs of the estimator bundles, the full
results of the per-dataset estimators, IRLS and a br-gamma bootstrap
interval.

The values are ``float.hex`` strings.  The Table 1 and IRLS pins were
recorded before the nuisance fits were shared and the IRLS line search
stopped recomputing the accepted step; the binary-exposure and
effect-modification pins were recorded before the linear estimators were
collapsed onto one estimating-equation core; the bootstrap pins were
recorded before the resamples were fitted in linked chunks.  Any later speed-up or
refactor must reproduce them to the last bit; a change that is meant to move
them must say so and re-pin them.

Re-pinned once, when the IRLS arithmetic changed: the logit mean became
numpy's 1/(1+exp(-eta)) instead of scipy's expit, the log-likelihood one log
a row instead of log and log1p, and X'WX (X'W) X from a transposed copy of
the design instead of X'(WX).  That moved the last bits of the Table 1
bundle, the binary-exposure bundle, both IRLS fits and the bootstrap
intervals, by at most 3.3e-14 relative; iteration counts did not change.
The effect-modification pins, which fit no binary model, did not move.

Re-pinned a second time, when the probabilities of every fitted or known
logistic instrument law (``BinaryLogisticIv.prob``, the bias-reduced pair's
plain fit, the Table 1 bundle's known law) became the IRLS logit mean instead
of scipy's expit, up to 2 ulp apart.  That moved the last bits of the Table 1
bundle's loc_eff, eem, br_gamma and br_beta, of the binary-exposure bundle's
three doubly robust estimators and of one bootstrap bound, by at most 4.0e-15
relative.  TSLS, both IRLS fits and the effect-modification pins did not
move.

Re-pinned a third time, when the bias-reduced pair's scalar estimating
equation sum d(y - psi x) = 0 came to be solved and checked by the core
solve (``estimators._solve_ee``) instead of a ratio of pairwise sums: its
denominator is now the BLAS product d'x and the quotient an LU solve.  That
moved the last bits of the Table 1 bundle's br_gamma (at most 3.6e-16
relative) and br_beta (6.1e-16), and the lower bound of the bootstrap
interval with outcome basis 1 c0 c0^2 (1.3e-16).  TSLS, loc_eff, eem, IRLS
and the binary-exposure and effect-modification pins did not move.

Re-pinned a fourth time, when br-gamma's second extended fit came to start
at the first one's linear predictor, projected onto its design by least
squares, instead of the default start (``adaptive._refit_start``).  Both
fits end within the IRLS tolerance of the same maximum, so the estimates
moved in their last bits: the Table 1 bundle's br_gamma by at most 1.5e-15
relative and br_beta by 6.0e-16; the bootstrap interval with outcome basis
1 c0 by 1.3e-16 (lower), 5.6e-16 (upper) and 1.1e-11 (se), and the one
with 1 c0 c0^2 by 5.2e-14, 1.2e-11 and 1.7e-11.  No failure count moved,
and TSLS, loc_eff, eem, IRLS and the binary-exposure and
effect-modification pins did not move.

Re-pinned a fifth time, when the Table 1 bundle came to read its linear
exposure fit from the TSLS first stage, which regresses the exposure on the
same columns, and ``suites.EXPOSURE_SATURATED`` came to list them in the
first stage's order (z0, z0:c0, 1, c0) instead of (1, z0, c0, z0:c0).  The
SVD of the permuted design moved the last bits of the Table 1 bundle's
loc_eff, by at most 2.1e-14 relative.  TSLS, eem, br_gamma, br_beta, IRLS,
the bootstrap intervals and the binary-exposure and effect-modification
pins did not move.
"""

import pytest

from lineariv import estimators, models
from lineariv.adaptive import br_gamma_estimate, eem_estimate
from lineariv.dataset import BasisSpec, build_design
from lineariv.glm import fit_binary
from lineariv.inference import bootstrap_ci
from lineariv.simlab import ScenarioConfig, gen_sim1, gen_table1, generate
from lineariv.suites import effectmod_estimators, sim_binary_estimators, table1_estimators

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
        "-0x1.3d0ca5aae16b7p+2",
        "0x1.545e7e17743c7p-1",
        "0x1.c6967d3ffb07bp-1",
        "0x1.091601358912fp+0",
        "0x1.79d8758fc2bc7p-1",
        "-0x1.7d1cfc14ff53bp+0",
        "0x1.ef29e8fe20094p-2",
        "0x1.352a772d33e27p+0",
        "0x1.b73ae9541c66ep-3",
        "0x1.0aa933d4d337dp+1",
    ],
    "eem": [
        "0x1.64d9f0be70cb5p-4",
        "0x1.f9a346d0f4e43p-2",
        "-0x1.4703716661304p-2",
        "0x1.55240136aaed6p-1",
        "0x1.1f97c94d6fad5p-1",
        "0x1.8d686dfd1682ap-3",
        "-0x1.ddaa296e7375ap-2",
        "0x1.40e7bac4525f5p-2",
        "-0x1.73bc7742647f6p-1",
        "0x1.160dbf9ebef69p+0",
    ],
    "br_gamma": [
        "0x1.0afb6c53f4f6ep+0",
        "0x1.bad3573c6ff90p-1",
        "0x1.e0f84a1f08edep-1",
        "0x1.15d85bfecdff0p+0",
        "0x1.f4341e96261f6p-1",
        "0x1.718b880b1cc6ep-1",
        "0x1.40213892e53cap-1",
        "0x1.2354e25362a61p+0",
        "0x1.59e99e286bcd2p-1",
        "0x1.0428109b2270ap+0",
    ],
    "br_beta": [
        "0x1.1e6434221586cp+0",
        "0x1.b65d3fcfab8e7p-1",
        "0x1.bf41e6f204c68p-1",
        "0x1.1526b26fdc8b6p+0",
        "0x1.de12b8db159d1p-1",
        "0x1.a75d17c9db237p-1",
        "0x1.77610ef31cc42p-1",
        "0x1.0cc59af11074dp+0",
        "0x1.a5ec2a90ef029p-1",
        "0x1.0b0d6528bcbccp+0",
    ],
}

# sim_binary_estimators() on replicates 0..4 of sim1, n=500, seed 777
SIM1_HEX = {
    "tsls": [
        "-0x1.03d4f07802a02p-1",
        "-0x1.b076a3ddb8424p-3",
        "-0x1.9d3bbe8a86ce5p-2",
        "0x1.ae59b25031cf3p-1",
        "0x1.cb05b707bf3d8p+0",
    ],
    "ts": [
        "-0x1.616ba4441a281p+1",
        "-0x1.04322a01396fep+1",
        "-0x1.6ca59e648bda8p+0",
        "-0x1.625b22b9cd03cp-1",
        "0x1.1ee42c6956c12p-3",
    ],
    "le_y_c": [
        "-0x1.3bf8021910143p-1",
        "-0x1.03592615ff2d8p-1",
        "0x1.ea534afa1140bp-2",
        "0x1.ee4c9d32ef571p-1",
        "0x1.b1c1b0a3ae88ap+0",
    ],
    "le_y_m": [
        "-0x1.8e0a23b0538e4p+1",
        "-0x1.ef223ecede594p+0",
        "-0x1.8709d4bf2076ap+0",
        "-0x1.56c76f45e726bp-1",
        "0x1.368a8039bde8bp-3",
    ],
    "dr_cc": [
        "-0x1.b4e21f7c744afp-2",
        "-0x1.a8cf60d04619fp-2",
        "0x1.bac34128e5893p-2",
        "0x1.11d776b1217c5p-1",
        "0x1.b0edd960a3e21p+0",
    ],
    "dr_cm": [
        "-0x1.800670490c1bfp-3",
        "-0x1.d6e9af24908ffp-3",
        "0x1.2f7f4f11585b6p-2",
        "0x1.7afc5fe127c80p-2",
        "0x1.1cffd0c37d3f4p+1",
    ],
    "dr_mm": [
        "-0x1.0a605eff4b9acp-1",
        "-0x1.b09d5ee1892d3p-3",
        "-0x1.d85752eeb6e4bp-2",
        "0x1.a166585074ecdp-1",
        "0x1.cb0591aeda1c4p+0",
    ],
}

# effectmod_estimators() on replicates 0..4 of effectmod, n=500, seed 20260809;
# two components per replicate
EFFECTMOD_HEX = {
    "tsls_c": [
        "0x1.5dea891a38e93p-1",
        "0x1.0714da74310fbp+0",
        "0x1.938a868637808p-2",
        "0x1.c4ddda0db7d09p-1",
        "0x1.1e04ff4c18873p-1",
        "0x1.06dfb0fa0ff34p+0",
        "0x1.1c4384ded6019p-1",
        "0x1.1bbf445546b20p+0",
        "0x1.1bea02bd7b07ep-1",
        "0x1.2b97665b9b6f8p+0",
    ],
    "tsls_m": [
        "0x1.99d2102b6de48p-1",
        "0x1.6140bcc0d9e6ap+0",
        "0x1.0d7b5d7bf010fp-1",
        "0x1.1147ab037698fp+0",
        "0x1.da0074a6f11acp-2",
        "0x1.9e946bad221cfp-1",
        "0x1.20937fc92fcf8p-1",
        "0x1.03a41c2ffd546p+0",
        "0x1.5594159ca8c1dp-1",
        "0x1.4b74523cb9a11p+0",
    ],
    "ts_c": [
        "0x1.68a0b6695886ap-3",
        "0x1.82e2ee6ee4f34p-3",
        "0x1.813e48728f995p-4",
        "0x1.86dd1c964f241p-1",
        "0x1.3141d77541e7ap-3",
        "0x1.10b46eb7358d6p+0",
        "-0x1.47839a072f108p-6",
        "0x1.f551430114b93p-1",
        "-0x1.faf069411821fp-5",
        "0x1.9d5d6610bf76dp-1",
    ],
    "ts_m": [
        "0x1.cb053d7eeceeep-4",
        "0x1.b60f497a9867ap+0",
        "0x1.1338c55130e75p-3",
        "0x1.9f75ef74762a7p+0",
        "0x1.05769133348c1p-2",
        "0x1.dd5ac460d02d6p+0",
        "0x1.eb084dc391575p-5",
        "0x1.8e4107836db46p+0",
        "0x1.aad3159ef6e84p-5",
        "0x1.0a205d89843d4p+1",
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
        "-0x1.ab82c4490975bp+7",
        "-0x1.aac273abc7885p+7",
        "-0x1.aac035d18947dp+7",
        "-0x1.aac035b99a0f7p+7",
        "-0x1.aac035b99a0f6p+7",
    ],
}

# probit fit of x on (z0, 1, c0), sim1, n=400, seed [31, 5]
PROBIT_HEX = {
    "coefficients": [
        "0x1.be26200c8eba1p-1",
        "-0x1.9c47150b46b44p-4",
        "0x1.960ee76d058c5p-1",
    ],
    "iterations": 8,
    "loglik_trace": [
        "-0x1.13416a1e433d6p+8",
        "-0x1.a99d05f690060p+7",
        "-0x1.a48ea0f8b7c12p+7",
        "-0x1.a4792998eac66p+7",
        "-0x1.a4792449ad693p+7",
        "-0x1.a479244923526p+7",
        "-0x1.a47924492343ep+7",
        "-0x1.a47924492343dp+7",
        "-0x1.a47924492343cp+7",
    ],
}


# bootstrap_ci of br_gamma_estimate (index and iv bases 1 c0, outcome basis 1 c0
# or 1 c0 c0^2), 1000 resamples, seed 8, on table1 lambda=(1,1,-1), n=500,
# seed 31: [ci_lower, ci_upper, se] and failed_resamples; recorded before
# the resamples were fitted in linked chunks
BOOTSTRAP_HEX = {
    "1 c0": (["0x1.b30fb7456abd7p-1", "0x1.fe2c532dc1f94p+0", "0x1.34425f2c9881bp-2"], 0),
    "1 c0 c0^2": (["0x1.ad2d8891bf8fcp-1", "0x1.ed9a3f1ca7748p+0", "0x1.269effde979d6p-2"], 0),
}

# the full results of the per-dataset estimators (_result_hex) on gen_sim1(500, 3)
# with a probit exposure model and gen_table1(0, 0, 0, 500, 3) with an identity
# one (_per_dataset_results); recorded before every estimator returned through
# one solved-equation value (estimators._Ee)
RESULT_HEX = {('sim1', 'standard_tsls'): {'psi_hat': ['0x1.5f1501a48af36p+0'],
                                          'beta_hat': ['-0x1.efadf289c1bc7p-2',
                                                       '-0x1.26e20ba5e42e5p+1',
                                                       '0x1.050bf3fa52348p+0'],
                                          'se': ['0x1.7c0dbb883657ap-1'],
                                          'ci': [['-0x1.55d1974e66a80p-4'], ['0x1.69c38e5efe28ap+1']],
                                          'condition': '0x1.9c4bd8c285f5fp+4',
                                          'ee_residual_norm': '0x1.40644f0598cd0p-48',
                                          'beta_se': ['0x1.b8a273a68a3f1p-2',
                                                      '0x1.85c008586eec3p-3',
                                                      '0x1.3c1c626cda6a4p-5']},
              ('sim1', 'plug_in_two_stage'): {'psi_hat': ['0x1.8de7974cb1c69p-1'],
                                              'beta_hat': ['-0x1.26b840c17cb4ep-3',
                                                           '-0x1.156e423978ab5p+1',
                                                           '0x1.04953e5b6c5dfp+0'],
                                              'se': ['0x1.1a768aee21874p-1'],
                                              'ci': [['-0x1.376cefce91912p-2'], ['0x1.dbc2d340562aep+0']],
                                              'condition': '0x1.6cd971c6663c3p+4',
                                              'ee_residual_norm': '0x1.46cc367c79cadp-48',
                                              'beta_se': ['0x1.490d70a78feaep-2',
                                                          '0x1.24351f0e5b92ap-3',
                                                          '0x1.281901b863521p-5']},
              ('sim1', 'locally_efficient_y'): {'psi_hat': ['0x1.bae105cd6c6f3p-1'],
                                                'beta_hat': ['-0x1.89f47e78a3d23p-3',
                                                             '-0x1.17c9f59e8b804p+1',
                                                             '0x1.044855481882ap+0'],
                                                'se': ['0x1.5ae18c05926f1p-1'],
                                                'ci': [['-0x1.d9fd9f4eb39cep-2'], ['0x1.18b036d08cab3p+1']],
                                                'condition': '0x1.20e0eefc2fb92p+9',
                                                'ee_residual_norm': '0x1.56ddbff1e83a4p-50',
                                                'beta_se': ['0x1.90dc191fcdab5p-2',
                                                            '0x1.5c383e3013149p-3',
                                                            '0x1.314cd7f0aa825p-5']},
              ('sim1', 'g_estimate fixed'): {'psi_hat': ['0x1.5f0ae2d54ac74p+0'],
                                             'beta_hat': ['-0x1.efadf289c1bd4p-2',
                                                          '-0x1.26e20ba5e42e5p+1',
                                                          '0x1.050bf3fa52344p+0'],
                                             'se': ['0x1.7c0364a68b057p-1'],
                                             'ci': [['-0x1.55d165eb78b00p-4'], ['0x1.69b96e04a68ccp+1']],
                                             'condition': '0x1.0000000000000p+0',
                                             'ee_residual_norm': '0x0.0p+0',
                                             'beta_se': 'absent'},
              ('sim1', 'g_estimate profiled'): {'psi_hat': ['0x1.4dbadca378aa9p+0'],
                                                'beta_hat': ['-0x1.c7b30ed65c366p-2',
                                                             '-0x1.24dcda75d7a13p+1',
                                                             '0x1.04f1c52619004p+0'],
                                                'se': ['0x1.8ac8304d9fb0dp-1'],
                                                'ci': [['-0x1.a931c8eb26320p-3'], ['0x1.684df9322b0dbp+1']],
                                                'condition': '0x1.0b042130e6f5dp+9',
                                                'ee_residual_norm': '0x1.cb05cfc8a3bebp-50',
                                                'beta_se': ['0x1.c8bd952867ae6p-2',
                                                            '0x1.8e67e2a93f02ep-3',
                                                            '0x1.3c746be9b9859p-5']},
              ('sim1', 'g_estimate none'): {'psi_hat': ['0x1.4435baa1bae23p+0'],
                                            'beta_hat': [],
                                            'se': ['0x1.bb9464ba3e1c5p+0'],
                                            'ci': [['-0x1.10985b2f3bce4p+1'], ['0x1.2a670ae87b583p+2']],
                                            'condition': '0x1.0000000000000p+0',
                                            'ee_residual_norm': '0x1.d4874d293d4adp-56',
                                            'beta_se': 'absent'},
              ('sim1', 'eem_estimate'): {'psi_hat': ['0x1.4b92f3fa209ccp+0'],
                                         'beta_hat': ['-0x1.c9081d3be460ep-2',
                                                      '-0x1.24894ae9715aep+1',
                                                      '0x1.fadd5bfd4f134p-1'],
                                         'se': ['0x1.76cbcfaf0bc90p-1'],
                                         'ci': [['-0x1.1dc164c3e6d68p-3'], ['0x1.5d6f0a465f0a2p+1']],
                                         'condition': '0x1.0000000000000p+0',
                                         'ee_residual_norm': '0x1.d1d7f03146de1p-55',
                                         'beta_se': 'absent'},
              ('table1', 'standard_tsls'): {'psi_hat': ['0x1.57d0b675c13cdp+0'],
                                            'beta_hat': ['-0x1.3967eebdf3ff8p-4',
                                                         '-0x1.629d969934831p+0',
                                                         '0x1.ee7403ab38e8ep-5'],
                                            'se': ['0x1.1c13f04d73183p-2'],
                                            'ci': [['0x1.993d4670758f7p-1'], ['0x1.e302c9b347b1ep+0']],
                                            'condition': '0x1.2ea3515828334p+3',
                                            'ee_residual_norm': '0x1.6bedd0e9ec098p-51',
                                            'beta_se': ['0x1.c317be2636a60p-4',
                                                        '0x1.f5bdfbefc0a7cp-3',
                                                        '0x1.d1a374aef96e4p-5']},
              ('table1', 'plug_in_two_stage'): {'psi_hat': ['0x1.6271f7c2ef969p+0'],
                                                'beta_hat': ['0x1.ef32107bbf2f7p-4',
                                                             '-0x1.746a6afacb580p+0',
                                                             '-0x1.072c269cd7b93p-3'],
                                                'se': ['0x1.efe9d6d06e7a7p-3'],
                                                'ci': [['0x1.d1e5b2923d074p-1'], ['0x1.dbf1163cc0a98p+0']],
                                                'condition': '0x1.329a4612a2967p+3',
                                                'ee_residual_norm': '0x1.17d7a6cdcb431p-51',
                                                'beta_se': ['0x1.5008c17370c6dp-4',
                                                            '0x1.cbe6effe0d33bp-3',
                                                            '0x1.31fff6e76beb9p-5']},
              ('table1', 'locally_efficient_y'): {'psi_hat': ['0x1.57d0b675c13a3p+0'],
                                                  'beta_hat': ['-0x1.3967eebdf3f3fp-4',
                                                               '-0x1.629d969934810p+0',
                                                               '0x1.ee7403ab38df5p-5'],
                                                  'se': ['0x1.1c13f04d73117p-2'],
                                                  'ci': [['0x1.993d46707590dp-1'], ['0x1.e302c9b347ac0p+0']],
                                                  'condition': '0x1.69dde1ac983c1p+6',
                                                  'ee_residual_norm': '0x1.b5eda11f8a2ccp-51',
                                                  'beta_se': ['0x1.c317be2636a04p-4',
                                                              '0x1.f5bdfbefc09c8p-3',
                                                              '0x1.d1a374aef9684p-5']},
              ('table1', 'g_estimate fixed'): {'psi_hat': ['0x1.5811bab92cd16p+0'],
                                               'beta_hat': ['-0x1.3967eebdf4022p-4',
                                                            '-0x1.629d969934839p+0',
                                                            '0x1.ee7403ab38edep-5'],
                                               'se': ['0x1.1e137045fc379p-2'],
                                               'ci': [['0x1.97ca0c3b8b307p-1'], ['0x1.e43e6f54940a8p+0']],
                                               'condition': '0x1.0000000000000p+0',
                                               'ee_residual_norm': '0x1.eb35579196237p-56',
                                               'beta_se': 'absent'},
              ('table1', 'g_estimate profiled'): {'psi_hat': ['0x1.5811597784a6dp+0'],
                                                  'beta_hat': ['-0x1.3a84871bb79fcp-4',
                                                               '-0x1.62d32b7d7b896p+0',
                                                               '0x1.ef880f82d85d6p-5'],
                                                  'se': ['0x1.1c9573d40ba14p-2'],
                                                  'ci': [['0x1.993fa0a2873adp-1'], ['0x1.e382e29dc5b04p+0']],
                                                  'condition': '0x1.0d0979299af4cp+6',
                                                  'ee_residual_norm': '0x1.80011d4fd528fp-53',
                                                  'beta_se': ['0x1.c3a13c056918cp-4',
                                                              '0x1.f691c6da9773ap-3',
                                                              '0x1.d241ecefb458bp-5']},
              ('table1', 'g_estimate none'): {'psi_hat': ['0x1.58bfef53c2e34p+0'],
                                              'beta_hat': [],
                                              'se': ['0x1.5dade5b6905dep-2'],
                                              'ci': [['0x1.5ad1f14049962p-1'], ['0x1.020b7303b07dcp+1']],
                                              'condition': '0x1.0000000000000p+0',
                                              'ee_residual_norm': '0x1.8590f34abb18cp-55',
                                              'beta_se': 'absent'},
              ('table1', 'eem_estimate'): {'psi_hat': ['0x1.0b78289f8478ep+0'],
                                           'beta_hat': ['-0x1.327df4c6d02d6p-4',
                                                        '-0x1.3fb2cb47b4efcp+0',
                                                        '0x1.5c107ab649e02p-7'],
                                           'se': ['0x1.1ddc305f5e927p-3'],
                                           'ci': [['0x1.8adeaf05f3b14p-1'], ['0x1.5180f9bc0f192p+0']],
                                           'condition': '0x1.0000000000000p+0',
                                           'ee_residual_norm': '0x1.46ff7b1d01d73p-55',
                                           'beta_se': 'absent'}}


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


def _bundle_hex(cfg, bundle):
    got = {name: [] for name in bundle}
    for i in range(cfg.reps):
        data = generate(cfg, i).dataset
        for name, estimator in bundle.items():
            got[name].extend(_hex(estimator(data)))
    return got


def test_sim_binary_bundle_bit_identical():
    cfg = ScenarioConfig("sim1", n=500, seed=777, reps=5)
    assert _bundle_hex(cfg, sim_binary_estimators()) == SIM1_HEX


def test_effectmod_bundle_bit_identical():
    cfg = ScenarioConfig("effectmod", n=500, seed=20260809, reps=5)
    assert _bundle_hex(cfg, effectmod_estimators()) == EFFECTMOD_HEX


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


def test_br_gamma_bootstrap_bit_identical():
    lin = BasisSpec(["1", "c0"])
    data = gen_table1(1, 1, -1, 500, 31).dataset
    got = {}
    for terms in BOOTSTRAP_HEX:
        outcome = BasisSpec(terms.split())
        res = bootstrap_ci(data, lambda ds: br_gamma_estimate(ds, lin, outcome, lin).psi_hat,
                           resamples=1000, seed=8)
        got[terms] = (_hex([res.ci_lower[0], res.ci_upper[0], res.se[0]]), res.failed_resamples)
    assert got == BOOTSTRAP_HEX


def _result_hex(res):
    diagnostics = res.diagnostics
    return {"psi_hat": _hex(res.psi_hat), "beta_hat": _hex(res.beta_hat), "se": _hex(res.se),
            "ci": [_hex(bound) for bound in res.ci],
            "condition": float(diagnostics["condition"]).hex(),
            "ee_residual_norm": float(diagnostics["ee_residual_norm"]).hex(),
            "beta_se": _hex(diagnostics["beta_se"]) if "beta_se" in diagnostics else "absent"}


def _per_dataset_results(data, link):
    """Every per-dataset estimator of the lattice, g_estimate with a fixed, a
    profiled and no outcome model."""
    quad, lin = BasisSpec(["1", "c0", "c0^2"]), BasisSpec(["1", "c0"])
    effect = models.EffectModel.constant()
    exposure = models.ExposureModel(link, BasisSpec(["z0", "1", "c0"]))
    instruments = BasisSpec(["z0"])
    iv = models.BinaryLogisticIv.fit(data, lin)
    psi0 = estimators.standard_tsls(data, effect, quad, instruments).psi_hat
    fixed = models.OutcomeModel(quad, estimators.outcome_coef_at(data, effect, quad, psi0))
    index = estimators.efficient_index(data, exposure.fit(data), iv, effect)
    return {
        "standard_tsls": estimators.standard_tsls(data, effect, quad, instruments),
        "plug_in_two_stage": estimators.plug_in_two_stage(data, exposure, effect, quad),
        "locally_efficient_y": estimators.locally_efficient_y(data, exposure.fit(data), effect,
                                                              quad),
        "g_estimate fixed": estimators.g_estimate(data, models.RawInstruments(), fixed, iv,
                                                  effect),
        "g_estimate profiled": estimators.g_estimate(data, index, models.OutcomeModel(quad), iv,
                                                     effect),
        "g_estimate none": estimators.g_estimate(data, models.RawInstruments(), None, iv, effect),
        "eem_estimate": eem_estimate(data, iv, lin, quad),
    }


@pytest.mark.parametrize("family", ["sim1", "table1"])
def test_per_dataset_results_bit_identical(family):
    if family == "sim1":
        data, link = gen_sim1(500, 3).dataset, "probit"
    else:
        data, link = gen_table1(0, 0, 0, 500, 3).dataset, "identity"
    got = {(family, name): _result_hex(res)
           for name, res in _per_dataset_results(data, link).items()}
    assert got == {key: pins for key, pins in RESULT_HEX.items() if key[0] == family}

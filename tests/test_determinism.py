"""Byte-level determinism gate for every CLI experiment.

Each case runs one experiment through ``symloss.cli.main`` in a fresh
directory and compares the ``artifacts`` map of its ``manifest.json``
(sha256 of every CSV/JSON output) with hashes recorded before the
trainer, sweep and config code was consolidated.  The artifacts print
12 significant digits, and ``keywords/report.json`` prints the trained
parameters at full precision, so any change to a summation order or to
the random draw order shows up here.

The recorded hashes assume the numpy/BLAS build they were taken on
(numpy 2.4 with OpenBLAS 0.3.31, x86-64).  A different BLAS may sum
in a different order; re-record the hashes on that machine from a
known-good commit rather than loosening the comparison.

The CSV artifacts round to 12 digits, which can hide a last-bit change
in a short linear run, so the trainers are also checked directly: the
sha256 of the raw float64 bytes of the trained parameters and the
final full-data objective of small ``train_ber``/``train_auc`` runs.

The AUC runs' objective is the exact sigmoid pair risk over all
n+ x n- training pairs, which ``pairwise_mean_loss`` evaluates from one
numpy ``exp`` per score.  numpy picks its ``exp`` kernel by the CPU's
SIMD level, so the AUC digests hold per SIMD level as well as per BLAS
build.

The Gaussian configs are shrunk copies of the bundled defaults (a few
epochs, a few hundred points) so the whole module runs in a few seconds.
Their batch sizes are powers of two, which is the scope within which the
shared balanced-risk gradient is bit-identical to the earlier per-step
formula.
"""

import hashlib
import json

import numpy as np
import pytest

from symloss.cli import main
from symloss.datasets import default_config_path
from symloss.distributions import GaussianPairConfig, McdParams, sample_mcd
from symloss.training import TrainConfig, train_auc, train_ber

DATASET = """
[dataset]
dimension = 2
mean_pos = 1.5, 1.5
mean_neg = -1.5, -1.5
covariance = 1.0, 1.0
n_train_per_class = 200
n_test_per_class = 300
"""

CONFIGS = {
    "verify_identities": """
[experiment]
name = verify_identities
seeds = 0

[losses]
names = all

[identities]
instances = 4
""",
    "noise_sweep": DATASET + """
[experiment]
name = noise_sweep
seeds = 0, 1

[noise]
pi_corr_pos = 0.8, 0.7
pi_corr_neg = 0.3, 0.4

[losses]
names = sigmoid, logistic

[train]
objective = ber
step_size = 0.05
epochs = 6
batch_size = 64
weight_decay = 0.001

[assertions]
loss_order = sigmoid <= logistic
""",
    "loss_compare": DATASET + """
[experiment]
name = loss_compare
seeds = 0

[noise]
pi_corr_pos = 0.8, 0.6
pi_corr_neg = 0.3, 0.45

[losses]
names = sigmoid, ramp, unhinged, hinge

[train]
objective = ber
epochs = 6
batch_size = 128
""",
    "pu_demo": DATASET + """
[experiment]
name = pu_demo
seeds = 0

[pu]
class_prior_unlabeled = 0.4

[train]
objective = ber
loss = sigmoid
epochs = 4
batch_size = 64
model = mlp
hidden_units = 4
""",
    "uu_demo": DATASET + """
[experiment]
name = uu_demo
seeds = 0

[uu]
pi_u = 0.7
pi_u_prime = 0.3

[train]
objective = auc
loss = sigmoid
epochs = 4
batch_size = 64
pair_batch = 128
""",
}

EXPECTED = {
    "keywords": {
        "metrics.csv":
            "23ca44cfd3e24d3584985f6c1200f6818c3f7741d638ffebff73d49750008356",
        "report.json":
            "e3e3b3d80e601bad2a836213feb53ec98065733567dda8c5462d0346053c777a",
    },
    "loss_compare": {
        "aggregate.csv":
            "b3f1749daf5eb80e7c730eaedb3c7c740dea8e9ba10ba6e0840c7797ffed5943",
        "results.csv":
            "00e91126cfa99e39a7c90b74fb627fd83c62c5551d210f8e011a411c23c6ce71",
    },
    "noise_sweep": {
        "aggregate.csv":
            "292403f28a021301d8cbd5a9cb8c03b2f3bc6b793d4147891af51b9497a74b3d",
        "results.csv":
            "473b9406454dc35e873102145bab76590d9fbdc1ad061a0ccff8b395aa97e57f",
    },
    "pu_demo": {
        "results.csv":
            "ea70f40bb07c9a86ca00cb88a4e7f9ce018672ac6bf8a15816334a4bda641076",
    },
    "uu_demo": {
        "results.csv":
            "16a8148d1a9606a87a01a38ddf1a187a1c8db9d75d85d7b3b1d96a7d1b475814",
    },
    "verify_identities": {
        "residuals.csv":
            "5b8b93f725b5c8e731537b45e243f7ba669dc9ec1f7ece8ec1032e4e51d8a0ba",
    },
}


def run_case(tmp_path, experiment):
    if experiment in CONFIGS:
        config = tmp_path / "config.ini"
        config.write_text(CONFIGS[experiment])
    else:
        config = default_config_path(experiment)
    out = tmp_path / "out"
    command = experiment.replace("_", "-")
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    return json.loads((out / "manifest.json").read_text())["artifacts"]


@pytest.mark.parametrize("experiment", sorted(EXPECTED))
def test_artifact_hashes_match_recorded(tmp_path, experiment):
    assert run_case(tmp_path, experiment) == EXPECTED[experiment]


TRAINERS = {
    "ber-linear": (train_ber, dict(batch_size=64, weight_decay=0.001)),
    "ber-mlp": (train_ber, dict(batch_size=128, model="mlp", hidden_units=4)),
    "auc-linear": (train_auc, dict(objective="auc", pair_batch=128)),
    "auc-mlp": (train_auc, dict(objective="auc", model="mlp", hidden_units=4)),
    "auc-linear-decay": (train_auc, dict(objective="auc", pair_batch=128, weight_decay=0.001)),
    "ber-linear-plain": (train_ber, dict(batch_size=64, adaptive_moments=False)),
}

EXPECTED_TRAINED = {
    "ber-linear": "ca92b657731deba48f4e2dc0f5687c0a00eef1cbdceb7d92e2d08f2596ea2df0",
    "ber-mlp": "cf1816e6d3248740f84503bad0b6bb913e2e6fa7acd0c3c44685df42df3c3eaf",
    "auc-linear": "1aa3902c35e05860d93ed3fe2c7323d56d129e7fca0d93e7da03636668e0765d",
    "auc-mlp": "c10b26da0a2ce54982cfb75e507d403b74809ddf353766f6ad605161faa8d2fe",
    "auc-linear-decay": "5bd6ca615500b5975003e5697071814cf63d60b2fdd567f5fbf47f339f06d05b",
    "ber-linear-plain": "1400da40f74948b6a825017e1e0a7201b80063c95df5fc46ec752fd118835914",
}


def trained_digest(case):
    trainer, overrides = TRAINERS[case]
    sampler_pos, sampler_neg = GaussianPairConfig(
        [1.5, 1.5], [-1.5, -1.5], [1.0, 1.0], 2
    ).samplers()
    set_pos, set_neg = sample_mcd(sampler_pos, sampler_neg, McdParams(0.8, 0.3), 150, 150, seed=3)
    trace = trainer(set_pos, set_neg, TrainConfig(epochs=5, seed=1, **overrides))
    blob = np.concatenate([trace.scorer.params, [trace.objective]])
    return hashlib.sha256(blob.astype("<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(TRAINERS))
def test_trained_parameters_match_recorded(case):
    assert trained_digest(case) == EXPECTED_TRAINED[case]

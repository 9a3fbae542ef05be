"""The benchmark's three workloads: seeded input generation and output checks.

Each workload is one ``symloss`` subcommand run on a config (and, for the
text workload, a corpus) written here from the workload seed before any
timing starts, so the program only ever receives generated files.  The
configs use only keys that the bundled default config of the same
experiment uses.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# sizes shared by the config templates and the output checks
BER_CELLS = ((0.8, 0.3), (0.7, 0.4))
BER_LOSSES = ("sigmoid", "logistic")
BER_SEEDS_PER_RUN = 3
CORPUS_SIZES = {"n_train": 400, "n_validation": 20_000, "n_test": 20_000}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    write_config: Callable[[Path, int], str]
    check: Callable[[Path], list]


def _gaussian_block(n_train: int) -> str:
    return f"""[dataset]
dimension = 2
mean_pos = 1.5, 1.5
mean_neg = -1.5, -1.5
covariance = 1.0, 1.0
n_train_per_class = {n_train}
n_test_per_class = 2000
"""


def _ber_sweep_config(directory: Path, seed: int) -> str:
    # the [assertions] loss_order check is statistical and can flip with the
    # seed, so it is left out; the output checks below are deterministic
    seeds = ", ".join(str(BER_SEEDS_PER_RUN * seed + k) for k in range(BER_SEEDS_PER_RUN))
    pos = ", ".join(str(a) for a, _ in BER_CELLS)
    neg = ", ".join(str(b) for _, b in BER_CELLS)
    return f"""[experiment]
name = noise_sweep
output_dir = {directory / "out"}
seeds = {seeds}

{_gaussian_block(2000)}
[noise]
pi_corr_pos = {pos}
pi_corr_neg = {neg}

[losses]
names = {", ".join(BER_LOSSES)}

[train]
objective = ber
step_size = 0.05
epochs = 50
batch_size = 128
weight_decay = 0.0
adaptive_moments = true
model = linear
"""


def _uu_trace_config(directory: Path, seed: int) -> str:
    return f"""[experiment]
name = uu_demo
output_dir = {directory / "out"}
seeds = {seed}

{_gaussian_block(1000)}
[uu]
pi_u = 0.7
pi_u_prime = 0.3

[train]
objective = auc
loss = sigmoid
step_size = 0.05
epochs = 30
batch_size = 128
pair_batch = 256
model = linear
"""


def _keywords_config(directory: Path, seed: int) -> str:
    from symloss.datasets import generate_mini_corpus

    corpus_path = directory / "corpus.jsonl"
    corpus, _ = generate_mini_corpus(seed=seed, positive_fraction=0.3, **CORPUS_SIZES)
    corpus.to_jsonl(corpus_path)
    return f"""[experiment]
name = keywords
output_dir = {directory / "out"}
seeds = {seed}

[corpus]
corpus_path = {corpus_path}
keywords_path = bundled
tau = 0.15
scheme = tf_idf
min_doc_freq = 1
threshold_method = breakeven
prior = 0.3

[train]
objective = auc
loss = sigmoid
step_size = 0.05
epochs = 120
batch_size = 128
pair_batch = 256
model = linear
"""


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _unit_interval(value: str) -> bool:
    number = float(value)
    return math.isfinite(number) and 0.0 <= number <= 1.0


def _check_ber_sweep(out: Path) -> list:
    problems = []
    rows = _rows(out / "results.csv")
    expected = len(BER_CELLS) * len(BER_LOSSES) * BER_SEEDS_PER_RUN
    if len(rows) != expected:
        problems.append(f"results.csv has {len(rows)} rows, expected {expected}")
    for row in rows:
        if not (_unit_interval(row["clean_test_ber"]) and _unit_interval(row["clean_test_auc"])):
            problems.append(f"results.csv: BER/AUC outside [0, 1] in {row}")
    cells = len(_rows(out / "aggregate.csv"))
    if cells != len(BER_CELLS) * len(BER_LOSSES):
        problems.append(f"aggregate.csv has {cells} rows")
    return problems


def _check_uu_trace(out: Path) -> list:
    rows = _rows(out / "results.csv")
    if len(rows) != 1:
        return [f"results.csv has {len(rows)} rows, expected 1"]
    row = rows[0]
    if row["trace_check"] != "identical" or (
        row["final_objective_reduction"] != row["final_objective_generic"]
    ):
        return [f"UU reduction and generic traces differ: {row}"]
    return []


def _check_keywords(out: Path) -> list:
    report = json.loads((out / "report.json").read_text())
    problems = []
    if not report["empirical_pi_pos"] > report["empirical_pi_neg"]:
        problems.append("pseudo-label split is not informative")
    if not report["test_auc"] > 0.5:
        problems.append(f"test AUC {report['test_auc']} is not above chance")
    if len(_rows(out / "metrics.csv")) != 1:
        problems.append("metrics.csv must have one row")
    return problems


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "ber-sweep", "noise-sweep",
            "balanced-risk grid of 12 Gaussian runs, 9,600 minibatch steps: "
            "the training step loop dominates and pairwise risks never run",
            _ber_sweep_config, _check_ber_sweep,
        ),
        Workload(
            "uu-trace", "uu-demo",
            "UU reduction plus generic run, 60 exact per-epoch traces of 10^6 "
            "pairs: pairwise_mean_loss dominates, the step loop is about 1%",
            _uu_trace_config, _check_uu_trace,
        ),
        Workload(
            "keywords-text", "keywords",
            "keyword pipeline on a generated 40,400-document corpus: JSONL reading "
            "and vectorizing dominate, the Gaussian trainers are bypassed",
            _keywords_config, _check_keywords,
        ),
    )
}


def write_inputs(name: str, seed: int, directory: Path) -> Path:
    """Write the workload's config (and corpus) for ``seed``; return the config path."""
    directory.mkdir(parents=True, exist_ok=True)
    config = directory / f"{name}.ini"
    config.write_text(WORKLOADS[name].write_config(directory, seed))
    return config

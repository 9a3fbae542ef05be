"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or
in captured output).  Criteria with runtime budgets assert them.
"""

import itertools
import time
from functools import partial

import numpy as np
import pytest

from symloss.datasets import load_keywords, load_mini_corpus
from symloss.distributions import (
    DiscreteBinaryDistribution,
    GaussianPairConfig,
    McdParams,
    corrupt_distribution,
    pu_params,
    sample_mcd,
    uu_params,
)
from symloss.losses import LOSS_NAMES, LOSSES, SYMMETRIC_LOSS_NAMES, get_loss
from symloss.risks import (
    auc_decomposition_check,
    auc_score,
    ber_decomposition_check,
    classification_metrics,
    empirical_ber_risk,
    pairwise_mean_loss,
    symmetric_excess_constant,
)
from symloss.textpipe import PipelineConfig, build_vectorizer, run_pipeline
from symloss.threshold import classify_scores, select_threshold
from symloss.training import (
    Scorer,
    TrainConfig,
    brute_force_minimizer,
    finite_difference_check,
    make_objective,
    train_auc,
    train_ber,
)

DIFFERENTIABLE = [n for n in LOSS_NAMES if LOSSES[n].differentiable]

GAUSSIANS = GaussianPairConfig(
    mean_pos=[1.5, 1.5], mean_neg=[-1.5, -1.5], covariance=[1.0, 1.0], dimension=2
)


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def random_identity_instance(rng, max_support=5, score_range=3.0):
    m = int(rng.integers(2, max_support + 1))
    dist = DiscreteBinaryDistribution(
        np.arange(m, dtype=float).reshape(-1, 1),
        rng.dirichlet(np.ones(m)),
        rng.dirichlet(np.ones(m)),
    )
    rng.uniform(0.1, 0.9)  # unused; dropping it would change every later draw
    scores = rng.uniform(-score_range, score_range, size=m)
    b = float(rng.uniform(0.0, 0.8))
    a = float(rng.uniform(b + 0.05, 1.0))
    return dist, scores, McdParams(a, b)


@pytest.fixture(scope="module")
def bundled_corpus():
    return load_mini_corpus(), load_keywords()


@pytest.fixture(scope="module")
def pipeline_runs(bundled_corpus):
    """One breakeven run and one default-threshold run of the pipeline."""
    corpus, keywords = bundled_corpus
    start = time.perf_counter()

    def config(threshold_method):
        return PipelineConfig(
            train=TrainConfig(objective="auc", loss="sigmoid", epochs=120, seed=0),
            tau=0.15,
            scheme="tf_idf",
            min_doc_freq=1,
            threshold_method=threshold_method,
            prior=0.3,
        )

    breakeven = run_pipeline(corpus, keywords, config("breakeven_known_prior"))
    default = run_pipeline(corpus, keywords, config("default_zero"))
    elapsed = time.perf_counter() - start
    return breakeven, default, elapsed


def test_criterion_1_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20240601)
    worst_residual = 0.0
    worst_excess_gap = 0.0
    for name in LOSS_NAMES:
        loss = get_loss(name)
        for _ in range(100):
            dist, scores, params = random_identity_instance(rng)
            ber = ber_decomposition_check(loss, dist, scores, params)
            auc = auc_decomposition_check(loss, dist, scores, params)
            worst_residual = max(worst_residual, ber.residual, auc.residual)
            if loss.symmetric:
                expected = symmetric_excess_constant(loss, params)
                worst_excess_gap = max(
                    worst_excess_gap,
                    abs(ber.excess - expected),
                    abs(auc.excess - expected),
                )
    elapsed = time.perf_counter() - start
    report(
        1,
        "identity suite",
        worst_residual <= 1e-10 and worst_excess_gap <= 1e-12 and elapsed < 10.0,
        f"max residual {worst_residual:.2e}, max symmetric-excess gap "
        f"{worst_excess_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_minimizer_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(20240602)
    family = list(itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0), repeat=2))

    from symloss.risks import exact_auc_risk, exact_ber_risk

    identical = True
    for _ in range(20):
        dist, _, params = random_identity_instance(rng, max_support=2)
        corr_pos, corr_neg = corrupt_distribution(dist, params)
        corr = DiscreteBinaryDistribution(dist.support, corr_pos, corr_neg)
        for name in SYMMETRIC_LOSS_NAMES:
            loss = get_loss(name)
            for risk_fn in (exact_ber_risk, exact_auc_risk):
                clean_arg = set(
                    brute_force_minimizer(
                        lambda m: risk_fn(loss, dist, np.array(m)), family
                    )
                )
                corr_arg = set(
                    brute_force_minimizer(
                        lambda m: risk_fn(loss, corr, np.array(m)), family
                    )
                )
                identical = identical and (clean_arg == corr_arg)

    # constructed hinge instance whose argmin sets differ
    hinge = get_loss("hinge")
    dist = DiscreteBinaryDistribution([[0.0], [1.0]], [0.9, 0.1], [0.5, 0.5])
    params = McdParams(0.6, 0.4)
    corr_pos, corr_neg = corrupt_distribution(dist, params)
    corr = DiscreteBinaryDistribution(dist.support, corr_pos, corr_neg)
    hinge_family = list(itertools.product((-2.0, -0.5, 0.0, 1.0, 2.0), repeat=2))
    clean_arg = set(
        brute_force_minimizer(
            lambda m: exact_ber_risk(hinge, dist, np.array(m)), hinge_family
        )
    )
    corr_arg = set(
        brute_force_minimizer(
            lambda m: exact_ber_risk(hinge, corr, np.array(m)), hinge_family
        )
    )
    hinge_differs = clean_arg != corr_arg

    elapsed = time.perf_counter() - start
    report(
        2,
        "minimizer identity",
        identical and hinge_differs and elapsed < 5.0,
        f"symmetric argmins identical: {identical}, hinge differs: "
        f"{hinge_differs}, {elapsed:.1f}s",
    )


def test_criterion_3_gradient_checks():
    rng = np.random.default_rng(20240603)
    X_pos = rng.normal(0.5, 1.0, size=(40, 3))
    X_neg = rng.normal(-0.5, 1.0, size=(30, 3))
    worst_linear = 0.0
    worst_mlp = 0.0
    for name in DIFFERENTIABLE:
        loss = get_loss(name)
        for make in (partial(make_objective, "ber"), partial(make_objective, "auc")):
            linear = Scorer.linear(3)
            value, gradient = make(loss, X_pos, X_neg, linear, weight_decay=0.01)
            worst_linear = max(
                worst_linear,
                finite_difference_check(value, gradient, linear.params, probes=5, seed=11),
            )
            mlp = Scorer.mlp(3, 5, np.random.default_rng(12))
            value, gradient = make(loss, X_pos, X_neg, mlp, weight_decay=0.01)
            worst_mlp = max(
                worst_mlp,
                finite_difference_check(value, gradient, mlp.params, probes=5, seed=13),
            )
    report(
        3,
        "gradient checks",
        worst_linear <= 1e-5 and worst_mlp <= 1e-4,
        f"max rel err linear {worst_linear:.2e}, mlp {worst_mlp:.2e}",
    )


def test_criterion_4_robustness_experiment():
    start = time.perf_counter()
    sampler_pos, sampler_neg = GAUSSIANS.samplers()
    zero_one = get_loss("zero_one")

    def run(loss_name, params, seed):
        pos, neg = sample_mcd(sampler_pos, sampler_neg, params, 2000, 2000, seed=seed)
        config = TrainConfig(
            objective="ber", loss=loss_name, step_size=0.05, epochs=150,
            batch_size=128, seed=seed,
        )
        trace = train_ber(pos, neg, config)
        test_rng = np.random.default_rng(seed + 10_000)
        return empirical_ber_risk(
            zero_one, trace.scorer(sampler_pos(test_rng, 2000)),
            trace.scorer(sampler_neg(test_rng, 2000)),
        )

    noisy = McdParams(0.8, 0.3)
    clean = McdParams(1.0, 0.0)
    sigmoid_bers = [run("sigmoid", noisy, seed) for seed in range(10)]
    logistic_bers = [run("logistic", noisy, seed) for seed in range(10)]
    clean_bers = [run("sigmoid", clean, seed) for seed in range(10)]

    mean_sigmoid = float(np.mean(sigmoid_bers))
    mean_logistic = float(np.mean(logistic_bers))
    mean_clean = float(np.mean(clean_bers))
    elapsed = time.perf_counter() - start
    report(
        4,
        "robustness experiment",
        mean_sigmoid <= mean_logistic
        and abs(mean_sigmoid - mean_clean) <= 0.05
        and elapsed < 120.0,
        f"sigmoid {mean_sigmoid:.4f} <= logistic {mean_logistic:.4f}, "
        f"clean baseline {mean_clean:.4f}, {elapsed:.1f}s",
    )


def test_criterion_5_pu_uu_equivalence():
    sampler_pos, sampler_neg = GAUSSIANS.samplers()
    all_identical = True
    for reduced, generic, trainer, objective in (
        (pu_params(0.4), McdParams(1.0, 0.4), train_ber, "ber"),
        (uu_params(0.7, 0.3), McdParams(0.7, 0.3), train_auc, "auc"),
    ):
        for seed in (0, 1, 2):
            config = TrainConfig(objective=objective, loss="sigmoid", epochs=20, seed=seed)
            data_reduced = sample_mcd(sampler_pos, sampler_neg, reduced, 150, 150, seed=seed)
            data_generic = sample_mcd(sampler_pos, sampler_neg, generic, 150, 150, seed=seed)
            trace_reduced = trainer(*data_reduced, config)
            trace_generic = trainer(*data_generic, config)
            all_identical = all_identical and (
                trace_reduced.objective == trace_generic.objective
                and np.array_equal(
                    trace_reduced.scorer.params, trace_generic.scorer.params
                )
            )
    report(5, "PU/UU equivalence", all_identical, "traces exactly equal")


def test_criterion_6_auc_oracle_equivalence():
    rng = np.random.default_rng(20240606)
    all_equal = True
    for _ in range(1000):
        n_pos = int(rng.integers(1, 101))
        n_neg = int(rng.integers(1, 101))
        if rng.random() < 0.5:
            pos = rng.normal(size=n_pos)
            neg = rng.normal(size=n_neg)
        else:
            pos = rng.integers(0, 5, size=n_pos).astype(float)
            neg = rng.integers(0, 5, size=n_neg).astype(float)
        enumeration = (
            float((pos[:, None] > neg[None, :]).sum())
            + 0.5 * float((pos[:, None] == neg[None, :]).sum())
        ) / (n_pos * n_neg)
        if auc_score(pos, neg) != enumeration:
            all_equal = False
            break
    report(6, "AUC oracle equivalence", all_equal, "rank method == pair enumeration")


def test_criterion_7_breakeven_threshold(bundled_corpus, pipeline_runs):
    corpus, _ = bundled_corpus
    breakeven, _, _ = pipeline_runs
    vectorizer = build_vectorizer(corpus.columns("train_unlabeled")[0], "tf_idf", 1)
    test_texts, test_labels = corpus.columns("test_labeled")
    truth = np.array(test_labels)
    scorer = breakeven["scorer"]
    scores = Scorer(scorer["kind"], scorer["dimension"], scorer["parameters"])(
        vectorizer.transform(test_texts)
    )

    n_positive = int((truth == 1).sum())
    threshold = select_threshold(
        scores, target_prior=n_positive / truth.size, method="breakeven_known_prior"
    )
    metrics = classification_metrics(classify_scores(scores, threshold.beta), truth)
    gap = abs(metrics["precision"] - metrics["recall"])
    report(
        7,
        "breakeven threshold",
        gap <= 1.0 / n_positive,
        f"|precision - recall| = {gap:.4f} <= 1/{n_positive}",
    )


def test_criterion_8_estimation_error_trend():
    sampler_pos, sampler_neg = GAUSSIANS.samplers()
    sigmoid = get_loss("sigmoid")

    def clean_risk(scorer, seed):
        rng = np.random.default_rng(seed + 50_000)
        return pairwise_mean_loss(
            sigmoid, scorer(sampler_pos(rng, 2000)), scorer(sampler_neg(rng, 2000))
        )

    levels = [McdParams(0.55, 0.45), McdParams(0.75, 0.25), McdParams(0.95, 0.05)]
    mean_gaps = []
    for params in levels:
        gaps = []
        for seed in range(5):
            config = TrainConfig(
                objective="auc", loss="sigmoid", step_size=0.05, epochs=80,
                batch_size=64, pair_batch=256, seed=seed,
            )
            pos, neg = sample_mcd(sampler_pos, sampler_neg, params, 400, 400, seed=seed)
            trace = train_auc(pos, neg, config)
            ref_pos, ref_neg = sample_mcd(
                sampler_pos, sampler_neg, McdParams(1.0, 0.0), 400, 400, seed=seed
            )
            reference = train_auc(ref_pos, ref_neg, config)
            gaps.append(clean_risk(trace.scorer, seed) - clean_risk(reference.scorer, seed))
        mean_gaps.append(float(np.mean(gaps)))
    non_increasing = mean_gaps[0] >= mean_gaps[1] >= mean_gaps[2]
    report(
        8,
        "estimation error trend",
        non_increasing,
        "gaps " + " >= ".join(f"{gap:.5f}" for gap in mean_gaps),
    )


def test_criterion_9_keyword_pipeline_regression(pipeline_runs):
    breakeven, default, elapsed = pipeline_runs
    passed = (
        breakeven["test_auc"] > 0.5
        and breakeven["empirical_pi_pos"] > breakeven["empirical_pi_neg"]
        and breakeven["test_metrics"]["f1"] >= default["test_metrics"]["f1"]
        and elapsed < 60.0
    )
    report(
        9,
        "keyword pipeline regression",
        passed,
        f"auc {breakeven['test_auc']:.4f}, pi_pos {breakeven['empirical_pi_pos']:.3f} > "
        f"pi_neg {breakeven['empirical_pi_neg']:.3f}, f1 {breakeven['test_metrics']['f1']:.3f} "
        f">= {default['test_metrics']['f1']:.3f}, {elapsed:.1f}s",
    )

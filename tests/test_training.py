"""Trainers, scorers, brute-force minimizer, and gradient-check oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symloss.distributions import (
    DiscreteBinaryDistribution,
    GaussianPairConfig,
    McdParams,
    corrupt_distribution,
    pu_params,
    sample_mcd,
    uu_params,
)
from symloss.errors import NonDifferentiableLossError, TrainingDivergedError
from symloss.losses import LOSS_NAMES, LOSSES, get_loss
from symloss.risks import auc_score, empirical_ber_risk, exact_auc_risk, exact_ber_risk
from symloss.training import (
    Scorer,
    TrainConfig,
    TrainTrace,
    brute_force_minimizer,
    finite_difference_check,
    make_auc_objective,
    make_ber_objective,
    train_auc,
    train_ber,
)

DIFFERENTIABLE = [n for n in LOSS_NAMES if LOSSES[n].differentiable]

GAUSSIANS = GaussianPairConfig(
    mean_pos=[1.5, 1.5], mean_neg=[-1.5, -1.5], covariance=[1.0, 1.0], dimension=2
)


def gaussian_sets(params, n, seed):
    sampler_pos, sampler_neg = GAUSSIANS.samplers()
    return sample_mcd(sampler_pos, sampler_neg, params, n, n, seed=seed)


def clean_sets(n, seed):
    return gaussian_sets(McdParams(1.0, 0.0), n, seed)


class TestScorer:
    def test_linear_scoring(self):
        scorer = Scorer(kind="linear", dimension=2, params=np.array([2.0, -1.0, 0.5]))
        assert scorer(np.array([1.0, 1.0])) == pytest.approx(1.5)
        np.testing.assert_allclose(scorer(np.array([[1.0, 0.0], [0.0, 1.0]])), [2.5, -0.5])

    def test_parameter_count_enforced(self):
        with pytest.raises(ValueError, match="parameters"):
            Scorer(kind="linear", dimension=3, params=np.zeros(3))
        with pytest.raises(ValueError, match="kind"):
            Scorer(kind="forest", dimension=2, params=np.zeros(3))

    def test_mlp_init_bounds_and_determinism(self):
        first = Scorer.mlp(4, 8, np.random.default_rng(3))
        second = Scorer.mlp(4, 8, np.random.default_rng(3))
        np.testing.assert_array_equal(first.params, second.params)
        assert np.max(np.abs(first.params[: 8 * 4])) <= 1.0 / np.sqrt(4)

    def test_mlp_scores_finite(self):
        scorer = Scorer.mlp(3, 5, np.random.default_rng(0))
        X = np.random.default_rng(1).normal(size=(10, 3))
        assert np.all(np.isfinite(scorer(X)))

    @pytest.mark.parametrize("kind,hidden", [("linear", 0), ("mlp", 6)])
    def test_jacobian_matches_per_parameter_differences(self, kind, hidden):
        rng = np.random.default_rng(5)
        if kind == "linear":
            scorer = Scorer(kind="linear", dimension=3, params=rng.normal(size=4))
        else:
            scorer = Scorer.mlp(3, hidden, rng)
        X = rng.normal(size=(7, 3))
        scores, jac = scorer.score_with_jacobian(X)
        np.testing.assert_allclose(scores, scorer(X))
        h = 1e-6
        for j in range(scorer.params.size):
            bump = np.zeros_like(scorer.params)
            bump[j] = h
            numeric = (scorer.score(X, scorer.params + bump) - scorer.score(X, scorer.params - bump)) / (2 * h)
            np.testing.assert_allclose(jac[:, j], numeric, atol=1e-8)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="objective"):
            TrainConfig(objective="cer")
        with pytest.raises(ValueError, match="positive count"):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="step_size"):
            TrainConfig(step_size=-0.1)
        # a zero step size is allowed: it is the degenerate no-op run
        assert TrainConfig(step_size=0.0).step_size == 0.0


class TestTrainBer:
    def test_separable_data_reaches_low_ber(self):
        pos, neg = clean_sets(400, seed=0)
        config = TrainConfig(objective="ber", loss="sigmoid", epochs=200, seed=0)
        trace = train_ber(pos, neg, config)
        test_pos, test_neg = clean_sets(1000, seed=99)
        ber = empirical_ber_risk(get_loss("zero_one"), test_pos, test_neg, trace.scorer).value
        assert ber <= 0.05

    def test_zero_step_size_is_a_no_op(self):
        pos, neg = clean_sets(50, seed=1)
        config = TrainConfig(objective="ber", loss="sigmoid", step_size=0.0, epochs=5, seed=1)
        trace = train_ber(pos, neg, config)
        np.testing.assert_array_equal(trace.scorer.params, np.zeros(3))
        assert len(set(trace.objectives)) == 1

    def test_deterministic_given_seed(self):
        pos, neg = gaussian_sets(McdParams(0.8, 0.3), 100, seed=2)
        config = TrainConfig(objective="ber", loss="sigmoid", epochs=20, seed=7)
        first = train_ber(pos, neg, config)
        second = train_ber(pos, neg, config)
        assert first.objectives == second.objectives
        np.testing.assert_array_equal(first.scorer.params, second.scorer.params)

    def test_zero_one_loss_unsupported(self):
        pos, neg = clean_sets(10, seed=3)
        with pytest.raises(NonDifferentiableLossError):
            train_ber(pos, neg, TrainConfig(objective="ber", loss="zero_one"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_raises(self):
        pos, neg = clean_sets(40, seed=1)
        config = TrainConfig(
            objective="ber", loss="exponential", adaptive_moments=False,
            step_size=5.0, epochs=10, seed=1,
        )
        with pytest.raises(TrainingDivergedError) as caught:
            train_ber(pos, neg, config)
        message = str(caught.value)
        for part in ("epoch 4 of 10", "'exponential'", "seed 1", "step_size 5.0"):
            assert part in message

    def test_empty_set_rejected(self):
        pos, _ = clean_sets(10, seed=4)
        with pytest.raises(ValueError, match="empty"):
            train_ber(pos, np.zeros((0, 2)), TrainConfig(objective="ber"))

    def test_trace_length_and_trend(self):
        pos, neg = clean_sets(200, seed=5)
        config = TrainConfig(objective="ber", loss="sigmoid", epochs=80, seed=5)
        trace = train_ber(pos, neg, config)
        assert len(trace.objectives) == 80
        quarter = len(trace.objectives) // 4
        late = np.mean(trace.objectives[-quarter:])
        earlier = np.mean(trace.objectives[-2 * quarter : -quarter])
        assert late <= earlier + 1e-6

    def test_mlp_model_trains(self):
        pos, neg = clean_sets(150, seed=6)
        config = TrainConfig(
            objective="ber", loss="sigmoid", epochs=60, seed=6, model="mlp", hidden_units=4
        )
        trace = train_ber(pos, neg, config)
        assert trace.objectives[-1] < trace.objectives[0]


class TestTrainAuc:
    def test_separable_data_reaches_high_auc(self):
        pos, neg = clean_sets(300, seed=10)
        config = TrainConfig(objective="auc", loss="sigmoid", epochs=100, seed=10)
        trace = train_auc(pos, neg, config)
        test_pos, test_neg = clean_sets(800, seed=110)
        score = auc_score(trace.scorer(test_pos.points), trace.scorer(test_neg.points))
        assert score >= 0.95

    def test_identical_sets_pin_auc_at_half(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(120, 2))
        config = TrainConfig(objective="auc", loss="sigmoid", epochs=40, seed=11)
        trace = train_auc(points, points, config)
        score = auc_score(trace.scorer(points), trace.scorer(points))
        assert abs(score - 0.5) <= 0.02

    def test_deterministic_given_seed(self):
        pos, neg = gaussian_sets(McdParams(0.7, 0.4), 80, seed=12)
        config = TrainConfig(objective="auc", loss="sigmoid", epochs=15, seed=3)
        first = train_auc(pos, neg, config)
        second = train_auc(pos, neg, config)
        assert first.objectives == second.objectives
        np.testing.assert_array_equal(first.scorer.params, second.scorer.params)


# One draw per epoch, shaped (steps, 2, k) with bounds [[n_pos], [n_neg]],
# must give the per-step positive-then-negative draws of _train and leave the
# generator in the same state: the groundwork for batching the draws.
@given(
    n_pos=st.integers(1, 3 * 2**30),
    n_neg=st.none() | st.integers(1, 3 * 2**30),
    k=st.integers(1, 9),
    steps=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_one_draw_per_epoch_equals_the_per_step_draws(n_pos, n_neg, k, steps, seed):
    n_neg = n_pos if n_neg is None else n_neg
    per_epoch, per_step = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = per_epoch.integers(0, np.array([[n_pos], [n_neg]]), size=(steps, 2, k))
    for step in range(steps):
        assert np.array_equal(drawn[step, 0], per_step.integers(0, n_pos, size=k))
        assert np.array_equal(drawn[step, 1], per_step.integers(0, n_neg, size=k))
    assert per_epoch.bit_generator.state == per_step.bit_generator.state


class TestGradientChecks:
    @pytest.mark.parametrize("name", DIFFERENTIABLE)
    @pytest.mark.parametrize("objective", ["ber", "auc"])
    def test_linear_gradients(self, name, objective):
        rng = np.random.default_rng(20)
        X_pos = rng.normal(0.5, 1.0, size=(40, 3))
        X_neg = rng.normal(-0.5, 1.0, size=(30, 3))
        scorer = Scorer.linear(3)
        make = make_ber_objective if objective == "ber" else make_auc_objective
        value, gradient = make(get_loss(name), X_pos, X_neg, scorer, weight_decay=0.01)
        err = finite_difference_check(value, gradient, scorer.params, probes=6, seed=1)
        assert err <= 1e-5, f"{name}/{objective}: {err}"

    @pytest.mark.parametrize("name", DIFFERENTIABLE)
    @pytest.mark.parametrize("objective", ["ber", "auc"])
    def test_mlp_gradients(self, name, objective):
        rng = np.random.default_rng(21)
        X_pos = rng.normal(0.5, 1.0, size=(25, 2))
        X_neg = rng.normal(-0.5, 1.0, size=(20, 2))
        scorer = Scorer.mlp(2, 5, rng)
        make = make_ber_objective if objective == "ber" else make_auc_objective
        value, gradient = make(get_loss(name), X_pos, X_neg, scorer, weight_decay=0.01)
        err = finite_difference_check(value, gradient, scorer.params, probes=6, seed=2)
        assert err <= 1e-4, f"{name}/{objective}: {err}"

    def test_unhinged_linear_is_machine_precise(self):
        # the objective is quadratic in the parameters (affine scores plus
        # the weight-decay term), and central differences are exact on
        # quadratics up to roundoff
        rng = np.random.default_rng(22)
        X_pos = rng.normal(0.5, 1.0, size=(30, 3))
        X_neg = rng.normal(-0.5, 1.0, size=(30, 3))
        scorer = Scorer.linear(3)
        value, gradient = make_ber_objective(
            get_loss("unhinged"), X_pos, X_neg, scorer, weight_decay=0.01
        )
        err = finite_difference_check(value, gradient, scorer.params, probes=6, seed=3)
        assert err <= 1e-9


class TestBruteForceMinimizer:
    def test_single_member_family(self):
        assert brute_force_minimizer(lambda m: 1.0, ["only"]) == ["only"]

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            brute_force_minimizer(lambda m: 0.0, [])

    def test_returns_all_within_tolerance(self):
        values = {"a": 1.0, "b": 1.0, "c": 2.0}
        assert brute_force_minimizer(values.get, ["a", "b", "c"]) == ["a", "b"]

    def test_symmetric_loss_identical_argmins(self):
        loss = get_loss("sigmoid")
        dist = DiscreteBinaryDistribution(
            [[0.0], [1.0]], [0.8, 0.2], [0.3, 0.7], class_prior=0.5
        )
        params = McdParams(0.8, 0.3)
        corr_pos, corr_neg = corrupt_distribution(dist, params)
        corr = DiscreteBinaryDistribution(dist.support, corr_pos, corr_neg)
        family = list(itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0), repeat=2))

        clean_arg = brute_force_minimizer(
            lambda m: exact_ber_risk(loss, dist, np.array(m)).value, family
        )
        corr_arg = brute_force_minimizer(
            lambda m: exact_ber_risk(loss, corr, np.array(m)).value, family
        )
        assert set(clean_arg) == set(corr_arg)

    def test_hinge_instance_with_differing_argmins(self):
        # frozen instance found by exhaustive enumeration: clean argmin
        # {(1, -2)} vs corrupted argmin {(1, -0.5)}
        loss = get_loss("hinge")
        dist = DiscreteBinaryDistribution([[0.0], [1.0]], [0.9, 0.1], [0.5, 0.5])
        params = McdParams(0.6, 0.4)
        corr_pos, corr_neg = corrupt_distribution(dist, params)
        corr = DiscreteBinaryDistribution(dist.support, corr_pos, corr_neg)
        family = list(itertools.product((-2.0, -0.5, 0.0, 1.0, 2.0), repeat=2))

        clean_arg = brute_force_minimizer(
            lambda m: exact_ber_risk(loss, dist, np.array(m)).value, family
        )
        corr_arg = brute_force_minimizer(
            lambda m: exact_ber_risk(loss, corr, np.array(m)).value, family
        )
        assert set(clean_arg) != set(corr_arg)
        assert set(clean_arg) == {(1.0, -2.0)}
        assert set(corr_arg) == {(1.0, -0.5)}


class TestPuUuPathEquivalence:
    """Reductions construct parameters; identical parameters plus identical
    seeds must reproduce the generic corrupted path exactly."""

    def test_pu_traces_identical(self):
        sampler_pos, sampler_neg = GAUSSIANS.samplers()
        config = TrainConfig(objective="ber", loss="sigmoid", epochs=15, seed=5)
        via_pu = sample_mcd(sampler_pos, sampler_neg, pu_params(0.4), 120, 120, seed=5)
        generic = sample_mcd(
            sampler_pos, sampler_neg, McdParams(1.0, 0.4), 120, 120, seed=5
        )
        trace_pu = train_ber(*via_pu, config)
        trace_generic = train_ber(*generic, config)
        assert trace_pu.objectives == trace_generic.objectives
        np.testing.assert_array_equal(trace_pu.scorer.params, trace_generic.scorer.params)

    def test_uu_traces_identical(self):
        sampler_pos, sampler_neg = GAUSSIANS.samplers()
        config = TrainConfig(objective="auc", loss="sigmoid", epochs=15, seed=6)
        via_uu = sample_mcd(sampler_pos, sampler_neg, uu_params(0.7, 0.3), 100, 100, seed=6)
        generic = sample_mcd(
            sampler_pos, sampler_neg, McdParams(0.7, 0.3), 100, 100, seed=6
        )
        trace_uu = train_auc(*via_uu, config)
        trace_generic = train_auc(*generic, config)
        assert trace_uu.objectives == trace_generic.objectives
        np.testing.assert_array_equal(trace_uu.scorer.params, trace_generic.scorer.params)


class TestTraceExport:
    @pytest.mark.parametrize("trainer, ran", [(train_ber, "ber"), (train_auc, "auc")])
    def test_trace_records_the_objective_it_ran(self, trainer, ran):
        pos, neg = clean_sets(40, seed=31)
        other = "auc" if ran == "ber" else "ber"
        trace = trainer(pos, neg, TrainConfig(objective=other, epochs=2, seed=31))
        assert trace.config.objective == ran

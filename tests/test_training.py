"""Trainers, scorers, brute-force minimizer, and gradient-check oracles."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symloss.risks
import symloss.training
from symloss.distributions import (
    DiscreteBinaryDistribution,
    GaussianPairConfig,
    McdParams,
    SampleSet,
    corrupt_distribution,
    pu_params,
    sample_mcd,
    uu_params,
)
from symloss.errors import NonDifferentiableLossError, TrainingDivergedError
from symloss.losses import LOSS_NAMES, LOSSES, get_loss
from symloss.risks import (
    auc_score,
    empirical_ber_risk,
    exact_ber_risk,
    pairwise_mean_loss,
)
from symloss.textpipe import build_vectorizer
from symloss.training import (
    EPSILON,
    MOMENT_DECAY1,
    MOMENT_DECAY2,
    Scorer,
    TrainConfig,
    brute_force_minimizer,
    finite_difference_check,
    make_objective,
    train_auc,
    train_ber,
    train_many,
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


def initial_objective(set_pos, set_neg, scorer):
    """The sigmoid balanced objective at ``scorer``'s parameters."""
    value, _ = make_objective("ber", get_loss("sigmoid"), set_pos.points, set_neg.points, scorer)
    return value(scorer.params)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_params_rejected(self, bad):
        with pytest.raises(ValueError, match="linear scorer params must be finite"):
            Scorer("linear", 1, [bad, 0.0])

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
            plus = replace(scorer, params=scorer.params + bump)
            minus = replace(scorer, params=scorer.params - bump)
            numeric = (plus(X) - minus(X)) / (2 * h)
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

    @pytest.mark.parametrize("name", ["step_size", "weight_decay"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
    def test_step_size_and_weight_decay_must_be_finite_and_non_negative(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
            TrainConfig(**{name: bad})


class TestTrainBer:
    def test_separable_data_reaches_low_ber(self):
        pos, neg = clean_sets(400, seed=0)
        config = TrainConfig(objective="ber", loss="sigmoid", epochs=200, seed=0)
        trace = train_ber(pos, neg, config)
        test_pos, test_neg = clean_sets(1000, seed=99)
        ber = empirical_ber_risk(
            get_loss("zero_one"), trace.scorer(test_pos.points), trace.scorer(test_neg.points)
        )
        assert ber <= 0.05

    def test_zero_step_size_is_a_no_op(self):
        pos, neg = clean_sets(50, seed=1)
        config = TrainConfig(objective="ber", loss="sigmoid", step_size=0.0, epochs=5, seed=1)
        trace = train_ber(pos, neg, config)
        np.testing.assert_array_equal(trace.scorer.params, np.zeros(3))
        assert trace.objective == initial_objective(pos, neg, Scorer.linear(2))

    def test_deterministic_given_seed(self):
        pos, neg = gaussian_sets(McdParams(0.8, 0.3), 100, seed=2)
        config = TrainConfig(objective="ber", loss="sigmoid", epochs=20, seed=7)
        first = train_ber(pos, neg, config)
        second = train_ber(pos, neg, config)
        assert first.objective == second.objective
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

    @pytest.mark.parametrize("trainer", [train_ber, train_auc])
    @pytest.mark.parametrize("side", ["set_pos", "set_neg"])
    def test_a_non_finite_point_is_rejected_naming_its_set(self, trainer, side):
        pos, neg = clean_sets(10, seed=4)
        sets = {"set_pos": pos.points.copy(), "set_neg": neg.points.copy()}
        sets[side][3, 1] = math.nan
        with pytest.raises(ValueError, match=f"sample set {side} holds a non-finite point"):
            trainer(sets["set_pos"], sets["set_neg"], TrainConfig(epochs=1))

    def test_objective_falls_from_its_initial_value(self):
        pos, neg = clean_sets(200, seed=5)
        config = TrainConfig(objective="ber", loss="sigmoid", epochs=80, seed=5)
        trace = train_ber(pos, neg, config)
        assert trace.objective < initial_objective(pos, neg, Scorer.linear(2))

    def test_mlp_model_trains(self):
        pos, neg = clean_sets(150, seed=6)
        config = TrainConfig(
            objective="ber", loss="sigmoid", epochs=60, seed=6, model="mlp", hidden_units=4
        )
        trace = train_ber(pos, neg, config)
        # the run's generator draws the initial weights first
        initial = Scorer.mlp(2, 4, np.random.default_rng(6))
        assert trace.objective < initial_objective(pos, neg, initial)


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
        assert first.objective == second.objective
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


# Equal bounds: the scalar-bound draw that train_many makes when n_pos ==
# n_neg must give the two-row-bound draw above, and the same generator state.
@given(
    n=st.integers(1, 3 * 2**30),
    k=st.integers(1, 9),
    steps=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_a_scalar_bound_draws_as_two_equal_bounds(n, k, steps, seed):
    scalar, rows = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = scalar.integers(0, n, size=(steps, 2, k))
    assert np.array_equal(drawn, rows.integers(0, np.array([[n], [n]]), size=(steps, 2, k)))
    assert scalar.bit_generator.state == rows.bit_generator.state


def serial_scores(scorer, X, theta):
    """Scores and Jacobian of one run, as Scorer.score_with_jacobian
    computed them before runs were stacked."""
    n = X.shape[0]
    if scorer.kind == "linear":
        return X @ theta[:-1] + theta[-1], np.concatenate([X, np.ones((n, 1))], axis=1)
    h, d = scorer.hidden, scorer.dimension
    w, c = theta[: h * d].reshape(h, d), theta[h * d : h * d + h]
    v, b = theta[h * d + h : h * d + 2 * h], theta[-1]
    t = np.tanh(X @ w.T + c)
    dt = (1.0 - t * t) * v
    jac_w = dt[:, :, None] * X[:, None, :]
    return t @ v + b, np.concatenate([jac_w.reshape(n, -1), dt, t, np.ones((n, 1))], axis=1)


def serial_train(objective, X_pos, X_neg, config):
    """The one-run-at-a-time trainer that train_many replaced: per-step
    draws and a per-step Jacobian, evaluating the objective after epochs
    1, 2, 4, 8, ... and the last.  Returns (params, objective after the
    last epoch)."""
    loss = get_loss(config.loss)
    rng = np.random.default_rng(config.seed)
    d = X_pos.shape[1]
    if config.model == "linear":
        scorer = Scorer.linear(d)
    else:
        scorer = Scorer.mlp(d, config.hidden_units, rng)
    theta = scorer.params
    ber = objective == "ber"
    k = config.batch_size if ber else config.pair_batch
    wd = config.weight_decay

    def full_objective():
        sp, sn = serial_scores(scorer, X_pos, theta)[0], serial_scores(scorer, X_neg, theta)[0]
        if ber:
            risk = 0.5 * (float(np.mean(loss.value(sp))) + float(np.mean(loss.value(-sn))))
        else:
            risk = pairwise_mean_loss(loss, sp, sn)
        return risk + wd * float(theta @ theta)

    def step_gradient():
        ip = rng.integers(0, X_pos.shape[0], size=k)
        im = rng.integers(0, X_neg.shape[0], size=k)
        sp, jp = serial_scores(scorer, X_pos[ip], theta)
        sn, jn = serial_scores(scorer, X_neg[im], theta)
        if ber:
            grad_pos = loss.grad(sp) @ jp / sp.shape[0]
            grad_neg = -loss.grad(-sn) @ jn / sn.shape[0]
            return 0.5 * (grad_pos + grad_neg) + 2.0 * wd * theta
        weights = loss.grad(sp - sn) / sp.shape[0]
        return weights @ (jp - jn) + 2.0 * wd * theta

    first_moment, second_moment = np.zeros_like(theta), np.zeros_like(theta)
    lr, b1, b2, eps = config.step_size, MOMENT_DECAY1, MOMENT_DECAY2, EPSILON
    steps_per_epoch = max(1, math.ceil(max(X_pos.shape[0], X_neg.shape[0]) / config.batch_size))
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            for _ in range(steps_per_epoch):
                grad = step_gradient()
                step += 1
                if config.adaptive_moments:
                    first_moment = b1 * first_moment + (1.0 - b1) * grad
                    second_moment = b2 * second_moment + (1.0 - b2) * grad * grad
                    m_hat = first_moment / (1.0 - b1**step)
                    v_hat = second_moment / (1.0 - b2**step)
                    theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
                else:
                    theta -= lr * grad
            if epoch & (epoch - 1) and epoch != config.epochs:
                continue
            value = full_objective()
            if not math.isfinite(value):
                raise TrainingDivergedError(
                    f"training diverged: the full-data objective is {value} after epoch "
                    f"{epoch} of {config.epochs} (loss {config.loss!r}, seed {config.seed}, "
                    f"step_size {config.step_size}); try a smaller step_size"
                )
    return theta, value


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_train_many_equals_serial_runs(data):
    objective = data.draw(st.sampled_from(["ber", "auc"]), label="objective")
    runs = data.draw(st.integers(1, 6), label="runs")
    n_pos = data.draw(st.integers(1, 30), label="n_pos")
    n_neg = data.draw(st.just(n_pos) | st.integers(1, 30), label="n_neg")
    dimension = data.draw(st.integers(1, 3), label="dimension")
    config = TrainConfig(
        objective=objective,
        step_size=data.draw(st.sampled_from([0.01, 0.1, 2.0]), label="step_size"),
        adaptive_moments=data.draw(st.booleans(), label="adaptive_moments"),
        epochs=data.draw(st.integers(1, 3), label="epochs"),
        batch_size=data.draw(st.integers(1, 24), label="batch_size"),
        pair_batch=data.draw(st.integers(1, 24), label="pair_batch"),
        weight_decay=data.draw(st.sampled_from([0.0, 0.003]), label="weight_decay"),
        model=data.draw(st.sampled_from(["linear", "mlp"]), label="model"),
        hidden_units=data.draw(st.integers(1, 4), label="hidden_units"),
    )
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=runs, max_size=runs))
    losses = data.draw(st.lists(st.sampled_from(DIFFERENTIABLE), min_size=runs, max_size=runs))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="data_seed"))
    pool = [
        (rng.normal(0.5, 1.0, size=(n_pos, dimension)), rng.normal(-0.5, 1.0, size=(n_neg, dimension)))
        for _ in seeds
    ]
    # runs may be given the same point arrays, as a grid's losses are
    sets = [pool[data.draw(st.integers(0, position), label="set")] for position in range(runs)]
    configs = [replace(config, seed=seed, loss=loss) for seed, loss in zip(seeds, losses)]

    expected, first_error = [], None
    for (X_pos, X_neg), run_config in zip(sets, configs):
        try:
            expected.append(serial_train(objective, X_pos.copy(), X_neg.copy(), run_config))
        except TrainingDivergedError as exc:
            first_error = first_error or exc
    trainer = train_ber if objective == "ber" else train_auc
    if first_error is not None:
        with pytest.raises(TrainingDivergedError) as caught:
            train_many(trainer, sets, configs)
        assert str(caught.value) == str(first_error)
        return
    traces = train_many(trainer, sets, configs)
    for trace, (params, objective) in zip(traces, expected):
        assert trace.scorer.params.tobytes() == params.tobytes()
        assert trace.objective == objective


class TestTrainMany:
    def test_a_batch_of_one_is_train_ber(self):
        pos, neg = gaussian_sets(McdParams(0.8, 0.3), 60, seed=40)
        config = TrainConfig(objective="ber", epochs=4, batch_size=16, seed=40)
        [trace] = train_many(train_ber, [(pos, neg)], [config])
        alone = train_ber(pos, neg, config)
        assert trace.objective == alone.objective
        assert trace.scorer.params.tobytes() == alone.scorer.params.tobytes()
        assert trace.config == alone.config

    @pytest.mark.parametrize(
        "change, n_neg",
        [(dict(step_size=0.1), 30), (dict(model="mlp"), 30), ({}, 31)],
        ids=["step_size", "model", "point-count"],
    )
    def test_runs_must_share_all_but_the_seed(self, change, n_neg):
        rng = np.random.default_rng(41)
        config = TrainConfig(epochs=1, seed=1)
        sets = [(rng.normal(size=(30, 2)), rng.normal(size=(30, 2))),
                (rng.normal(size=(30, 2)), rng.normal(size=(n_neg, 2)))]
        with pytest.raises(ValueError, match="except seed and loss"):
            train_many(
                train_ber, sets, [config, replace(config, seed=2, loss="logistic", **change)]
            )

    @pytest.mark.parametrize("declared", [0, 2], ids=["none", "two"])
    def test_each_trainer_call_declares_one_run(self, declared):
        def trainer(pos, neg, config):
            for _ in range(declared):
                train_ber(pos, neg, config)

        pos, neg = gaussian_sets(McdParams(0.8, 0.3), 30, seed=42)
        with pytest.raises(ValueError, match="each trainer call must declare exactly one run"):
            train_many(trainer, [(pos, neg)], [TrainConfig(epochs=1, seed=42)])

    @pytest.mark.parametrize("model", ["linear", "mlp"])
    @pytest.mark.parametrize("trainer", [train_ber, train_auc])
    def test_a_mixed_loss_batch_equals_each_loss_batch(self, trainer, model):
        # listed (set, loss, seed), as a grid lists them: every loss trains
        # on the same point arrays
        sets = [gaussian_sets(McdParams(0.8, 0.3), 50, seed=seed) for seed in range(3)]
        config = TrainConfig(epochs=3, batch_size=16, pair_batch=16, model=model)
        losses = ("sigmoid", "logistic")
        runs = [(pair, replace(config, loss=loss, seed=seed))
                for seed, pair in enumerate(sets) for loss in losses]
        mixed = train_many(trainer, *zip(*runs))
        for loss in losses:
            configs = [replace(config, loss=loss, seed=seed) for seed in range(3)]
            alone = train_many(trainer, sets, configs)
            for trace, own in zip([t for t in mixed if t.config.loss == loss], alone):
                assert trace.config == own.config
                assert trace.scorer.params.tobytes() == own.scorer.params.tobytes()
                assert trace.objective == own.objective

    def test_empty_batch(self):
        assert train_many(train_ber, [], []) == []

    def test_a_batch_evaluates_its_objectives_at_doubling_epochs(self, monkeypatch):
        calls = []
        objectives = symloss.training._objectives

        def counted(*args):
            calls.append(None)
            return objectives(*args)

        monkeypatch.setattr(symloss.training, "_objectives", counted)
        sets = [gaussian_sets(McdParams(0.8, 0.3), 40, seed=seed) for seed in range(3)]
        configs = [TrainConfig(epochs=12, batch_size=16, seed=seed) for seed in range(3)]
        train_many(train_ber, sets, configs)
        # once per batch after epochs 1, 2, 4, 8 and 12, not once per epoch
        assert len(calls) == 5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_names_the_first_diverged_run_in_list_order(self):
        # seed 0 diverges at epoch 2 and seed 1 at epoch 1: the whole batch
        # trains, and the error is the first run's, as run alone in order
        sets = [gaussian_sets(McdParams(0.7, 0.4), 120, seed=seed) for seed in (0, 1)]
        config = TrainConfig(
            loss="exponential", adaptive_moments=False, step_size=100.0, epochs=25,
            batch_size=64,
        )
        configs = [replace(config, seed=seed) for seed in (0, 1)]
        for order in ([0, 1], [1, 0]):
            with pytest.raises(TrainingDivergedError) as caught:
                train_many(train_ber, [sets[i] for i in order], [configs[i] for i in order])
            with pytest.raises(TrainingDivergedError) as alone:
                train_ber(*sets[order[0]], configs[order[0]])
            assert str(caught.value) == str(alone.value)
            assert caught.value.run == 0
            epoch = {0: 2, 1: 1}[order[0]]
            assert f"after epoch {epoch} of 25 (loss 'exponential', seed {order[0]}," in str(
                caught.value
            )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_names_the_diverged_run_own_loss(self):
        # the sigmoid run stays finite, the squared run at position 1 diverges
        # after epoch 25 and the exponential run at position 2 after epoch 1;
        # ordered by loss, the stack holds the exponential run first, yet the
        # error is position 1's
        sets = [gaussian_sets(McdParams(0.7, 0.4), 120, seed=seed) for seed in (0, 1)]
        config = TrainConfig(adaptive_moments=False, step_size=1000.0, epochs=25, batch_size=64)
        runs = [(sets[0], replace(config, loss="sigmoid", seed=0)),
                (sets[1], replace(config, loss="squared", seed=1)),
                (sets[0], replace(config, loss="exponential", seed=0))]
        with pytest.raises(TrainingDivergedError) as caught:
            train_many(train_ber, *zip(*runs))
        with pytest.raises(TrainingDivergedError) as alone:
            train_ber(*runs[1][0], runs[1][1])
        assert str(caught.value) == str(alone.value)
        assert caught.value.run == 1
        assert "after epoch 25 of 25 (loss 'squared', seed 1," in str(caught.value)


# a dataclass holding an array compares by identity: its generated __eq__
# would compare the arrays elementwise and raise on the ambiguous result
@pytest.mark.parametrize(
    "make",
    [
        lambda: Scorer.linear(2),
        lambda: build_vectorizer(["a b", "a"]),
        lambda: DiscreteBinaryDistribution([[0.0], [1.0]], [0.8, 0.2], [0.3, 0.7]),
        lambda: SampleSet(np.zeros((2, 2))),
        lambda: GaussianPairConfig([1.5, 1.5], [-1.5, -1.5], [1.0, 1.0], 2),
    ],
    ids=["Scorer", "Vectorizer", "DiscreteBinaryDistribution", "SampleSet", "GaussianPairConfig"],
)
def test_dataclasses_holding_arrays_compare_to_a_bool(make):
    first, twin = make(), make()
    assert (first == first) is True
    assert (first == twin) is False


class TestGradientChecks:
    @pytest.mark.parametrize("name", DIFFERENTIABLE)
    @pytest.mark.parametrize("objective", ["ber", "auc"])
    def test_linear_gradients(self, name, objective):
        rng = np.random.default_rng(20)
        X_pos = rng.normal(0.5, 1.0, size=(40, 3))
        X_neg = rng.normal(-0.5, 1.0, size=(30, 3))
        scorer = Scorer.linear(3)
        value, gradient = make_objective(
            objective, get_loss(name), X_pos, X_neg, scorer, weight_decay=0.01
        )
        err = finite_difference_check(value, gradient, scorer.params, probes=6, seed=1)
        assert err <= 1e-5, f"{name}/{objective}: {err}"

    @pytest.mark.parametrize("name", DIFFERENTIABLE)
    @pytest.mark.parametrize("objective", ["ber", "auc"])
    def test_mlp_gradients(self, name, objective):
        rng = np.random.default_rng(21)
        X_pos = rng.normal(0.5, 1.0, size=(25, 2))
        X_neg = rng.normal(-0.5, 1.0, size=(20, 2))
        scorer = Scorer.mlp(2, 5, rng)
        value, gradient = make_objective(
            objective, get_loss(name), X_pos, X_neg, scorer, weight_decay=0.01
        )
        err = finite_difference_check(value, gradient, scorer.params, probes=6, seed=2)
        assert err <= 1e-4, f"{name}/{objective}: {err}"

    @pytest.mark.parametrize("model", ["linear", "mlp"])
    def test_auc_gradient_across_a_pair_chunk_boundary(self, model):
        # 700 x 50 pairs span two row blocks of the full pairwise gradient
        rng = np.random.default_rng(23)
        X_pos = rng.normal(0.5, 1.0, size=(700, 2))
        X_neg = rng.normal(-0.5, 1.0, size=(50, 2))
        assert len(symloss.risks._row_blocks(len(X_pos), len(X_neg))) == 2
        scorer = Scorer.linear(2) if model == "linear" else Scorer.mlp(2, 3, rng)
        value, gradient = make_objective(
            "auc", get_loss("sigmoid"), X_pos, X_neg, scorer, weight_decay=0.01
        )
        err = finite_difference_check(value, gradient, scorer.params, probes=3, seed=4)
        assert err <= (1e-5 if model == "linear" else 1e-4)

    def test_unhinged_linear_is_machine_precise(self):
        # the objective is quadratic in the parameters (affine scores plus
        # the weight-decay term), and central differences are exact on
        # quadratics up to roundoff
        rng = np.random.default_rng(22)
        X_pos = rng.normal(0.5, 1.0, size=(30, 3))
        X_neg = rng.normal(-0.5, 1.0, size=(30, 3))
        scorer = Scorer.linear(3)
        value, gradient = make_objective(
            "ber", get_loss("unhinged"), X_pos, X_neg, scorer, weight_decay=0.01
        )
        err = finite_difference_check(value, gradient, scorer.params, probes=6, seed=3)
        assert err <= 1e-9

    def test_unknown_objective_raises(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValueError, match="objective must be 'ber' or 'auc', got 'cer'"):
            make_objective("cer", get_loss("sigmoid"), X, X, Scorer.linear(2))


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
        dist = DiscreteBinaryDistribution([[0.0], [1.0]], [0.8, 0.2], [0.3, 0.7])
        params = McdParams(0.8, 0.3)
        corr_pos, corr_neg = corrupt_distribution(dist, params)
        corr = DiscreteBinaryDistribution(dist.support, corr_pos, corr_neg)
        family = list(itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0), repeat=2))

        clean_arg = brute_force_minimizer(
            lambda m: exact_ber_risk(loss, dist, np.array(m)), family
        )
        corr_arg = brute_force_minimizer(
            lambda m: exact_ber_risk(loss, corr, np.array(m)), family
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
            lambda m: exact_ber_risk(loss, dist, np.array(m)), family
        )
        corr_arg = brute_force_minimizer(
            lambda m: exact_ber_risk(loss, corr, np.array(m)), family
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
        assert trace_pu.objective == trace_generic.objective
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
        assert trace_uu.objective == trace_generic.objective
        np.testing.assert_array_equal(trace_uu.scorer.params, trace_generic.scorer.params)


class TestTraceExport:
    @pytest.mark.parametrize("trainer, ran", [(train_ber, "ber"), (train_auc, "auc")])
    def test_trace_records_the_objective_it_ran(self, trainer, ran):
        pos, neg = clean_sets(40, seed=31)
        other = "auc" if ran == "ber" else "ber"
        trace = trainer(pos, neg, TrainConfig(objective=other, epochs=2, seed=31))
        assert trace.config.objective == ran

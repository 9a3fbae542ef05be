"""Risk computations, decomposition identities, and metrics.

The decomposition tests are the package's core guarantee: on finite
supports the corrupted risk and its clean-plus-excess reconstruction are
the same algebraic quantity, so residuals must sit at roundoff scale for
every loss, and the excess must collapse to K*(1-a+b)/2 for symmetric
losses.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symloss.distributions import (
    DiscreteBinaryDistribution,
    McdParams,
    SampleSet,
    corrupt_distribution,
)
from symloss.losses import LOSS_NAMES, LOSSES, SYMMETRIC_LOSS_NAMES, get_loss
from symloss.risks import (
    auc_decomposition_check,
    auc_score,
    ber_decomposition_check,
    classification_metrics,
    empirical_auc_risk,
    empirical_ber_risk,
    exact_auc_risk,
    exact_ber_risk,
    exact_cer_risk,
    symmetric_excess_constant,
)


@pytest.fixture
def two_point_dist():
    return DiscreteBinaryDistribution(
        support=np.array([[0.0], [1.0]]),
        p_pos=np.array([0.8, 0.2]),
        p_neg=np.array([0.3, 0.7]),
        class_prior=0.5,
    )


def random_instance(rng, max_support=5, score_range=3.0):
    """One randomized (distribution, scores, params) triple."""
    m = int(rng.integers(2, max_support + 1))
    support = np.arange(m, dtype=float).reshape(-1, 1)
    p_pos = rng.dirichlet(np.ones(m))
    p_neg = rng.dirichlet(np.ones(m))
    prior = float(rng.uniform(0.1, 0.9))
    dist = DiscreteBinaryDistribution(support, p_pos, p_neg, prior)
    scores = rng.uniform(-score_range, score_range, size=m)
    b = float(rng.uniform(0.0, 0.8))
    a = float(rng.uniform(b + 0.05, 1.0))
    return dist, scores, McdParams(a, b)


def pair_enumeration_auc(scores_pos, scores_neg):
    """Independent oracle: explicit win/tie counting over all pairs."""
    wins = 0.0
    for sp in scores_pos:
        for sn in scores_neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(scores_pos) * len(scores_neg))


class TestEmpiricalBer:
    def test_perfect_separation_zero_one(self):
        pos = SampleSet(np.array([[1.0], [2.0]]), "corr_pos")
        neg = SampleSet(np.array([[-1.0], [-2.0]]), "corr_neg")
        g = lambda X: X[:, 0]
        report = empirical_ber_risk(get_loss("zero_one"), pos, neg, g)
        assert report.value == 0.0

    def test_trivial_constant_scorer_is_half(self):
        pos = SampleSet(np.array([[1.0], [2.0]]), "corr_pos")
        neg = SampleSet(np.array([[-1.0], [-2.0]]), "corr_neg")
        g = lambda X: np.full(X.shape[0], 3.7)
        report = empirical_ber_risk(get_loss("zero_one"), pos, neg, g)
        assert report.value == 0.5

    def test_sigmoid_hand_value(self):
        # both classes scored 1: (1/(1+e) + e/(1+e)) / 2 = 1/2
        pos = SampleSet(np.array([[0.0]]), "corr_pos")
        neg = SampleSet(np.array([[0.0]]), "corr_neg")
        g = lambda X: np.ones(X.shape[0])
        report = empirical_ber_risk(get_loss("sigmoid"), pos, neg, g)
        assert report.value == pytest.approx(0.5, abs=1e-12)
        assert report.components["pos_term"] == pytest.approx(0.2689414213699951, abs=1e-12)
        assert report.components["neg_term"] == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_value_combines_components(self):
        pos = SampleSet(np.array([[0.3], [0.9]]), "corr_pos")
        neg = SampleSet(np.array([[-0.2]]), "corr_neg")
        g = lambda X: X[:, 0]
        report = empirical_ber_risk(get_loss("logistic"), pos, neg, g)
        rebuilt = 0.5 * (report.components["pos_term"] + report.components["neg_term"])
        assert abs(report.value - rebuilt) <= 1e-12

    def test_empty_set_rejected(self):
        pos = SampleSet(np.zeros((0, 1)), "corr_pos")
        neg = SampleSet(np.array([[1.0]]), "corr_neg")
        with pytest.raises(ValueError, match="empty"):
            empirical_ber_risk(get_loss("sigmoid"), pos, neg, lambda X: X[:, 0])


class TestEmpiricalAuc:
    def test_zero_one_pair_enumeration(self):
        pos = SampleSet(np.array([[0.9], [0.4]]), "corr_pos")
        neg = SampleSet(np.array([[0.4], [0.1]]), "corr_neg")
        g = lambda X: X[:, 0]
        report = empirical_auc_risk(get_loss("zero_one"), pos, neg, g)
        # 3 wins, 1 tie at half: (0 + 0 + 0.5 + 0) / 4
        assert report.value == pytest.approx(0.125, abs=1e-15)
        assert report.meta["exact_pairs"] is True

    @pytest.mark.parametrize("name", SYMMETRIC_LOSS_NAMES)
    def test_constant_scorer_gives_half_k(self, name):
        loss = get_loss(name)
        pos = SampleSet(np.array([[1.0], [2.0]]), "corr_pos")
        neg = SampleSet(np.array([[3.0]]), "corr_neg")
        g = lambda X: np.zeros(X.shape[0])
        report = empirical_auc_risk(loss, pos, neg, g)
        assert report.value == pytest.approx(loss.symmetry_constant / 2.0, abs=1e-12)

    def test_sigmoid_single_pair(self):
        pos = SampleSet(np.array([[0.0]]), "corr_pos")
        neg = SampleSet(np.array([[1.0]]), "corr_neg")
        g = lambda X: 1.0 - X[:, 0]  # pos scores 1, neg scores 0
        report = empirical_auc_risk(get_loss("sigmoid"), pos, neg, g)
        assert report.value == pytest.approx(0.2689414213699951, abs=1e-12)

    def test_subsampled_path_close_and_reported(self):
        rng = np.random.default_rng(5)
        pos = SampleSet(rng.normal(1.0, 1.0, size=(300, 1)), "corr_pos")
        neg = SampleSet(rng.normal(-1.0, 1.0, size=(300, 1)), "corr_neg")
        g = lambda X: X[:, 0]
        exact = empirical_auc_risk(get_loss("sigmoid"), pos, neg, g)
        sub = empirical_auc_risk(
            get_loss("sigmoid"), pos, neg, g, max_pairs=20_000, seed=1
        )
        assert sub.meta["exact_pairs"] is False
        assert sub.meta["pairs"] == 20_000
        assert abs(sub.value - exact.value) <= 0.02


class TestExactRisks:
    def test_sigmoid_two_point(self, two_point_dist):
        report = exact_ber_risk(get_loss("sigmoid"), two_point_dist, np.array([1.0, -1.0]))
        # frozen from the exact-expectation oracle: (0.36136485 + 0.40757657) / 2
        assert report.value == pytest.approx(0.38447071068499755, abs=1e-12)
        assert report.components["pos_term"] == pytest.approx(0.36136485282199704, abs=1e-12)
        assert report.components["neg_term"] == pytest.approx(0.40757656854799806, abs=1e-12)

    def test_zero_one_two_point(self, two_point_dist):
        report = exact_ber_risk(get_loss("zero_one"), two_point_dist, np.array([1.0, -1.0]))
        assert report.value == pytest.approx(0.25, abs=1e-15)

    def test_all_ties_scorer(self, two_point_dist):
        report = exact_ber_risk(get_loss("zero_one"), two_point_dist, np.zeros(2))
        assert report.value == 0.5

    def test_cer_equals_ber_when_balanced(self, two_point_dist):
        scores = np.array([0.4, -1.3])
        loss = get_loss("logistic")
        assert exact_cer_risk(loss, two_point_dist, scores).value == pytest.approx(
            exact_ber_risk(loss, two_point_dist, scores).value, abs=1e-15
        )

    def test_cer_two_point_zero_one(self, two_point_dist):
        report = exact_cer_risk(get_loss("zero_one"), two_point_dist, np.array([1.0, -1.0]))
        assert report.value == pytest.approx(0.25, abs=1e-15)

    def test_cer_always_positive_scorer_with_skewed_prior(self):
        # always-positive prediction on a 99%-positive population
        dist = DiscreteBinaryDistribution(
            [[0.0], [1.0]], [0.5, 0.5], [0.5, 0.5], class_prior=0.99
        )
        report = exact_cer_risk(get_loss("zero_one"), dist, np.array([1.0, 1.0]))
        assert report.value == pytest.approx(0.01, abs=1e-15)

    def test_scorer_callable_accepted(self, two_point_dist):
        g = lambda X: 2.0 * X[:, 0] - 1.0
        by_callable = exact_auc_risk(get_loss("sigmoid"), two_point_dist, g)
        by_array = exact_auc_risk(get_loss("sigmoid"), two_point_dist, np.array([-1.0, 1.0]))
        assert by_callable.value == by_array.value


class TestBerDecomposition:
    def test_sigmoid_hand_instance(self, two_point_dist):
        check = ber_decomposition_check(
            get_loss("sigmoid"), two_point_dist, np.array([1.0, -1.0]), McdParams(0.9, 0.2)
        )
        assert check.lhs == pytest.approx(0.4191294974794983, abs=1e-12)
        assert check.rhs == pytest.approx(0.7 * 0.38447071068499755 + 0.15, abs=1e-12)
        assert check.residual <= 1e-12
        assert check.components["excess"] == pytest.approx(0.15, abs=1e-12)

    def test_logistic_same_instance(self, two_point_dist):
        check = ber_decomposition_check(
            get_loss("logistic"), two_point_dist, np.array([1.0, -1.0]), McdParams(0.9, 0.2)
        )
        assert check.residual <= 1e-12
        # non-symmetric loss: the excess is not the symmetric constant
        assert abs(check.components["excess"] - 0.15) > 1e-3

    def test_clean_limit_recovers_clean_risk(self, two_point_dist):
        scores = np.array([0.7, -0.4])
        loss = get_loss("sigmoid")
        check = ber_decomposition_check(loss, two_point_dist, scores, McdParams(1.0, 0.0))
        clean = exact_ber_risk(loss, two_point_dist, scores).value
        assert check.lhs == pytest.approx(clean, abs=1e-15)
        assert check.rhs == pytest.approx(clean, abs=1e-15)

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_residuals_at_roundoff_for_all_losses(self, name):
        loss = get_loss(name)
        rng = np.random.default_rng(101)
        for _ in range(25):
            dist, scores, params = random_instance(rng)
            check = ber_decomposition_check(loss, dist, scores, params)
            assert check.residual <= 1e-10

    @pytest.mark.parametrize("name", SYMMETRIC_LOSS_NAMES)
    def test_symmetric_excess_constant(self, name):
        loss = get_loss(name)
        rng = np.random.default_rng(77)
        for _ in range(25):
            dist, scores, params = random_instance(rng)
            check = ber_decomposition_check(loss, dist, scores, params)
            expected = symmetric_excess_constant(loss, params)
            assert abs(check.components["excess"] - expected) <= 1e-12


class TestAucDecomposition:
    def test_sigmoid_hand_instance(self, two_point_dist):
        check = auc_decomposition_check(
            get_loss("sigmoid"), two_point_dist, np.array([1.0, -1.0]), McdParams(0.9, 0.2)
        )
        assert check.residual <= 1e-12
        assert check.components["excess"] == pytest.approx(0.15, abs=1e-12)

    def test_squared_same_instance(self, two_point_dist):
        check = auc_decomposition_check(
            get_loss("squared"), two_point_dist, np.array([1.0, -1.0]), McdParams(0.9, 0.2)
        )
        assert check.residual <= 1e-12

    def test_clean_limit(self, two_point_dist):
        scores = np.array([0.9, -0.3])
        loss = get_loss("sigmoid")
        check = auc_decomposition_check(loss, two_point_dist, scores, McdParams(1.0, 0.0))
        clean = exact_auc_risk(loss, two_point_dist, scores).value
        assert check.lhs == pytest.approx(clean, abs=1e-15)

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_residuals_at_roundoff_for_all_losses(self, name):
        loss = get_loss(name)
        rng = np.random.default_rng(202)
        for _ in range(25):
            dist, scores, params = random_instance(rng)
            check = auc_decomposition_check(loss, dist, scores, params)
            assert check.residual <= 1e-10

    @pytest.mark.parametrize("name", SYMMETRIC_LOSS_NAMES)
    def test_symmetric_excess_constant(self, name):
        loss = get_loss(name)
        rng = np.random.default_rng(303)
        for _ in range(25):
            dist, scores, params = random_instance(rng)
            check = auc_decomposition_check(loss, dist, scores, params)
            expected = symmetric_excess_constant(loss, params)
            assert abs(check.components["excess"] - expected) <= 1e-12


class TestAffineLinkAndMinimizers:
    """Corrupted risk = separation * clean risk + constant, per scorer."""

    @pytest.mark.parametrize("name", SYMMETRIC_LOSS_NAMES)
    @pytest.mark.parametrize("risk", ["ber", "auc"])
    def test_affine_link(self, name, risk):
        loss = get_loss(name)
        check_fn = ber_decomposition_check if risk == "ber" else auc_decomposition_check
        rng = np.random.default_rng(404)
        for _ in range(10):
            dist, scores, params = random_instance(rng)
            check = check_fn(loss, dist, scores, params)
            intercept = symmetric_excess_constant(loss, params)
            reconstructed = params.separation * check.components["clean_risk"] + intercept
            assert abs(check.lhs - reconstructed) <= 1e-12

    @pytest.mark.parametrize("name", SYMMETRIC_LOSS_NAMES)
    def test_minimizer_identity_over_enumerated_family(self, name):
        loss = get_loss(name)
        rng = np.random.default_rng(505)
        family = list(itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0), repeat=2))
        for _ in range(5):
            dist, _, params = random_instance(rng, max_support=2)
            corr_pos, corr_neg = corrupt_distribution(dist, params)
            corr = DiscreteBinaryDistribution(dist.support, corr_pos, corr_neg)
            for risk_fn in (exact_ber_risk, exact_auc_risk):
                clean_vals = [risk_fn(loss, dist, np.array(m)).value for m in family]
                corr_vals = [risk_fn(loss, corr, np.array(m)).value for m in family]
                clean_best = min(clean_vals)
                corr_best = min(corr_vals)
                clean_arg = {m for m, v in zip(family, clean_vals) if v <= clean_best + 1e-12}
                corr_arg = {m for m, v in zip(family, corr_vals) if v <= corr_best + 1e-12}
                assert clean_arg == corr_arg


class TestAucScore:
    def test_hand_example(self):
        assert auc_score([0.9, 0.4], [0.4, 0.1]) == pytest.approx(0.875, abs=1e-15)

    def test_all_ties(self):
        assert auc_score([1.0, 1.0, 1.0], [1.0, 1.0]) == 0.5

    def test_perfect_separation(self):
        assert auc_score([3.0, 2.0], [1.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            auc_score([], [1.0])

    def test_rank_method_equals_pair_enumeration(self):
        rng = np.random.default_rng(606)
        for _ in range(200):
            n_pos = int(rng.integers(1, 60))
            n_neg = int(rng.integers(1, 60))
            if rng.random() < 0.5:
                pos = rng.normal(size=n_pos)
                neg = rng.normal(size=n_neg)
            else:
                # heavy ties from a coarse integer grid
                pos = rng.integers(0, 4, size=n_pos).astype(float)
                neg = rng.integers(0, 4, size=n_neg).astype(float)
            assert auc_score(pos, neg) == pair_enumeration_auc(pos, neg)

    def test_complement_of_zero_one_risk(self):
        rng = np.random.default_rng(707)
        pos = rng.normal(1.0, 1.0, size=40)
        neg = rng.normal(0.0, 1.0, size=30)
        report = empirical_auc_risk(
            get_loss("zero_one"),
            SampleSet(pos.reshape(-1, 1), "corr_pos"),
            SampleSet(neg.reshape(-1, 1), "corr_neg"),
            lambda X: X[:, 0],
        )
        assert auc_score(pos, neg) == pytest.approx(1.0 - report.value, abs=1e-12)

    # a coarse grid of values gives many ties, within and across the classes
    GRID_SCORES = st.lists(
        st.sampled_from([-2.0, -0.5, 0.0, 0.0, 0.25, 1.0, 3.0]) | st.floats(-5.0, 5.0),
        min_size=1,
        max_size=40,
    )

    @given(GRID_SCORES, GRID_SCORES)
    @settings(max_examples=300, deadline=None)
    def test_equals_exhaustive_pair_count_exactly(self, pos, neg):
        assert auc_score(pos, neg) == pair_enumeration_auc(pos, neg)

    @given(GRID_SCORES, GRID_SCORES, st.sampled_from([math.nan, math.inf, -math.inf]),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_non_finite_score_rejected(self, pos, neg, bad, in_pos):
        (pos if in_pos else neg).append(bad)
        with pytest.raises(ValueError, match="finite"):
            auc_score(pos, neg)


class TestEmpiricalConvergence:
    """Sampling from the finite support reproduces the exact risks."""

    def _sample_class(self, rng, dist, density, n):
        idx = rng.choice(dist.size, size=n, p=density)
        return dist.support[idx]

    def test_ber_within_five_standard_errors(self, two_point_dist):
        loss = get_loss("sigmoid")
        scores = np.array([0.8, -1.1])
        g = lambda X: np.where(X[:, 0] < 0.5, scores[0], scores[1])
        exact = exact_ber_risk(loss, two_point_dist, scores).value

        n = 100_000
        rng = np.random.default_rng(808)
        pos = SampleSet(self._sample_class(rng, two_point_dist, two_point_dist.p_pos, n), "corr_pos")
        neg = SampleSet(self._sample_class(rng, two_point_dist, two_point_dist.p_neg, n), "corr_neg")
        empirical = empirical_ber_risk(loss, pos, neg, g).value

        # exact per-class loss variances from the distribution itself
        lp = loss.value(scores)
        ln = loss.value(-scores)
        var_pos = float(two_point_dist.p_pos @ lp**2 - (two_point_dist.p_pos @ lp) ** 2)
        var_neg = float(two_point_dist.p_neg @ ln**2 - (two_point_dist.p_neg @ ln) ** 2)
        se = 0.5 * math.sqrt(var_pos / n + var_neg / n)
        assert abs(empirical - exact) <= 5.0 * se

    def test_auc_within_five_standard_errors(self, two_point_dist):
        loss = get_loss("sigmoid")
        scores = np.array([0.8, -1.1])
        g = lambda X: np.where(X[:, 0] < 0.5, scores[0], scores[1])
        exact = exact_auc_risk(loss, two_point_dist, scores).value

        n = 3000
        rng = np.random.default_rng(909)
        pos = SampleSet(self._sample_class(rng, two_point_dist, two_point_dist.p_pos, n), "corr_pos")
        neg = SampleSet(self._sample_class(rng, two_point_dist, two_point_dist.p_neg, n), "corr_neg")
        empirical = empirical_auc_risk(loss, pos, neg, g).value

        # exact variance of the mean-over-all-pairs statistic
        h = loss.value(scores[:, None] - scores[None, :])
        p, q = two_point_dist.p_pos, two_point_dist.p_neg
        mean_h = float(p @ h @ q)
        var_h = float(p @ h**2 @ q) - mean_h**2
        row_means = h @ q
        col_means = p @ h
        zeta_pos = float(p @ row_means**2) - mean_h**2
        zeta_neg = float(q @ col_means**2) - mean_h**2
        var_u = (var_h + (n - 1) * zeta_pos + (n - 1) * zeta_neg) / (n * n)
        assert abs(empirical - exact) <= 5.0 * math.sqrt(var_u)


class TestClassificationMetrics:
    def test_harmonic_mean_example(self):
        out = classification_metrics([1, -1, -1], [1, 1, -1])
        assert out["recall"] == pytest.approx(0.5)
        assert out["precision"] == 1.0
        assert out["f1"] == pytest.approx(2.0 / 3.0)

    def test_always_positive_on_imbalanced_truth(self):
        truth = np.concatenate([np.ones(99, dtype=int), [-1]])
        predicted = np.ones(100, dtype=int)
        out = classification_metrics(predicted, truth)
        assert out["cer"] == pytest.approx(0.01)
        assert out["ber"] == pytest.approx(0.5)

    def test_perfect_prediction(self):
        truth = [1, -1, 1, -1]
        out = classification_metrics(truth, truth)
        assert out["cer"] == 0.0
        assert out["ber"] == 0.0
        assert out["f1"] == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            classification_metrics([1, -1], [1])

    def test_single_class_truth_flagged(self):
        out = classification_metrics([1, -1], [1, 1])
        assert "ber" in out["undefined"]
        assert math.isnan(out["ber"])
        out = classification_metrics([1, -1], [-1, -1])
        assert "ber" in out["undefined"] and "f1" in out["undefined"]

    def test_f1_zero_when_no_positive_predictions_hit(self):
        out = classification_metrics([-1, -1], [1, -1])
        assert out["f1"] == 0.0


class TestReportSerialization:
    def test_risk_report_json_fields(self, two_point_dist):
        report = exact_ber_risk(get_loss("sigmoid"), two_point_dist, np.array([1.0, -1.0]))
        data = report.to_dict()
        assert set(data) == {"value", "components", "meta"}

    def test_decomposition_json_fields(self, two_point_dist):
        check = ber_decomposition_check(
            get_loss("sigmoid"), two_point_dist, np.array([1.0, -1.0]), McdParams(0.9, 0.2)
        )
        data = check.to_dict()
        assert set(data) == {"value", "components", "residual", "meta"}
        assert data["residual"] == check.residual

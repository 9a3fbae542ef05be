"""Threshold selection, tie handling, and the breakeven property."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symloss.risks import classification_metrics
from symloss.threshold import (
    ThresholdResult,
    classify_scores,
    default_threshold,
    heuristic_threshold,
    select_threshold,
)


class TestSelectThreshold:
    def test_hand_example(self):
        result = select_threshold([0.9, 0.7, 0.6, 0.2], target_prior=0.25)
        assert result.beta == pytest.approx(0.8)
        assert result.achieved_positive_fraction == 0.25
        assert result.method == "breakeven_known_prior"
        assert not result.degenerate

    def test_symmetric_split(self):
        result = select_threshold([1.0, 2.0, 3.0, 4.0], target_prior=0.5)
        assert result.beta == pytest.approx(2.5)
        assert result.achieved_positive_fraction == 0.5

    def test_k_zero_puts_beta_above_max(self):
        result = select_threshold([5.0, 1.0, 0.0], target_prior=0.1)
        assert result.beta > 5.0
        assert result.achieved_positive_fraction == 0.0

    def test_k_n_puts_beta_below_min(self):
        result = select_threshold([5.0, 1.0, 0.0], target_prior=0.9)
        assert result.beta < 0.0
        assert result.achieved_positive_fraction == 1.0

    def test_all_equal_scores_flagged_degenerate(self):
        result = select_threshold([2.0, 2.0, 2.0, 2.0], target_prior=0.5)
        assert result.degenerate
        assert result.beta < 2.0
        assert result.achieved_positive_fraction == 1.0

    def test_partial_ties_straddling_cutoff_flagged(self):
        result = select_threshold([2.0, 1.0, 1.0, 0.0], target_prior=0.5)
        assert result.degenerate
        # midpoint of tied scores leaves only the strict winners above
        assert result.achieved_positive_fraction == 0.25

    def test_round_half_up(self):
        # prior 0.375 on n = 4 gives k = round(1.5) = 2
        result = select_threshold([4.0, 3.0, 2.0, 1.0], target_prior=0.375)
        assert result.achieved_positive_fraction == 0.5

    def test_input_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            select_threshold([], 0.5)
        with pytest.raises(ValueError, match="prior"):
            select_threshold([1.0], 0.0)
        with pytest.raises(ValueError, match="prior"):
            select_threshold([1.0], 1.0)

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=60),
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_prior(self, scores, prior_a, prior_b):
        low, high = sorted((prior_a, prior_b))
        frac_low = select_threshold(scores, low).achieved_positive_fraction
        frac_high = select_threshold(scores, high).achieved_positive_fraction
        assert frac_low <= frac_high

    @pytest.mark.parametrize(
        "scores, prior, fraction, degenerate",
        [
            ([1e17, 2e17], 0.99, 1.0, False),  # min - 1.0 does not move
            ([3e17] * 3, 0.5, 1.0, True),  # all equal: everything positive
            ([1.0000000000000004, 1.0000000000000002], 0.5, 0.5, False),  # midpoint rounds up
            ([1.5e308, 1e308, -1e308], 0.34, 1 / 3, False),  # midpoint overflows
            ([-sys.float_info.max] * 2, 0.99, 0.0, True),  # no finite cutoff lies below
        ],
        ids=["k-n-large", "all-equal-large", "adjacent", "overflow", "lowest-float"],
    )
    def test_cutoff_separates_where_offsets_and_midpoints_fail(
        self, scores, prior, fraction, degenerate
    ):
        result = select_threshold(scores, prior)
        assert math.isfinite(result.beta)
        assert result.achieved_positive_fraction == fraction
        assert result.degenerate == degenerate

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([1e308, -1e308, 1.5e308, -1.5e308, 3e17, 1.0]),
            min_size=1, max_size=12,
        ),
        st.lists(st.integers(-2, 2), max_size=12),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=400, deadline=None)
    def test_achieved_fraction_invariants(self, base, steps, prior):
        # each base score is joined by its float neighbour ``step`` places
        # away, so adjacent and tied scores are common
        scores = list(base)
        for x, step in zip(base, steps):
            for _ in range(abs(step)):
                x = math.nextafter(x, math.copysign(math.inf, step))
            if math.isfinite(x):
                scores.append(x)
        result = select_threshold(scores, prior)
        values = np.array(scores)
        n = len(scores)
        k = math.floor(prior * n + 0.5)
        ordered = np.sort(values)[::-1]

        assert math.isfinite(result.beta)
        assert result.achieved_positive_fraction == np.mean(values > result.beta)
        if not result.degenerate:
            assert result.achieved_positive_fraction == k / n
        if 0 < k < n:
            assert result.degenerate == (ordered[k - 1] == ordered[k])
        elif k == n:
            assert result.degenerate == (ordered[-1] == -sys.float_info.max)
        else:
            assert not result.degenerate


class TestHeuristicAndDefault:
    def test_delegates_to_ratio(self):
        scores = [0.9, 0.7, 0.6, 0.2]
        via_ratio = heuristic_threshold(50, 100, scores)
        direct = select_threshold(scores, 0.5)
        assert via_ratio.beta == direct.beta
        assert via_ratio.method == "heuristic_pseudo_ratio"

    def test_quarter_ratio(self):
        result = heuristic_threshold(25, 100, [0.9, 0.7, 0.6, 0.2])
        assert result.beta == pytest.approx(0.8)

    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            heuristic_threshold(0, 100, [1.0])
        with pytest.raises(ValueError):
            heuristic_threshold(100, 100, [1.0])

    def test_default_zero(self):
        result = default_threshold([-1.0, 0.5, 2.0])
        assert result.beta == 0.0
        assert result.method == "default_zero"
        assert result.achieved_positive_fraction == pytest.approx(2.0 / 3.0)


class TestClassify:
    def test_strict_inequality(self):
        np.testing.assert_array_equal(classify_scores([0.9, 0.8], 0.8), [1, -1])

    def test_beta_above_all_scores(self):
        scores = np.array([0.1, 0.5, 0.9])
        np.testing.assert_array_equal(classify_scores(scores, 1.0), [-1, -1, -1])


class TestBreakevenProperty:
    def test_precision_equals_recall_at_true_prior(self):
        # distinct scores, prior equal to the evaluation set's true
        # positive fraction: predicted-positive count matches the actual
        # positive count, so precision and recall coincide up to 1/n_pos
        rng = np.random.default_rng(42)
        n_pos, n_neg = 30, 70
        scores = np.concatenate(
            [rng.normal(1.0, 1.0, size=n_pos), rng.normal(-1.0, 1.0, size=n_neg)]
        )
        truth = np.concatenate([np.ones(n_pos, dtype=int), -np.ones(n_neg, dtype=int)])
        result = select_threshold(scores, target_prior=n_pos / (n_pos + n_neg))
        predicted = classify_scores(scores, result.beta)
        metrics = classification_metrics(predicted, truth)
        assert abs(metrics["precision"] - metrics["recall"]) <= 1.0 / n_pos

    def test_result_serializes(self):
        result = select_threshold([3.0, 2.0, 1.0], 0.4)
        data = result.to_dict()
        assert set(data) == {"beta", "achieved_positive_fraction", "method", "degenerate"}


class TestResultValidation:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            ThresholdResult(0.0, 1.5, "default_zero")

    def test_method_vocabulary(self):
        with pytest.raises(ValueError):
            ThresholdResult(0.0, 0.5, "oracle")

"""Corruption model: exact mixtures, sampling, PU/UU reductions."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

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


@pytest.fixture
def two_point_dist():
    return DiscreteBinaryDistribution(
        support=np.array([[0.0], [1.0]]),
        p_pos=np.array([0.8, 0.2]),
        p_neg=np.array([0.3, 0.7]),
    )


@pytest.fixture
def gaussian_samplers():
    config = GaussianPairConfig(
        mean_pos=np.array([1.0, 1.0]),
        mean_neg=np.array([-1.0, -1.0]),
        covariance=np.array([1.0, 1.0]),
        dimension=2,
    )
    return config.samplers()


class TestMcdParams:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="pi_corr_pos > pi_corr_neg"):
            McdParams(pi_corr_pos=0.5, pi_corr_neg=0.5)
        with pytest.raises(ValueError):
            McdParams(pi_corr_pos=0.3, pi_corr_neg=0.7)

    def test_bounds(self):
        with pytest.raises(ValueError):
            McdParams(pi_corr_pos=1.2, pi_corr_neg=0.1)
        with pytest.raises(ValueError):
            McdParams(pi_corr_pos=0.8, pi_corr_neg=-0.1)
        # clean-data limit is a valid parameterization
        clean = McdParams(pi_corr_pos=1.0, pi_corr_neg=0.0)
        assert clean.separation == 1.0

    def test_pu_reduction(self):
        params = pu_params(0.4)
        assert params == McdParams(1.0, 0.4)
        assert pu_params(0.999) == McdParams(1.0, 0.999)
        with pytest.raises(ValueError):
            pu_params(1.0)
        with pytest.raises(ValueError):
            pu_params(0.0)

    def test_uu_reduction(self):
        assert uu_params(0.7, 0.3) == McdParams(0.7, 0.3)
        with pytest.raises(ValueError):
            uu_params(0.5, 0.5)
        with pytest.raises(ValueError):
            uu_params(0.3, 0.7)

    # the PU/UU demos train a reduced and a generic run per seed and check
    # that their traces agree; these equalities are why they always do
    OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)

    @given(OPEN_UNIT)
    def test_pu_params_are_the_generic_parameters(self, p):
        assert pu_params(p) == McdParams(1.0, p)

    @given(OPEN_UNIT, OPEN_UNIT)
    def test_uu_params_are_the_generic_parameters(self, a, b):
        assume(a != b)
        a, b = max(a, b), min(a, b)
        assert uu_params(a, b) == McdParams(a, b)


class TestDiscreteBinaryDistribution:
    def test_density_validation(self):
        with pytest.raises(ValueError, match="sums to"):
            DiscreteBinaryDistribution([[0.0], [1.0]], [0.8, 0.1], [0.3, 0.7])
        with pytest.raises(ValueError, match="negative"):
            DiscreteBinaryDistribution([[0.0], [1.0]], [1.2, -0.2], [0.3, 0.7])
        with pytest.raises(ValueError, match="distinct"):
            DiscreteBinaryDistribution([[1.0], [1.0]], [0.5, 0.5], [0.3, 0.7])
        # a NaN sum is not more than 1e-12 away from 1, and NaN is not negative
        for support, p_pos, p_neg in [
            ([[0.0], [1.0]], [np.nan, 1.0], [0.5, 0.5]),
            ([[0.0], [1.0]], [0.5, 0.5], [0.5, np.nan]),
            ([[np.nan], [1.0]], [0.5, 0.5], [0.3, 0.7]),
            ([[0.0], [np.inf]], [0.5, 0.5], [0.3, 0.7]),
        ]:
            with pytest.raises(ValueError, match="finite"):
                DiscreteBinaryDistribution(support, p_pos, p_neg)

    def test_scalar_support_promoted(self):
        dist = DiscreteBinaryDistribution([0.0, 1.0, 2.0], [0.2, 0.3, 0.5], [0.6, 0.3, 0.1])
        assert dist.support.shape == (3, 1)


class TestCorruptDistribution:
    def test_clean_limit(self, two_point_dist):
        dist = DiscreteBinaryDistribution([[0.0], [1.0]], [1.0, 0.0], [0.0, 1.0])
        corr_pos, corr_neg = corrupt_distribution(dist, McdParams(1.0, 0.0))
        np.testing.assert_allclose(corr_pos, [1.0, 0.0])
        np.testing.assert_allclose(corr_neg, [0.0, 1.0])

    def test_hand_mixed_density(self, two_point_dist):
        # 0.9 * 0.8 + 0.1 * 0.3 = 0.75 worked by hand
        corr_pos, _ = corrupt_distribution(two_point_dist, McdParams(0.9, 0.2))
        np.testing.assert_allclose(corr_pos, [0.75, 0.25], atol=1e-15)

    def test_outputs_are_densities(self, two_point_dist):
        rng = np.random.default_rng(11)
        for _ in range(50):
            b = rng.uniform(0.0, 0.8)
            a = rng.uniform(b + 0.05, 1.0)
            corr_pos, corr_neg = corrupt_distribution(two_point_dist, McdParams(a, b))
            for density in (corr_pos, corr_neg):
                assert abs(density.sum() - 1.0) <= 1e-12
                assert np.all(density >= 0.0) and np.all(density <= 1.0)


class TestSampleMcd:
    def test_clean_limit_labels(self, gaussian_samplers):
        pos, neg = sample_mcd(*gaussian_samplers, McdParams(1.0, 0.0), 50, 60, seed=3)
        assert np.all(pos.hidden_labels == 1)
        assert np.all(neg.hidden_labels == -1)
        assert len(pos) == 50 and len(neg) == 60

    def test_mixture_proportion_concentrates(self, gaussian_samplers):
        n = 100_000
        params = McdParams(0.8, 0.3)
        pos, neg = sample_mcd(*gaussian_samplers, params, n, n, seed=12345)
        # binomial three-sigma bands around the requested proportions
        for sample_set, pi in ((pos, 0.8), (neg, 0.3)):
            sigma = np.sqrt(pi * (1.0 - pi) / n)
            assert abs(sample_set.positive_fraction - pi) <= 3.0 * sigma
        assert abs(pos.positive_fraction - 0.8) <= 0.005

    def test_deterministic_given_seed(self, gaussian_samplers):
        first = sample_mcd(*gaussian_samplers, McdParams(0.7, 0.2), 200, 200, seed=9)
        second = sample_mcd(*gaussian_samplers, McdParams(0.7, 0.2), 200, 200, seed=9)
        np.testing.assert_array_equal(first[0].points, second[0].points)
        np.testing.assert_array_equal(first[1].points, second[1].points)
        np.testing.assert_array_equal(first[0].hidden_labels, second[0].hidden_labels)

    def test_different_seeds_differ(self, gaussian_samplers):
        first = sample_mcd(*gaussian_samplers, McdParams(0.7, 0.2), 50, 50, seed=1)
        second = sample_mcd(*gaussian_samplers, McdParams(0.7, 0.2), 50, 50, seed=2)
        assert not np.array_equal(first[0].points, second[0].points)

    def test_counts_validated(self, gaussian_samplers):
        with pytest.raises(ValueError, match=">= 1"):
            sample_mcd(*gaussian_samplers, McdParams(0.8, 0.2), 0, 10, seed=0)


class TestSampleSet:
    def test_label_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            SampleSet(points=np.zeros((3, 2)), hidden_labels=[1, -1])

    def test_a_label_column_fails_the_length_check(self):
        with pytest.raises(ValueError, match="^hidden_labels length must match points$"):
            SampleSet(points=np.zeros((2, 1)), hidden_labels=np.array([[1], [-1]]))

    # each was stored, truncated or cast, as +1 or -1 before the label rule
    @pytest.mark.parametrize("labels", [[1.7, -1.2], [True, True]], ids=["fractions", "bools"])
    def test_a_label_other_than_plus_or_minus_one_is_rejected(self, labels):
        with pytest.raises(ValueError, match="^hidden labels must be \\+1 or -1$"):
            SampleSet(points=np.zeros((2, 1)), hidden_labels=labels)

    def test_whole_valued_float_labels_are_stored_as_ints(self):
        labels = SampleSet(points=np.zeros((3, 1)), hidden_labels=[1.0, -1.0, 1.0]).hidden_labels
        assert labels.dtype == int and labels.tolist() == [1, -1, 1]


class TestPointRule:
    """A 1-D length-n input is n scalar points, not one n-dim point."""

    @pytest.mark.parametrize("build", [
        lambda flat: SampleSet(flat).points,
        lambda flat: DiscreteBinaryDistribution(flat, [0.2, 0.3, 0.5], [0.6, 0.3, 0.1]).support,
    ], ids=["sample-set", "support"])
    def test_a_flat_input_is_n_scalar_points(self, build):
        flat = [0.0, 1.0, 2.0]
        points = build(flat)
        assert points.shape == (3, 1) and points.dtype == float
        np.testing.assert_array_equal(points, build(np.array(flat).reshape(-1, 1)))


class TestGaussianPairConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="covariance"):
            GaussianPairConfig([0.0], [1.0], [1.0, 2.0], dimension=1)
        with pytest.raises(ValueError, match="positive"):
            GaussianPairConfig([0.0], [1.0], [0.0], dimension=1)
        # cov <= 0 is false for NaN
        for mean_pos, mean_neg, cov in [
            ([np.nan], [1.0], [1.0]),
            ([0.0], [np.inf], [1.0]),
            ([-np.inf], [1.0], [1.0]),
            ([0.0], [1.0], [np.nan]),
            ([0.0], [1.0], [np.inf]),
        ]:
            with pytest.raises(ValueError, match="finite"):
                GaussianPairConfig(mean_pos, mean_neg, cov, dimension=1)

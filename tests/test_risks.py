"""Risk computations, decomposition identities, and metrics.

The decomposition tests are the package's core guarantee: on finite
supports the corrupted risk and its clean-plus-excess reconstruction are
the same algebraic quantity, so residuals must sit at roundoff scale for
every loss, and the excess must collapse to K*(1-a+b)/2 for symmetric
losses.
"""

import dataclasses
import functools
import itertools
import math
import threading
import tracemalloc
import warnings

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
import symloss.risks
from symloss.risks import (
    auc_decomposition_check,
    auc_score,
    ber_decomposition_check,
    classification_metrics,
    empirical_ber_risk,
    exact_auc_risk,
    exact_ber_risk,
    pairwise_mean_loss,
    symmetric_excess_constant,
)


@pytest.fixture
def two_point_dist():
    return DiscreteBinaryDistribution(
        support=np.array([[0.0], [1.0]]),
        p_pos=np.array([0.8, 0.2]),
        p_neg=np.array([0.3, 0.7]),
    )


def random_instance(rng, max_support=5, score_range=3.0):
    """One randomized (distribution, scores, params) triple."""
    m = int(rng.integers(2, max_support + 1))
    support = np.arange(m, dtype=float).reshape(-1, 1)
    p_pos = rng.dirichlet(np.ones(m))
    p_neg = rng.dirichlet(np.ones(m))
    rng.uniform(0.1, 0.9)  # unused; dropping it would change every later draw
    dist = DiscreteBinaryDistribution(support, p_pos, p_neg)
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
        pos = SampleSet(np.array([[1.0], [2.0]]))
        neg = SampleSet(np.array([[-1.0], [-2.0]]))
        g = lambda X: X[:, 0]
        risk = empirical_ber_risk(get_loss("zero_one"), g(pos.points), g(neg.points))
        assert risk == 0.0

    def test_trivial_constant_scorer_is_half(self):
        pos = SampleSet(np.array([[1.0], [2.0]]))
        neg = SampleSet(np.array([[-1.0], [-2.0]]))
        g = lambda X: np.full(X.shape[0], 3.7)
        risk = empirical_ber_risk(get_loss("zero_one"), g(pos.points), g(neg.points))
        assert risk == 0.5

    def test_sigmoid_hand_value(self):
        # both classes scored 1: (1/(1+e) + e/(1+e)) / 2 = 1/2
        pos = SampleSet(np.array([[0.0]]))
        neg = SampleSet(np.array([[0.0]]))
        g = lambda X: np.ones(X.shape[0])
        risk = empirical_ber_risk(get_loss("sigmoid"), g(pos.points), g(neg.points))
        assert risk == pytest.approx(0.5, abs=1e-12)

    def test_empty_set_rejected(self):
        pos = SampleSet(np.zeros((0, 1)))
        neg = SampleSet(np.array([[1.0]]))
        g = lambda X: X[:, 0]
        with pytest.raises(ValueError, match="empty"):
            empirical_ber_risk(get_loss("sigmoid"), g(pos.points), g(neg.points))


class TestEmpiricalAuc:
    def test_zero_one_pair_enumeration(self):
        pos = SampleSet(np.array([[0.9], [0.4]]))
        neg = SampleSet(np.array([[0.4], [0.1]]))
        g = lambda X: X[:, 0]
        risk = pairwise_mean_loss(get_loss("zero_one"), g(pos.points), g(neg.points))
        # 3 wins, 1 tie at half: (0 + 0 + 0.5 + 0) / 4
        assert risk == pytest.approx(0.125, abs=1e-15)

    @pytest.mark.parametrize("name", SYMMETRIC_LOSS_NAMES)
    def test_constant_scorer_gives_half_k(self, name):
        loss = get_loss(name)
        pos = SampleSet(np.array([[1.0], [2.0]]))
        neg = SampleSet(np.array([[3.0]]))
        g = lambda X: np.zeros(X.shape[0])
        risk = pairwise_mean_loss(loss, g(pos.points), g(neg.points))
        assert risk == pytest.approx(loss.symmetry_constant / 2.0, abs=1e-12)

    def test_sigmoid_single_pair(self):
        pos = SampleSet(np.array([[0.0]]))
        neg = SampleSet(np.array([[1.0]]))
        g = lambda X: 1.0 - X[:, 0]  # pos scores 1, neg scores 0
        risk = pairwise_mean_loss(get_loss("sigmoid"), g(pos.points), g(neg.points))
        assert risk == pytest.approx(0.2689414213699951, abs=1e-12)


class TestExactRisks:
    def test_sigmoid_two_point(self, two_point_dist):
        risk = exact_ber_risk(get_loss("sigmoid"), two_point_dist, np.array([1.0, -1.0]))
        # frozen from the exact-expectation oracle: (0.36136485 + 0.40757657) / 2
        assert risk == pytest.approx(0.38447071068499755, abs=1e-12)

    def test_zero_one_two_point(self, two_point_dist):
        risk = exact_ber_risk(get_loss("zero_one"), two_point_dist, np.array([1.0, -1.0]))
        assert risk == pytest.approx(0.25, abs=1e-15)

    def test_all_ties_scorer(self, two_point_dist):
        risk = exact_ber_risk(get_loss("zero_one"), two_point_dist, np.zeros(2))
        assert risk == 0.5

    @pytest.mark.parametrize(
        "risk", [exact_ber_risk, exact_auc_risk,
                 functools.partial(ber_decomposition_check, params=McdParams(0.9, 0.2)),
                 functools.partial(auc_decomposition_check, params=McdParams(0.9, 0.2))],
        ids=["ber", "auc", "ber-check", "auc-check"],
    )
    def test_score_count_must_match_the_support(self, two_point_dist, risk):
        with pytest.raises(ValueError, match="^got 3 scores for 2 points$"):
            risk(get_loss("sigmoid"), two_point_dist, np.zeros(3))


class TestBerDecomposition:
    def test_sigmoid_hand_instance(self, two_point_dist):
        check = ber_decomposition_check(
            get_loss("sigmoid"), two_point_dist, np.array([1.0, -1.0]), McdParams(0.9, 0.2)
        )
        assert check.lhs == pytest.approx(0.4191294974794983, abs=1e-12)
        assert check.rhs == pytest.approx(0.7 * 0.38447071068499755 + 0.15, abs=1e-12)
        assert check.residual <= 1e-12
        assert check.excess == pytest.approx(0.15, abs=1e-12)

    def test_logistic_same_instance(self, two_point_dist):
        check = ber_decomposition_check(
            get_loss("logistic"), two_point_dist, np.array([1.0, -1.0]), McdParams(0.9, 0.2)
        )
        assert check.residual <= 1e-12
        # non-symmetric loss: the excess is not the symmetric constant
        assert abs(check.excess - 0.15) > 1e-3

    def test_clean_limit_recovers_clean_risk(self, two_point_dist):
        scores = np.array([0.7, -0.4])
        loss = get_loss("sigmoid")
        check = ber_decomposition_check(loss, two_point_dist, scores, McdParams(1.0, 0.0))
        clean = exact_ber_risk(loss, two_point_dist, scores)
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
            assert abs(check.excess - expected) <= 1e-12


class TestAucDecomposition:
    def test_sigmoid_hand_instance(self, two_point_dist):
        check = auc_decomposition_check(
            get_loss("sigmoid"), two_point_dist, np.array([1.0, -1.0]), McdParams(0.9, 0.2)
        )
        assert check.residual <= 1e-12
        assert check.excess == pytest.approx(0.15, abs=1e-12)

    def test_squared_same_instance(self, two_point_dist):
        check = auc_decomposition_check(
            get_loss("squared"), two_point_dist, np.array([1.0, -1.0]), McdParams(0.9, 0.2)
        )
        assert check.residual <= 1e-12

    def test_clean_limit(self, two_point_dist):
        scores = np.array([0.9, -0.3])
        loss = get_loss("sigmoid")
        check = auc_decomposition_check(loss, two_point_dist, scores, McdParams(1.0, 0.0))
        clean = exact_auc_risk(loss, two_point_dist, scores)
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
            assert abs(check.excess - expected) <= 1e-12


@st.composite
def mixture_instances(draw):
    """A finite support with random class densities and scores (ties
    included), plus mixture proportions with pi_corr_pos > pi_corr_neg."""
    m = draw(st.integers(2, 8))
    support = draw(st.lists(st.floats(-100.0, 100.0), min_size=m, max_size=m, unique=True))
    weights = st.lists(
        st.floats(0.0, 1.0, allow_subnormal=False), min_size=m, max_size=m
    ).filter(lambda w: sum(w) > 0.0)
    p_pos, p_neg = np.array(draw(weights)), np.array(draw(weights))
    dist = DiscreteBinaryDistribution(
        np.array(support), p_pos / p_pos.sum(), p_neg / p_neg.sum()
    )
    scores = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m)))
    a = draw(st.floats(0.0, 1.0, exclude_min=True))
    b = draw(st.floats(0.0, a, exclude_max=True))
    return dist, scores, McdParams(a, b)


class TestDecompositionProperties:
    """Both identities at roundoff for every catalog loss, and the excess
    equal to K * (1 - a + b) / 2 for the symmetric ones."""

    @pytest.mark.parametrize("check", [ber_decomposition_check, auc_decomposition_check])
    @pytest.mark.parametrize("name", LOSS_NAMES)
    @given(instance=mixture_instances())
    @settings(max_examples=25, deadline=None)
    def test_identity_residual_and_symmetric_excess(self, check, name, instance):
        dist, scores, params = instance
        loss = get_loss(name)
        result = check(loss, dist, scores, params)
        assert result.residual <= 1e-10
        if loss.symmetric:
            expected = symmetric_excess_constant(loss, params)
            assert abs(result.excess - expected) <= 1e-12


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
            reconstructed = params.separation * check.clean_risk + intercept
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
                clean_vals = [risk_fn(loss, dist, np.array(m)) for m in family]
                corr_vals = [risk_fn(loss, corr, np.array(m)) for m in family]
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
        risk = pairwise_mean_loss(get_loss("zero_one"), pos, neg)
        assert auc_score(pos, neg) == pytest.approx(1.0 - risk, abs=1e-12)

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


def block_rows(scores_pos, scores_neg):
    """The positive rows of each block of the pair grid: at most
    ``symloss.risks._BLOCK`` losses, or one row."""
    rows = max(1, symloss.risks._BLOCK // scores_neg.shape[0])
    return [slice(start, start + rows) for start in range(0, scores_pos.shape[0], rows)]


def serial_pairwise_mean(loss, scores_pos, scores_neg):
    """The serial block loop, the oracle for pairwise_mean_loss."""
    total = np.float64(0.0)
    for rows in block_rows(scores_pos, scores_neg):
        total += loss.value(scores_pos[rows, None] - scores_neg).sum()
    return float(total / (scores_pos.shape[0] * scores_neg.shape[0]))


def hook_pairwise_mean(loss, scores_pos, scores_neg):
    """The serial block loop with each block filled by the loss's pair
    hook, called once for the grid, or by its margins where the hook
    returns None: the oracle for the sigmoid's factored blocks."""
    fill = loss.pair_inplace(scores_pos, scores_neg)
    total = np.float64(0.0)
    for rows in block_rows(scores_pos, scores_neg):
        if fill is None:
            grid = loss.value(scores_pos[rows, None] - scores_neg)
        else:
            grid = fill(rows, np.empty((scores_pos[rows].shape[0], scores_neg.shape[0])))
        total += grid.sum()
    return float(total / (scores_pos.shape[0] * scores_neg.shape[0]))


def takes_the_margin_path(scores_pos, scores_neg):
    """Whether the grid's scores spread over more than 700, where the
    sigmoid's pair hook leaves every block to the margin path, as the
    serial loop forms it."""
    return np.ptp(np.concatenate([scores_pos, scores_neg])) > 700.0


class TestPairwiseMeanLoss:
    # a lone row, and row counts about multiples of 512, the default
    # block's rows at 64 negatives
    ROWS = [1, 511, 512, 513, 1024, 1537]
    # one row a block, and the default
    BLOCKS = [1, symloss.risks._BLOCK]

    @pytest.mark.parametrize("n_pos", ROWS)
    @pytest.mark.parametrize("name", LOSS_NAMES)
    @given(
        n_neg=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([0.1, 3.0, 200.0, 800.0]),
        ties=st.booleans(),
    )
    @settings(max_examples=8, deadline=None)
    def test_equals_the_serial_loop_exactly(self, name, n_pos, n_neg, seed, scale, ties):
        rng = np.random.default_rng(seed)
        scores_pos = rng.normal(scale=scale, size=n_pos)
        scores_neg = rng.normal(scale=scale, size=n_neg)
        if ties:
            scores_pos, scores_neg = np.round(scores_pos), np.round(scores_neg)
        before = scores_pos.tobytes(), scores_neg.tobytes()
        loss = LOSSES[name]
        # each block size is checked in every case; the exponential's sums
        # overflow at the widest scale, in every path
        for block in self.BLOCKS:
            with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore"):
                patch.setattr(symloss.risks, "_BLOCK", block)
                value = pairwise_mean_loss(loss, scores_pos, scores_neg)
                expected = serial_pairwise_mean(loss, scores_pos, scores_neg)
                if loss.pair_inplace is not None:
                    assert value == hook_pairwise_mean(loss, scores_pos, scores_neg)
            if name == "sigmoid" and not takes_the_margin_path(scores_pos, scores_neg):
                # the sigmoid's factored blocks round differently from its margins
                margins = np.abs(scores_pos[:, None] - scores_neg[None, :])
                assert abs(value - expected) <= (16.0 + margins.max()) * np.finfo(float).eps * expected
            else:
                assert value == expected
        assert (scores_pos.tobytes(), scores_neg.tobytes()) == before

    # small blocks (the former tiles) cut the grid into several rows a
    # block and a partial last block, and where the negatives outnumber a
    # block, into one row a block
    @pytest.mark.parametrize("tile", [128, 1000, 4096])
    @pytest.mark.parametrize("n_pos", ROWS)
    @given(
        name=st.sampled_from(LOSS_NAMES),
        n_neg=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([0.1, 3.0, 800.0]),
    )
    @settings(max_examples=6, deadline=None)
    def test_tiles_sum_each_chunk_as_numpy_does(self, tile, n_pos, name, n_neg, seed, scale):
        """Each block is summed by one np.sum, and the block sums are added
        in order, as the serial block loop does."""
        rng = np.random.default_rng(seed)
        scores_pos = rng.normal(scale=scale, size=n_pos)
        scores_neg = rng.normal(scale=scale, size=n_neg)
        loss = LOSSES[name]
        # the exponential's sums overflow at the widest scale, in every path
        with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore"):
            patch.setattr(symloss.risks, "_BLOCK", tile)
            value = pairwise_mean_loss(loss, scores_pos, scores_neg)
            if loss.pair_inplace is not None:
                assert value == hook_pairwise_mean(loss, scores_pos, scores_neg)
            if loss.pair_inplace is None or takes_the_margin_path(scores_pos, scores_neg):
                assert value == serial_pairwise_mean(loss, scores_pos, scores_neg)

    def test_an_overflow_between_tiles_warns_as_the_serial_loop(self, monkeypatch):
        # each loss is e^700, so a block of 4096 sums to 4.2e307, and two
        # blocks to more than the largest float
        monkeypatch.setattr(symloss.risks, "_BLOCK", 4096)
        scores_pos, scores_neg = np.full(512, -350.0), np.full(64, 350.0)
        for mean in (pairwise_mean_loss, serial_pairwise_mean):
            with pytest.warns(RuntimeWarning, match="overflow encountered"):
                assert mean(get_loss("exponential"), scores_pos, scores_neg) == math.inf

    # the whole grid is 8 MB of losses, one 512-row chunk of it 4 MB, and
    # one block (what a tile was) 256 KB
    @pytest.mark.parametrize("name", ["sigmoid", "hinge"])
    def test_a_trace_holds_tiles_not_chunks(self, name):
        rng = np.random.default_rng(0)
        scores_pos, scores_neg = rng.normal(size=1000), rng.normal(size=1000)
        pairwise_mean_loss(get_loss(name), scores_pos, scores_neg)  # a warm-up call
        tracemalloc.start()
        try:
            pairwise_mean_loss(get_loss(name), scores_pos, scores_neg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_every_loss_uses_the_worker_for_two_chunks(self, name):
        """The calling thread is the only worker: on a grid of two blocks,
        a full one and a one-row one, it evaluates each block once."""
        loss = LOSSES[name]
        calls = []

        def counted(kind, evaluate):
            def evaluate_counted(*args):
                # the margins, or the hook's output buffer, is the last argument
                calls.append((kind, args[-1].shape, threading.current_thread() is threading.main_thread()))
                return evaluate(*args)

            return evaluate_counted

        def hook(scores_pos, scores_neg):
            grid = (scores_pos.shape[0], scores_neg.shape[0])
            calls.append(("hook", grid, threading.current_thread() is threading.main_thread()))
            return counted("pairs", loss.pair_inplace(scores_pos, scores_neg))

        changes = {"value": counted("value", loss.value)}
        if loss.pair_inplace is not None:
            changes["pair_inplace"] = hook
        spy = dataclasses.replace(loss, **changes)
        rng = np.random.default_rng(0)
        threads = threading.active_count()
        rows = symloss.risks._BLOCK // 1000
        n_pos = rows + 1
        pairwise_mean_loss(spy, rng.normal(size=n_pos), rng.normal(size=1000))
        # one hook call for the grid where there is a hook, then one
        # evaluation per block, by the hook's fill where there is one, else
        # by value, and every one on the main thread
        blocks = [(rows, 1000), (1, 1000)]
        if loss.pair_inplace is None:
            assert calls == [("value", shape, True) for shape in blocks]
        else:
            assert calls == [("hook", (n_pos, 1000), True)] + [("pairs", shape, True) for shape in blocks]
        assert threading.active_count() == threads

    # +inf - +inf is NaN, which numpy flags as an invalid subtraction; the
    # +inf row is the grid's first or one inside it, and either way the
    # sigmoid's hook leaves the whole grid to the margin path
    # (sigmoid has a pair hook, hinge has none)
    @pytest.mark.parametrize("row", [0, 600])
    def test_non_finite_scores_warn_as_the_serial_loop(self, row):
        scores_pos = np.zeros(1100)
        scores_pos[row] = np.inf
        scores_neg = np.array([np.inf, 0.0, -np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for loss, mean in itertools.product(
                map(get_loss, ("sigmoid", "hinge")), (pairwise_mean_loss, serial_pairwise_mean)
            ):
                with np.errstate(invalid="ignore", over="ignore"):
                    assert math.isnan(mean(loss, scores_pos, scores_neg))
                with pytest.raises(RuntimeWarning, match="invalid value encountered in subtract"):
                    mean(loss, scores_pos, scores_neg)

    @pytest.mark.parametrize("name", ["sigmoid", "hinge"])
    @pytest.mark.parametrize("n_pos,n_neg", [(0, 3), (3, 0), (0, 0)])
    def test_empty_scores_rejected(self, name, n_pos, n_neg):
        with pytest.raises(ValueError, match="non-empty"):
            pairwise_mean_loss(get_loss(name), np.zeros(n_pos), np.zeros(n_neg))


class TestEmpiricalConvergence:
    """Sampling from the finite support reproduces the exact risks."""

    def _sample_class(self, rng, dist, density, n):
        idx = rng.choice(dist.size, size=n, p=density)
        return dist.support[idx]

    def test_ber_within_five_standard_errors(self, two_point_dist):
        loss = get_loss("sigmoid")
        scores = np.array([0.8, -1.1])
        g = lambda X: np.where(X[:, 0] < 0.5, scores[0], scores[1])
        exact = exact_ber_risk(loss, two_point_dist, scores)

        n = 100_000
        rng = np.random.default_rng(808)
        pos = SampleSet(self._sample_class(rng, two_point_dist, two_point_dist.p_pos, n))
        neg = SampleSet(self._sample_class(rng, two_point_dist, two_point_dist.p_neg, n))
        empirical = empirical_ber_risk(loss, g(pos.points), g(neg.points))

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
        exact = exact_auc_risk(loss, two_point_dist, scores)

        n = 3000
        rng = np.random.default_rng(909)
        pos = SampleSet(self._sample_class(rng, two_point_dist, two_point_dist.p_pos, n))
        neg = SampleSet(self._sample_class(rng, two_point_dist, two_point_dist.p_neg, n))
        empirical = pairwise_mean_loss(loss, g(pos.points), g(neg.points))

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


def empirical_measure(scores_pos, scores_neg):
    """The finite-support distribution that puts count / n on each distinct
    score of each class, and its support as one score per point."""
    support, inverse = np.unique(np.concatenate([scores_pos, scores_neg]), return_inverse=True)
    m, n_pos = support.size, scores_pos.size
    p_pos = np.bincount(inverse[:n_pos], minlength=m) / n_pos
    p_neg = np.bincount(inverse[n_pos:], minlength=m) / scores_neg.size
    return DiscreteBinaryDistribution(support, p_pos, p_neg), support


class TestExactRisksOfTheEmpiricalMeasure:
    """On the empirical measure of two score samples the exact risks are
    the empirical risks, up to the order of summation."""

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_exact_equals_empirical(self, name):
        loss = get_loss(name)
        rng = np.random.default_rng(1111)
        for _ in range(200):
            n_pos, n_neg = rng.integers(1, 40, size=2)
            if rng.random() < 0.5:
                scores_pos, scores_neg = rng.normal(0.0, 2.0, size=n_pos), rng.normal(size=n_neg)
            else:
                # ties within and across the classes
                scores_pos = rng.integers(-3, 4, size=n_pos) / 2.0
                scores_neg = rng.integers(-3, 4, size=n_neg) / 2.0
            dist, scores = empirical_measure(scores_pos, scores_neg)
            margins = scores_pos[:, None] - scores_neg[None, :]
            # relative to the mean loss magnitude, which bounds the roundoff
            # of a sum even where signed losses (unhinged) cancel
            pairs = [
                (
                    exact_ber_risk(loss, dist, scores),
                    empirical_ber_risk(loss, scores_pos, scores_neg),
                    0.5 * (np.abs(loss.value(scores_pos)).mean()
                           + np.abs(loss.value(-scores_neg)).mean()),
                ),
                (
                    exact_auc_risk(loss, dist, scores),
                    pairwise_mean_loss(loss, scores_pos, scores_neg),
                    np.abs(loss.value(margins)).mean(),
                ),
            ]
            for exact, empirical, magnitude in pairs:
                assert type(exact) is float and type(empirical) is float
                assert abs(exact - empirical) <= 1e-12 * magnitude


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

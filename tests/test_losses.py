"""Loss catalog: values, gradients, symmetry, convexity, metadata."""

import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symloss.losses import LOSS_NAMES, LOSSES, SYMMETRIC_LOSS_NAMES, get_loss

DIFFERENTIABLE = [n for n in LOSS_NAMES if LOSSES[n].differentiable]
# kinks where one-sided derivatives disagree; sampled z stay clear of them
KINKS = {"hinge": (1.0,), "squared_hinge": (1.0,), "ramp": (-1.0, 1.0)}


def hook_pairs(spec, scores_pos, scores_neg):
    out = np.empty((scores_pos.size, scores_neg.size))
    return spec.pair_inplace(scores_pos, scores_neg)(slice(None), out)


def central_difference(loss, z, h=1e-5):
    return float(loss.value(z + h) - loss.value(z - h)) / (2.0 * h)


def pair_sum(loss, z):
    return loss.value(z) + loss.value(-z)


class TestCatalogMetadata:
    def test_eleven_losses(self):
        assert len(LOSS_NAMES) == 11

    def test_symmetric_flags(self):
        assert set(SYMMETRIC_LOSS_NAMES) == {"zero_one", "ramp", "sigmoid", "unhinged"}
        assert LOSSES["zero_one"].symmetry_constant == 1.0
        assert LOSSES["ramp"].symmetry_constant == 1.0
        assert LOSSES["sigmoid"].symmetry_constant == 1.0
        assert LOSSES["unhinged"].symmetry_constant == 2.0

    def test_convex_flags(self):
        convex = {n for n in LOSS_NAMES if LOSSES[n].convex}
        assert convex == {
            "squared",
            "hinge",
            "squared_hinge",
            "exponential",
            "logistic",
            "unhinged",
        }

    def test_auc_consistency_tristate(self):
        assert LOSSES["sigmoid"].auc_consistent == "yes"
        assert LOSSES["ramp"].auc_consistent == "yes"
        assert LOSSES["hinge"].auc_consistent == "no"
        for name in set(LOSS_NAMES) - {"sigmoid", "ramp", "hinge"}:
            assert LOSSES[name].auc_consistent == "unknown"

    def test_only_the_sigmoid_has_a_pair_hook(self):
        assert [n for n in LOSS_NAMES if LOSSES[n].pair_inplace] == ["sigmoid"]

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_spec_survives_a_pickle_round_trip(self, name):
        spec = LOSSES[name]
        again = pickle.loads(pickle.dumps(spec))
        margins = np.linspace(-3.0, 3.0, 13)
        for field in ("name", "symmetry_constant", "convex", "auc_consistent", "differentiable"):
            assert getattr(again, field) == getattr(spec, field)
        assert again.value(margins).tobytes() == spec.value(margins).tobytes()
        if spec.differentiable:
            assert again.grad(margins).tobytes() == spec.grad(margins).tobytes()
        if spec.pair_inplace is not None:
            got, expected = (hook_pairs(s, margins, margins[::2]) for s in (again, spec))
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_evaluators_see_float64_margins(self, name):
        spec = LOSSES[name]
        evaluators = [spec.value] + ([spec.grad] if spec.differentiable else [])
        margins = [-3, -1, 0, 1, 2]
        for evaluate in evaluators:
            expected = evaluate(np.array(margins, dtype=np.float64))
            assert expected.dtype == np.float64
            for given_as in (margins, np.array(margins, dtype=np.int64)):
                result = evaluate(given_as)
                assert (result.dtype, result.tobytes()) == (np.float64, expected.tobytes())
            for scalar in (2.0, 2):
                result = np.asarray(evaluate(scalar))
                assert (result.dtype, result.tobytes()) == (np.float64, expected[-1:].tobytes())

    def test_get_loss_unknown_name(self):
        with pytest.raises(ValueError, match="unknown loss"):
            get_loss("barrier_hinge")


@st.composite
def score_grids(draw):
    """Small pos and neg score lists around one offset.  Most stay within
    the factored form's spread of 700; a few exceed it or hold a
    non-finite score, which take the margin path."""
    offset = draw(st.sampled_from([0.0, 2000.0, -2000.0]) | st.floats(-1e6, 1e6))
    near = st.floats(-400.0, 400.0).map(lambda x: offset + x)
    pos = draw(st.lists(near, min_size=1, max_size=12))
    neg = draw(st.lists(near, min_size=1, max_size=12))
    if draw(st.integers(0, 9)) == 0:
        bad = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        target = draw(st.sampled_from([pos, neg]))
        target[draw(st.integers(0, len(target) - 1))] = bad
    return pos, neg


def with_warnings(evaluate, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = evaluate(*args)
    return result, [str(w.message) for w in caught]


class TestSigmoidPairHook:
    """The factored pair hook against the margin path it replaces."""

    sigmoid = LOSSES["sigmoid"]

    def margin_pairs(self, scores_pos, scores_neg):
        return self.sigmoid.value(scores_pos[:, None] - scores_neg[None, :])

    above_700 = float(np.nextafter(700.0, math.inf))

    @given(score_grids())
    @example(([-350.0, 350.0], [0.0]))  # spread exactly 700: factored
    @example(([0.0], [700.0]))
    @example(([0.0], [above_700]))  # just above: the margin path
    @example(([-350.0, 1.0], [350.0, above_700 - 350.0]))
    @example(([2000.0, 2000.5, 2003.0], [1999.25, 2001.0]))
    @example(([-2000.0, -2001.5], [-1999.0, -2000.0]))
    @example(([1.5], [1.5]))
    @example(([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]))
    @example(([3.0], [-2.0]))
    @example(([math.inf], [math.inf]))
    @example(([-math.inf, 0.0], [-math.inf]))
    @example(([0.0, 1.0], [math.nan, math.inf]))
    @example(([math.nan], [0.0]))
    @example(([0.1, 0.2, 0.3], [0.7, math.nan]))  # a NaN after the finite bounds
    @settings(max_examples=400, deadline=None)
    def test_matches_the_margin_path(self, grid):
        scores_pos, scores_neg = (np.array(s, dtype=float) for s in grid)
        before = scores_pos.tobytes(), scores_neg.tobytes()
        expected, expected_warnings = with_warnings(self.margin_pairs, scores_pos, scores_neg)
        got, got_warnings = with_warnings(hook_pairs, self.sigmoid, scores_pos, scores_neg)
        assert got_warnings == expected_warnings
        assert (scores_pos.tobytes(), scores_neg.tobytes()) == before
        scores = np.concatenate([scores_pos, scores_neg])
        if np.all(np.isfinite(scores)) and np.ptp(scores) <= 700.0:
            # one exp per score: the rounding of s - c and c - s' grows
            # with the margin, so the bound does too
            margins = np.abs(scores_pos[:, None] - scores_neg[None, :])
            bound = (16.0 + margins.max()) * np.finfo(float).eps
            assert np.all(np.abs(got - expected) <= bound * expected)
        else:
            assert got.tobytes() == expected.tobytes()


class TestEvalLoss:
    @pytest.mark.parametrize(
        "name,z,expected",
        [
            ("sigmoid", 0.0, 0.5),
            ("ramp", -1.0, 1.0),
            ("ramp", 1.0, 0.0),
            ("ramp", 0.5, 0.25),
            ("unhinged", 0.3, 0.7),
            ("logistic", 0.0, math.log(2.0)),
            ("savage", 0.0, 0.25),  # 1 / (1 + e^0)^2
            ("zero_one", 0.0, 0.5),  # sign(0) = 0: random guess
            ("zero_one", 2.0, 0.0),
            ("zero_one", -0.1, 1.0),
            ("squared", 3.0, 4.0),
            ("hinge", -1.0, 2.0),
            ("hinge", 2.0, 0.0),
            ("squared_hinge", -1.0, 4.0),
            ("exponential", 1.0, math.exp(-1.0)),
            ("tangent", 0.0, 1.0),
        ],
    )
    def test_values(self, name, z, expected):
        assert float(get_loss(name).value(z)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("name", LOSS_NAMES)
    @pytest.mark.parametrize("z", [-700.0, -100.0, 0.0, 100.0, 700.0])
    def test_no_overflow_up_to_700(self, name, z):
        assert math.isfinite(get_loss(name).value(z))

    def test_vectorized_value(self):
        z = np.linspace(-5, 5, 11)
        out = get_loss("logistic").value(z)
        assert out.shape == z.shape


class TestEvalGrad:
    @pytest.mark.parametrize(
        "name,z,expected",
        [
            ("sigmoid", 0.0, -0.25),
            ("unhinged", 12.3, -1.0),
            ("unhinged", -4.0, -1.0),
            ("squared", 0.0, -2.0),
            ("hinge", 0.0, -1.0),
            ("hinge", 2.0, 0.0),
            ("ramp", 0.0, -0.5),
            ("ramp", 3.0, 0.0),
        ],
    )
    def test_values(self, name, z, expected):
        assert float(get_loss(name).grad(z)) == pytest.approx(expected, abs=1e-12)

    def test_kink_uses_right_hand_derivative(self):
        assert get_loss("hinge").grad(1.0) == 0.0
        assert get_loss("squared_hinge").grad(1.0) == 0.0
        assert get_loss("ramp").grad(1.0) == 0.0
        assert get_loss("ramp").grad(-1.0) == -0.5

    def test_zero_one_has_no_gradient(self):
        # the trainer rejects it (tests/test_training.py): zero almost
        # everywhere is useless for optimization
        loss = get_loss("zero_one")
        assert loss.grad is None
        assert not loss.differentiable

    def test_logistic_matches_central_difference_closely(self):
        loss = get_loss("logistic")
        fd = central_difference(loss, 0.3)
        assert abs(loss.grad(0.3) - fd) <= 1e-8

    @pytest.mark.parametrize("name", DIFFERENTIABLE)
    def test_matches_central_differences(self, name):
        # relative agreement, with an absolute floor for the flat tails
        # where the difference quotient itself drowns in roundoff (loss
        # value near 1, true derivative below 1e-11)
        loss = get_loss(name)
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 1000:
            z = float(rng.uniform(-20.0, 20.0))
            if any(abs(z - k) < 1e-2 for k in KINKS.get(name, ())):
                continue
            analytic = float(loss.grad(z))
            fd = central_difference(loss, z)
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-12)
            assert rel <= 1e-5 or abs(analytic - fd) <= 1e-10, (
                f"{name} at z={z}: {analytic} vs {fd}"
            )
            checked += 1


class TestSymmetry:
    def test_gap_examples(self):
        assert pair_sum(get_loss("sigmoid"), 1.7) == pytest.approx(1.0, abs=1e-12)
        assert pair_sum(get_loss("logistic"), 0.0) == pytest.approx(
            2.0 * math.log(2.0), abs=1e-12
        )
        # log(1 + e^-1) + log(1 + e), frozen from direct evaluation
        assert pair_sum(get_loss("logistic"), 1.0) == pytest.approx(
            1.6265233750364456, abs=1e-12
        )

    grid = np.linspace(-50.0, 50.0, 2001)

    @pytest.mark.parametrize("name", SYMMETRIC_LOSS_NAMES)
    def test_symmetric_losses_constant_gap(self, name):
        loss = get_loss(name)
        at_zero = pair_sum(loss, 0.0)
        assert at_zero == loss.symmetry_constant
        assert np.max(np.abs(pair_sum(loss, self.grid) - at_zero)) <= 1e-12

    @pytest.mark.parametrize("name", [n for n in LOSS_NAMES if not LOSSES[n].symmetric])
    def test_non_symmetric_losses_vary(self, name):
        loss = get_loss(name)
        assert np.max(np.abs(pair_sum(loss, self.grid) - pair_sum(loss, 0.0))) > 1e-6

    def test_check_symmetry_zero_one(self):
        grid = np.arange(-5.0, 5.0 + 1e-9, 0.1)
        sums = pair_sum(get_loss("zero_one"), grid)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        assert pair_sum(get_loss("zero_one"), 0.0) == 1.0

    def test_ramp_grid(self):
        grid = np.arange(-5.0, 5.0 + 1e-9, 0.1)
        loss = get_loss("ramp")
        sums = pair_sum(loss, grid)
        assert np.max(np.abs(sums - pair_sum(loss, 0.0))) <= 1e-12

    def test_squared_gap_is_two_plus_two_z_squared(self):
        grid = np.arange(-5.0, 5.0 + 1e-9, 0.1)
        deviation = np.abs(pair_sum(get_loss("squared"), grid) - 2.0)
        # largest at the grid edges, z = -5 and z = 5
        assert np.max(deviation) == pytest.approx(50.0, rel=1e-9)

    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_sigmoid_gap_is_one_everywhere(self, z):
        assert abs(pair_sum(get_loss("sigmoid"), z) - 1.0) <= 1e-12

    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_unhinged_gap_is_two_everywhere(self, z):
        assert abs(pair_sum(get_loss("unhinged"), z) - 2.0) <= 1e-12


class TestShapeProperties:
    @pytest.mark.parametrize("name", [n for n in LOSS_NAMES if LOSSES[n].convex])
    def test_midpoint_convexity(self, name):
        loss = get_loss(name)
        rng = np.random.default_rng(7)
        a = rng.uniform(-20.0, 20.0, size=10_000)
        b = rng.uniform(-20.0, 20.0, size=10_000)
        lhs = loss.value((a + b) / 2.0)
        rhs = (loss.value(a) + loss.value(b)) / 2.0
        assert np.all(lhs <= rhs + 1e-12)

    def test_nonconvexity_of_sigmoid(self):
        # witness pair violating midpoint convexity (the loss is concave
        # on z < 0, so the witness must sit there)
        loss = get_loss("sigmoid")
        a, b = -4.0, 0.0
        assert loss.value((a + b) / 2) > (loss.value(a) + loss.value(b)) / 2

    @pytest.mark.parametrize("name", [n for n in LOSS_NAMES if n != "unhinged"])
    def test_non_negative(self, name):
        loss = get_loss(name)
        z = np.linspace(-100.0, 100.0, 5001)
        assert np.all(loss.value(z) >= 0.0)

    def test_unhinged_goes_negative(self):
        # the one symmetric convex loss; it escapes the symmetric ->
        # non-convex constraint by taking negative values past z = 1
        assert get_loss("unhinged").value(2.0) == -1.0

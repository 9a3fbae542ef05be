"""Surrogate risks, exact decomposition checks, and evaluation metrics.

Three families of computation live here:

* empirical risks over sample sets (balanced per-class means for BER,
  the full pairwise mean for AUC);
* exact risks over finite-support distributions, where expectations are
  plain weighted sums; and
* decomposition checks that recompute a corrupted risk two ways -- once
  directly from the corrupted mixture densities, once as
  ``separation * clean risk + excess`` -- and report the residual.

The corrupted BER risk of any loss l satisfies

    corrupted = (a - b) * clean + [b * E_pos[gap(g)] + (1-a) * E_neg[gap(g)]] / 2

with a = pi_corr_pos, b = pi_corr_neg and gap(z) = l(z) + l(-z).  The
corrupted AUC risk satisfies the analogous three-excess-term identity
with gap(z, z') = l(z - z') + l(z' - z).  When the loss is symmetric with
constant K every excess collapses to K * (1 - a + b) / 2, which is why
corrupted and clean minimizers coincide for symmetric losses.  These are
algebraic identities, so the checks demand residuals at roundoff scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .distributions import DiscreteBinaryDistribution, McdParams, SampleSet, corrupt_distribution
from .losses import LossSpec

__all__ = [
    "RiskReport",
    "DecompositionCheck",
    "empirical_ber_risk",
    "empirical_auc_risk",
    "exact_ber_risk",
    "exact_auc_risk",
    "exact_cer_risk",
    "ber_decomposition_check",
    "auc_decomposition_check",
    "auc_score",
    "classification_metrics",
    "pairwise_mean_loss",
    "symmetric_excess_constant",
]

# above this many pairs the empirical AUC risk switches to subsampling
EXACT_PAIR_LIMIT = 10_000_000
_PAIR_CHUNK = 512


@dataclass
class RiskReport:
    """Value of a risk plus the named sub-terms it was assembled from."""

    value: float
    components: dict[str, float] = field(default_factory=dict)
    meta: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"value": self.value, "components": self.components, "meta": self.meta}


@dataclass
class DecompositionCheck:
    """Two independent evaluations of a corrupted risk and their residual."""

    lhs: float
    rhs: float
    components: dict[str, float] = field(default_factory=dict)
    meta: dict[str, object] = field(default_factory=dict)

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)

    def to_dict(self) -> dict:
        return {
            "value": self.lhs,
            "components": dict(self.components, rhs=self.rhs),
            "residual": self.residual,
            "meta": self.meta,
        }


# a scorer is either a vectorized callable (points -> scores) or, for the
# exact-risk functions only, a per-support-point score array
ScorerLike = Union[Callable[[np.ndarray], np.ndarray], np.ndarray, Sequence[float]]


def _scores_for(g: ScorerLike, points: np.ndarray) -> np.ndarray:
    """Scores of ``g`` on ``points``: g may be a vectorized callable
    (e.g. a Scorer) or a precomputed per-point score array."""
    scores = g(points) if callable(g) else np.asarray(g, dtype=float)
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if scores.shape[0] != points.shape[0]:
        raise ValueError(
            f"got {scores.shape[0]} scores for {points.shape[0]} points"
        )
    return scores


def _points_of(sample_set) -> np.ndarray:
    points = sample_set.points if isinstance(sample_set, SampleSet) else sample_set
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    if points.shape[0] == 0:
        raise ValueError("sample set is empty")
    return points


def _require_callable(g) -> None:
    # empirical risks score two different point sets, so a fixed score
    # array cannot stand in for the prediction function
    if not callable(g):
        raise ValueError("empirical risks need a callable scorer")


def symmetric_excess_constant(loss: LossSpec, params: McdParams) -> float:
    """K * (1 - pi_corr_pos + pi_corr_neg) / 2 for a symmetric loss."""
    if not loss.symmetric:
        raise ValueError(f"loss {loss.name!r} is not symmetric")
    k = loss.symmetry_constant
    return k * (1.0 - params.pi_corr_pos + params.pi_corr_neg) / 2.0


def empirical_ber_risk(loss: LossSpec, set_pos, set_neg, g: ScorerLike) -> RiskReport:
    """Balanced empirical risk: the mean of the two per-class mean losses.

    Both class means get weight 1/2 regardless of the sample counts, so
    the estimate targets the balanced risk even under class imbalance.
    """
    _require_callable(g)
    pos = _points_of(set_pos)
    neg = _points_of(set_neg)
    pos_term = float(np.mean(loss.value(_scores_for(g, pos))))
    neg_term = float(np.mean(loss.value(-_scores_for(g, neg))))
    return RiskReport(
        value=0.5 * (pos_term + neg_term),
        components={"pos_term": pos_term, "neg_term": neg_term},
        meta={"risk": "ber", "loss": loss.name, "n_pos": pos.shape[0], "n_neg": neg.shape[0]},
    )


def pairwise_mean_loss(
    loss: LossSpec, scores_pos: np.ndarray, scores_neg: np.ndarray
) -> float:
    """Mean of l(s - s') over the full pos x neg score grid, chunked so
    that large grids never materialize at once."""
    scores_pos = np.asarray(scores_pos, dtype=float).reshape(-1)
    scores_neg = np.asarray(scores_neg, dtype=float).reshape(-1)
    total = 0.0
    for start in range(0, scores_pos.shape[0], _PAIR_CHUNK):
        block = scores_pos[start : start + _PAIR_CHUNK]
        total += float(loss.value(block[:, None] - scores_neg[None, :]).sum())
    return total / (scores_pos.shape[0] * scores_neg.shape[0])


def empirical_auc_risk(
    loss: LossSpec,
    set_pos,
    set_neg,
    g: ScorerLike,
    max_pairs: int = EXACT_PAIR_LIMIT,
    seed: int = 0,
) -> RiskReport:
    """Empirical pairwise ranking risk of treating set_pos above set_neg.

    Exact (every pair visited) up to ``max_pairs`` pairs; beyond that the
    pair grid is subsampled uniformly with replacement and the pair count
    used is reported in the metadata.
    """
    _require_callable(g)
    pos = _points_of(set_pos)
    neg = _points_of(set_neg)
    scores_pos = _scores_for(g, pos)
    scores_neg = _scores_for(g, neg)
    n_pos, n_neg = scores_pos.shape[0], scores_neg.shape[0]
    n_pairs = n_pos * n_neg
    if n_pairs <= max_pairs:
        value = pairwise_mean_loss(loss, scores_pos, scores_neg)
        exact = True
        pairs_used = n_pairs
    else:
        rng = np.random.default_rng(seed)
        ii = rng.integers(0, n_pos, size=max_pairs)
        jj = rng.integers(0, n_neg, size=max_pairs)
        value = float(np.mean(loss.value(scores_pos[ii] - scores_neg[jj])))
        exact = False
        pairs_used = max_pairs
    return RiskReport(
        value=value,
        components={"pair_mean": value},
        meta={
            "risk": "auc",
            "loss": loss.name,
            "n_pos": n_pos,
            "n_neg": n_neg,
            "pairs": pairs_used,
            "exact_pairs": exact,
        },
    )


def exact_ber_risk(
    loss: LossSpec, dist: DiscreteBinaryDistribution, g: ScorerLike
) -> RiskReport:
    """Exact balanced risk over a finite support."""
    s = _scores_for(g, dist.support)
    pos_term = float(dist.p_pos @ loss.value(s))
    neg_term = float(dist.p_neg @ loss.value(-s))
    return RiskReport(
        value=0.5 * (pos_term + neg_term),
        components={"pos_term": pos_term, "neg_term": neg_term},
        meta={"risk": "ber", "loss": loss.name, "expectation": "exact"},
    )


def exact_cer_risk(
    loss: LossSpec, dist: DiscreteBinaryDistribution, g: ScorerLike
) -> RiskReport:
    """Exact misclassification-style risk, prior-weighted per class."""
    s = _scores_for(g, dist.support)
    prior = dist.class_prior
    pos_term = float(dist.p_pos @ loss.value(s))
    neg_term = float(dist.p_neg @ loss.value(-s))
    return RiskReport(
        value=prior * pos_term + (1.0 - prior) * neg_term,
        components={"pos_term": pos_term, "neg_term": neg_term, "class_prior": prior},
        meta={"risk": "cer", "loss": loss.name, "expectation": "exact"},
    )


def _pair_loss_matrix(loss: LossSpec, s: np.ndarray) -> np.ndarray:
    return loss.value(s[:, None] - s[None, :])


def exact_auc_risk(
    loss: LossSpec, dist: DiscreteBinaryDistribution, g: ScorerLike
) -> RiskReport:
    """Exact pairwise ranking risk over a finite support."""
    s = _scores_for(g, dist.support)
    pair_losses = _pair_loss_matrix(loss, s)
    value = float(dist.p_pos @ pair_losses @ dist.p_neg)
    return RiskReport(
        value=value,
        components={"pair_mean": value},
        meta={"risk": "auc", "loss": loss.name, "expectation": "exact"},
    )


def ber_decomposition_check(
    loss: LossSpec,
    dist: DiscreteBinaryDistribution,
    g: ScorerLike,
    params: McdParams,
) -> DecompositionCheck:
    """Corrupted balanced risk vs. its clean-plus-excess reconstruction.

    lhs: the corrupted risk computed directly from the mixture densities.
    rhs: separation * clean risk plus the excess term
    ``[b * E_pos[gap] + (1-a) * E_neg[gap]] / 2``.  The two agree
    identically for every loss; the residual is pure roundoff.
    """
    s = _scores_for(g, dist.support)
    corr_pos, corr_neg = corrupt_distribution(dist, params)
    a, b = params.pi_corr_pos, params.pi_corr_neg

    lhs = 0.5 * (float(corr_pos @ loss.value(s)) + float(corr_neg @ loss.value(-s)))

    clean = exact_ber_risk(loss, dist, s).value
    gap = loss.value(s) + loss.value(-s)
    excess = 0.5 * (b * float(dist.p_pos @ gap) + (1.0 - a) * float(dist.p_neg @ gap))
    rhs = params.separation * clean + excess

    components = {"clean_risk": clean, "excess": excess, "slope": params.separation}
    if loss.symmetric:
        components["symmetric_excess"] = symmetric_excess_constant(loss, params)
    return DecompositionCheck(
        lhs=lhs,
        rhs=rhs,
        components=components,
        meta={
            "risk": "ber",
            "loss": loss.name,
            "pi_corr_pos": a,
            "pi_corr_neg": b,
            "expectation": "exact",
        },
    )


def auc_decomposition_check(
    loss: LossSpec,
    dist: DiscreteBinaryDistribution,
    g: ScorerLike,
    params: McdParams,
) -> DecompositionCheck:
    """Corrupted pairwise risk vs. its clean-plus-three-excess form.

    The excess splits into a pos-vs-neg cross term weighted by
    ``(1-a) * b``, a pos-vs-pos term weighted by ``a * b / 2``, and a
    neg-vs-neg term weighted by ``(1-a) * (1-b) / 2``, each an exact
    expectation of the pair gap l(z - z') + l(z' - z).
    """
    s = _scores_for(g, dist.support)
    corr_pos, corr_neg = corrupt_distribution(dist, params)
    a, b = params.pi_corr_pos, params.pi_corr_neg

    pair_losses = _pair_loss_matrix(loss, s)
    pair_gap = pair_losses + pair_losses.T

    lhs = float(corr_pos @ pair_losses @ corr_neg)

    clean = float(dist.p_pos @ pair_losses @ dist.p_neg)
    cross = float(dist.p_pos @ pair_gap @ dist.p_neg)
    pos_pos = float(dist.p_pos @ pair_gap @ dist.p_pos)
    neg_neg = float(dist.p_neg @ pair_gap @ dist.p_neg)
    excess = (
        (1.0 - a) * b * cross
        + 0.5 * a * b * pos_pos
        + 0.5 * (1.0 - a) * (1.0 - b) * neg_neg
    )
    rhs = params.separation * clean + excess

    components = {
        "clean_risk": clean,
        "excess": excess,
        "excess_cross": (1.0 - a) * b * cross,
        "excess_pos_pos": 0.5 * a * b * pos_pos,
        "excess_neg_neg": 0.5 * (1.0 - a) * (1.0 - b) * neg_neg,
        "slope": params.separation,
    }
    if loss.symmetric:
        components["symmetric_excess"] = symmetric_excess_constant(loss, params)
    return DecompositionCheck(
        lhs=lhs,
        rhs=rhs,
        components=components,
        meta={
            "risk": "auc",
            "loss": loss.name,
            "pi_corr_pos": a,
            "pi_corr_neg": b,
            "expectation": "exact",
        },
    )


def auc_score(scores_pos: Sequence[float], scores_neg: Sequence[float]) -> float:
    """Probability that a positive outranks a negative, ties counting 1/2.

    Each positive is located among the sorted negatives (O(n log n)); the
    counts of negatives strictly below and tied with it are integers, so
    the result equals exhaustive pair counting exactly.
    """
    scores_pos = np.asarray(scores_pos, dtype=float).reshape(-1)
    scores_neg = np.sort(np.asarray(scores_neg, dtype=float).reshape(-1))
    if scores_pos.size == 0 or scores_neg.size == 0:
        raise ValueError("auc_score needs non-empty score lists")
    if not (np.all(np.isfinite(scores_pos)) and np.all(np.isfinite(scores_neg))):
        raise ValueError("auc_score needs finite scores")
    below = np.searchsorted(scores_neg, scores_pos, side="left")
    ties = np.searchsorted(scores_neg, scores_pos, side="right") - below
    u_stat = below.sum() + 0.5 * ties.sum()
    return float(u_stat / (scores_pos.size * scores_neg.size))


def classification_metrics(predicted, truth) -> dict[str, object]:
    """Standard binary metrics for +-1 label vectors.

    Returns cer, ber, precision, recall, f1 plus an ``undefined`` list
    naming metrics whose denominators vanish (single-class truth makes
    ber, and possibly recall/f1, undefined).
    """
    predicted = np.asarray(predicted, dtype=int).reshape(-1)
    truth = np.asarray(truth, dtype=int).reshape(-1)
    if predicted.shape != truth.shape:
        raise ValueError(
            f"length mismatch: {predicted.shape[0]} predictions vs {truth.shape[0]} labels"
        )
    if predicted.size == 0:
        raise ValueError("empty label vectors")
    for name, labels in (("predicted", predicted), ("truth", truth)):
        if not np.all(np.isin(labels, (-1, 1))):
            raise ValueError(f"{name} labels must be +1 or -1")

    n_pos = int(np.sum(truth == 1))
    n_neg = int(np.sum(truth == -1))
    tp = int(np.sum((predicted == 1) & (truth == 1)))
    fp = int(np.sum((predicted == 1) & (truth == -1)))
    fn = int(np.sum((predicted == -1) & (truth == 1)))

    undefined: list[str] = []
    cer = float(np.mean(predicted != truth))

    if n_pos > 0 and n_neg > 0:
        ber = 0.5 * (fn / n_pos + fp / n_neg)
    else:
        ber = math.nan
        undefined.append("ber")

    recall = tp / n_pos if n_pos > 0 else math.nan
    if n_pos == 0:
        undefined.append("recall")
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0

    if math.isnan(recall):
        f1 = math.nan
        undefined.append("f1")
    elif precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)

    return {
        "cer": cer,
        "ber": ber,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "undefined": undefined,
    }

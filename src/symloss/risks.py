"""Surrogate risks, exact decomposition checks, and evaluation metrics.

Every risk takes scores, the outputs of a prediction function g, never
g itself: the caller scores each point set once.  Every risk is a float.
Three families of computation live here:

* empirical risks over the scores of two samples (balanced per-class
  means for BER, and for AUC :func:`pairwise_mean_loss`, always exact:
  the mean over every pos x neg pair, which the sigmoid evaluates from
  one exponential per score, not per pair);
* exact risks over finite-support distributions, given one score per
  support point, where expectations are plain weighted sums; and
* decomposition checks that recompute a corrupted risk two ways -- once
  directly from the corrupted mixture densities (``lhs``), once as
  ``separation * clean_risk + excess`` (``rhs``) -- and report both,
  the clean risk, the excess and their residual.

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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distributions import DiscreteBinaryDistribution, McdParams, corrupt_distribution
from .losses import LossSpec

__all__ = [
    "DecompositionCheck",
    "empirical_ber_risk",
    "exact_ber_risk",
    "exact_auc_risk",
    "ber_decomposition_check",
    "auc_decomposition_check",
    "auc_score",
    "classification_metrics",
    "pairwise_mean_loss",
    "symmetric_excess_constant",
]

# the most losses one block of a pair grid holds: 256 KB, which fits a
# core's L2 cache with the margin path's two temporaries
_BLOCK = 32_768


@dataclass
class DecompositionCheck:
    """A corrupted risk computed directly (``lhs``) and as
    ``separation * clean_risk + excess`` (``rhs``)."""

    lhs: float
    rhs: float
    clean_risk: float
    excess: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def _scores(scores, n_points: Optional[int] = None) -> np.ndarray:
    """``scores`` as a flat float array, rejected when empty or, given
    ``n_points``, when it holds other than one score per support point."""
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if scores.size == 0:
        raise ValueError("empty score list")
    if n_points is not None and scores.size != n_points:
        raise ValueError(f"got {scores.size} scores for {n_points} points")
    return scores


def symmetric_excess_constant(loss: LossSpec, params: McdParams) -> float:
    """K * (1 - pi_corr_pos + pi_corr_neg) / 2 for a symmetric loss."""
    if not loss.symmetric:
        raise ValueError(f"loss {loss.name!r} is not symmetric")
    k = loss.symmetry_constant
    return k * (1.0 - params.pi_corr_pos + params.pi_corr_neg) / 2.0


def empirical_ber_risk(loss: LossSpec, scores_pos, scores_neg) -> float:
    """Balanced empirical risk of the scores of a positive and a negative
    sample: the mean of the two per-class mean losses.

    Both class means get weight 1/2 regardless of the sample counts, so
    the estimate targets the balanced risk even under class imbalance.
    """
    scores_pos, scores_neg = _scores(scores_pos), _scores(scores_neg)
    pos_term = float(np.mean(loss.value(scores_pos)))
    neg_term = float(np.mean(loss.value(-scores_neg)))
    return 0.5 * (pos_term + neg_term)


def _row_blocks(n_pos: int, n_neg: int) -> list[slice]:
    """The positive rows of an n_pos x n_neg pair grid cut into blocks of
    at most ``_BLOCK`` pairs, or of one row where a row holds more."""
    rows = max(1, _BLOCK // n_neg)
    return [slice(start, min(start + rows, n_pos)) for start in range(0, n_pos, rows)]


def pairwise_mean_loss(
    loss: LossSpec, scores_pos: np.ndarray, scores_neg: np.ndarray
) -> float:
    """Mean of l(s - s') over the full pos x neg score grid.

    The grid is filled and summed in the row blocks of :func:`_row_blocks`,
    one after another in one reused buffer, so a call holds a block, never
    the grid.  Each block is summed by one ``np.sum``, and the block sums
    are added in order as numpy floats, so an overflow between two blocks
    warns as numpy does.  The loss's ``pair_inplace`` hook, when it has one,
    is called once per grid and writes each block's losses.  Else, or where
    it returns None, the margins are formed in the buffer and passed to
    ``value``, so the sum equals the serial ``loss.value`` block loop bit
    for bit.  The sigmoid's hook needs one exponential per score and
    returns None for a non-finite score or a score spread above 700;
    elsewhere its relative error is at most (16 + max|s - s'|) * eps, with
    eps the float64 machine epsilon.
    """
    scores_pos = np.asarray(scores_pos, dtype=float).reshape(-1)
    scores_neg = np.asarray(scores_neg, dtype=float).reshape(-1)
    if scores_pos.size == 0 or scores_neg.size == 0:
        raise ValueError("pairwise_mean_loss needs non-empty score lists")
    (n_pos,), (width,) = scores_pos.shape, scores_neg.shape
    blocks = _row_blocks(n_pos, width)
    fill = loss.pair_inplace(scores_pos, scores_neg) if loss.pair_inplace else None
    buf = np.empty((blocks[0].stop, width))
    total = np.float64(0.0)
    for rows in blocks:
        out = buf[: rows.stop - rows.start]
        if fill is None:
            out = loss.value(np.subtract(scores_pos[rows, None], scores_neg, out=out))
        else:
            out = fill(rows, out)
        total += out.sum()
    return float(total / (n_pos * width))


def exact_ber_risk(loss: LossSpec, dist: DiscreteBinaryDistribution, scores) -> float:
    """Exact balanced risk over a finite support, given one score per
    support point."""
    s = _scores(scores, dist.size)
    return 0.5 * (float(dist.p_pos @ loss.value(s)) + float(dist.p_neg @ loss.value(-s)))


def _pair_loss_matrix(loss: LossSpec, s: np.ndarray) -> np.ndarray:
    return loss.value(s[:, None] - s[None, :])


def exact_auc_risk(loss: LossSpec, dist: DiscreteBinaryDistribution, scores) -> float:
    """Exact pairwise ranking risk over a finite support, given one score
    per support point."""
    s = _scores(scores, dist.size)
    return float(dist.p_pos @ _pair_loss_matrix(loss, s) @ dist.p_neg)


def ber_decomposition_check(
    loss: LossSpec, dist: DiscreteBinaryDistribution, scores, params: McdParams
) -> DecompositionCheck:
    """Corrupted balanced risk vs. its clean-plus-excess reconstruction,
    given one score per support point.

    lhs: the corrupted risk computed directly from the mixture densities.
    rhs: separation * clean risk plus the excess term
    ``[b * E_pos[gap] + (1-a) * E_neg[gap]] / 2``.  The two agree
    identically for every loss; the residual is pure roundoff.
    """
    s = _scores(scores, dist.size)
    corr_pos, corr_neg = corrupt_distribution(dist, params)
    a, b = params.pi_corr_pos, params.pi_corr_neg
    loss_pos, loss_neg = loss.value(s), loss.value(-s)
    gap = loss_pos + loss_neg
    excess = 0.5 * (b * float(dist.p_pos @ gap) + (1.0 - a) * float(dist.p_neg @ gap))
    lhs = 0.5 * (float(corr_pos @ loss_pos) + float(corr_neg @ loss_neg))
    clean = 0.5 * (float(dist.p_pos @ loss_pos) + float(dist.p_neg @ loss_neg))
    return DecompositionCheck(lhs, params.separation * clean + excess, clean, excess)


def auc_decomposition_check(
    loss: LossSpec, dist: DiscreteBinaryDistribution, scores, params: McdParams
) -> DecompositionCheck:
    """Corrupted pairwise risk vs. its clean-plus-three-excess form, given
    one score per support point.

    The excess splits into a pos-vs-neg cross term weighted by
    ``(1-a) * b``, a pos-vs-pos term weighted by ``a * b / 2``, and a
    neg-vs-neg term weighted by ``(1-a) * (1-b) / 2``, each an exact
    expectation of the pair gap l(z - z') + l(z' - z).
    """
    s = _scores(scores, dist.size)
    corr_pos, corr_neg = corrupt_distribution(dist, params)
    a, b = params.pi_corr_pos, params.pi_corr_neg
    pair_losses = _pair_loss_matrix(loss, s)
    pair_gap = pair_losses + pair_losses.T
    cross = (1.0 - a) * b * float(dist.p_pos @ pair_gap @ dist.p_neg)
    pos_pos = 0.5 * a * b * float(dist.p_pos @ pair_gap @ dist.p_pos)
    neg_neg = 0.5 * (1.0 - a) * (1.0 - b) * float(dist.p_neg @ pair_gap @ dist.p_neg)
    lhs = float(corr_pos @ pair_losses @ corr_neg)
    clean = float(dist.p_pos @ pair_losses @ dist.p_neg)
    excess = cross + pos_pos + neg_neg
    return DecompositionCheck(lhs, params.separation * clean + excess, clean, excess)


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

"""Surrogate risks, exact decomposition checks, and evaluation metrics.

Every risk takes scores, the outputs of a prediction function g, never
g itself: the caller scores each point set once.  Three families of
computation live here:

* empirical risks over the scores of two samples (balanced per-class
  means for BER, and, always exact, the mean over every pos x neg pair
  for AUC, which the sigmoid evaluates from one exponential per score,
  not per pair);
* exact risks over finite-support distributions, given one score per
  support point, where expectations are plain weighted sums; and
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

import concurrent.futures
import contextvars
import functools
import math
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .distributions import DiscreteBinaryDistribution, McdParams, corrupt_distribution
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


def empirical_ber_risk(loss: LossSpec, scores_pos, scores_neg) -> RiskReport:
    """Balanced empirical risk of the scores of a positive and a negative
    sample: the mean of the two per-class mean losses.

    Both class means get weight 1/2 regardless of the sample counts, so
    the estimate targets the balanced risk even under class imbalance.
    """
    scores_pos, scores_neg = _scores(scores_pos), _scores(scores_neg)
    pos_term = float(np.mean(loss.value(scores_pos)))
    neg_term = float(np.mean(loss.value(-scores_neg)))
    return RiskReport(
        value=0.5 * (pos_term + neg_term),
        components={"pos_term": pos_term, "neg_term": neg_term},
        meta={"risk": "ber", "loss": loss.name, "n_pos": len(scores_pos), "n_neg": len(scores_neg)},
    )


@functools.cache
def _pair_pool() -> concurrent.futures.ThreadPoolExecutor:
    # the second of at most two workers; created, and its module imported,
    # on the first call that needs it
    return concurrent.futures.ThreadPoolExecutor(max_workers=1)


# a forked child inherits the pool but not its thread, so a submit there
# would wait forever; the child builds its own pool instead
os.register_at_fork(after_in_child=_pair_pool.cache_clear)


def _chunk_sums(
    loss: LossSpec, scores_pos: np.ndarray, scores_neg: np.ndarray, starts
) -> list[float]:
    """Loss sums of the pair-grid chunks that begin at ``starts``; the
    loss's ``pair_inplace`` hook, when it has one, writes each chunk's
    losses into one reused buffer, else its margins are formed there and
    passed to ``value``."""
    buf = np.empty((min(_PAIR_CHUNK, scores_pos.shape[0]), scores_neg.shape[0]))
    sums = []
    for start in starts:
        block = scores_pos[start : start + _PAIR_CHUNK]
        out = buf[: block.shape[0]]
        if loss.pair_inplace is None:
            np.subtract(block[:, None], scores_neg[None, :], out=out)
            out = loss.value(out)
        else:
            loss.pair_inplace(block, scores_neg, out)
        sums.append(float(out.sum()))
    return sums


def pairwise_mean_loss(
    loss: LossSpec, scores_pos: np.ndarray, scores_neg: np.ndarray
) -> float:
    """Mean of l(s - s') over the full pos x neg score grid.

    The grid is cut into chunks of ``_PAIR_CHUNK`` = 512 positive rows, so
    large grids never materialize at once.  Each chunk's losses are summed
    as one array, and the chunk sums are added in chunk order.  With two
    or more chunks, a second worker thread sums the odd-numbered chunks.
    Every chunk's summation shape is that of the serial ``loss.value``
    loop.  A loss without a ``pair_inplace`` hook evaluates the same
    values, so the result equals that loop bit for bit.  The sigmoid's
    hook factors each chunk into one exponential per score.  It equals the
    loop bit for bit on chunks with a non-finite score or a score spread
    above 700; elsewhere its relative error is at most
    (16 + max|s - s'|) * eps, with eps the float64 machine epsilon.
    """
    scores_pos = np.asarray(scores_pos, dtype=float).reshape(-1)
    scores_neg = np.asarray(scores_neg, dtype=float).reshape(-1)
    if scores_pos.size == 0 or scores_neg.size == 0:
        raise ValueError("pairwise_mean_loss needs non-empty score lists")
    starts = range(0, scores_pos.shape[0], _PAIR_CHUNK)
    args = (loss, scores_pos, scores_neg)
    if len(starts) <= 1:
        sums = _chunk_sums(*args, starts)
    else:
        # the worker runs in a copy of this context, so numpy's errstate
        # (a context variable) holds there as it does here
        odd = _pair_pool().submit(contextvars.copy_context().run, _chunk_sums, *args, starts[1::2])
        try:
            even = _chunk_sums(*args, starts[0::2])
        finally:
            odd.exception()  # the worker is done with the inputs before we return
        sums = [0.0] * len(starts)
        sums[0::2] = even
        sums[1::2] = odd.result()
    total = 0.0
    for chunk_sum in sums:
        total += chunk_sum
    return total / (scores_pos.shape[0] * scores_neg.shape[0])


def empirical_auc_risk(loss: LossSpec, scores_pos, scores_neg) -> RiskReport:
    """Empirical pairwise ranking risk of ranking ``scores_pos`` above
    ``scores_neg``.

    Always exact: every pos x neg pair is visited, by
    :func:`pairwise_mean_loss`, whose chunks bound the memory at any size.
    """
    scores_pos, scores_neg = _scores(scores_pos), _scores(scores_neg)
    value = pairwise_mean_loss(loss, scores_pos, scores_neg)
    n_pos, n_neg = scores_pos.shape[0], scores_neg.shape[0]
    return RiskReport(
        value=value,
        components={"pair_mean": value},
        meta={
            "risk": "auc",
            "loss": loss.name,
            "n_pos": n_pos,
            "n_neg": n_neg,
            "pairs": n_pos * n_neg,
        },
    )


def _class_terms(loss: LossSpec, s: np.ndarray, w_pos, w_neg) -> tuple[float, float]:
    """The weighted class terms sum w_pos * l(s) and sum w_neg * l(-s)."""
    return float(w_pos @ loss.value(s)), float(w_neg @ loss.value(-s))


def exact_ber_risk(loss: LossSpec, dist: DiscreteBinaryDistribution, scores) -> RiskReport:
    """Exact balanced risk over a finite support, given one score per
    support point."""
    pos_term, neg_term = _class_terms(loss, _scores(scores, dist.size), dist.p_pos, dist.p_neg)
    return RiskReport(
        value=0.5 * (pos_term + neg_term),
        components={"pos_term": pos_term, "neg_term": neg_term},
        meta={"risk": "ber", "loss": loss.name, "expectation": "exact"},
    )


def exact_cer_risk(loss: LossSpec, dist: DiscreteBinaryDistribution, scores) -> RiskReport:
    """Exact misclassification-style risk, prior-weighted per class, given
    one score per support point."""
    pos_term, neg_term = _class_terms(loss, _scores(scores, dist.size), dist.p_pos, dist.p_neg)
    prior = dist.class_prior
    return RiskReport(
        value=prior * pos_term + (1.0 - prior) * neg_term,
        components={"pos_term": pos_term, "neg_term": neg_term, "class_prior": prior},
        meta={"risk": "cer", "loss": loss.name, "expectation": "exact"},
    )


def _pair_loss_matrix(loss: LossSpec, s: np.ndarray) -> np.ndarray:
    return loss.value(s[:, None] - s[None, :])


def exact_auc_risk(loss: LossSpec, dist: DiscreteBinaryDistribution, scores) -> RiskReport:
    """Exact pairwise ranking risk over a finite support, given one score
    per support point."""
    s = _scores(scores, dist.size)
    pair_losses = _pair_loss_matrix(loss, s)
    value = float(dist.p_pos @ pair_losses @ dist.p_neg)
    return RiskReport(
        value=value,
        components={"pair_mean": value},
        meta={"risk": "auc", "loss": loss.name, "expectation": "exact"},
    )


def _decomposition(
    risk: str, loss: LossSpec, params: McdParams, lhs: float, clean: float, excess: float, **terms
) -> DecompositionCheck:
    """The check record of ``lhs`` against ``separation * clean + excess``;
    ``terms`` are the excess's named parts."""
    components = {"clean_risk": clean, "excess": excess, **terms, "slope": params.separation}
    if loss.symmetric:
        components["symmetric_excess"] = symmetric_excess_constant(loss, params)
    return DecompositionCheck(
        lhs=lhs,
        rhs=params.separation * clean + excess,
        components=components,
        meta={
            "risk": risk,
            "loss": loss.name,
            "pi_corr_pos": params.pi_corr_pos,
            "pi_corr_neg": params.pi_corr_neg,
            "expectation": "exact",
        },
    )


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
    return _decomposition("ber", loss, params, lhs, clean, excess)


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
    return _decomposition(
        "auc", loss, params,
        lhs=float(corr_pos @ pair_losses @ corr_neg),
        clean=float(dist.p_pos @ pair_losses @ dist.p_neg),
        excess=cross + pos_pos + neg_neg,
        excess_cross=cross, excess_pos_pos=pos_pos, excess_neg_neg=neg_neg,
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

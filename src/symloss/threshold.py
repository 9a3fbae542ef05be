"""Turning a ranking function into a classifier by picking a cutoff.

Given unlabeled validation scores and a known class prior p, the cutoff
beta is chosen so that the fraction of scores strictly above beta matches
p: with k = round(p * n), beta is the midpoint between the k-th and
(k+1)-th largest scores.  At that cutoff the number of predicted
positives matches the number of actual positives, which makes precision
and recall agree up to rounding -- the precision-recall breakeven point.

When the prior is unknown, the pseudo-positive fraction of the training
split can stand in for it (the heuristic method), or beta = 0 can be
used as a last resort (the default method); both are deliberately second
class, since the cutoff choice can swing the resulting classifier's
precision/recall behavior drastically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ThresholdResult",
    "check_prior",
    "select_threshold",
    "heuristic_threshold",
    "default_threshold",
    "classify_scores",
    "THRESHOLD_METHODS",
]

THRESHOLD_METHODS = ("breakeven_known_prior", "heuristic_pseudo_ratio", "default_zero")


@dataclass(frozen=True)
class ThresholdResult:
    """A chosen cutoff plus the positive fraction it actually achieves.

    ``degenerate`` flags tie pathologies: the scores straddling the
    cutoff are equal, so the achieved fraction cannot equal k/n.  It is
    also set when k = n and the lowest score is the most negative float,
    since no finite cutoff lies below it.
    """

    beta: float
    achieved_positive_fraction: float
    method: str
    degenerate: bool = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.achieved_positive_fraction <= 1.0):
            raise ValueError("achieved_positive_fraction must lie in [0, 1]")
        if self.method not in THRESHOLD_METHODS:
            raise ValueError(f"method must be one of {THRESHOLD_METHODS}")

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "achieved_positive_fraction": self.achieved_positive_fraction,
            "method": self.method,
            "degenerate": self.degenerate,
        }


def _validated_scores(scores: Sequence[float]) -> np.ndarray:
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if scores.size == 0:
        raise ValueError("threshold selection needs a non-empty score list")
    if not np.all(np.isfinite(scores)):
        raise ValueError("validation scores must be finite")
    return scores


def _positive_fraction(scores: np.ndarray, beta: float) -> float:
    return float(np.mean(scores > beta))


def _below(low: float) -> float:
    """A finite cutoff under ``low``: ``low - 1.0``, or the next float down
    where subtracting 1.0 does not move ``low``; ``low`` itself when it is
    the most negative float."""
    if low - 1.0 < low:
        return low - 1.0
    beta = math.nextafter(low, -math.inf)
    return beta if math.isfinite(beta) else low


def _select(scores: np.ndarray, target_prior: float, method: str) -> ThresholdResult:
    n = scores.size
    # round half up, so the approximate prior-matching equation picks a
    # deterministic count
    k = int(math.floor(target_prior * n + 0.5))
    ordered = np.sort(scores)[::-1]

    if np.all(ordered == ordered[0]) and 0 < k < n:
        # all scores equal: no cutoff separates anything, so classify
        # everything positive and flag the degeneracy instead of failing
        beta = _below(float(ordered[0]))
        return ThresholdResult(beta, _positive_fraction(scores, beta), method, degenerate=True)

    if k == 0:
        beta = float(ordered[0]) + 1.0
    elif k == n:
        beta = _below(float(ordered[-1]))
    else:
        above, below = float(ordered[k - 1]), float(ordered[k])
        beta = (above + below) / 2.0
        if not below <= beta < above:
            # the midpoint overflowed or rounded onto a score; the lower
            # score itself still separates the two (or they are tied)
            beta = below
    fraction = _positive_fraction(scores, beta)
    return ThresholdResult(beta, fraction, method, degenerate=(fraction != k / n))


def select_threshold(scores_validation: Sequence[float], target_prior: float) -> ThresholdResult:
    """Cutoff matching a known positive-class prior on validation scores."""
    scores = _validated_scores(scores_validation)
    return _select(scores, check_prior(target_prior), "breakeven_known_prior")


def check_prior(prior: float) -> float:
    """``prior`` if it is a usable positive-class prior, i.e. in (0, 1)."""
    if not (0.0 < prior < 1.0):
        raise ValueError(f"target prior must be in (0, 1), got {prior}")
    return prior


def heuristic_threshold(
    n_pseudo_pos: int, n_unlabeled: int, scores_validation: Sequence[float]
) -> ThresholdResult:
    """Cutoff using the pseudo-positive/unlabeled ratio as a prior stand-in."""
    if not (0 < n_pseudo_pos < n_unlabeled):
        raise ValueError(
            f"need 0 < n_pseudo_pos < n_unlabeled, got {n_pseudo_pos}/{n_unlabeled}"
        )
    scores = _validated_scores(scores_validation)
    return _select(scores, n_pseudo_pos / n_unlabeled, "heuristic_pseudo_ratio")


def default_threshold(scores_validation: Sequence[float]) -> ThresholdResult:
    """The baseline cutoff beta = 0."""
    scores = _validated_scores(scores_validation)
    return ThresholdResult(0.0, _positive_fraction(scores, 0.0), "default_zero")


def classify_scores(scores, beta: float) -> np.ndarray:
    """+1 where score > beta, else -1 (exact ties are negative)."""
    scores = np.asarray(scores, dtype=float)
    return np.where(scores > beta, 1, -1)

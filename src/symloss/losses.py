"""Catalog of margin losses for binary classification and ranking.

Every loss is a function of the margin z (z = y*g(x) for classification,
z = g(x) - g(x') for pairwise ranking).  Each catalog entry bundles the
value function, an analytic derivative where one exists, and the metadata
the rest of the package keys on: convexity, AUC consistency, and
symmetry.

A loss is *symmetric* when l(z) + l(-z) = K for a constant K independent
of z.  Symmetric losses are the reason corrupted-label risks share their
minimizers with clean risks, so the symmetry constant is stored explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
from scipy.special import expit

__all__ = [
    "LossSpec",
    "LOSSES",
    "LOSS_NAMES",
    "SYMMETRIC_LOSS_NAMES",
    "get_loss",
]

# exp() overflows just above exp(709); clamping at +-700 keeps every loss
# finite without changing any double-precision value for |z| <= 700
_EXP_CLAMP = 700.0


@dataclass(frozen=True)
class LossSpec:
    """A surrogate loss with evaluators and catalog metadata.

    ``symmetry_constant`` is the K with l(z) + l(-z) = K, present iff the
    loss is symmetric.  ``auc_consistent`` is a tri-state: "yes", "no", or
    "unknown" for losses whose status is not established here.

    ``pair_inplace``, when set, is a two-step pair hook.  The call
    ``fill = pair_inplace(block_pos, scores_neg)`` does the work shared by
    the whole block x negatives grid; then ``fill(rows, out)`` writes
    l(s - s') for the block rows ``rows`` (a slice) into ``out``, of shape
    (rows, negatives), and returns ``out``.  It lets
    :func:`~symloss.risks.pairwise_mean_loss` fill one small tile at a time
    in a reused buffer and skip forming the margins.  Only the sigmoid has
    one.  Its relative error against ``value`` on the margins is at most
    (16 + max|s - s'|) * eps, with eps the float64 machine epsilon, and it
    equals ``value`` bit for bit where it falls back.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]]
    symmetry_constant: Optional[float]
    convex: bool
    auc_consistent: str = "unknown"
    pair_inplace: Optional[
        Callable[[np.ndarray, np.ndarray], Callable[[slice, np.ndarray], np.ndarray]]
    ] = None

    @property
    def symmetric(self) -> bool:
        return self.symmetry_constant is not None

    @property
    def differentiable(self) -> bool:
        return self.grad is not None


def _zero_one(z):
    # sign(0) = 0, so a zero score costs 1/2: the scorer is random-guessing
    return -0.5 * np.sign(z) + 0.5


def _squared(z):
    return (1.0 - z) ** 2


def _squared_grad(z):
    return -2.0 * (1.0 - z)


def _hinge(z):
    return np.maximum(0.0, 1.0 - z)


def _hinge_grad(z):
    # right-hand derivative at the kink z = 1
    return np.where(z < 1.0, -1.0, 0.0)


def _squared_hinge(z):
    return np.maximum(0.0, 1.0 - z) ** 2


def _squared_hinge_grad(z):
    return np.where(z < 1.0, -2.0 * (1.0 - z), 0.0)


def _exponential(z):
    return np.exp(np.clip(-z, -_EXP_CLAMP, _EXP_CLAMP))


def _exponential_grad(z):
    return -np.exp(np.clip(-z, -_EXP_CLAMP, _EXP_CLAMP))


def _logistic(z):
    # stable evaluation of log(1 + exp(-z)): max(-z, 0) + log1p(exp(-|z|))
    return np.logaddexp(0.0, -z)


def _logistic_grad(z):
    return -expit(-z)


def _savage(z):
    # (1 + exp(2z))^-2 evaluated through the logistic sigmoid for stability
    return expit(-2.0 * z) ** 2


def _savage_grad(z):
    return -4.0 * expit(2.0 * z) * expit(-2.0 * z) ** 2


def _tangent(z):
    return (2.0 * np.arctan(z) - 1.0) ** 2


def _tangent_grad(z):
    return 4.0 * (2.0 * np.arctan(z) - 1.0) / (1.0 + z * z)


def _ramp(z):
    return np.clip((1.0 - z) / 2.0, 0.0, 1.0)


def _ramp_grad(z):
    # right-hand derivative at the kinks z = -1 and z = 1
    return np.where((z >= -1.0) & (z < 1.0), -0.5, 0.0)


def _sigmoid(z):
    return expit(-z)


def _sigmoid_pairs(scores_pos, scores_neg):
    # l(s - s') = 1 / (1 + e^(s-c) * e^(c-s')) for any centre c, so the grid
    # needs one exp per score, not one per pair.  With c mid-range and a
    # spread of at most _EXP_CLAMP, every product lies in e^[-700, 700].
    # Non-finite scores and wider grids take the margin path, the oracle.
    # The bounds are Python floats, so the guard itself never warns.
    bounds = [float(f(x)) for x in (scores_pos, scores_neg) for f in (np.min, np.max)]
    lo, hi = min(bounds), max(bounds)
    if all(map(math.isfinite, bounds)) and hi - lo <= _EXP_CLAMP:
        centre = lo + (hi - lo) / 2.0
        return partial(_sigmoid_factors, np.exp(scores_pos - centre), np.exp(centre - scores_neg))
    return partial(_sigmoid_margins, scores_pos, scores_neg)


def _sigmoid_factors(exp_pos, exp_neg, rows, out):
    # einsum's outer product writes each product once, as multiply
    # would, but runs faster than a broadcast multiply here
    np.einsum("i,j->ij", exp_pos[rows], exp_neg, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _sigmoid_margins(scores_pos, scores_neg, rows, out):
    np.subtract(scores_pos[rows, None], scores_neg, out=out)
    np.negative(out, out=out)
    return expit(out, out=out)


def _sigmoid_grad(z):
    return -expit(z) * expit(-z)


def _unhinged(z):
    return 1.0 - z


def _unhinged_grad(z):
    return np.full_like(z, -1.0)


def _on_floats(fn, z):
    return fn(np.asarray(z, dtype=float))


def _spec(name, value, grad, k, convex, auc="unknown", pairs=None):
    # each evaluator sees a float64 array, whatever the caller passed; a
    # partial of module-level functions keeps the spec picklable
    return LossSpec(
        name=name,
        value=partial(_on_floats, value),
        grad=None if grad is None else partial(_on_floats, grad),
        symmetry_constant=k,
        convex=convex,
        auc_consistent=auc,
        pair_inplace=pairs,
    )


LOSSES: dict[str, LossSpec] = {
    spec.name: spec
    for spec in (
        _spec("zero_one", _zero_one, None, 1.0, False),
        _spec("squared", _squared, _squared_grad, None, True),
        _spec("hinge", _hinge, _hinge_grad, None, True, auc="no"),
        _spec("squared_hinge", _squared_hinge, _squared_hinge_grad, None, True),
        _spec("exponential", _exponential, _exponential_grad, None, True),
        _spec("logistic", _logistic, _logistic_grad, None, True),
        _spec("savage", _savage, _savage_grad, None, False),
        _spec("tangent", _tangent, _tangent_grad, None, False),
        _spec("ramp", _ramp, _ramp_grad, 1.0, False, auc="yes"),
        _spec("sigmoid", _sigmoid, _sigmoid_grad, 1.0, False, auc="yes", pairs=_sigmoid_pairs),
        _spec("unhinged", _unhinged, _unhinged_grad, 2.0, True),
    )
}

LOSS_NAMES: tuple[str, ...] = tuple(LOSSES)
SYMMETRIC_LOSS_NAMES: tuple[str, ...] = tuple(
    name for name, spec in LOSSES.items() if spec.symmetric
)


def get_loss(name: str) -> LossSpec:
    """Look a loss up by its lowercase identifier."""
    try:
        return LOSSES[name]
    except KeyError:
        raise ValueError(
            f"unknown loss {name!r}; choose from {', '.join(LOSS_NAMES)}"
        ) from None

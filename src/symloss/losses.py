"""Catalog of margin losses for binary classification and ranking.

Every loss is a function of the margin z (z = y*g(x) for classification,
z = g(x) - g(x') for pairwise ranking).  Each catalog entry bundles the
value function, an analytic derivative where one exists, and the metadata
the rest of the package keys on: convexity, classification calibration,
AUC consistency, and symmetry.

A loss is *symmetric* when l(z) + l(-z) = K for a constant K independent
of z.  Symmetric losses are the reason corrupted-label risks share their
minimizers with clean risks, so the symmetry constant is stored explicitly
and checkable to machine precision via :func:`check_symmetry`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import expit

from .errors import NonDifferentiableLossError

__all__ = [
    "LossSpec",
    "SymmetryReport",
    "LOSSES",
    "LOSS_NAMES",
    "SYMMETRIC_LOSS_NAMES",
    "get_loss",
    "eval_loss",
    "eval_grad",
    "symmetry_gap",
    "check_symmetry",
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
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]]
    symmetry_constant: Optional[float]
    convex: bool
    classification_calibrated: bool = True
    auc_consistent: str = "unknown"

    @property
    def symmetric(self) -> bool:
        return self.symmetry_constant is not None

    @property
    def differentiable(self) -> bool:
        return self.grad is not None


@dataclass(frozen=True)
class SymmetryReport:
    """Result of a grid check of |l(z) + l(-z) - l(0) - l(-0)|."""

    passed: bool
    max_deviation: float
    worst_z: float
    reference_value: float

    def __bool__(self) -> bool:
        return self.passed


def _zero_one(z):
    z = np.asarray(z, dtype=float)
    # sign(0) = 0, so a zero score costs 1/2: the scorer is random-guessing
    return -0.5 * np.sign(z) + 0.5


def _squared(z):
    z = np.asarray(z, dtype=float)
    return (1.0 - z) ** 2


def _squared_grad(z):
    z = np.asarray(z, dtype=float)
    return -2.0 * (1.0 - z)


def _hinge(z):
    z = np.asarray(z, dtype=float)
    return np.maximum(0.0, 1.0 - z)


def _hinge_grad(z):
    # right-hand derivative at the kink z = 1
    z = np.asarray(z, dtype=float)
    return np.where(z < 1.0, -1.0, 0.0)


def _squared_hinge(z):
    z = np.asarray(z, dtype=float)
    return np.maximum(0.0, 1.0 - z) ** 2


def _squared_hinge_grad(z):
    z = np.asarray(z, dtype=float)
    return np.where(z < 1.0, -2.0 * (1.0 - z), 0.0)


def _exponential(z):
    z = np.asarray(z, dtype=float)
    return np.exp(np.clip(-z, -_EXP_CLAMP, _EXP_CLAMP))


def _exponential_grad(z):
    z = np.asarray(z, dtype=float)
    return -np.exp(np.clip(-z, -_EXP_CLAMP, _EXP_CLAMP))


def _logistic(z):
    # stable evaluation of log(1 + exp(-z)): max(-z, 0) + log1p(exp(-|z|))
    z = np.asarray(z, dtype=float)
    return np.logaddexp(0.0, -z)


def _logistic_grad(z):
    z = np.asarray(z, dtype=float)
    return -expit(-z)


def _savage(z):
    # (1 + exp(2z))^-2 evaluated through the logistic sigmoid for stability
    z = np.asarray(z, dtype=float)
    return expit(-2.0 * z) ** 2


def _savage_grad(z):
    z = np.asarray(z, dtype=float)
    return -4.0 * expit(2.0 * z) * expit(-2.0 * z) ** 2


def _tangent(z):
    z = np.asarray(z, dtype=float)
    return (2.0 * np.arctan(z) - 1.0) ** 2


def _tangent_grad(z):
    z = np.asarray(z, dtype=float)
    return 4.0 * (2.0 * np.arctan(z) - 1.0) / (1.0 + z * z)


def _ramp(z):
    z = np.asarray(z, dtype=float)
    return np.clip((1.0 - z) / 2.0, 0.0, 1.0)


def _ramp_grad(z):
    # right-hand derivative at the kinks z = -1 and z = 1
    z = np.asarray(z, dtype=float)
    return np.where((z >= -1.0) & (z < 1.0), -0.5, 0.0)


def _sigmoid(z):
    z = np.asarray(z, dtype=float)
    return expit(-z)


def _sigmoid_grad(z):
    z = np.asarray(z, dtype=float)
    return -expit(z) * expit(-z)


def _unhinged(z):
    z = np.asarray(z, dtype=float)
    return 1.0 - z


def _unhinged_grad(z):
    z = np.asarray(z, dtype=float)
    return np.full_like(z, -1.0)


def _spec(name, value, grad, k, convex, auc="unknown"):
    return LossSpec(
        name=name,
        value=value,
        grad=grad,
        symmetry_constant=k,
        convex=convex,
        auc_consistent=auc,
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
        _spec("sigmoid", _sigmoid, _sigmoid_grad, 1.0, False, auc="yes"),
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


def _as_finite_scalar(z) -> float:
    try:
        z = float(z)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"margin must be a real scalar, got {z!r}") from exc
    if not math.isfinite(z):
        raise ValueError(f"margin must be finite, got {z!r}")
    return z


def eval_loss(loss: LossSpec, z: float) -> float:
    """Evaluate l(z) at a finite scalar margin."""
    return float(loss.value(_as_finite_scalar(z)))


def eval_grad(loss: LossSpec, z: float) -> float:
    """Evaluate dl/dz at a finite scalar margin.

    The zero-one loss has a gradient of zero almost everywhere, which is
    useless for optimization, so asking for it is an error: pick a
    surrogate instead.  Kinked losses (hinge, squared hinge, ramp) return
    the right-hand derivative at their kinks.
    """
    if loss.grad is None:
        raise NonDifferentiableLossError(
            f"loss {loss.name!r} has no usable gradient; pick a surrogate loss"
        )
    return float(loss.grad(_as_finite_scalar(z)))


def symmetry_gap(loss: LossSpec, z: float) -> float:
    """The pair sum l(z) + l(-z); constant iff the loss is symmetric."""
    z = _as_finite_scalar(z)
    return float(loss.value(z) + loss.value(-z))


def check_symmetry(
    loss: LossSpec, grid: Sequence[float], tol: float
) -> SymmetryReport:
    """Check whether l(z) + l(-z) is constant over a grid.

    The reference value is the pair sum at z = 0; the report records the
    largest deviation from it and where that deviation occurs.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("symmetry check needs a non-empty grid")
    reference = float(loss.value(0.0) + loss.value(-0.0))
    gaps = loss.value(grid) + loss.value(-grid)
    deviations = np.abs(gaps - reference)
    worst = int(np.argmax(deviations))
    max_dev = float(deviations[worst])
    return SymmetryReport(
        passed=max_dev <= tol,
        max_deviation=max_dev,
        worst_z=float(grid[worst]),
        reference_value=reference,
    )

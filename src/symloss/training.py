"""Gradient-based minimization of balanced and pairwise empirical risks.

Scorers are parametric functions from feature vectors to real scores:
a linear model or a one-hidden-layer tanh network, both exposing the
Jacobian of their scores with respect to the flat parameter vector so
the per-step gradients are analytic.

The balanced objective draws equal-size positive/negative mini-batches
each step (resampled with replacement) so every step is an unbiased
estimate of the half-and-half risk regardless of the class counts.  The
pairwise objective draws a batch of (positive, negative) pairs uniformly
with replacement.  The recorded per-epoch trace always evaluates the
full-data objective, and a non-finite value ends the run with
:class:`~symloss.errors.TrainingDivergedError`.

A brute-force minimizer over enumerated scorer families and a central
finite-difference gradient check are included as oracles for the
analytic machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import NonDifferentiableLossError, TrainingDivergedError
from .losses import LossSpec, get_loss
from .risks import _points_of, pairwise_mean_loss

__all__ = [
    "Scorer",
    "TrainConfig",
    "TrainTrace",
    "train_ber",
    "train_auc",
    "brute_force_minimizer",
    "finite_difference_check",
    "make_ber_objective",
    "make_auc_objective",
]


@dataclass
class Scorer:
    """A parametric prediction function g: R^d -> R with a flat parameter vector.

    linear: params = [w (d), b];  g(x) = w @ x + b
    mlp:    params = [W (h*d), c (h), v (h), b];  g(x) = v @ tanh(W x + c) + b
    """

    kind: str
    dimension: int
    params: np.ndarray
    hidden: int = 0

    def __post_init__(self) -> None:
        self.params = np.asarray(self.params, dtype=float)
        if self.kind not in ("linear", "mlp"):
            raise ValueError(f"scorer kind must be 'linear' or 'mlp', got {self.kind!r}")
        expected = self.parameter_count(self.kind, self.dimension, self.hidden)
        if self.params.shape != (expected,):
            raise ValueError(
                f"{self.kind} scorer of dimension {self.dimension} needs "
                f"{expected} parameters, got {self.params.shape}"
            )

    @staticmethod
    def parameter_count(kind: str, dimension: int, hidden: int = 0) -> int:
        if kind == "linear":
            return dimension + 1
        return hidden * dimension + 2 * hidden + 1

    @classmethod
    def linear(cls, dimension: int) -> "Scorer":
        """Zero-initialized linear scorer."""
        return cls(kind="linear", dimension=dimension, params=np.zeros(dimension + 1))

    @classmethod
    def mlp(cls, dimension: int, hidden: int, rng: np.random.Generator) -> "Scorer":
        """One-hidden-layer tanh scorer, weights uniform in +-1/sqrt(fan_in)."""
        if hidden < 1:
            raise ValueError("mlp needs at least one hidden unit")
        bound_in = 1.0 / math.sqrt(dimension)
        bound_out = 1.0 / math.sqrt(hidden)
        w = rng.uniform(-bound_in, bound_in, size=hidden * dimension)
        c = rng.uniform(-bound_in, bound_in, size=hidden)
        v = rng.uniform(-bound_out, bound_out, size=hidden)
        b = rng.uniform(-bound_out, bound_out, size=1)
        return cls(
            kind="mlp",
            dimension=dimension,
            hidden=hidden,
            params=np.concatenate([w, c, v, b]),
        )

    def _unpack(self, params: np.ndarray):
        h, d = self.hidden, self.dimension
        w = params[: h * d].reshape(h, d)
        c = params[h * d : h * d + h]
        v = params[h * d + h : h * d + 2 * h]
        b = params[-1]
        return w, c, v, b

    def score(self, x: np.ndarray, params: Optional[np.ndarray] = None) -> np.ndarray:
        """Scores for one point (d,) or a batch (n, d)."""
        params = self.params if params is None else np.asarray(params, dtype=float)
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = x.reshape(1, -1) if single else x
        if X.shape[1] != self.dimension:
            raise ValueError(f"expected {self.dimension}-dimensional points, got {X.shape[1]}")
        if self.kind == "linear":
            scores = X @ params[:-1] + params[-1]
        else:
            w, c, v, b = self._unpack(params)
            scores = np.tanh(X @ w.T + c) @ v + b
        return float(scores[0]) if single else scores

    __call__ = score

    def score_with_jacobian(
        self, X: np.ndarray, params: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scores (n,) and the Jacobian d score_i / d param_j, shape (n, P)."""
        params = self.params if params is None else np.asarray(params, dtype=float)
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        if self.kind == "linear":
            scores = X @ params[:-1] + params[-1]
            jac = np.concatenate([X, np.ones((n, 1))], axis=1)
            return scores, jac
        w, c, v, b = self._unpack(params)
        t = np.tanh(X @ w.T + c)           # (n, h)
        scores = t @ v + b
        dt = (1.0 - t * t) * v             # (n, h): d score / d preactivation
        jac_w = dt[:, :, None] * X[:, None, :]  # (n, h, d)
        jac = np.concatenate(
            [jac_w.reshape(n, -1), dt, t, np.ones((n, 1))], axis=1
        )
        return scores, jac


@dataclass(frozen=True)
class TrainConfig:
    """Settings for one training run.

    ``adaptive_moments`` selects moment-rescaled gradient steps with the
    standard decay constants; switching it off gives plain gradient
    descent at the same step size.  ``batch_size`` is the per-class batch
    for the balanced objective; ``pair_batch`` is the number of sampled
    pairs per step for the pairwise objective.
    """

    objective: str = "ber"
    loss: str = "sigmoid"
    step_size: float = 0.05
    adaptive_moments: bool = True
    moment_decay1: float = 0.9
    moment_decay2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 100
    batch_size: int = 64
    pair_batch: int = 256
    seed: int = 0
    weight_decay: float = 0.0
    model: str = "linear"
    hidden_units: int = 8

    def __post_init__(self) -> None:
        if self.objective not in ("ber", "auc"):
            raise ValueError(f"objective must be 'ber' or 'auc', got {self.objective!r}")
        if self.step_size < 0:
            raise ValueError("step_size must be >= 0")
        for name in ("epochs", "batch_size", "pair_batch", "hidden_units"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive count")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.model not in ("linear", "mlp"):
            raise ValueError(f"model must be 'linear' or 'mlp', got {self.model!r}")


@dataclass
class TrainTrace:
    """Per-epoch full-data objective values plus the final scorer."""

    objectives: list[float]
    scorer: Scorer
    config: TrainConfig

    def final_objective(self) -> float:
        return self.objectives[-1]


def _resolve_loss(config: TrainConfig) -> LossSpec:
    loss = get_loss(config.loss)
    if not loss.differentiable:
        raise NonDifferentiableLossError(
            f"cannot run gradient training with the {loss.name!r} loss"
        )
    return loss


def _ber_gradient(
    loss: LossSpec,
    scorer: Scorer,
    theta: np.ndarray,
    X_pos: np.ndarray,
    X_neg: np.ndarray,
    weight_decay: float,
) -> np.ndarray:
    """Parameter gradient of the balanced risk on the given points."""
    sp, jp = scorer.score_with_jacobian(X_pos, params=theta)
    sn, jn = scorer.score_with_jacobian(X_neg, params=theta)
    grad_pos = loss.grad(sp) @ jp / sp.shape[0]
    grad_neg = -loss.grad(-sn) @ jn / sn.shape[0]
    return 0.5 * (grad_pos + grad_neg) + 2.0 * weight_decay * theta


def _pair_gradient(
    loss: LossSpec,
    scorer: Scorer,
    theta: np.ndarray,
    X_pos: np.ndarray,
    X_neg: np.ndarray,
    weight_decay: float,
) -> np.ndarray:
    """Parameter gradient of the pairwise risk on the pairs (X_pos[i], X_neg[i])."""
    sp, jp = scorer.score_with_jacobian(X_pos, params=theta)
    sn, jn = scorer.score_with_jacobian(X_neg, params=theta)
    weights = loss.grad(sp - sn) / sp.shape[0]
    return weights @ (jp - jn) + 2.0 * weight_decay * theta


def make_ber_objective(
    loss: LossSpec,
    X_pos: np.ndarray,
    X_neg: np.ndarray,
    scorer: Scorer,
    weight_decay: float = 0.0,
) -> tuple[Callable[[np.ndarray], float], Callable[[np.ndarray], np.ndarray]]:
    """Full-data balanced objective and its analytic parameter gradient."""

    def value(theta: np.ndarray) -> float:
        sp = scorer.score(X_pos, params=theta)
        sn = scorer.score(X_neg, params=theta)
        risk = 0.5 * (float(np.mean(loss.value(sp))) + float(np.mean(loss.value(-sn))))
        return risk + weight_decay * float(theta @ theta)

    def gradient(theta: np.ndarray) -> np.ndarray:
        return _ber_gradient(loss, scorer, theta, X_pos, X_neg, weight_decay)

    return value, gradient


def make_auc_objective(
    loss: LossSpec,
    X_pos: np.ndarray,
    X_neg: np.ndarray,
    scorer: Scorer,
    weight_decay: float = 0.0,
) -> tuple[Callable[[np.ndarray], float], Callable[[np.ndarray], np.ndarray]]:
    """Full pairwise objective and its analytic parameter gradient."""

    def value(theta: np.ndarray) -> float:
        sp = scorer.score(X_pos, params=theta)
        sn = scorer.score(X_neg, params=theta)
        return pairwise_mean_loss(loss, sp, sn) + weight_decay * float(theta @ theta)

    def gradient(theta: np.ndarray) -> np.ndarray:
        sp, jp = scorer.score_with_jacobian(X_pos, params=theta)
        sn, jn = scorer.score_with_jacobian(X_neg, params=theta)
        weights = loss.grad(sp[:, None] - sn[None, :]) / (sp.shape[0] * sn.shape[0])
        grad = weights.sum(axis=1) @ jp - weights.sum(axis=0) @ jn
        return grad + 2.0 * weight_decay * theta

    return value, gradient


# overflow is not warned about: a run that overflows ends with a non-finite
# objective, which raises TrainingDivergedError at the end of that epoch
@np.errstate(over="ignore", invalid="ignore")
def _run_steps(
    config: TrainConfig,
    scorer: Scorer,
    rng: np.random.Generator,
    step_gradient: Callable[[np.random.Generator, np.ndarray], np.ndarray],
    full_objective: Callable[[np.ndarray], float],
    steps_per_epoch: int,
) -> list[float]:
    theta = scorer.params
    first_moment = np.zeros_like(theta)
    second_moment = np.zeros_like(theta)
    lr = config.step_size
    b1, b2, eps = config.moment_decay1, config.moment_decay2, config.epsilon
    step = 0
    objectives = []
    for epoch in range(1, config.epochs + 1):
        for _ in range(steps_per_epoch):
            grad = step_gradient(rng, theta)
            step += 1
            if config.adaptive_moments:
                first_moment = b1 * first_moment + (1.0 - b1) * grad
                second_moment = b2 * second_moment + (1.0 - b2) * grad * grad
                m_hat = first_moment / (1.0 - b1**step)
                v_hat = second_moment / (1.0 - b2**step)
                theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
            else:
                theta -= lr * grad
        value = full_objective(theta)
        if not math.isfinite(value):
            raise TrainingDivergedError(
                f"training diverged: the full-data objective is {value} after epoch "
                f"{epoch} of {config.epochs} (loss {config.loss!r}, seed {config.seed}, "
                f"step_size {config.step_size}); try a smaller step_size"
            )
        objectives.append(value)
    return objectives


def _train(objective: str, set_pos, set_neg, config: TrainConfig) -> TrainTrace:
    """The step loop behind :func:`train_ber` ("ber") and :func:`train_auc` ("auc").

    Each step draws k positive, then k negative indices uniformly with
    replacement and takes the batch gradient on those points, with k =
    ``batch_size`` for "ber" and ``pair_batch`` for "auc".  An epoch is
    ceil(max(n_pos, n_neg) / batch_size) steps for both.
    """
    loss = _resolve_loss(config)
    X_pos, X_neg = _points_of(set_pos), _points_of(set_neg)
    rng = np.random.default_rng(config.seed)
    if config.model == "linear":
        scorer = Scorer.linear(X_pos.shape[1])
    else:
        scorer = Scorer.mlp(X_pos.shape[1], config.hidden_units, rng)

    ber = objective == "ber"
    make_objective = make_ber_objective if ber else make_auc_objective
    batch_gradient = _ber_gradient if ber else _pair_gradient
    k = config.batch_size if ber else config.pair_batch
    full_objective, _ = make_objective(loss, X_pos, X_neg, scorer, config.weight_decay)
    n_pos, n_neg = X_pos.shape[0], X_neg.shape[0]

    def step_gradient(rng: np.random.Generator, theta: np.ndarray) -> np.ndarray:
        ip = rng.integers(0, n_pos, size=k)
        im = rng.integers(0, n_neg, size=k)
        return batch_gradient(loss, scorer, theta, X_pos[ip], X_neg[im], config.weight_decay)

    steps_per_epoch = max(1, math.ceil(max(n_pos, n_neg) / config.batch_size))
    objectives = _run_steps(config, scorer, rng, step_gradient, full_objective, steps_per_epoch)
    return TrainTrace(objectives, scorer, replace(config, objective=objective))


def train_ber(set_pos, set_neg, config: TrainConfig) -> TrainTrace:
    """Minimize the balanced empirical risk by stochastic gradient steps.

    Deterministic given (data, config): one seeded generator drives the
    scorer initialization and all batch draws.
    """
    return _train("ber", set_pos, set_neg, config)


def train_auc(set_pos, set_neg, config: TrainConfig) -> TrainTrace:
    """Minimize the pairwise empirical risk by sampled-pair gradient steps.

    Each step draws ``config.pair_batch`` (positive, negative) pairs
    uniformly with replacement; the per-epoch trace evaluates the full
    pairwise objective.
    """
    return _train("auc", set_pos, set_neg, config)


def brute_force_minimizer(
    risk: Callable[[object], float], scorer_family: Iterable[object], tol: float = 1e-12
) -> list[object]:
    """All members of a finite family whose risk is within ``tol`` of the minimum."""
    members = list(scorer_family)
    if not members:
        raise ValueError("scorer family is empty")
    values = [float(risk(member)) for member in members]
    best = min(values)
    return [member for member, value in zip(members, values) if value <= best + tol]


def finite_difference_check(
    value: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    theta0: np.ndarray,
    probes: int = 8,
    step: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max relative disagreement between the analytic gradient and central
    differences over random parameter probes around ``theta0``."""
    theta0 = np.asarray(theta0, dtype=float)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(probes):
        theta = theta0 + rng.uniform(-0.5, 0.5, size=theta0.shape)
        analytic = gradient(theta)
        numeric = np.empty_like(theta)
        for i in range(theta.size):
            bump = np.zeros_like(theta)
            bump[i] = step
            numeric[i] = (value(theta + bump) - value(theta - bump)) / (2.0 * step)
        scale = max(1.0, float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))))
        worst = max(worst, float(np.max(np.abs(analytic - numeric))) / scale)
    return worst

"""Gradient-based minimization of balanced and pairwise empirical risks.

Scorers are parametric functions from feature vectors to real scores:
a linear model or a one-hidden-layer tanh network, both exposing the
Jacobian of their scores with respect to the flat parameter vector so
the per-step gradients are analytic.

The balanced objective draws equal-size positive/negative mini-batches
each step (resampled with replacement) so every step is an unbiased
estimate of the half-and-half risk regardless of the class counts.  The
pairwise objective draws a batch of (positive, negative) pairs uniformly
with replacement.  A run evaluates its full-data objective (its scores'
``empirical_ber_risk`` or ``pairwise_mean_loss`` plus its weight decay)
after epochs 1, 2, 4, 8, ... and the last, and a non-finite value at any
of them ends it with :class:`~symloss.errors.TrainingDivergedError`.

:func:`train_many` trains R runs that share every :class:`TrainConfig`
field but ``seed`` and ``loss``, and their point counts and dimension, as
one step loop on an (R, P) parameter array.  The stack holds each loss's
runs as one slice and each distinct point set once, with a linear
scorer's Jacobian ones column written there, so a step's gathered batch
is its Jacobian.  Each run keeps its own generator and makes every matrix
product a run trained alone makes, so its parameters and objective equal
that run's bit for bit on this numpy/OpenBLAS build; the serial loop is
the oracle in ``tests/test_training.py``.
:func:`train_ber` and :func:`train_auc` are batches of one, and the
gradients of :func:`make_objective` ("ber" or "auc") are the same rules
at R = 1.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .distributions import SampleSet, _points
from .errors import NonDifferentiableLossError, TrainingDivergedError
from .losses import LossSpec, get_loss
from .risks import _row_blocks, empirical_ber_risk, pairwise_mean_loss

__all__ = [
    "Scorer",
    "TrainConfig",
    "TrainTrace",
    "train_ber",
    "train_auc",
    "train_many",
    "make_objective",
]

# decay rates of the first and second moment estimates, and the floor added
# to the second moment's root, for the moment-rescaled steps
MOMENT_DECAY1 = 0.9
MOMENT_DECAY2 = 0.999
EPSILON = 1e-8


@dataclass(eq=False)
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
        h, d = self.hidden, self.dimension
        expected = d + 1 if self.kind == "linear" else h * d + 2 * h + 1
        if self.params.shape != (expected,):
            raise ValueError(
                f"{self.kind} scorer of dimension {self.dimension} needs "
                f"{expected} parameters, got {self.params.shape}"
            )
        if not np.all(np.isfinite(self.params)):
            raise ValueError(f"{self.kind} scorer params must be finite")

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

    def score(self, x: np.ndarray) -> np.ndarray:
        """Scores for one point (d,) or a batch (n, d)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = x.reshape(1, -1) if single else x
        if X.shape[1] != self.dimension:
            raise ValueError(f"expected {self.dimension}-dimensional points, got {X.shape[1]}")
        scores = _run_scores(self, self.params[None], X[None])[0]
        return float(scores[0]) if single else scores

    __call__ = score

    def score_with_jacobian(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Scores (n,) and the Jacobian d score_i / d param_j, shape (n, P)."""
        X = _jacobian_rows(self, np.asarray(X, dtype=float))
        scores, jac = _run_scores(self, self.params[None], X[None], jacobian=True)
        return scores[0], jac[0]


def _jacobian_rows(scorer: Scorer, X: np.ndarray) -> np.ndarray:
    """The points ``X`` (..., n, d) as :func:`_run_scores` takes them with
    ``jacobian``: for a linear scorer with the Jacobian's ones column
    appended, for an mlp as they are."""
    if scorer.kind != "linear":
        return X
    return np.concatenate([X, np.ones(X.shape[:-1] + (1,))], axis=-1)


def _run_scores(scorer: Scorer, theta: np.ndarray, X: np.ndarray, jacobian: bool = False):
    """Scores (R, ..., n) of R runs of ``scorer``'s shape, with parameters
    ``theta`` (R, P), each on its own points ``X`` (R, ..., n, d); with
    ``jacobian`` also d score / d param, (R, ..., n, P).  With ``jacobian``
    a linear scorer's ``X`` carries the ones column (:func:`_jacobian_rows`)
    and is itself the Jacobian.  Every matrix product is one BLAS call per
    run and (n, d) block: the call of a run scoring that block alone."""
    p = theta.reshape(len(theta), *[1] * (X.ndim - 3), -1)   # broadcasts over X's blocks
    b = p[..., -1:]
    if scorer.kind == "linear":
        if not jacobian:
            return (X @ p[..., :-1, None])[..., 0] + b
        return (X[..., :-1] @ p[..., :-1, None])[..., 0] + b, X
    h, d = scorer.hidden, scorer.dimension
    w = p[..., : h * d].reshape(*p.shape[:-1], h, d)
    c = p[..., None, h * d : h * d + h]
    v = p[..., h * d + h : h * d + 2 * h]
    t = np.tanh(X @ np.swapaxes(w, -1, -2) + c)   # (R, ..., n, h)
    scores = (t @ v[..., None])[..., 0] + b
    if not jacobian:
        return scores
    dt = (1.0 - t * t) * v[..., None, :]          # d score / d preactivation
    jac_w = dt[..., None] * X[..., None, :]       # (R, ..., n, h, d)
    jac = np.concatenate(
        [jac_w.reshape(*X.shape[:-1], h * d), dt, t, np.ones(X.shape[:-1] + (1,))], axis=-1
    )
    return scores, jac


@dataclass(frozen=True)
class TrainConfig:
    """Settings for one training run.

    ``adaptive_moments`` selects moment-rescaled gradient steps with the
    fixed module constants ``MOMENT_DECAY1`` = 0.9, ``MOMENT_DECAY2`` =
    0.999 and ``EPSILON`` = 1e-8; switching it off gives plain gradient
    descent at the same step size.  ``batch_size`` is the per-class batch
    for the balanced objective; ``pair_batch`` is the number of sampled
    pairs per step for the pairwise objective.
    """

    objective: str = "ber"
    loss: str = "sigmoid"
    step_size: float = 0.05
    adaptive_moments: bool = True
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
        for name in ("step_size", "weight_decay"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name in ("epochs", "batch_size", "pair_batch", "hidden_units"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive count")
        if self.model not in ("linear", "mlp"):
            raise ValueError(f"model must be 'linear' or 'mlp', got {self.model!r}")


@dataclass
class TrainTrace:
    """The trained scorer and its full-data objective after the last epoch."""

    objective: float
    scorer: Scorer
    config: TrainConfig


def _resolve_loss(config: TrainConfig) -> LossSpec:
    loss = get_loss(config.loss)
    if not loss.differentiable:
        raise NonDifferentiableLossError(
            f"cannot run gradient training with the {loss.name!r} loss"
        )
    return loss


def _contract(weights: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """One run's gradient sums, its weights times its Jacobian rows: the
    product a run trained alone makes.  Training calls it once per run and
    step, and the benchmark's tracer counts those calls as steps."""
    return weights @ jac


# positives, then negatives: the balanced risk scores l(s) and l(-s)
_CLASS_SIGNS = np.array([[1.0], [-1.0]])


def _class_sums(grad, scorer: Scorer, theta, X, signs, contract=_contract):
    """Sums (R, G, P), over each of R runs' G point blocks X (R, G, n, d),
    taken as :func:`_run_scores` takes them with ``jacobian``, of
    sign * l'(sign * s) * ds/dparam: the balanced risk's gradient sums,
    with sign +1 for positives and -1 for negatives.  ``grad`` maps the
    (R, ...) margins to their l'."""
    scores, jac = _run_scores(scorer, theta, X, jacobian=True)
    weights = signs * grad(signs * scores)
    return np.array([contract(*run) for run in zip(weights[..., None, :], jac)])[..., 0, :]


def _pair_sums(grad, scorer: Scorer, theta, X, divisor, contract=_contract):
    """Sums (R, P), over each of R runs' pairs (X[:, 0, i], X[:, 1, i]), of
    l'(s_pos - s_neg) / divisor * d(s_pos - s_neg)/dparam; ``X`` and
    ``grad`` as for :func:`_class_sums`."""
    scores, jac = _run_scores(scorer, theta, X, jacobian=True)
    weights = grad(scores[:, 0] - scores[:, 1]) / divisor
    return np.array([contract(*run) for run in zip(weights, jac[:, 0] - jac[:, 1])])


def _ber_gradient(grad_pos, grad_neg, theta, weight_decay) -> np.ndarray:
    return 0.5 * (grad_pos + grad_neg) + 2.0 * weight_decay * theta


def _objectives(ber: bool, loss: LossSpec, scorer: Scorer, theta, X_pos, X_neg, weight_decay):
    """Full-data balanced (``ber``) or pairwise objectives (R,) of R runs,
    each on its own points X_pos (R, m, d) and X_neg (R, n, d): each run's
    ``empirical_ber_risk`` or ``pairwise_mean_loss`` plus its weight decay."""
    risk = empirical_ber_risk if ber else pairwise_mean_loss
    sp, sn = _run_scores(scorer, theta, X_pos), _run_scores(scorer, theta, X_neg)
    values = np.array([risk(loss, pos, neg) for pos, neg in zip(sp, sn)])
    return values + weight_decay * (theta[:, None, :] @ theta[:, :, None])[:, 0, 0]


def make_objective(
    objective: str,
    loss: LossSpec,
    X_pos: np.ndarray,
    X_neg: np.ndarray,
    scorer: Scorer,
    weight_decay: float = 0.0,
) -> tuple[Callable[[np.ndarray], float], Callable[[np.ndarray], np.ndarray]]:
    """The full-data balanced ("ber") or pairwise ("auc") objective and its
    analytic parameter gradient: the rules training runs, at R = 1.  The
    pairwise gradient is the sampled-pair step's rule over all n+ x n-
    pairs, in the blocks of ``risks._row_blocks``, weighted 1 / (n+ n-)."""
    if objective not in ("ber", "auc"):
        raise ValueError(f"objective must be 'ber' or 'auc', got {objective!r}")
    ber = objective == "ber"
    X_pos, X_neg = np.asarray(X_pos, dtype=float), np.asarray(X_neg, dtype=float)
    n_pos, n_neg = len(X_pos), len(X_neg)
    J_pos, J_neg = _jacobian_rows(scorer, X_pos), _jacobian_rows(scorer, X_neg)

    def value(theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=float)[None]
        return float(_objectives(ber, loss, scorer, theta, X_pos[None], X_neg[None], weight_decay)[0])

    def gradient(theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)[None]
        if ber:
            grad_pos = _class_sums(loss.grad, scorer, theta, J_pos[None, None], 1.0)[:, 0] / n_pos
            grad_neg = _class_sums(loss.grad, scorer, theta, J_neg[None, None], -1.0)[:, 0] / n_neg
            return _ber_gradient(grad_pos, grad_neg, theta, weight_decay)[0]
        total = 2.0 * weight_decay * theta
        for rows in _row_blocks(n_pos, n_neg):
            pos, neg = np.divmod(np.arange(rows.start * n_neg, rows.stop * n_neg), n_neg)
            pairs = np.stack([J_pos[pos], J_neg[neg]])[None]
            total = total + _pair_sums(loss.grad, scorer, theta, pairs, n_pos * n_neg)
        return total[0]

    return value, gradient


# overflow is not warned about: a run that overflows reaches a non-finite
# objective, which raises TrainingDivergedError once every run has finished
@np.errstate(over="ignore", invalid="ignore")
def _run_steps(
    config: TrainConfig,
    theta: np.ndarray,
    draw: Callable[[int], np.ndarray],
    batch_gradient: Callable,
    step_gradient: Callable,
    full_objective: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, dict]:
    """Moment-rescaled or plain steps on the stacked parameters ``theta``
    (R, P), in place.

    ``draw()`` gives an epoch's batches, one per step;
    ``batch_gradient(theta, batch, step_gradient)`` the (R, P) gradients,
    calling ``step_gradient`` once per run; ``full_objective(theta)`` the
    (R,) objectives, called after epochs 1, 2, 4, 8, ... and the last.
    Returns the last epoch's objectives and, for each run whose objective
    was not finite at one of those epochs, the first such epoch and value.
    """
    first_moment = np.zeros_like(theta)
    second_moment = np.zeros_like(theta)
    lr = config.step_size
    b1, b2, eps = MOMENT_DECAY1, MOMENT_DECAY2, EPSILON
    step = 0
    diverged = {}
    for epoch in range(1, config.epochs + 1):
        for batch in draw():
            grad = batch_gradient(theta, batch, step_gradient)
            step += 1
            if config.adaptive_moments:
                first_moment = b1 * first_moment + (1.0 - b1) * grad
                second_moment = b2 * second_moment + (1.0 - b2) * grad * grad
                m_hat = first_moment / (1.0 - b1**step)
                v_hat = second_moment / (1.0 - b2**step)
                theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
            else:
                theta -= lr * grad
        # doubling checkpoints: O(log epochs) full-data evaluations, and a
        # divergence is named within a factor of two of its first epoch
        if epoch & (epoch - 1) == 0 or epoch == config.epochs:
            values = full_objective(theta)
            for run in np.flatnonzero(~np.isfinite(values)):
                diverged.setdefault(int(run), (epoch, float(values[run])))
    return values, diverged


@dataclass(eq=False)
class _Run:
    """One run declared by :func:`train_ber` or :func:`train_auc`: its
    points and generator, and the trace its training fills in."""

    X_pos: np.ndarray
    X_neg: np.ndarray
    rng: np.random.Generator
    trace: TrainTrace


def _points_of(sample_set, name: str) -> np.ndarray:
    points = _points(sample_set.points if isinstance(sample_set, SampleSet) else sample_set)
    if points.shape[0] == 0:
        raise ValueError(f"sample set {name} is empty")
    if not np.all(np.isfinite(points)):
        raise ValueError(f"sample set {name} holds a non-finite point")
    return points


# the runs declared while train_many calls its trainer; None outside it.
# Runs enter through train_ber/train_auc, so whatever wraps or counts those
# calls, such as the benchmark's tracer, sees every run.
_declared: ContextVar[Optional[list]] = ContextVar("declared", default=None)


def _train(objective: str, set_pos, set_neg, config: TrainConfig) -> TrainTrace:
    """Set up one run of :func:`train_ber` ("ber") or :func:`train_auc`
    ("auc"), then train it alone or, inside :func:`train_many`, declare it.

    Each step draws k positive, then k negative indices uniformly with
    replacement and takes the batch gradient on those points, with k =
    ``batch_size`` for "ber" and ``pair_batch`` for "auc".  An epoch is
    ceil(max(n_pos, n_neg) / batch_size) steps for both.
    """
    _resolve_loss(config)
    X_pos, X_neg = _points_of(set_pos, "set_pos"), _points_of(set_neg, "set_neg")
    rng = np.random.default_rng(config.seed)
    if config.model == "linear":
        scorer = Scorer.linear(X_pos.shape[1])
    else:
        scorer = Scorer.mlp(X_pos.shape[1], config.hidden_units, rng)
    # the objective stays nan until the run has trained
    trace = TrainTrace(math.nan, scorer, replace(config, objective=objective))
    run = _Run(X_pos, X_neg, rng, trace)
    declared = _declared.get()
    if declared is None:
        _train_stack([run])
    else:
        declared.append(run)
    return run.trace


def _take(points: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """``points[sets]``, as a view when the set numbers count up by one, as
    they do for each loss's runs of a grid."""
    if np.all(np.diff(sets) == 1):
        return points[sets[0] : sets[-1] + 1]
    return points[sets]


def _train_stack(runs: list[_Run]) -> None:
    """Train ``runs`` as one stacked step loop and fill in their traces.

    The stack orders the runs by loss (a stable sort), so each loss's runs
    form one slice, whose l' and objectives are taken together.  Runs given
    the same point arrays share their rows."""
    first = runs[0]
    config = first.trace.config
    for run in runs[1:]:
        if (
            replace(run.trace.config, seed=config.seed, loss=config.loss) != config
            or run.X_pos.shape != first.X_pos.shape
            or run.X_neg.shape != first.X_neg.shape
        ):
            raise ValueError(
                "runs trained together must share every TrainConfig field except "
                "seed and loss, and their point counts and dimension"
            )
    order = sorted(range(len(runs)), key=lambda position: runs[position].trace.config.loss)
    stack = [runs[position] for position in order]
    names = [run.trace.config.loss for run in stack]
    slices = [
        (get_loss(name), slice(names.index(name), names.index(name) + names.count(name)))
        for name in dict.fromkeys(names)
    ]
    scorer = first.trace.scorer
    (n_pos, d), n_neg = first.X_pos.shape, len(first.X_neg)
    ber = config.objective == "ber"
    k = config.batch_size if ber else config.pair_batch
    # each distinct point set's positives, then its negatives, once, and for
    # a linear scorer the Jacobian's ones column after their d features
    distinct = {}
    sets = np.array([
        distinct.setdefault((id(run.X_pos), id(run.X_neg)), (len(distinct), run))[0]
        for run in stack
    ])
    points = np.ones((len(distinct), n_pos + n_neg, d + (scorer.kind == "linear")))
    for number, run in distinct.values():
        points[number, :n_pos, :d], points[number, n_pos:, :d] = run.X_pos, run.X_neg
    rows = points.reshape(-1, points.shape[2])
    X_pos, X_neg = points[:, :n_pos, :d], points[:, n_pos:, :d]
    first_row = sets[:, None, None] * (n_pos + n_neg) + [[0], [n_pos]]
    # equal bounds take numpy's faster scalar-bound path, which draws the same
    high = n_pos if n_pos == n_neg else np.array([[n_pos], [n_neg]])
    steps_per_epoch = max(1, math.ceil(max(n_pos, n_neg) / config.batch_size))
    drawn = np.empty((steps_per_epoch, len(stack), 2, k), dtype=np.int64)

    def draw() -> np.ndarray:
        """Row numbers (steps, R, 2, k) in ``rows`` of an epoch's batches,
        from one draw per run: the indices its per-step draws would give."""
        for place, run in enumerate(stack):
            drawn[:, place] = run.rng.integers(0, high, size=(steps_per_epoch, 2, k))
        drawn[:] += first_row
        return drawn

    def grad(margins):
        """l' of the (R, ...) margins, each slice's by its own loss."""
        weights = np.empty_like(margins)
        for loss, part in slices:
            weights[part] = loss.grad(margins[part])
        return weights

    def batch_gradient(theta, batch, contract):
        gathered = np.take(rows, batch, axis=0)   # (R, 2, k, width of rows)
        if ber:
            sums = _class_sums(grad, scorer, theta, gathered, _CLASS_SIGNS, contract)
            return _ber_gradient(sums[:, 0] / k, sums[:, 1] / k, theta, config.weight_decay)
        sums = _pair_sums(grad, scorer, theta, gathered, k, contract)
        return sums + 2.0 * config.weight_decay * theta

    def full_objective(theta):
        return np.concatenate([
            _objectives(
                ber, loss, scorer, theta[part], _take(X_pos, sets[part]),
                _take(X_neg, sets[part]), config.weight_decay,
            )
            for loss, part in slices
        ])

    theta = np.array([run.trace.scorer.params for run in stack])
    objectives, diverged = _run_steps(config, theta, draw, batch_gradient, _contract, full_objective)
    if diverged:
        place = min(diverged, key=order.__getitem__)   # the first in list order
        (epoch, value), run = diverged[place], stack[place]
        raise TrainingDivergedError(
            f"training diverged: the full-data objective is {value} after epoch "
            f"{epoch} of {config.epochs} (loss {run.trace.config.loss!r}, seed "
            f"{run.trace.config.seed}, step_size {config.step_size}); try a "
            "smaller step_size",
            run=order[place],
        )
    for run, params, objective in zip(stack, theta, objectives):
        run.trace.scorer.params = params.copy()
        run.trace.objective = float(objective)


def train_ber(set_pos, set_neg, config: TrainConfig) -> TrainTrace:
    """Minimize the balanced empirical risk by stochastic gradient steps.

    Deterministic given (data, config): one seeded generator drives the
    scorer initialization and all batch draws.
    """
    return _train("ber", set_pos, set_neg, config)


def train_auc(set_pos, set_neg, config: TrainConfig) -> TrainTrace:
    """Minimize the pairwise empirical risk by sampled-pair gradient steps.

    Each step draws ``config.pair_batch`` (positive, negative) pairs
    uniformly with replacement; the trace holds the full pairwise objective
    after the last epoch.
    """
    return _train("auc", set_pos, set_neg, config)


def train_many(trainer, sets, configs) -> list[TrainTrace]:
    """``trainer(set_pos, set_neg, config)`` for each ``(set_pos, set_neg)``
    of ``sets`` with its config, trained as one stacked step loop.

    ``trainer`` is :func:`train_ber` or :func:`train_auc`, or a function
    that calls one of them once; each call declares its run, and the
    declared runs then train together.  They must share every TrainConfig
    field except ``seed`` and ``loss``, and their point counts and
    dimension; any other mix is a ValueError.  Runs given the same point
    arrays share one copy of them.  Every run trains to the end; if some
    diverged, the TrainingDivergedError of the first of them in list
    order is raised, naming its loss, with its position as ``run``.
    """
    token = _declared.set([])
    try:
        traces = [trainer(*pair, config) for pair, config in zip(sets, configs, strict=True)]
        runs = _declared.get()
    finally:
        _declared.reset(token)
    if len(runs) != len(traces):
        raise ValueError("each trainer call must declare exactly one run")
    if runs:
        _train_stack(runs)
    return traces

"""Mutually contaminated data: exact densities and corrupted sampling.

The corruption model mixes the two clean class-conditional densities.  A
corrupted-positive draw comes from
``pi_corr_pos * p(x|+1) + (1 - pi_corr_pos) * p(x|-1)`` and a
corrupted-negative draw from the same mixture with ``pi_corr_neg``.
Training data are clean when (pi_corr_pos, pi_corr_neg) = (1, 0) and get
noisier as the two proportions approach each other.

Two substrates are provided: finite-support distributions, where the
mixtures (and every expectation downstream) are computed exactly, and
samplers, where corrupted sets are drawn point by point with the true
component recorded as a hidden label for evaluation only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "McdParams",
    "DiscreteBinaryDistribution",
    "SampleSet",
    "GaussianPairConfig",
    "corrupt_distribution",
    "sample_mcd",
    "pu_params",
    "uu_params",
]

# A sampler maps (rng, n) to an (n, d) array of points.
Sampler = Callable[[np.random.Generator, int], np.ndarray]


@dataclass(frozen=True)
class McdParams:
    """Mixture proportions of the corrupted-positive and corrupted-negative sets.

    The corrupted-positive set must carry more positive mass than the
    corrupted-negative one (pi_corr_pos > pi_corr_neg); otherwise the two
    sets are indistinguishable or swapped and nothing downstream holds.
    """

    pi_corr_pos: float
    pi_corr_neg: float

    def __post_init__(self) -> None:
        a, b = self.pi_corr_pos, self.pi_corr_neg
        if not (0.0 < a <= 1.0):
            raise ValueError(f"pi_corr_pos must be in (0, 1], got {a}")
        if not (0.0 <= b < 1.0):
            raise ValueError(f"pi_corr_neg must be in [0, 1), got {b}")
        if not a > b:
            raise ValueError(
                f"need pi_corr_pos > pi_corr_neg, got {a} <= {b}; "
                "equal proportions make the two corrupted sets indistinguishable"
            )

    @property
    def separation(self) -> float:
        """pi_corr_pos - pi_corr_neg; small values mean highly noisy data."""
        return self.pi_corr_pos - self.pi_corr_neg


def pu_params(class_prior_unlabeled: float) -> McdParams:
    """Positive-unlabeled learning as corruption: clean positives plus an
    unlabeled set treated as negative, so (pi_corr_pos, pi_corr_neg) =
    (1, class prior of the unlabeled set)."""
    p = float(class_prior_unlabeled)
    if not (0.0 < p < 1.0):
        raise ValueError(f"unlabeled class prior must be in (0, 1), got {p}")
    return McdParams(pi_corr_pos=1.0, pi_corr_neg=p)


def uu_params(pi_u: float, pi_u_prime: float) -> McdParams:
    """Two unlabeled sets with different class priors as corruption:
    (pi_corr_pos, pi_corr_neg) = (pi_u, pi_u_prime) with pi_u > pi_u_prime."""
    a, b = float(pi_u), float(pi_u_prime)
    if not (0.0 < b < a < 1.0):
        raise ValueError(
            f"need 1 > pi_u > pi_u_prime > 0, got pi_u={a}, pi_u_prime={b}"
        )
    return McdParams(pi_corr_pos=a, pi_corr_neg=b)


@dataclass(frozen=True, eq=False)
class DiscreteBinaryDistribution:
    """Finite-support class conditionals.

    This is the substrate for the exact-expectation oracles: with a finite
    support every risk and every decomposition term is a plain weighted
    sum, so identities can be checked to machine precision instead of up
    to sampling error.
    """

    support: np.ndarray
    p_pos: np.ndarray
    p_neg: np.ndarray

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=float)
        if support.ndim == 1:
            # a 1-D length-m input is m scalar points, not one m-dim point
            support = support.reshape(-1, 1)
        p_pos = np.asarray(self.p_pos, dtype=float)
        p_neg = np.asarray(self.p_neg, dtype=float)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "p_pos", p_pos)
        object.__setattr__(self, "p_neg", p_neg)

        m = support.shape[0]
        if p_pos.shape != (m,) or p_neg.shape != (m,):
            raise ValueError(
                f"density vectors must have length {m} to match the support"
            )
        # a NaN passes every comparison below
        if not all(np.all(np.isfinite(x)) for x in (support, p_pos, p_neg)):
            raise ValueError("support and densities must be finite")
        for label, p in (("p_pos", p_pos), ("p_neg", p_neg)):
            if np.any(p < 0):
                raise ValueError(f"{label} has negative entries")
            if abs(float(p.sum()) - 1.0) > 1e-12:
                raise ValueError(f"{label} sums to {p.sum()!r}, not 1")
        if np.unique(support, axis=0).shape[0] != m:
            raise ValueError("support points must be distinct")

    @property
    def size(self) -> int:
        return self.support.shape[0]


def corrupt_distribution(
    clean: DiscreteBinaryDistribution, params: McdParams
) -> tuple[np.ndarray, np.ndarray]:
    """Exact corrupted densities over the clean support.

    Returns the corrupted-positive and corrupted-negative probability
    vectors; each is a convex mixture of the clean class conditionals and
    sums to 1 up to roundoff.
    """
    a, b = params.pi_corr_pos, params.pi_corr_neg
    corr_pos = a * clean.p_pos + (1.0 - a) * clean.p_neg
    corr_neg = b * clean.p_pos + (1.0 - b) * clean.p_neg
    return corr_pos, corr_neg


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Points and, for evaluation only, hidden labels.

    ``hidden_labels`` records which clean component each point was drawn
    from.  Learners never read it; the evaluation harness uses it to
    measure empirical mixture proportions and clean-test metrics.
    """

    points: np.ndarray
    hidden_labels: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(-1, 1)
        object.__setattr__(self, "points", points)
        if self.hidden_labels is not None:
            labels = np.asarray(self.hidden_labels, dtype=int)
            object.__setattr__(self, "hidden_labels", labels)
            if labels.shape != (points.shape[0],):
                raise ValueError("hidden_labels length must match points")
            if not np.all(np.isin(labels, (-1, 1))):
                raise ValueError("hidden labels must be +1 or -1")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def positive_fraction(self) -> float:
        """Fraction of hidden labels equal to +1 (evaluation only)."""
        if self.hidden_labels is None:
            raise ValueError("sample set has no hidden labels")
        return float(np.mean(self.hidden_labels == 1))


def _draw_mixture(
    rng: np.random.Generator,
    sampler_pos: Sampler,
    sampler_neg: Sampler,
    pi: float,
    n: int,
) -> SampleSet:
    # component coins for the whole block first, then one block draw per
    # component: deterministic under the seed and unbiased for the mixture
    coins = rng.random(n) < pi
    k = int(coins.sum())
    from_pos = sampler_pos(rng, k)
    from_neg = sampler_neg(rng, n - k)
    d = from_pos.shape[1] if k > 0 else from_neg.shape[1]
    points = np.empty((n, d), dtype=float)
    points[coins] = from_pos
    points[~coins] = from_neg
    labels = np.where(coins, 1, -1)
    return SampleSet(points=points, hidden_labels=labels)


def sample_mcd(
    sampler_pos: Sampler,
    sampler_neg: Sampler,
    params: McdParams,
    n_pos: int,
    n_neg: int,
    seed: int,
) -> tuple[SampleSet, SampleSet]:
    """Draw the two corrupted training sets.

    Each corrupted-positive point picks the positive class conditional
    with probability ``params.pi_corr_pos`` (the corrupted-negative set
    uses ``pi_corr_neg``), and the chosen component is stored as the
    point's hidden label.  Identical seeds give identical sample sets.
    """
    if n_pos < 1 or n_neg < 1:
        raise ValueError(f"sample counts must be >= 1, got {n_pos}, {n_neg}")
    rng = np.random.default_rng(seed)
    corr_pos = _draw_mixture(rng, sampler_pos, sampler_neg, params.pi_corr_pos, n_pos)
    corr_neg = _draw_mixture(rng, sampler_pos, sampler_neg, params.pi_corr_neg, n_neg)
    return corr_pos, corr_neg


@dataclass(frozen=True, eq=False)
class GaussianPairConfig:
    """Two spherical-or-diagonal Gaussians, one per class."""

    mean_pos: np.ndarray
    mean_neg: np.ndarray
    covariance: np.ndarray
    dimension: int

    def __post_init__(self) -> None:
        mean_pos = np.asarray(self.mean_pos, dtype=float)
        mean_neg = np.asarray(self.mean_neg, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "mean_pos", mean_pos)
        object.__setattr__(self, "mean_neg", mean_neg)
        object.__setattr__(self, "covariance", cov)
        d = self.dimension
        if d < 1:
            raise ValueError("dimension must be positive")
        if mean_pos.shape != (d,) or mean_neg.shape != (d,):
            raise ValueError(f"means must have length {d}")
        if cov.shape != (d,):
            raise ValueError(f"diagonal covariance must have length {d}")
        if not np.all(np.isfinite([mean_pos, mean_neg, cov])):
            raise ValueError("means and covariance must be finite")
        if np.any(cov <= 0):
            raise ValueError("covariance entries must be positive")

    def samplers(self) -> tuple[Sampler, Sampler]:
        """Class-conditional samplers for :func:`sample_mcd`."""
        scale = np.sqrt(self.covariance)

        def sampler_pos(rng: np.random.Generator, n: int) -> np.ndarray:
            return rng.normal(self.mean_pos, scale, size=(n, self.dimension))

        def sampler_neg(rng: np.random.Generator, n: int) -> np.ndarray:
            return rng.normal(self.mean_neg, scale, size=(n, self.dimension))

        return sampler_pos, sampler_neg


"""Test oracles for the analytic machinery: a brute-force minimizer over an
enumerated scorer family and a central finite-difference gradient check.
The package never calls them; the tests import them from here."""

from typing import Callable, Iterable

import numpy as np


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

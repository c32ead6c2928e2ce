"""Poisson arrival-time sampling, homogeneous and non-homogeneous.

The channel arrival process is Poisson with a time-varying rate
Lambda^(c)(t) = mean rate x diurnal factor. Non-homogeneous sampling uses
Lewis-Shedler thinning against a supplied vectorized rate function; it is
the one thinning sampler behind both the closed-loop and catalog traces.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "poisson_arrival_times",
    "nonhomogeneous_poisson_times",
    "interval_rates",
]


def poisson_arrival_times(
    rng: np.random.Generator, rate: float, horizon: float
) -> np.ndarray:
    """Arrival times of a homogeneous Poisson process on [0, horizon).

    Returns a sorted array; empty when ``rate`` is 0.
    """
    for name, value in (("rate", rate), ("horizon", horizon)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if rate == 0 or horizon == 0:
        return np.empty(0, dtype=float)
    count = rng.poisson(rate * horizon)
    return np.sort(rng.uniform(0.0, horizon, size=count))


def nonhomogeneous_poisson_times(
    rng: np.random.Generator,
    rate_fn: Callable[[np.ndarray], np.ndarray],
    horizon: float,
    rate_ceiling: float,
) -> np.ndarray:
    """Lewis-Shedler thinning for a non-homogeneous Poisson process.

    Parameters
    ----------
    rate_fn:
        Instantaneous rate lambda(t) (events/second), evaluated on the
        whole array of candidate times at once; must satisfy
        ``0 <= rate_fn(t) <= rate_ceiling`` on [0, horizon).
    rate_ceiling:
        A (tight-ish) upper bound on the rate; candidates are generated at
        this rate and accepted with probability rate_fn(t)/ceiling.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if rate_ceiling < 0:
        raise ValueError(f"rate ceiling must be >= 0, got {rate_ceiling}")
    if horizon == 0 or rate_ceiling == 0:
        return np.empty(0, dtype=float)

    candidates = poisson_arrival_times(rng, rate_ceiling, horizon)
    if candidates.size == 0:
        return candidates
    accept_probs = rate_fn(candidates) / rate_ceiling
    if np.any(accept_probs > 1 + 1e-9):
        raise ValueError("rate_fn exceeded rate_ceiling; thinning is invalid")
    keep = rng.random(candidates.size) < accept_probs
    return candidates[keep]


def interval_rates(
    arrival_times: Sequence[float], horizon: float, interval: float
) -> np.ndarray:
    """Empirical per-interval average arrival rates (events/second).

    This is exactly what the tracker reports to the controller: the average
    arrival rate observed in each provisioning interval.
    """
    if interval <= 0:
        raise ValueError(f"interval must be > 0, got {interval}")
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    times = np.asarray(arrival_times, dtype=float)
    num_bins = int(np.ceil(horizon / interval))
    counts, _ = np.histogram(times, bins=num_bins, range=(0.0, num_bins * interval))
    return counts / interval

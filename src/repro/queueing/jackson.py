"""Open Jackson network traffic equations (paper Eqn (1)).

Per-queue aggregate arrival rates solve the linear system

    lambda_i = ext_i + sum_j lambda_j P[j, i]        (i = 1..J)

where ``ext`` is the external arrival split: a fraction ``alpha`` of the
channel's Poisson arrivals (rate Lambda) start at chunk 1 and the remaining
``1 - alpha`` start uniformly at the other chunks. Because P is substochastic
with spectral radius < 1 the system has a unique nonnegative solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from repro.queueing.transitions import validate_transition_matrix

__all__ = ["external_arrival_vector", "solve_traffic_equations", "TrafficSolution"]


def external_arrival_vector(
    num_chunks: int, total_rate: ArrayLike, alpha: ArrayLike = 0.8
) -> np.ndarray:
    """External per-chunk arrival rates for a channel (paper Section IV-A).

    Parameters
    ----------
    num_chunks:
        Number of chunks J in the channel.
    total_rate:
        Channel-level external Poisson arrival rate Lambda (users/second).
        An array of rates (with a matching ``alpha``, or a scalar one)
        gives one vector per rate, shape ``rates.shape + (J,)``.
    alpha:
        Fraction of arrivals that start watching from the first chunk; the
        rest start at one of the remaining chunks uniformly.
    """
    if num_chunks <= 0:
        raise ValueError("need at least one chunk")
    rate = np.asarray(total_rate, dtype=float)
    split = np.asarray(alpha, dtype=float)
    if not np.all(np.isfinite(rate)):
        raise ValueError(
            f"arrival rate must be finite, got {rate[~np.isfinite(rate)].flat[0]}"
        )
    if np.any(rate < 0):
        raise ValueError(f"arrival rate must be >= 0, got {rate.min()}")
    if not np.all((split >= 0.0) & (split <= 1.0)):
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    rate, split = np.broadcast_arrays(rate, split)
    ext = np.zeros(rate.shape + (num_chunks,), dtype=float)
    if num_chunks == 1:
        ext[..., 0] = rate
        return ext
    ext[..., 0] = split * rate
    ext[..., 1:] = ((1.0 - split) * rate / (num_chunks - 1))[..., None]
    return ext


@dataclass(frozen=True)
class TrafficSolution:
    """Solution of the traffic equations for one channel."""

    arrival_rates: np.ndarray  # lambda_i, users/second per chunk queue
    external_rates: np.ndarray  # ext_i
    transition_matrix: np.ndarray  # P

    @property
    def total_external_rate(self) -> float:
        return float(self.external_rates.sum())


def solve_traffic_equations(
    transition_matrix: np.ndarray,
    external_rates: np.ndarray,
) -> TrafficSolution:
    """Solve ``lambda = ext + P^T lambda`` for the per-queue arrival rates.

    A stack of matrices ``(..., J, J)`` with rates ``(..., J)`` is solved
    at once; the result's arrays then carry the same leading axes (its
    scalar properties describe a single channel).

    Raises ``ValueError`` if P is invalid (rows superstochastic or spectral
    radius >= 1) or if external rates are negative or non-finite.
    """
    return solve_validated(validate_transition_matrix(transition_matrix),
                           external_rates)


def solve_validated(p: np.ndarray, external_rates: np.ndarray) -> TrafficSolution:
    """:func:`solve_traffic_equations` for a P that
    :func:`~repro.queueing.transitions.validate_transition_matrix` has
    already returned (the batched demand path validates each stack once).
    """
    ext = np.asarray(external_rates, dtype=float)
    if ext.shape != p.shape[:-1]:
        raise ValueError(
            f"external_rates shape {ext.shape} does not match matrix {p.shape}"
        )
    if not np.all(np.isfinite(ext)):
        raise ValueError("external arrival rates must be finite")
    if np.any(ext < 0):
        raise ValueError("external arrival rates must be nonnegative")

    identity = np.eye(p.shape[-1])
    # (I - P^T) lambda = ext ; nonsingular because spectral radius(P) < 1.
    # A stacked solve runs LAPACK gesv once per matrix, so every slot's
    # rates are bitwise those of its own solve.
    rates = np.linalg.solve(identity - np.swapaxes(p, -1, -2), ext[..., None])[..., 0]
    # Numerical noise can introduce tiny negatives; clamp them.
    rates = np.where(rates < 0, 0.0, rates)
    return TrafficSolution(
        arrival_rates=rates, external_rates=ext, transition_matrix=p
    )

"""Equilibrium chunk-ownership propagation (paper Proposition 1).

Let nu_ij be the expected number of peers currently in chunk queue j whose
playback buffer already holds chunk i. Peers keep every downloaded chunk
until they leave the channel, so ownership of chunk i "flows" with peers as
they move between queues according to the transfer matrix P. Proposition 1
states the equilibrium balance

    E[nu_ij] = sum_l E[nu_il] * P[l, j]      for all j != i,

anchored by E[nu_ii] = E[n_i] (peers still *downloading* chunk i, who become
owners as soon as they move on and are not counted as suppliers while in
queue i). For each chunk i this is a linear fixed point in the unknowns
{nu_ij : j != i}; we solve it directly with a dense linear solve per chunk.

The total supplier count for chunk i is nu_i = sum_{j != i} nu_ij.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.queueing.transitions import validate_transition_matrix

__all__ = ["OwnershipResult", "solve_ownership"]


@dataclass(frozen=True)
class OwnershipResult:
    """Equilibrium ownership counts for one channel.

    Attributes
    ----------
    per_queue:
        Matrix ``per_queue[i, j] = E[nu_ij]``: expected peers in queue j
        owning chunk i. The diagonal holds E[n_i] (the anchor), which is
        *excluded* from supplier totals.
    owners:
        Vector ``owners[i] = E[nu_i] = sum_{j != i} per_queue[i, j]``.
    population:
        Total expected channel population ``sum_i E[n_i]``.
    """

    per_queue: np.ndarray = field(repr=False)
    owners: np.ndarray = field(repr=False)
    population: float

    def rarest_order(self) -> np.ndarray:
        """Chunk indices sorted by increasing owner count (rarest first).

        Ties break on the chunk index so the order is deterministic.
        """
        return np.lexsort((np.arange(self.owners.size), self.owners))


def solve_ownership(
    transition_matrix: np.ndarray,
    expected_in_system: np.ndarray,
) -> OwnershipResult:
    """Solve Proposition 1 for every chunk of a channel.

    Parameters
    ----------
    transition_matrix:
        Chunk-transfer matrix P^(c) (validated substochastic).
    expected_in_system:
        E[n_i] per chunk queue from the capacity analysis
        (:func:`repro.queueing.capacity.solve_channel_capacity`).
    """
    return ownership_from_valid(
        validate_transition_matrix(transition_matrix), expected_in_system
    )


def ownership_from_valid(
    p: np.ndarray, expected_in_system: np.ndarray
) -> OwnershipResult:
    """:func:`solve_ownership` for a P that
    :func:`~repro.queueing.transitions.validate_transition_matrix` has
    already returned (the batched demand path validates each stack once).
    """
    n = np.asarray(expected_in_system, dtype=float)
    if n.shape != (p.shape[0],):
        raise ValueError(
            f"expected_in_system shape {n.shape} does not match matrix {p.shape}"
        )
    if np.any(n < 0):
        raise ValueError("expected_in_system must be nonnegative")

    j_total = p.shape[0]
    per_queue = np.zeros((j_total, j_total), dtype=float)

    for i in range(j_total):
        # Unknowns x_j = nu_ij for j != i; x satisfies
        #   x_j = sum_{l != i} x_l P[l, j] + n_i * P[i, j]
        # i.e. (I - P_sub^T) x = n_i * P[i, others]^T where P_sub drops
        # row i and column i.
        others = [j for j in range(j_total) if j != i]
        if not others:
            per_queue[i, i] = n[i]
            continue
        p_sub = p[np.ix_(others, others)]
        rhs = n[i] * p[i, others]
        identity = np.eye(len(others))
        x = np.linalg.solve(identity - p_sub.T, rhs)
        x = np.where(x < 0, 0.0, x)  # clamp numerical noise
        per_queue[i, others] = x
        per_queue[i, i] = n[i]

    owners = per_queue.sum(axis=1) - np.diag(per_queue)
    return OwnershipResult(
        per_queue=per_queue,
        owners=owners,
        population=float(n.sum()),
    )

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
{nu_ij : j != i}; every chunk's system, of every channel in a stack, is
solved directly in one stacked dense linear solve.

The total supplier count for chunk i is nu_i = sum_{j != i} nu_ij.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.queueing.transitions import validate_transition_matrix

__all__ = ["OwnershipResult", "solve_ownership"]


@dataclass(frozen=True)
class OwnershipResult:
    """Equilibrium ownership counts for one channel, or a stack of them.

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

    Over a stack every field carries the stack's leading axes.
    """

    per_queue: np.ndarray = field(repr=False)
    owners: np.ndarray = field(repr=False)
    population: float


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
    """Proposition 1 over a validated stack of channels.

    ``p`` is ``(..., J, J)`` as returned by
    :func:`~repro.queueing.transitions.validate_transition_matrix` and
    ``expected_in_system`` is ``(..., J)``.  Chunk i's unknowns
    x_j = nu_ij (j != i) satisfy

        x_j = sum_{l != i} x_l P[l, j] + n_i * P[i, j],

    i.e. (I - P_sub^T) x = n_i * P[i, others]^T where P_sub drops row i
    and column i.  All ``(..., J)`` such systems go to one stacked
    ``np.linalg.solve``, which runs LAPACK ``gesv`` on each matrix as a
    one-system solve would, so every entry is bitwise what a per-chunk
    solve gives.  :func:`solve_ownership` is its one-channel call.
    """
    n = np.asarray(expected_in_system, dtype=float)
    if n.shape != p.shape[:-1]:
        raise ValueError(
            f"expected_in_system shape {n.shape} does not match matrix {p.shape}"
        )
    if np.any(n < 0):
        raise ValueError("expected_in_system must be nonnegative")

    j_total = p.shape[-1]
    # others[i] lists the chunks j != i in increasing order.
    cols = np.arange(j_total - 1)
    chunks = np.arange(j_total)[:, None]
    others = cols + (cols >= chunks)
    p_sub = p[..., others[:, :, None], others[:, None, :]]
    rhs = n[..., None] * p[..., chunks, others]
    x = np.linalg.solve(
        np.eye(j_total - 1) - np.swapaxes(p_sub, -1, -2), rhs[..., None]
    )[..., 0]
    x = np.where(x < 0, 0.0, x)  # clamp numerical noise

    per_queue = np.zeros(p.shape, dtype=float)
    per_queue[..., chunks, others] = x
    diagonal = np.arange(j_total)
    per_queue[..., diagonal, diagonal] = n
    owners = per_queue.sum(axis=-1) - n
    return OwnershipResult(
        per_queue=per_queue,
        owners=owners,
        population=n.sum(axis=-1),
    )

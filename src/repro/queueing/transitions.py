"""Chunk-transfer probability matrices P^(c) (paper Section IV-A).

Entry ``P[i, j]`` is the probability that a user who just finished
downloading chunk ``i`` moves on to download chunk ``j``; the row deficit
``1 - sum_j P[i, j]`` is the probability of leaving the channel after
chunk ``i``. Rows must therefore be substochastic, and for the open Jackson
network to possess an equilibrium every user must eventually leave (the
spectral radius of P must be < 1).

This module provides parametric builders for the behaviours the evaluation
uses (sequential viewing, VCR jumps, mixtures) and an empirical estimator
that recovers P from observed per-interval transition counts, which is what
the CloudMedia tracker reports to the controller (Section V-B).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = [
    "validate_transition_matrix",
    "sequential_matrix",
    "uniform_jump_matrix",
    "mixture_matrix",
    "empirical_transition_matrix",
]

_TOL = 1e-9


def validate_transition_matrix(matrix: np.ndarray, *, tol: float = _TOL) -> np.ndarray:
    """Validate and return P as a float ndarray.

    Checks: square, entries finite and in [0, 1], rows substochastic, and
    spectral radius < 1 (every viewer eventually departs).  A stack of
    matrices ``(..., J, J)`` is validated in one pass.
    """
    p = np.asarray(matrix, dtype=float)
    if p.ndim < 2 or p.shape[-2] != p.shape[-1]:
        raise ValueError(f"transition matrix must be square, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("transition matrix has a non-finite entry")
    if np.any(p < -tol) or np.any(p > 1 + tol):
        raise ValueError("transition probabilities must lie in [0, 1]")
    row_sums = p.sum(axis=-1)
    over = row_sums > 1 + tol
    if np.any(over):
        bad = np.unravel_index(int(np.argmax(over)), over.shape)
        raise ValueError(
            f"row {bad[-1]} sums to {row_sums[bad]:.6f} > 1; rows must be "
            "substochastic"
        )
    if p.size:
        # The spectral radius is bounded by the inf-norm; when every
        # absolute row sum is safely below 1 the eigenvalue solve is
        # conclusive without being computed (the common case: empirical
        # matrices always carry departure mass).
        suspect = np.abs(p).sum(axis=-1).max(axis=-1) >= 1 - 1e-12
        if np.any(suspect):
            radius = np.abs(np.linalg.eigvals(p[suspect])).max(axis=-1)
            if np.any(radius >= 1 - 1e-12):
                raise ValueError(
                    f"spectral radius {float(radius.max()):.6f} >= 1: users "
                    "would never depart"
                )
    return np.clip(p, 0.0, 1.0)


def sequential_matrix(num_chunks: int, continue_prob: float = 0.9) -> np.ndarray:
    """Pure sequential viewing: after chunk i, watch i+1 w.p. ``continue_prob``.

    The last chunk always departs. This is the canonical "no VCR operations"
    behaviour.
    """
    if num_chunks <= 0:
        raise ValueError("need at least one chunk")
    if not 0.0 <= continue_prob < 1.0:
        raise ValueError(f"continue_prob must be in [0, 1), got {continue_prob}")
    p = np.zeros((num_chunks, num_chunks), dtype=float)
    for i in range(num_chunks - 1):
        p[i, i + 1] = continue_prob
    return p


def uniform_jump_matrix(
    num_chunks: int,
    continue_prob: float = 0.8,
    jump_prob: float = 0.1,
) -> np.ndarray:
    """Sequential viewing with uniform VCR jumps.

    After chunk i a user continues to i+1 w.p. ``continue_prob``, jumps to a
    uniformly random *other* chunk w.p. ``jump_prob``, and departs with the
    remaining probability. This matches the paper's arrival model where
    (1 - alpha) of users start at a uniformly random chunk, applied to
    mid-session seeks.
    """
    if num_chunks <= 0:
        raise ValueError("need at least one chunk")
    if continue_prob < 0 or jump_prob < 0 or continue_prob + jump_prob >= 1.0:
        raise ValueError("need continue_prob + jump_prob < 1 for departures to occur")
    p = np.zeros((num_chunks, num_chunks), dtype=float)
    if num_chunks == 1:
        return p
    for i in range(num_chunks):
        others = [j for j in range(num_chunks) if j != i]
        for j in others:
            p[i, j] += jump_prob / len(others)
        if i + 1 < num_chunks:
            p[i, i + 1] += continue_prob
    return p


def mixture_matrix(
    matrices: Sequence[np.ndarray], weights: Sequence[float]
) -> np.ndarray:
    """Convex mixture of behaviour matrices (e.g. 80% sequential, 20% VCR)."""
    if len(matrices) != len(weights) or not matrices:
        raise ValueError("need equally many matrices and weights, at least one")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or not np.isclose(w.sum(), 1.0):
        raise ValueError("weights must be nonnegative and sum to 1")
    shape = np.asarray(matrices[0]).shape
    mixed = np.zeros(shape, dtype=float)
    for mat, weight in zip(matrices, w):
        arr = np.asarray(mat, dtype=float)
        if arr.shape != shape:
            raise ValueError("all matrices in a mixture must share a shape")
        mixed += weight * arr
    return mixed


def empirical_transition_matrix(
    transition_counts: np.ndarray,
    departure_counts: np.ndarray,
    *,
    prior: Optional[np.ndarray] = None,
    prior_strength: float = 1.0,
) -> np.ndarray:
    """Estimate P from observed counts (what the tracker reports hourly).

    ``transition_counts[i, j]`` is the number of users observed moving from
    chunk i to chunk j during the interval; ``departure_counts[i]`` the
    number departing after chunk i. Rows with no observations fall back to
    the ``prior`` matrix (smoothed by ``prior_strength`` pseudo-counts when
    observations exist), so a freshly deployed channel still has a usable
    viewing model.

    Stacks work too: counts ``(..., J, J)`` with departures ``(..., J)``
    and a prior of either shape ``(J, J)`` or the counts' shape estimate
    every matrix at once, element for element as one at a time.
    """
    counts = np.asarray(transition_counts, dtype=float)
    departures = np.asarray(departure_counts, dtype=float)
    if counts.ndim < 2 or counts.shape[-2] != counts.shape[-1]:
        raise ValueError("transition_counts must be square")
    if departures.shape != counts.shape[:-1]:
        raise ValueError("departure_counts must have one entry per chunk")
    if np.any(counts < 0) or np.any(departures < 0):
        raise ValueError("counts must be nonnegative")

    n = counts.shape[-1]
    if prior is None:
        prior = sequential_matrix(n, continue_prob=0.9)
    prior = np.asarray(prior, dtype=float)
    if prior.shape not in (counts.shape, counts.shape[-2:]):
        raise ValueError("prior must match transition_counts shape")

    # Blend observed frequencies with the prior row (including its
    # departure mass, which appears as a row deficit); rows with no
    # observations fall back to the prior verbatim.  Vectorized over
    # rows — elementwise-identical to the per-row formula.
    row_totals = counts.sum(axis=-1) + departures
    denom = row_totals + prior_strength
    with np.errstate(divide="ignore", invalid="ignore"):
        blended = (counts + prior_strength * prior) / denom[..., None]
    p = np.where((row_totals > 0)[..., None], blended, prior)
    return validate_transition_matrix(p)

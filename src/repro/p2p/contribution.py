"""Rarest-first peer contribution and cloud supplement (paper Eqn (5)).

Chunks are served by peers in increasing order of replication (rarest
first). Walking chunks from rarest to most common, the bandwidth peers can
still contribute to chunk pi_k is their total upload capacity
nu_{pi_k} * u minus what owners of pi_k have already committed to rarer
chunks; the contribution is capped by the chunk's streaming demand. The
cloud supplies the remaining fraction of the chunk's server capacity.

The co-ownership probability Psi(pi_j, pi_k) that Eqn (5) deducts with is
left by the paper to a technical report that is not available; it is
taken as the independence product f_j * f_k of the clipped ownership
fractions f_i = min(nu_i / N, 1) (0 when N = 0).

Unit reconciliation. The paper prices the
per-chunk demand addressed by peers as ``m_i * r`` and the cloud
supplement as ``Delta_i = R m_i - Gamma_i``. Taken literally this is
dimensionally inconsistent twice over:

* a chunk queue holds E[n_i] concurrent viewers, each needing the
  streaming rate r to sustain playback, so the bandwidth demand peers can
  address is ``E[n_i] * r`` — typically far larger than ``m_i * r``
  (m_i counts R-sized servers, and R = 25 r in the paper's setup);
* subtracting a streaming-rate quantity from a VM-rate quantity caps the
  possible peer saving at r/R ~ 4%, contradicting the paper's own Figs 4,
  7 and 10 where P2P cuts cloud cost roughly tenfold.

The consistent reading, which reproduces those figures: peers cover a
*fraction* of each chunk's streams, and the cloud provisions the
uncovered fraction of the queueing capacity:

    demand_i  = E[n_i] * r
    Gamma_i  <= min(demand_i, available peer upload)
    Delta_i   = R * m_i * (1 - Gamma_i / demand_i)

:func:`peer_contribution` and :func:`cloud_supplement` implement this
reading, and only it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.p2p.ownership import OwnershipResult, ownership_from_valid
from repro.queueing.capacity import CapacityModel, ChannelCapacityResult, solve_channel_capacity

__all__ = [
    "peer_contribution",
    "cloud_supplement",
    "P2PCapacityResult",
    "solve_p2p_channel_capacity",
]


def peer_contribution(
    owners: np.ndarray,
    population: Union[float, np.ndarray],
    peer_upload: Union[float, np.ndarray],
    streaming_rate: float,
    *,
    in_system: np.ndarray,
) -> np.ndarray:
    """Expected peer upload bandwidth Gamma_i per chunk (paper Eqn (5)).

    Takes one channel, or a stack of them with the same leading axes on
    every argument.

    Parameters
    ----------
    owners:
        Expected owner counts nu_i per chunk (Proposition 1), ``(..., J)``.
    population:
        Expected total channel population N = sum_i E[n_i], ``(...)``.
    peer_upload:
        Average per-peer upload capacity u, bytes/second: one value, or
        one per channel.
    streaming_rate:
        Playback rate r, bytes/second.
    in_system:
        E[n_i] per chunk, ``(..., J)``; the chunk's peer-addressable
        demand is E[n_i] * r.

    Returns
    -------
    Gamma, per-chunk peer upload bandwidths (bytes/second), elementwise in
    [0, demand_i].

    Every channel's rarest-first pass runs in lock step: at rank k each
    channel serves its k-th rarest chunk (ascending owner count, chunk
    index breaking ties), then deducts that chunk's commitment from every
    commoner chunk's supply.  A supply thus loses its rarer chunks' shares
    one at a time, rarest first, and a chunk with Gamma <= 0 or nu <= 0
    deducts nothing: the arithmetic and its order are a per-channel
    scalar loop's, so each Gamma_i is bitwise what that loop gives.
    """
    nu = np.asarray(owners, dtype=float)
    demand_base = np.asarray(in_system, dtype=float)
    pop = np.asarray(population, dtype=float)
    if demand_base.shape != nu.shape:
        raise ValueError("in_system must match the owners shape")
    if pop.shape != nu.shape[:-1]:
        raise ValueError("population must have the owners' leading shape")
    upload = np.broadcast_to(np.asarray(peer_upload, dtype=float), pop.shape)
    if np.any(nu < 0) or np.any(demand_base < 0):
        raise ValueError("owners and in_system must be nonnegative")
    if not np.all(np.isfinite(upload)):
        raise ValueError(
            f"peer upload must be finite, got {upload[~np.isfinite(upload)].flat[0]}"
        )
    if np.any(upload < 0):
        raise ValueError(f"peer upload must be >= 0, got {upload.min()}")
    if streaming_rate <= 0:
        raise ValueError(f"streaming rate must be > 0, got {streaming_rate}")
    if np.any(pop < 0):
        raise ValueError("population must be nonnegative")

    num_chunks = nu.shape[-1]
    nu2 = nu.reshape(-1, num_chunks)
    pop2 = pop.reshape(-1, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        fractions = np.where(pop2 == 0, 0.0, np.clip(nu2 / pop2, 0.0, 1.0))
    # Rarest-first order: ascending owner count, chunk index breaking ties.
    order = np.lexsort((np.broadcast_to(np.arange(num_chunks), nu2.shape), nu2))
    nu_s = np.take_along_axis(nu2, order, axis=-1)
    f_s = np.take_along_axis(fractions, order, axis=-1)
    demand_s = np.take_along_axis(
        demand_base.reshape(-1, num_chunks) * streaming_rate, order, axis=-1
    )

    supply = nu_s * upload.reshape(-1, 1)
    gamma_s = np.zeros_like(supply)
    for rank in range(num_chunks):
        s = supply[:, rank]
        s = np.where(s > 0.0, s, 0.0)  # max(0.0, s): NaN -> 0.0
        d = demand_s[:, rank]
        g = np.where(s < d, s, d)  # min(d, s)
        gamma_s[:, rank] = g
        n_k = nu_s[:, rank]
        deducts = ~((g <= 0) | (n_k <= 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            # Psi(rank, later) * N * (Gamma / nu), in the scalar order.
            committed = ((f_s[:, rank, None] * f_s[:, rank + 1:]) * pop2) * (
                (g / n_k)[:, None]
            )
        later = supply[:, rank + 1:]
        np.subtract(later, committed, out=later, where=deducts[:, None])

    gamma = np.empty_like(gamma_s)
    np.put_along_axis(gamma, order, gamma_s, axis=-1)
    return gamma.reshape(nu.shape)


def cloud_supplement(
    servers: np.ndarray,
    peer_bandwidth: np.ndarray,
    vm_bandwidth: float,
    streaming_rate: float,
    *,
    in_system: np.ndarray,
) -> np.ndarray:
    """Cloud capacity Delta_i given the peer contribution Gamma_i.

    Peers cover the fraction Gamma_i / (E[n_i] r) of the chunk's streams;
    the cloud provisions the uncovered fraction of the queueing capacity,
    Delta = R m (1 - Gamma / (E[n] r)), clamped at zero.  A queue with no
    streams (E[n] = 0) counts as uncovered.
    """
    m = np.asarray(servers, dtype=float)
    gamma = np.asarray(peer_bandwidth, dtype=float)
    if m.shape != gamma.shape:
        raise ValueError("servers and peer_bandwidth must have matching shapes")
    if vm_bandwidth <= 0 or streaming_rate <= 0:
        raise ValueError("rates must be > 0")
    n_vec = np.asarray(in_system, dtype=float)
    if n_vec.shape != m.shape:
        raise ValueError("in_system must match the servers shape")
    demand = n_vec * streaming_rate
    coverage = np.divide(
        gamma, demand, out=np.zeros_like(gamma), where=demand > 0
    )
    delta = vm_bandwidth * m * (1.0 - np.clip(coverage, 0.0, 1.0))
    return np.maximum(0.0, delta)


@dataclass(frozen=True)
class P2PCapacityResult:
    """Capacity split between peers and cloud for one P2P channel."""

    capacity: ChannelCapacityResult
    ownership: OwnershipResult
    peer_bandwidth: np.ndarray = field(repr=False)  # Gamma_i
    cloud_demand: np.ndarray = field(repr=False)  # Delta_i

    @property
    def servers(self) -> np.ndarray:
        return self.capacity.servers

    @property
    def total_cloud_demand(self) -> float:
        return float(self.cloud_demand.sum())

    @property
    def total_peer_bandwidth(self) -> float:
        return float(self.peer_bandwidth.sum())

    @property
    def peer_offload_ratio(self) -> float:
        """Fraction of the client-server cloud capacity that peers replace.

        Computed as 1 - Delta / (R m), directly the relative cloud saving,
        in [0, 1].
        """
        total = self.capacity.total_bandwidth
        if total == 0:
            return 0.0
        return float(1.0 - self.cloud_demand.sum() / total)


def solve_p2p_channel_capacity(
    model: CapacityModel,
    transition_matrix: np.ndarray,
    external_rate: float,
    peer_upload: float,
    *,
    alpha: float = 0.8,
) -> P2PCapacityResult:
    """End-to-end P2P capacity analysis for one channel (Section IV-C).

    Runs the client-server analysis to get m_i and E[n_i], propagates
    ownership (Proposition 1), computes the rarest-first peer contribution
    (Eqn (5)) and finally the cloud supplement Delta_i.  It is the
    one-channel call of the stacked functions the controller's
    :class:`~repro.core.demand.DemandEstimator` runs over every busy
    channel at once.
    """
    capacity = solve_channel_capacity(
        model, transition_matrix, external_rate, alpha=alpha
    )
    # Anchor populations at the Little target lambda_i * T0: every viewer
    # occupies a playback slot (and keeps uploading) for ~T0 per chunk even
    # when the download itself finishes early, so both the ownership counts
    # and the per-chunk streaming demand scale with lambda_i * T0, not with
    # the (possibly much smaller) downloading population E[n_i].
    populations = capacity.little_target
    ownership = ownership_from_valid(capacity.traffic.transition_matrix, populations)
    gamma = peer_contribution(
        ownership.owners,
        ownership.population,
        peer_upload,
        model.streaming_rate,
        in_system=populations,
    )
    delta = cloud_supplement(
        capacity.servers,
        gamma,
        model.vm_bandwidth,
        model.streaming_rate,
        in_system=populations,
    )
    return P2PCapacityResult(
        capacity=capacity,
        ownership=ownership,
        peer_bandwidth=gamma,
        cloud_demand=delta,
    )

"""Rarest-first peer contribution and cloud supplement (paper Eqn (5)).

Chunks are served by peers in increasing order of replication (rarest
first). Walking chunks from rarest to most common, the bandwidth peers can
still contribute to chunk pi_k is their total upload capacity
nu_{pi_k} * u minus what owners of pi_k have already committed to rarer
chunks; the contribution is capped by the chunk's streaming demand. The
cloud supplies the remaining fraction of the chunk's server capacity.

Unit reconciliation (documented in DESIGN.md). The paper prices the
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
reading by default; the paper's literal formulas remain available via
``demand="servers"`` / ``accounting="literal"`` for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.p2p.coownership import CoOwnershipModel, independent_coownership
from repro.p2p.ownership import OwnershipResult, ownership_from_valid
from repro.queueing.capacity import CapacityModel, ChannelCapacityResult, solve_channel_capacity

__all__ = [
    "peer_contribution",
    "cloud_supplement",
    "P2PCapacityResult",
    "solve_p2p_channel_capacity",
]


def _chunk_demand(
    servers: np.ndarray,
    in_system: np.ndarray,
    streaming_rate: float,
    demand: str,
) -> np.ndarray:
    if demand == "viewers":
        return np.asarray(in_system, dtype=float) * streaming_rate
    if demand == "servers":  # the paper's literal m_i * r
        return np.asarray(servers, dtype=float) * streaming_rate
    raise ValueError(f"unknown demand model {demand!r}")


def peer_contribution(
    servers: np.ndarray,
    owners: np.ndarray,
    population: float,
    peer_upload: float,
    streaming_rate: float,
    *,
    in_system: Optional[np.ndarray] = None,
    coownership: Optional[CoOwnershipModel] = None,
    demand: str = "viewers",
) -> np.ndarray:
    """Expected peer upload bandwidth Gamma_i per chunk (paper Eqn (5)).

    Parameters
    ----------
    servers:
        Required queueing servers m_i per chunk (from the capacity solver).
    owners:
        Expected owner counts nu_i per chunk (Proposition 1).
    population:
        Expected total channel population N = sum_i E[n_i].
    peer_upload:
        Average per-peer upload capacity u, bytes/second.
    streaming_rate:
        Playback rate r, bytes/second.
    in_system:
        E[n_i] per chunk; required for the default ``demand="viewers"``
        model where the chunk's peer-addressable demand is E[n_i] * r.
    coownership:
        Psi model; defaults to the independence approximation built from
        ``owners`` and ``population``.
    demand:
        ``"viewers"`` (default, consistent units) or ``"servers"`` (the
        paper's literal m_i * r).

    Returns
    -------
    Gamma, per-chunk peer upload bandwidths (bytes/second), elementwise in
    [0, demand_i].
    """
    m = np.asarray(servers, dtype=float)
    nu = np.asarray(owners, dtype=float)
    if m.shape != nu.shape:
        raise ValueError("servers and owners must have matching shapes")
    if np.any(m < 0) or np.any(nu < 0):
        raise ValueError("servers and owners must be nonnegative")
    if peer_upload < 0:
        raise ValueError(f"peer upload must be >= 0, got {peer_upload}")
    if streaming_rate <= 0:
        raise ValueError(f"streaming rate must be > 0, got {streaming_rate}")
    if population < 0:
        raise ValueError("population must be nonnegative")
    if demand == "viewers" and in_system is None:
        raise ValueError('demand="viewers" requires the in_system vector')
    if in_system is not None:
        n_vec = np.asarray(in_system, dtype=float)
        if n_vec.shape != m.shape:
            raise ValueError("in_system must match the servers shape")
        if np.any(n_vec < 0):
            raise ValueError("in_system must be nonnegative")
    else:
        n_vec = np.zeros_like(m)

    demands = _chunk_demand(m, n_vec, streaming_rate, demand)

    if coownership is None:
        coownership = independent_coownership(nu, population)

    num_chunks = m.size
    # Rarest-first order: ascending owner count, chunk index breaking ties.
    order = np.lexsort((np.arange(num_chunks), nu))
    gamma = np.zeros(num_chunks, dtype=float)

    for rank, chunk in enumerate(order):
        supply = nu[chunk] * peer_upload
        # Deduct bandwidth that owners of this chunk already committed to
        # every rarer chunk.
        for prev in order[:rank]:
            if gamma[prev] <= 0 or nu[prev] <= 0:
                continue
            both = coownership(int(prev), int(chunk)) * population
            supply -= both * (gamma[prev] / nu[prev])
        gamma[chunk] = min(demands[chunk], max(0.0, supply))
    return gamma


def cloud_supplement(
    servers: np.ndarray,
    peer_bandwidth: np.ndarray,
    vm_bandwidth: float,
    streaming_rate: float,
    *,
    in_system: Optional[np.ndarray] = None,
    accounting: str = "coverage",
) -> np.ndarray:
    """Cloud capacity Delta_i given the peer contribution Gamma_i.

    ``accounting="coverage"`` (default): peers cover the fraction
    Gamma_i / (E[n_i] r) of the chunk's streams; the cloud provisions the
    uncovered fraction of the queueing capacity,
    Delta = R m (1 - Gamma / (E[n] r)). Requires ``in_system``.

    ``accounting="server-equivalent"``: Delta = R (m - Gamma / r); peer
    bandwidth retires whole servers at streaming-rate granularity.

    ``accounting="literal"``: the paper's Eqn as typeset,
    Delta = R m - Gamma.

    All variants are clamped at zero.
    """
    m = np.asarray(servers, dtype=float)
    gamma = np.asarray(peer_bandwidth, dtype=float)
    if m.shape != gamma.shape:
        raise ValueError("servers and peer_bandwidth must have matching shapes")
    if vm_bandwidth <= 0 or streaming_rate <= 0:
        raise ValueError("rates must be > 0")
    if accounting == "coverage":
        if in_system is None:
            raise ValueError('accounting="coverage" requires in_system')
        n_vec = np.asarray(in_system, dtype=float)
        if n_vec.shape != m.shape:
            raise ValueError("in_system must match the servers shape")
        demand = n_vec * streaming_rate
        coverage = np.divide(
            gamma, demand, out=np.zeros_like(gamma), where=demand > 0
        )
        delta = vm_bandwidth * m * (1.0 - np.clip(coverage, 0.0, 1.0))
    elif accounting == "server-equivalent":
        delta = vm_bandwidth * (m - gamma / streaming_rate)
    elif accounting == "literal":
        delta = vm_bandwidth * m - gamma
    else:
        raise ValueError(f"unknown accounting {accounting!r}")
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
    coownership: Optional[CoOwnershipModel] = None,
    demand: str = "viewers",
    accounting: str = "coverage",
) -> P2PCapacityResult:
    """End-to-end P2P capacity analysis for one channel (Section IV-C).

    Runs the client-server analysis to get m_i and E[n_i], propagates
    ownership (Proposition 1), computes the rarest-first peer contribution
    (Eqn (5)) and finally the cloud supplement Delta_i (see
    :func:`cloud_supplement` for the accounting readings).
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
        capacity.servers,
        ownership.owners,
        ownership.population,
        peer_upload,
        model.streaming_rate,
        in_system=populations,
        coownership=coownership,
        demand=demand,
    )
    delta = cloud_supplement(
        capacity.servers,
        gamma,
        model.vm_bandwidth,
        model.streaming_rate,
        in_system=populations,
        accounting=accounting,
    )
    return P2PCapacityResult(
        capacity=capacity,
        ownership=ownership,
        peer_bandwidth=gamma,
        cloud_demand=delta,
    )

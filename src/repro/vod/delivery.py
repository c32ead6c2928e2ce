"""P2P delivery: rarest-first peer supply with cloud top-up.

Per simulation step, the kernel (:mod:`repro.vod.multi`) hands each P2P
channel's state to :meth:`P2PDelivery.allocate`, which turns it into
per-chunk *per-user* download rates and reports how much cloud versus
peer bandwidth was consumed.  A single user's download rate is capped at
the VM bandwidth R, consistent with the queueing analysis where one
(queueing-theoretic) server serves one user at rate R.

Peer upload capacity is allocated to chunks in increasing order of
replication, each chunk drawing from its owners' remaining upload; the
cloud supplies only the shortfall ("resort to streaming servers only
when deemed necessary").  Client-server delivery (every downloader
served from the cloud, each chunk's capacity shared equally) is the
kernel's own vectorized solve over all channels at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DeliveryOutcome", "P2PDelivery"]


@dataclass(frozen=True)
class DeliveryOutcome:
    """Result of one allocation round for one channel.

    Attributes
    ----------
    per_user_rates:
        Array indexed by chunk: the download rate (bytes/second) each user
        currently in that chunk queue receives.
    cloud_used:
        Total cloud bandwidth consumed (bytes/second).
    peer_used:
        Total peer bandwidth consumed (bytes/second).
    cloud_shortfall:
        Demand (at per-user cap) that neither peers nor cloud covered.
    """

    per_user_rates: np.ndarray
    cloud_used: float
    peer_used: float
    cloud_shortfall: float


class P2PDelivery:
    """Mesh-pull P2P with rarest-first peer allocation and cloud top-up."""

    def __init__(self, user_cap: float) -> None:
        if user_cap <= 0:
            raise ValueError("per-user rate cap must be > 0")
        self.user_cap = user_cap

    def allocate(
        self,
        downloaders: np.ndarray,
        owners_count: np.ndarray,
        owned: np.ndarray,
        upload: np.ndarray,
        cloud_capacity: np.ndarray,
    ) -> DeliveryOutcome:
        """Allocate peer upload rarest-first, then top up from the cloud.

        ``downloaders`` and ``owners_count`` give, per chunk, the users
        downloading it and the live users holding it; ``owned`` is the
        ``(chunks, users)`` ownership of the channel's live users and
        ``upload`` their upload capacities, both with users in arrival
        order (the order the peer pools are reduced in).

        Owner bandwidth committed to a rarer chunk is unavailable to less
        rare ones, implemented by drawing each chunk's contribution from
        its owners' *remaining* upload capacity proportionally — the fluid
        counterpart of the paper's Eqn (5) accounting.
        """
        downloaders = np.asarray(downloaders, dtype=float)
        capacity = np.asarray(cloud_capacity, dtype=float)
        if capacity.shape != downloaders.shape:
            raise ValueError("cloud capacity must have one entry per chunk")
        num_chunks = downloaders.size
        rates = np.zeros(num_chunks, dtype=float)
        if upload.size == 0:
            return DeliveryOutcome(rates, 0.0, 0.0, 0.0)

        # Rarest first among chunks with both demand and at least one owner
        # (chunks failing either test can contribute no peer supply — skip
        # them before touching any per-user array). Owner counts are
        # maintained incrementally by the kernel, so ordering the chunks
        # costs O(J), not a matrix reduction.
        order = np.lexsort((np.arange(num_chunks), owners_count))
        order = order[(downloaders[order] > 0) & (owners_count[order] > 0)]
        peer_supply = np.zeros(num_chunks, dtype=float)
        if order.size:
            # Each visited chunk's owner mask is a row of ``owned``;
            # `remaining` (the peers' unallocated upload) is the only
            # per-user array materialized, drawn down in place.
            remaining = np.array(upload, dtype=float)
            for chunk in order:
                # Integer owner indices beat boolean masks here: the
                # gather/scatter then touch owners(chunk) elements, not
                # every user.
                owners = np.nonzero(owned[chunk])[0]
                pool = remaining[owners]
                available = float(np.add.reduce(pool))
                if available <= 0:
                    continue
                demand = downloaders[chunk] * self.user_cap
                take = min(demand, available)
                if take <= 0:
                    continue
                # Draw proportionally from each owner's remaining capacity.
                if take == available:
                    remaining[owners] = 0.0  # demand-limited: full drain
                else:
                    remaining[owners] = pool * (1.0 - take / available)
                peer_supply[chunk] = take
                # Once *every* peer is drained the remaining chunks can
                # only sum to zero and be skipped, so stop scanning them.
                if take == available and not remaining.any():
                    break

        cloud_used_per_chunk = np.zeros(num_chunks, dtype=float)
        busy = downloaders > 0
        demand_per_chunk = downloaders * self.user_cap
        shortfall_after_peers = np.maximum(0.0, demand_per_chunk - peer_supply)
        cloud_used_per_chunk[busy] = np.minimum(
            capacity[busy], shortfall_after_peers[busy]
        )
        total_supply = peer_supply + cloud_used_per_chunk
        rates[busy] = np.minimum(
            self.user_cap, total_supply[busy] / downloaders[busy]
        )
        delivered = rates * downloaders
        # Attribute delivered bandwidth to peers first (cloud is the backstop).
        peer_used = float(np.minimum(peer_supply, delivered).sum())
        cloud_used = float((delivered - np.minimum(peer_supply, delivered)).sum())
        shortfall = float(np.maximum(0.0, demand_per_chunk - delivered).sum())
        return DeliveryOutcome(
            per_user_rates=rates,
            cloud_used=cloud_used,
            peer_used=peer_used,
            cloud_shortfall=shortfall,
        )

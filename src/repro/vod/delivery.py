"""P2P delivery: rarest-first peer supply with cloud top-up.

Per simulation step, the kernel (:mod:`repro.vod.multi`) hands every
channel's state to one :meth:`P2PDelivery.allocate` call, which turns it
into per-chunk *per-user* download rates and reports how much cloud
versus peer bandwidth the step consumed.  A single user's download rate
is capped at the VM bandwidth R, consistent with the queueing analysis
where one (queueing-theoretic) server serves one user at rate R.

Within each channel, peer upload capacity is allocated to chunks in
increasing order of replication, each chunk drawing from its owners'
remaining upload; the cloud supplies only the shortfall ("resort to
streaming servers only when deemed necessary").  The rarity order, the
cloud top-up and the totals are ``(channels, chunks)`` array operations;
only the draw-down itself is a loop, per channel over its eligible
chunks.  Client-server delivery (every downloader served from the cloud,
each chunk's capacity shared equally) is the kernel's own solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["DeliveryOutcome", "P2PDelivery", "sequential_sum"]


def sequential_sum(values: Iterable[float], start: float = 0.0) -> float:
    """``start`` plus ``values``, added one at a time from the left.

    The kernel's float totals and accumulators are defined as this plain
    sequential add.  The builtin ``sum`` is not: from Python 3.12 on it
    compensates float rounding, so ``sum([1e16, 1.0, -1e16])`` is
    ``1.0`` there and ``0.0`` here."""
    total = start
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class DeliveryOutcome:
    """Result of one allocation round over every channel.

    Attributes
    ----------
    per_user_rates:
        ``(channels, chunks)`` array: the download rate (bytes/second)
        each user currently in that chunk queue receives.
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
        if not (math.isfinite(user_cap) and user_cap > 0):
            raise ValueError("per-user rate cap must be finite and > 0")
        self.user_cap = user_cap

    def allocate(
        self,
        downloaders: np.ndarray,
        owners_count: np.ndarray,
        owned: np.ndarray,
        upload: np.ndarray,
        bounds: np.ndarray,
        cloud_capacity: np.ndarray,
    ) -> DeliveryOutcome:
        """Allocate peer upload rarest-first, then top up from the cloud.

        ``downloaders``, ``owners_count`` and ``cloud_capacity`` are
        ``(channels, chunks)``: per chunk, the users downloading it, the
        live users holding it and the provisioned cloud bandwidth.
        ``owned`` is the ``(chunks, users)`` ownership and ``upload`` the
        upload capacities of every live user, channel-major and in
        arrival order within each channel (the order the peer pools are
        reduced in); channel ``c`` owns columns ``bounds[c]:bounds[c+1]``.

        Owner bandwidth committed to a rarer chunk is unavailable to less
        rare ones, implemented by drawing each chunk's contribution from
        its owners' *remaining* upload capacity proportionally — the fluid
        counterpart of the paper's Eqn (5) accounting.  Channels share no
        peers, and the step totals add the channels' own totals in
        ascending channel order.
        """
        downloaders = np.asarray(downloaders, dtype=float)
        owners_count = np.asarray(owners_count)
        owned = np.asarray(owned)
        capacity = np.asarray(cloud_capacity, dtype=float)
        upload = np.asarray(upload, dtype=float)
        bounds = np.asarray(bounds)
        if downloaders.ndim != 2:
            raise ValueError("downloaders must be (channels, chunks)")
        num_channels, num_chunks = downloaders.shape
        if owners_count.shape != downloaders.shape:
            raise ValueError("owner counts must have one entry per chunk")
        if capacity.shape != downloaders.shape:
            raise ValueError("cloud capacity must have one entry per chunk")
        num_users = upload.shape[0] if upload.ndim == 1 else -1
        if owned.shape != (num_chunks, num_users):
            raise ValueError("owned must be (chunks, users), upload (users,)")
        if (
            bounds.shape != (num_channels + 1,)
            or bounds[0] != 0
            or bounds[-1] != num_users
            or np.any(bounds[1:] < bounds[:-1])
        ):
            raise ValueError(
                "bounds must rise from 0 to the user count, one per channel"
            )

        user_cap = self.user_cap
        demand = downloaders * user_cap
        peer_supply = np.zeros((num_channels, num_chunks))
        # Rarest first among chunks with both demand and at least one
        # owner (chunks failing either test can contribute no peer
        # supply — skip them before touching any per-user array).  A
        # stable row sort is each channel's ``lexsort((chunk ids,
        # owners))``; owner counts are maintained incrementally by the
        # kernel, so ordering costs O(channels × chunks), not a matrix
        # reduction.
        order = np.argsort(owners_count, axis=1, kind="stable")
        eligible = np.take_along_axis(
            (downloaders > 0) & (owners_count > 0), order, axis=1
        )
        per_channel = np.count_nonzero(eligible, axis=1)
        if per_channel.any():
            ranked = order[eligible].tolist()
            starts = bounds.tolist()
            # `remaining` (the peers' unallocated upload) is the only
            # per-user array materialized, drawn down in place; each
            # channel sees its own slice of it.
            remaining = np.array(upload, dtype=float)
            demand_rows = demand.tolist()
            add_reduce = np.add.reduce
            k = 0
            for c in np.flatnonzero(per_channel).tolist():
                lo, hi = starts[c], starts[c + 1]
                own_c = owned[:, lo:hi]
                left = remaining[lo:hi]
                need = demand_rows[c]
                supply = peer_supply[c]
                end = k + int(per_channel[c])
                for chunk in ranked[k:end]:
                    # Integer owner indices beat boolean masks here: the
                    # gather/scatter then touch owners(chunk) elements,
                    # not every user.
                    owners = own_c[chunk].nonzero()[0]
                    pool = left[owners]
                    available = float(add_reduce(pool))
                    # Once every peer is drained, each later pool sums
                    # to exactly 0.0 and is skipped here.
                    if available <= 0:
                        continue
                    take = min(need[chunk], available)
                    # Draw proportionally from each owner's remaining
                    # capacity.
                    if take == available:
                        left[owners] = 0.0  # pool-limited: full drain
                    else:
                        left[owners] = pool * (1.0 - take / available)
                    supply[chunk] = take
                k = end

        busy = downloaders > 0
        cloud = np.zeros((num_channels, num_chunks))
        shortfall_after_peers = np.maximum(0.0, demand - peer_supply)
        cloud[busy] = np.minimum(capacity[busy], shortfall_after_peers[busy])
        total_supply = peer_supply + cloud
        rates = np.zeros((num_channels, num_chunks))
        rates[busy] = np.minimum(
            user_cap, total_supply[busy] / downloaders[busy]
        )
        delivered = rates * downloaders
        # Attribute delivered bandwidth to peers first (cloud is the
        # backstop).
        from_peers = np.minimum(peer_supply, delivered)
        return DeliveryOutcome(
            per_user_rates=rates,
            cloud_used=_channel_total(delivered - from_peers),
            peer_used=_channel_total(from_peers),
            cloud_shortfall=_channel_total(
                np.maximum(0.0, demand - delivered)
            ),
        )


def _channel_total(per_chunk: np.ndarray) -> float:
    """Sum of a C-contiguous ``(channels, chunks)`` matrix in the
    kernel's reduction order: each row sum is bitwise that channel's 1-D
    ``.sum()``, and the rows add left to right from 0.0 in ascending
    channel order (:func:`sequential_sum`)."""
    return sequential_sum(per_chunk.sum(axis=1).tolist())

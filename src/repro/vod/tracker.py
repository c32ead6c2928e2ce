"""The tracking server (paper Sections IV-C and V-B).

The tracker accumulates, per channel, the per-interval statistics the
provisioning controller consumes at the end of every interval T:

* the average external user arrival rate Lambda^(c);
* observed chunk-to-chunk transition and departure counts (from which the
  controller estimates the viewing pattern P^(c));
* the mean peer upload capacity (for the Eqn (5) contribution estimate).

The simulation kernel observes them (it also keeps the per-user peer
state the P2P protocol needs) and hands each closed interval over as
:class:`IntervalStats`, which the controller's tracker absorbs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

__all__ = ["IntervalStats", "TrackingServer"]


@dataclass
class IntervalStats:
    """Per-channel statistics for one completed provisioning interval."""

    channel_id: int
    interval_seconds: float
    arrivals: int = 0
    transition_counts: np.ndarray = field(default=None)  # type: ignore[assignment]
    departure_counts: np.ndarray = field(default=None)  # type: ignore[assignment]
    upload_capacity_sum: float = 0.0
    upload_capacity_samples: int = 0
    start_chunk_counts: np.ndarray = field(default=None)  # type: ignore[assignment]

    @property
    def arrival_rate(self) -> float:
        """Average external arrival rate over the interval, users/second."""
        return self.arrivals / self.interval_seconds

    @property
    def mean_upload_capacity(self) -> float:
        if self.upload_capacity_samples == 0:
            return 0.0
        return self.upload_capacity_sum / self.upload_capacity_samples

    @property
    def observed_alpha(self) -> float:
        """Fraction of arrivals that started at chunk 0 (estimates alpha)."""
        total = int(self.start_chunk_counts.sum())
        if total == 0:
            return 1.0
        return float(self.start_chunk_counts[0]) / total


class TrackingServer:
    """The controller's view of the system: one open interval of
    per-channel statistics, closed out every T.

    Parameters
    ----------
    num_channels:
        Number of channels tracked.
    chunks_per_channel:
        J^(c) for each channel (list-indexed by channel id).
    interval_seconds:
        The provisioning interval T (paper default: one hour).
    """

    def __init__(
        self,
        num_channels: int,
        chunks_per_channel: List[int],
        interval_seconds: float = 3600.0,
    ) -> None:
        if num_channels <= 0:
            raise ValueError("need at least one channel")
        if len(chunks_per_channel) != num_channels:
            raise ValueError("need one chunk count per channel")
        if interval_seconds <= 0:
            raise ValueError("interval must be > 0")
        self.num_channels = num_channels
        self.chunks_per_channel = list(chunks_per_channel)
        self.interval_seconds = interval_seconds
        self._stats = [self._fresh_stats(c) for c in range(num_channels)]

    def _fresh_stats(self, channel_id: int) -> IntervalStats:
        j = self.chunks_per_channel[channel_id]
        return IntervalStats(
            channel_id=channel_id,
            interval_seconds=self.interval_seconds,
            transition_counts=np.zeros((j, j), dtype=float),
            departure_counts=np.zeros(j, dtype=float),
            start_chunk_counts=np.zeros(j, dtype=float),
        )

    def empty_stats(self, channel_id: int) -> IntervalStats:
        """A zero-observation stats record (used for bootstrap estimates)."""
        return self._fresh_stats(channel_id)

    def absorb(self, stats: IntervalStats) -> None:
        """Fold a kernel's closed interval into the open interval.

        Every engine's kernel closes its interval at the epoch boundary
        and the engine absorbs the statistics here (the sharded engines
        in fixed shard order), so the controller sees the whole system's
        statistics.  Shapes must match the channel.
        """
        mine = self._stats[stats.channel_id]
        if mine.transition_counts.shape != stats.transition_counts.shape:
            raise ValueError(
                f"channel {stats.channel_id}: transition matrix shape "
                f"{stats.transition_counts.shape} != "
                f"{mine.transition_counts.shape}"
            )
        mine.arrivals += stats.arrivals
        mine.transition_counts += stats.transition_counts
        mine.departure_counts += stats.departure_counts
        mine.start_chunk_counts += stats.start_chunk_counts
        mine.upload_capacity_sum += stats.upload_capacity_sum
        mine.upload_capacity_samples += stats.upload_capacity_samples

    # ------------------------------------------------------------------
    # Interval close-out (called by the controller every T)
    # ------------------------------------------------------------------
    def close_interval(self) -> List[IntervalStats]:
        """Return this interval's statistics and start a fresh interval."""
        closed = self._stats
        self._stats = [self._fresh_stats(c) for c in range(self.num_channels)]
        return closed

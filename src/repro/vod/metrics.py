"""Streaming-quality metrics (paper Section VI-B).

The paper's quality metric is "the percentage of users in all the channels
with smooth playback in the past 5 minutes". A chunk retrieval is smooth
iff its sojourn time (waiting + downloading) is at most the chunk playback
time T0; a user is smooth at sample time t iff no unsmooth retrieval
completed within the trailing window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

__all__ = [
    "QualitySample",
    "QualityTracker",
    "latency_adjusted_quality",
]

DEFAULT_WINDOW_SECONDS = 300.0  # "the past 5 minutes"


@dataclass(frozen=True)
class QualitySample:
    """System and per-channel quality at one sample time."""

    time: float
    quality: float  # fraction of smooth users across all channels, in [0, 1]
    per_channel: Dict[int, float]
    per_channel_users: Dict[int, int]
    #: Raw smooth-user count behind ``quality``; kept as an exact integer
    #: so partial samples from different shards merge without float
    #: reconstruction (quality * users would round).
    total_smooth: int = 0

    @property
    def total_users(self) -> int:
        return sum(self.per_channel_users.values())


class QualityTracker:
    """Collects retrieval totals and periodic quality samples.

    The per-user smooth state lives in the simulation kernel's row table
    (:class:`~repro.vod.multi.MultiChannelSimulator`), which also owns
    the retrieval totals' accumulation order; this tracker stores the
    resulting samples and totals for reporting.
    """

    def __init__(self, window_seconds: float = DEFAULT_WINDOW_SECONDS) -> None:
        if window_seconds <= 0:
            raise ValueError("window must be > 0")
        self.window_seconds = window_seconds
        self.samples: List[QualitySample] = []
        self.total_retrievals = 0
        self.unsmooth_retrievals = 0
        #: Summed sojourn of every completed retrieval (the sharded
        #: engine merges these raw accumulators).
        self.sojourn_sum = 0.0

    # ------------------------------------------------------------------
    def record_sample(
        self,
        time: float,
        per_channel_smooth: Dict[int, int],
        per_channel_users: Dict[int, int],
    ) -> QualitySample:
        """Record a quality sample from per-channel (smooth, total) counts.

        Channels with zero users count as perfectly smooth (quality 1),
        matching how an operator would read an idle channel.
        """
        total_users = sum(per_channel_users.values())
        total_smooth = sum(per_channel_smooth.values())
        quality = 1.0 if total_users == 0 else total_smooth / total_users
        per_channel = {
            c: (
                1.0
                if per_channel_users.get(c, 0) == 0
                else per_channel_smooth.get(c, 0) / per_channel_users[c]
            )
            for c in per_channel_users
        }
        sample = QualitySample(
            time=time,
            quality=quality,
            per_channel=per_channel,
            per_channel_users=dict(per_channel_users),
            total_smooth=int(total_smooth),
        )
        self.samples.append(sample)
        return sample

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def average_quality(self) -> float:
        """Time-average of the system quality samples (Fig 5's 'avg')."""
        if not self.samples:
            return 1.0
        return float(np.mean([s.quality for s in self.samples]))

    @property
    def smooth_retrieval_fraction(self) -> float:
        if self.total_retrievals == 0:
            return 1.0
        return 1.0 - self.unsmooth_retrievals / self.total_retrievals

    @property
    def mean_sojourn(self) -> float:
        if self.total_retrievals == 0:
            return 0.0
        return self.sojourn_sum / self.total_retrievals

    def quality_series(self) -> Tuple[np.ndarray, np.ndarray]:
        """(times, qualities) arrays for plotting Fig 5."""
        times = np.asarray([s.time for s in self.samples])
        quality = np.asarray([s.quality for s in self.samples])
        return times, quality

    def channel_size_quality_points(
        self, min_users: int = 1
    ) -> List[Tuple[int, float]]:
        """(channel size, channel quality) scatter points (Fig 6)."""
        points: List[Tuple[int, float]] = []
        for sample in self.samples:
            for channel, users in sample.per_channel_users.items():
                if users >= min_users:
                    points.append((users, sample.per_channel[channel]))
        return points


def latency_adjusted_quality(
    sample_times: np.ndarray,
    quality: np.ndarray,
    epoch_ends: np.ndarray,
    epoch_discounts: np.ndarray,
) -> np.ndarray:
    """Quality samples scaled by each epoch's latency utility discount.

    The geo extension serves part of every region's demand across priced,
    laggy links; the provisioning plan for an epoch implies a
    capacity-weighted utility discount ``0.5 ** (latency / half-life)``
    (see :meth:`repro.geo.region.GeoTopology.utility_discount`).  This
    maps each raw quality sample to the discount of the epoch it was
    taken in — epoch ``k`` covers ``(epoch_ends[k-1], epoch_ends[k]]`` —
    yielding the latency-*effective* streaming quality series.
    """
    sample_times = np.asarray(sample_times, dtype=float)
    quality = np.asarray(quality, dtype=float)
    epoch_ends = np.asarray(epoch_ends, dtype=float)
    epoch_discounts = np.asarray(epoch_discounts, dtype=float)
    if sample_times.shape != quality.shape:
        raise ValueError("sample_times and quality must align")
    if epoch_ends.shape != epoch_discounts.shape:
        raise ValueError("epoch_ends and epoch_discounts must align")
    if quality.size == 0:
        return quality.copy()
    if epoch_ends.size == 0:
        raise ValueError("need at least one epoch")
    idx = np.searchsorted(epoch_ends, sample_times, side="left")
    idx = np.minimum(idx, epoch_ends.size - 1)
    return quality * epoch_discounts[idx]

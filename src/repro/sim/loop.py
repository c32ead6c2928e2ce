"""The records of the one epoch loop: its billing clock and run state.

CloudMedia's controller runs one loop: serve an interval under the
current capacities, read the interval's tracker statistics, predict
demand, rent VMs and storage, and serve the next interval under the
new grants.  :class:`~repro.sim.shard.ShardedSimulator` is that loop,
one provisioning epoch at a time, for every engine (the closed loop is
its one-shard case, :mod:`repro.experiments.runner`; the geo engine
hands its controller a multi-region graph).  This module holds the
plain records it keeps: :class:`EpochClock`, the simulated time the
cloud facility bills on; :class:`_EpochData`, what one epoch produces;
and :class:`EpochRun`, everything a run has accumulated so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.vod.tracker import IntervalStats

__all__ = ["EpochClock", "EpochRun"]


class EpochClock:
    """Picklable simulated-time source shared with the billing meter.

    The engine advances ``now`` at every epoch boundary; the cloud
    facility reads it through ``__call__``.  A plain attribute-holding
    callable (rather than a closure over the engine) keeps the whole
    control-plane state graph picklable for checkpointing.
    """

    __slots__ = ("now",)

    def __init__(self, now: float = 0.0) -> None:
        self.now = float(now)

    def __call__(self) -> float:
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EpochClock({self.now})"


@dataclass
class _EpochData:
    """The accumulator schema one epoch produces.

    A shard's :class:`~repro.sim.shard.EpochReport` extends it, and
    :func:`~repro.sim.shard.merge_epoch_reports` returns one for the
    whole catalog, so a statistic added here cannot silently go missing
    from either — only the merge then needs the matching accumulation.
    Everything is picklable (reports cross the worker boundary).  The
    engine absorbs an epoch's statistics into the controller's tracker
    as soon as the epoch ends, so the epoch kept in :class:`EpochRun`
    holds no ``stats`` (only a shard's report and the merged epoch carry
    them, on their way to the tracker).  P2P re-provisioning reads the
    live mean peer upload as ``upload_sum / upload_count`` (the
    bootstrap mean when no peer is in the system); client-server
    shards, whose re-provisioning reads no peer upload, report
    ``(0.0, 0)``.
    """

    t_end: float
    stats: List[IntervalStats]
    step_times: np.ndarray
    cloud_used: np.ndarray
    peer_used: np.ndarray
    provisioned: np.ndarray
    shortfall: np.ndarray
    populations: np.ndarray
    quality_samples: List[Tuple[float, int, int]]
    arrivals: int
    departures: int
    retrievals: int
    unsmooth: int
    sojourn_sum: float
    upload_sum: float
    upload_count: int
    peak_step_events: int
    channel_populations: Dict[int, int]


@dataclass
class EpochRun:
    """Everything one in-flight run has accumulated so far.

    Kept as one picklable object so a checkpoint is exactly this record
    plus the clock, the control-plane objects and the data plane.
    ``capacities`` are the per-channel grants in effect for the next
    epoch; ``vm_cost_series`` holds one hourly VM cost per periodic
    decision.  Its ``epochs`` hold no tracker statistics (``stats`` is
    ``[]``): the tracker absorbed them when the epoch ended, so neither
    memory nor a checkpoint carries a second copy.
    """

    capacities: Dict[int, np.ndarray]
    epoch: int = 0
    done: bool = False
    epoch_times: List[float] = field(default_factory=list)
    epochs: List[_EpochData] = field(default_factory=list)
    vm_cost_series: List[float] = field(default_factory=list)

"""The one epoch driver every engine runs on.

CloudMedia's controller runs one loop: serve an interval under the
current capacities, read the interval's tracker statistics, predict
demand, rent VMs and storage, and serve the next interval under the
new grants.  :class:`EpochLoop` is that loop, one provisioning epoch at
a time; :mod:`repro.api` streams its epochs and checkpoints between
them.  It owns the billing clock, the run state, the epoch cursor, the
snapshot payload, the drain check and the control-plane half of a
checkpoint.  An engine subclasses it and supplies only what differs:

* ``_advance_data(t_end, capacities)`` — the data plane: advance the
  simulated system to the epoch boundary under the current capacities,
  set the clock to the boundary reached and return the epoch's
  :class:`_EpochData` (the closed loop steps one in-process
  :class:`~repro.vod.multi.MultiChannelSimulator`; the catalog engines
  drive shards of them, :mod:`repro.sim.shard`);
* ``_bootstrap()`` / ``_reprovision(t_end, data)`` — the initial and
  each periodic provisioning decision, made by the one
  :class:`~repro.core.provisioner.ProvisioningController`, built over
  the region graph ``_region_graph()`` hands over (one ``"local"``
  region unless the engine overrides it);
* ``_make_result()`` — the monolithic result of the drained run;
* ``_data_plane_state()`` / ``_restore_data_plane(state)`` — the data
  plane's half of a checkpoint.

Both data planes cut their epochs with :class:`KernelCursor`, so every
snapshot field is computed the same way in every engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cloud.broker import Broker, CloudFacility
from repro.core.controller import CONTROLLERS
from repro.core.provisioner import (
    ProvisioningController,
    local_region,
    local_topology,
    own_channel,
)
from repro.vod.tracker import IntervalStats

__all__ = ["EpochClock", "EpochLoop", "EpochRun", "KernelCursor"]


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

    Shared by the closed loop's epochs, a shard's
    :class:`~repro.sim.shard.EpochReport` and the catalog-wide
    :class:`~repro.sim.shard.MergedEpoch`, so a statistic added to one
    cannot silently go missing from another — only
    :func:`~repro.sim.shard.merge_epoch_reports` then needs the matching
    accumulation.  Everything is picklable (reports cross the worker
    boundary).  The closed loop absorbs its kernel's statistics into the
    controller's tracker straight away, so its epochs carry no
    ``stats``, and it reads the live peer upload at reprovision time
    instead of ``upload_sum``/``upload_count``; client-server shards,
    whose re-provisioning reads no peer upload, report ``(0.0, 0)``.
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


class KernelCursor:
    """The one way to cut an epoch out of the simulation kernel
    (:class:`~repro.vod.multi.MultiChannelSimulator`).

    Pickled with the kernel it follows.  ``totals`` are the kernel's cumulative
    (retrievals, unsmooth retrievals, sojourn sum, arrivals,
    departures) at the last epoch boundary.
    """

    def __init__(self) -> None:
        self.quality_samples = 0
        self.totals = (0, 0, 0.0, 0, 0)

    def advance(self, sim, t_end: float) -> Dict[str, Any]:
        """Step ``sim`` to ``t_end``; the epoch's :class:`_EpochData`
        fields except the tracker statistics, the peer-upload totals and
        the channel populations, which each data plane adds itself."""
        log_start = len(sim.bandwidth)
        populations: List[int] = []
        while sim.now + 1e-9 < t_end:
            sim.step()
            populations.append(sim.population())
        log = sim.bandwidth
        window = slice(log_start, len(log))

        quality = sim.quality
        samples = [
            (s.time, int(s.total_smooth), int(s.total_users))
            for s in quality.samples[self.quality_samples:]
        ]
        self.quality_samples = len(quality.samples)
        totals = (
            quality.total_retrievals, quality.unsmooth_retrievals,
            quality.sojourn_sum, sim.arrivals, sim.departures,
        )
        retrievals, unsmooth, sojourn_sum, arrivals, departures = (
            now - before for now, before in zip(totals, self.totals)
        )
        self.totals = totals
        return dict(
            t_end=t_end,
            step_times=log.time[window].copy(),
            cloud_used=log.cloud_used[window].copy(),
            peer_used=log.peer_used[window].copy(),
            provisioned=log.provisioned[window].copy(),
            shortfall=log.shortfall[window].copy(),
            populations=np.asarray(populations, dtype=np.int64),
            quality_samples=samples,
            arrivals=arrivals,
            departures=departures,
            retrievals=retrievals,
            unsmooth=unsmooth,
            sojourn_sum=sojourn_sum,
            peak_step_events=sim.peak_step_events,
        )


@dataclass
class EpochRun:
    """Everything one in-flight run has accumulated so far.

    Kept as one picklable object so a checkpoint is exactly this record
    plus the clock, the control-plane objects and the data plane.
    ``capacities`` are the per-channel grants in effect for the next
    epoch; ``vm_cost_series`` holds one hourly VM cost per periodic
    decision.
    """

    capacities: Dict[int, np.ndarray]
    epoch: int = 0
    done: bool = False
    epoch_times: List[float] = field(default_factory=list)
    epochs: List[_EpochData] = field(default_factory=list)
    vm_cost_series: List[float] = field(default_factory=list)


def _mean_mbps(series: np.ndarray) -> float:
    return float(series.mean()) * 8.0 / 1e6 if series.size else 0.0


class EpochLoop:
    """Serve an epoch, observe, reprovision: the closed loop, one
    provisioning epoch at a time.

    A subclass builds its tracker and demand estimator and passes them
    here with its spec (horizon, clusters, SLA terms, streaming rate),
    its epoch length T and the controller's predictor and policy key;
    this constructor builds the cloud facility (billed on the one
    :class:`EpochClock`), the broker and the controller, whose per-chunk
    capacity floor is one streaming rate (it keeps a just-woken channel
    from starving its first viewers).  Bootstrap is lazy
    (:meth:`start`), so a checkpoint resume adopts restored state
    without paying for it.
    """

    def __init__(
        self,
        spec,
        interval_seconds: float,
        *,
        tracker,
        estimator,
        predictor=None,
        controller: Optional[str] = None,
    ) -> None:
        self._horizon = spec.horizon_seconds
        self._interval = interval_seconds
        self._clock = EpochClock(0.0)
        self._run: Optional[EpochRun] = None
        self.tracker = tracker
        self.facility = CloudFacility(
            spec.vm_clusters(), spec.nfs_clusters(), self._clock
        )
        self.broker = Broker(self.facility)
        self._estimator = estimator
        self.controller = ProvisioningController(
            estimator,
            tracker,
            self.broker,
            spec.sla_terms(),
            **self._region_graph(spec),
            predictor=predictor,
            policy=CONTROLLERS[controller or "paper"](),
            min_capacity_per_chunk=spec.constants.streaming_rate,
        )

    def _region_graph(self, spec) -> Dict[str, Any]:
        """The controller's region data: ``topology``, ``slot_region``,
        ``slot_channel`` and ``exact``.  Here one ``"local"`` region over
        the facility's clusters, each slot its own channel, solved by
        the greedy; the geo engine hands over its regions instead."""
        return dict(
            topology=local_topology(self.facility.vm_specs.values()),
            slot_region=local_region,
            slot_channel=own_channel,
            exact=False,
        )

    # ------------------------------------------------------------------
    # Epoch-wise execution (the repro.api streaming protocol)
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Completed epochs so far (0 before the first)."""
        return self._run.epoch if self._run is not None else 0

    @property
    def epochs_total(self) -> int:
        return int(math.ceil(self._horizon / self._interval))

    @property
    def done(self) -> bool:
        return self._run is not None and self._run.done

    @staticmethod
    def _sorted_capacities(decision) -> Dict[int, np.ndarray]:
        return {
            channel_id: decision.per_channel_capacity[channel_id]
            for channel_id in sorted(decision.per_channel_capacity)
        }

    def start(self) -> None:
        """Bootstrap the run (idempotent; resumes skip the bootstrap)."""
        if self._run is None:
            self._run = EpochRun(
                capacities=self._sorted_capacities(self._bootstrap())
            )

    def advance_epoch(self) -> Optional[Dict[str, Any]]:
        """Run one provisioning epoch; ``None`` once the horizon is reached.

        Returns the epoch's streaming payload (the flat summary
        :mod:`repro.api` wraps into an ``EpochSnapshot``).  A fully
        drained engine's :meth:`result` is byte-identical however the
        run was streamed, checkpointed or resumed.
        """
        self.start()
        run = self._run
        if run.done:
            return None
        k = run.epoch + 1
        t_end = min(k * self._interval, self._horizon)
        data = self._advance_data(t_end, run.capacities)
        run.epoch = k
        run.epoch_times.append(t_end)
        run.epochs.append(data)
        decision = None
        if t_end + 1e-9 >= self._horizon or k >= self.epochs_total:
            run.done = True
        else:
            decision = self._reprovision(t_end, data)
            run.capacities = self._sorted_capacities(decision)
            run.vm_cost_series.append(decision.hourly_vm_cost)
        return self._epoch_payload(k, t_end, data, decision)

    @staticmethod
    def _epoch_payload(
        k: int, t_end: float, data: _EpochData, decision,
    ) -> Dict[str, Any]:
        """Flat per-epoch summary for streaming consumers."""
        ratios = [
            1.0 if users == 0 else smooth / users
            for _, smooth, users in data.quality_samples
        ]
        populations = data.populations
        return {
            "epoch": k,
            "t_end": float(t_end),
            "arrivals": int(data.arrivals),
            "departures": int(data.departures),
            "population": int(populations[-1]) if populations.size else 0,
            "peak_population": (
                int(populations.max()) if populations.size else 0
            ),
            "used_mbps": _mean_mbps(data.cloud_used),
            "peer_mbps": _mean_mbps(data.peer_used),
            "provisioned_mbps": _mean_mbps(data.provisioned),
            "shortfall_mbps": _mean_mbps(data.shortfall),
            "quality": float(np.mean(ratios)) if ratios else 1.0,
            "vm_cost_per_hour": (
                float(decision.hourly_vm_cost) if decision is not None else 0.0
            ),
            "decision": decision,
        }

    def result(self):
        """The monolithic result of the (fully drained) run."""
        if not self.done:
            raise RuntimeError(
                "the run is not finished; drain advance_epoch() (or use "
                "run()) before asking for the result"
            )
        return self._make_result()

    def run(self):
        """Execute the whole horizon and return the monolithic result."""
        while self.advance_epoch() is not None:
            pass
        return self.result()

    # ------------------------------------------------------------------
    # Lifecycle (engines without worker processes keep the no-ops)
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release worker processes (idempotent)."""

    def suspend(self) -> None:
        """Park the run between epochs, releasing worker processes."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Checkpoint support (repro.api's checkpoint()/resume())
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """One picklable object graph capturing the whole run.

        The control-plane objects go in together so shared references
        (controller -> tracker/broker -> facility -> clock) survive a
        pickle round-trip as one consistent graph.
        """
        self.start()
        return {
            "run": self._run,
            "clock": self._clock,
            "tracker": self.tracker,
            "facility": self.facility,
            "broker": self.broker,
            "estimator": self._estimator,
            "controller": self.controller,
            **self._data_plane_state(),
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Adopt a :meth:`snapshot_state` graph (before any epoch ran)."""
        if self._run is not None:
            raise RuntimeError("can only restore into a fresh engine")
        self._restore_data_plane(state)
        self._run = state["run"]
        self._clock = state["clock"]
        self.tracker = state["tracker"]
        self.facility = state["facility"]
        self.broker = state["broker"]
        self._estimator = state["estimator"]
        self.controller = state["controller"]

"""The closed-loop experiment engine (trace -> VoD -> controller -> cloud).

This is the simulated counterpart of the paper's testbed deployment: the
workload trace drives the VoD simulator; the tracker aggregates interval
statistics; the provisioning controller analyses them, optimizes rentals
and negotiates with the cloud facility; the granted capacities feed back
into the simulator for the next interval.

:class:`ClosedLoopEngine` is the one engine class
(:class:`repro.sim.shard.ShardedSimulator`) run as one in-process shard
over the scenario's whole trace: the epoch loop, data plane, bootstrap,
re-provisioning, billing clock and checkpoint layout are that class's,
and only the trace source and the result type are its own.
``repro.api.open_run`` is the one-shot entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.cloud.billing import CostReport
from repro.core.provisioner import ProvisioningDecision
from repro.experiments.config import ScenarioConfig
from repro.sim.shard import ChannelShard, ShardedSimulator
from repro.vod.multi import SimulationResult
from repro.workload.trace import generate_trace

__all__ = ["ClosedLoopResult", "ClosedLoopEngine"]


@dataclass
class ClosedLoopResult:
    """Everything measured over one closed-loop run."""

    scenario: ScenarioConfig
    simulation: SimulationResult
    decisions: List[ProvisioningDecision]
    cost_report: CostReport
    interval_times: List[float] = field(default_factory=list)
    provisioned_series: List[float] = field(default_factory=list)  # bytes/s
    used_series: List[float] = field(default_factory=list)  # bytes/s
    peer_series: List[float] = field(default_factory=list)  # bytes/s
    population_series: List[int] = field(default_factory=list)
    channel_population_series: List[Dict[int, int]] = field(default_factory=list)
    vm_cost_series: List[float] = field(default_factory=list)  # $/hour

    @property
    def average_quality(self) -> float:
        return self.simulation.quality.average_quality

    @property
    def mean_vm_cost_per_hour(self) -> float:
        return self.cost_report.hourly_vm_cost

    def provisioned_mbps(self) -> np.ndarray:
        return np.asarray(self.provisioned_series) * 8.0 / 1e6

    def used_mbps(self) -> np.ndarray:
        return np.asarray(self.used_series) * 8.0 / 1e6


class ClosedLoopEngine(ShardedSimulator):
    """One scenario's closed loop, advanced one interval at a time.

    A :class:`~repro.experiments.config.ScenarioConfig` is a one-shard
    catalog spec (``effective_shards == 1``), so the engine is
    :class:`~repro.sim.shard.ShardedSimulator` with its one shard in
    this process; it supplies only the trace source (the scenario's one
    trace over all its channels, :meth:`_in_process_shards`) and the
    :class:`ClosedLoopResult` (:meth:`_make_result`).  Construct it as
    ``ClosedLoopEngine(scenario, predictor=..., controller=...)``.
    """

    def _in_process_shards(self) -> List[ChannelShard]:
        scenario = self.config
        return [
            ChannelShard(
                scenario, 0, trace=generate_trace(scenario.trace_config())
            )
        ]

    def _make_result(self) -> ClosedLoopResult:
        run = self._run
        epochs = run.epochs
        # The one shard, live or parked by suspend()/a restore.
        (shard,) = (
            self._shards if self._shards is not None
            else self._restored_shards
        )

        def means(series: str) -> List[float]:
            # Interval-aggregate bandwidth for the Fig 4 series.
            return [
                float(np.mean(getattr(e, series))) if e.step_times.size
                else 0.0
                for e in epochs
            ]

        return ClosedLoopResult(
            scenario=self.config,
            simulation=shard.sim.result(),
            decisions=self.controller.decisions,
            cost_report=self.facility.billing.report(self._clock.now),
            interval_times=run.epoch_times,
            provisioned_series=means("provisioned"),
            used_series=means("cloud_used"),
            peer_series=means("peer_used"),
            population_series=[
                sum(e.channel_populations.values()) for e in epochs
            ],
            channel_population_series=[
                e.channel_populations for e in epochs
            ],
            vm_cost_series=run.vm_cost_series,
        )

"""The closed-loop experiment engine (trace -> VoD -> controller -> cloud).

This is the simulated counterpart of the paper's testbed deployment: the
workload trace drives the VoD simulator; the tracker aggregates interval
statistics; the provisioning controller analyses them, optimizes rentals
and negotiates with the cloud facility; the granted capacities feed back
into the simulator for the next interval.

:class:`ClosedLoopEngine` runs the loop one provisioning interval at a
time on :class:`repro.sim.loop.EpochLoop`, the epoch driver it shares
with the catalog engines; ``repro.api.open_run`` is the one-shot entry
point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.cloud.billing import CostReport
from repro.core.demand import DemandEstimator
from repro.core.predictor import ArrivalRatePredictor
from repro.core.provisioner import ProvisioningDecision
from repro.experiments.config import ScenarioConfig
from repro.sim.loop import EpochLoop, KernelCursor, _EpochData
from repro.vod.multi import (
    MultiChannelSimulator,
    SimulationResult,
    VoDSystemConfig,
)
from repro.vod.tracker import TrackingServer
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


class ClosedLoopEngine(EpochLoop):
    """One scenario's closed loop, advanced one interval at a time.

    The epoch loop is :class:`~repro.sim.loop.EpochLoop`'s; the data
    plane is one in-process
    :class:`~repro.vod.multi.MultiChannelSimulator` over the whole
    scenario, whose closed intervals the controller's tracker absorbs.
    The trace and simulator are built at bootstrap (:meth:`start`), so a
    checkpoint resume adopts restored state without paying for a trace
    rebuild.  A fully drained engine's :meth:`result` is byte-identical
    to the historical monolithic-loop return.

    Parameters
    ----------
    scenario:
        The scenario preset to run.
    predictor:
        Optional predictor override (the predictor ablation uses this);
        defaults to the paper's last-interval rule.
    controller:
        Registered provisioning-policy key
        (:func:`repro.core.controller.controller_names`); ``None`` means
        the paper controller.
    """

    kind = "closed-loop"

    def __init__(
        self,
        scenario: ScenarioConfig,
        *,
        predictor: Optional[ArrivalRatePredictor] = None,
        controller: Optional[str] = None,
    ) -> None:
        self.scenario = scenario
        self.simulator: Optional[MultiChannelSimulator] = None
        self._cursor = KernelCursor()
        constants = scenario.constants
        channels = scenario.channels()
        behaviour = scenario.behaviour_matrix()
        super().__init__(
            scenario,
            constants.interval_seconds,
            tracker=TrackingServer(
                num_channels=scenario.num_channels,
                chunks_per_channel=[ch.num_chunks for ch in channels],
                interval_seconds=constants.interval_seconds,
            ),
            estimator=DemandEstimator(
                scenario.capacity_model(),
                mode=scenario.mode,
                prior_matrices={ch.channel_id: behaviour for ch in channels},
            ),
            predictor=predictor,
            controller=controller,
        )

    # ------------------------------------------------------------------
    def _bootstrap(self) -> ProvisioningDecision:
        """Build the trace and simulator, then the initial deployment."""
        scenario = self.scenario
        self.simulator = MultiChannelSimulator(
            scenario.channels(),
            generate_trace(scenario.trace_config()),
            VoDSystemConfig(
                mode=scenario.mode,
                dt=scenario.dt,
                user_rate_cap=scenario.constants.vm_bandwidth,
                seed=scenario.seed,
            ),
            interval_seconds=scenario.constants.interval_seconds,
        )
        expected_rates = {
            ch.channel_id: float(rate)
            for ch, rate in zip(
                self.simulator.channels,
                scenario.trace_config().channel_rates(),
            )
        }
        upload_mean = scenario.upload_distribution().mean()
        return self.controller.bootstrap(
            0.0, expected_rates, peer_upload=upload_mean
        )

    def _advance_data(
        self, t_end: float, capacities: Dict[int, np.ndarray]
    ) -> _EpochData:
        simulator = self.simulator
        for channel_id, capacity in capacities.items():
            simulator.set_cloud_capacity(channel_id, capacity)
        deltas = self._cursor.advance(simulator, t_end)
        for stats in simulator.close_interval():
            self.tracker.absorb(stats)
        data = _EpochData(
            stats=[],
            upload_sum=0.0,
            upload_count=0,
            channel_populations=simulator.channel_populations(),
            **deltas,
        )
        # Billing reads the simulator's own float clock, not t_end.
        self._clock.now = simulator.now
        return data

    def _reprovision(
        self, t_end: float, data: _EpochData
    ) -> ProvisioningDecision:
        # The live mean (0.0 with no peers), not the catalogs' fallback
        # to the bootstrap mean: the two differ when the system is empty.
        peer_upload = (
            self.simulator.mean_peer_upload()
            if self.scenario.mode == "p2p" else None
        )
        return self.controller.run_interval(t_end, peer_upload=peer_upload)

    def _make_result(self) -> ClosedLoopResult:
        run = self._run
        epochs = run.epochs

        def means(series: str) -> List[float]:
            # Interval-aggregate bandwidth for the Fig 4 series.
            return [
                float(np.mean(getattr(e, series))) if e.step_times.size
                else 0.0
                for e in epochs
            ]

        return ClosedLoopResult(
            scenario=self.scenario,
            simulation=self.simulator.result(),
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

    # ------------------------------------------------------------------
    # Checkpoint support: the simulator is the data plane's state
    # ------------------------------------------------------------------
    def _data_plane_state(self) -> Dict[str, Any]:
        return {"simulator": self.simulator, "cursor": self._cursor}

    def _restore_data_plane(self, state: Dict[str, Any]) -> None:
        self.simulator = state["simulator"]
        self._cursor = state["cursor"]

"""Failure-injection tests: the system must degrade gracefully.

Covers the paper's explicit failure signal ("the optimization problem is
not feasible, and the VoD provider should increase the budget") and the
surrounding machinery: SLA rejections, starved channels, infeasible
storage, and empty systems.
"""

import numpy as np
import pytest

from repro.cloud.broker import Broker, NegotiationError, ResourceRequest
from repro.cloud.cluster import NFSClusterSpec, VirtualClusterSpec
from repro.cloud.scheduler import CloudFacility
from repro.core.demand import DemandEstimator
from repro.core.provisioner import ProvisioningController
from repro.core.sla import SLATerms
from repro.queueing.capacity import CapacityModel
from repro.vod.channel import make_uniform_channels
from repro.vod.simulator import VoDSimulator, VoDSystemConfig
from repro.vod.tracker import TrackingServer
from repro.workload.trace import Session, ShardTraceArrays, Trace

R = 10e6 / 8.0
r = 50_000.0
T0 = 300.0


def tiny_facility(vms=2, storage_chunks=3):
    return CloudFacility(
        [VirtualClusterSpec("only", 1.0, 1.0, vms, R)],
        [NFSClusterSpec("only", 1.0, 1e-4, storage_chunks * r * T0)],
    )


def make_controller(facility, vm_budget=100.0, storage_budget=1.0):
    model = CapacityModel(streaming_rate=r, chunk_duration=T0, vm_bandwidth=R)
    tracker = TrackingServer(1, [4], interval_seconds=3600.0)
    controller = ProvisioningController(
        DemandEstimator(model, "client-server"),
        tracker,
        Broker(facility),
        SLATerms(
            vm_budget_per_hour=vm_budget,
            storage_budget_per_hour=storage_budget,
        ),
    )
    return controller, tracker


def flood(tracker, arrivals):
    """``arrivals`` sessions entering channel 0 at chunk 0 this interval."""
    stats = tracker.empty_stats(0)
    stats.arrivals = arrivals
    stats.start_chunk_counts[0] = arrivals
    stats.upload_capacity_sum = arrivals * r
    stats.upload_capacity_samples = arrivals
    tracker.absorb(stats)


def arrays(sessions):
    return ShardTraceArrays.from_trace(
        Trace(config_summary={}, sessions=sessions)
    )


class TestInfeasibleVMBudget:
    def test_partial_plan_and_ledger_flag(self):
        facility = tiny_facility(vms=50)
        controller, tracker = make_controller(facility, vm_budget=2.0)
        flood(tracker, 7200)
        decision = controller.run_interval(3600.0)
        assert not decision.vm_plan.feasible
        assert decision.vm_plan.unserved_vms > 0
        # Whatever was affordable got provisioned.
        assert decision.hourly_vm_cost <= 2.0 + 1e-9
        assert controller.ledger.infeasible_intervals == 1

    def test_capacity_infeasibility(self):
        facility = tiny_facility(vms=1)
        controller, tracker = make_controller(facility)
        flood(tracker, 7200)
        decision = controller.run_interval(3600.0)
        assert not decision.vm_plan.feasible
        assert facility.total_active_vms() == 1  # used all it had


class TestInfeasibleStorage:
    def test_unplaced_chunks_flagged_and_not_applied(self):
        facility = tiny_facility(storage_chunks=2)  # 4 chunks won't fit
        controller, tracker = make_controller(facility)
        flood(tracker, 360)
        decision = controller.run_interval(3600.0)
        assert decision.storage_plan is not None
        assert not decision.storage_plan.feasible
        assert len(decision.storage_plan.unplaced) == 2
        # Infeasible placements are not pushed to the cloud.
        assert sum(facility.nfs_scheduler.stored_bytes().values()) == 0.0
        assert controller.ledger.infeasible_intervals == 1


class TestSLARejection:
    def test_over_budget_request_rejected_and_recorded(self):
        facility = tiny_facility(vms=10)
        broker = Broker(facility)
        with pytest.raises(NegotiationError):
            broker.request(
                ResourceRequest(vm_targets={"only": 10}, max_hourly_budget=0.5)
            )
        assert facility.total_active_vms() == 0
        assert broker.monitor.log[-1][1] is False

    def test_controller_survives_rejection(self):
        """If the negotiator rejects (e.g. operator misconfigured the SLA
        budget below the optimizer's budget), the controller records the
        rejection and keeps running."""
        facility = tiny_facility(vms=50)
        controller, tracker = make_controller(facility, vm_budget=30.0)
        # Sabotage: consumer-side SLA cap below what the optimizer spends.
        controller.terms = SLATerms(
            vm_budget_per_hour=30.0, storage_budget_per_hour=1e-9
        )
        object.__setattr__(controller.terms, "vm_budget_per_hour", 30.0)
        flood(tracker, 3600)
        decision = controller.run_interval(3600.0)
        # Either accepted within the tighter budget or rejected-but-alive.
        assert decision in controller.decisions
        assert controller.ledger.intervals == 1


class TestStarvedSimulator:
    def test_zero_capacity_channel_degrades_not_crashes(self):
        channels = make_uniform_channels(1, 4, r, T0)
        trace = arrays([Session(float(i), 0, 0, 0.0) for i in range(10)])
        sim = VoDSimulator(
            channels, trace,
            VoDSystemConfig(mode="client-server", dt=10.0, user_rate_cap=R),
        )
        sim.advance_to(1200.0)
        # Nobody is served, everybody is stuck and unsmooth.
        assert sim.quality.total_retrievals == 0
        assert sim.population() == 10
        assert sim.quality.samples[-1].quality == 0.0

    def test_recovery_after_capacity_restored(self):
        channels = make_uniform_channels(1, 4, r, T0)
        trace = arrays([Session(0.0, 0, 0, 0.0)])
        sim = VoDSimulator(
            channels, trace,
            VoDSystemConfig(mode="client-server", dt=10.0, user_rate_cap=R),
        )
        sim.advance_to(600.0)  # starved
        sim.set_cloud_capacity(0, np.full(4, R))
        sim.advance_to(700.0)
        # The backlogged download finishes once capacity appears.
        assert sim.quality.total_retrievals == 1
        # ... but is rightly recorded as unsmooth (sojourn > T0).
        assert sim.quality.smooth_retrieval_fraction == 0.0


class TestEmptySystem:
    def test_controller_on_empty_interval(self):
        facility = tiny_facility()
        controller, _tracker = make_controller(facility)
        decision = controller.run_interval(3600.0)
        assert decision.vm_plan.feasible
        assert decision.total_cloud_demand == 0.0
        assert facility.total_active_vms() == 0

    def test_simulator_with_no_sessions(self):
        channels = make_uniform_channels(2, 3, r, T0)
        sim = VoDSimulator(
            channels, arrays([]),
            VoDSystemConfig(mode="p2p", dt=30.0, user_rate_cap=R),
        )
        sim.advance_to(3600.0)
        assert sim.population() == 0
        assert sim.quality.average_quality == 1.0

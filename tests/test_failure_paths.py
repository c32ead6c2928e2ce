"""Failure-injection tests: the system must degrade gracefully.

Covers the paper's explicit failure signal ("the optimization problem is
not feasible, and the VoD provider should increase the budget") and the
surrounding machinery: SLA rejections, starved channels, infeasible
storage, empty systems, and a sharded engine whose shards cannot be
built.
"""

import multiprocessing

import numpy as np
import pytest

from helpers import local_graph, trace_arrays
from repro.api import EngineConfig, open_run
from repro.cloud.broker import (
    Broker,
    CloudFacility,
    NegotiationError,
    ResourceRequest,
)
from repro.cloud.cluster import NFSClusterSpec, VirtualClusterSpec
from repro.core.demand import DemandEstimator
from repro.core.provisioner import ProvisioningController
from repro.core.sla import SLATerms
from repro.queueing.capacity import CapacityModel
from repro.sim.loop import EpochClock
from repro.sim.shard import ChannelShard, ShardEngineError
from repro.vod.channel import make_uniform_channels
from repro.vod.delivery import P2PDelivery
from repro.vod.simulator import VoDSimulator, VoDSystemConfig
from repro.vod.tracker import TrackingServer
from repro.workload.catalog import catalog_config

R = 10e6 / 8.0
r = 50_000.0
T0 = 300.0


def tiny_facility(vms=2, storage_chunks=3):
    return CloudFacility(
        [VirtualClusterSpec("only", 1.0, 1.0, vms, R)],
        [NFSClusterSpec("only", 1.0, 1e-4, storage_chunks * r * T0)],
        EpochClock(),
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
        *local_graph(facility),
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


class TestInfeasibleVMBudget:
    def test_partial_plan_flagged_on_decision(self):
        facility = tiny_facility(vms=50)
        controller, tracker = make_controller(facility, vm_budget=2.0)
        flood(tracker, 7200)
        decision = controller.run_interval(3600.0)
        assert not decision.plan.feasible
        assert decision.plan.unserved_vms > 0
        # Whatever was affordable got provisioned.
        assert decision.hourly_vm_cost <= 2.0 + 1e-9
        assert controller.decisions == [decision]

    def test_capacity_infeasibility(self):
        facility = tiny_facility(vms=1)
        controller, tracker = make_controller(facility)
        flood(tracker, 7200)
        decision = controller.run_interval(3600.0)
        assert not decision.plan.feasible
        assert sum(facility.active_vms.values()) == 1  # used all it had


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
        assert sum(facility.stored_bytes.values()) == 0.0
        assert controller.decisions == [decision]


class TestSLARejection:
    def test_over_budget_request_rejected_and_recorded(self):
        facility = tiny_facility(vms=10)
        broker = Broker(facility)
        with pytest.raises(NegotiationError):
            broker.request(
                ResourceRequest(vm_targets={"only": 10}, max_hourly_budget=0.5)
            )
        assert sum(facility.active_vms.values()) == 0

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
        assert controller.decisions == [decision]
        assert (decision.agreement is None) == (decision.rejected is not None)


class TestStarvedSimulator:
    def test_zero_capacity_channel_degrades_not_crashes(self):
        channels = make_uniform_channels(1, 4, r, T0)
        trace = trace_arrays([(float(i), 0, 0, 0.0) for i in range(10)])
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
        trace = trace_arrays([(0.0, 0, 0, 0.0)])
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
        assert decision.plan.feasible
        assert decision.total_cloud_demand == 0.0
        assert sum(facility.active_vms.values()) == 0

    def test_simulator_with_no_sessions(self):
        channels = make_uniform_channels(2, 3, r, T0)
        sim = VoDSimulator(
            channels, trace_arrays([]),
            VoDSystemConfig(mode="p2p", dt=30.0, user_rate_cap=R),
        )
        sim.advance_to(3600.0)
        assert sim.population() == 0
        assert sim.quality.average_quality == 1.0


class TestFailedShardBuild:
    @pytest.mark.parametrize(
        "workers, error", [(1, RuntimeError), (2, ShardEngineError)]
    )
    def test_every_advance_raises_the_build_error(
        self, monkeypatch, workers, error
    ):
        """A shard that cannot be built fails every start the same way
        (in-process: the build error; workers: a ShardEngineError with
        the worker's traceback), and leaves no worker behind."""
        init = ChannelShard.__init__

        def failing_init(self, config, shard_index, **kwargs):
            if shard_index == 3:
                raise RuntimeError("shard 3 cannot be built")
            init(self, config, shard_index, **kwargs)

        monkeypatch.setattr(ChannelShard, "__init__", failing_init)
        spec = catalog_config(
            num_channels=8, chunks_per_channel=4, horizon_hours=0.5,
            arrival_rate=0.5, num_shards=4, dt=60.0, interval_minutes=10.0,
        )
        with open_run(EngineConfig(spec=spec, workers=workers)) as run:
            for _ in range(2):
                with pytest.raises(
                    error, match="shard 3 cannot be built"
                ) as raised:
                    run.advance()
                assert type(raised.value) is error
                assert not multiprocessing.active_children()
        assert run.epoch == 0


class TestNonFiniteKernelInputs:
    """NaN and inf kernel inputs are rejected where they enter, not
    carried into the step's bandwidth totals."""

    @pytest.mark.parametrize("field", ["dt", "user_rate_cap"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_config_rejects(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            VoDSystemConfig(mode="p2p", **{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_capacity_rejects(self, value):
        sim = VoDSimulator(
            make_uniform_channels(1, 4, r, T0), trace_arrays([]),
            VoDSystemConfig(mode="p2p", dt=10.0, user_rate_cap=R),
        )
        sim.set_cloud_capacity(0, np.full(4, R))
        with pytest.raises(ValueError, match="finite"):
            sim.set_cloud_capacity(0, np.array([R, value, 0.0, 0.0]))
        # The rejected capacity never reached the kernel.
        assert sim.total_provisioned() == 4 * R
        assert sim._capacity.tolist() == [[R] * 4]

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_p2p_user_cap_rejects(self, value):
        with pytest.raises(ValueError, match="finite"):
            P2PDelivery(value)

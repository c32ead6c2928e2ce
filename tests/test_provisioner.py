"""Tests for repro.core.provisioner: the hourly control loop."""

import numpy as np
import pytest

from repro.cloud.broker import Broker
from repro.cloud.cluster import NFSClusterSpec, VirtualClusterSpec
from repro.cloud.scheduler import CloudFacility
from repro.core.demand import DemandEstimator
from repro.core.predictor import EWMAPredictor
from repro.core.provisioner import ProvisioningController
from repro.core.sla import SLATerms
from repro.queueing.capacity import CapacityModel
from repro.vod.tracker import TrackingServer

R = 10e6 / 8.0
r = 50_000.0
T0 = 300.0
CHUNK = r * T0


def make_facility():
    vm = [
        VirtualClusterSpec("standard", 0.6, 0.45, 30, R),
        VirtualClusterSpec("advanced", 1.0, 0.80, 15, R),
    ]
    nfs = [
        NFSClusterSpec("standard", 0.8, 1.11e-4, 5 * 1024**3),
        NFSClusterSpec("high", 1.0, 2.08e-4, 5 * 1024**3),
    ]
    return CloudFacility(vm, nfs)


def make_controller(mode="client-server", **kwargs):
    model = CapacityModel(streaming_rate=r, chunk_duration=T0, vm_bandwidth=R)
    tracker = TrackingServer(2, [4, 4], interval_seconds=3600.0)
    facility = make_facility()
    broker = Broker(facility)
    estimator = DemandEstimator(model, mode)
    controller = ProvisioningController(
        estimator, tracker, broker, SLATerms(vm_budget_per_hour=40.0), **kwargs
    )
    return controller, tracker, facility


def feed_interval(tracker, channel=0, arrivals=360, upload=2 * r):
    """One interval's observations, absorbed the way the engines hand
    a kernel's closed interval to the controller's tracker."""
    stats = tracker.empty_stats(channel)
    stats.arrivals = arrivals
    stats.start_chunk_counts[0] = arrivals
    stats.upload_capacity_sum = arrivals * upload
    stats.upload_capacity_samples = arrivals
    stats.transition_counts[0, 1] = 50
    stats.departure_counts[1] = 50
    tracker.absorb(stats)


class TestBootstrap:
    def test_bootstrap_provisions_vms(self):
        controller, _, facility = make_controller()
        decision = controller.bootstrap(0.0, {0: 0.1, 1: 0.05})
        assert decision.agreement is not None
        assert facility.total_active_vms() > 0
        assert decision.storage_plan is not None
        assert decision.storage_plan.feasible
        # Per-channel capacities published for both channels.
        assert set(decision.per_channel_capacity) == {0, 1}
        assert decision.per_channel_capacity[0].shape == (4,)

    def test_bootstrap_places_all_chunks(self):
        controller, _, facility = make_controller()
        controller.bootstrap(0.0, {0: 0.1, 1: 0.05})
        stored = facility.nfs_scheduler.stored_bytes()
        assert sum(stored.values()) == pytest.approx(8 * CHUNK)


class TestRunInterval:
    def test_interval_uses_tracker_stats(self):
        controller, tracker, facility = make_controller()
        feed_interval(tracker, arrivals=360)
        decision = controller.run_interval(3600.0)
        assert decision.total_cloud_demand > 0
        assert facility.total_active_vms() > 0
        # Idle channel 1 got zero capacity.
        assert decision.per_channel_capacity[1].sum() == 0.0

    def test_scale_down_after_demand_drop(self):
        controller, tracker, facility = make_controller()
        feed_interval(tracker, arrivals=3600)
        controller.run_interval(3600.0)
        high = facility.total_active_vms()
        # Next interval: almost nobody arrives.
        feed_interval(tracker, arrivals=4)
        controller.run_interval(7200.0)
        low = facility.total_active_vms()
        assert low < high

    def test_predictor_feeds_forward(self):
        controller, tracker, _ = make_controller(
            predictor=EWMAPredictor(beta=0.5)
        )
        feed_interval(tracker, arrivals=3600)
        controller.run_interval(3600.0)
        feed_interval(tracker, arrivals=0)
        decision = controller.run_interval(7200.0)
        # EWMA: predicted rate = 0.5*0 + 0.5*1.0 = 0.5 -> still provisioning.
        assert decision.demands[0].arrival_rate == pytest.approx(0.5)

    def test_ledger_records_every_interval(self):
        controller, tracker, _ = make_controller()
        feed_interval(tracker)
        controller.run_interval(3600.0)
        feed_interval(tracker)
        controller.run_interval(7200.0)
        assert controller.ledger.intervals == 2
        assert controller.ledger.vm_budget_violations() == 0

    def test_budget_respected(self):
        controller, tracker, _ = make_controller()
        # A flood of arrivals that would exceed the $40/h budget.
        feed_interval(tracker, arrivals=80_000)
        decision = controller.run_interval(3600.0)
        assert decision.hourly_vm_cost <= 40.0 + 1e-9

    def test_min_capacity_floor(self):
        controller, tracker, _ = make_controller(min_capacity_per_chunk=r)
        feed_interval(tracker, arrivals=40)
        decision = controller.run_interval(3600.0)
        cap = decision.per_channel_capacity[0]
        populated = decision.demands[0].expected_in_system > 0
        assert np.all(cap[populated] >= r - 1e-9)


class TestStorageReplanning:
    def test_storage_not_replanned_on_stable_demand(self):
        controller, tracker, _ = make_controller(storage_replan_threshold=0.5)
        feed_interval(tracker, arrivals=360)
        first = controller.run_interval(3600.0)
        assert first.storage_plan is not None  # first plan always happens
        feed_interval(tracker, arrivals=360)
        second = controller.run_interval(7200.0)
        assert second.storage_plan is None

    def test_storage_replanned_on_large_shift(self):
        controller, tracker, _ = make_controller(storage_replan_threshold=0.25)
        feed_interval(tracker, channel=0, arrivals=360)
        controller.run_interval(3600.0)
        # Demand moves to channel 1.
        feed_interval(tracker, channel=1, arrivals=3600)
        decision = controller.run_interval(7200.0)
        assert decision.storage_plan is not None


class TestP2PControl:
    def test_p2p_cheaper_than_client_server(self):
        cs, cs_tracker, _ = make_controller("client-server")
        p2p, p2p_tracker, _ = make_controller("p2p")
        for tracker in (cs_tracker, p2p_tracker):
            feed_interval(tracker, arrivals=1800, upload=2 * r)
        cs_decision = cs.run_interval(3600.0)
        p2p_decision = p2p.run_interval(3600.0, peer_upload=2 * r)
        assert p2p_decision.hourly_vm_cost < cs_decision.hourly_vm_cost

    def test_decision_utilities(self):
        controller, tracker, _ = make_controller()
        feed_interval(tracker)
        decision = controller.run_interval(3600.0)
        total = decision.aggregate_vm_utility()
        ch0 = decision.aggregate_vm_utility(0)
        ch1 = decision.aggregate_vm_utility(1)
        assert total == pytest.approx(ch0 + ch1)
        assert decision.aggregate_storage_utility(0) >= 0.0

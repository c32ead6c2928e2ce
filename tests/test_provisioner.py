"""Tests for repro.core.provisioner: the hourly control loop."""

import numpy as np
import pytest

from helpers import decision_allocations
from repro.api import EngineConfig, open_run
from repro.cloud.broker import Broker, CloudFacility
from repro.cloud.cluster import NFSClusterSpec, VirtualClusterSpec
from repro.core.controller import storage_demand_shifted
from repro.core.demand import DemandEstimator, aggregate_demand
from repro.core.packing import pack_allocations
from repro.core.predictor import EWMAPredictor
from repro.core.provisioner import ProvisioningController
from repro.core.sla import SLATerms
from repro.experiments.config import small_scenario
from repro.queueing.capacity import CapacityModel
from repro.sim.loop import EpochClock
from repro.vod.tracker import TrackingServer
from repro.workload.catalog import catalog_config

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
    return CloudFacility(vm, nfs, EpochClock())


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


def storage_utility(decision, channel_id):
    """sum u_f Delta_i x_if over one channel's placed chunks (Fig 8), or
    0.0 when the decision did not replan storage."""
    if decision.storage_plan is None:
        return 0.0
    demand = aggregate_demand(decision.demands)
    return sum(
        decision.nfs_utilities[cluster] * demand.get(chunk, 0.0)
        for chunk, cluster in decision.storage_plan.placement.items()
        if chunk[0] == channel_id
    )


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
        stored = facility.stored_bytes
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

    def test_one_decision_per_interval(self):
        controller, tracker, _ = make_controller()
        feed_interval(tracker)
        controller.run_interval(3600.0)
        feed_interval(tracker)
        controller.run_interval(7200.0)
        assert len(controller.decisions) == 2
        limit = controller.terms.vm_budget_per_hour + 1e-9
        assert all(d.hourly_vm_cost <= limit for d in controller.decisions)

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
        controller, tracker, _ = make_controller()
        feed_interval(tracker, arrivals=360)
        first = controller.run_interval(3600.0)
        assert first.storage_plan is not None  # first plan always happens
        feed_interval(tracker, arrivals=360)
        second = controller.run_interval(7200.0)
        assert second.storage_plan is None

    def test_storage_replanned_on_large_shift(self):
        controller, tracker, _ = make_controller()
        feed_interval(tracker, channel=0, arrivals=360)
        controller.run_interval(3600.0)
        # Demand moves to channel 1.
        feed_interval(tracker, channel=1, arrivals=3600)
        decision = controller.run_interval(7200.0)
        assert decision.storage_plan is not None

    def test_shift_totals_add_left_to_right(self):
        # Added left to right, the baseline is 0.0 (the 1.0 is lost to
        # rounding), so any positive demand counts as a shift.  A
        # compensated sum (the builtin from Python 3.12 on) gives a
        # baseline of 1.0 and an unchanged vector: no replan.
        demands = {(0, 0): 1e16, (0, 1): 1.0, (0, 2): -1e16}
        assert storage_demand_shifted(demands, dict(demands), 0.2) is True


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
        assert storage_utility(decision, 0) >= 0.0


class TestLazyPacking:
    """The Section V-A2 packing is computed on a decision's first read,
    never by a replan."""

    @pytest.mark.parametrize("spec", [
        lambda: catalog_config(
            num_channels=6, chunks_per_channel=4, horizon_hours=0.5,
            arrival_rate=0.5, num_shards=4, dt=60.0, interval_minutes=10.0,
        ),
        lambda: small_scenario("p2p", horizon_hours=3.0),
    ], ids=["catalog", "closed-loop-p2p"])
    def test_runs_never_pack(self, spec):
        with open_run(EngineConfig(spec=spec(), workers=1)) as run:
            decisions = run.result().decisions
        assert decisions
        assert all("packing" not in vars(d) for d in decisions)

    def test_packing_on_demand(self):
        with open_run(small_scenario("p2p", horizon_hours=3.0)) as run:
            decision = run.result().decisions[0]
        packing = decision.packing
        # P2P shares are fractional, so the packer has VMs to share.
        assert packing.shared_vms > 0
        allocations = decision_allocations(decision)
        assert packing == pack_allocations(allocations)
        assert decision.packing is packing  # cached on the decision
        planned, packed = {}, {}
        for (_, cluster), z in allocations.items():
            planned[cluster] = planned.get(cluster, 0.0) + z
        for vm in packing.vms:
            packed[vm.cluster] = packed.get(vm.cluster, 0.0) + vm.load
        assert packed.keys() == {c for c, z in planned.items() if z > 0}
        for cluster, total in packed.items():
            assert total == pytest.approx(planned[cluster], rel=0, abs=1e-9)

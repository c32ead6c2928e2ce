"""Tests for repro.core.demand: tracker stats -> cloud demand."""

import numpy as np
import pytest

from repro.core.demand import DemandEstimator, aggregate_demand
from repro.queueing.capacity import CapacityModel
from repro.queueing.transitions import sequential_matrix
from repro.vod.tracker import TrackingServer

R = 10e6 / 8.0
r = 50_000.0
T0 = 300.0


@pytest.fixture
def model():
    return CapacityModel(streaming_rate=r, chunk_duration=T0, vm_bandwidth=R)


@pytest.fixture
def tracker():
    return TrackingServer(2, [4, 4], interval_seconds=3600.0)


def populate(tracker, channel=0, arrivals=360, upload=2 * r):
    """One interval's observations, absorbed the way the engines hand
    a kernel's closed interval to the controller's tracker."""
    stats = tracker.empty_stats(channel)
    stats.arrivals = arrivals
    stats.start_chunk_counts[0] = arrivals
    stats.upload_capacity_sum = arrivals * upload
    stats.upload_capacity_samples = arrivals
    stats.transition_counts[0, 1] = 100
    stats.transition_counts[1, 2] = 100
    stats.departure_counts[3] = 100
    tracker.absorb(stats)


class TestClientServer:
    def test_demand_from_observed_stats(self, model, tracker):
        populate(tracker)
        stats = tracker.close_interval()
        estimator = DemandEstimator(model, "client-server")
        demand = estimator.estimate_all([stats[0]])[0]
        assert demand.arrival_rate == pytest.approx(0.1)
        assert demand.total_cloud_demand > 0
        assert demand.cloud_demand.shape == (4,)
        assert np.all(demand.peer_bandwidth == 0)
        # Cloud demand is R times the server counts.
        assert demand.cloud_demand == pytest.approx(R * demand.servers)

    def test_idle_channel_zero_demand(self, model, tracker):
        stats = tracker.close_interval()
        estimator = DemandEstimator(model, "client-server")
        demand = estimator.estimate_all([stats[1]])[0]
        assert demand.total_cloud_demand == 0.0
        assert demand.total_servers == 0

    def test_rate_override(self, model, tracker):
        stats = tracker.close_interval()
        estimator = DemandEstimator(model, "client-server")
        demand = estimator.estimate_all([stats[0]], arrival_rates={0: 0.5})[0]
        assert demand.arrival_rate == 0.5
        assert demand.total_cloud_demand > 0

    def test_prior_matrix_used_without_observations(self, model, tracker):
        prior = sequential_matrix(4, continue_prob=0.9)
        estimator = DemandEstimator(
            model, "client-server", default_prior=prior
        )
        stats = tracker.close_interval()
        demand = estimator.estimate_all([stats[0]], arrival_rates={0: 0.2})[0]
        # With a sequential prior and alpha=1 (no observed starts), the
        # demand decays along the chain.
        assert demand.servers[0] >= demand.servers[-1]


class TestP2P:
    def test_peer_bandwidth_reduces_cloud(self, model, tracker):
        populate(tracker, upload=2 * r)
        stats = tracker.close_interval()
        cs = DemandEstimator(model, "client-server").estimate_all([stats[0]])[0]
        p2p = DemandEstimator(model, "p2p").estimate_all([stats[0]])[0]
        assert p2p.total_cloud_demand < cs.total_cloud_demand
        assert p2p.peer_bandwidth.sum() > 0

    def test_peer_upload_override(self, model, tracker):
        populate(tracker, upload=0.0)
        stats = tracker.close_interval()
        estimator = DemandEstimator(model, "p2p")
        none = estimator.estimate_all([stats[0]])[0]
        lots = estimator.estimate_all([stats[0]], peer_upload=5 * r)[0]
        assert lots.total_cloud_demand <= none.total_cloud_demand

    def test_invalid_mode_rejected(self, model):
        with pytest.raises(ValueError):
            DemandEstimator(model, "hybrid")


class TestAggregate:
    def test_estimate_all_and_aggregate(self, model, tracker):
        populate(tracker, channel=0)
        populate(tracker, channel=1, arrivals=36)
        stats = tracker.close_interval()
        estimator = DemandEstimator(model, "client-server")
        demands = estimator.estimate_all(stats)
        merged = aggregate_demand(demands)
        assert set(merged) == {(c, i) for c in range(2) for i in range(4)}
        assert merged[(0, 0)] == pytest.approx(demands[0].cloud_demand[0])

    def test_estimate_all_rate_overrides(self, model, tracker):
        stats = tracker.close_interval()
        estimator = DemandEstimator(model, "client-server")
        demands = estimator.estimate_all(
            stats, arrival_rates={0: 0.3, 1: 0.0}
        )
        assert demands[0].arrival_rate == 0.3
        assert demands[1].arrival_rate == 0.0

    def test_chunk_demands_keys(self, model, tracker):
        populate(tracker)
        stats = tracker.close_interval()
        demand = DemandEstimator(model, "client-server").estimate_all([stats[0]])[0]
        keys = list(demand.chunk_demands())
        assert keys == [(0, 0), (0, 1), (0, 2), (0, 3)]

"""Stochastic validation: the event-driven Jackson simulator vs analysis.

These tests are the reproduction's ground truth check for Section IV:
simulate the channel exactly as modeled (Poisson arrivals, exponential
service, probabilistic routing) and compare the measured sample-path
averages against the closed-form Erlang/Jackson/Proposition-1 results.
Tolerances are loose-ish because the horizons are kept CI-friendly.
"""

import numpy as np
import pytest

from repro.experiments.config import paper_capacity_model
from repro.experiments.registry import get as registry_scenario
from repro.p2p.ownership import solve_ownership
from repro.queueing.capacity import CapacityModel, solve_channel_capacity
from repro.queueing.erlang import mmm_expected_number_in_system
from repro.queueing.jackson import external_arrival_vector, solve_traffic_equations
from repro.queueing.startup import channel_startup_delay
from repro.queueing.transitions import sequential_matrix, uniform_jump_matrix
from repro.vod.queue_sim import JacksonChannelSimulator

MU = 1.0 / 12.0  # paper's service rate: 12 s mean download per server


class TestSingleQueueAgainstErlang:
    @pytest.mark.parametrize("servers,lam", [(2, 0.12), (5, 0.35)])
    def test_mean_in_system_matches(self, servers, lam):
        # A "network" with a single queue and no routing.
        p = np.zeros((1, 1))
        sim = JacksonChannelSimulator(
            p, external_rate=lam, service_rate=MU,
            servers=np.array([servers]), alpha=1.0, seed=42,
        )
        result = sim.run(horizon=250_000.0, warmup=20_000.0)
        expected = mmm_expected_number_in_system(servers, lam / MU)
        assert result.mean_in_system[0] == pytest.approx(expected, rel=0.08)

    def test_sojourn_littles_law(self):
        p = np.zeros((1, 1))
        lam, servers = 0.3, 5
        sim = JacksonChannelSimulator(
            p, lam, MU, np.array([servers]), alpha=1.0, seed=7
        )
        result = sim.run(horizon=250_000.0, warmup=20_000.0)
        expected_l = mmm_expected_number_in_system(servers, lam / MU)
        # L = lambda W.
        assert result.mean_in_system[0] == pytest.approx(
            lam * result.mean_sojourn[0], rel=0.1
        )
        assert result.mean_sojourn[0] == pytest.approx(expected_l / lam, rel=0.1)


class TestNetworkAgainstTrafficEquations:
    def test_visit_counts_match(self):
        p = uniform_jump_matrix(4, 0.5, 0.2)
        lam = 0.05
        # Generous server counts: no effective queueing, pure routing test.
        sim = JacksonChannelSimulator(
            p, lam, MU, np.full(4, 50), alpha=0.8, seed=3
        )
        horizon = 300_000.0
        result = sim.run(horizon=horizon)
        traffic = solve_traffic_equations(
            p, external_arrival_vector(4, lam, 0.8)
        )
        measured_rates = result.completed_visits / horizon
        assert measured_rates == pytest.approx(traffic.arrival_rates, rel=0.07)

    def test_departures_balance_arrivals(self):
        p = uniform_jump_matrix(3, 0.4, 0.2)
        sim = JacksonChannelSimulator(
            p, 0.05, MU, np.full(3, 50), alpha=0.8, seed=5
        )
        result = sim.run(horizon=200_000.0)
        # In a stable system departures track arrivals (within the ~session
        # population still inside).
        assert abs(result.arrivals - result.departures) < 60


class TestCapacitySolverDeliversSmoothPlayback:
    def test_sojourn_below_t0_with_solved_capacity(self):
        """Provisioning m_i from the capacity solver must keep measured mean
        sojourn under T0 — the paper's core claim."""
        model = CapacityModel(
            streaming_rate=50_000.0, chunk_duration=300.0, vm_bandwidth=10e6 / 8
        )
        p = uniform_jump_matrix(4, 0.6, 0.2)
        lam = 0.08
        capacity = solve_channel_capacity(model, p, lam, alpha=0.8)
        sim = JacksonChannelSimulator(
            p, lam, model.service_rate, capacity.servers, alpha=0.8, seed=11
        )
        result = sim.run(horizon=300_000.0, warmup=30_000.0)
        for q in range(4):
            if result.completed_visits[q] > 100:
                assert result.mean_sojourn[q] <= 300.0 + 1e-9

    def test_one_less_server_violates_t0_under_load(self):
        """Removing a server from a loaded queue should blow the target,
        showing the solver's output is genuinely tight."""
        model = CapacityModel(
            streaming_rate=50_000.0, chunk_duration=300.0, vm_bandwidth=10e6 / 8
        )
        p = np.zeros((1, 1))
        lam = 0.5  # heavy single queue: offered load 6
        capacity = solve_channel_capacity(model, p, lam, alpha=1.0)
        m = int(capacity.servers[0])
        offered = lam / model.service_rate
        if m - 1 <= offered:
            pytest.skip("m-1 would be unstable; tightness trivially true")
        sim = JacksonChannelSimulator(
            p, lam, model.service_rate, np.array([m - 1]), alpha=1.0, seed=13
        )
        result = sim.run(horizon=200_000.0, warmup=20_000.0)
        assert result.mean_sojourn[0] > 300.0


class TestStartupDelayAgainstSimulator:
    def test_startup_delay_within_t0_and_matches_simulator(self):
        """The start-up delay is the first chunk's sojourn.  Under the
        solved plan its mean never exceeds T0 at any load of the
        ``micro-startup-delay`` grid, and the closed form matches the
        simulated first-queue sojourn."""
        model = paper_capacity_model()
        spec = registry_scenario("micro-startup-delay")
        means = [
            spec.run_cell({"arrival_rate": rate})["mean_startup_seconds"]
            for rate in spec.grid["arrival_rate"]
        ]
        assert all(m <= model.chunk_duration + 1e-9 for m in means)

        behaviour = uniform_jump_matrix(10, 0.6, 0.2)
        capacity = solve_channel_capacity(model, behaviour, 0.5, alpha=0.8)
        sim = JacksonChannelSimulator(
            behaviour, 0.5, model.service_rate, capacity.servers,
            alpha=0.8, seed=31,
        )
        result = sim.run(horizon=150_000.0, warmup=15_000.0)
        np.testing.assert_allclose(
            result.mean_sojourn[0], channel_startup_delay(capacity).mean,
            rtol=0.15,
        )


class TestOwnershipAgainstProposition1:
    def test_owner_counts_match_analysis(self):
        p = uniform_jump_matrix(3, 0.5, 0.2)
        lam = 0.05
        sim = JacksonChannelSimulator(
            p, lam, MU, np.full(3, 50), alpha=0.8, seed=17
        )
        result = sim.run(horizon=400_000.0, warmup=40_000.0)
        ownership = solve_ownership(p, result.mean_in_system)
        # Compare measured time-average owners with Proposition 1 applied
        # to the measured populations.
        for i in range(3):
            if ownership.owners[i] > 0.05:
                assert result.mean_owners[i] == pytest.approx(
                    ownership.owners[i], rel=0.15
                )

    def test_sequential_chain_owner_ordering(self):
        """In sequential viewing, earlier chunks have more owners."""
        p = sequential_matrix(4, continue_prob=0.9)
        sim = JacksonChannelSimulator(
            p, 0.05, MU, np.full(4, 50), alpha=1.0, seed=19
        )
        result = sim.run(horizon=300_000.0, warmup=30_000.0)
        owners = result.mean_owners
        assert owners[0] > owners[1] > owners[2] > owners[3]

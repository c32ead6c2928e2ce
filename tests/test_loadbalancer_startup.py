"""Tests for repro.queueing.startup."""

import math

import numpy as np
import pytest

from repro.queueing.capacity import CapacityModel, solve_channel_capacity
from repro.queueing.startup import StartupDelayModel, channel_startup_delay
from repro.queueing.transitions import uniform_jump_matrix
from repro.vod.queue_sim import JacksonChannelSimulator

R = 10e6 / 8.0
r = 50_000.0
T0 = 300.0


class TestStartupDelayModel:
    def test_no_wait_is_pure_service(self):
        model = StartupDelayModel(
            servers=4, arrival_rate=0.0, service_rate=1 / 12.0,
            wait_probability=0.0,
        )
        assert model.mean == pytest.approx(12.0)
        assert model.survival(0.0) == pytest.approx(1.0)
        assert model.survival(12.0) == pytest.approx(math.exp(-1.0))

    def test_mean_with_waiting(self):
        mu, lam, m = 1 / 12.0, 0.3, 5
        from repro.queueing.erlang import erlang_c

        c = erlang_c(m, lam / mu)
        model = StartupDelayModel(m, lam, mu, c)
        expected = c / (m * mu - lam) + 12.0
        assert model.mean == pytest.approx(expected)

    def test_survival_monotone(self):
        model = StartupDelayModel(3, 0.2, 1 / 12.0, 0.4)
        ts = np.linspace(0, 200, 50)
        values = [model.survival(t) for t in ts]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_quantile_inverts_survival(self):
        model = StartupDelayModel(3, 0.2, 1 / 12.0, 0.4)
        for p in (0.5, 0.9, 0.99):
            t = model.quantile(p)
            assert model.survival(t) == pytest.approx(1 - p, abs=1e-4)

    def test_quantile_validation(self):
        model = StartupDelayModel(3, 0.2, 1 / 12.0, 0.4)
        with pytest.raises(ValueError):
            model.quantile(0.0)

    def test_matches_simulation(self):
        """Mean start-up delay must match the event-driven queue."""
        capacity_model = CapacityModel(
            streaming_rate=r, chunk_duration=T0, vm_bandwidth=R
        )
        p = uniform_jump_matrix(3, 0.5, 0.2)
        lam = 0.2
        capacity = solve_channel_capacity(capacity_model, p, lam, alpha=1.0)
        startup = channel_startup_delay(capacity)
        sim = JacksonChannelSimulator(
            p, lam, capacity_model.service_rate, capacity.servers,
            alpha=1.0, seed=23,
        )
        result = sim.run(horizon=200_000.0, warmup=20_000.0)
        # Queue 0's mean sojourn is the start-up delay of alpha-sessions.
        assert result.mean_sojourn[0] == pytest.approx(startup.mean, rel=0.12)

    def test_capacity_plan_meets_t0_startup(self):
        """Under the solved plan the 95th-percentile start-up delay stays
        within the chunk playback time."""
        capacity_model = CapacityModel(
            streaming_rate=r, chunk_duration=T0, vm_bandwidth=R
        )
        p = uniform_jump_matrix(5, 0.6, 0.2)
        capacity = solve_channel_capacity(capacity_model, p, 0.5, alpha=0.8)
        startup = channel_startup_delay(capacity)
        assert startup.mean <= T0
        assert startup.quantile(0.95) <= 3 * T0

"""Tests for repro.queueing.capacity: the equilibrium server solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing.capacity import (
    CapacityModel,
    required_servers,
    size_queues,
    solve_channel_capacity,
)
from repro.queueing.erlang import (
    mmm_expected_number_in_system,
    mmm_expected_sojourn_time,
)
from repro.queueing.transitions import sequential_matrix, uniform_jump_matrix

# The paper's physical constants.
R = 10e6 / 8.0  # 10 Mbps
r = 50_000.0  # 50 KB/s
T0 = 300.0  # 5 minutes


@pytest.fixture
def model():
    return CapacityModel(streaming_rate=r, chunk_duration=T0, vm_bandwidth=R)


class TestCapacityModel:
    def test_paper_constants(self, model):
        assert model.chunk_size_bytes == pytest.approx(15e6)  # 15 MB
        # mu = R / (r T0): 1.25 MB/s / 15 MB = 1/12 per second.
        assert model.service_rate == pytest.approx(1.25e6 / 15e6)
        assert model.mean_download_time == pytest.approx(12.0)
        assert model.mean_download_time < T0

    def test_requires_r_greater_than_streaming_rate(self):
        with pytest.raises(ValueError, match="exceed"):
            CapacityModel(streaming_rate=100.0, chunk_duration=10.0, vm_bandwidth=100.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CapacityModel(streaming_rate=0, chunk_duration=1, vm_bandwidth=10)
        with pytest.raises(ValueError):
            CapacityModel(streaming_rate=1, chunk_duration=0, vm_bandwidth=10)


class TestRequiredServers:
    def test_zero_arrivals_need_nothing(self):
        assert required_servers(0.0, 0.5, 10.0) == 0

    def test_result_meets_target(self):
        lam, mu, t = 2.0, 1.0 / 12.0, 300.0
        m = required_servers(lam, mu, t)
        assert mmm_expected_sojourn_time(m, lam, mu) <= t + 1e-9

    def test_result_is_minimal(self):
        lam, mu, t = 2.0, 1.0 / 12.0, 300.0
        m = required_servers(lam, mu, t)
        offered = lam / mu
        if m - 1 > offered:  # m-1 stable: must violate the target
            assert (
                mmm_expected_number_in_system(m - 1, offered) > lam * t
            )

    def test_stability(self):
        lam, mu = 5.0, 0.1
        m = required_servers(lam, mu, 30.0)
        assert m > lam / mu

    def test_infeasible_target_rejected(self):
        # Target below the bare service time is impossible.
        with pytest.raises(ValueError, match="no server count"):
            required_servers(1.0, 0.1, 5.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rate_rejected(self, bad):
        # NaN used to die in math.floor; a lock-step search would spin on it.
        with pytest.raises(ValueError, match="arrival rate must be finite"):
            required_servers(bad, 1.0 / 12.0, 300.0)
        with pytest.raises(ValueError, match="arrival rate must be finite"):
            size_queues(np.array([0.5, bad]), 1.0 / 12.0, 300.0)

    def test_tight_target_needs_more_servers(self):
        lam, mu = 3.0, 0.2
        loose = required_servers(lam, mu, 30.0)
        tight = required_servers(lam, mu, 5.5)
        assert tight >= loose

    def test_monotone_in_arrival_rate(self):
        mu, t = 1.0 / 12.0, 300.0
        counts = [required_servers(lam, mu, t) for lam in (0.1, 0.5, 2.0, 8.0)]
        assert all(x <= y for x, y in zip(counts, counts[1:]))

    @given(
        lam=st.floats(min_value=0.001, max_value=50.0),
        slack=st.floats(min_value=1.05, max_value=30.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_target_always_met(self, lam, slack):
        mu = 1.0 / 12.0
        target = slack * (1.0 / mu)
        m = required_servers(lam, mu, target)
        assert m >= 1
        assert mmm_expected_sojourn_time(m, lam, mu) <= target + 1e-6


class TestChannelCapacity:
    def test_end_to_end_sequential(self, model):
        p = sequential_matrix(6, continue_prob=0.85)
        result = solve_channel_capacity(model, p, external_rate=0.5, alpha=1.0)
        # Arrival rates decay along the chain; so should server counts.
        assert np.all(np.diff(result.traffic.arrival_rates) <= 1e-12)
        assert np.all(np.diff(result.servers) <= 0)
        assert result.total_servers >= 1

    def test_sojourn_target_met_everywhere(self, model):
        p = uniform_jump_matrix(8, 0.6, 0.2)
        result = solve_channel_capacity(model, p, external_rate=1.0)
        mu = model.service_rate
        for lam, m in zip(result.traffic.arrival_rates, result.servers):
            if lam > 0:
                assert mmm_expected_sojourn_time(m, lam, mu) <= T0 + 1e-6

    def test_expected_in_system_bounded_by_littles_law(self, model):
        p = uniform_jump_matrix(5, 0.6, 0.2)
        result = solve_channel_capacity(model, p, external_rate=2.0)
        target = result.traffic.arrival_rates * T0
        assert np.all(result.expected_in_system <= target + 1e-6)

    def test_bandwidth_is_r_times_servers(self, model):
        p = uniform_jump_matrix(4, 0.5, 0.2)
        result = solve_channel_capacity(model, p, external_rate=1.0)
        assert result.upload_bandwidth == pytest.approx(R * result.servers)
        assert result.cloud_demand == pytest.approx(result.upload_bandwidth)

    def test_zero_rate_channel(self, model):
        p = sequential_matrix(4, 0.8)
        result = solve_channel_capacity(model, p, external_rate=0.0)
        assert result.total_servers == 0
        assert result.total_bandwidth == 0.0

    def test_population_scales_with_rate(self, model):
        p = uniform_jump_matrix(5, 0.6, 0.2)
        small = solve_channel_capacity(model, p, external_rate=0.2)
        large = solve_channel_capacity(model, p, external_rate=2.0)
        assert large.expected_population > small.expected_population

    def test_explicit_external_rates(self, model):
        p = sequential_matrix(3, 0.5)
        ext = np.array([1.0, 0.0, 0.5])
        result = solve_channel_capacity(
            model, p, external_rate=0.0, external_rates=ext
        )
        assert result.traffic.external_rates == pytest.approx(ext)

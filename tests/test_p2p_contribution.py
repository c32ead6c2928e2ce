"""Tests for repro.p2p.contribution: Eqn (5) and the cloud supplement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p2p.contribution import (
    cloud_supplement,
    peer_contribution,
    solve_p2p_channel_capacity,
)
from repro.queueing.capacity import CapacityModel
from repro.queueing.transitions import uniform_jump_matrix

R = 10e6 / 8.0
r = 50_000.0
T0 = 300.0


@pytest.fixture
def model():
    return CapacityModel(streaming_rate=r, chunk_duration=T0, vm_bandwidth=R)


class TestPeerContribution:
    def test_rarest_chunk_gets_full_supply(self):
        # One rare chunk, one common: the rare one is served first, whole.
        in_system = np.array([10.0, 10.0])
        owners = np.array([1.0, 100.0])
        gamma = peer_contribution(
            owners, population=20.0, peer_upload=r, streaming_rate=r,
            in_system=in_system,
        )
        # Rarest chunk (index 0): supply = 1 * r < demand 10 * r.
        assert gamma[0] == pytest.approx(r)
        # Common chunk: 100 r less what its owners gave chunk 0, capped by
        # its demand E[n] * r.
        assert gamma[1] == pytest.approx(10 * r)

    def test_demand_cap_viewers(self):
        in_system = np.array([3.0])
        owners = np.array([50.0])
        gamma = peer_contribution(
            owners, 3.0, peer_upload=r, streaming_rate=r, in_system=in_system,
        )
        assert gamma[0] == pytest.approx(3.0 * r)  # E[n] * r cap

    def test_supply_cap(self):
        in_system = np.array([100.0])
        owners = np.array([2.0])
        gamma = peer_contribution(
            owners, 100.0, peer_upload=r, streaming_rate=r, in_system=in_system,
        )
        assert gamma[0] == pytest.approx(2.0 * r)  # nu * u cap

    def test_coownership_deduction(self):
        """Bandwidth committed to a rarer chunk reduces a later chunk's pool."""
        in_system = np.array([40.0, 40.0])
        owners = np.array([2.0, 3.0])
        population = 80.0
        gamma = peer_contribution(
            owners, population, peer_upload=r, streaming_rate=r,
            in_system=in_system,
        )
        assert gamma[0] == pytest.approx(2.0 * r)
        # Psi(0, 1) * N peers own both; each gave chunk 0 Gamma_0 / nu_0.
        both = (2.0 / population) * (3.0 / population) * population
        assert gamma[1] == pytest.approx(3.0 * r - both * r)
        assert gamma[1] < 3.0 * r

    def test_zero_upload_gives_zero(self):
        gamma = peer_contribution(
            np.array([5.0, 5.0]), 10.0, 0.0, r, in_system=np.array([5.0, 5.0]),
        )
        assert np.all(gamma == 0.0)

    def test_never_negative_nor_above_demand(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = rng.integers(1, 8)
            in_system = rng.uniform(0, 30, n)
            owners = rng.uniform(0, 50, n)
            gamma = peer_contribution(
                owners, in_system.sum(), peer_upload=2 * r,
                streaming_rate=r, in_system=in_system,
            )
            assert np.all(gamma >= 0.0)
            assert np.all(gamma <= in_system * r + 1e-9)

    def test_total_contribution_bounded_by_total_upload(self):
        """With the independence Psi, total Gamma cannot exceed roughly the
        swarm's aggregate upload capacity."""
        in_system = np.full(5, 50.0)
        owners = np.full(5, 100.0)
        population = 250.0
        upload = 0.5 * r
        gamma = peer_contribution(owners, population, upload, r, in_system=in_system)
        assert gamma.sum() <= population * upload * 1.25  # loose conservation

    def test_viewers_demand_requires_in_system(self):
        with pytest.raises(ValueError, match="in_system"):
            peer_contribution(np.ones(2), 2.0, r, r, in_system=np.ones(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="population"):
            peer_contribution(
                np.ones((2, 3)), np.ones(3), r, r, in_system=np.ones((2, 3))
            )

    @given(upload_scale=st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_peer_upload(self, upload_scale):
        in_system = np.array([20.0, 10.0, 30.0])
        owners = np.array([5.0, 1.0, 8.0])
        base = peer_contribution(owners, 60.0, r, r, in_system=in_system)
        more = peer_contribution(
            owners, 60.0, r * (1 + upload_scale), r, in_system=in_system,
        )
        assert more.sum() >= base.sum() - 1e-9


class TestStackedPeerContribution:
    """A (C, J) stack is C rarest-first passes run side by side."""

    def test_rows_match_one_row_calls_with_per_row_uploads(self):
        rng = np.random.default_rng(7)
        owners = rng.uniform(0.0, 30.0, (4, 6))
        in_system = rng.uniform(0.0, 20.0, (4, 6))
        population = in_system.sum(axis=1)
        uploads = np.array([0.3, 0.9, 1.7, 2.4]) * r
        gamma = peer_contribution(owners, population, uploads, r,
                                  in_system=in_system)
        assert gamma.shape == (4, 6)
        for k in range(4):
            row = peer_contribution(owners[k], population[k], uploads[k], r,
                                    in_system=in_system[k])
            assert gamma[k].tobytes() == row.tobytes()

    def test_owner_count_ties_break_on_chunk_index(self):
        # Three equally rare chunks: the lowest index is served first, and
        # each later one loses what its co-owners gave the earlier ones.
        owners = np.array([[5.0, 5.0, 5.0], [5.0, 5.0, 5.0]])
        in_system = np.full((2, 3), 100.0)
        gamma = peer_contribution(owners, np.array([10.0, 10.0]), r, r,
                                  in_system=in_system)
        assert gamma[0] == pytest.approx([5.0 * r, 2.5 * r, 1.25 * r])
        assert gamma[1].tobytes() == gamma[0].tobytes()

    def test_zero_upload_row(self):
        owners = np.array([[3.0, 4.0], [3.0, 4.0]])
        in_system = np.full((2, 2), 10.0)
        gamma = peer_contribution(owners, np.array([20.0, 20.0]),
                                  np.array([0.0, r]), r, in_system=in_system)
        assert np.all(gamma[0] == 0.0)
        assert np.all(gamma[1] > 0.0)

    def test_single_chunk(self):
        # J = 1: nothing is rarer, so Gamma = min(E[n] r, nu u) per row.
        owners = np.array([[3.0], [0.0], [7.0]])
        in_system = np.array([[5.0], [5.0], [2.0]])
        gamma = peer_contribution(owners, np.array([5.0, 5.0, 2.0]), r, r,
                                  in_system=in_system)
        assert gamma[:, 0] == pytest.approx([3.0 * r, 0.0, 2.0 * r])

    def test_negative_upload_in_any_row_rejected(self):
        with pytest.raises(ValueError, match="peer upload"):
            peer_contribution(np.ones((2, 2)), np.full(2, 2.0),
                              np.array([r, -r]), r, in_system=np.ones((2, 2)))


class TestCloudSupplement:
    def test_coverage_reading(self):
        m = np.array([4.0])
        in_system = np.array([20.0])
        gamma = np.array([10.0 * r])  # peers cover half the 20 streams
        delta = cloud_supplement(m, gamma, R, r, in_system=in_system)
        assert delta[0] == pytest.approx(0.5 * R * 4.0)

    def test_full_peer_coverage_zeroes_cloud(self):
        m = np.array([3.0])
        in_system = np.array([12.0])
        gamma = np.array([12.0 * r])
        delta = cloud_supplement(m, gamma, R, r, in_system=in_system)
        assert delta[0] == pytest.approx(0.0)

    def test_no_peers_equals_client_server(self):
        m = np.array([3.0])
        in_system = np.array([12.0])
        delta = cloud_supplement(m, np.zeros(1), R, r, in_system=in_system)
        assert delta[0] == pytest.approx(3.0 * R)

    def test_empty_queue_zero_demand(self):
        delta = cloud_supplement(
            np.array([1.0]), np.zeros(1), R, r, in_system=np.zeros(1)
        )
        assert delta[0] == pytest.approx(R)  # no coverage info -> full m

    def test_clamped_at_zero(self):
        # Peer bandwidth beyond the streams' demand covers them once.
        delta = cloud_supplement(
            np.array([1.0]), np.array([5.0 * r]), R, r, in_system=np.array([2.0])
        )
        assert delta[0] == 0.0

    def test_coverage_requires_in_system(self):
        with pytest.raises(ValueError, match="in_system"):
            cloud_supplement(np.array([1.0]), np.array([0.0]), R, r,
                             in_system=np.ones(2))


class TestEndToEnd:
    def test_p2p_demand_below_client_server(self, model):
        p = uniform_jump_matrix(6, 0.6, 0.2)
        result = solve_p2p_channel_capacity(
            model, p, external_rate=1.0, peer_upload=0.9 * r
        )
        cs_total = result.capacity.total_bandwidth
        assert result.total_cloud_demand < cs_total
        assert result.total_peer_bandwidth > 0.0

    def test_more_peer_upload_less_cloud(self, model):
        p = uniform_jump_matrix(6, 0.6, 0.2)
        low = solve_p2p_channel_capacity(model, p, 1.0, peer_upload=0.3 * r)
        high = solve_p2p_channel_capacity(model, p, 1.0, peer_upload=1.2 * r)
        assert high.total_cloud_demand <= low.total_cloud_demand + 1e-6

    def test_offload_scales_with_upload_ratio(self, model):
        """Peer coverage should track u/r: ~30% at 0.3, near-full at 1.5."""
        p = uniform_jump_matrix(6, 0.6, 0.2)
        low = solve_p2p_channel_capacity(model, p, 1.0, peer_upload=0.3 * r)
        high = solve_p2p_channel_capacity(model, p, 1.0, peer_upload=1.5 * r)
        assert 0.05 <= low.peer_offload_ratio <= 0.6
        assert high.peer_offload_ratio >= 0.6

    def test_zero_upload_equals_client_server(self, model):
        p = uniform_jump_matrix(6, 0.6, 0.2)
        result = solve_p2p_channel_capacity(model, p, 1.0, peer_upload=0.0)
        assert result.cloud_demand == pytest.approx(
            result.capacity.upload_bandwidth
        )

"""Tests for chunk delivery: the kernel's client-server solve and the
array-based P2P rarest-first solve (repro.vod.delivery)."""

import numpy as np
import pytest

from helpers import trace_arrays
from repro.vod.channel import make_uniform_channels
from repro.vod.delivery import P2PDelivery
from repro.vod.multi import MultiChannelSimulator, VoDSystemConfig

R = 10e6 / 8.0
r = 50_000.0
T0 = 300.0


def client_server_step(downloads, capacity, num_chunks=4):
    """One 1 s kernel step with one user per entry of ``downloads``
    (the chunk it downloads); returns the kernel's bandwidth log (one
    row) and each user's download rate."""
    sessions = [(0.0, 0, chunk, 0.0) for chunk in downloads]
    sim = MultiChannelSimulator(
        make_uniform_channels(1, num_chunks, r, T0),
        trace_arrays(sessions),
        VoDSystemConfig(dt=1.0, user_rate_cap=R),
    )
    sim.set_cloud_capacity(0, np.asarray(capacity, dtype=float))
    sim.step()
    return sim.bandwidth, sim._row_received[: sim._n].copy()


def channel_state(downloads, owners=(), uploads=100_000.0, num_chunks=4):
    """One channel's live users as :meth:`P2PDelivery.allocate` reads
    them (a one-channel step): ``downloads`` is the chunk each user
    downloads; ``owners`` is a list of (user_index, owned_chunk) pairs;
    ``uploads`` one capacity for everyone or one per user."""
    n = len(downloads)
    owned = np.zeros((num_chunks, n), dtype=bool)
    for user, chunk in owners:
        owned[chunk, user] = True
    upload = np.broadcast_to(np.asarray(uploads, dtype=float), (n,)).copy()
    downloaders = np.bincount(
        np.asarray(downloads, dtype=np.int64), minlength=num_chunks
    ).astype(float)
    return downloaders[None, :], owned.sum(axis=1)[None, :], owned, upload


def allocate(state, capacity):
    downloaders, owners_count, owned, upload = state
    return P2PDelivery(user_cap=R).allocate(
        downloaders, owners_count, owned, upload,
        np.array([0, upload.size]), np.asarray(capacity)[None, :],
    )


class TestClientServer:
    def test_equal_share(self):
        log, rates = client_server_step([0, 0], [1.0e6, 0.0, 0.0, 0.0])
        assert rates.tolist() == pytest.approx([0.5e6, 0.5e6])
        assert log.cloud_used[-1] == pytest.approx(1.0e6)
        assert log.peer_used[-1] == 0.0

    def test_user_cap_binds(self):
        log, rates = client_server_step([0], [10 * R, 0, 0, 0])
        assert rates[0] == pytest.approx(R)
        assert log.cloud_used[-1] == pytest.approx(R)

    def test_shortfall_measured(self):
        log, _ = client_server_step([0, 0], [R, 0, 0, 0])
        assert log.shortfall[-1] == pytest.approx(R)

    def test_idle_chunks_unused(self):
        log, _ = client_server_step([1], [R, R, R, R])
        assert log.cloud_used[-1] == pytest.approx(R)

    def test_capacity_shape_checked(self):
        with pytest.raises(ValueError):
            client_server_step([0], np.zeros(3))


class TestP2P:
    def test_peers_serve_before_cloud(self):
        # User 1 owns chunk 0 and has plenty of upload; user 0 downloads it.
        state = channel_state([0, 1], owners=[(1, 0)], uploads=R)
        outcome = allocate(state, [R, R, 0, 0])
        # Chunk 0's downloader is served by the peer, not the cloud.
        assert outcome.peer_used >= R - 1e-6
        # Cloud only serves chunk 1's downloader (nobody owns chunk 1).
        assert outcome.cloud_used == pytest.approx(R)

    def test_no_owners_falls_back_to_cloud(self):
        outcome = allocate(channel_state([0]), [R, 0, 0, 0])
        assert outcome.peer_used == 0.0
        assert outcome.cloud_used == pytest.approx(R)

    def test_peer_upload_is_shared_across_chunks(self):
        # One owner of both chunks with limited upload; two downloaders.
        state = channel_state(
            [0, 1, 2], owners=[(2, 0), (2, 1)],
            uploads=[0.0, 0.0, 100_000.0],  # user 2 is the only uploader
        )
        outcome = allocate(state, np.zeros(4))
        # Peer can give at most its upload capacity in total.
        assert outcome.peer_used <= 100_000.0 + 1e-6

    def test_rarest_chunk_served_first(self):
        # Chunk 0 has one owner, chunk 1 has two owners; the single
        # uploader's capacity must go to chunk 0 first.  Users: d0
        # downloads rare chunk 0, d1 chunk 1, the uploader owns both,
        # and o2 is an extra owner of chunk 1 with no upload.
        state = channel_state(
            [0, 1, 2, 3], owners=[(2, 0), (2, 1), (3, 1)],
            uploads=[0.0, 0.0, 50_000.0, 0.0],
        )
        outcome = allocate(state, np.zeros(4))
        # All 50 KB/s go to chunk 0 (rarest: 1 owner vs 2).
        assert outcome.per_user_rates[0, 0] == pytest.approx(50_000.0)
        assert outcome.per_user_rates[0, 1] == pytest.approx(0.0)

    def test_cloud_tops_up_shortfall(self):
        # One owner with tiny upload serves the one downloader.
        state = channel_state(
            [0, 1], owners=[(1, 0)], uploads=[0.0, 10_000.0]
        )
        outcome = allocate(state, [R, 0, 0, 0])
        assert outcome.peer_used == pytest.approx(10_000.0)
        assert outcome.cloud_used == pytest.approx(R - 10_000.0)

    def test_empty_store(self):
        outcome = allocate(channel_state([]), np.zeros(4))
        assert outcome.cloud_used == 0.0
        assert outcome.peer_used == 0.0

    def test_rates_are_channels_by_chunks(self):
        outcome = allocate(channel_state([0, 2]), [R, 0, 0, 0])
        assert outcome.per_user_rates.shape == (1, 4)
        assert outcome.per_user_rates.tolist() == [[R, 0.0, 0.0, 0.0]]


class TestP2PInputs:
    """``allocate`` checks every shape and the channel column bounds."""

    def state(self, **override):
        args = dict(
            downloaders=np.ones((2, 3)),
            owners_count=np.ones((2, 3), dtype=np.int64),
            owned=np.ones((3, 4), dtype=bool),
            upload=np.full(4, 1000.0),
            bounds=np.array([0, 2, 4]),
            cloud_capacity=np.zeros((2, 3)),
        )
        args.update(override)
        return args

    def test_valid_state_accepted(self):
        outcome = P2PDelivery(R).allocate(**self.state())
        assert outcome.per_user_rates.shape == (2, 3)
        assert outcome.peer_used == pytest.approx(4000.0)

    @pytest.mark.parametrize("override", [
        dict(downloaders=np.ones(3)),
        dict(owners_count=np.ones((2, 2), dtype=np.int64)),
        dict(cloud_capacity=np.zeros((3, 2))),
        dict(owned=np.ones((2, 4), dtype=bool)),
        dict(owned=np.ones((3, 5), dtype=bool)),
        dict(upload=np.ones((4, 1))),
        dict(bounds=np.array([0, 4])),
        dict(bounds=np.array([1, 2, 4])),
        dict(bounds=np.array([0, 2, 3])),
        dict(bounds=np.array([0, 3, 2, 4])),
    ])
    def test_bad_shapes_and_bounds_rejected(self, override):
        with pytest.raises(ValueError):
            P2PDelivery(R).allocate(**self.state(**override))

    def test_decreasing_bounds_rejected(self):
        state = self.state(
            downloaders=np.ones((3, 3)),
            owners_count=np.ones((3, 3), dtype=np.int64),
            cloud_capacity=np.zeros((3, 3)),
            bounds=np.array([0, 3, 1, 4]),
        )
        with pytest.raises(ValueError, match="bounds"):
            P2PDelivery(R).allocate(**state)

    @pytest.mark.parametrize("cap", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_user_cap_rejected(self, cap):
        with pytest.raises(ValueError, match="cap"):
            P2PDelivery(cap)

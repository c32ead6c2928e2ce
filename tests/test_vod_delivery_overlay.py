"""Tests for chunk delivery: the kernel's client-server solve and the
array-based P2P rarest-first solve (repro.vod.delivery)."""

import numpy as np
import pytest

from repro.vod.channel import make_uniform_channels
from repro.vod.delivery import P2PDelivery
from repro.vod.multi import MultiChannelSimulator, VoDSystemConfig
from repro.workload.trace import Session, ShardTraceArrays, Trace

R = 10e6 / 8.0
r = 50_000.0
T0 = 300.0


def client_server_step(downloads, capacity, num_chunks=4):
    """One 1 s kernel step with one user per entry of ``downloads``
    (the chunk it downloads); returns the step's bandwidth sample and
    each user's download rate."""
    sessions = [Session(0.0, 0, chunk, 0.0) for chunk in downloads]
    sim = MultiChannelSimulator(
        make_uniform_channels(1, num_chunks, r, T0),
        ShardTraceArrays.from_trace(Trace(config_summary={}, sessions=sessions)),
        VoDSystemConfig(dt=1.0, user_rate_cap=R),
    )
    sim.set_cloud_capacity(0, np.asarray(capacity, dtype=float))
    sample = sim.step()
    return sample, sim._row_received[: sim._n].copy()


def channel_state(downloads, owners=(), uploads=100_000.0, num_chunks=4):
    """One channel's live users as :meth:`P2PDelivery.allocate` reads
    them: ``downloads`` is the chunk each user downloads; ``owners`` is
    a list of (user_index, owned_chunk) pairs; ``uploads`` one capacity
    for everyone or one per user."""
    n = len(downloads)
    owned = np.zeros((num_chunks, n), dtype=bool)
    for user, chunk in owners:
        owned[chunk, user] = True
    upload = np.broadcast_to(np.asarray(uploads, dtype=float), (n,)).copy()
    downloaders = np.bincount(
        np.asarray(downloads, dtype=np.int64), minlength=num_chunks
    ).astype(float)
    return downloaders, owned.sum(axis=1), owned, upload


def allocate(state, capacity):
    downloaders, owners_count, owned, upload = state
    return P2PDelivery(user_cap=R).allocate(
        downloaders, owners_count, owned, upload, np.asarray(capacity)
    )


class TestClientServer:
    def test_equal_share(self):
        sample, rates = client_server_step([0, 0], [1.0e6, 0.0, 0.0, 0.0])
        assert rates.tolist() == pytest.approx([0.5e6, 0.5e6])
        assert sample.cloud_used == pytest.approx(1.0e6)
        assert sample.peer_used == 0.0

    def test_user_cap_binds(self):
        sample, rates = client_server_step([0], [10 * R, 0, 0, 0])
        assert rates[0] == pytest.approx(R)
        assert sample.cloud_used == pytest.approx(R)

    def test_shortfall_measured(self):
        sample, _ = client_server_step([0, 0], [R, 0, 0, 0])
        assert sample.shortfall == pytest.approx(R)

    def test_idle_chunks_unused(self):
        sample, _ = client_server_step([1], [R, R, R, R])
        assert sample.cloud_used == pytest.approx(R)

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
        assert outcome.per_user_rates[0] == pytest.approx(50_000.0)
        assert outcome.per_user_rates[1] == pytest.approx(0.0)

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

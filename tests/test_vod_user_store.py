"""Tests for the kernel's per-user state: the row table of
:class:`repro.vod.multi.MultiChannelSimulator`.

Every user lives in one row (chunk, received bytes, enter time, upload
capacity, hold state, alive flag and, in P2P mode, the chunks owned);
these tests drive single users through admission, download, hold,
completion and departure and read the row table back.  The behaviour
matrix is strictly sequential (chunk i -> i + 1, the last chunk
departs), so every trajectory is deterministic.
"""

import numpy as np
import pytest

from repro.vod.channel import ChannelSpec, make_uniform_channels
from repro.vod.multi import HOLDING, MultiChannelSimulator, VoDSystemConfig
from repro.workload.trace import Session, ShardTraceArrays, Trace

R = 10e6 / 8.0
r = 50_000.0
T0 = 300.0
SEQUENTIAL = np.eye(4, k=1)  # always continue; the last chunk departs


def kernel(sessions, *, mode="p2p", capacity=R, dt=10.0):
    """One sequential-viewing channel of 4 chunks (15 MB each: at rate
    R a download takes 12 s, i.e. two 10 s steps)."""
    sim = MultiChannelSimulator(
        make_uniform_channels(1, 4, r, T0, behaviour=SEQUENTIAL),
        ShardTraceArrays.from_trace(Trace(config_summary={}, sessions=sessions)),
        VoDSystemConfig(mode=mode, dt=dt, user_rate_cap=R, seed=1),
    )
    sim.set_cloud_capacity(0, np.broadcast_to(np.asarray(capacity, float), 4))
    return sim


def live(sim, column):
    """``column`` of the live rows, in admission order."""
    n = sim._n
    return getattr(sim, column)[:n][sim._row_alive[:n]]


class TestLifecycle:
    def test_add_user(self):
        sim = kernel([Session(5.0, 0, 1, 100.0)], capacity=0.0)
        sim.step()  # now = 10: admitted at the step boundary
        assert live(sim, "_row_chunk").tolist() == [1]
        assert live(sim, "_row_enter").tolist() == [10.0]
        assert live(sim, "_row_upload").tolist() == [100.0]
        assert sim.population() == 1
        assert sim.channel_populations() == {0: 1}

    def test_growth_preserves_state(self):
        sessions = [Session(float(i), 0, 0, float(i)) for i in range(300)]
        sim = kernel(sessions, capacity=0.0)
        sim.advance_to(300.0)
        assert sim._row_chan.size >= 300  # grew past the initial capacity
        assert sim.population() == 300
        assert live(sim, "_row_upload").tolist() == [float(i) for i in range(300)]

    def test_depart(self):
        sim = kernel([Session(0.0, 0, 3, 10.0)])
        sim.advance_to(320.0)  # last chunk done at 20, watched until 310
        assert sim.population() == 0
        assert sim.departures == 1
        assert not sim._row_alive[0]
        assert sim._owners.sum() == 0  # a departed owner owns nothing

    def test_complete_chunk_records_ownership(self):
        sim = kernel([Session(0.0, 0, 2, 10.0)])
        sim.advance_to(20.0)
        assert sim._row_owned[2, 0]
        assert sim._owners[0].tolist() == [0, 0, 1, 0]
        assert sim.quality.total_retrievals == 1
        assert sim.quality.unsmooth_retrievals == 0

    def test_unsmooth_retrieval_tracked(self):
        sim = kernel([Session(0.0, 0, 0, 10.0)], capacity=25_000.0)
        # 15 MB at 250 kB per step from the admission step at 10: done
        # at 600, a sojourn of 590 s > T0.
        sim.advance_to(620.0)
        assert sim.quality.unsmooth_retrievals == 1
        assert sim._row_unsmooth[0] == 600.0

    def test_invalid_inputs(self):
        config = VoDSystemConfig(mode="p2p")
        empty = ShardTraceArrays.from_trace(Trace(config_summary={}, sessions=[]))
        with pytest.raises(ValueError):
            MultiChannelSimulator([], empty, config)
        channels = make_uniform_channels(2, 4, r, T0)
        with pytest.raises(ValueError):  # ids must be strictly increasing
            MultiChannelSimulator(channels[::-1], empty, config)
        odd = ChannelSpec(1, 3, r, T0, np.zeros((3, 3)))
        with pytest.raises(ValueError):  # the channel set must be uniform
            MultiChannelSimulator([channels[0], odd], empty, config)
        sim = MultiChannelSimulator(channels, empty, config)
        with pytest.raises(ValueError):
            sim.set_cloud_capacity(0, np.full(4, -1.0))


class TestHolding:
    def test_begin_and_release_hold(self):
        sim = kernel([Session(0.0, 0, 0, 10.0)])
        sim.advance_to(20.0)  # downloaded in 12 s, admitted at 10
        assert sim._row_chunk[0] == HOLDING
        assert sim._row_hold_until[0] == 310.0  # enter + T0
        assert sim._row_hold_next[0] == 1
        assert sim._row_hold_from[0] == 0
        sim.advance_to(300.0)
        assert sim._row_chunk[0] == HOLDING
        sim.advance_to(310.0)
        assert sim._row_chunk[0] == 1
        assert sim._row_enter[0] == 310.0

    def test_holding_users_not_downloaders(self):
        sim = kernel(
            [Session(0.0, 0, 0, 10.0), Session(15.0, 0, 0, 10.0)],
            mode="client-server", capacity=[2 * R, 0.0, 0.0, 0.0],
        )
        sim.advance_to(20.0)
        assert live(sim, "_row_chunk").tolist() == [HOLDING, 0]
        # Only the downloader draws from chunk 0's capacity.
        assert sim.step().cloud_used == pytest.approx(R)
        # Holding users still count as active.
        assert sim.population() == 2

    def test_holding_users_keep_ownership_visible(self):
        sim = kernel(
            [Session(0.0, 0, 0, 10_000.0), Session(15.0, 0, 0, 0.0)],
            capacity=[R, 0.0, 0.0, 0.0],
        )
        sim.advance_to(20.0)
        assert sim._row_chunk[0] == HOLDING
        assert sim._owners[0, 0] == 1
        # The holding owner uploads chunk 0 to the newcomer.
        assert sim.step().peer_used == pytest.approx(10_000.0)


class TestVectorizedQueries:
    def test_downloaders_per_chunk(self):
        sessions = [Session(0.0, 0, c, 1.0) for c in (0, 0, 3)]
        sim = kernel(sessions, mode="client-server", capacity=[R, 0, 0, R])
        sim.step()
        # Chunk 0's two downloaders share it; chunk 3's one gets the cap.
        assert live(sim, "_row_received").tolist() == pytest.approx(
            [R / 2 * 10.0, R / 2 * 10.0, R * 10.0]
        )

    def test_advance_and_complete(self):
        sessions = [Session(0.0, 0, 0, 1.0), Session(0.0, 0, 1, 1.0)]
        sim = kernel(sessions, mode="client-server",
                     capacity=[R, R / 10, 0.0, 0.0])
        sim.step()
        assert live(sim, "_row_received").tolist() == pytest.approx(
            [R * 10.0, R]
        )
        sim.step()  # the first user passes the 15 MB chunk size
        assert sim.quality.total_retrievals == 1
        assert live(sim, "_row_chunk").tolist() == [HOLDING, 1]

    def test_ownership_matrix_active_only(self):
        sessions = [Session(0.0, 0, 0, 1.0), Session(0.0, 0, 3, 1.0)]
        sim = kernel(sessions)
        sim.advance_to(20.0)
        assert sim._owners[0].tolist() == [1, 0, 0, 1]
        sim.advance_to(310.0)  # the last-chunk viewer departs
        assert sim.population() == 1
        assert sim._owners[0].tolist() == [1, 0, 0, 0]

    def test_smooth_users_window(self):
        sessions = [Session(0.0, 0, 0, 1.0), Session(0.0, 0, 1, 1.0)]
        sim = kernel(sessions, capacity=0.0)
        sim.step()
        sim._row_unsmooth[0] = 100.0  # an unsmooth retrieval at t=100
        sim.now = 150.0
        sim._sample_quality()
        sample = sim.quality.samples[-1]
        assert (sample.total_smooth, sample.total_users) == (1, 2)
        # Much later the stall has aged out of the 300 s window (both
        # users entered fresh chunks recently, so neither is overdue).
        sim._row_enter[:2] = 400.0
        sim.now = 500.0
        sim._sample_quality()
        sample = sim.quality.samples[-1]
        assert (sample.total_smooth, sample.total_users) == (2, 2)

    def test_total_upload_capacity(self):
        sessions = [Session(0.0, 0, 0, 10.0), Session(0.0, 0, 3, 30.0)]
        sim = kernel(sessions)
        sim.step()
        assert sim.peer_upload_totals() == (40.0, 2)
        sim.advance_to(310.0)  # the last-chunk viewer departs
        assert sim.peer_upload_totals() == (10.0, 1)

    def test_empty_store_queries(self):
        sim = kernel([])
        sim.advance_to(300.0)
        assert sim.population() == 0
        assert sim.channel_populations() == {0: 0}
        assert sim.peer_upload_totals() == (0.0, 0)
        assert sim._owners.sum() == 0
        assert sim.quality.total_retrievals == 0
        assert sim.quality.samples[-1].quality == 1.0
        assert sim.close_interval()[0].arrivals == 0

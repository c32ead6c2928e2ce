"""Property-based tests: conservation laws of chunk delivery.

Whatever the state, a delivery round must never create bandwidth: cloud
usage is bounded by the provisioned capacity, peer usage by the peers'
aggregate upload capacity, per-user rates by the cap, and the delivered
total must equal what the cloud and peers supplied.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vod.channel import make_uniform_channels
from repro.vod.delivery import P2PDelivery
from repro.vod.multi import MultiChannelSimulator, VoDSystemConfig
from repro.workload.trace import Session, ShardTraceArrays, Trace

R = 10e6 / 8.0
NUM_CHUNKS = 5

capacities = st.lists(
    st.floats(min_value=0.0, max_value=5 * R),
    min_size=NUM_CHUNKS,
    max_size=NUM_CHUNKS,
).map(np.asarray)


@st.composite
def channel_and_capacity(draw):
    """One channel's live users as P2PDelivery.allocate reads them,
    plus per-chunk cloud capacities."""
    num_users = draw(st.integers(min_value=0, max_value=30))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    chunk = rng.integers(0, NUM_CHUNKS, num_users)
    upload = rng.uniform(0, 2 * R, num_users)
    # Random buffered chunks.
    owned = rng.random((NUM_CHUNKS, num_users)) < 0.4
    # Some users are watching (holding), not downloading.
    downloading = rng.random(num_users) >= 0.25
    downloaders = np.bincount(
        chunk[downloading], minlength=NUM_CHUNKS
    ).astype(float)
    state = (downloaders, owned.sum(axis=1), owned, upload)
    return state, draw(capacities)


def p2p(state, capacity):
    return P2PDelivery(R).allocate(*state, capacity)


def without_peers(state, capacity):
    """The same demand with nobody owning anything: client-server."""
    downloaders, owners_count, owned, upload = state
    return P2PDelivery(R).allocate(
        downloaders, np.zeros_like(owners_count), np.zeros_like(owned),
        upload, capacity,
    )


class TestClientServerConservation:
    @given(
        chunks=st.lists(
            st.integers(0, NUM_CHUNKS - 1), min_size=0, max_size=30
        ),
        capacity=capacities,
    )
    @settings(max_examples=80, deadline=None)
    def test_no_bandwidth_created(self, chunks, capacity):
        """One 1 s step of the kernel's client-server solve."""
        sim = MultiChannelSimulator(
            make_uniform_channels(1, NUM_CHUNKS, 50_000.0, 300.0),
            ShardTraceArrays.from_trace(Trace(
                config_summary={},
                sessions=[Session(0.0, 0, c, 0.0) for c in chunks],
            )),
            VoDSystemConfig(dt=1.0, user_rate_cap=R),
        )
        sim.set_cloud_capacity(0, capacity)
        sample = sim.step()
        rates = sim._row_received[: sim._n]
        downloaders = float(len(chunks))
        # Cloud usage bounded by capacity and by demand.
        assert sample.cloud_used <= capacity.sum() + 1e-6
        assert sample.cloud_used <= downloaders * R + 1e-6
        # No peer magic in client-server mode.
        assert sample.peer_used == 0.0
        # Per-user rates respect the cap.
        assert np.all(rates <= R + 1e-9)
        # Delivered == cloud used (single source).
        delivered = float(rates.sum())
        assert delivered == pytest.approx(sample.cloud_used, rel=1e-9, abs=1e-6)
        # Shortfall accounting closes the balance.
        assert sample.shortfall == pytest.approx(
            downloaders * R - delivered, rel=1e-9, abs=1e-6
        )


class TestP2PConservation:
    @given(data=channel_and_capacity())
    @settings(max_examples=80, deadline=None)
    def test_no_bandwidth_created(self, data):
        state, capacity = data
        outcome = p2p(state, capacity)
        downloaders, _, _, upload = state
        assert outcome.peer_used <= upload.sum() + 1e-6
        assert outcome.cloud_used <= capacity.sum() + 1e-6
        assert np.all(outcome.per_user_rates <= R + 1e-9)
        assert np.all(outcome.per_user_rates >= 0.0)
        delivered = float((outcome.per_user_rates * downloaders).sum())
        assert delivered == pytest.approx(
            outcome.cloud_used + outcome.peer_used, rel=1e-6, abs=1e-3
        )
        assert delivered <= downloaders.sum() * R + 1e-6

    @given(data=channel_and_capacity())
    @settings(max_examples=40, deadline=None)
    def test_p2p_cloud_never_exceeds_client_server(self, data):
        """Adding peer supply can only reduce cloud usage."""
        state, capacity = data
        assert (
            p2p(state, capacity).cloud_used
            <= without_peers(state, capacity).cloud_used + 1e-6
        )

    @given(data=channel_and_capacity())
    @settings(max_examples=40, deadline=None)
    def test_p2p_serves_at_least_as_much(self, data):
        """Peer supply can only increase the total delivered bandwidth."""
        state, capacity = data
        downloaders = state[0]
        with_peers = p2p(state, capacity)
        cs = without_peers(state, capacity)
        p2p_delivered = float((with_peers.per_user_rates * downloaders).sum())
        cs_delivered = float((cs.per_user_rates * downloaders).sum())
        assert p2p_delivered >= cs_delivered - 1e-6

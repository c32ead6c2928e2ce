"""Differential tests: the one-call-per-step P2P solve against the
channel-by-channel solve it replaced.

The oracle below is :meth:`P2PDelivery.allocate` as it stood when it
took one channel at a time (``lexsort`` rarity order, a per-channel
cloud top-up and 1-D totals, and an early exit once ``remaining.any()``
turned false), driven by the kernel's old channel loop: every channel
with downloaders, in ascending order, its totals added to the step's
with ``+=`` from ``0.0``.  The new solve must match it bit for bit —
per-user rates (``tobytes()``) and all three totals — on drawn
multi-channel states and on a kernel run, step by step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from helpers import trace_arrays
from repro.vod.channel import make_uniform_channels
from repro.vod.delivery import P2PDelivery
from repro.vod.multi import MultiChannelSimulator, VoDSystemConfig

R = 10e6 / 8.0


# ----------------------------------------------------------------------
# The per-channel oracle
# ----------------------------------------------------------------------
def oracle_channel(user_cap, downloaders, owners_count, owned, upload,
                   cloud_capacity, stats=None):
    """One channel's rates and (cloud, peer, shortfall) totals."""
    downloaders = np.asarray(downloaders, dtype=float)
    capacity = np.asarray(cloud_capacity, dtype=float)
    num_chunks = downloaders.size
    rates = np.zeros(num_chunks, dtype=float)
    if upload.size == 0:
        return rates, 0.0, 0.0, 0.0
    order = np.lexsort((np.arange(num_chunks), owners_count))
    order = order[(downloaders[order] > 0) & (owners_count[order] > 0)]
    peer_supply = np.zeros(num_chunks, dtype=float)
    if order.size:
        remaining = np.array(upload, dtype=float)
        for rank, chunk in enumerate(order):
            owners = np.nonzero(owned[chunk])[0]
            pool = remaining[owners]
            available = float(np.add.reduce(pool))
            if stats is not None and owners.size >= 9:
                stats["big_pool"] += 1
            if available <= 0:
                continue
            demand = downloaders[chunk] * user_cap
            take = min(demand, available)
            if take <= 0:
                continue
            if take == available:
                remaining[owners] = 0.0
            else:
                remaining[owners] = pool * (1.0 - take / available)
                if stats is not None:
                    stats["partial_drain"] += 1
            peer_supply[chunk] = take
            if take == available and not remaining.any():
                if stats is not None and rank < order.size - 1:
                    stats["early_exit"] += 1
                break

    cloud_used_per_chunk = np.zeros(num_chunks, dtype=float)
    busy = downloaders > 0
    demand_per_chunk = downloaders * user_cap
    shortfall_after_peers = np.maximum(0.0, demand_per_chunk - peer_supply)
    cloud_used_per_chunk[busy] = np.minimum(
        capacity[busy], shortfall_after_peers[busy]
    )
    total_supply = peer_supply + cloud_used_per_chunk
    rates[busy] = np.minimum(user_cap, total_supply[busy] / downloaders[busy])
    delivered = rates * downloaders
    peer_used = float(np.minimum(peer_supply, delivered).sum())
    cloud_used = float((delivered - np.minimum(peer_supply, delivered)).sum())
    shortfall = float(np.maximum(0.0, demand_per_chunk - delivered).sum())
    return rates, cloud_used, peer_used, shortfall


def oracle_step(user_cap, downloaders, owners_count, owned, upload, bounds,
                capacity, stats=None):
    """The old channel loop: one oracle call per channel with
    downloaders, totals added in ascending channel order."""
    rates = np.zeros(downloaders.shape)
    cloud_used = peer_used = shortfall = 0.0
    for c in np.flatnonzero(downloaders.any(axis=1)).tolist():
        lo, hi = bounds[c], bounds[c + 1]
        r, cloud, peer, short = oracle_channel(
            user_cap, downloaders[c], owners_count[c], owned[:, lo:hi],
            upload[lo:hi], capacity[c], stats,
        )
        rates[c] = r
        cloud_used += cloud
        peer_used += peer
        shortfall += short
    return rates, cloud_used, peer_used, shortfall


def oracle_solve_p2p(sim, counts):
    """The kernel's old ``_solve_p2p``: each channel's live rows
    gathered on their own, in arrival order."""
    n = sim._n
    chan = sim._row_chan[:n]
    if sim._stale:
        live = np.flatnonzero(sim._row_alive[:n])
        order = live[np.argsort(chan[live], kind="stable")]
    else:
        order = np.argsort(chan, kind="stable")
    ends = np.cumsum(sim._chan_count).tolist()
    rates = np.zeros(counts.shape)
    cloud_used = peer_used = shortfall = 0.0
    for c in np.flatnonzero(counts.any(axis=1)).tolist():
        rows = order[ends[c] - int(sim._chan_count[c]) : ends[c]]
        r, cloud, peer, short = oracle_channel(
            sim.config.user_rate_cap, counts[c], sim._owners[c],
            sim._row_owned[:, rows], sim._row_upload[rows], sim._capacity[c],
        )
        rates[c] = r
        cloud_used += cloud
        peer_used += peer
        shortfall += short
    return rates, cloud_used, peer_used, shortfall


# ----------------------------------------------------------------------
# Drawn states
# ----------------------------------------------------------------------
def build_state(rng, num_channels, num_chunks, max_users, upload_scale,
                capacity_scale):
    """A kernel-shaped multi-channel state: each channel's users with
    the chunk they download (or a hold), their ownership and upload;
    owner counts are the live owners per (channel, chunk).

    Per channel the ownership density and the downloading share are
    drawn from sets that include 0, so some channels have users but no
    owners or no downloaders; some uploads and capacities are exactly
    zero."""
    sizes = rng.integers(0, max_users + 1, num_channels)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    total = int(bounds[-1])
    owned = np.zeros((num_chunks, total), dtype=bool)
    downloaders = np.zeros((num_channels, num_chunks))
    for c in range(num_channels):
        lo, hi = bounds[c], bounds[c + 1]
        density = rng.choice([0.0, 0.1, 0.5, 0.95])
        owned[:, lo:hi] = rng.random((num_chunks, hi - lo)) < density
        share = rng.choice([0.0, 0.3, 1.0])
        chunk = rng.integers(0, num_chunks, hi - lo)
        downloading = rng.random(hi - lo) < share
        downloaders[c] = np.bincount(
            chunk[downloading], minlength=num_chunks
        )
    upload = rng.uniform(0.0, upload_scale, total)
    upload[rng.random(total) < 0.15] = 0.0
    capacity = rng.uniform(0.0, capacity_scale, (num_channels, num_chunks))
    capacity[rng.random(capacity.shape) < 0.2] = 0.0
    owners_count = np.stack([
        owned[:, bounds[c]:bounds[c + 1]].sum(axis=1)
        for c in range(num_channels)
    ]).astype(np.int64).reshape(num_channels, num_chunks)
    return downloaders, owners_count, owned, upload, bounds, capacity


SCALES = [0.0, 0.01 * R, 0.3 * R, R, 20.0 * R]


@st.composite
def states(draw):
    return build_state(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        num_channels=draw(st.sampled_from([1, 2, 3, 5, 8, 9, 12])),
        num_chunks=draw(st.integers(1, 7)),
        max_users=draw(st.sampled_from([0, 3, 12, 40])),
        upload_scale=draw(st.sampled_from(SCALES)),
        capacity_scale=draw(st.sampled_from([0.0, 0.5 * R, 3.0 * R])),
    )


def assert_bitwise(outcome, oracle):
    rates, cloud_used, peer_used, shortfall = oracle
    assert outcome.per_user_rates.shape == rates.shape
    assert outcome.per_user_rates.tobytes() == rates.tobytes()
    assert type(outcome.cloud_used) is float
    assert (outcome.cloud_used, outcome.peer_used, outcome.cloud_shortfall) \
        == (cloud_used, peer_used, shortfall)


def has_ties(owners_count, downloaders):
    eligible = (owners_count > 0) & (downloaders > 0)
    return any(
        len(set(row[mask].tolist())) < int(mask.sum())
        for row, mask in zip(owners_count, eligible)
    )


# ----------------------------------------------------------------------
# The differential tests
# ----------------------------------------------------------------------
class TestAllocateDifferential:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(states())
    def test_bitwise_equal_to_per_channel_solve(self, state):
        stats = {"big_pool": 0, "partial_drain": 0, "early_exit": 0}
        oracle = oracle_step(R, *state, stats=stats)
        outcome = P2PDelivery(R).allocate(*state)
        downloaders, owners_count = state[0], state[1]
        event(f"channels={'8+' if downloaders.shape[0] >= 8 else '1-7'}")
        event(f"ties={has_ties(owners_count, downloaders)}")
        for key, count in stats.items():
            event(f"{key}={count > 0}")
        assert_bitwise(outcome, oracle)

    def test_seed_sweep_covers_every_case(self):
        """A fixed sweep of the same builder reaches every case the
        drawn states are meant to: owner-count ties, pools of 9+ owners
        and steps of 8+ channels (numpy's pairwise sum and a sequential
        sum part ways from 8 terms), partial drains, the old early exit,
        and channels with users but no downloaders or owners."""
        rng = np.random.default_rng(2011)
        seen = {"big_pool": 0, "partial_drain": 0, "early_exit": 0,
                "ties": 0, "eight_channels": 0, "idle_with_users": 0,
                "no_owners_with_users": 0}
        for i in range(400):
            state = build_state(
                rng, num_channels=int(rng.integers(1, 13)),
                num_chunks=int(rng.integers(2, 7)),
                max_users=int(rng.choice([12, 40])),
                upload_scale=SCALES[i % len(SCALES)],
                capacity_scale=float(rng.choice([0.0, 0.5 * R, 3.0 * R])),
            )
            downloaders, owners_count, _, _, bounds, _ = state
            assert_bitwise(
                P2PDelivery(R).allocate(*state),
                oracle_step(R, *state, stats=seen),
            )
            sizes = np.diff(bounds)
            seen["ties"] += has_ties(owners_count, downloaders)
            seen["eight_channels"] += downloaders.shape[0] >= 8
            seen["idle_with_users"] += bool(
                ((sizes > 0) & ~downloaders.any(axis=1)).any()
            )
            seen["no_owners_with_users"] += bool(
                ((sizes > 0) & ~owners_count.any(axis=1)).any()
            )
        assert all(count > 0 for count in seen.values()), seen

    def test_every_peer_drained_before_the_last_chunk(self):
        """The old early exit: the rarest chunk's owners are every peer
        and it drains them, so the later chunks' pools sum to 0.0."""
        upload = np.array([0.1, 0.2, 0.3]) * R
        owned = np.array([[True, True, True], [True, True, False],
                          [True, True, True]])
        state = (
            np.array([[4.0, 4.0, 4.0]]), owned.sum(axis=1)[None, :],
            owned, upload, np.array([0, 3]), np.full((1, 3), 0.5 * R),
        )
        stats = {"big_pool": 0, "partial_drain": 0, "early_exit": 0}
        oracle = oracle_step(R, *state, stats=stats)
        assert stats["early_exit"] == 1
        outcome = P2PDelivery(R).allocate(*state)
        assert_bitwise(outcome, oracle)
        assert outcome.peer_used == pytest.approx(upload.sum())


class TestKernelDifferential:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_every_step_matches_channel_loop(self, seed):
        """A P2P kernel run with holds, departures and lazy compaction:
        each step's one-call solve equals the old channel loop."""
        rng = np.random.default_rng(seed)
        num_channels, num_chunks = 5, 6
        sessions = [
            (float(t), int(rng.integers(0, num_channels)),
             int(rng.integers(0, num_chunks)),
             float(rng.choice([0.0, 0.05, 0.4, 1.5]) * R * rng.random()))
            for t in np.sort(rng.uniform(0.0, 3000.0, 700))
        ]
        sim = MultiChannelSimulator(
            make_uniform_channels(num_channels, num_chunks, 50_000.0, 300.0),
            trace_arrays(sessions),
            VoDSystemConfig(mode="p2p", dt=10.0, user_rate_cap=R, seed=seed),
        )
        for cid in range(num_channels):
            sim.set_cloud_capacity(
                cid, rng.uniform(0.0, 2.0, num_chunks) * R * (cid % 3)
            )
        solve = sim._solve_p2p
        checked = []

        def checked_solve(counts, rates_cj):
            oracle = oracle_solve_p2p(sim, counts)
            totals = solve(counts, rates_cj)
            assert rates_cj.tobytes() == oracle[0].tobytes()
            assert totals == oracle[1:]
            checked.append(counts.any(axis=1).sum())
            return totals

        sim._solve_p2p = checked_solve
        sim.advance_to(3600.0)
        assert len(checked) == 360
        assert max(checked) >= 3
        assert sim.bandwidth.peer_used.sum() > 0

"""Differential tests for the set-up path: stream keys, the trace merge,
the kernel's trace intake and capacity install, and the diurnal hour.

Each fast path is checked against the code it replaced, kept here as the
oracle:

* ``make_rng`` against the FNV-1a hash on ``numpy.uint64`` scalars;
* ``ShardTraceArrays.merge`` against concatenation in the given part
  order and ``np.lexsort((channels, times))``;
* the kernel adopting a trace that holds unknown channel ids against the
  same kernel over the trace filtered beforehand, stepped in lock-step;
* ``set_cloud_capacities`` against one ``set_cloud_capacity``-style
  install per channel (per-row validation, per-row ``.sum()``);
* ``DiurnalPattern.factors`` against its floor-remainder hour of day.

A guard checks that set-up derives every random stream once.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.rng as rng_module
import repro.workload.catalog as catalog_module
import repro.workload.trace as trace_module
from repro.api import EngineConfig, open_run
from repro.sim.rng import make_rng
from repro.vod.channel import ChannelSpec, make_uniform_channels
from repro.vod.delivery import sequential_sum
from repro.vod.multi import MultiChannelSimulator, VoDSystemConfig
from repro.workload.catalog import geo_catalog_config
from repro.workload.diurnal import _DAY_SECONDS, DiurnalPattern
from repro.workload.trace import ShardTraceArrays
from test_kernel_dtype_differential import (
    Int64ColumnKernel,
    assert_same_state,
    assert_same_stats,
    same_bits,
    system,
)


# ----------------------------------------------------------------------
# Stream keys
# ----------------------------------------------------------------------
def oracle_make_rng(seed, *names):
    """The FNV-1a stream key on ``numpy.uint64`` scalars."""
    label = "/".join(names)
    digest = np.uint64(14695981039346656037)
    prime = np.uint64(1099511628211)
    for byte in label.encode("utf-8"):
        digest = np.uint64((int(digest) ^ byte) * int(prime) % (1 << 64))
    return np.random.default_rng(
        np.random.SeedSequence([0 if seed is None else seed, int(digest)])
    )


@given(
    seed=st.one_of(st.none(), st.integers(0, 2**63 - 1)),
    names=st.lists(st.text(max_size=12), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_make_rng_matches_uint64_fnv(seed, names):
    mine = make_rng(seed, *names)
    theirs = oracle_make_rng(seed, *names)
    assert mine.bit_generator.state == theirs.bit_generator.state
    assert same_bits(mine.random(3), theirs.random(3))


@pytest.mark.parametrize("seed, names, first", [
    (2011, ("catalog", "trace", "channel-0"),
     [0.4100877287145218, 0.7496610910238688, 0.9665024035005927]),
    (0, (), [0.8442247702551761, 0.5064102002022474, 0.6356162577570982]),
    (7, ("workload", "arrivals"),
     [0.046362230905282575, 0.9964436062333825, 0.15906763451154848]),
    (2011, ("geo", "split", "channel-199"),
     [0.3126780941115268, 0.905104523511171, 0.2020505389451348]),
    (3, ("vidéo", "通道"),
     [0.9325399462669498, 0.42998317070250813, 0.6946067290423592]),
])
def test_make_rng_first_draws_pinned(seed, names, first):
    assert make_rng(seed, *names).random(3).tolist() == first


# ----------------------------------------------------------------------
# The trace merge
# ----------------------------------------------------------------------
def oracle_merge(parts):
    """Concatenate in the given part order, then ``lexsort``."""
    if parts:
        times = np.concatenate([np.asarray(t, dtype=float) for _, t, _, _ in parts])
        channels = np.concatenate([
            np.full(len(t), c, dtype=np.int64) for c, t, _, _ in parts
        ])
        starts = np.concatenate([np.asarray(s, dtype=np.int64) for _, _, s, _ in parts])
        uploads = np.concatenate([np.asarray(u, dtype=float) for _, _, _, u in parts])
    else:
        times, uploads = np.empty(0), np.empty(0)
        channels = np.empty(0, dtype=np.int64)
        starts = np.empty(0, dtype=np.int64)
    order = np.lexsort((channels, times))
    return times[order], channels[order], starts[order], uploads[order]


@st.composite
def merge_parts(draw):
    """Parts in any channel order (a channel may repeat), some empty,
    with times from a small grid so ties within and across channels
    are common."""
    parts = []
    for _ in range(draw(st.integers(0, 6))):
        channel = draw(st.integers(0, 5))
        size = draw(st.integers(0, 8))
        times = np.sort(np.array(
            draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]),
                          min_size=size, max_size=size)),
            dtype=float,
        ))
        starts = np.arange(size, dtype=np.int64) + 10 * len(parts)
        uploads = np.arange(size, dtype=float) + 0.25 + 100.0 * len(parts)
        parts.append((channel, times, starts, uploads))
    return parts


@given(parts=merge_parts())
@settings(max_examples=300, deadline=None)
def test_merge_matches_lexsort(parts):
    trace = ShardTraceArrays.merge(parts)
    got = (trace.times, trace.channels, trace.start_chunks,
           trace.upload_capacities)
    for mine, theirs in zip(got, oracle_merge(parts)):
        assert same_bits(mine, theirs)


def test_merge_orders_time_ties_by_channel_then_arrival():
    parts = [
        (4, np.array([1.0, 1.0]), np.array([0, 1]), np.array([40.0, 41.0])),
        (2, np.array([0.0, 1.0]), np.array([2, 3]), np.array([20.0, 21.0])),
        (3, np.empty(0), np.empty(0, dtype=np.int64), np.empty(0)),
    ]
    trace = ShardTraceArrays.merge(parts)
    assert trace.channels.tolist() == [2, 2, 4, 4]
    assert trace.upload_capacities.tolist() == [20.0, 21.0, 40.0, 41.0]
    assert trace.start_chunks.dtype == trace.channels.dtype == np.int64


# ----------------------------------------------------------------------
# The kernel adopts its trace
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["client-server", "p2p"])
@pytest.mark.parametrize("kept", [(0, 2, 3), (1, 3, 5), (5,)])
def test_kernel_over_unknown_ids_matches_prefiltered(kept, mode):
    """A trace holding other channels' sessions (ids in range, beyond
    the last channel, negative and far beyond any table) steps bitwise
    as the kernel over the trace filtered beforehand (the int64-column
    oracle of the dtype differential, which keeps its whole trace)."""
    spec = system(6, 5, 400, seed=sum(kept))
    trace = spec["trace"]
    channels = trace.channels.copy()
    channels[5::17] = -3
    channels[7::19] = 10**12
    channels[9::23] = 11
    trace = ShardTraceArrays(times=trace.times, channels=channels,
                             start_chunks=trace.start_chunks,
                             upload_capacities=trace.upload_capacities)
    known = np.isin(trace.channels, kept)
    filtered = ShardTraceArrays(
        times=trace.times[known], channels=trace.channels[known],
        start_chunks=trace.start_chunks[known],
        upload_capacities=trace.upload_capacities[known],
    )
    specs = [spec["channels"][c] for c in kept]
    config = VoDSystemConfig(mode=mode, dt=spec["dt"],
                             user_rate_cap=spec["user_cap"], seed=11)
    new = MultiChannelSimulator(specs, trace, config)
    old = Int64ColumnKernel(specs, filtered, config)
    assert 0 < filtered.num_sessions < trace.num_sessions
    assert new._trace_times.size == filtered.num_sessions
    for step in range(spec["steps"]):
        if step % spec["epoch"] == 0:
            cap = spec["capacities"][(step // spec["epoch"]) % 3]
            broadcast = {c: cap[c] for c in range(len(spec["channels"]))}
            for sim in (new, old):
                sim.set_cloud_capacities(broadcast)
            if step:
                assert_same_stats(new.close_interval(), old.close_interval())
        new.step()
        old.step()
        assert_same_state(new, old)
    assert new.arrivals > 0 and new.departures > 0


def test_sharded_trace_is_adopted_without_a_copy():
    channels = make_uniform_channels(3, 4, 100.0, 23.0)
    trace = ShardTraceArrays(
        times=np.array([0.0, 1.0, 2.0]),
        channels=np.array([2, 0, 1], dtype=np.int64),
        start_chunks=np.array([0, 3, 1], dtype=np.int64),
        upload_capacities=np.array([1.0, 2.0, 3.0]),
    )
    sim = MultiChannelSimulator(channels, trace, VoDSystemConfig(dt=1.0))
    assert sim._trace_times is trace.times
    assert sim._trace_upload is trace.upload_capacities
    assert sim._trace_channel.tolist() == [2, 0, 1]
    assert sim._trace_channel.dtype == np.uint8
    assert sim._trace_start.dtype == np.uint8


# ----------------------------------------------------------------------
# One capacity install
# ----------------------------------------------------------------------
def oracle_install(capacity, sums, ids, capacities):
    """One channel at a time, as the per-channel install did."""
    for local, cid in enumerate(ids):
        if cid in capacities:
            row = np.asarray(capacities[cid], dtype=float)
            capacity[local] = row
            sums[local] = row.sum()
    return sequential_sum(sums.tolist())


@given(
    data=st.data(),
    C=st.integers(1, 12),
    J=st.integers(1, 12),
)
@settings(max_examples=100, deadline=None)
def test_set_cloud_capacities_matches_per_channel_install(data, C, J):
    channels = make_uniform_channels(C + 2, J, 100.0, 23.0)[1:-1]
    ids = [ch.channel_id for ch in channels]
    sim = MultiChannelSimulator(channels, ShardTraceArrays.merge([]),
                                VoDSystemConfig(dt=1.0))
    capacity, sums = np.zeros((C, J)), np.zeros(C)
    values = st.floats(0.0, 1e9, allow_nan=False)
    for _ in range(3):
        named = data.draw(st.sets(st.integers(0, C + 1)))
        broadcast = {
            cid: np.array(data.draw(st.lists(values, min_size=J, max_size=J)))
            for cid in named
        }
        sim.set_cloud_capacities(broadcast)
        total = oracle_install(capacity, sums, ids, broadcast)
        assert same_bits(sim._capacity, capacity)
        assert float(sim.total_provisioned()).hex() == float(total).hex()


@pytest.mark.parametrize("bad, message", [
    (np.zeros(3), "entries"),
    (np.array([1.0, -1.0, 0.0, 0.0]), "nonnegative"),
    (np.array([1.0, np.nan, 0.0, 0.0]), "finite"),
    (np.array([1.0, np.inf, 0.0, 0.0]), "finite"),
])
def test_set_cloud_capacities_rejects_and_installs_nothing(bad, message):
    sim = MultiChannelSimulator(make_uniform_channels(3, 4, 100.0, 23.0),
                                ShardTraceArrays.merge([]),
                                VoDSystemConfig(dt=1.0))
    sim.set_cloud_capacities({c: np.full(4, 2.0) for c in range(3)})
    with pytest.raises(ValueError, match=message):
        sim.set_cloud_capacities({0: np.full(4, 5.0), 2: bad})
    assert sim._capacity.tolist() == [[2.0] * 4] * 3
    assert sim.total_provisioned() == 24.0
    with pytest.raises(KeyError):
        sim.set_cloud_capacity(3, np.zeros(4))
    # Unnamed channels keep their capacity; other ids are ignored.
    sim.set_cloud_capacities({1: np.full(4, 1.0), 7: np.zeros(2)})
    assert sim._capacity.tolist() == [[2.0] * 4, [1.0] * 4, [2.0] * 4]
    assert sim.total_provisioned() == 20.0


# ----------------------------------------------------------------------
# Uniform channels, the diurnal hour
# ----------------------------------------------------------------------
def test_uniform_channels_equal_constructed_specs():
    behaviour = np.full((3, 3), 0.2)
    made = make_uniform_channels(4, 3, 100.0, 23.0, behaviour=behaviour)
    for c, spec in enumerate(made):
        built = ChannelSpec(c, 3, 100.0, 23.0, behaviour, name=f"channel-{c}")
        assert (spec.channel_id, spec.name, spec.num_chunks,
                spec.streaming_rate, spec.chunk_duration) == (
            built.channel_id, built.name, built.num_chunks,
            built.streaming_rate, built.chunk_duration)
        assert spec.behaviour is behaviour
    with pytest.raises(ValueError):
        make_uniform_channels(2, 3, 100.0, 23.0,
                              behaviour=np.full((3, 3), 0.5))
    assert make_uniform_channels(0, 3, 100.0, 23.0) == []


day_multiples = st.integers(-9, 9).map(lambda k: k * _DAY_SECONDS)
times_seconds = st.one_of(
    st.floats(-30 * _DAY_SECONDS, 30 * _DAY_SECONDS),
    day_multiples,
    st.tuples(day_multiples, st.sampled_from([-1e-9, -0.0, 0.0, 1e-9])).map(
        lambda pair: pair[0] + pair[1]
    ),
)


@given(times=st.lists(times_seconds, max_size=40))
@settings(max_examples=200, deadline=None)
def test_diurnal_factors_match_floor_remainder_hours(times):
    pattern = DiurnalPattern()
    t = np.array(times, dtype=float)
    expected = pattern._raw((t % _DAY_SECONDS) / 3600.0) / pattern._norm
    assert same_bits(pattern.factors(t), expected)


# ----------------------------------------------------------------------
# Set-up derives every stream once
# ----------------------------------------------------------------------
def test_setup_constructs_no_stream_twice(monkeypatch):
    built = Counter()
    original = rng_module.make_rng

    def counting(seed, *names):
        built[seed, "/".join(names)] += 1
        return original(seed, *names)

    for module in (rng_module, catalog_module, trace_module):
        monkeypatch.setattr(module, "make_rng", counting)
    # A seed no other test uses, so no table is cached from before.
    config = geo_catalog_config(
        seed=90_417, num_channels=5, chunks_per_channel=3,
        horizon_hours=0.25, arrival_rate=0.5, num_shards=3, dt=60.0,
        interval_minutes=5.0,
    )
    run = open_run(EngineConfig(spec=config, workers=1))
    try:
        run._engine.start()
        run._engine._start()
    finally:
        run.close()
    splits = [key for key in built if key[1].startswith("geo/split/")]
    assert len(splits) == config.num_channels
    assert max(built.values()) == 1, [k for k, n in built.items() if n > 1]

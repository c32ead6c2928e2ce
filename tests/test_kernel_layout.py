"""The kernel's memory layout: bytes per row-table row, a trace held
only from the admission cursor on, and a pickle holding only live rows.

:class:`~repro.vod.multi.MultiChannelSimulator` keeps one row per
admitted session and the sessions it has not admitted yet.  These tests
pin what a row costs in each delivery mode, so a column cannot widen
unnoticed, that neither a finished kernel nor a pickled one carries
the consumed part of its trace, and that a pickled kernel carries no
dead row and no unused tail.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.vod.channel import make_uniform_channels
from repro.vod.multi import MultiChannelSimulator, VoDSystemConfig
from repro.workload.trace import ShardTraceArrays

TRACE_COLUMNS = ("_trace_times", "_trace_channel", "_trace_start",
                 "_trace_upload")


def kernel(mode: str, C: int = 75, J: int = 12, sessions: int = 1500,
           horizon: float = 3600.0, seed: int = 3):
    """``C`` channels of ``J`` chunks (75 x 12 is a geo-replan shard:
    uint8 channel ids, uint16 cells), sequential viewing with some
    departures, and sessions spread over the first 90% of ``horizon``."""
    rng = np.random.default_rng(seed)
    behaviour = 0.8 * np.eye(J, k=1)
    channels = make_uniform_channels(C, J, 50_000.0, 300.0,
                                     behaviour=behaviour)
    trace = ShardTraceArrays(
        times=np.sort(rng.uniform(0.0, 0.9 * horizon, sessions)),
        channels=rng.integers(0, C, sessions),
        start_chunks=rng.integers(0, J, sessions),
        upload_capacities=rng.uniform(0.0, 2e5, sessions),
    )
    sim = MultiChannelSimulator(
        channels, trace,
        VoDSystemConfig(mode=mode, dt=30.0, user_rate_cap=1.25e6, seed=5),
        interval_seconds=600.0,
    )
    for channel in channels:
        sim.set_cloud_capacity(channel.channel_id, np.full(J, 2e6))
    return sim, trace


def row_bytes(sim) -> float:
    """Bytes per row over every row-table column (every ``_row_*``
    array of the kernel; each spans the table's capacity)."""
    capacity = sim._row_alive.size
    total = 0
    for name, value in vars(sim).items():
        if name.startswith("_row_") and isinstance(value, np.ndarray):
            assert value.shape[-1] == capacity, name
            total += value.nbytes
    return total / capacity


@pytest.mark.parametrize("mode,per_row", [
    ("client-server", 38),
    # The upload column, plus one ownership byte per chunk.
    ("p2p", 46 + 12),
])
def test_row_table_bytes_per_row(mode, per_row):
    """Channel uint8 (1) + cell uint16 (2) + received, enter, unsmooth
    and hold-until float64 (32) + hold next/from int8 (2) + alive (1) =
    38 B; P2P adds the float64 upload column (8) and the ownership
    matrix."""
    sim, _ = kernel(mode)
    assert sim._row_chan.dtype == np.uint8
    assert sim._row_cell.dtype == np.uint16
    assert row_bytes(sim) == per_row
    sim.advance_to(1800.0)  # the table grew; its layout did not
    assert sim._row_alive.size > 256
    assert row_bytes(sim) == per_row


@pytest.mark.parametrize("mode", ["client-server", "p2p"])
def test_no_trace_rows_after_the_final_close(mode):
    sim, trace = kernel(mode)
    held = []
    for t_end in np.arange(600.0, 3601.0, 600.0):
        sim.advance_to(t_end)
        sim.close_interval()
        held.append(sim._trace_times.size - sim._cursor)
        assert held[-1] == np.count_nonzero(trace.times > sim.now)
    assert sim.arrivals == trace.times.size
    for name in TRACE_COLUMNS:
        assert getattr(sim, name).size == 0, name
    assert sim._cursor == 0


@pytest.mark.parametrize("mode", ["client-server", "p2p"])
def test_pickled_kernel_holds_only_its_unconsumed_trace(mode):
    sim, trace = kernel(mode)
    sim.advance_to(1230.0)  # mid-interval: the prefix is still held
    cursor = sim._cursor
    assert 0 < cursor < trace.times.size
    assert sim._trace_times.size == trace.times.size
    copy = pickle.loads(pickle.dumps(sim, pickle.HIGHEST_PROTOCOL))
    assert copy._cursor == 0
    for name in TRACE_COLUMNS:
        suffix = getattr(sim, name)[cursor:]
        assert getattr(copy, name).tobytes() == suffix.tobytes(), name
        assert getattr(copy, name).dtype == suffix.dtype, name
    # Pickling did not touch the live kernel, and the copy runs on
    # exactly as the original does.
    assert sim._cursor == cursor
    assert sim._trace_times.size == trace.times.size
    for k in (sim, copy):
        k.advance_to(1800.0)
        k.close_interval()
        k.advance_to(3600.0)
    assert copy.bandwidth._data.tobytes() == sim.bandwidth._data.tobytes()
    assert copy.quality.samples == sim.quality.samples
    assert copy.arrivals == sim.arrivals == trace.times.size
    assert copy.departures == sim.departures
    assert copy.peer_upload_totals() == sim.peer_upload_totals()


def row_columns(sim):
    """Every row-table column of the kernel, by name."""
    return {
        name: value for name, value in vars(sim).items()
        if name.startswith("_row_") and isinstance(value, np.ndarray)
    }


def interval_bytes(stats):
    return [
        (s.channel_id, s.arrivals, s.transition_counts.tobytes(),
         s.departure_counts.tobytes(), s.upload_capacity_sum,
         s.upload_capacity_samples, s.start_chunk_counts.tobytes())
        for s in stats
    ]


@pytest.mark.parametrize("mode", ["client-server", "p2p"])
def test_pickled_kernel_holds_only_its_live_rows(mode):
    sim, trace = kernel(mode)
    # Step until departures have left dead rows awaiting compaction.
    while not (sim._stale and sim._n > sim._total_active):
        sim.step()
    n, live = sim._n, sim._total_active
    alive = sim._row_alive[:n].copy()
    before = {name: col.copy() for name, col in row_columns(sim).items()}
    copy = pickle.loads(pickle.dumps(sim, pickle.HIGHEST_PROTOCOL))
    assert copy._n == live and not copy._stale
    columns = row_columns(copy)
    assert set(columns) == set(before)
    for name, col in columns.items():
        # Exactly the live rows, in admission order: no dead row and no
        # unused tail.
        assert col.shape[-1] == live, name
        assert col.tobytes() == before[name][..., :n][..., alive].tobytes()
    # Pickling did not touch the live kernel.
    assert sim._n == n and sim._stale
    for name, col in row_columns(sim).items():
        assert col.tobytes() == before[name].tobytes(), name
    # The copy steps bitwise in lock-step with the original to the end,
    # through the interval boundaries the engine cuts.
    boundaries = 0
    while sim.now + 1e-9 < 3600.0:
        for k in (sim, copy):
            k.step()
        assert copy.now == sim.now
        assert copy.population() == sim.population()
        assert copy.bandwidth._data.tobytes() == sim.bandwidth._data.tobytes()
        assert copy.quality.samples == sim.quality.samples
        assert copy.quality.sojourn_sum == sim.quality.sojourn_sum
        if sim.now % 600.0 < 1e-9:
            boundaries += 1
            assert copy.peer_upload_totals() == sim.peer_upload_totals()
            assert interval_bytes(copy.close_interval()) == \
                interval_bytes(sim.close_interval())
    assert boundaries >= 4
    assert copy.arrivals == sim.arrivals == trace.times.size
    assert copy.departures == sim.departures
    assert copy.channel_populations() == sim.channel_populations()

"""Differential tests at the kernel's dtype edges: narrow columns against
int64 ones, and a dropped trace prefix against a kept one.

The kernel stores its trace channel and its row channel in the smallest
unsigned dtype that holds every local channel id, its row cell in the
smallest that holds the spill cell ``C * J``, its trace start chunk in
the smallest that holds ``J - 1``, and a held row's next and finished
chunk in the smallest signed dtype that holds ``-J``.  Under numpy 2's
promotion rules ``uint8 * J`` stays ``uint8`` and wraps, so every read
that feeds ``* J`` arithmetic must widen first.  It also drops the
consumed trace prefix at an interval close, and compacts its row table
before growing it.

The oracle :class:`Int64ColumnKernel` is the same kernel with those six
columns in int64, as they were stored before, and with its whole trace
kept.  Both step in lock-step in both delivery modes, on systems sized
to cross each dtype edge, with intervals closed mid-run, and every
observable must agree bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.vod.channel import make_uniform_channels
from repro.vod.multi import MultiChannelSimulator, VoDSystemConfig
from repro.workload.trace import ShardTraceArrays

HOLD_COLUMNS = ("_row_hold_next", "_row_hold_from")
#: The row columns the kernel stores narrow and the oracle as int64.
NARROW_ROW_COLUMNS = ("_row_chan", "_row_cell", *HOLD_COLUMNS)
TRACE_COLUMNS = ("_trace_times", "_trace_channel", "_trace_start",
                 "_trace_upload")


class Int64ColumnKernel(MultiChannelSimulator):
    """The kernel with its trace and narrow row columns stored as int64,
    and its whole trace kept for the whole run."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._trace_channel = self._trace_channel.astype(np.int64)
        self._trace_start = self._trace_start.astype(np.int64)
        for name in NARROW_ROW_COLUMNS:
            setattr(self, name, getattr(self, name).astype(np.int64))

    def close_interval(self):
        kept = [getattr(self, name) for name in TRACE_COLUMNS], self._cursor
        out = super().close_interval()
        columns, self._cursor = kept
        for name, column in zip(TRACE_COLUMNS, columns):
            setattr(self, name, column)
        return out


def spy_compact_before_grow(sim) -> list:
    """Record the table size at each compaction of a stale table that
    runs inside an admission of ``sim``: compact before growing.  The
    step's own check and the forced compactions run before admission
    and are not recorded."""
    inside = []
    admit, compact = sim._admit_arrivals, sim._compact
    admitting = []

    def admit_spy():
        admitting.append(True)
        try:
            return admit()
        finally:
            admitting.pop()

    def compact_spy():
        if admitting and sim._stale:
            inside.append(sim._n)
        return compact()

    sim._admit_arrivals = admit_spy
    sim._compact = compact_spy
    return inside


def same_bits(a, b) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


def assert_same_state(new, old) -> None:
    assert same_bits(new.bandwidth._data[: len(new.bandwidth)],
                     old.bandwidth._data[: len(old.bandwidth)])
    q_new, q_old = new.quality, old.quality
    assert q_new.total_retrievals == q_old.total_retrievals
    assert q_new.unsmooth_retrievals == q_old.unsmooth_retrievals
    assert float(q_new.sojourn_sum).hex() == float(q_old.sojourn_sum).hex()
    assert q_new.samples == q_old.samples
    for name in ("arrivals", "departures", "steps", "peak_step_events",
                 "_total_active", "_hold_count", "_n", "_stale"):
        assert getattr(new, name) == getattr(old, name), name
    # The unconsumed trace is the same, wherever each kernel cut it.
    for name in TRACE_COLUMNS:
        mine = getattr(new, name)[new._cursor:]
        theirs = getattr(old, name)[old._cursor:]
        if mine.dtype.kind == "u":
            mine = mine.astype(np.int64)
        assert same_bits(mine, theirs), name
    # ``_iv_transitions`` ((C, J, J), 40 MB at 300 x 130) is compared
    # through the interval statistics at every close instead.
    for name in ("_chan_count", "_counts", "_iv_arrivals", "_iv_departures",
                 "_iv_starts", "_iv_upload_samples"):
        assert same_bits(getattr(new, name), getattr(old, name)), name
    assert [float(v).hex() for v in new._iv_upload_sum] == [
        float(v).hex() for v in old._iv_upload_sum
    ]
    n = new._n
    for name in MultiChannelSimulator._ROW_ARRAYS:
        mine = getattr(new, name)[:n]
        if name in NARROW_ROW_COLUMNS:
            mine = mine.astype(np.int64)
        assert same_bits(mine, getattr(old, name)[:n]), name
    if new._owners is not None:
        assert same_bits(new._row_upload[:n], old._row_upload[:n])
        assert same_bits(new._owners, old._owners)
        assert same_bits(new._row_owned[:, :n], old._row_owned[:, :n])


def assert_same_stats(new_stats, old_stats) -> None:
    assert len(new_stats) == len(old_stats)
    for a, b in zip(new_stats, old_stats):
        assert a.channel_id == b.channel_id
        assert a.arrivals == b.arrivals
        assert a.upload_capacity_samples == b.upload_capacity_samples
        assert float(a.upload_capacity_sum).hex() == \
            float(b.upload_capacity_sum).hex()
        for name in ("transition_counts", "departure_counts",
                     "start_chunk_counts"):
            assert same_bits(getattr(a, name), getattr(b, name)), name


def system(C: int, J: int, sessions: int, seed: int):
    """``C`` channels of ``J`` chunks: mostly sequential viewing with VCR
    jumps and departures from every chunk, and sessions spread over
    every channel and start chunk (the top ids included)."""
    rng = np.random.default_rng(seed)
    behaviour = np.zeros((J, J))
    for j in range(J):
        jump = rng.integers(0, J)
        behaviour[j, jump] += 0.15
        if j + 1 < J:
            behaviour[j, j + 1] += 0.7
    channels = make_uniform_channels(C, J, 100.0, 23.0, behaviour=behaviour)
    dt = 7.3
    user_cap = channels[0].chunk_size_bytes / 7.0
    steps = 40
    times = np.sort(rng.uniform(0.0, steps * dt * 0.8, sessions))
    chans = rng.integers(0, C, sessions)
    starts = rng.integers(0, J, sessions)
    # The top channel and chunk ids, and the largest cells, surely occur.
    chans[:4] = [C - 1, C - 1, 0, C - 2]
    starts[:4] = [J - 1, 0, J - 1, J - 2]
    uploads = rng.choice([0.0, 0.3, 1.0, 2.5], sessions) * user_cap
    trace = ShardTraceArrays(
        times=times, channels=chans.astype(np.int64),
        start_chunks=starts.astype(np.int64), upload_capacities=uploads,
    )
    shares = np.array([0.0, 0.4, 1.0, 2.5])
    capacities = [
        rng.choice(shares, (C, J)) * user_cap for _ in range(3)
    ]
    return dict(channels=channels, trace=trace, dt=dt, user_cap=user_cap,
                steps=steps, capacities=capacities, epoch=12,
                compact_at={9, 25})


def run_lockstep(spec, mode):
    """Step both kernels in lock-step; returns the narrow kernel, the
    oracle, and the table size at each compaction inside an admission."""
    config = VoDSystemConfig(mode=mode, dt=spec["dt"],
                             user_rate_cap=spec["user_cap"], seed=11)
    channels = spec["channels"]
    new = MultiChannelSimulator(channels, spec["trace"], config)
    old = Int64ColumnKernel(channels, spec["trace"], config)
    compacted_in_admission = spy_compact_before_grow(new)
    for step in range(spec["steps"]):
        if step % spec["epoch"] == 0:
            k = step // spec["epoch"]
            cap = spec["capacities"][k % len(spec["capacities"])]
            for sim in (new, old):
                for local, channel in enumerate(channels):
                    sim.set_cloud_capacity(channel.channel_id, cap[local])
            if step:
                assert_same_stats(new.close_interval(), old.close_interval())
        if step in spec["compact_at"]:
            assert new._compact() == old._compact()
        new.step()
        old.step()
        assert_same_state(new, old)
    assert_same_stats(new.close_interval(), old.close_interval())
    assert same_bits(new.peer_upload_totals(), old.peer_upload_totals())
    return new, old, compacted_in_admission


EDGES = {
    # 300 channels need uint16 ids, and 130 chunks an int16 hold column;
    # the largest cells (local * J + chunk) pass 32,767.
    "uint16-int16": (300, 130, 3000, np.uint16, np.uint16, np.uint8,
                     np.int16),
    # uint8 ids and int8 hold columns, with cells past 255: a local
    # channel left uint8 wraps in ``* J``.
    "uint8-int8": (20, 20, 600, np.uint8, np.uint16, np.uint8, np.int8),
    # The cell edge: a spill cell of 255 still fits uint8, one of 256
    # does not.
    "cells-255": (15, 17, 600, np.uint8, np.uint8, np.uint8, np.int8),
    "cells-256": (16, 16, 600, np.uint8, np.uint16, np.uint8, np.int8),
    # The channel edge: 256 channels keep uint8 ids, 257 need uint16.
    "channels-256": (256, 2, 1200, np.uint8, np.uint16, np.uint8, np.int8),
    "channels-257": (257, 2, 1200, np.uint16, np.uint16, np.uint8, np.int8),
    # Cells past 65,535 need uint32; a uint16 channel wraps in ``* J``.
    "cells-65600": (8200, 8, 3000, np.uint16, np.uint32, np.uint8, np.int8),
}


@pytest.mark.parametrize("mode", ["client-server", "p2p"])
@pytest.mark.parametrize("edge", list(EDGES))
def test_narrow_columns_match_int64_columns(edge, mode):
    C, J, sessions, chan_dtype, cell_dtype, start_dtype, hold_dtype = \
        EDGES[edge]
    spec = system(C, J, sessions, seed=C)
    assert (C - 1) * J + J - 1 > np.iinfo(hold_dtype).max
    sim, oracle, compacted_in_admission = run_lockstep(spec, mode)
    assert sim._trace_channel.dtype == chan_dtype
    assert sim._trace_start.dtype == start_dtype
    assert sim._row_chan.dtype == chan_dtype
    assert sim._row_cell.dtype == cell_dtype
    for name in HOLD_COLUMNS:
        assert getattr(sim, name).dtype == hold_dtype
    assert (sim._row_upload is None) == (mode == "client-server")
    # The run crossed every path the narrow columns feed.
    assert sim.departures > 0
    assert sim.quality.total_retrievals > sim.quality.unsmooth_retrievals
    assert sim.quality.unsmooth_retrievals > 0
    # A trace prefix was dropped, and dead rows were squeezed out of a
    # full table before it grew.
    assert sim._trace_times.size < oracle._trace_times.size
    assert compacted_in_admission


def two_session_kernel(C: int, J: int) -> MultiChannelSimulator:
    """``C`` channels of ``J`` chunks, with one session on the first
    channel and chunk and one on the last."""
    behaviour = np.zeros((J, J))
    channels = make_uniform_channels(C, J, 100.0, 23.0, behaviour=behaviour)
    trace = ShardTraceArrays(
        times=np.array([0.0, 1.0]),
        channels=np.array([0, C - 1], dtype=np.int64),
        start_chunks=np.array([0, J - 1], dtype=np.int64),
        upload_capacities=np.zeros(2),
    )
    return MultiChannelSimulator(channels, trace, VoDSystemConfig())


@pytest.mark.parametrize("C,J,chan_dtype,start_dtype,hold_dtype", [
    (1, 1, np.uint8, np.uint8, np.int8),
    (12, 5, np.uint8, np.uint8, np.int8),
    (256, 2, np.uint8, np.uint8, np.int8),
    (257, 2, np.uint16, np.uint8, np.int8),
    (2, 128, np.uint8, np.uint8, np.int8),
    (2, 129, np.uint8, np.uint8, np.int16),
    (2, 256, np.uint8, np.uint8, np.int16),
    (2, 257, np.uint8, np.uint16, np.int16),
])
def test_column_dtypes(C, J, chan_dtype, start_dtype, hold_dtype):
    """The narrowest dtype that holds each column's values, at and just
    past each edge."""
    sim = two_session_kernel(C, J)
    assert sim._trace_channel.dtype == chan_dtype
    assert sim._trace_start.dtype == start_dtype
    assert sim._trace_channel.tolist() == [0, C - 1]
    assert sim._trace_start.tolist() == [0, J - 1]
    for name in HOLD_COLUMNS:
        column = getattr(sim, name)
        assert column.dtype == hold_dtype
        assert np.iinfo(column.dtype).min <= -J


@pytest.mark.parametrize("C,J,chan_dtype,cell_dtype", [
    (1, 1, np.uint8, np.uint8),
    (15, 17, np.uint8, np.uint8),      # spill cell 255
    (16, 16, np.uint8, np.uint16),     # spill cell 256
    (256, 2, np.uint8, np.uint16),
    (257, 2, np.uint16, np.uint16),
    (4369, 15, np.uint16, np.uint16),  # spill cell 65,535
    (8192, 8, np.uint16, np.uint32),   # spill cell 65,536
])
def test_row_column_dtypes(C, J, chan_dtype, cell_dtype):
    """The row channel takes the channel sort dtype and the row cell the
    narrowest unsigned dtype that holds the spill cell ``C * J``, at and
    just past each edge."""
    sim = two_session_kernel(C, J)
    assert sim._row_chan.dtype == chan_dtype == sim._trace_channel.dtype
    assert sim._row_cell.dtype == cell_dtype
    assert sim._spill == C * J <= np.iinfo(cell_dtype).max
    sim.step()
    assert sim._row_chan[:2].tolist() == [0, C - 1]
    assert sim._row_cell[:2].tolist() == [0, C * J - 1]

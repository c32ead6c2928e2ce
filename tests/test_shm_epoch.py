"""The epoch block transport (repro.sim.shard.EpochBlockLayout).

The sharded engine's data path ships every epoch's per-shard report as
one fixed-layout block of raw numbers over the worker's pipe instead of
pickling it.  The transport sits *outside* the determinism contract —
every value must round-trip bit-exactly — and it must be crash-proof:
no worker may outlive its parent, even one blocked mid-send.

These tests pin the round-trip down property-style over the block
layout, check that the merge over block-backed reports is independent
of the order workers wrote their blocks, kill a live worker mid-run to
assert the engine raises :class:`ShardEngineError`, and kill the parent
while its workers are blocked sending to assert they still exit.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.shard import (
    ChannelShard,
    EpochBlockLayout,
    EpochReport,
    ShardedSimulator,
    ShardEngineError,
    merge_epoch_reports,
    report_from_views,
    report_to_views,
)
from repro.vod.tracker import IntervalStats
from repro.workload.catalog import catalog_config


def small_config(**overrides):
    params = dict(
        num_channels=8,
        chunks_per_channel=4,
        horizon_hours=0.5,
        arrival_rate=0.5,
        num_shards=4,
        dt=60.0,
        interval_minutes=10.0,
    )
    params.update(overrides)
    return catalog_config(**params)


# ----------------------------------------------------------------------
# Round-trip: report -> block -> report, bit for bit
# ----------------------------------------------------------------------

# Bounded so that the merge's sum over up to 8 shards stays finite.
finite = st.floats(min_value=-1e300, max_value=1e300, width=64)
counts = st.integers(min_value=0, max_value=10_000)


def _synthetic_report(data, layout, shard_index):
    """One hypothesis-drawn EpochReport that fits the shard's block."""
    owned = layout.owned_ids[shard_index]
    chunks = layout.chunks
    n = data.draw(st.integers(0, layout.max_steps), label="n_steps")
    nq = data.draw(st.integers(0, layout.max_quality), label="n_quality")
    series = st.lists(finite, min_size=n, max_size=n)

    def arr(label):
        return np.asarray(data.draw(series, label=label), dtype=np.float64)

    stats = [
        IntervalStats(
            channel_id=int(cid),
            interval_seconds=layout.interval_seconds,
            arrivals=data.draw(counts),
            transition_counts=np.asarray(
                data.draw(st.lists(finite, min_size=chunks * chunks,
                                   max_size=chunks * chunks))
            ).reshape(chunks, chunks),
            departure_counts=np.asarray(
                data.draw(st.lists(finite, min_size=chunks, max_size=chunks))
            ),
            upload_capacity_sum=data.draw(finite),
            upload_capacity_samples=data.draw(counts),
            start_chunk_counts=np.asarray(
                data.draw(st.lists(finite, min_size=chunks, max_size=chunks))
            ),
        )
        for cid in owned
    ]
    return EpochReport(
        shard_index=shard_index,
        t_end=data.draw(finite, label="t_end"),
        stats=stats,
        step_times=arr("step_times"),
        cloud_used=arr("cloud_used"),
        peer_used=arr("peer_used"),
        provisioned=arr("provisioned"),
        shortfall=arr("shortfall"),
        populations=np.asarray(
            data.draw(st.lists(counts, min_size=n, max_size=n)),
            dtype=np.int64,
        ),
        quality_samples=[
            (data.draw(finite), data.draw(counts), data.draw(counts))
            for _ in range(nq)
        ],
        arrivals=data.draw(counts),
        departures=data.draw(counts),
        retrievals=data.draw(counts),
        unsmooth=data.draw(counts),
        sojourn_sum=data.draw(finite),
        upload_sum=data.draw(finite),
        upload_count=data.draw(counts),
        peak_step_events=data.draw(counts),
        channel_populations={int(cid): data.draw(counts) for cid in owned},
    )


def assert_reports_identical(a: EpochReport, b: EpochReport) -> None:
    assert a.shard_index == b.shard_index
    assert a.t_end == b.t_end
    for name in ("step_times", "cloud_used", "peer_used", "provisioned",
                 "shortfall", "populations"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.quality_samples == b.quality_samples
    for sa, sb in zip(a.stats, b.stats):
        assert sa.channel_id == sb.channel_id
        assert sa.arrivals == sb.arrivals
        assert sa.transition_counts.tobytes() == sb.transition_counts.tobytes()
        assert sa.departure_counts.tobytes() == sb.departure_counts.tobytes()
        assert sa.start_chunk_counts.tobytes() == \
            sb.start_chunk_counts.tobytes()
        assert sa.upload_capacity_sum == sb.upload_capacity_sum
        assert sa.upload_capacity_samples == sb.upload_capacity_samples
    for name in ("arrivals", "departures", "retrievals", "unsmooth",
                 "sojourn_sum", "upload_sum", "upload_count",
                 "peak_step_events", "channel_populations"):
        assert getattr(a, name) == getattr(b, name), name


class TestBlockRoundTrip:
    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_round_trip_is_bit_exact(self, data):
        """Arbitrary finite payloads survive the block unchanged."""
        config = small_config()
        layout = EpochBlockLayout(config)
        shard_index = data.draw(
            st.integers(0, layout.num_shards - 1), label="shard"
        )
        report = _synthetic_report(data, layout, shard_index)
        # Encode on the sending side, ship the raw block bytes, decode
        # from the receiving side's own buffer.
        sent = bytearray(layout.total_size)
        report_to_views(
            layout.views(sent, shard_index), report,
            layout.owned_ids[shard_index], 0.0,
        )
        received = bytearray(layout.total_size)
        offset = layout.block_offsets[shard_index]
        end = offset + layout.block_sizes[shard_index]
        received[offset:end] = sent[offset:end]
        back = report_from_views(
            layout.views(received, shard_index), shard_index,
            layout.owned_ids[shard_index], layout.interval_seconds,
        )
        assert_reports_identical(report, back)

    @settings(deadline=None, max_examples=10)
    @given(data=st.data())
    def test_merge_independent_of_block_write_order(self, data):
        """Writing shard blocks in any order, the shard-index read-back
        merge reduces in the same fixed order — byte-identical floats."""
        config = small_config()
        layout = EpochBlockLayout(config)
        steps = data.draw(st.integers(1, layout.max_steps))
        step_times = np.arange(1, steps + 1) * float(config.dt)

        def consistent_report(shard_index):
            report = _synthetic_report(data, layout, shard_index)
            report.step_times = step_times.copy()
            for name in ("cloud_used", "peer_used", "provisioned",
                         "shortfall"):
                setattr(report, name, np.resize(getattr(report, name), steps))
            report.populations = np.resize(report.populations, steps)
            report.quality_samples = []  # lock-step requires equal counts
            return report

        reports = [consistent_report(i) for i in range(layout.num_shards)]
        order = data.draw(st.permutations(list(range(layout.num_shards))))
        merged = []
        for _ in range(2):
            blocks = bytearray(layout.total_size)
            for i in order:
                report_to_views(
                    layout.views(blocks, i), reports[i],
                    layout.owned_ids[i], 0.0,
                )
            back = [
                report_from_views(
                    layout.views(blocks, i), i,
                    layout.owned_ids[i], layout.interval_seconds,
                )
                for i in range(layout.num_shards)
            ]
            merged.append(merge_epoch_reports(back))
            order = sorted(order)  # second pass: canonical write order
        a, b = merged
        for name in ("cloud_used", "peer_used", "provisioned", "shortfall",
                     "populations"):
            assert getattr(a, name).tobytes() == \
                getattr(b, name).tobytes(), name
        assert a.sojourn_sum == b.sojourn_sum
        assert a.upload_sum == b.upload_sum
        assert a.channel_populations == b.channel_populations


class TestLayout:
    def test_layout_is_deterministic(self):
        """Parent and worker derive identical offsets from the config."""
        config = small_config()
        a, b = EpochBlockLayout(config), EpochBlockLayout(config)
        assert a.block_offsets == b.block_offsets
        assert a.block_sizes == b.block_sizes
        assert a.total_size == b.total_size
        assert a.owned_ids == b.owned_ids

    def test_blocks_do_not_overlap(self):
        layout = EpochBlockLayout(small_config())
        end = 0
        for offset, size in zip(layout.block_offsets, layout.block_sizes):
            assert offset == end
            end = offset + size
        assert end == layout.total_size

    def test_real_epoch_fits_the_block(self):
        """A real shard's epoch never exceeds the sized prefixes."""
        config = small_config()
        layout = EpochBlockLayout(config)
        shard = ChannelShard(config, 0)
        report = shard.advance_epoch(config.interval_seconds)
        assert report.step_times.size <= layout.max_steps
        assert len(report.quality_samples) <= layout.max_quality


# ----------------------------------------------------------------------
# Lifecycle: idempotent teardown, no orphans on worker or parent death
# ----------------------------------------------------------------------

def _alive(pid):
    """Whether ``pid`` still runs (an unreaped zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


# Builds a 2-worker engine whose blocks (~356 KB per shard) exceed the
# socket buffer, sends one epoch without reading the replies, prints
# the worker pids and SIGKILLs itself: both workers are then blocked
# in a send to a parent that no longer exists.
_DIE_MID_SEND = """
import os, signal
from repro.sim.shard import EpochBlockLayout, ShardedSimulator
from repro.workload.catalog import catalog_config

config = catalog_config(
    num_channels=200, chunks_per_channel=20, horizon_hours=0.5,
    arrival_rate=0.05, num_shards=2, dt=60.0, interval_minutes=10.0,
)
assert min(EpochBlockLayout(config).block_sizes) > 300_000
engine = ShardedSimulator(config, jobs=2)
engine._start()
for conn in engine._conns:
    conn.send(("epoch", config.interval_seconds, {}))
print(" ".join(str(worker.pid) for worker in engine._workers), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


class TestLifecycle:
    def test_engine_close_is_idempotent(self):
        engine = ShardedSimulator(small_config(), jobs=2)
        engine.start()
        engine.advance_epoch()
        engine.close()
        engine.close()

    def test_killed_worker_raises_and_leaks_nothing(self):
        """SIGKILL a worker mid-run: the next epoch must surface a
        ShardEngineError and close() must still tear the rest down."""
        engine = ShardedSimulator(small_config(), jobs=2)
        try:
            assert engine.advance_epoch() is not None
            workers = list(engine._workers)
            assert len(workers) == 2
            os.kill(workers[0].pid, signal.SIGKILL)
            workers[0].join(timeout=10.0)
            with pytest.raises(ShardEngineError):
                while engine.advance_epoch() is not None:
                    pass
        finally:
            engine.close()
        assert not any(worker.is_alive() for worker in workers)

    def test_clean_run_leaks_nothing(self):
        with ShardedSimulator(small_config(), jobs=2) as engine:
            engine.run()
            workers = list(engine._workers)
        assert len(workers) == 2
        assert not any(worker.is_alive() for worker in workers)

    def test_workers_exit_when_parent_dies_mid_send(self):
        src = Path(__file__).resolve().parent.parent / "src"
        # The workers inherit the stdout pipe, so read the one line
        # rather than wait for EOF.
        process = subprocess.Popen(
            [sys.executable, "-c", _DIE_MID_SEND],
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        try:
            workers = [int(pid) for pid in process.stdout.readline().split()]
            assert process.wait(timeout=60) == -signal.SIGKILL
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup backstop
                process.kill()
                process.wait(timeout=30)
            process.stdout.close()
        assert len(workers) == 2
        deadline = time.monotonic() + 10.0
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        survivors = [pid for pid in workers if _alive(pid)]
        assert not survivors, f"workers outlived their parent: {survivors}"

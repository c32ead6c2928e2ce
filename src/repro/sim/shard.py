"""Sharded multi-channel execution: the catalog engine.

A catalog of hundreds of channels is partitioned into
:class:`ChannelShard`\\ s — each shard owns a fixed subset of channels and
runs them in its own :class:`~repro.vod.multi.MultiChannelSimulator`.  Shards
advance in **lock-step epochs** of one provisioning interval T: the
parent broadcasts the current per-channel cloud capacities, every shard
simulates its channels up to the epoch boundary, and returns an
:class:`EpochReport` (tracker statistics, per-step bandwidth and
population series, quality samples).  The parent merges the reports,
runs the shared predictor → provisioner → allocator loop
(:mod:`repro.core` + :mod:`repro.cloud`) on the merged demand, and
broadcasts the new capacities for the next epoch.

Determinism contract
--------------------
For a fixed :class:`~repro.workload.catalog.CatalogConfig` (which
includes the shard count), results are **byte-identical regardless of
the worker count**:

* every channel's trace and behaviour stream is keyed by its global
  channel id (stable spawn keys), so a channel is built and simulated
  identically in whichever process its shard lands — with worker
  processes, each worker builds the shards it owns and the parent
  builds none;
* channels only interact through the controller, which runs in the
  parent on merged statistics;
* reports are merged in **shard-index order** no matter the order in
  which workers finish, so every float reduction has a fixed order
  (:func:`merge_epoch_reports` is a pure function of the report *set*).

``tests/test_catalog_engine.py`` pins this down with a jobs-1-vs-4
byte-identity test and a merge-permutation property test.

The epoch loop, its streaming payload and the control-plane half of a
checkpoint are :class:`repro.sim.loop.EpochLoop`'s; this module supplies
the sharded data plane (worker shard state is gathered/reinjected over
the process boundary for a checkpoint; each epoch's reports come back
as fixed-layout :class:`EpochBlockLayout` blocks over the worker pipes)
and the single- and multi-region control planes.
``tests/test_api.py`` pins the streamed-vs-monolithic and
checkpoint/resume byte-parity.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.billing import CostReport
from repro.core.demand import DemandEstimator
from repro.core.predictor import ArrivalRatePredictor
from repro.core.provisioner import ProvisioningDecision
from repro.sim.loop import EpochLoop, KernelCursor, _EpochData
from repro.vod.metrics import QUALITY_WINDOW_SECONDS, latency_adjusted_quality
from repro.vod.multi import MultiChannelSimulator, VoDSystemConfig
from repro.vod.tracker import IntervalStats, TrackingServer
from repro.workload.catalog import (
    CatalogConfig,
    GeoCatalogConfig,
    build_shard_trace_arrays,
    channel_shapes,
    shard_channel_ids,
)

# perfbench's layer wiring wraps this name; a benchmark change drops the
# alias together with that wrap.
build_shard_trace = build_shard_trace_arrays

__all__ = [
    "ChannelShard",
    "EpochReport",
    "MergedEpoch",
    "CatalogResult",
    "GeoCatalogResult",
    "ShardedSimulator",
    "GeoShardedSimulator",
    "ShardEngineError",
    "merge_epoch_reports",
    "EpochBlockLayout",
    "report_to_views",
    "report_from_views",
    "make_engine",
    "summarize_catalog",
]


# ----------------------------------------------------------------------
# One shard
# ----------------------------------------------------------------------

class ChannelShard:
    """A fixed subset of the catalog's channels in one simulation kernel
    (:class:`~repro.vod.multi.MultiChannelSimulator`, one vectorized pass
    per phase over the whole channel set, in either delivery mode)."""

    def __init__(
        self,
        config: CatalogConfig,
        shard_index: int,
        *,
        shapes: Optional[list] = None,
        all_channels: Optional[list] = None,
    ) -> None:
        self.config = config
        self.shard_index = shard_index
        self.channel_ids = shard_channel_ids(config, shard_index)
        # ``shapes``/``all_channels`` let a caller building several
        # shards of the same catalog compute the (identical) full-catalog
        # lists once instead of once per shard.
        if shapes is None:
            shapes = channel_shapes(config)
        owned_shapes = [shapes[c] for c in self.channel_ids]
        if all_channels is None:
            all_channels = config.channels()
        channels = [all_channels[c] for c in self.channel_ids]
        sim_config = VoDSystemConfig(
            mode=config.mode,
            dt=config.dt,
            user_rate_cap=config.constants.vm_bandwidth,
            seed=config.seed,
        )
        self.sim = MultiChannelSimulator(
            channels,
            build_shard_trace_arrays(
                config, self.channel_ids, shapes=owned_shapes
            ),
            sim_config,
            interval_seconds=config.interval_seconds,
        )
        self._cursor = KernelCursor()

    def set_capacities(self, capacities: Dict[int, np.ndarray]) -> None:
        """Install the owned channels' slice of a capacity broadcast."""
        for channel_id in self.channel_ids:
            capacity = capacities.get(channel_id)
            if capacity is not None:
                self.sim.set_cloud_capacity(channel_id, capacity)

    def advance_epoch(self, t_end: float) -> EpochReport:
        """Run lock-step to ``t_end`` and report this epoch's deltas."""
        sim = self.sim
        deltas = self._cursor.advance(sim, t_end)
        stats = sim.close_interval()
        # Only P2P re-provisioning reads the live peer upload.
        upload_sum, upload_count = (
            sim.peer_upload_totals() if self.config.mode == "p2p" else (0.0, 0)
        )
        return EpochReport(
            shard_index=self.shard_index,
            stats=stats,
            upload_sum=upload_sum,
            upload_count=upload_count,
            channel_populations=dict(sim.channel_populations()),
            **deltas,
        )


def _build_shards(
    config: CatalogConfig, shard_indices: Sequence[int]
) -> List[ChannelShard]:
    """Build the shards ``shard_indices`` of ``config``, sharing one
    computation of the catalog-wide shape and channel lists."""
    shapes = channel_shapes(config)
    all_channels = config.channels()
    return [
        ChannelShard(config, i, shapes=shapes, all_channels=all_channels)
        for i in shard_indices
    ]


@dataclass
class EpochReport(_EpochData):
    """One shard's deltas over one lock-step epoch (owned channels only)."""

    shard_index: int = -1


@dataclass
class MergedEpoch(_EpochData):
    """The whole catalog's view of one epoch, merged in shard order
    (``stats`` covers all channels, channel-id order)."""


def merge_epoch_reports(reports: Sequence[EpochReport]) -> MergedEpoch:
    """Merge one epoch's shard reports, independent of arrival order.

    Reports are first sorted by shard index, so every float reduction
    (bandwidth sums, upload accumulators) happens in a fixed order even
    when workers complete out of order — the property the engine's
    byte-determinism rests on.
    """
    if not reports:
        raise ValueError("need at least one shard report")
    ordered = sorted(reports, key=lambda r: r.shard_index)
    indices = [r.shard_index for r in ordered]
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate shard reports: {indices}")
    first = ordered[0]
    steps = first.step_times.size
    for report in ordered[1:]:
        if report.step_times.size != steps or not np.array_equal(
            report.step_times, first.step_times
        ):
            raise ValueError(
                f"shard {report.shard_index} fell out of lock-step with "
                f"shard {first.shard_index}"
            )
        if len(report.quality_samples) != len(first.quality_samples):
            raise ValueError(
                f"shard {report.shard_index} quality sampling diverged"
            )

    cloud = np.zeros(steps)
    peer = np.zeros(steps)
    provisioned = np.zeros(steps)
    shortfall = np.zeros(steps)
    populations = np.zeros(steps, dtype=np.int64)
    quality = [
        [t, 0, 0] for (t, _, _) in first.quality_samples
    ]
    stats: List[IntervalStats] = []
    channel_populations: Dict[int, int] = {}
    arrivals = departures = retrievals = unsmooth = 0
    sojourn_sum = upload_sum = 0.0
    upload_count = 0
    peak_step_events = 0
    for report in ordered:
        cloud += report.cloud_used
        peer += report.peer_used
        provisioned += report.provisioned
        shortfall += report.shortfall
        populations += report.populations
        for i, (t, smooth, users) in enumerate(report.quality_samples):
            if t != quality[i][0]:
                raise ValueError(
                    f"shard {report.shard_index} sampled quality at {t}, "
                    f"expected {quality[i][0]}"
                )
            quality[i][1] += smooth
            quality[i][2] += users
        stats.extend(report.stats)
        channel_populations.update(report.channel_populations)
        arrivals += report.arrivals
        departures += report.departures
        retrievals += report.retrievals
        unsmooth += report.unsmooth
        sojourn_sum += report.sojourn_sum
        upload_sum += report.upload_sum
        upload_count += report.upload_count
        peak_step_events = max(peak_step_events, report.peak_step_events)
    stats.sort(key=lambda s: s.channel_id)
    return MergedEpoch(
        t_end=first.t_end,
        stats=stats,
        step_times=first.step_times.copy(),
        cloud_used=cloud,
        peer_used=peer,
        provisioned=provisioned,
        shortfall=shortfall,
        populations=populations,
        quality_samples=[(t, s, u) for t, s, u in quality],
        arrivals=arrivals,
        departures=departures,
        retrievals=retrievals,
        unsmooth=unsmooth,
        sojourn_sum=sojourn_sum,
        upload_sum=upload_sum,
        upload_count=upload_count,
        peak_step_events=peak_step_events,
        channel_populations=dict(sorted(channel_populations.items())),
    )


# ----------------------------------------------------------------------
# The epoch wire format: one fixed-layout block per shard
# ----------------------------------------------------------------------
#
# A block is a flat sequence of 8-byte-aligned int64/float64 scalars and
# arrays: the scalar counters (``kernel_seconds`` is the worker's CPU
# seconds inside the shard kernel, read only by perfbench's per-layer
# breakdown), the step series and quality samples sized for the
# worst-case epoch (valid prefixes ``n_steps`` / ``n_quality``), and the
# owned channels' interval statistics in ascending channel-id order.
# Channel ids are never shipped: both sides derive each shard's owned-id
# list from the CatalogConfig, so a block is pure numbers and every
# value round-trips bit-exactly (the engine's byte-determinism does not
# depend on the transport).

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)


@dataclass(frozen=True)
class _Field:
    """One named array at a fixed offset within a shard block."""

    name: str
    offset: int  # bytes from the start of the block
    shape: Tuple[int, ...]
    dtype: np.dtype


def _block_fields(
    n_owned: int, chunks: int, max_steps: int, max_quality: int
) -> Tuple[List[_Field], int]:
    fields: List[_Field] = []
    offset = 0

    def add(name: str, shape: Tuple[int, ...], dtype: np.dtype) -> None:
        nonlocal offset
        fields.append(_Field(name, offset, shape, dtype))
        offset += int(np.prod(shape, dtype=np.int64)) * dtype.itemsize

    for name in ("n_steps", "n_quality", "arrivals", "departures",
                 "retrievals", "unsmooth", "upload_count",
                 "peak_step_events"):
        add(name, (1,), _I64)
    for name in ("t_end", "sojourn_sum", "upload_sum", "kernel_seconds"):
        add(name, (1,), _F64)
    for name in ("step_times", "cloud_used", "peer_used", "provisioned",
                 "shortfall"):
        add(name, (max_steps,), _F64)
    add("populations", (max_steps,), _I64)
    add("quality_times", (max_quality,), _F64)
    add("quality_smooth", (max_quality,), _I64)
    add("quality_users", (max_quality,), _I64)
    add("stat_arrivals", (n_owned,), _I64)
    add("stat_upload_sum", (n_owned,), _F64)
    add("stat_upload_samples", (n_owned,), _I64)
    add("stat_transitions", (n_owned, chunks, chunks), _F64)
    add("stat_departures", (n_owned, chunks), _F64)
    add("stat_starts", (n_owned, chunks), _F64)
    add("channel_populations", (n_owned,), _I64)
    return fields, offset


class EpochBlockLayout:
    """Every shard's block at a fixed offset in one buffer, derived
    deterministically from the config.

    Parent and workers construct this independently from the same
    :class:`CatalogConfig` and land on identical offsets — nothing about
    the layout crosses the process boundary.
    """

    def __init__(self, config: CatalogConfig) -> None:
        interval = float(config.interval_seconds)
        dt = float(config.dt)
        # +2: one for a possible boundary step, one for safety against
        # the epsilon comparisons at epoch edges.
        self.max_steps = int(math.ceil(interval / dt)) + 2
        self.max_quality = int(math.ceil(interval / QUALITY_WINDOW_SECONDS)) + 2
        self.chunks = int(config.chunks_per_channel)
        self.interval_seconds = interval
        self.num_shards = int(config.effective_shards)
        self.owned_ids: List[List[int]] = [
            list(shard_channel_ids(config, i)) for i in range(self.num_shards)
        ]
        self._fields: List[List[_Field]] = []
        self.block_offsets: List[int] = []
        self.block_sizes: List[int] = []
        total = 0
        for owned in self.owned_ids:
            fields, size = _block_fields(
                len(owned), self.chunks, self.max_steps, self.max_quality
            )
            self._fields.append(fields)
            self.block_offsets.append(total)
            self.block_sizes.append(size)
            total += size
        self.total_size = total

    def views(self, buf, shard_index: int) -> Dict[str, np.ndarray]:
        """Numpy views of one shard's block inside ``buf`` (zero-copy)."""
        base = self.block_offsets[shard_index]
        return {
            spec.name: np.ndarray(
                spec.shape,
                dtype=spec.dtype,
                buffer=buf,
                offset=base + spec.offset,
            )
            for spec in self._fields[shard_index]
        }


def report_to_views(
    views: Dict[str, np.ndarray],
    report: EpochReport,
    owned_ids: Sequence[int],
    kernel_seconds: float,
) -> None:
    """Serialize one shard's epoch report into its block (in place).

    Every value is a plain int64/float64 store, so the block round-trips
    bit-exactly — the transport sits outside the determinism contract.
    """
    n = int(report.step_times.size)
    views["n_steps"][0] = n
    views["t_end"][0] = report.t_end
    views["arrivals"][0] = report.arrivals
    views["departures"][0] = report.departures
    views["retrievals"][0] = report.retrievals
    views["unsmooth"][0] = report.unsmooth
    views["sojourn_sum"][0] = report.sojourn_sum
    views["upload_sum"][0] = report.upload_sum
    views["upload_count"][0] = report.upload_count
    views["peak_step_events"][0] = report.peak_step_events
    views["kernel_seconds"][0] = kernel_seconds
    views["step_times"][:n] = report.step_times
    views["cloud_used"][:n] = report.cloud_used
    views["peer_used"][:n] = report.peer_used
    views["provisioned"][:n] = report.provisioned
    views["shortfall"][:n] = report.shortfall
    views["populations"][:n] = report.populations
    nq = len(report.quality_samples)
    views["n_quality"][0] = nq
    if nq:
        q_times, q_smooth, q_users = zip(*report.quality_samples)
        views["quality_times"][:nq] = q_times
        views["quality_smooth"][:nq] = q_smooth
        views["quality_users"][:nq] = q_users
    for k, stats in enumerate(report.stats):
        views["stat_arrivals"][k] = stats.arrivals
        views["stat_upload_sum"][k] = stats.upload_capacity_sum
        views["stat_upload_samples"][k] = stats.upload_capacity_samples
        views["stat_transitions"][k] = stats.transition_counts
        views["stat_departures"][k] = stats.departure_counts
        views["stat_starts"][k] = stats.start_chunk_counts
    views["channel_populations"][:] = [
        report.channel_populations[cid] for cid in owned_ids
    ]


def report_from_views(
    views: Dict[str, np.ndarray],
    shard_index: int,
    owned_ids: Sequence[int],
    interval_seconds: float,
) -> EpochReport:
    """Rebuild a shard's :class:`EpochReport` from its block.

    The step series are zero-copy numpy views — valid until the next
    epoch overwrites the block, which is fine because
    :func:`merge_epoch_reports` reduces them into fresh arrays right
    away.  The per-channel statistics arrays ARE copied: the merged
    epoch retains them (the control plane absorbs them after the merge).
    """
    n = int(views["n_steps"][0])
    nq = int(views["n_quality"][0])
    stats = [
        IntervalStats(
            channel_id=int(cid),
            interval_seconds=interval_seconds,
            arrivals=int(views["stat_arrivals"][k]),
            transition_counts=views["stat_transitions"][k].copy(),
            departure_counts=views["stat_departures"][k].copy(),
            upload_capacity_sum=float(views["stat_upload_sum"][k]),
            upload_capacity_samples=int(views["stat_upload_samples"][k]),
            start_chunk_counts=views["stat_starts"][k].copy(),
        )
        for k, cid in enumerate(owned_ids)
    ]
    quality_samples = list(
        zip(
            views["quality_times"][:nq].tolist(),
            views["quality_smooth"][:nq].tolist(),
            views["quality_users"][:nq].tolist(),
        )
    )
    return EpochReport(
        shard_index=shard_index,
        t_end=float(views["t_end"][0]),
        stats=stats,
        step_times=views["step_times"][:n],
        cloud_used=views["cloud_used"][:n],
        peer_used=views["peer_used"][:n],
        provisioned=views["provisioned"][:n],
        shortfall=views["shortfall"][:n],
        populations=views["populations"][:n],
        quality_samples=quality_samples,
        arrivals=int(views["arrivals"][0]),
        departures=int(views["departures"][0]),
        retrievals=int(views["retrievals"][0]),
        unsmooth=int(views["unsmooth"][0]),
        sojourn_sum=float(views["sojourn_sum"][0]),
        upload_sum=float(views["upload_sum"][0]),
        upload_count=int(views["upload_count"][0]),
        peak_step_events=int(views["peak_step_events"][0]),
        channel_populations={
            int(cid): int(views["channel_populations"][k])
            for k, cid in enumerate(owned_ids)
        },
    )


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------

#: How often a shard worker's watchdog checks that its parent is alive.
_PARENT_POLL_SECONDS = 1.0


def _exit_when_orphaned(parent: int) -> None:
    """Watchdog thread: end the worker process once its parent pid
    changes.

    A dead parent never shows up on the pipe, because forked workers
    hold copies of the parent's pipe ends: ``recv`` never sees EOF, and
    a ``send_bytes`` into a full socket buffer blocks for good.  Only a
    thread beside the blocked one can end the process.
    """
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_SECONDS)
    os._exit(1)


def _worker_main(conn, config: CatalogConfig, shard_indices: List[int],
                 shards: Optional[List[ChannelShard]] = None) -> None:
    """Long-lived worker: build (or adopt) the owned shards, serve epochs.

    On a fresh start ``shards`` is ``None`` and the worker builds the
    shards in ``shard_indices`` itself, before it reports ``("ready",
    …)`` — so the parent's start-up still covers the build.  Shards
    parked by ``suspend()`` or restored from a checkpoint arrive as
    :class:`ChannelShard` objects, inherited through the fork or pickled
    through a spawn.  Any build failure goes back as ``("error",
    traceback)``.  Besides epochs, the worker answers
    ``("snapshot",)`` with its current shards — the parent-side
    checkpoint gathers them without interrupting the run.

    Each epoch the worker encodes its shards' reports into their blocks
    of one reusable buffer, acks ``("ok", None)`` and then sends one raw
    block per owned shard, in ``shard_indices`` order.

    The worker restores the default SIGINT/SIGTERM actions (a fork
    inherits an asyncio host's handlers, which ignore SIGTERM) and a
    daemon watchdog thread exits it once its parent dies
    (:func:`_exit_when_orphaned`).
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    threading.Thread(
        target=_exit_when_orphaned, args=(os.getppid(),), daemon=True
    ).start()
    try:
        if shards is None:
            shards = _build_shards(config, shard_indices)
        layout = EpochBlockLayout(config)
        buf = bytearray(layout.total_size)
        views = {index: layout.views(buf, index) for index in shard_indices}
        conn.send(("ready", shard_indices))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            if message[0] == "snapshot":
                conn.send(("ok", shards))
                continue
            _, t_end, capacities = message
            for shard in shards:
                shard.set_capacities(capacities)
                # CPU time, not wall: time-sliced workers sharing cores
                # would otherwise count each other's compute.
                # perfbench reads it as sim.shard.advance_cpu_s / critical_s.
                started = time.process_time()
                report = shard.advance_epoch(t_end)
                kernel_seconds = time.process_time() - started
                report_to_views(
                    views[shard.shard_index],
                    report,
                    layout.owned_ids[shard.shard_index],
                    kernel_seconds,
                )
            conn.send(("ok", None))
            for index in shard_indices:
                conn.send_bytes(
                    buf, layout.block_offsets[index], layout.block_sizes[index]
                )
    except EOFError:
        pass
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, EOFError, BrokenPipeError):
            pass
    finally:
        conn.close()


class ShardEngineError(RuntimeError):
    """A shard worker died or reported an exception."""


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

@dataclass
class CatalogResult:
    """Everything measured over one sharded catalog run."""

    config: CatalogConfig
    times: np.ndarray  # per step
    cloud_used: np.ndarray
    peer_used: np.ndarray
    provisioned: np.ndarray
    shortfall: np.ndarray
    populations: np.ndarray
    quality_times: np.ndarray
    quality: np.ndarray
    epoch_times: List[float]
    arrivals: int
    departures: int
    final_population: int
    peak_population: int
    total_retrievals: int
    unsmooth_retrievals: int
    mean_sojourn: float
    decisions: List[ProvisioningDecision] = field(default_factory=list)
    vm_cost_series: List[float] = field(default_factory=list)
    cost_report: Optional[CostReport] = None
    channel_populations: Dict[int, int] = field(default_factory=dict)
    steps: int = 0
    peak_step_events: int = 0

    @property
    def average_quality(self) -> float:
        if self.quality.size == 0:
            return 1.0
        return float(np.mean(self.quality))

    @property
    def smooth_retrieval_fraction(self) -> float:
        if self.total_retrievals == 0:
            return 1.0
        return 1.0 - self.unsmooth_retrievals / self.total_retrievals


@dataclass
class GeoCatalogResult(CatalogResult):
    """A multi-region catalog run: everything in :class:`CatalogResult`
    plus the geo layer's per-epoch allocation telemetry.

    ``epoch_discounts``/``epoch_remote_fractions`` align with
    ``epoch_times``: entry ``k`` describes the plan that was *in effect*
    during epoch ``k`` (the bootstrap plan for the first epoch, then
    each periodic decision for the epoch it capacitates).
    """

    region_names: List[str] = field(default_factory=list)
    epoch_discounts: List[float] = field(default_factory=list)
    epoch_remote_fractions: List[float] = field(default_factory=list)
    epoch_egress_rates: List[float] = field(default_factory=list)

    @property
    def mean_latency_discount(self) -> float:
        if not self.epoch_discounts:
            return 1.0
        return float(np.mean(self.epoch_discounts))

    def latency_adjusted_quality_series(self) -> np.ndarray:
        """Quality samples scaled by their epoch's utility discount."""
        return latency_adjusted_quality(
            self.quality_times,
            self.quality,
            np.asarray(self.epoch_times),
            np.asarray(self.epoch_discounts),
        )

    @property
    def latency_adjusted_quality(self) -> float:
        series = self.latency_adjusted_quality_series()
        if series.size == 0:
            return self.mean_latency_discount
        return float(np.mean(series))


def summarize_catalog(result: CatalogResult) -> Dict[str, float]:
    """Flatten a catalog run into the sweep's JSON metrics schema."""
    reserved = result.provisioned * 8.0 / 1e6
    used = result.cloud_used * 8.0 / 1e6
    peer = result.peer_used * 8.0 / 1e6
    coverage = (
        float(np.mean(result.provisioned >= result.cloud_used))
        if result.provisioned.size else 0.0
    )
    # Same basis as the closed-loop schema (`mean_vm_cost_per_hour`):
    # the billing meter's hourly rate, which covers the bootstrap
    # deployment too — `vm_cost_series` only has the periodic decisions
    # and is empty for single-epoch runs.
    vm_cost = (
        float(result.cost_report.hourly_vm_cost)
        if result.cost_report is not None else 0.0
    )
    metrics = {
        "arrivals": int(result.arrivals),
        "departures": int(result.departures),
        "final_population": int(result.final_population),
        "peak_population": int(result.peak_population),
        "average_quality": float(result.average_quality),
        "smooth_retrieval_fraction": float(result.smooth_retrieval_fraction),
        "mean_sojourn": float(result.mean_sojourn),
        "mean_reserved_mbps": float(reserved.mean()) if reserved.size else 0.0,
        "mean_used_mbps": float(used.mean()) if used.size else 0.0,
        "mean_peer_mbps": float(peer.mean()) if peer.size else 0.0,
        "mean_shortfall_mbps": (
            float(result.shortfall.mean()) * 8.0 / 1e6
            if result.shortfall.size else 0.0
        ),
        "coverage_fraction": coverage,
        "vm_cost_per_hour": vm_cost,
        "storage_cost_per_day": (
            float(result.cost_report.hourly_storage_cost * 24.0)
            if result.cost_report is not None else 0.0
        ),
        "epochs": int(len(result.epoch_times)),
        "steps": int(result.steps),
        "peak_step_events": int(result.peak_step_events),
        "num_channels": int(result.config.num_channels),
        "num_shards": int(result.config.effective_shards),
    }
    if isinstance(result, GeoCatalogResult):
        metrics.update({
            "num_regions": int(len(result.region_names)),
            "mean_latency_discount": float(result.mean_latency_discount),
            "latency_adjusted_quality": float(
                result.latency_adjusted_quality
            ),
            "mean_remote_fraction": (
                float(np.mean(result.epoch_remote_fractions))
                if result.epoch_remote_fractions else 0.0
            ),
            "egress_cost_per_hour": (
                float(result.cost_report.hourly_egress_cost)
                if result.cost_report is not None else 0.0
            ),
        })
    return metrics


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

class ShardedSimulator(EpochLoop):
    """Lock-step epochs over channel shards + one provisioning loop.

    The epoch loop itself is :class:`~repro.sim.loop.EpochLoop`'s; this
    engine supplies the sharded data plane (in-process shards, or worker
    processes sending fixed-layout epoch blocks over their pipes) and
    the single-region control plane.

    Parameters
    ----------
    config:
        The catalog (including its fixed shard count).
    jobs:
        Worker processes; ``1`` runs every shard in-process.  Results are
        byte-identical for any value.
    predictor:
        Optional arrival-rate predictor override for the controller.
    controller:
        Registered provisioning-policy key
        (:func:`repro.core.controller.controller_names`); ``None`` means
        the paper controller.
    """

    kind = "catalog"

    def __init__(
        self,
        config: CatalogConfig,
        *,
        jobs: int = 1,
        predictor: Optional[ArrivalRatePredictor] = None,
        controller: Optional[str] = None,
    ) -> None:
        self.config = config
        self.jobs = max(1, min(int(jobs), config.effective_shards))
        self._peer_upload: Optional[float] = None
        self._restored_shards: Optional[List[ChannelShard]] = None
        super().__init__(
            config,
            config.interval_seconds,
            tracker=TrackingServer(
                num_channels=config.channel_slots,
                chunks_per_channel=[config.chunks_per_channel]
                * config.channel_slots,
                interval_seconds=config.interval_seconds,
            ),
            estimator=DemandEstimator(
                config.capacity_model(),
                mode=config.mode,
                default_prior=config.behaviour_matrix(),
            ),
            predictor=predictor,
            controller=controller,
        )

        self._shards: Optional[List[ChannelShard]] = None  # jobs == 1
        self._workers: List[mp.Process] = []
        self._conns: List = []
        self._assignments: List[List[int]] = []
        self._started = False
        self._closed = False
        self._layout: Optional[EpochBlockLayout] = None
        #: The parent's copy of every shard's epoch block (jobs > 1).
        self._blocks: Optional[bytearray] = None

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down worker processes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._stop_workers()

    def _stop_workers(self) -> None:
        """Stop workers and close their pipes."""
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for worker in self._workers:
            worker.join(timeout=10.0)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.terminate()
                worker.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._workers = []

    def suspend(self) -> None:
        """Park the run between epochs (idempotent; no-op when closed
        or not yet started).

        Gathers the live shard simulators into the parent and releases
        the worker processes — a paused run then holds no OS resources
        beyond its own heap.  The next :meth:`advance_epoch` (or
        :meth:`snapshot_state`) transparently respawns workers from the
        parked shards; results are byte-identical either way, exactly
        like a checkpoint/resume round-trip through :mod:`repro.api`.
        """
        if self._closed or not self._started:
            return
        shards = self._gather_shards()
        self._stop_workers()
        self._shards = None
        self._layout = self._blocks = None
        self._restored_shards = shards
        self._started = False

    # ------------------------------------------------------------------
    # The data plane: shards, in process or in worker processes
    # ------------------------------------------------------------------
    def _start(self) -> None:
        """Bring up the data plane; the engine counts as started only
        once every shard is built and every worker is ready, so a failed
        start raises again on the next call instead of leaving a
        half-built engine behind."""
        if self._started:
            return
        shards = self.config.effective_shards
        restored = self._restored_shards
        if self.jobs <= 1:
            self._shards = (
                restored if restored is not None
                else _build_shards(self.config, range(shards))
            )
        else:
            try:
                self._spawn_workers(shards, restored)
            except BaseException:
                self._stop_workers()
                self._layout = self._blocks = None
                raise
        self._restored_shards = None
        self._started = True

    def _spawn_workers(
        self, shards: int, restored: Optional[List[ChannelShard]]
    ) -> None:
        """Start the workers and wait until each reports ready.

        On a fresh start each worker builds the shards it owns, in
        parallel with the others, so the parent never holds a trace;
        parked or checkpoint-restored shards travel to their workers.
        """
        self._layout = EpochBlockLayout(self.config)
        self._blocks = bytearray(self._layout.total_size)
        self._assignments = [
            [i for i in range(shards) if i % self.jobs == w]
            for w in range(self.jobs)
        ]
        for owned in self._assignments:
            parent_conn, child_conn = mp.Pipe()
            owned_states = (
                None if restored is None else [restored[i] for i in owned]
            )
            worker = mp.Process(
                target=_worker_main,
                args=(child_conn, self.config, owned, owned_states),
                daemon=False,
            )
            worker.start()
            child_conn.close()
            self._workers.append(worker)
            self._conns.append(parent_conn)
        for conn in self._conns:
            self._expect(conn, "ready")

    @staticmethod
    def _send(conn, message) -> None:
        """Send a control message; a dead worker is an engine error, not
        a raw ``BrokenPipeError`` (close() still tears everything down)."""
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            raise ShardEngineError("shard worker died unexpectedly") from None

    def _expect(self, conn, kind: str):
        try:
            message = conn.recv()
        except EOFError:
            raise ShardEngineError("shard worker died unexpectedly") from None
        if message[0] == "error":
            raise ShardEngineError(f"shard worker failed:\n{message[1]}")
        if message[0] != kind:
            raise ShardEngineError(f"unexpected worker message {message[0]!r}")
        return message[1]

    def _advance_all(
        self, t_end: float, capacities: Dict[int, np.ndarray]
    ) -> List[EpochReport]:
        self._start()
        if self._shards is not None:
            reports = []
            for shard in self._shards:
                shard.set_capacities(capacities)
                reports.append(shard.advance_epoch(t_end))
        else:
            layout, blocks = self._layout, self._blocks
            for conn in self._conns:
                self._send(conn, ("epoch", t_end, capacities))
            for conn, owned in zip(self._conns, self._assignments):
                self._expect(conn, "ok")
                for index in owned:
                    try:
                        conn.recv_bytes_into(
                            blocks, layout.block_offsets[index]
                        )
                    except EOFError:
                        raise ShardEngineError(
                            "shard worker died unexpectedly"
                        ) from None
            # Decode in fixed shard order (the merge's reduction-order
            # contract), whatever order the workers finished in.
            interval = self.config.interval_seconds
            reports = [
                report_from_views(
                    layout.views(blocks, index), index,
                    layout.owned_ids[index], interval,
                )
                for index in range(layout.num_shards)
            ]
        return reports

    def _advance_data(
        self, t_end: float, capacities: Dict[int, np.ndarray]
    ) -> MergedEpoch:
        merged = merge_epoch_reports(self._advance_all(t_end, capacities))
        self._clock.now = t_end
        for stats in merged.stats:
            self.tracker.absorb(stats)
        return merged

    # ------------------------------------------------------------------
    # Control-plane hooks (the geo engine overrides the region graph and
    # the result)
    # ------------------------------------------------------------------
    def _bootstrap(self) -> ProvisioningDecision:
        """Initial deployment: expected per-slot rates -> capacities."""
        config = self.config
        rates = config.channel_rates()
        expected = {c: float(r) for c, r in enumerate(rates)}
        self._peer_upload = (
            config.upload_distribution().mean()
            if config.mode == "p2p" else None
        )
        return self.controller.bootstrap(
            0.0, expected, peer_upload=self._peer_upload
        )

    def _reprovision(
        self, t_end: float, merged: MergedEpoch
    ) -> ProvisioningDecision:
        """One periodic provisioning round on the merged statistics."""
        config = self.config
        live_upload = (
            merged.upload_sum / merged.upload_count
            if config.mode == "p2p" and merged.upload_count
            else self._peer_upload
        )
        return self.controller.run_interval(
            t_end,
            peer_upload=live_upload if config.mode == "p2p" else None,
        )

    def _make_result(self, result_cls=CatalogResult, **extra) -> CatalogResult:
        """The merged result; ``extra`` fields go to ``result_cls``."""
        run = self._run
        epochs = run.epochs
        times = np.concatenate([m.step_times for m in epochs])
        populations = np.concatenate([m.populations for m in epochs])
        quality_samples = [s for m in epochs for s in m.quality_samples]
        quality_times = np.asarray([t for t, _, _ in quality_samples])
        quality = np.asarray([
            1.0 if users == 0 else smooth / users
            for _, smooth, users in quality_samples
        ])
        retrievals = sum(m.retrievals for m in epochs)
        sojourn_sum = 0.0
        for m in epochs:
            sojourn_sum += m.sojourn_sum
        return result_cls(
            config=self.config,
            times=times,
            cloud_used=np.concatenate([m.cloud_used for m in epochs]),
            peer_used=np.concatenate([m.peer_used for m in epochs]),
            provisioned=np.concatenate([m.provisioned for m in epochs]),
            shortfall=np.concatenate([m.shortfall for m in epochs]),
            populations=populations,
            quality_times=quality_times,
            quality=quality,
            epoch_times=list(run.epoch_times),
            arrivals=sum(m.arrivals for m in epochs),
            departures=sum(m.departures for m in epochs),
            final_population=int(populations[-1]) if populations.size else 0,
            peak_population=int(populations.max()) if populations.size else 0,
            total_retrievals=retrievals,
            unsmooth_retrievals=sum(m.unsmooth for m in epochs),
            mean_sojourn=sojourn_sum / retrievals if retrievals else 0.0,
            decisions=list(self.controller.decisions),
            vm_cost_series=list(run.vm_cost_series),
            cost_report=self.facility.billing.report(self._clock.now),
            channel_populations=epochs[-1].channel_populations,
            steps=int(times.size),
            peak_step_events=max(m.peak_step_events for m in epochs),
            **extra,
        )

    # ------------------------------------------------------------------
    # Checkpoint support: the shards are the data plane's state
    # ------------------------------------------------------------------
    def _gather_shards(self) -> List[ChannelShard]:
        """The current shard simulators, in shard-index order."""
        if self._closed:
            # Workers (and their shard state) are gone; writing a
            # checkpoint now would silently produce an unresumable file.
            raise RuntimeError(
                "cannot snapshot a closed engine (checkpoint before "
                "close()/the end of the `with` block)"
            )
        self._start()
        if self._shards is not None:
            return list(self._shards)
        for conn in self._conns:
            self._send(conn, ("snapshot",))
        shards: List[ChannelShard] = []
        for conn in self._conns:
            shards.extend(self._expect(conn, "ok"))
        shards.sort(key=lambda shard: shard.shard_index)
        return shards

    def _data_plane_state(self) -> Dict[str, Any]:
        return {
            "peer_upload": self._peer_upload,
            "shards": self._gather_shards(),
        }

    def _restore_data_plane(self, state: Dict[str, Any]) -> None:
        if self._started:
            raise RuntimeError("can only restore into a fresh engine")
        self._peer_upload = state["peer_upload"]
        self._restored_shards = list(state["shards"])


class GeoShardedSimulator(ShardedSimulator):
    """The multi-region catalog engine.

    Shards and the epoch loop are inherited unchanged — a
    :class:`~repro.workload.catalog.GeoCatalogConfig` presents its
    (region, channel) pairs as channel *slots*, so every worker-side
    mechanism (stable traces, lock-step epochs, shard-order merge)
    applies verbatim, and slot ids are region-major: the merged stats'
    channel-id sort IS the fixed region-then-channel reduction order.

    Only the controller's region data differs (:meth:`_region_graph`):
    each epoch the merged per-slot statistics are grouped by viewer
    region and fed to the multi-region VM configuration problem
    (:mod:`repro.geo.allocation`), any region's clusters may serve any
    region's viewers, the plan's cross-region egress is metered into
    billing, and its capacity-weighted latency discounts flow into the
    quality metrics.
    """

    def __init__(
        self,
        config: GeoCatalogConfig,
        *,
        jobs: int = 1,
        predictor: Optional[ArrivalRatePredictor] = None,
        controller: Optional[str] = None,
    ) -> None:
        if not isinstance(config, GeoCatalogConfig):
            raise TypeError(
                "GeoShardedSimulator needs a GeoCatalogConfig "
                "(use geo_catalog_config(...))"
            )
        super().__init__(
            config, jobs=jobs, predictor=predictor, controller=controller
        )

    def _region_graph(self, spec: GeoCatalogConfig) -> Dict[str, Any]:
        return dict(
            topology=spec.geo_topology(),
            slot_region=spec.slot_region,
            slot_channel=spec.slot_channel,
            exact=spec.exact,
        )

    def _make_result(self) -> GeoCatalogResult:
        # Decision k capacitates epoch k+1 (the bootstrap capacitates
        # epoch 1), so the decision list truncated to the epoch count is
        # exactly the per-epoch in-effect telemetry.
        decisions = self.controller.decisions
        epochs = len(self._run.epoch_times)
        telemetry = [d.epoch_telemetry() for d in decisions[:epochs]]
        return super()._make_result(
            GeoCatalogResult,
            region_names=list(self.config.region_names),
            epoch_discounts=[t["discount"] for t in telemetry],
            epoch_remote_fractions=[t["remote_fraction"] for t in telemetry],
            epoch_egress_rates=[
                t["egress_rate_per_hour"] for t in telemetry
            ],
        )


def make_engine(
    config: CatalogConfig,
    *,
    jobs: int = 1,
    predictor: Optional[ArrivalRatePredictor] = None,
    controller: Optional[str] = None,
) -> ShardedSimulator:
    """The right engine for the config: geo configs get the multi-region
    control plane, plain catalogs the single-region one."""
    cls = (
        GeoShardedSimulator if isinstance(config, GeoCatalogConfig)
        else ShardedSimulator
    )
    return cls(config, jobs=jobs, predictor=predictor, controller=controller)

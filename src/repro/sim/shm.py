"""Fixed-layout shared-memory epoch blocks for the sharded engine.

The parent allocates ONE :mod:`multiprocessing.shared_memory` segment
per engine, divided into per-shard epoch blocks at fixed offsets.  Each
epoch every worker writes its shards' blocks in place (step series,
quality samples, per-channel interval statistics, scalar counters) and
acks over the control pipe with a tiny ``("ok", None)``; the parent then
maps every block back as numpy views in **shard-index order** and merges
them — no report pickling on the data path.  Pickle remains for control
messages and the checkpoint/snapshot path only.

Layout
------
A block is a flat sequence of 8-byte-aligned scalars and arrays (all
``int64``/``float64``, so alignment is structural):

* i64 scalars: ``n_steps``, ``n_quality``, ``arrivals``, ``departures``,
  ``retrievals``, ``unsmooth``, ``upload_count``, ``peak_step_events``;
* f64 scalars: ``t_end``, ``sojourn_sum``, ``upload_sum``,
  ``kernel_seconds`` (the worker's CPU seconds inside the shard kernel,
  read only by perfbench's per-layer breakdown);
* f64 step series sized for the worst-case epoch (``step_times``,
  ``cloud_used``, ``peer_used``, ``provisioned``, ``shortfall``) plus
  i64 ``populations``; the valid prefix length is ``n_steps``;
* quality sample arrays (f64 times, i64 smooth/user counts), valid
  prefix ``n_quality``;
* per-owned-channel interval statistics, indexed in the shard's
  ascending channel-id order (``stat_arrivals``, ``stat_upload_sum``,
  ``stat_upload_samples``, ``stat_transitions`` ``(n, J, J)``,
  ``stat_departures``/``stat_starts`` ``(n, J)``) and the final
  ``channel_populations``.

Channel ids are never shipped: both sides derive each shard's owned-id
list from the :class:`~repro.workload.catalog.CatalogConfig`, so the
block is pure numbers and every value round-trips bit-exactly (the
engine's byte-determinism does not depend on the transport).

Lifecycle
---------
The parent creates the segment (:class:`ParentSegment`) before spawning
workers and is the only unlinker — :meth:`ParentSegment.close` is
idempotent and runs inside ``ShardedSimulator.close()``, so crashed
workers cannot leak ``/dev/shm`` blocks.  Workers attach by name with
:func:`attach_segment`, which immediately detaches the mapping from the
worker's ``resource_tracker`` (the parent owns the lifecycle; without
this, worker exits spew leaked-segment warnings and double-unlink).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Tuple

import numpy as np

from repro.vod.simulator import VoDSystemConfig
from repro.workload.catalog import CatalogConfig, shard_channel_ids

__all__ = [
    "EpochShmLayout",
    "ParentSegment",
    "attach_segment",
    "unlink_stale_segment",
    "SCALAR_I64",
    "SCALAR_F64",
    "STEP_SERIES_F64",
]

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)

SCALAR_I64 = (
    "n_steps",
    "n_quality",
    "arrivals",
    "departures",
    "retrievals",
    "unsmooth",
    "upload_count",
    "peak_step_events",
)
SCALAR_F64 = ("t_end", "sojourn_sum", "upload_sum", "kernel_seconds")
STEP_SERIES_F64 = (
    "step_times",
    "cloud_used",
    "peer_used",
    "provisioned",
    "shortfall",
)


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

    for name in SCALAR_I64:
        add(name, (1,), _I64)
    for name in SCALAR_F64:
        add(name, (1,), _F64)
    for name in STEP_SERIES_F64:
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


class EpochShmLayout:
    """The segment's field table, derived deterministically from config.

    Parent and workers construct this independently from the same
    :class:`CatalogConfig` and land on identical offsets — nothing about
    the layout crosses the process boundary.
    """

    def __init__(self, config: CatalogConfig) -> None:
        interval = float(config.interval_seconds)
        dt = float(config.dt)
        # The shard kernels sample quality on the VoDSystemConfig grid;
        # build it exactly like ChannelShard does to read the interval.
        sim_config = VoDSystemConfig(
            mode=config.mode,
            dt=config.dt,
            user_rate_cap=config.constants.vm_bandwidth,
            seed=config.seed,
        )
        # +2: one for a possible boundary step, one for safety against
        # the epsilon comparisons at epoch edges.
        self.max_steps = int(math.ceil(interval / dt)) + 2
        self.max_quality = (
            int(math.ceil(interval / float(sim_config.quality_sample_interval)))
            + 2
        )
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
            field.name: np.ndarray(
                field.shape,
                dtype=field.dtype,
                buffer=buf,
                offset=base + field.offset,
            )
            for field in self._fields[shard_index]
        }


class ParentSegment:
    """The parent-owned shared segment (create → share name → unlink).

    ``close()`` is idempotent and unconditionally unlinks: the parent is
    the segment's only owner, so teardown never depends on workers
    having exited cleanly.  A ``BufferError`` from live numpy views
    (e.g. after an engine error mid-merge) downgrades the unmap but
    never skips the unlink — the ``/dev/shm`` entry always goes away.
    """

    def __init__(self, layout: EpochShmLayout) -> None:
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(1, layout.total_size)
        )
        self._closed = False

    @property
    def name(self) -> str:
        return self.shm.name

    @property
    def buf(self):
        return self.shm.buf

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.shm.close()
        except BufferError:  # views still alive; unlink below still frees
            pass
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass

    def __del__(self) -> None:  # pragma: no cover - backstop only
        try:
            self.close()
        except Exception:
            pass


def unlink_stale_segment(name: str) -> bool:
    """Reclaim a segment orphaned by a SIGKILLed parent process.

    ``ParentSegment.close()`` covers every in-process teardown path,
    but nothing can run inside a parent that got SIGKILLed — its
    ``/dev/shm`` entry survives until someone unlinks it.  The service
    host records its runs' segment names in the state dir exactly so
    its restart can call this janitor; by then the workers are gone
    too (each exits once its parent pid changes), so the unlink here
    is the segment's last reference.

    Returns ``True`` if a segment by that name existed and was
    unlinked, ``False`` if it was already gone.
    """
    try:
        # lint: allow[RES001] crash-recovery janitor: successor runs the parent-owned unlink
        stale = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    stale.close()
    stale.unlink()
    return True


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to the parent's segment from a worker process.

    Attaching must NOT touch the resource tracker: on this interpreter
    attach-only mappings are untracked, and forked workers share the
    parent's tracker process — an unregister here would strip the
    parent's own registration (its crash-safety net) and make sibling
    workers' unregisters error inside the tracker.  The parent owns
    create/unlink; the worker only ever ``close()``\\ s its mapping.
    """
    return shared_memory.SharedMemory(name=name)

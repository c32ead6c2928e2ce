"""The simulation kernel: every channel of a system in one structure-of-arrays pass.

:class:`MultiChannelSimulator` is the paper's testbed in simulation: it
advances in fixed steps of ``dt`` simulated seconds, admitting sessions
from the workload trace, delivering chunk bandwidth (client-server, or
P2P rarest-first with cloud top-up), completing retrievals — smooth iff
the sojourn was at most T0 — and moving each user to the next chunk
sampled from the channel's behaviour matrix, or out.  Cloud capacity
per chunk is an input, set by the provisioning controller
between intervals.  Every engine runs it: the closed loop over the whole
scenario, the catalog engines once per shard.

All users of all channels live in one dense **row table** in admission
order — a structure-of-arrays column per attribute with a tail cursor
for O(1) appends.  The columns, each in the narrowest dtype that holds
its values (widened to int64 before any ``* chunks`` arithmetic):

* local channel (the channel sort key's unsigned dtype) and current
  cell (the smallest unsigned dtype that holds ``channels * chunks``);
* received bytes, enter time, last unsmooth completion and hold-until
  time (float64);
* a held row's next and finished chunk (the smallest signed dtype that
  holds ``-chunks``) and the alive flag;
* in P2P mode only, the upload capacity (float64) and the chunks owned
  (a ``(chunks, rows)`` bool matrix).

A downloading row's *cell* is ``channel * chunks + chunk``, its
queue in the flattened ``(channels, chunks)`` tables; held and dead rows
carry the spill cell ``channels * chunks``.  Departures only flip the
alive flag; the table is re-packed by one stable ``flatnonzero`` gather,
*lazily* — once per epoch at the report boundary, mid-epoch when dead
rows exceed half the table, or when an admission would not fit and the
table holds dead rows (compact before growing, so capacity follows the
live population).  The trace is held from its admission cursor on:
:meth:`MultiChannelSimulator.close_interval` drops the consumed prefix
once the cursor has passed half of what is held (O(trace) copies over a
run).  A pickled kernel carries only the unconsumed trace suffix and
the live rows, gathered as a compaction would.
Per-channel state the delivery needs is a ``(channels, chunks)``
capacity matrix, the downloader count of
every cell (kept up to date by integer adds as rows enter and leave
queues, never re-counted), and in P2P mode a ``(channels, chunks)``
live-owner count.  Each step runs:

1. fused admissions from the arrival-sorted trace arrays;
2. fused hold releases across every channel;
3. the delivery solve: one ``(channels, chunks)`` client-server solve
   (elementwise rate shares of the downloader counts, row sums), or one
   :meth:`~repro.vod.delivery.P2PDelivery.allocate` call over every
   channel's live rows, channel-major;
4. fused download advance (one gather of each row's cell rate) and
   completion detection;
5. per-channel completion handling in ascending channel order (the only
   phase that must stay a loop: behaviour-stream draws and the sojourn
   accumulator are per-channel ordered state), then fused transition
   application;
6. quality sampling on the 5-minute grid.

A user is in exactly one of two phases: downloading a chunk (a cell
below the spill cell, a job in that chunk's queue), or holding — the
download finished before the chunk's playback slot ended, so the user
watches until the slot ends (a finite ``hold_until``; every other row
carries ``+inf``), then moves on (or departs).  This playback pacing
keeps session durations tied to the video length rather than to raw
bandwidth, the regime in which the paper's "mean sojourn = T0"
equilibrium is self-consistent.

Byte-identity contract
----------------------
The kernel's fixed-seed trajectories are byte-identical to those of the
historical per-channel kernel (one user store and one delivery solve per
channel), which the ``tests/golden/`` fixtures pin.  The invariants that
make this true:

* channels only interact within a step through integer counters and
  integer-valued ``bincount`` accumulations (exact in any grouping), so
  phases can be fused across channels — and the downloader counts can
  be kept across steps by adds and subtracts instead of re-counted;
* every float reduction either stays per-channel in arrival order (the
  upload-capacity and sojourn accumulators, element-by-element, and the
  P2P peer pools), or is a row-wise ``.sum(axis=1)`` over a
  C-contiguous matrix (bitwise equal to the per-channel 1-D ``.sum()``),
  or a sequential Python add over channels in ascending id order (the
  step's bandwidth totals, :func:`~repro.vod.delivery.sequential_sum`);
* per-channel RNG streams are keyed by global channel id and consumed
  in the same order and batch sizes as the per-channel kernel,
  including its ``<= 4`` completions scalar path;
* row numbering is unobservable — every reported quantity derives from
  per-channel *arrival order*, which the row table maintains
  structurally: admissions append channel-sorted at the tail, and the
  compaction gather is an ascending index pick, so each channel's
  subsequence of the table is always its arrival order;
* dead and held rows sit in the spill cell with ``received = 0.0``: they
  gather its trailing ``0.0`` rate, an exact ``+ 0.0`` that keeps them
  below the chunk size, so one advance over the whole table never
  completes them and deferring compaction never perturbs a float.

P2P parity adds two: each channel's column slice of the one
``allocate`` call is exactly its live rows, in arrival order — the
owners and upload pools the per-channel peer-supply mirror held — and
the live-owner counts change only on a first completion of a chunk (+1)
and on departure (minus the row's ownership), the per-channel store's
rules.  Inside the call only the rarest-first draw-down loops, per
channel; rarity order, cloud top-up and totals are ``(channels,
chunks)`` array operations whose row sums and ascending-channel adds
reproduce the per-channel solve bit for bit, and channels without
downloaders add an exact ``0.0`` to each total.

The kernel needs a uniform channel set (shared chunk count, rate,
duration and behaviour matrix), which every channel family in the repo
(:func:`~repro.vod.channel.make_uniform_channels`) produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Tuple

import numpy as np

from repro.sim.rng import RandomStreams
from repro.vod.channel import ChannelSpec
from repro.vod.delivery import P2PDelivery, sequential_sum
from repro.vod.metrics import QUALITY_WINDOW_SECONDS, QualityTracker
from repro.vod.tracker import IntervalStats
from repro.workload.trace import reject_non_finite

if TYPE_CHECKING:
    from repro.workload.trace import ShardTraceArrays

__all__ = [
    "VoDSystemConfig",
    "BandwidthLog",
    "SimulationResult",
    "MultiChannelSimulator",
    "channels_are_uniform",
]

_GROW = 256

#: The trace columns, read from ``_cursor`` on.
_TRACE_COLUMNS = ("_trace_times", "_trace_channel", "_trace_start",
                  "_trace_upload")


@dataclass(frozen=True)
class VoDSystemConfig:
    """Simulator parameters.

    Attributes
    ----------
    mode:
        ``"client-server"`` or ``"p2p"``.
    dt:
        Step length in simulated seconds. Must divide the quality sample
        period (:data:`~repro.vod.metrics.QUALITY_WINDOW_SECONDS`)
        reasonably; 5-30 s is a good range.
    user_rate_cap:
        Per-user download cap, normally the VM bandwidth R.
    seed:
        Master seed for behaviour sampling.
    """

    mode: str = "client-server"
    dt: float = 10.0
    user_rate_cap: float = 10e6 / 8.0
    seed: int = 7

    def __post_init__(self) -> None:
        reject_non_finite(self)
        if self.mode not in ("client-server", "p2p"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.user_rate_cap <= 0:
            raise ValueError("user_rate_cap must be > 0")


class BandwidthLog:
    """Preallocated array-backed log of per-step bandwidth usage.

    Appending a step is one row write into a doubling array; the
    per-field series (bytes/second, ``provisioned`` the sum of per-chunk
    capacities) are zero-copy views over the filled prefix.
    """

    _FIELDS = ("time", "cloud_used", "peer_used", "provisioned", "shortfall")

    __slots__ = ("_data", "_len")

    def __init__(self, capacity: int = 1024) -> None:
        self._data = np.zeros((max(1, int(capacity)), len(self._FIELDS)))
        self._len = 0

    def append(
        self,
        time: float,
        cloud_used: float,
        peer_used: float,
        provisioned: float,
        shortfall: float,
    ) -> None:
        if self._len == self._data.shape[0]:
            grown = np.zeros((2 * self._data.shape[0], self._data.shape[1]))
            grown[: self._len] = self._data
            self._data = grown
        self._data[self._len] = (time, cloud_used, peer_used, provisioned,
                                 shortfall)
        self._len += 1

    def __len__(self) -> int:
        return self._len

    # Per-field series (zero-copy views over the filled prefix).
    @property
    def time(self) -> np.ndarray:
        return self._data[: self._len, 0]

    @property
    def cloud_used(self) -> np.ndarray:
        return self._data[: self._len, 1]

    @property
    def peer_used(self) -> np.ndarray:
        return self._data[: self._len, 2]

    @property
    def provisioned(self) -> np.ndarray:
        return self._data[: self._len, 3]

    @property
    def shortfall(self) -> np.ndarray:
        return self._data[: self._len, 4]

    def snapshot(self) -> "BandwidthLog":
        """An independent copy trimmed to the filled prefix."""
        copy = BandwidthLog(capacity=max(1, self._len))
        copy._data[: self._len] = self._data[: self._len]
        copy._len = self._len
        return copy


@dataclass
class SimulationResult:
    """Everything an experiment needs after a run."""

    config: VoDSystemConfig
    quality: QualityTracker
    bandwidth: BandwidthLog
    arrivals: int
    departures: int
    final_population: int
    steps: int = 0
    peak_step_events: int = 0


def _next_chunks(
    cumulative_t: np.ndarray, finished: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Each completion's next chunk, or ``-1`` to depart.

    ``cumulative_t[k, j]`` is the cumulative behaviour row of chunk j at
    column k.  A user who finished chunk ``finished[i]`` with uniform
    draw ``u[i]`` moves to the number of cumulative values ``<= u[i]``
    (``searchsorted(cum, u, side="right")``), or departs if ``u[i]`` is
    at or above the row's total.  One pass per column counts the same
    comparisons as a ``(completions, chunks)`` matrix would, without
    building it.
    """
    nxt = np.zeros(finished.size, dtype=np.int64)
    for column in cumulative_t:
        bound = column[finished]
        nxt += bound <= u
    nxt[u >= bound] = -1
    return nxt


def channels_are_uniform(channels) -> bool:
    """True iff every channel shares chunk count, rate, duration and
    behaviour matrix (the precondition for the fused kernel)."""
    first = channels[0]
    for spec in channels[1:]:
        if (
            spec.num_chunks != first.num_chunks
            or spec.streaming_rate != first.streaming_rate
            or spec.chunk_duration != first.chunk_duration
            or not (
                spec.behaviour is first.behaviour
                or np.array_equal(spec.behaviour, first.behaviour)
            )
        ):
            return False
    return True


class MultiChannelSimulator:
    """The multi-channel VoD system under simulation, in one kernel.

    ``trace`` holds the sessions to admit (sessions of channels not in
    ``channels`` are skipped); ``config.mode`` picks client-server or
    P2P delivery.  The engines step it (``step``/``advance_to``), install
    capacities between epochs (``set_cloud_capacities``), read ``bandwidth``,
    ``quality`` and the population counters, and take each epoch's
    tracker statistics from :meth:`close_interval`; :meth:`result`
    snapshots a whole run.
    """

    def __init__(
        self,
        channels: List[ChannelSpec],
        trace: ShardTraceArrays,
        config: VoDSystemConfig,
        *,
        interval_seconds: float = 3600.0,
    ) -> None:
        if not channels:
            raise ValueError("need at least one channel")
        if not channels_are_uniform(channels):
            raise ValueError(
                "MultiChannelSimulator needs a uniform channel set"
            )
        ids = [ch.channel_id for ch in channels]
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise ValueError("channel ids must be strictly increasing")
        self.channels = list(channels)
        self.config = config
        self.interval_seconds = float(interval_seconds)
        first = channels[0]
        self.num_channels = len(channels)
        self.num_chunks = first.num_chunks
        self.chunk_size = first.chunk_size_bytes
        self.t0 = first.chunk_duration
        # Precomputed scalar thresholds (the smoothness and stall rules).
        self._smooth_after = self.t0 + 1e-9
        self._overdue_after = self.t0
        self.channel_ids = np.asarray(ids, dtype=np.int64)
        self._ids = ids
        self._local_of: Dict[int, int] = {cid: i for i, cid in enumerate(ids)}
        # Transposed cumulative behaviour rows: ``_cumulative_t[k, j]`` is
        # the probability of moving from chunk j to a chunk <= k.
        self._cumulative_t = np.ascontiguousarray(
            np.cumsum(np.asarray(first.behaviour, dtype=float), axis=1).T
        )
        # Stable argsorts by local channel run on keys in the smallest
        # unsigned dtype that holds every id: numpy radix-sorts 8- and
        # 16-bit keys, in the same stable order.
        self._sort_dtype = np.min_scalar_type(len(ids) - 1)
        self._streams = RandomStreams(config.seed)
        # One persistent generator per channel (RandomStreams caches by
        # label, so these are the same objects scalar lookups would hit).
        self._gens = [
            self._streams.get("behaviour", str(cid)) for cid in ids
        ]

        self.now = 0.0
        self.arrivals = 0
        self.departures = 0
        self.steps = 0
        self.peak_step_events = 0
        self.quality = QualityTracker()
        self.bandwidth = BandwidthLog()
        self._next_quality_sample = QUALITY_WINDOW_SECONDS

        # Trace (already arrival-sorted), adopted as it is: one gather of
        # an id -> local table maps each session's channel (-1 off the
        # set; ids outside the table clip onto its -1 ends), and only a
        # trace holding such sessions is filtered, so a shard keeps its
        # trace's time and upload columns without a copy.  The local
        # channel and start chunk are stored in the narrowest dtype that
        # holds them (the channel one is the sort key itself).  Admission
        # widens the channel to int64 before ``* J``, where a narrow dtype
        # would wrap; int64 plus a narrow start stays int64.
        base = ids[0] - 1
        table = np.full(ids[-1] - base + 2, -1, dtype=np.min_scalar_type(-len(ids)))
        table[self.channel_ids - base] = np.arange(len(ids))
        local = table.take(trace.channels - base, mode="clip")
        times, starts, uploads = (
            trace.times, trace.start_chunks, trace.upload_capacities
        )
        known = local >= 0
        if not known.all():
            local, times, starts, uploads = (
                local[known], times[known], starts[known], uploads[known]
            )
        self._trace_times = times
        self._trace_channel = local.astype(self._sort_dtype)
        self._trace_start = starts.astype(
            np.min_scalar_type(self.num_chunks - 1)
        )
        self._trace_upload = uploads
        self._cursor = 0

        # Provisioned capacity: (C, J) matrix + per-channel sums (its row
        # sums), reduced in ascending-id order for the total.
        C, J = self.num_channels, self.num_chunks
        self._capacity = np.zeros((C, J))
        self._capacity_sums = np.zeros(C)
        self._provisioned_total = 0.0
        self._capacity_dirty = False

        # Interval (tracker) accumulators, local-channel indexed.
        self._iv_arrivals = np.zeros(C, dtype=np.int64)
        self._iv_transitions = np.zeros((C, J, J))
        self._iv_departures = np.zeros((C, J))
        self._iv_starts = np.zeros((C, J))
        self._iv_upload_sum: List[float] = [0.0] * C
        self._iv_upload_samples = np.zeros(C, dtype=np.int64)

        # Per-user state, one ROW per session, dense in admission order —
        # each channel's subsequence is that channel's arrival order, the
        # kernel's only ordering source (row numbering is unobservable).
        # Rows append at the tail on admission; departures flip
        # ``_row_alive`` and mark the table stale, and ``_compact()``
        # squeezes the dead rows out of every column in one ordered
        # gather.  Keeping the live population contiguous turns the
        # delivery path's random slot gathers into sequential passes.
        # A pickled kernel holds only its live rows (``__getstate__``).
        #
        # ``_row_cell`` is ``local * J + chunk`` while a row downloads,
        # and the spill cell ``C * J`` while it holds or once it is dead;
        # those rows keep ``_row_received == 0.0``.  ``_row_hold_until``
        # is finite exactly while a row holds, ``+inf`` otherwise; a held
        # row's next chunk (``-1`` to depart) and finished chunk are
        # stored in the narrowest signed dtype that holds ``-J`` and are
        # widened to int64 when read.  ``_row_chan`` is in the channel
        # sort dtype and ``_row_cell`` in the narrowest unsigned dtype
        # that holds the spill cell; both are widened to int64 before
        # ``* J``, where a narrow dtype would wrap.
        cap = _GROW
        hold_dtype = np.min_scalar_type(-J)
        self._n = 0  # rows in use, including dead ones awaiting compaction
        self._row_chan = np.zeros(cap, dtype=self._sort_dtype)
        self._row_cell = np.zeros(cap, dtype=np.min_scalar_type(C * J))
        self._row_received = np.zeros(cap)
        self._row_enter = np.zeros(cap)
        self._row_unsmooth = np.zeros(cap)
        self._row_hold_until = np.zeros(cap)
        self._row_hold_next = np.zeros(cap, dtype=hold_dtype)
        self._row_hold_from = np.zeros(cap, dtype=hold_dtype)
        self._row_alive = np.zeros(cap, dtype=bool)
        self._stale = False
        self._spill = C * J
        # Downloaders per cell, flattened ``(C, J)``: integer adds on
        # admission and on every move into a queue, subtracts on
        # completion — exact in any grouping, so never re-counted.
        self._counts = np.zeros(C * J, dtype=np.int64)
        # Number of rows in the between-chunks hold state; the release
        # scan is skipped entirely when zero.
        self._hold_count = 0
        self._chan_count = np.zeros(C, dtype=np.int64)
        self._total_active = 0
        # P2P only: the rarest-first solve, the upload column, the
        # ownership column (chunk-major, so a channel's owner masks
        # gather as contiguous rows) and the per-(channel, chunk) count
        # of live owners.  The client-server hot path never touches them.
        if config.mode == "p2p":
            self._delivery = P2PDelivery(config.user_rate_cap)
            self._row_upload = np.zeros(cap)
            self._row_owned = np.zeros((J, cap), dtype=bool)
            self._owners = np.zeros((C, J), dtype=np.int64)
        else:
            self._delivery = None
            self._row_upload = None
            self._row_owned = None
            self._owners = None

    # ------------------------------------------------------------------
    # External control surface
    # ------------------------------------------------------------------
    def set_cloud_capacity(self, channel_id: int, capacity: np.ndarray) -> None:
        """Install one channel's per-chunk cloud bandwidth (bytes/s): the
        one-row case of :meth:`set_cloud_capacities`."""
        if channel_id not in self._local_of:
            raise KeyError(f"unknown channel {channel_id}")
        self.set_cloud_capacities({channel_id: capacity})

    def set_cloud_capacities(self, capacities: Mapping[int, np.ndarray]) -> None:
        """Install the provisioned per-chunk cloud bandwidth (bytes/s) of
        every channel of this kernel that ``capacities`` names.

        Ids of other channels are ignored, and channels not named keep
        their capacity.  The rows are validated together before any is
        installed: a wrong shape, a negative entry or a non-finite one
        raises ``ValueError`` and leaves the kernel as it was.  A
        channel's sum is its row's sum in the C-contiguous block, bitwise
        the row's own ``.sum()``.
        """
        rows, local = [], []
        for i, cid in enumerate(self._ids):
            capacity = capacities.get(cid)
            if capacity is None:
                continue
            cap = np.asarray(capacity, dtype=float)
            if cap.shape != (self.num_chunks,):
                raise ValueError(
                    f"capacity must have {self.num_chunks} entries, "
                    f"got {cap.shape}"
                )
            rows.append(cap)
            local.append(i)
        if not rows:
            return
        block = np.array(rows)
        if np.any(block < 0):
            raise ValueError("capacities must be nonnegative")
        # A row sum is non-finite iff an entry is NaN or inf (or the
        # entries overflow), so checking the sums costs no second pass.
        sums = block.sum(axis=1)
        if not np.isfinite(sums).all():
            raise ValueError("capacities must be finite")
        self._capacity[local] = block
        self._capacity_sums[local] = sums
        self._capacity_dirty = True

    def total_provisioned(self) -> float:
        if self._capacity_dirty:
            # Deferred: one ascending-channel reduction of the cached
            # per-channel sums (never a re-reduction of every array).
            self._provisioned_total = float(
                sequential_sum(self._capacity_sums.tolist())
            )
            self._capacity_dirty = False
        return self._provisioned_total

    def population(self) -> int:
        return int(self._total_active)

    def channel_populations(self) -> Dict[int, int]:
        counts = self._chan_count
        return {
            int(cid): int(counts[i])
            for i, cid in enumerate(self.channel_ids)
        }

    def peer_upload_totals(self) -> Tuple[float, int]:
        """(sum, count) of active peers' upload capacities, reduced
        channel by channel in ascending id order (arrival order within
        each channel).  Idle channels contribute an exact ``+ 0.0``, so
        skipping them is bitwise-neutral.

        Raw accumulators, so the sharded engine can merge them across
        shards before dividing.  Client-server users upload nothing (the kernel keeps no upload
        column there): ``(0.0, 0)``."""
        if self._row_upload is None:
            return 0.0, 0
        count = self._compact()
        if count == 0:
            return 0.0, 0
        order = np.argsort(self._row_chan[:count], kind="stable")
        uploads = self._row_upload[:count][order]
        locals_sorted = self._row_chan[:count][order]
        bounds = np.flatnonzero(np.diff(locals_sorted)) + 1
        starts = [0, *bounds.tolist(), count]
        total = 0.0
        for k in range(len(starts) - 1):
            total += float(uploads[starts[k] : starts[k + 1]].sum())
        return total, count

    def close_interval(self) -> List[IntervalStats]:
        """This interval's per-channel statistics; resets accumulators.

        One :class:`IntervalStats` per channel (ascending id order), with
        arrays copied out so the caller owns its data; the engine
        absorbs them into the controller's
        :class:`~repro.vod.tracker.TrackingServer`.
        """
        out: List[IntervalStats] = []
        for i, cid in enumerate(self.channel_ids):
            out.append(
                IntervalStats(
                    channel_id=int(cid),
                    interval_seconds=self.interval_seconds,
                    arrivals=int(self._iv_arrivals[i]),
                    transition_counts=self._iv_transitions[i].copy(),
                    departure_counts=self._iv_departures[i].copy(),
                    upload_capacity_sum=self._iv_upload_sum[i],
                    upload_capacity_samples=int(self._iv_upload_samples[i]),
                    start_chunk_counts=self._iv_starts[i].copy(),
                )
            )
        self._iv_arrivals[:] = 0
        self._iv_transitions[:] = 0.0
        self._iv_departures[:] = 0.0
        self._iv_starts[:] = 0.0
        self._iv_upload_sum = [0.0] * self.num_channels
        self._iv_upload_samples[:] = 0
        if self._cursor and 2 * self._cursor >= self._trace_times.size:
            # Admission never reads behind the cursor: keep a copy of
            # the unconsumed suffix only.  Dropping once the cursor has
            # passed half of what is held copies O(trace) over a run.
            for name in _TRACE_COLUMNS:
                setattr(self, name, getattr(self, name)[self._cursor :].copy())
            self._cursor = 0
        return out

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the unconsumed trace suffix and the live rows only
        (checkpoints and the shard state the sharded engines gather).

        The live rows are gathered in ascending order, as
        :meth:`_compact` does, into the state copy; the live kernel is
        not touched.  Row numbering is unobservable, so the unpickled
        kernel steps exactly as the original does.
        """
        state = self.__dict__.copy()
        for name in _TRACE_COLUMNS:
            state[name] = state[name][self._cursor :]
        state["_cursor"] = 0
        live = np.flatnonzero(self._row_alive[: self._n])
        for name in self._ROW_ARRAYS:
            state[name] = state[name][live]
        if self._row_owned is not None:
            state["_row_upload"] = self._row_upload[live]
            state["_row_owned"] = self._row_owned[:, live]
        state["_n"] = self._total_active
        state["_stale"] = False
        return state

    # ------------------------------------------------------------------
    # Slot pool
    # ------------------------------------------------------------------
    # The columns of every mode; the P2P-only upload and ownership
    # columns are grown and compacted beside them.
    _ROW_ARRAYS = (
        "_row_chan",
        "_row_cell",
        "_row_received",
        "_row_enter",
        "_row_unsmooth",
        "_row_hold_until",
        "_row_hold_next",
        "_row_hold_from",
        "_row_alive",
    )

    def _grow(self, need: int) -> None:
        cap = self._row_chan.size
        while cap < need:
            cap += max(_GROW, cap // 2)
        n = self._n
        for name in self._ROW_ARRAYS:
            arr = getattr(self, name)
            fresh = np.zeros(cap, dtype=arr.dtype)
            fresh[:n] = arr[:n]
            setattr(self, name, fresh)
        if self._row_owned is not None:
            fresh = np.zeros(cap)
            fresh[:n] = self._row_upload[:n]
            self._row_upload = fresh
            fresh = np.zeros((self.num_chunks, cap), dtype=bool)
            fresh[:, :n] = self._row_owned[:, :n]
            self._row_owned = fresh

    def _compact(self) -> int:
        """Squeeze dead rows out of every column; returns the live count.

        The ascending gather preserves admission order — the ordering
        contract — and runs sequentially over each column.
        """
        if self._stale:
            n = self._n
            idx = np.flatnonzero(self._row_alive[:n])
            m = idx.size
            for name in self._ROW_ARRAYS:
                arr = getattr(self, name)
                # Fancy-index reads copy before the assignment writes,
                # so compacting into the same buffer is safe.
                arr[:m] = arr[idx]
            if self._row_owned is not None:
                self._row_upload[:m] = self._row_upload[idx]
                self._row_owned[:, :m] = self._row_owned[:, idx]
            self._n = m
            self._stale = False
        return self._n

    # ------------------------------------------------------------------
    # Step phases
    # ------------------------------------------------------------------
    def _admit_arrivals(self) -> int:
        end = int(
            np.searchsorted(self._trace_times, self.now, side="right")
        )
        count = end - self._cursor
        if count == 0:
            return 0
        sl = slice(self._cursor, end)
        self._cursor = end
        C, J = self.num_channels, self.num_chunks
        locals_ = self._trace_channel[sl]
        starts = self._trace_start[sl]
        uploads = self._trace_upload[sl]
        if count > 1:
            # Group per channel, keeping trace order within a channel —
            # the order the per-channel accumulators saw.
            order = np.argsort(locals_, kind="stable")
            locals_ = locals_[order]
            starts = starts[order]
            uploads = uploads[order]
        locals_ = locals_.astype(np.int64)
        cells = locals_ * J + starts
        # Appending at the tail keeps admission order even while dead
        # rows await compaction (relative order of live rows is stable).
        # Rows that do not fit squeeze out the dead ones first, so the
        # table grows only with the live population.
        if self._n + count > self._row_chan.size:
            self._compact()
            if self._n + count > self._row_chan.size:
                self._grow(self._n + count)
        n0 = self._n
        n1 = n0 + count
        self._row_chan[n0:n1] = locals_
        self._row_cell[n0:n1] = cells
        self._row_received[n0:n1] = 0.0
        self._row_enter[n0:n1] = self.now
        self._row_unsmooth[n0:n1] = -np.inf
        self._row_hold_until[n0:n1] = np.inf
        self._row_alive[n0:n1] = True
        if self._row_owned is not None:
            self._row_upload[n0:n1] = uploads
            self._row_owned[:, n0:n1] = False
        self._n = n1
        per_channel = np.bincount(locals_, minlength=C)
        sizes = per_channel.tolist()
        ends = np.cumsum(per_channel).tolist()
        upload_list = uploads.tolist()
        for c in np.flatnonzero(per_channel).tolist():
            # Element-by-element in arrival order: summation order is
            # part of the parity contract.
            self._iv_upload_sum[c] = sequential_sum(
                upload_list[ends[c] - sizes[c] : ends[c]],
                self._iv_upload_sum[c],
            )
        self._iv_arrivals += per_channel
        self._iv_upload_samples += per_channel
        entered = np.bincount(cells, minlength=C * J)
        self._counts += entered
        starts_flat = self._iv_starts.ravel()
        starts_flat += entered
        self._chan_count += per_channel
        self._total_active += count
        self.arrivals += count
        return count

    def _apply_transitions(
        self,
        rows: np.ndarray,
        locals_: np.ndarray,
        finished: np.ndarray,
        nxt: np.ndarray,
    ) -> None:
        """Fused depart-or-move application (hold releases and immediate
        completions) at the given row positions, all in the spill cell
        with ``received == 0.0``.  All effects are order-free across
        channels: integer counters and integer-valued counter adds
        (bincount adds touch untouched cells with +0, bitwise neutral on
        nonnegative counts, and integer-valued float sums are exact in
        any grouping)."""
        J = self.num_chunks
        departing = nxt < 0
        dep_count = int(np.count_nonzero(departing))
        if dep_count:
            d_rows = rows[departing]
            d_locals = locals_[departing]
            # A dead row stays in the spill cell with ``hold_until ==
            # +inf``, so neither the advance nor the release scan picks
            # it up before the next compaction drops it.
            self._row_alive[d_rows] = False
            if self._owners is not None:
                # A departing owner leaves every chunk it held.
                chunks, cols = np.nonzero(self._row_owned[:, d_rows])
                own_flat = self._owners.ravel()
                own_flat -= np.bincount(
                    d_locals[cols] * J + chunks, minlength=own_flat.size
                )
            dep_flat = self._iv_departures.ravel()
            dep_flat += np.bincount(
                d_locals * J + finished[departing], minlength=dep_flat.size
            )
            self._chan_count -= np.bincount(
                d_locals, minlength=self.num_channels
            )
            self._total_active -= dep_count
            self.departures += dep_count
            self._stale = True
        if dep_count < rows.size:
            moving = ~departing
            m_rows = rows[moving]
            m_locals = locals_[moving]
            m_next = nxt[moving]
            cells = m_locals * J + m_next
            self._row_cell[m_rows] = cells
            self._row_enter[m_rows] = self.now
            self._counts += np.bincount(cells, minlength=self._counts.size)
            tr_flat = self._iv_transitions.ravel()
            tr_flat += np.bincount(
                (m_locals * J + finished[moving]) * J + m_next,
                minlength=tr_flat.size,
            )

    def _release_holds(self) -> int:
        if self._hold_count == 0:
            return 0
        hold_until = self._row_hold_until[: self._n]
        rows = np.flatnonzero(hold_until <= self.now + 1e-9)
        if rows.size == 0:
            return 0
        self._hold_count -= int(rows.size)
        hold_until[rows] = np.inf
        self._apply_transitions(
            rows,
            self._row_chan[rows].astype(np.int64),
            self._row_hold_from[rows].astype(np.int64),
            self._row_hold_next[rows].astype(np.int64),
        )
        return int(rows.size)

    def _deliver_and_complete(self) -> Tuple[float, float, float, int]:
        """One delivery solve + fused download advance + completions.

        Returns the step's (cloud used, peer used, shortfall) totals and
        the completion event count.
        """
        C, J = self.num_channels, self.num_chunks
        now = self.now
        user_cap = self.config.user_rate_cap
        n = self._n
        counts = self._counts.reshape(C, J).astype(float)
        rates = np.zeros(C * J + 1)
        rates_cj = rates[: C * J].reshape(C, J)
        if self._delivery is not None:
            cloud_used, peer_used, shortfall = self._solve_p2p(
                counts, rates_cj
            )
        else:
            busy = counts > 0
            rates_cj[busy] = np.minimum(
                user_cap, self._capacity[busy] / counts[busy]
            )
            # Row-wise sums over a C-contiguous matrix are bitwise equal
            # to each channel's own 1-D pairwise .sum(); the totals are
            # sequential adds in ascending channel order.
            served = (rates_cj * counts).sum(axis=1)
            demand = counts.sum(axis=1) * user_cap
            cloud_used = sequential_sum(served.tolist())
            shortfall = sequential_sum(
                np.maximum(0.0, demand - served).tolist()
            )
            peer_used = 0.0

        events = 0
        if n:
            # ``rates`` is the C-contiguous (C, J) table plus one
            # trailing 0.0 for the spill cell, so ``(rates * dt)[cell]``
            # is elementwise ``rates[local, chunk] * dt`` for downloading
            # rows and an exact 0.0 for held and dead ones, whose
            # ``received`` stays 0.0 and never completes.
            cell = self._row_cell[:n]
            received = self._row_received[:n]
            rates *= self.config.dt
            received += np.take(rates, cell)
            comp = np.flatnonzero(received >= self.chunk_size - 1e-9)
            if comp.size:
                comp_local = self._row_chan[comp]
                comp_cell = cell[comp]
                if comp.size > 1:
                    # Channel-major, arrival order within each channel —
                    # the order the per-channel kernel consumes its
                    # behaviour stream and sojourn accumulator in.
                    order = np.argsort(comp_local, kind="stable")
                    comp = comp[order]
                    comp_local = comp_local[order]
                    comp_cell = comp_cell[order]
                comp_local = comp_local.astype(np.int64)
                finished = comp_cell - comp_local * J
                events = int(comp.size)
                # Every completing row leaves its queue for the spill
                # cell; the immediate movers re-enter one below.
                self._counts -= np.bincount(
                    comp_cell, minlength=self._counts.size
                )
                cell[comp] = self._spill
                received[comp] = 0.0
                if self._owners is not None:
                    self._take_ownership(comp, comp_local, finished)
                enters = self._row_enter[comp]
                sojourns = now - enters
                smooth = sojourns <= self._smooth_after
                unsmooth = ~smooth
                if unsmooth.any():
                    self._row_unsmooth[comp[unsmooth]] = now
                nxt = self._sample_transitions(
                    comp_local, finished, sojourns, smooth
                )
                release = enters + np.maximum(self.t0, sojourns)
                immediate = release <= now + 1e-9
                hold = ~immediate
                if hold.any():
                    h_rows = comp[hold]
                    self._row_hold_until[h_rows] = release[hold]
                    self._row_hold_next[h_rows] = nxt[hold]
                    self._row_hold_from[h_rows] = finished[hold]
                    self._hold_count += int(h_rows.size)
                if immediate.any():
                    self._apply_transitions(
                        comp[immediate],
                        comp_local[immediate],
                        finished[immediate],
                        nxt[immediate],
                    )
        return cloud_used, peer_used, shortfall, events

    def _solve_p2p(
        self, counts: np.ndarray, rates_cj: np.ndarray
    ) -> Tuple[float, float, float]:
        """Rarest-first P2P delivery for every channel in one call.

        :meth:`~repro.vod.delivery.P2PDelivery.allocate` gets every live
        row channel-major, in arrival order within each channel; the
        per-user rates land in ``rates_cj`` and the step totals add up
        in ascending channel order.
        """
        n = self._n
        keys = self._row_chan[:n]
        # Channel-major, arrival order within each channel; each
        # channel's segment is as long as its live population.
        if self._stale:
            live = np.flatnonzero(self._row_alive[:n])
            order = live[np.argsort(keys[live], kind="stable")]
        else:
            order = np.argsort(keys, kind="stable")
        bounds = np.zeros(self.num_channels + 1, dtype=np.int64)
        np.cumsum(self._chan_count, out=bounds[1:])
        outcome = self._delivery.allocate(
            counts,
            self._owners,
            self._row_owned[:, order],
            self._row_upload[order],
            bounds,
            self._capacity,
        )
        rates_cj[...] = outcome.per_user_rates
        return outcome.cloud_used, outcome.peer_used, outcome.cloud_shortfall

    def _take_ownership(
        self, comp: np.ndarray, comp_local: np.ndarray, finished: np.ndarray
    ) -> None:
        """Completed rows own their finished chunk; a first completion
        (not a re-download after a VCR jump) adds a live owner."""
        owned = self._row_owned
        newly = ~owned[finished, comp]
        owned[finished, comp] = True
        if newly.any():
            own_flat = self._owners.ravel()
            own_flat += np.bincount(
                comp_local[newly] * self.num_chunks + finished[newly],
                minlength=own_flat.size,
            )

    def _sample_transitions(
        self,
        comp_local: np.ndarray,
        finished: np.ndarray,
        sojourns: np.ndarray,
        smooth: np.ndarray,
    ) -> np.ndarray:
        """Quality recording + behaviour draws, channel by channel.

        ``comp_local`` is ascending (completions come out channel-major),
        so each contiguous segment is one channel's completions in
        arrival order — the exact order (and batch size) in which the
        per-channel kernel consumes that channel's behaviour stream,
        including its ``<= 4`` scalar path.
        """
        n = comp_local.size
        bounds = np.flatnonzero(np.diff(comp_local)) + 1
        starts = [0, *bounds.tolist(), n]
        quality = self.quality
        gens = self._gens
        channel_of = comp_local[starts[:-1]].tolist()
        u = np.empty(n)
        sojourn_acc = quality.sojourn_sum
        for k in range(len(starts) - 1):
            i0 = starts[k]
            i1 = starts[k + 1]
            seg = i1 - i0
            # One block draw per channel; numpy bit generators consume
            # the stream identically for n scalar draws and one
            # ``random(n)`` (the RandomStreams.batch invariant), so this
            # also covers the per-channel kernel's <= 4 scalar path.
            u[i0:i1] = gens[channel_of[k]].random(seg)
            if seg <= 4:
                # The scalar path accumulates sojourns one Python float
                # at a time; the batch path adds one pairwise .sum() per
                # segment.  Both orders are part of the parity contract.
                sojourn_acc = sequential_sum(
                    sojourns[i0:i1].tolist(), sojourn_acc
                )
            else:
                sojourn_acc += float(sojourns[i0:i1].sum())
        quality.sojourn_sum = sojourn_acc
        quality.total_retrievals += n
        quality.unsmooth_retrievals += n - int(np.count_nonzero(smooth))
        return _next_chunks(self._cumulative_t, finished, u)

    def _sample_quality(self) -> None:
        n = self._n
        users = self._chan_count
        if self._total_active:
            ok = self._row_unsmooth[:n] <= self.now - QUALITY_WINDOW_SECONDS
            overdue = (self._row_cell[:n] < self._spill) & (
                self.now - self._row_enter[:n] > self._overdue_after
            )
            ok &= ~overdue
            if self._stale:
                ok &= self._row_alive[:n]
            smooth = np.bincount(
                self._row_chan[:n][ok], minlength=self.num_channels
            ).tolist()
        else:
            smooth = [0] * self.num_channels
        ids = self._ids
        self.quality.record_sample(
            self.now, dict(zip(ids, smooth)), dict(zip(ids, users.tolist()))
        )

    # ------------------------------------------------------------------
    # Core loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance one ``dt`` step, logging its bandwidth in ``bandwidth``."""
        if self._n > self._total_active + (self._total_active >> 1) + _GROW:
            # Dead rows are masked out of every per-step pass, so
            # compaction is pure housekeeping — amortize it: only squeeze
            # once the table carries >50% garbage.
            self._compact()
        self.now += self.config.dt
        events = self._admit_arrivals()
        events += self._release_holds()
        cloud_used, peer_used, shortfall, completions = (
            self._deliver_and_complete()
        )
        events += completions
        self.bandwidth.append(
            self.now, cloud_used, peer_used, self.total_provisioned(), shortfall
        )
        self.steps += 1
        if events > self.peak_step_events:
            self.peak_step_events = events

        if self.now + 1e-9 >= self._next_quality_sample:
            self._sample_quality()
            self._next_quality_sample += QUALITY_WINDOW_SECONDS

    def advance_to(self, until: float) -> None:
        """Run steps until the clock reaches (or passes) ``until``."""
        if until < self.now:
            raise ValueError(
                f"cannot advance backwards to {until} < {self.now}"
            )
        while self.now + 1e-9 < until:
            self.step()

    def result(self) -> SimulationResult:
        """Snapshot the run's outputs."""
        return SimulationResult(
            config=self.config,
            quality=self.quality,
            bandwidth=self.bandwidth.snapshot(),
            arrivals=self.arrivals,
            departures=self.departures,
            final_population=self.population(),
            steps=self.steps,
            peak_step_events=self.peak_step_events,
        )

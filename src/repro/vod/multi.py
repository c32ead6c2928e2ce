"""The simulation kernel: every channel of a system in one structure-of-arrays pass.

:class:`MultiChannelSimulator` is the paper's testbed in simulation: it
advances in fixed steps of ``dt`` simulated seconds, admitting sessions
from the workload trace, delivering chunk bandwidth (client-server, or
P2P rarest-first with cloud top-up), completing retrievals — smooth iff
the sojourn was at most ``sojourn_slack * T0`` — and moving each user to
the next chunk sampled from the channel's behaviour matrix, or out.
Cloud capacity per chunk is an input, set by the provisioning controller
between intervals.  Every engine runs it: the closed loop over the whole
scenario, the catalog engines once per shard.

All users of all channels live in one dense **row table** in admission
order — a structure-of-arrays column per attribute (channel, current
chunk, received bytes, enter time, upload capacity, hold state, alive
flag, and in P2P mode the chunks owned) with a tail cursor for O(1)
appends.  Departures only flip the alive flag (and drop the chunk to
``-1`` so dead rows mask out of delivery); the table is re-packed by one
stable ``flatnonzero`` gather, *lazily* — once per epoch at the report
boundary, or mid-epoch only when dead rows exceed half the table.
Per-channel state the delivery needs is a ``(channels, chunks)`` capacity
matrix (plus, in P2P mode, a ``(channels, chunks)`` live-owner count),
and each step runs:

1. fused admissions from the arrival-sorted trace arrays;
2. fused hold releases across every channel;
3. the delivery solve: one ``(channels, chunks)`` client-server solve
   (bincount of downloaders, elementwise rate shares, row sums), or one
   :meth:`~repro.vod.delivery.P2PDelivery.allocate` per channel with
   downloaders, in ascending channel order;
4. fused download advance and completion detection;
5. per-channel completion handling in ascending channel order (the only
   phase that must stay a loop: behaviour-stream draws and the sojourn
   accumulator are per-channel ordered state), then fused transition
   application;
6. quality sampling on the 5-minute grid.

A user is in exactly one of two phases: downloading a chunk (``chunk >=
0``, a job in that chunk's queue), or ``HOLDING`` — the download
finished before the chunk's playback slot ended, so the user watches
until the slot ends, then moves on (or departs).  This playback pacing
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
  phases can be fused across channels;
* every float reduction either stays per-channel in arrival order (the
  upload-capacity and sojourn accumulators, element-by-element, and the
  P2P peer pools), or is a row-wise ``.sum(axis=1)`` over a
  C-contiguous matrix (bitwise equal to the per-channel 1-D ``.sum()``),
  or a sequential Python add over channels in ascending id order (the
  step's bandwidth totals);
* per-channel RNG streams are keyed by global channel id and consumed
  in the same order and batch sizes as the per-channel kernel,
  including its ``<= 4`` completions scalar path;
* row numbering is unobservable — every reported quantity derives from
  per-channel *arrival order*, which the row table maintains
  structurally: admissions append channel-sorted at the tail, and the
  compaction gather is an ascending index pick, so each channel's
  subsequence of the table is always its arrival order;
* dead and held rows mask out of delivery through the same ``chunk >=
  0`` test, spilling into a dropped overflow bin and gathering a
  trailing ``0.0`` rate — an exact ``+ 0.0`` on their buffers, so
  deferring compaction never perturbs a float.

P2P parity adds two: a channel's ``allocate`` sees exactly its live
rows, in arrival order — the owners and upload pools the per-channel
peer-supply mirror held — and the live-owner counts change only on a
first completion of a chunk (+1) and on departure (minus the row's
ownership), the per-channel store's rules.  Channels without
downloaders skip the solve: it would add an exact ``0.0`` to each
total.

The kernel needs a uniform channel set (shared chunk count, rate,
duration and behaviour matrix), which every channel family in the repo
(:func:`~repro.vod.channel.make_uniform_channels`) produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple, Union

import numpy as np

from repro.sim.rng import RandomStreams
from repro.vod.channel import ChannelSpec
from repro.vod.delivery import P2PDelivery
from repro.vod.metrics import QualityTracker
from repro.vod.tracker import IntervalStats

if TYPE_CHECKING:
    from repro.workload.trace import ShardTraceArrays

__all__ = [
    "HOLDING",
    "VoDSystemConfig",
    "BandwidthSample",
    "BandwidthLog",
    "SimulationResult",
    "MultiChannelSimulator",
    "channels_are_uniform",
]

_GROW = 256


HOLDING = -2  # chunk sentinel: the user is watching, not downloading


@dataclass(frozen=True)
class VoDSystemConfig:
    """Simulator parameters.

    Attributes
    ----------
    mode:
        ``"client-server"`` or ``"p2p"``.
    dt:
        Step length in simulated seconds. Must divide the quality sample
        interval reasonably; 5-30 s is a good range.
    user_rate_cap:
        Per-user download cap, normally the VM bandwidth R.
    quality_window / quality_sample_interval:
        The "smooth in the past 5 minutes" metric parameters.
    sojourn_slack:
        A retrieval is smooth iff sojourn <= slack * T0. The paper's
        criterion is slack = 1.
    seed:
        Master seed for behaviour sampling.
    """

    mode: str = "client-server"
    dt: float = 10.0
    user_rate_cap: float = 10e6 / 8.0
    quality_window: float = 300.0
    quality_sample_interval: float = 300.0
    sojourn_slack: float = 1.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.mode not in ("client-server", "p2p"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.user_rate_cap <= 0:
            raise ValueError("user_rate_cap must be > 0")
        if self.quality_window <= 0 or self.quality_sample_interval <= 0:
            raise ValueError("quality parameters must be > 0")
        if self.sojourn_slack <= 0:
            raise ValueError("sojourn_slack must be > 0")


@dataclass(frozen=True)
class BandwidthSample:
    """Aggregate bandwidth usage over one step."""

    time: float
    cloud_used: float  # bytes/second
    peer_used: float  # bytes/second
    provisioned: float  # bytes/second (sum of per-chunk capacities)
    shortfall: float


class BandwidthLog:
    """Preallocated array-backed log of per-step bandwidth usage.

    Replaces the historical ``List[BandwidthSample]``: appending a step
    is one row write into a doubling array, and the per-field series the
    experiment layer aggregates over are zero-copy views. Iteration and
    indexing still yield :class:`BandwidthSample` objects, so existing
    consumers (``for s in result.bandwidth``, ``len``, ``[i]``) are
    unaffected.
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

    def _sample(self, i: int) -> BandwidthSample:
        return BandwidthSample(*self._data[i])

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[BandwidthSample, List[BandwidthSample]]:
        if isinstance(index, slice):
            return [self._sample(i) for i in range(*index.indices(self._len))]
        i = index if index >= 0 else self._len + index
        if not 0 <= i < self._len:
            raise IndexError(index)
        return self._sample(i)

    def __iter__(self) -> Iterator[BandwidthSample]:
        for i in range(self._len):
            yield self._sample(i)

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

    def bandwidth_series(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(times, cloud_used, peer_used) arrays, bytes/second."""
        return (
            self.bandwidth.time.copy(),
            self.bandwidth.cloud_used.copy(),
            self.bandwidth.peer_used.copy(),
        )

    def mean_cloud_bandwidth(self) -> float:
        if not len(self.bandwidth):
            return 0.0
        return float(np.mean(self.bandwidth.cloud_used))


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
    capacities between epochs (``set_cloud_capacity``), read ``bandwidth``,
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
        self._smooth_after = config.sojourn_slack * self.t0 + 1e-9
        self._overdue_after = config.sojourn_slack * self.t0
        self.channel_ids = np.asarray(ids, dtype=np.int64)
        self._ids = ids
        self._local_of: Dict[int, int] = {cid: i for i, cid in enumerate(ids)}
        self._cumulative = np.cumsum(
            np.asarray(first.behaviour, dtype=float), axis=1
        )
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
        self.quality = QualityTracker(config.quality_window)
        self.bandwidth = BandwidthLog()
        self._next_quality_sample = config.quality_sample_interval

        # Trace (already arrival-sorted); unknown channels are skipped.
        known = np.isin(trace.channels, self.channel_ids)
        channels_arr = trace.channels[known]
        lookup = np.searchsorted(self.channel_ids, channels_arr)
        self._trace_times = trace.times[known]
        self._trace_channel = lookup.astype(np.int64)
        self._trace_start = trace.start_chunks[known]
        self._trace_upload = trace.upload_capacities[known]
        self._cursor = 0

        # Provisioned capacity: (C, J) matrix + per-channel sums, reduced
        # in ascending-id order for the total.
        C, J = self.num_channels, self.num_chunks
        self._capacity = np.zeros((C, J))
        self._capacity_sums: Dict[int, float] = {cid: 0.0 for cid in ids}
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
        cap = _GROW
        self._n = 0  # rows in use, including dead ones awaiting compaction
        self._row_chan = np.empty(cap, dtype=np.int64)
        self._row_chunk = np.empty(cap, dtype=np.int64)
        self._row_received = np.empty(cap)
        self._row_enter = np.empty(cap)
        self._row_upload = np.empty(cap)
        self._row_unsmooth = np.empty(cap)
        self._row_hold_until = np.empty(cap)
        self._row_hold_next = np.empty(cap, dtype=np.int64)
        self._row_hold_from = np.empty(cap, dtype=np.int64)
        self._row_alive = np.empty(cap, dtype=bool)
        self._stale = False
        # Number of rows in the between-chunks hold state; the delivery
        # solve skips its hold masking entirely when zero.
        self._hold_count = 0
        self._chan_count = np.zeros(C, dtype=np.int64)
        self._total_active = 0
        # P2P only: the rarest-first solve, the ownership column (chunk-
        # major, so a channel's owner masks gather as contiguous rows)
        # and the per-(channel, chunk) count of live owners.  The
        # client-server hot path never touches them.
        if config.mode == "p2p":
            self._delivery = P2PDelivery(config.user_rate_cap)
            self._row_owned = np.empty((J, cap), dtype=bool)
            self._owners = np.zeros((C, J), dtype=np.int64)
        else:
            self._delivery = None
            self._row_owned = None
            self._owners = None

    # ------------------------------------------------------------------
    # External control surface
    # ------------------------------------------------------------------
    def set_cloud_capacity(self, channel_id: int, capacity: np.ndarray) -> None:
        """Install the provisioned per-chunk cloud bandwidth (bytes/s)."""
        try:
            local = self._local_of[channel_id]
        except KeyError:
            raise KeyError(f"unknown channel {channel_id}") from None
        cap = np.asarray(capacity, dtype=float)
        if cap.shape != (self.num_chunks,):
            raise ValueError(
                f"capacity must have {self.num_chunks} entries, got {cap.shape}"
            )
        if np.any(cap < 0):
            raise ValueError("capacities must be nonnegative")
        self._capacity[local] = cap
        self._capacity_sums[channel_id] = cap.sum()
        self._capacity_dirty = True

    def total_provisioned(self) -> float:
        if self._capacity_dirty:
            # Deferred: one ascending-channel reduction of the cached
            # per-channel sums (never a re-reduction of every array).
            self._provisioned_total = float(sum(self._capacity_sums.values()))
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

        Split out from :meth:`mean_peer_upload` so the sharded engine
        can merge the raw accumulators across shards before dividing."""
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

    def mean_peer_upload(self) -> float:
        """Mean upload capacity over all active peers (bytes/second)."""
        total, count = self.peer_upload_totals()
        return total / count if count else 0.0

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
        return out

    # ------------------------------------------------------------------
    # Slot pool
    # ------------------------------------------------------------------
    _ROW_ARRAYS = (
        "_row_chan",
        "_row_chunk",
        "_row_received",
        "_row_enter",
        "_row_upload",
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
            fresh = np.empty(cap, dtype=arr.dtype)
            fresh[:n] = arr[:n]
            setattr(self, name, fresh)
        if self._row_owned is not None:
            fresh = np.empty((self.num_chunks, cap), dtype=bool)
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
        # Appending at the tail keeps admission order even while dead
        # rows await compaction (relative order of live rows is stable).
        n0 = self._n
        n1 = n0 + count
        if n1 > self._row_chan.size:
            self._grow(n1)
        self._row_chan[n0:n1] = locals_
        self._row_chunk[n0:n1] = starts
        self._row_received[n0:n1] = 0.0
        self._row_enter[n0:n1] = self.now
        self._row_upload[n0:n1] = uploads
        self._row_unsmooth[n0:n1] = -np.inf
        self._row_alive[n0:n1] = True
        if self._row_owned is not None:
            self._row_owned[:, n0:n1] = False
        self._n = n1
        uniq, first_idx, per_channel = np.unique(
            locals_, return_index=True, return_counts=True
        )
        for c, i0, n in zip(
            uniq.tolist(), first_idx.tolist(), per_channel.tolist()
        ):
            # Element-by-element in arrival order: summation order is
            # part of the parity contract.
            # ``sum(seq, start)`` adds left to right from ``start`` —
            # the same float operations as an explicit loop.
            self._iv_upload_sum[c] = sum(
                uploads[i0 : i0 + n].tolist(), self._iv_upload_sum[c]
            )
        self._iv_arrivals[uniq] += per_channel
        self._iv_upload_samples[uniq] += per_channel
        starts_flat = self._iv_starts.ravel()
        starts_flat += np.bincount(
            locals_ * self.num_chunks + starts, minlength=starts_flat.size
        )
        self._chan_count[uniq] += per_channel
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
        completions) at the given row positions.  All effects are
        order-free across channels: integer counters and integer-valued
        counter adds (bincount adds touch untouched cells with +0,
        bitwise neutral on nonnegative counts, and integer-valued float
        sums are exact in any grouping)."""
        J = self.num_chunks
        departing = nxt < 0
        dep_count = int(departing.sum())
        if dep_count:
            d_rows = rows[departing]
            d_locals = locals_[departing]
            self._row_alive[d_rows] = False
            # Dead rows must not look held: the release scan runs before
            # the next compaction can drop them.
            self._row_chunk[d_rows] = -1
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
            self._row_chunk[m_rows] = nxt[moving]
            self._row_received[m_rows] = 0.0
            self._row_enter[m_rows] = self.now
            tr_flat = self._iv_transitions.ravel()
            tr_flat += np.bincount(
                (locals_[moving] * J + finished[moving]) * J + nxt[moving],
                minlength=tr_flat.size,
            )

    def _release_holds(self) -> int:
        if self._hold_count == 0:
            return 0
        n = self._n
        due = (self._row_chunk[:n] == HOLDING) & (
            self._row_hold_until[:n] <= self.now + 1e-9
        )
        rows = np.flatnonzero(due)
        if rows.size == 0:
            return 0
        self._hold_count -= int(rows.size)
        self._apply_transitions(
            rows,
            self._row_chan[rows],
            self._row_hold_from[rows],
            self._row_hold_next[rows],
        )
        return int(rows.size)

    def _deliver_and_complete(self) -> Tuple[float, float, float, int]:
        """One delivery solve + fused download advance + completions.

        Returns the step's (cloud used, peer used, shortfall) totals and
        the completion event count.
        """
        C, J = self.num_channels, self.num_chunks
        dt = self.config.dt
        now = self.now
        user_cap = self.config.user_rate_cap
        n = self._n
        chan = self._row_chan[:n]
        chunk = self._row_chunk[:n]
        holds = self._stale or self._hold_count > 0
        if holds:
            # Only held rows (chunk == HOLDING) and dead rows awaiting
            # compaction (chunk == -1) fail the mask; every other live
            # row is downloading.  Both spill into one extra bin that is
            # dropped from the counts and gather the appended 0.0 rate
            # below (an exact ``+ 0.0`` on their nonnegative buffers),
            # so the whole table advances in sequential passes with no
            # compression — and no per-step compaction.
            dl_mask = chunk >= 0
            flat = np.where(dl_mask, chan * J + chunk, C * J)
            counts = (
                np.bincount(flat, minlength=C * J + 1)[: C * J]
                .reshape(C, J)
                .astype(float)
            )
        else:
            flat = chan * J + chunk
            counts = (
                np.bincount(flat, minlength=C * J)
                .reshape(C, J)
                .astype(float)
            )
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
            # sequential Python adds in ascending channel order
            # (``sum(seq, 0.0)`` adds left to right from 0.0).
            served = (rates_cj * counts).sum(axis=1)
            demand = counts.sum(axis=1) * user_cap
            cloud_used = sum(served.tolist(), 0.0)
            shortfall = sum(
                np.maximum(0.0, demand - served).tolist(), 0.0
            )
            peer_used = 0.0

        events = 0
        if n:
            # ``rates`` is the C-contiguous (C, J) table plus one
            # trailing 0.0 for the spill bin, so the flat gather is the
            # same elements as ``rates[local, chunk]`` for downloading
            # rows and an exact 0.0 for masked ones; rows are unique,
            # so the whole-column add matches per-row updates.
            recv = self._row_received[:n] + rates[flat] * dt
            if holds:
                comp_mask = (recv >= self.chunk_size - 1e-9) & dl_mask
            else:
                comp_mask = recv >= self.chunk_size - 1e-9
            self._row_received[:n] = recv
            if comp_mask.any():
                comp = np.flatnonzero(comp_mask)
                comp_local = chan[comp]
                finished = chunk[comp]
                if comp.size > 1:
                    # Channel-major, arrival order within each channel —
                    # the order the per-channel kernel consumes its
                    # behaviour stream and sojourn accumulator in.
                    order = np.argsort(comp_local, kind="stable")
                    comp = comp[order]
                    comp_local = comp_local[order]
                    finished = finished[order]
                events = int(comp.size)
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
                    self._row_chunk[h_rows] = HOLDING
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
        """Rarest-first P2P delivery, channel by channel.

        Every channel with downloaders hands
        :meth:`~repro.vod.delivery.P2PDelivery.allocate` its live rows in
        arrival order; the per-user rates land in ``rates_cj`` and the
        step totals add up in ascending channel order.
        """
        n = self._n
        chan = self._row_chan[:n]
        # Channel-major, arrival order within each channel; each
        # channel's segment is as long as its live population.
        if self._stale:
            live = np.flatnonzero(self._row_alive[:n])
            order = live[np.argsort(chan[live], kind="stable")]
        else:
            order = np.argsort(chan, kind="stable")
        ends = np.cumsum(self._chan_count).tolist()
        allocate = self._delivery.allocate
        cloud_used = peer_used = shortfall = 0.0
        for c in np.flatnonzero(counts.any(axis=1)).tolist():
            rows = order[ends[c] - int(self._chan_count[c]) : ends[c]]
            outcome = allocate(
                counts[c],
                self._owners[c],
                self._row_owned[:, rows],
                self._row_upload[rows],
                self._capacity[c],
            )
            rates_cj[c] = outcome.per_user_rates
            cloud_used += outcome.cloud_used
            peer_used += outcome.peer_used
            shortfall += outcome.cloud_shortfall
        return cloud_used, peer_used, shortfall

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
            u[i0:i1] = gens[comp_local[i0]].random(seg)
            if seg <= 4:
                # The scalar path accumulates sojourns one Python float
                # at a time; the batch path adds one pairwise np.sum per
                # segment.  Both orders are part of the parity contract
                # (``sum(seq, start)`` adds left to right from start).
                sojourn_acc = sum(sojourns[i0:i1].tolist(), sojourn_acc)
            else:
                sojourn_acc += float(np.sum(sojourns[i0:i1]))
        quality.sojourn_sum = sojourn_acc
        quality.total_retrievals += n
        quality.unsmooth_retrievals += n - int(np.count_nonzero(smooth))
        # Fused next-chunk decision: elementwise-identical to the scalar
        # ``-1 if u >= cum[-1] else (cum <= u).sum()`` rule.
        rows = self._cumulative[finished]
        nxt = (rows <= u[:, None]).sum(axis=1)
        nxt[u >= rows[:, -1]] = -1
        return nxt

    def _sample_quality(self) -> None:
        n = self._n
        users = self._chan_count
        if self._total_active:
            window = self.config.quality_window
            ok = self._row_unsmooth[:n] <= self.now - window
            overdue = (self._row_chunk[:n] >= 0) & (
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
    def step(self) -> BandwidthSample:
        """Advance one ``dt`` step; returns the step's bandwidth sample."""
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
        provisioned = self.total_provisioned()
        self.bandwidth.append(
            self.now, cloud_used, peer_used, provisioned, shortfall
        )
        self.steps += 1
        if events > self.peak_step_events:
            self.peak_step_events = events

        if self.now + 1e-9 >= self._next_quality_sample:
            self._sample_quality()
            self._next_quality_sample += self.config.quality_sample_interval
        return BandwidthSample(
            time=self.now,
            cloud_used=cloud_used,
            peer_used=peer_used,
            provisioned=provisioned,
            shortfall=shortfall,
        )

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

"""Per-channel user state stores.

The fluid simulator tracks, for every active user: the chunk currently
being downloaded, bytes received of it, queue-entry time, upload capacity,
and the set of chunks buffered so far. A struct-of-arrays layout keeps the
per-step hot path (progress updates, per-chunk demand counts, peer supply
aggregation) vectorized, which is what makes paper-scale runs (~2500
concurrent users over a week) tractable in Python.

A user is in exactly one of two phases:

* ``chunk >= 0`` — downloading that chunk (a job in its queue);
* ``chunk == HOLDING`` — the download finished before the chunk's playback
  slot ended, so the user is watching until ``hold_until``, then moves to
  ``hold_next`` (or departs). This playback pacing is what keeps session
  durations tied to the video length rather than to raw bandwidth, and is
  exactly the regime in which the paper's "mean sojourn = T0" equilibrium
  is self-consistent.

Slots of departed users are reclaimed through a free-list, so long
flash-crowd runs stop growing the arrays monotonically. A user id stays
stable (and exclusively owned) for the user's whole session — the tracker
can key on it — and is only reissued after that user departs.
Because reuse makes slot order diverge from arrival order, every index
query returns user ids in **arrival order** (see :meth:`active_indices`);
under the historical monotonic allocator the two orders coincide, which is
what keeps the vectorized kernel's float-reduction order — and therefore
its fixed-seed trajectories — byte-identical to the original scalar
kernel's (the golden-parity contract in docs/performance.md).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = ["UserStore", "HOLDING"]

_GROW = 256  # slots added per growth step

HOLDING = -2  # chunk sentinel: user is watching, not downloading
_DEPART = -1  # hold_next sentinel: leave the channel when the hold expires


class UserStore:
    """State of all users (past and present) of one channel.

    Rows are user slots. ``active`` marks live users; a departed user's
    slot goes on the free-list and is reissued to a later arrival (its
    buffer was cleared on departure, so stale ownership can never leak).

    Mutations come in scalar and batch flavours; the simulator's step
    kernel uses the batch ones (`complete_chunks`, `begin_holds`,
    `start_chunk_downloads`, `depart_many`) so a step costs O(arrays),
    not O(users) Python calls.
    """

    def __init__(self, num_chunks: int, capacity: int = _GROW) -> None:
        if num_chunks <= 0:
            raise ValueError("need at least one chunk")
        self.num_chunks = num_chunks
        self._size = 0
        cap = max(1, capacity)
        self.active = np.zeros(cap, dtype=bool)
        self.chunk = np.full(cap, -1, dtype=np.int64)
        self.received = np.zeros(cap, dtype=float)
        self.enter_time = np.zeros(cap, dtype=float)
        self.arrival_time = np.zeros(cap, dtype=float)
        self.upload = np.zeros(cap, dtype=float)
        self.owned = np.zeros((cap, num_chunks), dtype=bool)
        self.last_unsmooth = np.full(cap, -np.inf, dtype=float)
        self.retrievals = np.zeros(cap, dtype=np.int64)
        self.unsmooth_retrievals = np.zeros(cap, dtype=np.int64)
        self.hold_until = np.zeros(cap, dtype=float)
        self.hold_next = np.full(cap, _DEPART, dtype=np.int64)
        self.hold_from = np.full(cap, -1, dtype=np.int64)
        # Arrival sequence number per slot: the canonical user ordering.
        self.seq = np.zeros(cap, dtype=np.int64)
        # Active owners per chunk, maintained incrementally so the P2P
        # hot path never has to reduce the ownership matrix.
        self._owners_count = np.zeros(num_chunks, dtype=np.int64)
        # Peer-supply mirror: transposed ownership plus upload capacity of
        # the live users as *columns in arrival order*, so the rarest-first
        # loop reads each chunk's owner mask as a contiguous row view with
        # no per-step slicing. Departures tombstone their column (all-False
        # owners, zero upload — invisible to masks and sums); compaction
        # squeezes tombstones out once they pile up, preserving order.
        self._mirror_owned = np.zeros((num_chunks, cap), dtype=bool)
        self._mirror_upload = np.zeros(cap, dtype=float)
        self._col_of = np.full(cap, -1, dtype=np.int64)  # slot -> column
        self._cols = 0  # mirror columns in use (live + tombstones)
        self._tombstones = 0
        self._next_seq = 0
        self._free: List[int] = []  # reclaimed slots (LIFO)
        self._reused = False  # slot order may differ from arrival order
        # Index caches for the step kernel; maintained incrementally.
        self._active_cache: Optional[np.ndarray] = None
        self._pending_add: List[int] = []  # arrivals not yet in the cache
        self._downloading_cache: Optional[np.ndarray] = None

    def __len__(self) -> int:
        """Slots ever allocated (the arrays' high-water mark)."""
        return self._size

    @property
    def num_active(self) -> int:
        return int(self.active[: self._size].sum())

    @property
    def free_slots(self) -> int:
        """Reclaimed slots currently awaiting reuse."""
        return len(self._free)

    def _grow(self) -> None:
        extra = max(_GROW, self.active.size // 2)
        self.active = np.concatenate([self.active, np.zeros(extra, dtype=bool)])
        self.chunk = np.concatenate([self.chunk, np.full(extra, -1, dtype=np.int64)])
        for name in ("received", "enter_time", "arrival_time", "upload"):
            arr = getattr(self, name)
            setattr(self, name, np.concatenate([arr, np.zeros(extra, dtype=float)]))
        self.owned = np.concatenate(
            [self.owned, np.zeros((extra, self.num_chunks), dtype=bool)]
        )
        self.last_unsmooth = np.concatenate(
            [self.last_unsmooth, np.full(extra, -np.inf, dtype=float)]
        )
        self.retrievals = np.concatenate(
            [self.retrievals, np.zeros(extra, dtype=np.int64)]
        )
        self.unsmooth_retrievals = np.concatenate(
            [self.unsmooth_retrievals, np.zeros(extra, dtype=np.int64)]
        )
        self.hold_until = np.concatenate(
            [self.hold_until, np.zeros(extra, dtype=float)]
        )
        self.hold_next = np.concatenate(
            [self.hold_next, np.full(extra, _DEPART, dtype=np.int64)]
        )
        self.hold_from = np.concatenate(
            [self.hold_from, np.full(extra, -1, dtype=np.int64)]
        )
        self.seq = np.concatenate([self.seq, np.zeros(extra, dtype=np.int64)])
        self._col_of = np.concatenate(
            [self._col_of, np.full(extra, -1, dtype=np.int64)]
        )

    def _mirror_alloc(self, count: int) -> np.ndarray:
        """Claim ``count`` fresh mirror columns (compact/grow as needed)."""
        if self._cols + count > self._mirror_upload.size:
            if self._tombstones:
                self._mirror_compact()
            while self._cols + count > self._mirror_upload.size:
                extra = max(_GROW, self._mirror_upload.size // 2)
                self._mirror_owned = np.concatenate(
                    [self._mirror_owned,
                     np.zeros((self.num_chunks, extra), dtype=bool)],
                    axis=1,
                )
                self._mirror_upload = np.concatenate(
                    [self._mirror_upload, np.zeros(extra, dtype=float)]
                )
        cols = np.arange(self._cols, self._cols + count)
        self._cols += count
        return cols

    def _mirror_compact(self) -> None:
        """Squeeze tombstoned columns out of the peer-supply mirror.

        Live columns keep their relative (arrival) order, so the masks and
        reduction order the delivery loop sees are unchanged.
        """
        live = self.active_indices()
        cols = self._col_of[live]  # ascending: columns are issued in order
        n = live.size
        self._mirror_owned[:, :n] = self._mirror_owned[:, cols]
        self._mirror_owned[:, n : self._cols] = False
        self._mirror_upload[:n] = self._mirror_upload[cols]
        self._mirror_upload[n : self._cols] = 0.0
        self._col_of[live] = np.arange(n)
        self._cols = n
        self._tombstones = 0

    def peer_supply_mirror(self) -> Tuple[np.ndarray, np.ndarray]:
        """(owner masks, upload) over the mirror's in-use columns.

        Row ``j`` of the first array is chunk ``j``'s owner mask; the
        second is the matching per-column upload capacity. Columns are
        live users in arrival order, plus tombstones that no mask selects.
        Returned arrays are views — callers must not mutate them.
        """
        return (
            self._mirror_owned[:, : self._cols],
            self._mirror_upload[: self._cols],
        )

    def _invalidate(self) -> None:
        """Drop the phase (downloading) index cache."""
        self._downloading_cache = None

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def add_user(self, now: float, start_chunk: int, upload_capacity: float) -> int:
        """Register an arriving user; returns the user id (row index)."""
        if not 0 <= start_chunk < self.num_chunks:
            raise ValueError(f"start chunk {start_chunk} out of range")
        if upload_capacity < 0:
            raise ValueError("upload capacity must be >= 0")
        if self._free:
            uid = self._free.pop()
            self._reused = True
        else:
            if self._size == self.active.size:
                self._grow()
            uid = self._size
            self._size += 1
        col = self._mirror_alloc(1)[0]  # fresh columns are already clear
        self._mirror_upload[col] = upload_capacity
        self._col_of[uid] = col
        self.active[uid] = True
        self.chunk[uid] = start_chunk
        self.received[uid] = 0.0
        self.enter_time[uid] = now
        self.arrival_time[uid] = now
        self.upload[uid] = upload_capacity
        self.owned[uid, :] = False
        self.last_unsmooth[uid] = -np.inf
        self.retrievals[uid] = 0
        self.unsmooth_retrievals[uid] = 0
        # hold_until/hold_next/hold_from are deliberately not reset: they
        # are only ever read while chunk == HOLDING, which begin_hold sets
        # together with all three fields.
        self.seq[uid] = self._next_seq
        self._next_seq += 1
        # The arrival-ordered active cache extends by exactly this uid;
        # batch the append so a burst of arrivals costs one concatenate.
        if self._active_cache is not None:
            self._pending_add.append(uid)
        self._invalidate()
        return uid

    def add_users(
        self, now: float, start_chunks: np.ndarray, upload_capacities: np.ndarray
    ) -> np.ndarray:
        """Batch :meth:`add_user`; returns the assigned user ids in order.

        Slot assignment matches what the equivalent sequence of scalar
        calls would do: free-list slots are reissued LIFO first, then
        fresh slots, and arrival sequence numbers run in input order.
        """
        count = len(start_chunks)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        start_chunks = np.asarray(start_chunks, dtype=np.int64)
        upload_capacities = np.asarray(upload_capacities, dtype=float)
        if np.any(start_chunks < 0) or np.any(start_chunks >= self.num_chunks):
            raise ValueError("start chunk out of range")
        if np.any(upload_capacities < 0):
            raise ValueError("upload capacity must be >= 0")
        from_free = min(count, len(self._free))
        uids = np.empty(count, dtype=np.int64)
        if from_free:
            uids[:from_free] = self._free[: -from_free - 1 : -1]  # LIFO pops
            del self._free[-from_free:]
            self._reused = True
        fresh = count - from_free
        if fresh:
            while self._size + fresh > self.active.size:
                self._grow()
            uids[from_free:] = np.arange(self._size, self._size + fresh)
            self._size += fresh
        cols = self._mirror_alloc(count)  # fresh columns are already clear
        self._mirror_upload[cols] = upload_capacities
        self._col_of[uids] = cols
        self.active[uids] = True
        self.chunk[uids] = start_chunks
        self.received[uids] = 0.0
        self.enter_time[uids] = now
        self.arrival_time[uids] = now
        self.upload[uids] = upload_capacities
        self.owned[uids] = False
        self.last_unsmooth[uids] = -np.inf
        self.retrievals[uids] = 0
        self.unsmooth_retrievals[uids] = 0
        # hold_* fields keep stale values; see add_user for why that is
        # safe (only read while chunk == HOLDING).
        self.seq[uids] = np.arange(self._next_seq, self._next_seq + count)
        self._next_seq += count
        if self._active_cache is not None:
            self._pending_add.extend(uids.tolist())
        self._invalidate()
        return uids

    def start_chunk_download(self, uid: int, chunk: int, now: float) -> None:
        """Move a user into chunk queue ``chunk`` at time ``now``."""
        self.chunk[uid] = chunk
        self.received[uid] = 0.0
        self.enter_time[uid] = now
        self._invalidate()

    def start_chunk_downloads(
        self, uids: np.ndarray, chunks: np.ndarray, now: float
    ) -> None:
        """Batch :meth:`start_chunk_download` for distinct ``uids``."""
        self.chunk[uids] = chunks
        self.received[uids] = 0.0
        self.enter_time[uids] = now
        self._invalidate()

    def complete_chunk(self, uid: int, now: float, smooth: bool) -> int:
        """Record a finished retrieval; returns the finished chunk index."""
        finished = int(self.chunk[uid])
        if not self.owned[uid, finished]:  # VCR jumps can re-download
            self.owned[uid, finished] = True
            self._owners_count[finished] += 1
        self._mirror_owned[finished, self._col_of[uid]] = True
        self.retrievals[uid] += 1
        if not smooth:
            self.unsmooth_retrievals[uid] += 1
            self.last_unsmooth[uid] = now
        return finished

    def complete_chunks(
        self, uids: np.ndarray, now: float, smooth: np.ndarray
    ) -> np.ndarray:
        """Batch :meth:`complete_chunk`; returns the finished chunk per uid."""
        finished = self.chunk[uids].copy()
        newly = ~self.owned[uids, finished]  # VCR jumps can re-download
        self.owned[uids, finished] = True
        np.add.at(self._owners_count, finished[newly], 1)
        self._mirror_owned[finished, self._col_of[uids]] = True
        self.retrievals[uids] += 1
        unsmooth = uids[~smooth]
        if unsmooth.size:
            self.unsmooth_retrievals[unsmooth] += 1
            self.last_unsmooth[unsmooth] = now
        return finished

    def grant_chunks(self, uid: int, chunks) -> None:
        """Place chunks in a user's buffer outside the download path.

        ``chunks`` is a chunk index, a sequence of indices, or a boolean
        mask over all chunks. The ownership matrix has derived state (the
        per-chunk owner counts and the peer-supply mirror), so seeding a
        buffer — tests, warm-started experiments — must go through here
        rather than poking ``store.owned`` directly.
        """
        if not self.active[uid]:
            raise ValueError(f"user {uid} is not active")
        chunks = np.atleast_1d(np.asarray(chunks))
        if chunks.dtype == bool:
            chunks = np.nonzero(chunks)[0]
        newly = chunks[~self.owned[uid, chunks]]
        self.owned[uid, newly] = True
        self._owners_count[newly] += 1
        self._mirror_owned[newly, self._col_of[uid]] = True

    def begin_hold(self, uid: int, until: float, next_chunk: int, from_chunk: int) -> None:
        """Put a user into the watching phase until ``until``.

        ``next_chunk`` is the queue to enter when the hold expires, or -1
        to depart; ``from_chunk`` records where the transition originated
        (for the tracker).
        """
        self.chunk[uid] = HOLDING
        self.hold_until[uid] = until
        self.hold_next[uid] = next_chunk
        self.hold_from[uid] = from_chunk
        self._invalidate()

    def begin_holds(
        self,
        uids: np.ndarray,
        until: np.ndarray,
        next_chunks: np.ndarray,
        from_chunks: np.ndarray,
    ) -> None:
        """Batch :meth:`begin_hold` for distinct ``uids``."""
        self.chunk[uids] = HOLDING
        self.hold_until[uids] = until
        self.hold_next[uids] = next_chunks
        self.hold_from[uids] = from_chunks
        self._invalidate()

    def due_holds(self, now: float) -> np.ndarray:
        """Active user ids (arrival order) whose watching phase has ended."""
        idx = self.active_indices()
        if idx.size == 0:
            return idx
        holding = idx[self.chunk[idx] == HOLDING]
        return holding[self.hold_until[holding] <= now + 1e-9]

    def _flush_pending(self) -> None:
        if self._pending_add and self._active_cache is not None:
            self._active_cache = np.concatenate([
                self._active_cache,
                np.asarray(self._pending_add, dtype=self._active_cache.dtype),
            ])
            self._pending_add.clear()

    def _drop_departed(self) -> None:
        """Filter freshly departed users out of the active cache in place
        (order-preserving, so no re-sort is ever needed)."""
        if self._active_cache is not None:
            self._flush_pending()
            cache = self._active_cache
            self._active_cache = cache[self.active[cache]]
        self._invalidate()

    def _mirror_tombstone(self, cols: np.ndarray) -> None:
        self._mirror_owned[:, cols] = False
        self._mirror_upload[cols] = 0.0
        self._tombstones += len(cols)

    def depart(self, uid: int) -> None:
        """Deactivate a user and reclaim the slot for later arrivals."""
        self.active[uid] = False
        self.chunk[uid] = -1
        self._owners_count -= self.owned[uid]
        self._mirror_tombstone(self._col_of[uid : uid + 1])
        self._col_of[uid] = -1
        self._free.append(int(uid))
        self._drop_departed()
        if self._tombstones > max(64, self._cols // 3):
            self._mirror_compact()

    def depart_many(self, uids: np.ndarray) -> None:
        """Batch :meth:`depart` for distinct ``uids``."""
        self.active[uids] = False
        self.chunk[uids] = -1
        if uids.size == 1:
            self._owners_count -= self.owned[uids[0]]
        else:
            self._owners_count -= self.owned[uids].sum(axis=0)
        self._mirror_tombstone(self._col_of[uids])
        self._col_of[uids] = -1
        self._free.extend(uids.tolist())
        self._drop_departed()
        if self._tombstones > max(64, self._cols // 3):
            self._mirror_compact()

    # ------------------------------------------------------------------
    # Vectorized queries (hot path)
    # ------------------------------------------------------------------
    def active_indices(self) -> np.ndarray:
        """Active user ids, **in arrival order**.

        Until a slot has been reused this is plain ascending slot order
        (the historical ordering); afterwards arrival order diverges from
        slot order, but float reductions over users still accumulate in
        the same order as the scalar kernel did. The cache is maintained
        incrementally — arrivals append (a new user always has the
        highest sequence number), departures filter in place — so the
        argsort below only runs on a cold rebuild. Callers must not
        mutate the returned array.
        """
        if self._active_cache is None:
            idx = np.nonzero(self.active[: self._size])[0]
            if self._reused and idx.size > 1:
                idx = idx[np.argsort(self.seq[idx], kind="stable")]
            self._active_cache = idx
            self._pending_add.clear()
        elif self._pending_add:
            self._flush_pending()
        return self._active_cache

    def downloading_indices(self) -> np.ndarray:
        """Active user ids currently in a chunk queue, in arrival order."""
        if self._downloading_cache is None:
            idx = self.active_indices()
            if idx.size:
                idx = idx[self.chunk[idx] >= 0]
            self._downloading_cache = idx
        return self._downloading_cache

    def downloaders_per_chunk(self) -> np.ndarray:
        """Number of active users currently downloading each chunk."""
        idx = self.downloading_indices()
        if idx.size == 0:
            return np.zeros(self.num_chunks, dtype=np.int64)
        return np.bincount(self.chunk[idx], minlength=self.num_chunks)

    def owners_per_chunk(self) -> np.ndarray:
        """Number of active users whose buffer holds each chunk.

        Maintained incrementally (completions add, departures subtract),
        so this is O(chunks) regardless of population.
        """
        return self._owners_count.copy()

    def ownership_matrix(self) -> np.ndarray:
        """Boolean (active users x chunks) buffer matrix (tracker bitmap)."""
        return self.owned[self.active_indices()]

    def advance_downloads(self, rates: np.ndarray, dt: float) -> np.ndarray:
        """Add ``rates[chunk]*dt`` bytes to every active download.

        ``rates`` is the per-chunk *per-user* delivery rate. Watching
        (holding) users are unaffected. Returns the downloading user ids
        that were advanced; see :meth:`completed` for completions.
        """
        idx = self.downloading_indices()
        if idx.size == 0:
            return idx
        self.received[idx] += rates[self.chunk[idx]] * dt
        return idx

    def completed(self, chunk_size: float) -> np.ndarray:
        """Downloading user ids (arrival order) whose download finished."""
        idx = self.downloading_indices()
        if idx.size == 0:
            return idx
        return idx[self.received[idx] >= chunk_size - 1e-9]

    def smooth_users(
        self, now: float, window: float, overdue_after: Optional[float] = None
    ) -> Tuple[int, int]:
        """(smooth, total) active users for the quality metric.

        A user is smooth iff no unsmooth retrieval completed within
        ``(now - window, now]`` and, when ``overdue_after`` is given, their
        in-flight download has not yet been outstanding longer than that —
        a stalled user counts as unsmooth *now*, without waiting for the
        retrieval to eventually finish.
        """
        idx = self.active_indices()
        if idx.size == 0:
            return 0, 0
        ok = self.last_unsmooth[idx] <= now - window
        if overdue_after is not None:
            overdue = (self.chunk[idx] >= 0) & (
                now - self.enter_time[idx] > overdue_after
            )
            ok &= ~overdue
        return int(np.sum(ok)), int(idx.size)

    def total_upload_capacity(self) -> float:
        idx = self.active_indices()
        return float(self.upload[idx].sum()) if idx.size else 0.0

    def active_user_ids(self) -> List[int]:
        return [int(i) for i in self.active_indices()]

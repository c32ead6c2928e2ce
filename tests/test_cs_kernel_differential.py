"""Differential tests: the kernel's step with a persistent cell column and
running downloader counts, against the step it replaced.

The oracle :class:`RebuildingKernel` keeps the earlier step phases: a
chunk column with a ``HOLDING`` sentinel (``-1`` for dead rows), held
rows that keep their received bytes, downloader counts rebuilt every
step by ``np.where`` + ``bincount`` over the whole table, a masked
advance, and the next-chunk draw as one ``(completions, chunks)``
comparison matrix.  Its only edit is the float totals: it adds them with
:func:`~repro.vod.delivery.sequential_sum`, which is what the builtin
``sum`` it used did before Python 3.12.

Both kernels step in lock-step on drawn small systems, in both delivery
modes, and after every step the bandwidth log, the quality counters and
samples, the interval accumulators and every live row must agree bit for
bit.  The running counts must equal a fresh ``bincount`` over the
downloading rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from helpers import trace_arrays
from repro.vod.channel import make_uniform_channels
from repro.vod.delivery import sequential_sum
from repro.vod.metrics import QUALITY_WINDOW_SECONDS
from repro.vod.multi import MultiChannelSimulator, VoDSystemConfig, _next_chunks

HOLDING = -2  # the oracle's chunk sentinel for a held row


# ----------------------------------------------------------------------
# The oracle: the step phases before the cell column
# ----------------------------------------------------------------------
class RebuildingKernel(MultiChannelSimulator):
    """The kernel with its earlier step phases (see the module doc)."""

    _ROW_ARRAYS = tuple(
        "_row_chunk" if name == "_row_cell" else name
        for name in MultiChannelSimulator._ROW_ARRAYS
    )

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._row_chunk = np.zeros(self._row_chan.size, dtype=np.int64)
        self._row_hold_until = np.zeros(self._row_chan.size)
        self._cumulative = np.cumsum(
            np.asarray(self.channels[0].behaviour, dtype=float), axis=1
        )
        del self._row_cell, self._counts, self._cumulative_t

    def _admit_arrivals(self) -> int:
        end = int(
            np.searchsorted(self._trace_times, self.now, side="right")
        )
        count = end - self._cursor
        if count == 0:
            return 0
        sl = slice(self._cursor, end)
        self._cursor = end
        # The kernel stores both trace columns narrow; widened here so
        # ``locals_ * J + starts`` cannot wrap.
        locals_ = self._trace_channel[sl].astype(np.int64)
        starts = self._trace_start[sl].astype(np.int64)
        uploads = self._trace_upload[sl]
        if count > 1:
            order = np.argsort(locals_, kind="stable")
            locals_ = locals_[order]
            starts = starts[order]
            uploads = uploads[order]
        # The kernel compacts before it grows; the oracle follows, so
        # both tables keep the same rows.
        if self._n + count > self._row_chan.size:
            self._compact()
            if self._n + count > self._row_chan.size:
                self._grow(self._n + count)
        n0 = self._n
        n1 = n0 + count
        self._row_chan[n0:n1] = locals_
        self._row_chunk[n0:n1] = starts
        self._row_received[n0:n1] = 0.0
        self._row_enter[n0:n1] = self.now
        self._row_unsmooth[n0:n1] = -np.inf
        self._row_alive[n0:n1] = True
        if self._row_owned is not None:
            self._row_upload[n0:n1] = uploads
            self._row_owned[:, n0:n1] = False
        self._n = n1
        uniq, first_idx, per_channel = np.unique(
            locals_, return_index=True, return_counts=True
        )
        for c, i0, n in zip(
            uniq.tolist(), first_idx.tolist(), per_channel.tolist()
        ):
            self._iv_upload_sum[c] = sequential_sum(
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

    def _apply_transitions(self, rows, locals_, finished, nxt) -> None:
        J = self.num_chunks
        departing = nxt < 0
        dep_count = int(departing.sum())
        if dep_count:
            d_rows = rows[departing]
            d_locals = locals_[departing]
            self._row_alive[d_rows] = False
            self._row_chunk[d_rows] = -1
            if self._owners is not None:
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
            self._row_chan[rows].astype(np.int64),
            self._row_hold_from[rows],
            self._row_hold_next[rows],
        )
        return int(rows.size)

    def _deliver_and_complete(self):
        C, J = self.num_channels, self.num_chunks
        dt = self.config.dt
        now = self.now
        user_cap = self.config.user_rate_cap
        n = self._n
        # The kernel stores the channel narrow; widened before ``* J``.
        chan = self._row_chan[:n].astype(np.int64)
        chunk = self._row_chunk[:n]
        holds = self._stale or self._hold_count > 0
        if holds:
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
            served = (rates_cj * counts).sum(axis=1)
            demand = counts.sum(axis=1) * user_cap
            cloud_used = sequential_sum(served.tolist())
            shortfall = sequential_sum(
                np.maximum(0.0, demand - served).tolist()
            )
            peer_used = 0.0

        events = 0
        if n:
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

    def _sample_transitions(self, comp_local, finished, sojourns, smooth):
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
            u[i0:i1] = gens[comp_local[i0]].random(seg)
            if seg <= 4:
                sojourn_acc = sequential_sum(
                    sojourns[i0:i1].tolist(), sojourn_acc
                )
            else:
                sojourn_acc += float(np.sum(sojourns[i0:i1]))
        quality.sojourn_sum = sojourn_acc
        quality.total_retrievals += n
        quality.unsmooth_retrievals += n - int(np.count_nonzero(smooth))
        rows = self._cumulative[finished]
        nxt = (rows <= u[:, None]).sum(axis=1)
        nxt[u >= rows[:, -1]] = -1
        return nxt

    def _sample_quality(self) -> None:
        n = self._n
        users = self._chan_count
        if self._total_active:
            ok = self._row_unsmooth[:n] <= self.now - QUALITY_WINDOW_SECONDS
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


# ----------------------------------------------------------------------
# Lock-step comparison
# ----------------------------------------------------------------------
def same_bits(a, b) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


def floats_bits(values):
    return [float(v).hex() for v in values]


def assert_same_state(new: MultiChannelSimulator, old: RebuildingKernel):
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
    assert same_bits(new._chan_count, old._chan_count)
    for name in ("_iv_arrivals", "_iv_transitions", "_iv_departures",
                 "_iv_starts", "_iv_upload_samples"):
        assert same_bits(getattr(new, name), getattr(old, name)), name
    assert floats_bits(new._iv_upload_sum) == floats_bits(old._iv_upload_sum)

    n, J = new._n, new.num_chunks
    alive = new._row_alive[:n]
    assert same_bits(alive, old._row_alive[:n])
    for name in ("_row_chan", "_row_enter", "_row_unsmooth"):
        assert same_bits(getattr(new, name)[:n][alive],
                         getattr(old, name)[:n][alive]), name
    cell = new._row_cell[:n]
    downloading = cell < new._spill
    held = np.isfinite(new._row_hold_until[:n])
    old_chunk = old._row_chunk[:n]
    assert np.array_equal(downloading, alive & (old_chunk >= 0))
    assert np.array_equal(held, alive & (old_chunk == HOLDING))
    assert not np.any(downloading & held)
    chunk = cell.astype(np.int64) - new._row_chan[:n].astype(np.int64) * J
    assert np.array_equal(chunk[downloading], old_chunk[downloading])
    assert same_bits(new._row_received[:n][downloading],
                     old._row_received[:n][downloading])
    # Held and dead rows advance by an exact 0.0 from 0.0.
    assert not np.any(new._row_received[:n][~downloading])
    for name in ("_row_hold_until", "_row_hold_next", "_row_hold_from"):
        assert same_bits(getattr(new, name)[:n][held],
                         getattr(old, name)[:n][held]), name
    # The running counts are the bincount they replaced.
    fresh = np.bincount(cell[downloading], minlength=new._counts.size)
    assert same_bits(new._counts, fresh)
    if new._owners is not None:
        assert same_bits(new._row_upload[:n][alive],
                         old._row_upload[:n][alive])
        assert same_bits(new._owners, old._owners)
        assert same_bits(new._row_owned[:, :n][:, alive],
                         old._row_owned[:, :n][:, alive])


@st.composite
def systems(draw):
    """A small uniform channel set with a drawn behaviour matrix, chunk
    timing and sessions; T0 is never a multiple of dt, so completions
    both hold and move on at once."""
    C = draw(st.integers(1, 12))
    J = draw(st.integers(2, 5))
    weights = np.array(
        draw(st.lists(st.integers(0, 4), min_size=J * J, max_size=J * J)),
        dtype=float,
    ).reshape(J, J)
    # Off-diagonal weights are VCR jumps; a departure weight leaves each
    # row summing below 1 (an all-zero row always departs).
    leave = np.array(
        draw(st.lists(st.integers(0, 3), min_size=J, max_size=J)), float
    )
    totals = weights.sum(axis=1) + leave
    behaviour = np.divide(
        weights, totals[:, None], out=np.zeros_like(weights),
        where=totals[:, None] > 0,
    )
    # 7.3 s steps put rounding into the clock, so sojourns (and the
    # order they are summed in) are not exact integers.
    dt = draw(st.sampled_from([7.0, 7.3, 10.0, 13.0]))
    t0 = draw(st.floats(1.3, 6.7)) * dt
    assume(abs(t0 / dt - round(t0 / dt)) > 1e-3)
    try:
        channels = make_uniform_channels(C, J, 100.0, t0, behaviour=behaviour)
    except ValueError:  # a closed class: not every viewer would depart
        assume(False)
    # At the cap a chunk downloads in 0.3-3 steps.
    user_cap = channels[0].chunk_size_bytes / (dt * draw(st.floats(0.3, 3.0)))
    steps = draw(st.integers(20, 70))
    sessions = draw(st.lists(
        st.tuples(
            st.floats(0.0, steps * dt * 0.8),
            st.integers(0, C - 1),
            st.integers(0, J - 1),
            st.sampled_from([0.0, 0.3, 1.0, 2.5]),
        ),
        min_size=10, max_size=80,
    ))
    sessions = [(t, c, j, f * user_cap) for t, c, j, f in sessions]
    # Per-cell capacity as a multiple of the cap, zero cells included;
    # re-installed at each epoch boundary.
    shares = [0.0, 0.0, 0.4, 1.0, 2.5]
    capacities = draw(st.lists(
        st.lists(st.sampled_from(shares), min_size=C * J, max_size=C * J),
        min_size=1, max_size=3,
    ))
    epoch = draw(st.integers(5, 20))
    compact_at = draw(st.sets(st.integers(0, steps - 1), max_size=6))
    return dict(
        channels=channels, dt=dt, user_cap=user_cap, steps=steps,
        sessions=sessions, capacities=capacities, epoch=epoch,
        compact_at=compact_at, seed=draw(st.integers(0, 2**16)),
    )


def run_lockstep(system, mode):
    config = VoDSystemConfig(mode=mode, dt=system["dt"],
                             user_rate_cap=system["user_cap"],
                             seed=system["seed"])
    trace = trace_arrays(system["sessions"])
    channels = system["channels"]
    new = MultiChannelSimulator(channels, trace, config)
    old = RebuildingKernel(channels, trace, config)
    C, J = new.num_channels, new.num_chunks
    capacities = system["capacities"]
    for step in range(system["steps"]):
        if step % system["epoch"] == 0:
            cap = np.asarray(
                capacities[(step // system["epoch"]) % len(capacities)]
            ).reshape(C, J) * system["user_cap"]
            for sim in (new, old):
                for local, spec in enumerate(channels):
                    sim.set_cloud_capacity(spec.channel_id, cap[local])
            if step:
                for a, b in zip(new.close_interval(), old.close_interval()):
                    assert a.arrivals == b.arrivals
                    assert a.upload_capacity_sum == b.upload_capacity_sum
                    for name in ("transition_counts", "departure_counts",
                                 "start_chunk_counts"):
                        assert same_bits(getattr(a, name), getattr(b, name))
        if step in system["compact_at"]:
            assert new._compact() == old._compact()  # forced mid-epoch
        new.step()
        old.step()
        assert_same_state(new, old)
    assert same_bits(new.peer_upload_totals(), old.peer_upload_totals())
    return new


@pytest.mark.parametrize("mode", ["client-server", "p2p"])
@given(system=systems())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_lockstep_with_rebuilding_kernel(mode, system):
    sim = run_lockstep(system, mode)
    event(f"departures: {sim.departures > 0}")
    event(f"unsmooth (immediate) completions: "
          f"{sim.quality.unsmooth_retrievals > 0}")
    event(f"smooth (held) completions: "
          f"{sim.quality.total_retrievals > sim.quality.unsmooth_retrievals}")


def test_lockstep_exercises_holds_moves_and_departures():
    """A fixed system that reaches every branch the drawn ones rely on:
    held and immediate completions, VCR jumps, departures, compaction,
    and channels with 8+ completions in a step (where the pairwise
    sojourn sum differs from a sequential one)."""
    behaviour = np.array([[0.0, 0.5, 0.3], [0.2, 0.0, 0.6], [0.3, 0.0, 0.0]])
    channels = make_uniform_channels(3, 3, 100.0, 23.0, behaviour=behaviour)
    user_cap = channels[0].chunk_size_bytes / 7.0
    sessions = [(t / 4, t % 3, t % 2, user_cap) for t in range(800)]
    system = dict(
        channels=channels, dt=7.3, user_cap=user_cap, steps=60,
        sessions=sessions, capacities=[[2.0, 4.0, 0.0] * 3],
        epoch=100, compact_at={17, 33}, seed=5,
    )
    for mode in ("client-server", "p2p"):
        sim = run_lockstep(system, mode)
        assert sim.departures > 0
        assert sim._iv_transitions.sum() > 0  # one interval: every move
        # A smooth completion holds (T0 = 23 s is not a multiple of dt);
        # an unsmooth one moves on at once.
        assert sim.quality.unsmooth_retrievals > 0
        assert sim.quality.total_retrievals > sim.quality.unsmooth_retrievals


# ----------------------------------------------------------------------
# The next-chunk draw
# ----------------------------------------------------------------------
def searchsorted_oracle(cumulative, finished, u):
    """Per user: ``searchsorted(cum, u, side="right")``, or -1 to depart
    when ``u`` is at or above the row's total."""
    out = []
    for j, x in zip(finished.tolist(), u.tolist()):
        row = cumulative[j]
        out.append(-1 if x >= row[-1]
                   else int(np.searchsorted(row, x, side="right")))
    return np.array(out, dtype=np.int64)


class TestNextChunks:
    def check(self, behaviour, finished, u):
        cumulative = np.cumsum(np.asarray(behaviour, dtype=float), axis=1)
        finished = np.asarray(finished, dtype=np.int64)
        u = np.asarray(u, dtype=float)
        got = _next_chunks(
            np.ascontiguousarray(cumulative.T), finished, u
        )
        assert got.dtype == np.int64
        assert got.tolist() == searchsorted_oracle(
            cumulative, finished, u
        ).tolist()
        return got

    def test_ties_totals_and_departures(self):
        # Row 0 sums to exactly 1.0; row 1 below 1 (departures); row 2
        # jumps back (VCR) and has an empty column.
        behaviour = [[0.25, 0.5, 0.25], [0.0, 0.5, 0.25], [0.5, 0.0, 0.125]]
        cum = np.cumsum(np.asarray(behaviour), axis=1)
        assert cum[0, -1] == 1.0
        finished = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
        u = [0.0, 0.25, cum[0, 1], 0.999999,   # exact cumulative values
             0.0, 0.5, 0.75, 0.9,              # 0.75 == total: departs
             0.5, np.nextafter(0.5, 0.0), 0.625, 0.7]  # 0.625 == total
        got = self.check(behaviour, finished, u)
        assert got.tolist() == [0, 1, 2, 2, 1, 2, -1, -1, 2, 0, -1, -1]

    def test_u_at_or_above_the_total_departs(self):
        # Each row of the shift matrix sums to exactly 1.0 or 0.0.
        got = self.check(np.eye(3, k=1), [0, 1, 2], [0.999, 0.0, 0.5])
        assert got.tolist() == [1, 2, -1]
        got = self.check([[0.5, 0.5], [1.0, 0.0]], [0, 1, 0], [1.0, 1.0, 0.5])
        assert got.tolist() == [-1, -1, 1]

    @given(
        data=st.data(),
        J=st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_searchsorted(self, data, J):
        weights = np.array(data.draw(st.lists(
            st.integers(0, 4), min_size=J * J, max_size=J * J,
        )), dtype=float).reshape(J, J)
        leave = np.array(data.draw(st.lists(
            st.integers(0, 2), min_size=J, max_size=J,
        )), dtype=float)
        totals = weights.sum(axis=1) + leave
        behaviour = np.divide(weights, totals[:, None],
                              out=np.zeros_like(weights),
                              where=totals[:, None] > 0)
        cumulative = np.cumsum(behaviour, axis=1)
        size = data.draw(st.integers(1, 30))
        finished = data.draw(st.lists(
            st.integers(0, J - 1), min_size=size, max_size=size,
        ))
        # Half the draws land exactly on a cumulative value.
        u = [
            float(cumulative[j, data.draw(st.integers(0, J - 1))])
            if data.draw(st.booleans())
            else data.draw(st.floats(0.0, 1.0, exclude_max=True))
            for j in finished
        ]
        self.check(behaviour, finished, u)


# ----------------------------------------------------------------------
# The sequential float add
# ----------------------------------------------------------------------
class TestSequentialSum:
    def test_adds_left_to_right_without_compensation(self):
        # A sequential add loses the 1.0 to rounding; a compensated sum
        # (the builtin from Python 3.12 on) would return 1.0.
        assert sequential_sum([1e16, 1.0, -1e16]) == 0.0

    def test_starts_from_the_given_value(self):
        assert sequential_sum([], 2.5) == 2.5
        assert sequential_sum([1.0, -1e16], 1e16) == 0.0
        assert sequential_sum(np.array([0.1, 0.2, 0.3]).tolist()) == (
            (0.0 + 0.1) + 0.2
        ) + 0.3

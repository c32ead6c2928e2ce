"""The simulation kernel's engine wiring and row-table invariants.

Every engine runs :class:`~repro.vod.multi.MultiChannelSimulator` — one
structure-of-arrays pass per phase over every user of every channel.
Its byte-identity against the historical per-channel kernel is pinned by
the golden fixtures (``tests/test_kernel_parity.py``); these tests pin
the sharded wiring and the row table's internal invariants under churn,
in both delivery modes.
"""

import numpy as np
import pytest

import repro.sim.shard as shard_mod
from repro.sim.shard import make_engine
from repro.vod.multi import MultiChannelSimulator
from repro.workload.catalog import catalog_config, geo_catalog_config

RESULT_ARRAYS = (
    "times", "cloud_used", "peer_used", "provisioned", "shortfall",
    "populations", "quality_times", "quality",
)
RESULT_SCALARS = (
    "arrivals", "departures", "final_population", "peak_population",
    "total_retrievals", "unsmooth_retrievals", "mean_sojourn",
    "steps", "peak_step_events",
)


def small_config(**overrides):
    params = dict(
        num_channels=8,
        chunks_per_channel=4,
        horizon_hours=0.5,
        arrival_rate=3.0,
        num_shards=4,
        dt=60.0,
        interval_minutes=10.0,
        phase_jitter_hours=6.0,
        flash_fraction=0.5,
        flash_hour=0.25,
        flash_width_hours=0.25,
        flash_amplitude=4.0,
    )
    params.update(overrides)
    return catalog_config(**params)


def run_engine(config, jobs=1):
    with make_engine(config, jobs=jobs) as engine:
        return engine.run()


def assert_results_identical(a, b):
    for name in RESULT_ARRAYS:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    for name in RESULT_SCALARS:
        assert getattr(a, name) == getattr(b, name), name
    assert a.channel_populations == b.channel_populations
    assert a.epoch_times == b.epoch_times
    assert a.vm_cost_series == b.vm_cost_series
    assert len(a.decisions) == len(b.decisions)
    for k, (da, db) in enumerate(zip(a.decisions, b.decisions)):
        assert da.per_channel_capacity.keys() == db.per_channel_capacity.keys()
        for cid, cap in da.per_channel_capacity.items():
            assert cap.tobytes() == \
                db.per_channel_capacity[cid].tobytes(), (k, cid)


class TestFusedKernelParity:
    """The one kernel under the sharded engine: every shard builds it,
    and no worker layout changes its results."""

    @pytest.mark.parametrize("variant,overrides", [
        ("zipf", {}),
        ("diurnal", dict(phase_jitter_hours=9.0, flash_fraction=0.0)),
        ("flash", dict(flash_fraction=0.4, flash_amplitude=6.0)),
    ])
    def test_catalog_variants(self, variant, overrides):
        """P2P catalogs (the rarest-first path) are byte-identical for
        jobs=1 and an uneven jobs=3 split in every workload variant."""
        config = small_config(mode="p2p", **overrides)
        assert_results_identical(
            run_engine(config), run_engine(config, jobs=3)
        )

    def test_geo_catalog(self):
        config = geo_catalog_config(
            mode="p2p", num_channels=4, chunks_per_channel=4,
            horizon_hours=0.5, arrival_rate=3.0, num_shards=4, dt=60.0,
            interval_minutes=10.0, topology="us-eu",
        )
        serial = run_engine(config)
        parallel = run_engine(config, jobs=3)
        assert_results_identical(serial, parallel)
        assert serial.epoch_discounts == parallel.epoch_discounts
        assert serial.epoch_remote_fractions == \
            parallel.epoch_remote_fractions

    def test_fused_kernel_actually_selected(self):
        """One kernel: every shard, in either mode, builds it."""
        for mode in ("client-server", "p2p"):
            shard = shard_mod.ChannelShard(small_config(mode=mode), 0)
            assert type(shard.sim) is MultiChannelSimulator

    def test_workers_do_not_change_fused_results(self):
        """jobs=1 vs an uneven jobs=3 split over the shm epoch path."""
        config = small_config()
        assert_results_identical(
            run_engine(config, jobs=1), run_engine(config, jobs=3)
        )


class TestRowTableInvariants:
    """The kernel's dense row table under churn (docs/performance.md)."""

    def _stepped(self, steps=40, mode="client-server"):
        config = small_config(mode=mode)
        sim = shard_mod.ChannelShard(config, 0).sim
        for _ in range(steps):
            sim.step()
        return sim

    def test_live_rows_match_population(self):
        sim = self._stepped()
        n = sim._n
        alive = int(np.count_nonzero(sim._row_alive[:n]))
        assert alive == sim.population()
        assert n >= alive  # dead rows linger until the lazy compaction

    def test_compaction_preserves_order_and_drops_dead(self):
        sim = self._stepped()
        n = sim._n
        live_before = [
            (int(sim._row_chan[i]), float(sim._row_enter[i]),
             float(sim._row_received[i]))
            for i in range(n) if sim._row_alive[i]
        ]
        count = sim._compact()
        assert count == len(live_before)
        assert bool(sim._row_alive[:count].all())
        live_after = [
            (int(sim._row_chan[i]), float(sim._row_enter[i]),
             float(sim._row_received[i]))
            for i in range(count)
        ]
        assert live_after == live_before  # stable gather, admission order

    def test_dead_rows_never_look_held(self):
        """Departed rows must not re-enter the hold-release scan (a
        finite ``hold_until``) or a download queue (a cell below the
        spill cell)."""
        sim = self._stepped()
        n = sim._n
        dead = ~sim._row_alive[:n]
        assert not np.any(np.isfinite(sim._row_hold_until[:n][dead]))
        assert np.all(sim._row_cell[:n][dead] == sim._spill)

    def test_owner_counts_match_ownership_column(self):
        """P2P: each (channel, chunk) live-owner count is the ownership
        column's sum over that channel's live rows, at every step."""
        sim = self._stepped(steps=0, mode="p2p")
        for cid in sim.channel_ids.tolist():
            sim.set_cloud_capacity(cid, np.full(sim.num_chunks, 2e6))
        owned_any = False
        for _ in range(30):
            sim.step()
            n = sim._n
            alive = sim._row_alive[:n]
            expected = np.zeros_like(sim._owners)
            for c in range(sim.num_channels):
                rows = alive & (sim._row_chan[:n] == c)
                expected[c] = sim._row_owned[:, :n][:, rows].sum(axis=1)
            np.testing.assert_array_equal(sim._owners, expected)
            owned_any |= bool(expected.any())
        assert owned_any  # the run did complete chunks

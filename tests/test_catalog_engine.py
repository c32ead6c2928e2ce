"""Tests for the sharded catalog engine (repro.sim.shard).

The engine's headline guarantee is byte-determinism: a fixed-seed
catalog run produces identical results no matter how many worker
processes execute it, and the epoch merge is independent of the order
in which shard reports arrive.  These tests pin both properties down,
plus the catalog workload's partition/trace stability and the registry
surface.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, open_run
from repro.sim.shard import (
    ChannelShard,
    EpochReport,
    ShardedSimulator,
    merge_epoch_reports,
    summarize_catalog,
)
from repro.workload.catalog import (
    CatalogConfig,
    build_shard_trace,
    catalog_config,
    channel_sessions,
    channel_shapes,
    shard_channel_ids,
)

RESULT_ARRAYS = (
    "times", "cloud_used", "peer_used", "provisioned", "shortfall",
    "populations", "quality_times", "quality",
)


def small_config(**overrides):
    params = dict(
        num_channels=8,
        chunks_per_channel=4,
        horizon_hours=0.5,
        arrival_rate=0.5,
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


def run_via_api(config, workers=None):
    """Run a catalog config through the public api surface
    (``workers=None`` means serial)."""
    with open_run(EngineConfig(spec=config, workers=workers)) as run:
        return run.result()


# ----------------------------------------------------------------------
# Catalog workload
# ----------------------------------------------------------------------

class TestCatalogWorkload:
    @pytest.mark.parametrize("num_shards", [1, 3, 4, 50])
    def test_partition_is_disjoint_and_complete(self, num_shards):
        config = small_config(num_shards=num_shards)
        seen = []
        for shard in range(config.effective_shards):
            seen.extend(shard_channel_ids(config, shard))
        assert sorted(seen) == list(range(config.num_channels))
        assert len(seen) == len(set(seen))

    def test_effective_shards_clamped_to_channels(self):
        config = small_config(num_shards=50)
        assert config.effective_shards == config.num_channels

    def test_channel_traces_independent_of_shard_count(self):
        """A channel's sessions depend only on (seed, channel id)."""
        few = small_config(num_shards=2)
        many = small_config(num_shards=8)
        shapes_few = channel_shapes(few)
        shapes_many = channel_shapes(many)
        for c in range(few.num_channels):
            assert shapes_few[c] == shapes_many[c]
            a = channel_sessions(few, shapes_few[c])
            b = channel_sessions(many, shapes_many[c])
            for left, right in zip(a, b):
                assert np.array_equal(left, right)

    def test_shard_trace_interleaves_channels_sorted(self):
        config = small_config()
        trace = build_shard_trace(config, shard_channel_ids(config, 0))
        times = [s.arrival_time for s in trace.sessions]
        assert times == sorted(times)
        assert {s.channel for s in trace.sessions} <= set(
            shard_channel_ids(config, 0)
        )

    def test_flash_crowd_adds_arrivals(self):
        quiet = small_config(flash_fraction=0.0, phase_jitter_hours=0.0)
        surged = small_config(flash_fraction=1.0, phase_jitter_hours=0.0,
                              flash_amplitude=6.0)
        def count(cfg):
            return sum(
                channel_sessions(cfg, shape)[0].size
                for shape in channel_shapes(cfg)
            )
        assert count(surged) > 1.3 * count(quiet)

    def test_target_population_sets_rate_by_littles_law(self):
        config = catalog_config(
            num_channels=8, chunks_per_channel=4, target_population=1000,
        )
        session = config.visits_per_session() * config.constants.chunk_duration
        assert config.mean_arrival_rate * session == pytest.approx(1000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(num_channels=0)
        with pytest.raises(ValueError):
            small_config(flash_fraction=1.5)
        with pytest.raises(ValueError):
            CatalogConfig(mode="multicast")
        with pytest.raises(ValueError):
            shard_channel_ids(small_config(), 99)


# ----------------------------------------------------------------------
# Engine determinism
# ----------------------------------------------------------------------

class TestShardedDeterminism:
    def test_jobs_do_not_change_results(self):
        """jobs=1 (in-process) and jobs=3 (uneven worker split) must be
        byte-identical: same metrics, same per-step series."""
        config = small_config()
        with ShardedSimulator(config, jobs=1) as engine:
            serial = engine.run()
        with ShardedSimulator(config, jobs=3) as engine:
            parallel = engine.run()
        assert summarize_catalog(serial) == summarize_catalog(parallel)
        for name in RESULT_ARRAYS:
            a, b = getattr(serial, name), getattr(parallel, name)
            assert a.tobytes() == b.tobytes(), name
        assert serial.channel_populations == parallel.channel_populations
        assert serial.vm_cost_series == parallel.vm_cost_series

    def test_env_blank_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_CATALOG_JOBS", "  ")
        config = small_config(horizon_hours=0.25)
        assert summarize_catalog(run_via_api(config)) == \
            summarize_catalog(run_via_api(config, workers=1))

    def test_reports_carry_only_owned_channels(self):
        config = small_config()
        shard = ChannelShard(config, 1)
        report = shard.advance_epoch(config.interval_seconds)
        assert [s.channel_id for s in report.stats] == shard.channel_ids
        assert set(report.channel_populations) == set(shard.channel_ids)


# ----------------------------------------------------------------------
# Merge: order independence (property) and lock-step enforcement
# ----------------------------------------------------------------------

def _synthetic_reports(num_shards=4, steps=5):
    rng = np.random.default_rng(7)
    step_times = np.arange(1, steps + 1) * 30.0
    reports = []
    for shard in range(num_shards):
        reports.append(EpochReport(
            shard_index=shard,
            t_end=float(step_times[-1]),
            stats=[],
            step_times=step_times.copy(),
            cloud_used=rng.random(steps),
            peer_used=rng.random(steps),
            provisioned=rng.random(steps),
            shortfall=rng.random(steps),
            populations=rng.integers(0, 100, steps),
            quality_samples=[(150.0, int(rng.integers(0, 50)),
                              int(rng.integers(50, 100)))],
            arrivals=int(rng.integers(0, 100)),
            departures=int(rng.integers(0, 100)),
            retrievals=int(rng.integers(0, 100)),
            unsmooth=int(rng.integers(0, 10)),
            sojourn_sum=float(rng.random()),
            upload_sum=float(rng.random()),
            upload_count=int(rng.integers(1, 10)),
            peak_step_events=int(rng.integers(0, 500)),
            channel_populations={shard * 10: int(rng.integers(0, 50))},
        ))
    return reports


class TestMerge:
    @settings(deadline=None, max_examples=40)
    @given(order=st.permutations(list(range(4))))
    def test_merge_is_order_independent(self, order):
        """Workers finish in arbitrary order; the merge must not care."""
        reports = _synthetic_reports()
        reference = merge_epoch_reports(reports)
        permuted = merge_epoch_reports([reports[i] for i in order])
        for name in ("cloud_used", "peer_used", "provisioned", "shortfall",
                     "populations", "step_times"):
            assert getattr(reference, name).tobytes() == \
                getattr(permuted, name).tobytes(), name
        assert reference.quality_samples == permuted.quality_samples
        assert reference.sojourn_sum == permuted.sojourn_sum
        assert reference.upload_sum == permuted.upload_sum
        assert reference.channel_populations == permuted.channel_populations
        assert reference.arrivals == permuted.arrivals
        assert reference.peak_step_events == permuted.peak_step_events

    def test_merge_rejects_lockstep_divergence(self):
        reports = _synthetic_reports()
        reports[2].step_times = reports[2].step_times + 1.0
        with pytest.raises(ValueError, match="lock-step"):
            merge_epoch_reports(reports)

    def test_merge_rejects_duplicate_shards(self):
        reports = _synthetic_reports()
        reports[1].shard_index = 0
        with pytest.raises(ValueError, match="duplicate"):
            merge_epoch_reports(reports)

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_epoch_reports([])


# ----------------------------------------------------------------------
# Registry + summary surface
# ----------------------------------------------------------------------

class TestCatalogRegistry:
    SMALL = {
        "num_channels": 8, "chunks_per_channel": 4, "horizon_hours": 0.5,
        "arrival_rate": 0.5, "num_shards": 4, "dt": 60.0,
        "interval_minutes": 10.0, "mode": "client-server",
    }

    def test_catalog_scenarios_registered(self):
        from repro.experiments import registry

        for name in ("catalog-zipf", "catalog-diurnal", "catalog-flash"):
            spec = registry.get(name)
            assert "catalog" in spec.tags
            assert spec.run is not None and spec.build is None

    def test_run_cell_returns_flat_metrics(self):
        from repro.experiments import registry

        metrics = registry.get("catalog-flash").run_cell(self.SMALL, seed=2011)
        for key in ("arrivals", "peak_population", "average_quality",
                    "mean_reserved_mbps", "steps", "num_shards"):
            assert key in metrics
            assert isinstance(metrics[key], (int, float))
        assert metrics["num_shards"] == 4
        assert metrics["arrivals"] > 0

    def test_summary_quality_within_bounds(self):
        result = run_via_api(small_config(horizon_hours=0.25), workers=1)
        metrics = summarize_catalog(result)
        assert 0.0 <= metrics["average_quality"] <= 1.0
        assert 0.0 <= metrics["smooth_retrieval_fraction"] <= 1.0
        assert metrics["steps"] == result.times.size

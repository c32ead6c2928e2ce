"""Tests for the multi-region catalog engine.

The geo engine inherits the sharded engine's mechanics (lock-step
epochs, shard-order merge) over a slot space of (region, channel) pairs
and swaps in the multi-region control plane.  These tests pin down

* the slot-space workload: region splits from stable spawn keys, slot
  shapes independent of the shard partition, region-major slot order;
* byte-determinism: jobs 1 vs 4 identical artifacts for a 3-region
  catalog, geo telemetry included;
* the control plane: LP >= greedy on the engine's own epoch problems,
  cross-region spill + egress metering under capacity pressure, and
  latency-discounted quality wiring;
* the registry/CLI surface of the ``catalog-geo-*`` scenarios.
"""

import numpy as np
import pytest

from repro.api import EngineConfig, open_run
from repro.cloud.billing import BillingMeter
from repro.geo.allocation import greedy_geo_allocation, lp_geo_allocation
from repro.sim.shard import (
    GeoCatalogResult,
    GeoShardedSimulator,
    ShardedSimulator,
    make_engine,
    summarize_catalog,
)
from repro.vod.metrics import latency_adjusted_quality
from repro.workload.catalog import (
    GEO_TOPOLOGIES,
    GeoCatalogConfig,
    catalog_config,
    channel_shapes,
    geo_catalog_config,
    shard_channel_ids,
)

RESULT_ARRAYS = (
    "times", "cloud_used", "peer_used", "provisioned", "shortfall",
    "populations", "quality_times", "quality",
)


def small_geo_config(**overrides):
    params = dict(
        num_channels=6,
        chunks_per_channel=4,
        horizon_hours=0.5,
        arrival_rate=0.8,
        num_shards=5,
        dt=60.0,
        interval_minutes=10.0,
        phase_jitter_hours=3.0,
        flash_fraction=0.5,
        flash_hour=0.25,
        flash_width_hours=0.25,
        flash_amplitude=4.0,
    )
    params.update(overrides)
    return geo_catalog_config(**params)


# ----------------------------------------------------------------------
# Slot-space workload
# ----------------------------------------------------------------------

class TestGeoWorkload:
    def test_slot_space_is_region_major(self):
        config = small_geo_config()
        assert config.num_regions == 3
        assert config.channel_slots == 3 * config.num_channels
        for r in range(config.num_regions):
            for c in range(config.num_channels):
                slot = config.slot_id(r, c)
                assert config.slot_region_index(slot) == r
                assert config.slot_channel(slot) == c
                assert config.slot_region(slot) == config.region_names[r]

    def test_region_splits_sum_to_one_and_are_stable(self):
        config = small_geo_config()
        splits = config.region_splits()
        assert splits.shape == (config.num_regions, config.num_channels)
        assert np.allclose(splits.sum(axis=0), 1.0)
        # Stable spawn keys: same seed -> same splits, regardless of the
        # shard count; a different seed perturbs them.
        again = small_geo_config(num_shards=11).region_splits()
        assert np.array_equal(splits, again)
        other = small_geo_config(seed=99).region_splits()
        assert not np.array_equal(splits, other)

    def test_slot_rates_conserve_the_catalog_rate(self):
        config = small_geo_config()
        assert config.channel_rates().sum() == pytest.approx(
            config.mean_arrival_rate
        )
        # Each channel's Zipf mass is split, not duplicated, per region.
        per_channel = config.channel_rates().reshape(
            config.num_regions, config.num_channels
        ).sum(axis=0)
        assert np.allclose(per_channel, config.catalog_channel_rates())

    def test_channel_level_draws_shared_across_regions(self):
        """Phase jitter and flash amplitude are channel-level draws: the
        same channel differs across regions only by the region's UTC
        offset (flash crowds stay global events)."""
        config = small_geo_config()
        shapes = channel_shapes(config)
        offsets = config.preset["utc_offset_hours"]
        for c in range(config.num_channels):
            per_region = [
                shapes[config.slot_id(r, c)]
                for r in range(config.num_regions)
            ]
            amplitudes = {s.flash_amplitude for s in per_region}
            assert len(amplitudes) == 1
            base_phase = per_region[0].phase_seconds - offsets[0] * 3600.0
            for r, shape in enumerate(per_region):
                assert shape.phase_seconds - offsets[r] * 3600.0 == \
                    pytest.approx(base_phase)

    def test_shard_partition_covers_all_slots(self):
        config = small_geo_config(num_shards=4)
        seen = []
        for shard in range(config.effective_shards):
            seen.extend(shard_channel_ids(config, shard))
        assert sorted(seen) == list(range(config.channel_slots))

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="topology"):
            small_geo_config(topology="atlantis")

    def test_vm_clusters_region_prefixed_and_priced(self):
        config = small_geo_config()
        specs = {s.name: s for s in config.vm_clusters()}
        assert len(specs) == 3 * config.num_regions
        factors = dict(zip(config.region_names,
                           config.preset["price_factors"]))
        base = {s.name.split(":", 1)[1]: s for s in specs.values()
                if s.name.startswith("us-east:")}
        for name, spec in specs.items():
            region, cluster = name.split(":", 1)
            assert spec.price_per_hour == pytest.approx(
                base[cluster].price_per_hour
                / factors["us-east"] * factors[region]
            )


# ----------------------------------------------------------------------
# Engine determinism
# ----------------------------------------------------------------------

class TestGeoDeterminism:
    def test_jobs_do_not_change_results(self):
        """jobs=1 vs jobs=4 (uneven worker split over 5 shards) must be
        byte-identical, geo telemetry included."""
        config = small_geo_config()
        with make_engine(config, jobs=1) as engine:
            serial = engine.run()
        with make_engine(config, jobs=4) as engine:
            parallel = engine.run()
        assert isinstance(serial, GeoCatalogResult)
        assert summarize_catalog(serial) == summarize_catalog(parallel)
        for name in RESULT_ARRAYS:
            a, b = getattr(serial, name), getattr(parallel, name)
            assert a.tobytes() == b.tobytes(), name
        assert serial.epoch_discounts == parallel.epoch_discounts
        assert serial.epoch_remote_fractions == \
            parallel.epoch_remote_fractions
        assert serial.epoch_egress_rates == parallel.epoch_egress_rates
        assert serial.channel_populations == parallel.channel_populations

    def test_make_engine_dispatches_on_config_type(self):
        geo = make_engine(small_geo_config(), jobs=1)
        assert isinstance(geo, GeoShardedSimulator)
        geo.close()
        plain = make_engine(
            catalog_config(num_channels=4, chunks_per_channel=2), jobs=1
        )
        assert isinstance(plain, ShardedSimulator)
        assert not isinstance(plain, GeoShardedSimulator)
        plain.close()
        with pytest.raises(TypeError, match="GeoCatalogConfig"):
            GeoShardedSimulator(
                catalog_config(num_channels=4, chunks_per_channel=2)
            )


# ----------------------------------------------------------------------
# Control plane
# ----------------------------------------------------------------------

class TestGeoControlPlane:
    def test_lp_bounds_greedy_on_engine_problems(self):
        """The LP optimum dominates the greedy on the engine's own epoch
        problems (rebuilt from the recorded decisions)."""
        config = small_geo_config(horizon_hours=0.5)
        with make_engine(config, jobs=1) as engine:
            engine.run()
            topology = engine.controller.topology
            checked = 0
            for decision in engine.controller.decisions:
                problem, _ = engine.controller._vm_problem(decision.demands)
                assert problem.topology is topology
                greedy = greedy_geo_allocation(problem)
                lp = lp_geo_allocation(problem)
                if greedy.feasible and lp.feasible:
                    assert lp.objective >= greedy.objective - 1e-6
                    checked += 1
        assert checked > 0

    def test_exact_engine_runs_and_matches_greedy_feasibility(self):
        config = small_geo_config(
            num_channels=4, chunks_per_channel=3, horizon_hours=0.5,
            exact=True,
        )
        with open_run(EngineConfig(spec=config, workers=1)) as run:
            result = run.result()
        metrics = summarize_catalog(result)
        assert metrics["num_regions"] == 3
        assert 0.0 <= metrics["latency_adjusted_quality"] <= 1.0
        assert metrics["latency_adjusted_quality"] <= \
            metrics["average_quality"] + 1e-12

    def test_capacity_pressure_spills_across_regions(self):
        """With tight per-region clusters and a catalog-wide flash
        crowd, some demand must be served remotely — and the remote
        VM-hours show up as metered egress dollars."""
        config = small_geo_config(
            num_channels=8, chunks_per_channel=4, arrival_rate=1.0,
            flash_fraction=1.0, flash_amplitude=6.0, cluster_scale=2.0,
            num_shards=4, phase_jitter_hours=0.0,
        )
        with open_run(EngineConfig(spec=config, workers=1)) as run:
            result = run.result()
        assert max(result.epoch_remote_fractions) > 0.0
        assert max(result.epoch_egress_rates) > 0.0
        assert result.cost_report.egress_cost > 0.0
        assert result.cost_report.hourly_egress_cost > 0.0
        metrics = summarize_catalog(result)
        assert metrics["mean_remote_fraction"] > 0.0
        assert metrics["egress_cost_per_hour"] > 0.0

    def test_local_serving_discount_is_the_local_latency(self):
        """A run with no remote serving still reports the intra-region
        discount 0.5 ** (local latency / half-life), never exactly 1."""
        config = small_geo_config(flash_fraction=0.0, arrival_rate=0.3)
        with open_run(EngineConfig(spec=config, workers=1)) as run:
            result = run.result()
        preset = GEO_TOPOLOGIES[config.topology]
        local = 0.5 ** (5.0 / preset["latency_halflife_ms"])
        if max(result.epoch_remote_fractions) == 0.0:
            assert result.mean_latency_discount == pytest.approx(local)
        else:  # pragma: no cover - depends on auto-sizing headroom
            assert result.mean_latency_discount < local + 1e-12

    def test_storage_rental_planned_and_billed(self):
        """The geo loop keeps the Eqn (6) storage leg: chunks are placed
        at channel granularity (one copy serves every region) and the
        stored bytes accrue real cost — not the silent $0 of a VM-only
        loop."""
        config = small_geo_config()
        with make_engine(config, jobs=1) as engine:
            result = engine.run()
            bootstrap = engine.controller.decisions[0]
            assert bootstrap.storage_plan is not None
            assert bootstrap.storage_plan.feasible
            placed = set(bootstrap.storage_plan.placement)
            # Channel-level keys: every (channel, chunk), never slots.
            assert placed == {
                (c, i)
                for c in range(config.num_channels)
                for i in range(config.chunks_per_channel)
            }
        assert result.cost_report.storage_cost > 0.0
        metrics = summarize_catalog(result)
        assert metrics["storage_cost_per_day"] > 0.0

    def test_decisions_key_clusters_by_broker_name(self):
        """A geo decision's packing and Fig 9 utility read the plan's
        clusters under the broker's ``<region>:<cluster>`` names, so two
        regions' same-named clusters are packed and priced apart."""
        config = small_geo_config(flash_fraction=0.0)
        with make_engine(config, jobs=1) as engine:
            engine.start()
            decision = engine.controller.decisions[0]
            specs = engine.facility.vm_specs
        plan = decision.plan
        totals = dict(zip(
            (name for _, name in plan.clusters), plan.cluster_totals()
        ))
        packed = {}
        for vm in decision.packing.vms:
            packed[vm.cluster] = packed.get(vm.cluster, 0.0) + vm.load
        assert set(packed) <= set(specs)
        for name, load in packed.items():
            assert load == pytest.approx(totals[name])
        regions_per_cluster = {}
        for name in packed:
            region, cluster = name.split(":")
            regions_per_cluster.setdefault(cluster, set()).add(region)
        assert max(len(r) for r in regions_per_cluster.values()) >= 2
        expected = sum(
            specs[plan.clusters[c][1]].utility * z
            for c, z in zip(plan.cluster.tolist(), plan.z.tolist())
        )
        assert decision.aggregate_vm_utility() == pytest.approx(expected)
        per_slot = sum(
            decision.aggregate_vm_utility(slot)
            for slot in range(config.channel_slots)
        )
        assert per_slot == pytest.approx(expected)

    def test_geo_engine_p2p_mode(self):
        config = small_geo_config(
            mode="p2p", num_channels=4, chunks_per_channel=3,
            horizon_hours=0.5,
        )
        with open_run(EngineConfig(spec=config, workers=2)) as run:
            metrics = summarize_catalog(run.result())
        assert metrics["arrivals"] > 0
        assert metrics["num_regions"] == 3


# ----------------------------------------------------------------------
# Quality discount + billing units
# ----------------------------------------------------------------------

class TestGeoAccounting:
    def test_latency_adjusted_quality_maps_epochs(self):
        times = np.array([100.0, 550.0, 600.0, 900.0])
        quality = np.array([1.0, 0.8, 0.5, 1.0])
        ends = np.array([600.0, 1200.0])
        discounts = np.array([0.9, 0.5])
        adjusted = latency_adjusted_quality(times, quality, ends, discounts)
        # Epoch 1 covers (0, 600], epoch 2 covers (600, 1200].
        assert adjusted == pytest.approx([0.9, 0.72, 0.45, 0.5])

    def test_latency_adjusted_quality_validates(self):
        with pytest.raises(ValueError, match="align"):
            latency_adjusted_quality(
                np.array([1.0]), np.array([1.0, 2.0]),
                np.array([1.0]), np.array([1.0]),
            )
        with pytest.raises(ValueError, match="epoch"):
            latency_adjusted_quality(
                np.array([1.0]), np.array([1.0]),
                np.array([]), np.array([]),
            )
        empty = latency_adjusted_quality(
            np.array([]), np.array([]), np.array([1.0]), np.array([0.5])
        )
        assert empty.size == 0

    def test_rejected_request_does_not_meter_egress(self):
        """When the broker rejects a request the facility keeps its
        previous allocation, so the rejected plan's egress rate must not
        start billing (remote capacity that was never deployed)."""
        from repro.cloud.broker import NegotiationError

        config = small_geo_config(num_channels=4, chunks_per_channel=3)
        with make_engine(config, jobs=1) as engine:
            controller = engine.controller

            def deny(request):
                raise NegotiationError("denied by test")

            controller.broker.request = deny
            rates = {
                c: float(r) for c, r in enumerate(config.channel_rates())
            }
            decision = controller.bootstrap(0.0, rates)
            assert decision.rejected is not None
            assert decision.egress_rate_per_hour == 0.0
            billing = controller.broker.facility.billing
            assert billing.report(3600.0).egress_cost == 0.0

    def test_billing_meter_accrues_egress(self):
        meter = BillingMeter({}, {})
        meter.record_egress_rate(0.0, 6.0)     # $6/h
        meter.record_egress_rate(1800.0, 0.0)  # off after 30 min
        report = meter.report(7200.0)
        assert report.egress_cost == pytest.approx(3.0)
        assert report.hourly_egress_cost == pytest.approx(1.5)
        assert report.total_cost == pytest.approx(3.0)
        with pytest.raises(ValueError):
            meter.record_egress_rate(7200.0, -1.0)


# ----------------------------------------------------------------------
# Registry surface
# ----------------------------------------------------------------------

class TestGeoRegistry:
    SMALL = {
        "num_channels": 4, "chunks_per_channel": 3, "horizon_hours": 0.5,
        "arrival_rate": 0.5, "num_shards": 3, "dt": 60.0,
        "interval_minutes": 10.0, "mode": "client-server",
    }

    def test_geo_catalog_scenarios_registered(self):
        from repro.experiments import registry

        for name in ("catalog-geo-zipf", "catalog-geo-flash"):
            spec = registry.get(name)
            assert "geo" in spec.tags and "catalog" in spec.tags
            assert spec.defaults["topology"] == "us-eu-ap"
            assert spec.defaults["exact"] is False

    def test_run_cell_returns_geo_metrics(self):
        from repro.experiments import registry

        metrics = registry.get("catalog-geo-zipf").run_cell(
            self.SMALL, seed=2011
        )
        for key in ("arrivals", "num_regions", "mean_remote_fraction",
                    "egress_cost_per_hour", "mean_latency_discount",
                    "latency_adjusted_quality"):
            assert key in metrics
        assert metrics["num_regions"] == 3
        assert metrics["arrivals"] > 0

    def test_topology_is_a_sweepable_knob(self):
        from repro.experiments import registry

        metrics = registry.get("catalog-geo-zipf").run_cell(
            {**self.SMALL, "topology": "us-eu"}, seed=2011
        )
        assert metrics["num_regions"] == 2

"""Tests for repro.experiments.config and reporting."""

from dataclasses import replace

import pytest

from repro.experiments.config import (
    PAPER,
    PaperConstants,
    arrival_rate_for_population,
    paper_capacity_model,
    paper_nfs_clusters,
    paper_scenario,
    paper_sla_terms,
    paper_vm_clusters,
    small_scenario,
)
from repro.experiments.reporting import downsample, format_table, mbps, series_summary
from repro.queueing.jackson import external_arrival_vector, solve_traffic_equations
from repro.sim.rng import make_rng
from repro.workload.arrivals import poisson_arrival_times
from repro.workload.catalog import CatalogConfig, GeoCatalogConfig
from repro.workload.trace import TraceConfig

NAN, INF = float("nan"), float("inf")


class TestNonFiniteValues:
    """JSON's NaN/Infinity parse as floats; every config rejects them by
    field name instead of failing (or silently running) downstream."""

    @pytest.mark.parametrize("build, field", [
        (lambda: PaperConstants(streaming_rate=NAN), "streaming_rate"),
        (lambda: PaperConstants(interval_seconds=INF), "interval_seconds"),
        (lambda: replace(small_scenario("p2p"), dt=NAN), "dt"),
        (lambda: replace(small_scenario("p2p"), horizon_seconds=INF),
         "horizon_seconds"),
        (lambda: TraceConfig(horizon_seconds=NAN), "horizon_seconds"),
        (lambda: TraceConfig(zipf_exponent=-INF), "zipf_exponent"),
        (lambda: CatalogConfig(dt=NAN), "dt"),
        (lambda: CatalogConfig(horizon_seconds=INF), "horizon_seconds"),
        (lambda: CatalogConfig(cluster_scale=NAN), "cluster_scale"),
        (lambda: GeoCatalogConfig(flash_hour=NAN), "flash_hour"),
    ])
    def test_configs_name_the_field(self, build, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            build()

    @pytest.mark.parametrize("rate, horizon, field", [
        (NAN, 10.0, "rate"), (INF, 10.0, "rate"), (1.0, INF, "horizon"),
    ])
    def test_poisson_arrival_times(self, rate, horizon, field):
        rng = make_rng(0, "finite")
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            poisson_arrival_times(rng, rate, horizon)


class TestPaperConstants:
    def test_section_vi_values(self):
        assert PAPER.streaming_rate == 50_000.0  # 400 kbps
        assert PAPER.chunk_duration == 300.0  # 5 minutes
        assert PAPER.chunk_size_bytes == pytest.approx(15e6)  # 15 MB
        assert PAPER.chunks_per_channel == 20  # 100-minute video
        assert PAPER.vm_bandwidth == pytest.approx(1.25e6)  # 10 Mbps
        assert PAPER.num_channels == 20
        assert PAPER.target_population == 2500

    def test_capacity_model(self):
        model = paper_capacity_model()
        assert 1.0 / model.service_rate == pytest.approx(12.0)

    def test_table2_virtual_clusters(self):
        clusters = paper_vm_clusters()
        by_name = {c.name: c for c in clusters}
        assert by_name["standard"].utility == 0.6
        assert by_name["standard"].price_per_hour == 0.450
        assert by_name["standard"].max_vms == 75
        assert by_name["medium"].price_per_hour == 0.700
        assert by_name["medium"].max_vms == 30
        assert by_name["advanced"].utility == 1.0
        assert by_name["advanced"].max_vms == 45

    def test_table3_nfs_clusters(self):
        clusters = paper_nfs_clusters()
        by_name = {c.name: c for c in clusters}
        assert by_name["standard"].price_per_gb_hour == pytest.approx(1.11e-4)
        assert by_name["high"].price_per_gb_hour == pytest.approx(2.08e-4)
        assert by_name["standard"].capacity_bytes == pytest.approx(20 * 1024**3)
        assert by_name["high"].rotation_rpm == 10800

    def test_sla_budgets(self):
        terms = paper_sla_terms()
        assert terms.vm_budget_per_hour == 100.0
        assert terms.storage_budget_per_hour == 1.0

    def test_whole_catalogue_fits_in_nfs(self):
        """20 channels x 20 chunks x 15 MB = 6 GB < 40 GB total."""
        total_chunks = PAPER.num_channels * PAPER.chunks_per_channel
        total_bytes = total_chunks * PAPER.chunk_size_bytes
        capacity = sum(c.capacity_bytes for c in paper_nfs_clusters())
        assert total_bytes < capacity

    def test_storage_budget_covers_catalogue(self):
        """B_S = $1/h comfortably covers storing every chunk."""
        total_chunks = PAPER.num_channels * PAPER.chunks_per_channel
        worst = max(c.price_per_byte_hour for c in paper_nfs_clusters())
        assert total_chunks * PAPER.chunk_size_bytes * worst < 1.0


class TestArrivalRateCalibration:
    def test_population_recovered(self):
        """The calibrated rate must reproduce the target population via
        Little's law on the traffic equations."""
        scenario = small_scenario()
        behaviour = scenario.behaviour_matrix()
        rate = arrival_rate_for_population(
            240.0, behaviour, PAPER.chunk_duration, alpha=0.8
        )
        traffic = solve_traffic_equations(
            behaviour, external_arrival_vector(behaviour.shape[0], rate, 0.8)
        )
        population = traffic.arrival_rates.sum() * PAPER.chunk_duration
        assert population == pytest.approx(240.0, rel=1e-9)

    def test_invalid_population(self):
        scenario = small_scenario()
        with pytest.raises(ValueError):
            arrival_rate_for_population(
                0.0, scenario.behaviour_matrix(), 300.0
            )


class TestScenarios:
    def test_small_scenario_consistent(self):
        sc = small_scenario("p2p")
        assert sc.mode == "p2p"
        assert len(sc.channels()) == sc.num_channels
        trace_config = sc.trace_config()
        assert trace_config.num_channels == sc.num_channels
        assert trace_config.mean_total_arrival_rate > 0

    def test_scenario_upload_scaling(self):
        base = small_scenario("p2p")
        scaled = small_scenario("p2p", peer_upload_mean=60_000.0)
        assert scaled.upload_distribution().mean() == pytest.approx(60_000.0)
        assert base.upload_distribution().mean() != pytest.approx(60_000.0)

    def test_paper_scenario_scale(self):
        sc = paper_scenario("client-server")
        assert sc.num_channels == 20
        assert sc.chunks_per_channel == 20
        assert sc.target_population == 2500
        # x3: Table II's 150 VMs cannot host the >=400 VM-equivalents the
        # paper's own client-server analysis requires (see config docstring).
        assert sc.cluster_scale == 3.0

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            small_scenario("multicast")


class TestReporting:
    def test_format_table(self):
        text = format_table(
            ["name", "value"], [["a", 1.5], ["bb", 2.25]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.500" in text and "2.250" in text

    def test_downsample(self):
        assert downsample([1, 2, 3], max_points=5) == [1, 2, 3]
        sampled = downsample(list(range(100)), max_points=5)
        assert len(sampled) == 5
        assert sampled[0] == 0 and sampled[-1] == 99

    def test_series_summary(self):
        text = series_summary([1.0, 2.0, 3.0])
        assert "mean=2.000" in text
        assert series_summary([]) == "(empty)"

    def test_mbps(self):
        assert mbps(1.25e6) == pytest.approx(10.0)

"""Tests for the scenario registry (repro.experiments.registry)."""

import json

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.registry import (
    PREDICTORS,
    ScenarioSpec,
    UnknownScenarioError,
    closed_loop_config,
    get,
    make_predictor,
    names,
    register,
    specs,
)

EXPECTED_SCENARIOS = {
    "paper-closed-loop", "fig11",
    "ablation-predictors", "ablation-chunk-size", "flash-crowd", "geo",
}


class TestLookup:
    def test_all_expected_names_registered(self):
        assert EXPECTED_SCENARIOS <= set(names())

    def test_specs_sorted_and_complete(self):
        listed = [spec.name for spec in specs()]
        assert listed == sorted(listed)
        assert set(listed) == set(names())

    def test_unknown_name_raises_with_suggestion(self):
        with pytest.raises(UnknownScenarioError) as err:
            get("fig99")
        assert "fig99" in str(err.value)
        assert any(s.startswith("fig") for s in err.value.suggestions)

    def test_unknown_name_without_suggestions(self):
        with pytest.raises(UnknownScenarioError):
            get("zzzzzz-not-a-scenario")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register(ScenarioSpec(name="paper-closed-loop", title="dup",
                                  paper_ref="-"))

    def test_every_spec_documents_itself(self):
        for spec in specs():
            assert spec.title
            assert spec.paper_ref
            assert spec.build is not None or spec.run is not None


class TestGrid:
    def test_grid_points_cartesian_product(self):
        points = get("paper-closed-loop").grid_points()
        modes = sorted(p["mode"] for p in points)
        assert modes == ["client-server", "p2p"]
        assert all(p["horizon_hours"] == 12.0 for p in points)

    def test_scalar_override_pins_axis(self):
        points = get("paper-closed-loop").grid_points({"mode": "p2p"})
        assert [p["mode"] for p in points] == ["p2p"]

    def test_list_override_replaces_axis(self):
        points = get("fig11").grid_points({"upload_ratio": [0.5, 2.0]})
        assert sorted(p["upload_ratio"] for p in points) == [0.5, 2.0]

    def test_default_override_applies_to_every_point(self):
        points = get("paper-closed-loop").grid_points({"horizon_hours": 3.0})
        assert len(points) == 2
        assert all(p["horizon_hours"] == 3.0 for p in points)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(KeyError, match="no parameter"):
            get("paper-closed-loop").grid_points({"bogus_knob": 1})

    def test_grid_values_json_serializable(self):
        for spec in specs():
            json.dumps({k: list(v) for k, v in spec.grid.items()})
            json.dumps(dict(spec.defaults))


class TestBuild:
    def test_closed_loop_config_modes(self):
        cs = get("paper-closed-loop").config(mode="client-server")
        p2p = get("paper-closed-loop").config(mode="p2p")
        assert isinstance(cs, ScenarioConfig)
        assert cs.mode == "client-server"
        assert p2p.mode == "p2p"

    def test_fig11_upload_ratio_maps_to_peer_upload(self):
        config = get("fig11").config(upload_ratio=1.2)
        assert config.peer_upload_mean == pytest.approx(1.2 * 50_000.0)

    def test_seed_threads_through(self):
        config = get("paper-closed-loop").config(seed=7, mode="p2p")
        assert config.seed == 7

    def test_paper_scale(self):
        config = closed_loop_config(mode="p2p", scale="paper",
                                    horizon_hours=1.0)
        assert config.num_channels == 20

    def test_size_knobs_honoured_at_both_scales(self):
        small = closed_loop_config(scale="small", num_channels=8,
                                   target_population=500)
        paper = closed_loop_config(scale="paper", horizon_hours=1.0,
                                   num_channels=5, target_population=100)
        assert small.num_channels == 8
        assert small.target_population == 500
        assert paper.num_channels == 5
        assert paper.target_population == 100

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            closed_loop_config(scale="giant")

    def test_analytic_scenario_has_no_config(self):
        with pytest.raises(ValueError, match="analytic"):
            get("geo").config()


class TestRunCell:
    def test_chunk_size_cell_metrics(self):
        metrics = get("ablation-chunk-size").run_cell({"t0_minutes": 5.0})
        assert metrics["num_chunks"] == 20
        assert metrics["provisioned_mbps"] > 0
        json.dumps(metrics)

    def test_geo_cell_metrics(self):
        metrics = get("geo").run_cell({"hour_utc": 18.0})
        assert metrics["lp_objective"] >= metrics["objective"] - 1e-6
        assert 0.0 <= metrics["remote_fraction"] <= 1.0
        json.dumps(metrics)

    def test_closed_loop_cell_metrics(self):
        metrics = get("paper-closed-loop").run_cell(
            {"mode": "p2p", "horizon_hours": 1.0}, seed=3
        )
        assert 0.0 <= metrics["average_quality"] <= 1.0
        assert metrics["arrivals"] > 0
        json.dumps(metrics)

    def test_analytic_cell_ignores_seed(self):
        spec = get("ablation-chunk-size")
        assert spec.run_cell({"t0_minutes": 5.0}, seed=1) == \
            spec.run_cell({"t0_minutes": 5.0}, seed=2)


class TestPredictors:
    def test_all_keys_instantiate(self):
        for key in PREDICTORS:
            predictor = make_predictor(key)
            predictor.observe(0, 1.0)
            assert predictor.predict(0) >= 0.0

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError, match="unknown predictor"):
            make_predictor("oracle")

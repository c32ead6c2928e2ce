"""Tests for the command-line interface (python -m repro)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.workload.trace import TraceConfig, generate_trace


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze"])
        assert args.command == "analyze"
        assert args.chunks == 20
        assert args.mode == "client-server"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestAnalyze:
    def test_client_server_output(self, capsys):
        assert main(["analyze", "--chunks", "6", "--rate", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "capacity analysis" in out
        assert "total cloud demand" in out
        assert "expected population" in out

    def test_p2p_output(self, capsys):
        assert main(
            ["analyze", "--chunks", "6", "--rate", "0.05", "--mode", "p2p"]
        ) == 0
        out = capsys.readouterr().out
        assert "peer offload" in out

    def test_p2p_upload_ratio_changes_demand(self, capsys):
        main(["analyze", "--chunks", "6", "--rate", "0.1", "--mode", "p2p",
              "--peer-upload-ratio", "0.1"])
        low = capsys.readouterr().out
        main(["analyze", "--chunks", "6", "--rate", "0.1", "--mode", "p2p",
              "--peer-upload-ratio", "2.0"])
        high = capsys.readouterr().out

        def total(text):
            line = [ln for ln in text.splitlines() if "total cloud demand" in ln][0]
            return float(line.split(":")[1].split("Mbps")[0])

        assert total(high) <= total(low)


class TestTrace:
    def test_writes_json(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert main(
            [
                "trace", str(out_path),
                "--channels", "3", "--chunks", "4",
                "--hours", "2", "--rate", "0.5", "--seed", "5",
            ]
        ) == 0
        payload = json.loads(out_path.read_text())
        assert payload["config"]["num_channels"] == 3
        assert payload["config"]["seed"] == 5
        assert len(payload["sessions"]) > 0
        assert "wrote" in capsys.readouterr().out

    def test_rows_match_generate_trace(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert main(
            [
                "trace", str(out_path),
                "--channels", "3", "--chunks", "4",
                "--hours", "2", "--rate", "0.5", "--seed", "5",
            ]
        ) == 0
        capsys.readouterr()
        trace = generate_trace(TraceConfig(
            num_channels=3, chunks_per_channel=4, horizon_seconds=7200.0,
            mean_total_arrival_rate=0.5, seed=5,
        ))
        payload = json.loads(out_path.read_text())
        assert payload["config"]["num_sessions"] == trace.num_sessions
        assert payload["sessions"] == [
            {
                "arrival_time": t, "channel": c,
                "start_chunk": s, "upload_capacity": u,
            }
            for t, c, s, u in zip(
                trace.times.tolist(), trace.channels.tolist(),
                trace.start_chunks.tolist(),
                trace.upload_capacities.tolist(),
            )
        ]
        assert [list(row) for row in payload["sessions"]] == [
            ["arrival_time", "channel", "start_chunk", "upload_capacity"]
        ] * trace.num_sessions


class TestRun:
    def test_small_run_summary(self, capsys):
        assert main(["run", "--mode", "p2p", "--hours", "2"]) == 0
        out = capsys.readouterr().out
        assert "closed-loop run summary" in out
        assert "avg streaming quality" in out
        assert "VM cost ($/h)" in out


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--rate", "-1"], "arrival rate"),
    (["analyze", "--chunks", "0"], "at least one chunk"),
    (["analyze", "--alpha", "2"], "alpha"),
    (["analyze", "--mode", "p2p", "--peer-upload-ratio", "-1"], "peer upload"),
    (["trace", "OUT", "--hours", "-1"], "horizon"),
    (["trace", "OUT", "--channels", "0"], "channel"),
    (["run", "--hours", "0"], "horizon"),
    (["run", "--hours", "0.01", "--seed", "-1"], "seed"),
    (["trace", "OUT", "--hours", "0.1", "--seed", "-1"], "seed"),
    (["catalog", "--channels", "2", "--chunks", "2", "--hours", "0.1",
      "--seed", "-1"], "seed"),
    (["analyze", "--mode", "p2p", "--peer-upload-ratio", "nan"], "peer upload"),
])
def test_out_of_range_input_is_a_usage_error(argv, message, tmp_path, capsys):
    """A value the analysis or a config rejects prints its message to
    stderr and exits 2, with no traceback and nothing written."""
    out = tmp_path / "trace.json"
    argv = [str(out) if arg == "OUT" else arg for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


class TestInfo:
    def test_prints_tables(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Table III" in out
        assert "$100.0/h" in out
        assert "standard" in out and "advanced" in out and "high" in out


class TestScenarios:
    def test_lists_registered_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("paper-closed-loop", "fig11", "ablation-predictors",
                     "geo", "flash-crowd"):
            assert name in out

    def test_lists_json(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(entry["name"] == "paper-closed-loop" for entry in payload)

    def test_describe_one(self, capsys):
        assert main(["scenarios", "fig11"]) == 0
        out = capsys.readouterr().out
        assert "upload_ratio" in out
        assert "Fig. 11" in out

    def test_describe_json(self, capsys):
        assert main(["scenarios", "fig11", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["grid"]["upload_ratio"] == [0.9, 1.0, 1.2]
        assert payload["closed_loop"] is True

    def test_unknown_scenario_fails(self, capsys):
        assert main(["scenarios", "fig99"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestSweep:
    def test_smoke_and_cache(self, tmp_path, capsys):
        args = ["sweep", "ablation-chunk-size", "--jobs", "1",
                "--seeds", "1", "--out", str(tmp_path),
                "--set", "t0_minutes=[5.0]"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "1 cells (1 ran, 0 cached)" in out
        artifacts = list((tmp_path / "ablation-chunk-size").glob("*.json"))
        assert len(artifacts) == 1

        assert main(args) == 0
        assert "1 cells (0 ran, 1 cached)" in capsys.readouterr().out

    def test_closed_loop_smoke(self, tmp_path, capsys):
        assert main(["sweep", "paper-closed-loop", "--jobs", "1",
                     "--seeds", "1",
                     "--out", str(tmp_path),
                     "--set", "mode=p2p", "--set", "horizon_hours=1.0"]) == 0
        out = capsys.readouterr().out
        assert "average_quality" in out
        payload = json.loads(
            next((tmp_path / "paper-closed-loop").glob("*.json")).read_text()
        )
        assert payload["params"]["mode"] == "p2p"

    def test_unknown_scenario_fails(self, capsys):
        assert main(["sweep", "fig99"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_unknown_set_parameter_fails(self, tmp_path, capsys):
        assert main(["sweep", "paper-closed-loop", "--out", str(tmp_path),
                     "--set", "bogus=1"]) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_malformed_set_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "paper-closed-loop", "--out", str(tmp_path),
                  "--set", "oops"])


class TestCatalog:
    ARGS = ["catalog", "--channels", "6", "--chunks", "4", "--hours", "0.5",
            "--rate", "0.4", "--shards", "3", "--dt", "60"]

    def test_runs_and_prints_summary(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "sharded catalog run" in out
        assert "peak population" in out
        assert "steps/s" in out

    def test_writes_metrics_json(self, tmp_path, capsys):
        out_path = tmp_path / "catalog.json"
        assert main(self.ARGS + ["--jobs", "2", "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["metrics"]["arrivals"] > 0
        assert payload["metrics"]["num_shards"] == 3
        assert payload["jobs"] == 2

    def test_variant_presets_accepted(self, capsys):
        assert main(self.ARGS + ["--variant", "diurnal"]) == 0
        assert "catalog-diurnal" in capsys.readouterr().out

    def test_stream_prints_epoch_lines(self, capsys):
        assert main(self.ARGS + ["--stream"]) == 0
        out = capsys.readouterr().out
        assert "epoch   1/" in out
        assert "sharded catalog run" in out  # summary still follows

    def test_set_overrides_catalog_knobs(self, tmp_path):
        out_path = tmp_path / "set.json"
        assert main(self.ARGS + ["--set", "num_channels=8",
                                 "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["metrics"]["num_channels"] == 8

    def test_unknown_set_key_fails_fast_listing_knobs(self, capsys):
        assert main(self.ARGS + ["--set", "channles=8"]) == 2
        err = capsys.readouterr().err
        assert "channles" in err
        assert "num_channels" in err  # the valid vocabulary is listed

    def test_geo_set_key_rejected_for_plain_catalog(self, capsys):
        """topology is a geo-factory knob; the single-region path must
        name it unknown instead of silently ignoring it."""
        assert main(self.ARGS + ["--set", 'topology="us-eu"']) == 2
        assert "unknown --set key" in capsys.readouterr().err


class TestGeoCatalog:
    ARGS = ["--channels", "4", "--chunks", "3", "--hours", "0.5",
            "--rate", "0.4", "--shards", "3", "--dt", "60",
            "--interval-minutes", "10"]

    def test_catalog_topology_switches_to_geo_engine(self, capsys):
        assert main(["catalog", "--topology", "us-eu-ap"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "catalog-geo-flash" in out
        assert "regions (topology)" in out
        assert "egress cost ($/h)" in out
        assert "latency-adj quality" in out

    def test_geo_subcommand_defaults_to_three_regions(self, capsys):
        assert main(["geo"] + self.ARGS + ["--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "3 (us-eu-ap, greedy)" in out

    def test_geo_exact_solver_reported(self, capsys):
        assert main(["geo", "--topology", "us-eu", "--exact"]
                    + self.ARGS) == 0
        assert "LP (exact)" in capsys.readouterr().out

    def test_geo_metrics_json_includes_geo_fields(self, tmp_path):
        out_path = tmp_path / "geo.json"
        assert main(["geo"] + self.ARGS + ["--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["topology"] == "us-eu-ap"
        assert payload["metrics"]["num_regions"] == 3
        assert "mean_remote_fraction" in payload["metrics"]
        assert "egress_cost_per_hour" in payload["metrics"]

    def test_unknown_topology_is_a_usage_error(self, capsys):
        assert main(["catalog", "--topology", "atlantis"] + self.ARGS) == 2
        assert "unknown geo topology" in capsys.readouterr().err

    def test_exact_without_topology_is_a_usage_error(self, capsys):
        """--exact only exists for the geo LP; silently running the
        single-region greedy instead would drop the user's request."""
        assert main(["catalog", "--exact"] + self.ARGS) == 2
        assert "--topology" in capsys.readouterr().err

    def test_set_invalid_topology_is_a_usage_error(self, capsys):
        """A bad topology smuggled in via --set must exit 2 with the
        preset list, same as --topology, not a raw traceback."""
        assert main(["geo"] + self.ARGS + ["--set", 'topology="bogus"']) == 2
        assert "unknown geo topology" in capsys.readouterr().err

    def test_set_invalid_value_is_a_usage_error(self, capsys):
        assert main(["catalog"] + self.ARGS
                    + ["--set", "num_channels=0"]) == 2
        assert "at least one channel" in capsys.readouterr().err

    def test_set_wrong_container_type_is_a_usage_error(self):
        """--set 'num_shards=[2]' parses as a list; the factory's
        TypeError must surface as exit 2, not a traceback."""
        assert main(["catalog"] + self.ARGS
                    + ["--set", "num_shards=[2]"]) == 2

    def test_set_overrides_geo_knobs(self, tmp_path):
        out_path = tmp_path / "geo-set.json"
        assert main(["geo"] + self.ARGS
                    + ["--set", 'topology="us-eu"',
                       "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["metrics"]["num_regions"] == 2

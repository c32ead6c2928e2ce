"""Tests for the parallel sweep orchestrator (repro.experiments.sweep)."""

import json

import pytest

from repro.experiments.registry import UnknownScenarioError
from repro.experiments.sweep import (
    ARTIFACT_SCHEMA,
    ArtifactStore,
    SweepCell,
    SweepError,
    cell_hash,
    expand_cells,
    run_sweep,
    seed_list,
)

# A cheap closed-loop cell: one simulated hour, P2P mode.
FAST = {"mode": "p2p", "horizon_hours": 1.0}


class TestCellHash:
    def test_stable_across_param_order(self):
        a = cell_hash("paper-closed-loop", {"mode": "p2p", "horizon_hours": 1.0}, 1)
        b = cell_hash("paper-closed-loop", {"horizon_hours": 1.0, "mode": "p2p"}, 1)
        assert a == b

    def test_sensitive_to_every_component(self):
        base = cell_hash("paper-closed-loop", FAST, 1)
        assert cell_hash("fig11", FAST, 1) != base
        assert cell_hash("paper-closed-loop", FAST, 2) != base
        assert cell_hash("paper-closed-loop", {**FAST, "mode": "client-server"}, 1) != base

    def test_rejects_unserializable_params(self):
        with pytest.raises(TypeError, match="JSON-serializable"):
            cell_hash("paper-closed-loop", {"mode": object()}, 1)

    def test_numpy_scalars_hash_like_python(self):
        """Grids built with np.arange/np.linspace leak numpy scalars;
        they must produce the same cell hash (and thus hit the same
        cached artifacts) as the pure-Python grid."""
        import numpy as np

        python_grid = {"population": 240, "ratio": 1.5, "flag": True}
        numpy_grid = {
            "population": np.int64(240),
            "ratio": np.float32(1.5),
            "flag": np.bool_(True),
        }
        assert cell_hash("paper-closed-loop", numpy_grid, 1) == \
            cell_hash("paper-closed-loop", python_grid, 1)
        # np.float64 subclasses float and always worked; pin that too.
        assert cell_hash("paper-closed-loop", {"ratio": np.float64(1.5)}, 1) == \
            cell_hash("paper-closed-loop", {"ratio": 1.5}, 1)
        # And numpy seeds via a full round-trip through SweepCell.
        cell = SweepCell.make(
            "paper-closed-loop", {"population": np.int64(240)}, np.int64(7)
        )
        assert cell.params == (("population", 240),)
        assert cell.hash == cell_hash("paper-closed-loop", {"population": 240}, 7)

    def test_cell_make_canonicalizes(self):
        cell = SweepCell.make("paper-closed-loop", {"b": 2, "a": 1}, 3)
        assert cell.params == (("a", 1), ("b", 2))
        assert cell.hash == cell_hash("paper-closed-loop", {"a": 1, "b": 2}, 3)


class TestExpansion:
    def test_seed_list(self):
        assert seed_list(3) == [2011, 2012, 2013]
        assert seed_list(1, base=5) == [5]
        with pytest.raises(ValueError):
            seed_list(0)

    def test_expand_cells_grid_times_seeds(self):
        cells = expand_cells("paper-closed-loop", seeds=[1, 2])
        assert len(cells) == 4  # two modes x two seeds
        assert len({c.hash for c in cells}) == 4

    def test_expand_unknown_scenario(self):
        with pytest.raises(UnknownScenarioError):
            expand_cells("nope", seeds=[1])


class TestArtifactStore:
    def test_save_then_load_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cell = SweepCell.make("paper-closed-loop", FAST, 1)
        path = store.save(cell, {"average_quality": 0.5}, 1.25)
        assert path == store.path(cell)
        payload = store.load(cell)
        assert payload["metrics"] == {"average_quality": 0.5}
        assert payload["schema"] == ARTIFACT_SCHEMA
        # Wall-clock lives in the sidecar, not the (deterministic)
        # artifact bytes.
        assert "duration_seconds" not in payload.get("meta", {})
        assert store.run_info(cell)["duration_seconds"] == 1.25

    def test_identity_mismatch_is_cache_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cell = SweepCell.make("paper-closed-loop", FAST, 1)
        path = store.save(cell, {"x": 1.0}, 0.0)
        payload = json.loads(path.read_text())
        payload["seed"] = 99  # tampered / colliding artifact
        path.write_text(json.dumps(payload))
        assert store.load(cell) is None

    def test_corrupt_artifact_is_cache_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cell = SweepCell.make("paper-closed-loop", FAST, 1)
        path = store.path(cell)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert store.load(cell) is None

    def test_missing_artifact_is_cache_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load(SweepCell.make("paper-closed-loop", FAST, 1)) is None


class TestRunSweep:
    def test_serial_sweep_writes_artifacts(self, tmp_path):
        report = run_sweep("paper-closed-loop", jobs=1, seeds=[2011],
                           out_dir=tmp_path, overrides=FAST)
        assert report.total == 1 and report.ran == 1 and report.cached == 0
        [outcome] = report.outcomes
        assert outcome.path.is_file()
        payload = json.loads(outcome.path.read_text())
        assert payload["scenario"] == "paper-closed-loop"
        assert payload["params"]["mode"] == "p2p"
        assert payload["metrics"] == outcome.metrics

    def test_second_run_hits_cache(self, tmp_path):
        first = run_sweep("paper-closed-loop", jobs=1, seeds=[2011, 2012],
                          out_dir=tmp_path, overrides=FAST)
        second = run_sweep("paper-closed-loop", jobs=1, seeds=[2011, 2012],
                           out_dir=tmp_path, overrides=FAST)
        assert first.ran == 2
        assert second.cached == 2 and second.ran == 0
        by_hash = {o.cell.hash: o.metrics for o in first.outcomes}
        for outcome in second.outcomes:
            assert outcome.metrics == by_hash[outcome.cell.hash]

    def test_adding_seeds_is_incremental(self, tmp_path):
        run_sweep("paper-closed-loop", jobs=1, seeds=[2011], out_dir=tmp_path,
                  overrides=FAST)
        extended = run_sweep("paper-closed-loop", jobs=1, seeds=[2011, 2012, 2013],
                             out_dir=tmp_path, overrides=FAST)
        assert extended.cached == 1
        assert extended.ran == 2

    def test_force_reruns_cached_cells(self, tmp_path):
        run_sweep("ablation-chunk-size", jobs=1, seeds=[2011],
                  out_dir=tmp_path, overrides={"t0_minutes": 5.0})
        forced = run_sweep("ablation-chunk-size", jobs=1, seeds=[2011],
                           out_dir=tmp_path, overrides={"t0_minutes": 5.0},
                           force=True)
        assert forced.ran == 1 and forced.cached == 0

    def test_progress_callback_sees_every_cell(self, tmp_path):
        seen = []
        run_sweep("ablation-chunk-size", jobs=1, seeds=[2011],
                  out_dir=tmp_path, progress=seen.append)
        assert len(seen) == 5  # the five T0 grid values

    def test_parallel_two_process_determinism(self, tmp_path):
        """Same seeds => identical artifacts, regardless of worker count.

        Since artifact schema 3 this holds at the byte level: the files
        themselves must be identical, not just the parsed metrics."""
        parallel = run_sweep("paper-closed-loop", jobs=2, seeds=[2011, 2012],
                             out_dir=tmp_path / "par", overrides=FAST)
        serial = run_sweep("paper-closed-loop", jobs=1, seeds=[2011, 2012],
                           out_dir=tmp_path / "ser", overrides=FAST)
        assert parallel.ran == 2 and serial.ran == 2
        par = {o.cell.hash: o.path.read_bytes() for o in parallel.outcomes}
        ser = {o.cell.hash: o.path.read_bytes() for o in serial.outcomes}
        assert par == ser

    def test_failing_cell_saves_completed_cells(self, tmp_path):
        """A bad cell raises SweepError *after* good cells are saved."""
        with pytest.raises(SweepError, match="1 sweep cell"):
            run_sweep("paper-closed-loop", jobs=1, seeds=[2011], out_dir=tmp_path,
                      overrides={**FAST, "mode": ["p2p", "bogus"]})
        rerun = run_sweep("paper-closed-loop", jobs=1, seeds=[2011], out_dir=tmp_path,
                          overrides=FAST)
        assert rerun.cached == 1 and rerun.ran == 0

    def test_failing_cell_parallel_saves_completed_cells(self, tmp_path):
        with pytest.raises(SweepError):
            run_sweep("paper-closed-loop", jobs=2, seeds=[2011], out_dir=tmp_path,
                      overrides={**FAST, "mode": ["p2p", "bogus"]})
        rerun = run_sweep("paper-closed-loop", jobs=1, seeds=[2011], out_dir=tmp_path,
                          overrides=FAST)
        assert rerun.cached == 1 and rerun.ran == 0

    def test_report_metric_names(self, tmp_path):
        report = run_sweep("ablation-chunk-size", jobs=1, seeds=[2011],
                           out_dir=tmp_path,
                           overrides={"t0_minutes": [1.0, 5.0]})
        assert "provisioned_mbps" in report.metric_names()
        assert report.total == 2

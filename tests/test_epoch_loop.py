"""Tests for the one epoch loop, :class:`~repro.sim.shard.ShardedSimulator`.

Every engine is a :class:`~repro.sim.shard.ShardedSimulator`, so a
snapshot field means the same thing in every engine: ``population`` is
the last simulation step's population and ``peak_population`` the
maximum over the epoch's steps.
"""

import ast
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.api import EngineConfig, open_run
from repro.experiments.config import small_scenario
from repro.experiments.runner import ClosedLoopEngine
from repro.sim.shard import GeoShardedSimulator, ShardedSimulator
from repro.vod.simulator import VoDSimulator
from repro.workload.catalog import catalog_config, geo_catalog_config

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

SPECS = {
    "closed-loop": lambda: small_scenario("p2p", horizon_hours=3.0),
    "catalog": lambda: catalog_config(
        num_channels=6, chunks_per_channel=4, horizon_hours=0.5,
        arrival_rate=0.5, num_shards=4, dt=60.0, interval_minutes=10.0,
    ),
    "geo-catalog": lambda: geo_catalog_config(
        topology="us-eu", num_channels=4, chunks_per_channel=3,
        horizon_hours=0.5, arrival_rate=0.4, num_shards=4, dt=60.0,
        interval_minutes=10.0,
    ),
}

LOOP_OWNED = (
    "epoch", "epochs_total", "done", "start", "advance_epoch", "result",
    "run", "snapshot_state", "restore_state", "close", "suspend", "_start",
    "_advance_all", "_gather_shards",
)

#: The hooks of the abstract epoch driver the engine class replaced;
#: each had one implementation, now inlined into the engine.
DELETED_HOOKS = (
    "_advance_data", "_bootstrap", "_reprovision", "_data_plane_state",
    "_restore_data_plane",
)


@pytest.mark.parametrize(
    "engine", [ClosedLoopEngine, ShardedSimulator, GeoShardedSimulator]
)
def test_every_engine_runs_on_the_one_epoch_loop(engine):
    """The epoch loop is defined once, on the engine class, and no
    subclass redefines any of it; no engine carries a ``kind`` (the run
    reads its config's)."""
    assert issubclass(engine, ShardedSimulator)
    assert ShardedSimulator.__bases__ == (object,)
    for name in LOOP_OWNED:
        assert name in vars(ShardedSimulator), name
        assert getattr(engine, name) is getattr(ShardedSimulator, name)
    assert not hasattr(engine, "kind")


def test_closed_loop_supplies_only_its_trace_source_and_result():
    """The closed loop is the sharded engine over one in-process shard:
    it defines its trace source and its result, nothing else."""
    assert issubclass(ClosedLoopEngine, ShardedSimulator)
    own = {name for name in vars(ClosedLoopEngine) if not name.startswith("__")}
    assert own == {"_in_process_shards", "_make_result"}


def test_geo_engine_supplies_only_its_region_graph_and_result():
    own = {
        name for name in vars(GeoShardedSimulator)
        if not name.startswith("__") or name == "__init__"
    }
    assert own == {"__init__", "_region_graph", "_make_result"}


def test_closed_loop_inherits_the_sharded_engines_lifecycle():
    for name in ("close", "suspend", "_start", "start", "advance_epoch",
                 "snapshot_state", "restore_state", "__enter__",
                 "__exit__"):
        assert name not in vars(ClosedLoopEngine)
        assert getattr(ClosedLoopEngine, name) is getattr(ShardedSimulator, name)


def test_no_class_defines_the_deleted_hooks():
    """No class under ``src/`` defines a hook of the deleted driver, and
    the driver, its epoch cutter and the merged-epoch subclass are gone."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name in ("EpochLoop", "KernelCursor", "MergedEpoch"):
                found.append(f"{path.name}: class {node.name}")
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name in DELETED_HOOKS
                ):
                    found.append(f"{path.name}: {node.name}.{item.name}")
    assert found == []


def _split_by_epoch(times, values, t_ends):
    """Per-step ``values`` grouped into the epochs ending at ``t_ends``
    (an epoch's last step is the first to reach its boundary)."""
    groups, i = [], 0
    for t_end in t_ends:
        start = i
        while i < len(times):
            i += 1
            if times[i - 1] + 1e-9 >= t_end:
                break
        groups.append(list(values[start:i]))
    return groups


@pytest.mark.parametrize("kind", list(SPECS))
def test_snapshot_population_is_per_step(kind, monkeypatch):
    steps = []
    if kind == "closed-loop":
        # The closed loop's result keeps no per-step population, so
        # record it off the kernel.
        original = VoDSimulator.step

        def step(sim):
            out = original(sim)
            steps.append((sim.now, sim.population()))
            return out

        monkeypatch.setattr(VoDSimulator, "step", step)
    config = EngineConfig(spec=SPECS[kind](), workers=1)
    with open_run(config) as run:
        snaps = list(run.epochs())
        result = run.result()
    if kind == "closed-loop":
        times, populations = zip(*steps)
    else:
        times, populations = result.times, result.populations
    groups = _split_by_epoch(times, populations, [s.t_end for s in snaps])
    assert sum(map(len, groups)) == len(times)
    for snap, group in zip(snaps, groups):
        assert group, f"epoch {snap.index} ran no step"
        assert snap.population == group[-1]
        assert snap.peak_population == max(group)
    if kind == "closed-loop":
        # not trivially flat: some epoch peaks before its boundary
        assert any(max(g) > g[-1] for g in groups)
    assert max(s.peak_population for s in snaps) == int(np.max(populations))


@pytest.mark.parametrize("kind,workers", [
    ("closed-loop", 1), ("catalog", 1), ("catalog", 2),
    ("geo-catalog", 1), ("geo-catalog", 2),
])
def test_epoch_record_holds_no_tracker_statistics(kind, workers):
    """Every engine's tracker absorbs an epoch's statistics when the
    epoch ends, so the run record keeps none: not in memory and not in
    the pickle a checkpoint writes."""
    config = EngineConfig(spec=SPECS[kind](), workers=workers)
    with open_run(config) as run:
        for _ in run.epochs():
            record = run._engine._run
            assert record.epochs and all(
                epoch.stats == [] for epoch in record.epochs
            )
        run.result()
        assert record.done and len(record.epochs) == record.epoch
        assert b"IntervalStats" not in pickle.dumps(record)

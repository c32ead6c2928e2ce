"""Tests for :mod:`repro.sim.loop` — the one epoch driver.

Every engine runs on :class:`~repro.sim.loop.EpochLoop`, so a snapshot
field means the same thing in every engine: ``population`` is the last
simulation step's population and ``peak_population`` the maximum over
the epoch's steps.
"""

import numpy as np
import pytest

from repro.api import EngineConfig, open_run
from repro.experiments.config import small_scenario
from repro.experiments.runner import ClosedLoopEngine
from repro.sim.loop import EpochLoop
from repro.sim.shard import GeoShardedSimulator, ShardedSimulator
from repro.vod.simulator import VoDSimulator
from repro.workload.catalog import catalog_config, geo_catalog_config

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
    "epoch", "epochs_total", "done", "start", "advance_epoch",
    "_epoch_payload", "result", "run", "snapshot_state", "restore_state",
)


@pytest.mark.parametrize(
    "engine", [ClosedLoopEngine, ShardedSimulator, GeoShardedSimulator]
)
def test_every_engine_runs_on_the_one_epoch_loop(engine):
    assert issubclass(engine, EpochLoop)
    assert not [name for name in LOOP_OWNED if name in vars(engine)]


def test_closed_loop_keeps_the_lifecycle_defaults():
    for name in ("close", "suspend", "shm_segment_name"):
        assert name not in vars(ClosedLoopEngine)


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

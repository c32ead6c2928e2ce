"""Tests for :mod:`repro.api` — the session-style engine surface.

The redesign's contract, pinned down here:

* streaming (``Run.epochs()``) and the monolithic ``Run.result()`` are
  the *same* run — results byte-identical to the historical entry
  points, for every engine kind;
* checkpoint-at-midpoint + resume is byte-identical to an uninterrupted
  run, including across different worker counts on either side;
* ``EngineConfig.workers`` is the one worker-count knob, validated by
  ``resolve_workers``; the retired ``REPRO_CATALOG_JOBS`` variable has
  no effect;
* the historical ``run_closed_loop``/``run_catalog`` shims are gone —
  ``open_run`` is the only entry point.
"""

import os
import pickle
import warnings

import numpy as np
import pytest

from helpers import plan_allocations
from repro.api import CHECKPOINT_SCHEMA, EngineConfig, Run, open_run, resolve_workers, resume
from repro.core.packing import pack_allocations
from repro.experiments.config import small_scenario
from repro.experiments.runner import ClosedLoopEngine
from repro.service.artifact import artifact_bytes, result_payload
from repro.sim.shard import summarize_catalog
from repro.workload.catalog import catalog_config, geo_catalog_config

RESULT_ARRAYS = (
    "times", "cloud_used", "peer_used", "provisioned", "shortfall",
    "populations", "quality_times", "quality",
)


def small_catalog(**overrides):
    knobs = dict(
        num_channels=6, chunks_per_channel=4, horizon_hours=0.5,
        arrival_rate=0.5, num_shards=4, dt=60.0, interval_minutes=10.0,
    )
    knobs.update(overrides)
    return catalog_config(**knobs)


def small_geo_catalog(**overrides):
    knobs = dict(
        topology="us-eu", num_channels=4, chunks_per_channel=3,
        horizon_hours=0.5, arrival_rate=0.4, num_shards=4, dt=60.0,
        interval_minutes=10.0,
    )
    knobs.update(overrides)
    return geo_catalog_config(**knobs)


def assert_catalog_identical(a, b):
    assert summarize_catalog(a) == summarize_catalog(b)
    for name in RESULT_ARRAYS:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.channel_populations == b.channel_populations
    assert a.vm_cost_series == b.vm_cost_series
    assert a.epoch_times == b.epoch_times


def assert_closed_loop_identical(a, b):
    assert a.interval_times == b.interval_times
    assert a.provisioned_series == b.provisioned_series
    assert a.used_series == b.used_series
    assert a.peer_series == b.peer_series
    assert a.population_series == b.population_series
    assert a.vm_cost_series == b.vm_cost_series
    assert a.average_quality == b.average_quality
    assert a.mean_vm_cost_per_hour == b.mean_vm_cost_per_hour
    sa, sb = a.simulation, b.simulation
    assert sa.arrivals == sb.arrivals and sa.departures == sb.departures
    for field in ("time", "cloud_used", "peer_used", "provisioned",
                  "shortfall"):
        assert getattr(sa.bandwidth, field).tobytes() == \
            getattr(sb.bandwidth, field).tobytes(), field


# ----------------------------------------------------------------------
# EngineConfig
# ----------------------------------------------------------------------

class TestEngineConfig:
    def test_kind_dispatch(self):
        assert EngineConfig(spec=small_scenario("p2p")).kind == "closed-loop"
        assert EngineConfig(spec=small_catalog()).kind == "catalog"
        assert EngineConfig(spec=small_geo_catalog()).kind == "geo-catalog"

    def test_rejects_non_spec(self):
        with pytest.raises(TypeError, match="EngineConfig.spec"):
            EngineConfig(spec={"mode": "p2p"})

    def test_closed_loop_is_single_process(self):
        with pytest.raises(ValueError, match="single-process"):
            EngineConfig(spec=small_scenario("p2p"), workers=4)
        # workers=1 and None are fine.
        EngineConfig(spec=small_scenario("p2p"), workers=1)
        assert EngineConfig(spec=small_scenario("p2p")).resolved_workers() == 1

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            EngineConfig(spec=small_catalog(), workers="auto")
        assert EngineConfig(
            spec=small_catalog(), workers=0
        ).resolved_workers() == 1

    def test_closed_loop_ignores_env(self, monkeypatch):
        """The retired worker env variable never reaches the closed loop."""
        monkeypatch.setenv("REPRO_CATALOG_JOBS", "4")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no deprecation warning either
            assert EngineConfig(
                spec=small_scenario("p2p")
            ).resolved_workers() == 1


class TestResolveWorkers:
    def test_explicit_is_authoritative_and_unwarned(self, monkeypatch):
        monkeypatch.setenv("REPRO_CATALOG_JOBS", "7")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_workers(3) == 3

    def test_retired_env_var_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_CATALOG_JOBS", "2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_workers(None) == 1

    def test_blank_env_is_serial_and_silent(self, monkeypatch):
        monkeypatch.setenv("REPRO_CATALOG_JOBS", "  ")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_workers(None) == 1

    def test_explicit_clamped(self):
        assert resolve_workers(-2) == 1
        with pytest.raises(ValueError, match="workers"):
            resolve_workers("many")

    def test_non_integral_workers_raise_not_truncate(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(2.9)
        with pytest.raises(ValueError, match="workers"):
            EngineConfig(spec=small_catalog(), workers=0.5)
        assert resolve_workers("3") == 3  # strings still parse
        assert resolve_workers(np.int64(3)) == 3


# ----------------------------------------------------------------------
# Streaming == monolithic
# ----------------------------------------------------------------------

class TestStreamingParity:
    def test_catalog_stream_matches_monolithic(self):
        config = small_catalog()
        with open_run(EngineConfig(spec=config, workers=1)) as run:
            mono = run.result()
        with open_run(EngineConfig(spec=config, workers=1)) as run:
            snaps = list(run.epochs())
            streamed = run.result()
        assert_catalog_identical(mono, streamed)
        assert [s.index for s in snaps] == list(range(1, len(snaps) + 1))
        assert snaps[-1].is_final
        assert sum(s.arrivals for s in snaps) == mono.arrivals
        assert sum(s.departures for s in snaps) == mono.departures
        assert snaps[-1].population == mono.final_population
        assert max(s.peak_population for s in snaps) == mono.peak_population
        # Every non-final boundary carries its full provisioning decision.
        assert all(s.decision is not None for s in snaps[:-1])
        assert snaps[-1].decision is None
        assert [s.vm_cost_per_hour for s in snaps[:-1]] == mono.vm_cost_series

    def test_closed_loop_stream_matches_monolithic(self):
        scenario = small_scenario("p2p", horizon_hours=3.0)
        with open_run(scenario) as run:
            mono = run.result()
        with open_run(scenario) as run:
            snaps = list(run.epochs())
            streamed = run.result()
        assert_closed_loop_identical(mono, streamed)
        assert len(snaps) == run.epochs_total
        assert sum(s.arrivals for s in snaps) == mono.simulation.arrivals
        assert [s.vm_cost_per_hour for s in snaps[:-1]] == mono.vm_cost_series

    def test_geo_stream_matches_monolithic(self):
        config = small_geo_catalog()
        with open_run(EngineConfig(spec=config, workers=1)) as run:
            mono = run.result()
        with open_run(EngineConfig(spec=config, workers=1)) as run:
            for _ in run.epochs():
                pass
            streamed = run.result()
        assert_catalog_identical(mono, streamed)
        assert mono.epoch_discounts == streamed.epoch_discounts
        assert mono.epoch_remote_fractions == streamed.epoch_remote_fractions
        assert mono.epoch_egress_rates == streamed.epoch_egress_rates

    def test_epochs_iterator_is_resumable(self):
        config = small_catalog()
        with open_run(EngineConfig(spec=config, workers=1)) as run:
            first = next(run.epochs())
            rest = list(run.epochs())  # a NEW iterator continues, not restarts
            assert first.index == 1
            assert [s.index for s in rest] == \
                list(range(2, len(rest) + 2))
            run.result()

    def test_result_is_repeatable(self):
        with open_run(EngineConfig(spec=small_catalog(), workers=1)) as run:
            assert_catalog_identical(run.result(), run.result())

    def test_predictor_key_round_trip(self):
        scenario = small_scenario("client-server", horizon_hours=2.0)
        with open_run(EngineConfig(spec=scenario, predictor="ewma")) as run:
            via_key = run.result()
        from repro.experiments.registry import make_predictor

        direct = ClosedLoopEngine(
            scenario, predictor=make_predictor("ewma")
        ).run()
        assert_closed_loop_identical(via_key, direct)

    def test_unknown_predictor_fails_fast(self):
        # Validation moved up into EngineConfig itself: the bad key is
        # rejected at construction, before any engine work.
        with pytest.raises(ValueError, match="unknown predictor"):
            EngineConfig(spec=small_scenario("p2p"), predictor="oracle")

    def test_unknown_controller_fails_fast(self):
        with pytest.raises(ValueError, match="unknown controller"):
            EngineConfig(spec=small_scenario("p2p"), controller="oracle")

    @pytest.mark.parametrize("controller", ["reactive", "adapt"])
    def test_predictor_the_policy_ignores_fails_fast(self, controller):
        with pytest.raises(ValueError, match="never consults a predictor"):
            EngineConfig(spec=small_scenario("p2p"), controller=controller,
                         predictor="ewma")
        document = EngineConfig(
            spec=small_scenario("p2p"), controller=controller
        ).to_dict()
        document["predictor"] = "ewma"
        with pytest.raises(ValueError, match="never consults a predictor"):
            EngineConfig.from_dict(document)
        for keeps in ("paper", "pid", "mpc"):
            EngineConfig(spec=small_scenario("p2p"), controller=keeps,
                         predictor="ewma")

    def test_open_run_rejects_conflicting_kwargs(self):
        with pytest.raises(TypeError, match="inside the EngineConfig"):
            open_run(EngineConfig(spec=small_catalog()), workers=2)


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------

def checkpoint_at(config_api, stop_after, path):
    """Run until ``stop_after`` epochs completed, checkpoint, close."""
    with open_run(config_api) as run:
        for snap in run.epochs():
            if snap.index == stop_after:
                break
        return run.checkpoint(path)


class TestCheckpointResume:
    @pytest.mark.parametrize("ckpt_workers,resume_workers", [
        (1, 1), (1, 4), (4, 1), (4, 4),
    ])
    def test_catalog_midpoint_resume_identical(self, tmp_path,
                                               ckpt_workers, resume_workers):
        config = small_catalog()
        with open_run(EngineConfig(spec=config, workers=1)) as run:
            reference = run.result()
        path = tmp_path / "mid.ckpt"
        checkpoint_at(
            EngineConfig(spec=config, workers=ckpt_workers), 1, path
        )
        with resume(path, workers=resume_workers) as tail:
            assert tail.epoch == 1
            resumed = tail.result()
        assert_catalog_identical(reference, resumed)

    @pytest.mark.parametrize("ckpt_workers,resume_workers", [(1, 4), (4, 1)])
    def test_geo_midpoint_resume_identical(self, tmp_path,
                                           ckpt_workers, resume_workers):
        config = small_geo_catalog()
        with open_run(EngineConfig(spec=config, workers=1)) as run:
            reference = run.result()
        path = tmp_path / "geo.ckpt"
        checkpoint_at(
            EngineConfig(spec=config, workers=ckpt_workers), 1, path
        )
        with resume(path, workers=resume_workers) as tail:
            resumed = tail.result()
        assert_catalog_identical(reference, resumed)
        assert reference.epoch_discounts == resumed.epoch_discounts
        assert reference.epoch_egress_rates == resumed.epoch_egress_rates

    def test_closed_loop_midpoint_resume_identical(self, tmp_path):
        scenario = small_scenario("p2p", horizon_hours=3.0)
        with open_run(scenario) as run:
            reference = run.result()
        path = tmp_path / "cl.ckpt"
        checkpoint_at(EngineConfig(spec=scenario), 1, path)
        with resume(path) as tail:
            resumed = tail.result()
        assert_closed_loop_identical(reference, resumed)

    def test_checkpoint_before_first_epoch(self, tmp_path):
        config = small_catalog()
        path = tmp_path / "zero.ckpt"
        with open_run(EngineConfig(spec=config, workers=1)) as run:
            run.checkpoint(path)  # bootstraps, zero epochs completed
            reference = run.result()
        with resume(path) as tail:
            assert tail.epoch == 0
            assert_catalog_identical(reference, tail.result())

    def test_checkpoint_after_done(self, tmp_path):
        config = small_catalog()
        path = tmp_path / "done.ckpt"
        with open_run(EngineConfig(spec=config, workers=1)) as run:
            reference = run.result()
            run.checkpoint(path)
        with resume(path) as tail:
            assert tail.done
            assert list(tail.epochs()) == []
            assert_catalog_identical(reference, tail.result())

    def test_checkpointed_run_keeps_going(self, tmp_path):
        """checkpoint() must not disturb the in-memory run."""
        config = small_catalog()
        with open_run(EngineConfig(spec=config, workers=1)) as run:
            reference = run.result()
        with open_run(EngineConfig(spec=config, workers=4)) as run:
            for snap in run.epochs():
                run.checkpoint(tmp_path / f"e{snap.index}.ckpt")
            assert_catalog_identical(reference, run.result())

    def test_checkpoint_after_close_raises(self, tmp_path):
        """A closed engine's workers (and shard state) are gone;
        checkpointing then must raise, not write an unresumable file."""
        run = open_run(EngineConfig(spec=small_catalog(), workers=2))
        next(run.epochs())
        run.close()
        with pytest.raises(RuntimeError, match="closed engine"):
            run.checkpoint(tmp_path / "late.ckpt")
        assert not (tmp_path / "late.ckpt").exists()

    def test_checkpoint_is_fsynced_before_rename(self, tmp_path, monkeypatch):
        """The checkpoint's bytes reach the disk before the rename that
        publishes them, and no ``.tmp`` file survives the write."""
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = checkpoint_at(EngineConfig(spec=small_catalog()), 1,
                             tmp_path / "mid.ckpt")
        assert calls == ["fsync", "replace"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mid.ckpt"]
        with resume(path) as resumed:
            assert resumed.epoch == 1

    def test_resume_rejects_non_checkpoints(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(pickle.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="not a repro checkpoint"):
            resume(path)

    def test_resume_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "future.ckpt"
        path.write_bytes(pickle.dumps({
            "format": "repro-checkpoint",
            "schema": CHECKPOINT_SCHEMA + 1,
        }))
        with pytest.raises(ValueError, match="schema"):
            resume(path)

    def test_resume_rejects_schema_6(self, tmp_path):
        """Schema 6 pickled the kernel's quality-window/sojourn-slack
        settings and the controller's budget ledger; it is not read."""
        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps({
            "format": "repro-checkpoint",
            "schema": 6,
        }))
        with pytest.raises(ValueError, match="schema 6"):
            resume(path)

    def test_resume_rejects_schema_7(self, tmp_path):
        """Schema 7 pickled geo decisions holding dict allocation plans;
        it is not read."""
        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps({
            "format": "repro-checkpoint",
            "schema": 7,
        }))
        with pytest.raises(ValueError, match="schema 7"):
            resume(path)

    def test_resume_rejects_schema_8(self, tmp_path):
        """Schema 8 pickled the kernel with a chunk column and per-step
        downloader counts; it is not read."""
        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps({
            "format": "repro-checkpoint",
            "schema": 8,
        }))
        with pytest.raises(ValueError, match="schema 8"):
            resume(path)

    def test_resume_rejects_schema_9(self, tmp_path):
        """Schema 9 pickled single-region decisions with their packing
        as a field; it is not read."""
        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps({
            "format": "repro-checkpoint",
            "schema": 9,
        }))
        with pytest.raises(ValueError, match="schema 9"):
            resume(path)

    def test_resume_rejects_schema_10(self, tmp_path):
        """Schema 10 pickled single-region decisions holding a dict
        ``vm_plan``; it is not read."""
        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps({
            "format": "repro-checkpoint",
            "schema": 10,
        }))
        with pytest.raises(ValueError, match="schema 10"):
            resume(path)

    def test_resume_rejects_schema_11(self, tmp_path):
        """Schema 11 pickled one controller class per region shape, each
        with its own decision type; it is not read."""
        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps({
            "format": "repro-checkpoint",
            "schema": 11,
        }))
        with pytest.raises(ValueError, match="schema 11"):
            resume(path)

    def test_resume_rejects_schema_12(self, tmp_path):
        """Schema 12 pickled epoch records holding every epoch's tracker
        statistics and the kernel's int64 trace and hold columns; it is
        not read."""
        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps({
            "format": "repro-checkpoint",
            "schema": 12,
        }))
        with pytest.raises(ValueError, match="schema 12"):
            resume(path)

    def test_resume_rejects_schema_13(self, tmp_path):
        """Schema 13 pickled the kernel with int64 row channel and cell
        columns, an upload column in client-server mode and its whole
        trace; it is not read."""
        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps({
            "format": "repro-checkpoint",
            "schema": 13,
        }))
        with pytest.raises(ValueError, match="schema 13"):
            resume(path)

    def test_resume_rejects_schema_14(self, tmp_path):
        """Schema 14 pickled the closed loop's own simulator and cursor
        beside the control plane; it is not read."""
        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps({
            "format": "repro-checkpoint",
            "schema": 14,
        }))
        with pytest.raises(ValueError, match="schema 14"):
            resume(path)

    def test_resume_rejects_schema_15(self, tmp_path):
        """Schema 15 pickled shards holding a cursor object, a separate
        estimator entry and kernels carrying their dead rows and unused
        tail; it is not read."""
        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps({
            "format": "repro-checkpoint",
            "schema": 15,
        }))
        with pytest.raises(ValueError, match="schema 15"):
            resume(path)

    def test_resume_rejects_schema_16(self, tmp_path):
        """Schema 16 pickled kernels keeping their capacity sums in an
        id-keyed dict; it is not read."""
        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps({
            "format": "repro-checkpoint",
            "schema": 16,
        }))
        with pytest.raises(ValueError, match="schema 16"):
            resume(path)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_after_trace_prefix_drop_identical(self, tmp_path,
                                                      workers):
        """A checkpoint taken after every kernel dropped its consumed
        trace prefix resumes to the uninterrupted run's bytes."""
        config = small_catalog()
        with open_run(EngineConfig(spec=config, workers=1)) as run:
            reference = run.result()
        # By the close of epoch 2 of 3 each kernel's cursor has passed
        # half of its trace, so the prefix is gone: the cursor counts
        # from the cut, below the sessions admitted.
        with open_run(EngineConfig(spec=config, workers=1)) as run:
            for snap in run.epochs():
                if snap.index == 2:
                    break
            sims = [shard.sim for shard in run._engine._shards]
            assert all(sim._cursor < sim.arrivals for sim in sims)
        path = checkpoint_at(
            EngineConfig(spec=config, workers=workers), 2,
            tmp_path / "cut.ckpt",
        )
        with resume(path, workers=workers) as tail:
            assert tail.epoch == 2
            resumed = tail.result()
        assert_catalog_identical(reference, resumed)

    @pytest.mark.parametrize("module,name", [
        ("repro.vod.user", "UserStore"),      # a deleted module
        ("repro.cloud.broker", "VMPool"),     # a deleted class
        ("repro.sim.engine", "Simulator"),    # a deleted module
    ])
    def test_resume_rejects_stale_classes(self, tmp_path, module, name):
        """A checkpoint naming a class this version no longer has is an
        unknown schema: ``ValueError`` naming the path, not a raw
        ``ImportError``/``AttributeError`` from the unpickler."""
        raw = pickle.dumps({
            "format": "repro-checkpoint",
            "schema": CHECKPOINT_SCHEMA,
            "state": _Stale(),
        }, protocol=2)
        stale = f"{_Stale.__module__}\n_Stale\n".encode()
        assert stale in raw
        path = tmp_path / "stale.ckpt"
        path.write_bytes(raw.replace(stale, f"{module}\n{name}\n".encode()))
        with pytest.raises(ValueError, match="stale.ckpt"):
            resume(path)

    def test_resume_rejects_truncated_file(self, tmp_path):
        good = checkpoint_at(EngineConfig(spec=small_catalog()), 1,
                             tmp_path / "good.ckpt")
        path = tmp_path / "cut.ckpt"
        path.write_bytes(good.read_bytes()[:1000])
        with pytest.raises(ValueError, match="cut.ckpt"):
            resume(path)

    @pytest.mark.parametrize("spec,workers", [
        (lambda: small_scenario("p2p", horizon_hours=3.0), 1),
        (small_catalog, 1),
        (small_catalog, 2),
        (small_geo_catalog, 1),
    ], ids=["closed-loop-p2p", "catalog-w1", "catalog-w2", "geo"])
    def test_checkpoint_bytes_depend_only_on_the_run(self, tmp_path, spec,
                                                     workers):
        """Two identical runs checkpointed at the same epoch in one
        process write the same bytes (no process-global counters, no
        uninitialised buffer tails)."""
        first, second = (
            checkpoint_at(EngineConfig(spec=spec(), workers=workers), 1,
                          tmp_path / f"{i}.ckpt").read_bytes()
            for i in range(2)
        )
        assert first == second


    def test_resumed_decisions_pack_on_demand(self, tmp_path):
        """A packing read before the checkpoint is not pickled (the bytes
        match an unread run), and resumed decisions still pack on read."""
        scenario = small_scenario("p2p", horizon_hours=3.0)
        unread = checkpoint_at(EngineConfig(spec=scenario), 1,
                               tmp_path / "unread.ckpt")
        path = tmp_path / "read.ckpt"
        with open_run(scenario) as run:
            for snap in run.epochs():
                assert snap.decision.packing.total_vms > 0
                if snap.index == 1:
                    break
            run.checkpoint(path)
        assert path.read_bytes() == unread.read_bytes()
        with resume(path) as tail:
            decisions = tail.result().decisions
        assert len(decisions) > 2
        assert all("packing" not in vars(d) for d in decisions)
        for d in decisions:
            assert d.packing == pack_allocations(plan_allocations(d.plan))


class _Stale:
    """Stand-in whose pickled global is rewritten to a removed name."""


# ----------------------------------------------------------------------
# Suspend
# ----------------------------------------------------------------------

@pytest.mark.parametrize("spec,workers", [
    (lambda: small_scenario("p2p", horizon_hours=3.0), 1),
    (small_catalog, 1),
    (small_catalog, 2),
    (small_geo_catalog, 1),
], ids=["closed-loop-p2p", "catalog-w1", "catalog-w2", "geo"])
def test_suspend_mid_run_then_continue_is_byte_identical(spec, workers):
    """Every engine parks its shards on ``suspend()`` (the closed loop
    its one in-process shard) and picks them up on the next epoch: the
    artifact equals the uninterrupted run's."""
    config = EngineConfig(spec=spec(), workers=workers)
    with open_run(config) as run:
        reference = artifact_bytes(result_payload(run.kind, run.result()))
    with open_run(config) as run:
        for snap in run.epochs():
            if snap.index == 1:
                run.suspend()
                assert run._engine._shards is None
                run.suspend()  # idempotent
        parked = artifact_bytes(result_payload(run.kind, run.result()))
    assert parked == reference


# ----------------------------------------------------------------------
# Removed shims
# ----------------------------------------------------------------------

class TestRemovedShims:
    def test_shims_are_gone(self):
        with pytest.raises(ImportError):
            from repro.experiments.runner import run_closed_loop  # noqa: F401
        with pytest.raises(ImportError):
            from repro.sim.shard import run_catalog  # noqa: F401
        import repro.experiments
        import repro.sim
        assert "run_closed_loop" not in repro.experiments.__all__
        assert "run_catalog" not in repro.sim.__all__
        with pytest.raises(AttributeError):
            repro.sim.run_catalog

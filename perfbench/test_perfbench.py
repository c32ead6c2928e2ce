"""The benchmark's own tests: tiny-size smoke, tracing hygiene, failures.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
from tracing import Tracer
from workloads import WORKLOADS, run_rep

HERE = Path(__file__).resolve().parent


def _wrapped_targets():
    """Every (owner, attribute) a traced run patches, with its value."""
    probe = Tracer()
    layers.install(probe, jobs=1)
    targets = [(owner, attr) for owner, attr, _ in probe._patches]
    probe.restore()
    from repro.vod.simulator import VoDSimulator

    targets.append((VoDSimulator, "step"))  # the closed loop's counter
    return {(owner, attr): vars(owner).get(attr) for owner, attr in targets}


SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_smoke_of_the_command(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", "1", "--tiny"],
        capture_output=True, text=True, timeout=120, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.PANEL + len(
        WORKLOADS[workload].traced_passes
    )
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["end_to_end"]:
        assert f"  {m['name']} " in proc.stdout  # the untraced report


@pytest.mark.parametrize("workload", ["catalog-flash", "paper-p2p"])
def test_traced_run_restores_every_wrapped_callable_and_keeps_digest(
    workload,
):
    before = _wrapped_targets()
    plain = run_rep(WORKLOADS[workload], 3, tiny=True, workers=1)
    traced = run_rep(WORKLOADS[workload], 3, tiny=True, workers=1,
                     traced=True)
    assert plain["errors"] == [] and traced["errors"] == []
    assert traced["digest"] == plain["digest"]
    assert traced["layers"]["trace.reconcile_error"] < 0.02
    assert _wrapped_targets() == before


def test_catalog_digest_is_the_same_at_workers_1_and_2():
    flash = WORKLOADS["catalog-flash"]
    one = run_rep(flash, 5, tiny=True, workers=1)
    two = run_rep(flash, 5, tiny=True, workers=2)
    assert one["errors"] == [] and two["errors"] == []
    assert one["digest"] == two["digest"]


def _in_process(workload, seed, *, tiny, workers, traced, timeout):
    return run_rep(workload, seed, tiny=tiny, workers=workers, traced=traced)


def test_injected_invariant_violation_is_counted_not_raised(monkeypatch):
    from repro.sim.shard import ShardedSimulator

    original = ShardedSimulator.result

    def leaky_result(self):
        result = original(self)
        result.final_population += 1  # one viewer appears from nowhere
        return result

    monkeypatch.setattr(ShardedSimulator, "result", leaky_result)
    untraced, traced = run.collect(
        WORKLOADS["geo-replan"], 1, 0.0, False, tiny=True, rep=_in_process
    )
    assert len(untraced) == run.PANEL and traced == []
    for outcome in untraced:
        assert any("final population" in e for e in outcome["errors"])


def test_a_crashing_engine_is_a_failed_run(monkeypatch):
    from repro.sim.shard import ShardedSimulator

    def crash(self):
        raise RuntimeError("injected engine failure")

    monkeypatch.setattr(ShardedSimulator, "advance_epoch", crash)
    outcome = run_rep(WORKLOADS["catalog-flash"], 1, tiny=True, workers=2)
    assert "injected engine failure" in outcome["errors"][0]


def test_a_digest_mismatch_fails_the_odd_run_out():
    def outcome(seed, digest, workers=2, traced=False):
        return {"seed": seed, "digest": digest, "workers": workers,
                "traced": traced, "errors": []}

    untraced = [outcome(1, "a"), outcome(2, "b"), outcome(1, "a")]
    traced = [outcome(1, "c", workers=1, traced=True)]
    assert run.cross_check(untraced, traced) == {1: "a", 2: "b"}
    assert [o["errors"] for o in untraced] == [[], [], []]
    assert "digest" in traced[0]["errors"][0]

"""The benchmark's workloads and one checked repetition of a workload.

A repetition drives one engine through :mod:`repro.api` only —
``open_run`` -> ``Run.advance()`` until the horizon -> ``Run.result()``
— one epoch at a time, and never raises: a crash or a failed check
comes back as an error in its outcome.  Run as a script it performs one
repetition in a fresh process and prints the outcome as a JSON line::

    python3 perfbench/workloads.py --workload catalog-flash --seed 2011
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402


def _catalog_flash(seed: int, tiny: bool):
    from repro.workload.catalog import CATALOG_VARIANTS, catalog_config

    size = (
        dict(num_channels=8, chunks_per_channel=4, horizon_hours=0.5,
             arrival_rate=0.6, num_shards=4, dt=60.0)
        if tiny else
        dict(num_channels=200, chunks_per_channel=12, horizon_hours=2.0,
             arrival_rate=170.0, num_shards=8, dt=30.0)
    )
    return catalog_config(
        seed=seed, name="catalog-flash", interval_minutes=15.0,
        **size, **CATALOG_VARIANTS["flash"],
    )


def _geo_replan(seed: int, tiny: bool):
    from repro.workload.catalog import CATALOG_VARIANTS, geo_catalog_config

    size = (
        dict(num_channels=4, chunks_per_channel=4, horizon_hours=0.5,
             arrival_rate=0.5, num_shards=2)
        if tiny else
        dict(num_channels=200, chunks_per_channel=12, horizon_hours=2.0,
             arrival_rate=170.0, num_shards=8)
    )
    return geo_catalog_config(
        seed=seed, name="geo-replan", topology="us-eu-ap", dt=60.0,
        interval_minutes=5.0, **size, **CATALOG_VARIANTS["diurnal"],
    )


def _paper_p2p(seed: int, tiny: bool):
    from repro.experiments.registry import closed_loop_config

    return closed_loop_config(
        seed=seed, mode="p2p", scale="small" if tiny else "paper",
        horizon_hours=1.0 if tiny else 12.0,
    )


@dataclass(frozen=True)
class Workload:
    """One named workload (why each exists: BENCHMARK.json, README.md).

    ``traced_passes`` lists the worker count of each traced run; the
    first pass gives every per-layer metric, a later pass only those
    under its prefix (forked workers keep no spans, so the fused
    kernel's phases come from an in-process pass).
    """

    name: str
    workers: int
    spec: Callable[[int, bool], object]
    traced_passes: Tuple[Tuple[int, str], ...] = ((1, ""),)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "catalog-flash",
            workers=2, spec=_catalog_flash,
            traced_passes=((2, ""), (1, "vod.multi.")),
        ),
        Workload(
            "geo-replan",
            workers=1, spec=_geo_replan,
        ),
        Workload(
            "paper-p2p",
            workers=1, spec=_paper_p2p,
        ),
    )
}


class _StepPopulation:
    """Sums the closed loop's population after every kernel step.

    The per-channel kernel's result keeps population only at interval
    boundaries, so ``user_steps_per_s`` needs this counter; installed
    for the closed loop only, traced or not.
    """

    def __init__(self) -> None:
        self.value = 0

    def __enter__(self) -> "_StepPopulation":
        from repro.vod.simulator import VoDSimulator

        original = VoDSimulator.step
        counter = self

        def step(sim):
            out = original(sim)
            counter.value += sim.population()
            return out

        VoDSimulator.step = step
        self._original = original
        return self

    def __exit__(self, *exc) -> None:
        from repro.vod.simulator import VoDSimulator

        VoDSimulator.step = self._original


def check(spec, result, snapshots: int, epochs_total: int) -> list:
    """The invariants every repetition's output must satisfy."""
    totals = getattr(result, "simulation", result)
    errors = []
    if totals.arrivals - totals.departures != totals.final_population:
        errors.append(
            f"arrivals {totals.arrivals} - departures {totals.departures} "
            f"!= final population {totals.final_population}"
        )
    quality = result.average_quality
    if not 0.0 <= quality <= 1.0:
        errors.append(f"quality {quality} outside [0, 1]")
    expected_steps = round(spec.horizon_seconds / spec.dt)
    if totals.steps != expected_steps:
        errors.append(f"{totals.steps} steps, expected {expected_steps}")
    if snapshots != epochs_total:
        errors.append(f"{snapshots} snapshots for {epochs_total} epochs")
    return errors


def _peak_rss_mb() -> float:
    """High-water RSS of this process and its (joined) workers."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def _measure(spec, workers: int, tracer: Optional[Tracer]) -> dict:
    from repro.api import EngineConfig, open_run
    from repro.service.artifact import artifact_bytes, result_payload, sha256_hex

    span = tracer.span if tracer is not None else lambda name: nullcontext()
    config = EngineConfig(spec=spec, workers=workers)
    counter = _StepPopulation() if config.kind == "closed-loop" \
        else nullcontext()
    clock = layers.install(tracer, workers) if tracer is not None else None
    run = None
    with counter:
        started = time.perf_counter()
        try:
            with span("setup"):
                run = open_run(config)
                # The engine's idempotent start hooks: bootstrap, then (for
                # the sharded engines) shard build and worker spawn.
                run._engine.start()
                if hasattr(run._engine, "_start"):
                    run._engine._start()
            ready = time.perf_counter()
            first_epoch = None
            snapshots = 0
            while run.advance() is not None:
                snapshots += 1
                if first_epoch is None:
                    first_epoch = time.perf_counter()
            result = run.result()
            done = time.perf_counter()
            epochs_total = run.epochs_total
        finally:
            if run is not None:
                run.close()
    peak_rss = _peak_rss_mb()
    digest = sha256_hex(artifact_bytes(result_payload(config.kind, result)))
    if config.kind == "closed-loop":
        user_steps = counter.value
    else:
        user_steps = int(result.populations.sum())
    run_s = done - ready
    vm_cost = result.vm_cost_series
    outcome = {
        "errors": check(spec, result, snapshots, epochs_total),
        "digest": digest,
        "wall_s": done - started,
        "metrics": {
            "setup_s": ready - started,
            "run_s": run_s,
            "first_epoch_s": first_epoch - started,
            "user_steps_per_s": user_steps / run_s,
            "peak_rss_mb": peak_rss,
            "quality": float(result.average_quality),
            "vm_cost_per_h": sum(vm_cost) / len(vm_cost) if vm_cost else 0.0,
        },
    }
    if tracer is not None:
        outcome["layers"] = layers.metrics(
            tracer, clock, done - started, user_steps
        )
    return outcome


def run_rep(
    workload: Workload,
    seed: int,
    *,
    tiny: bool = False,
    workers: Optional[int] = None,
    traced: bool = False,
) -> dict:
    """One checked repetition in this process; never raises."""
    workers = workload.workers if workers is None else workers
    outcome = {"seed": seed, "workers": workers, "traced": traced,
               "errors": []}
    tracer = Tracer() if traced else None
    try:
        outcome.update(_measure(workload.spec(seed, tiny), workers, tracer))
    except Exception:
        outcome["errors"] = [traceback.format_exc()]
    finally:
        if tracer is not None:
            tracer.restore()
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    outcome = run_rep(
        WORKLOADS[args.workload], args.seed, tiny=args.tiny,
        workers=args.workers, traced=bool(args.trace),
    )
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())

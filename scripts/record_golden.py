"""Record golden kernel trajectories for the parity tests.

The step-kernel refactor contract (docs/performance.md) is that the
vectorized kernel reproduces the scalar kernel's fixed-seed trajectories
*byte for byte*: same per-channel RNG stream consumption order, same
float accumulation order, hence identical quality series, bandwidth
series and arrival/departure counts.

This script runs the small fixed-capacity kernel scenarios, two
closed-loop runs, two small sharded catalogs and the 15 cells of the
``ablation-controllers`` grid, and writes their trajectories (metrics,
for the grid) to ``tests/golden/``.
JSON float serialization uses ``repr`` round-tripping, so the recorded
values are binary-exact.

Regenerating the fixtures is only legitimate from a commit whose kernel
is already known to be trajectory-preserving (e.g. the pre-refactor
scalar kernel, or a later commit that intentionally changes trajectories
and says so in its changelog):

    PYTHONPATH=src python scripts/record_golden.py

CI's golden-guard job re-records into a scratch directory
(``--out DIR``) and diffs it against ``tests/golden/``, so *any* silent
trajectory drift fails the build — not just drift the parity tests'
summary statistics happen to notice.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.api import EngineConfig, open_run
from repro.experiments import registry
from repro.experiments.config import small_scenario
from repro.vod.simulator import VoDSimulator, VoDSystemConfig
from repro.workload.catalog import CATALOG_VARIANTS, catalog_config
from repro.workload.trace import generate_trace

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"


def kernel_trajectory(mode: str, *, steps: int = 360,
                      capacity_per_chunk: float = 400_000.0) -> dict:
    """Run the raw step kernel (no controller) and dump its trajectory.

    The capacity is deliberately scarce so the run exercises every kernel
    path: smooth and unsmooth completions, playback holds, departures and
    (in p2p mode) rarest-first peer allocation with cloud top-up.
    """
    scenario = small_scenario(
        mode,
        num_channels=3,
        chunks_per_channel=6,
        target_population=180,
        horizon_hours=4.0,
        seed=2011,
    )
    config = VoDSystemConfig(
        mode=mode,
        dt=10.0,
        user_rate_cap=scenario.constants.vm_bandwidth,
        seed=scenario.seed,
    )
    sim = VoDSimulator(
        scenario.channels(), generate_trace(scenario.trace_config()), config
    )
    for spec in sim.channels:
        sim.set_cloud_capacity(
            spec.channel_id, np.full(spec.num_chunks, capacity_per_chunk)
        )
    for _ in range(steps):
        sim.step()
    result = sim.result()
    log = result.bandwidth
    qt, qv = result.quality.quality_series()
    return {
        "scenario": {"mode": mode, "steps": steps,
                     "capacity_per_chunk": capacity_per_chunk},
        "arrivals": int(result.arrivals),
        "departures": int(result.departures),
        "final_population": int(result.final_population),
        "total_retrievals": int(result.quality.total_retrievals),
        "unsmooth_retrievals": int(result.quality.unsmooth_retrievals),
        "mean_sojourn": float(result.quality.mean_sojourn),
        "bandwidth_times": log.time.tolist(),
        "cloud_used": log.cloud_used.tolist(),
        "peer_used": log.peer_used.tolist(),
        "shortfall": log.shortfall.tolist(),
        "quality_times": [float(x) for x in qt],
        "quality": [float(x) for x in qv],
    }


def closed_loop_trajectory(mode: str) -> dict:
    """Run the full closed loop (controller in the loop) and dump it."""
    scenario = small_scenario(mode, horizon_hours=3.0, seed=2011)
    with open_run(scenario) as run:
        result = run.result()
    sim = result.simulation
    qt, qv = sim.quality.quality_series()
    return {
        "scenario": {"mode": mode, "horizon_hours": 3.0},
        "arrivals": int(sim.arrivals),
        "departures": int(sim.departures),
        "final_population": int(sim.final_population),
        "total_retrievals": int(sim.quality.total_retrievals),
        "average_quality": float(sim.quality.average_quality),
        "mean_sojourn": float(sim.quality.mean_sojourn),
        "used_series": [float(x) for x in result.used_series],
        "peer_series": [float(x) for x in result.peer_series],
        "provisioned_series": [float(x) for x in result.provisioned_series],
        "population_series": [int(x) for x in result.population_series],
        "quality_times": [float(x) for x in qt],
        "quality": [float(x) for x in qv],
    }


def catalog_trajectory(mode: str) -> dict:
    """Run a small sharded catalog through ``open_run`` and dump it.

    8 channels x 4 chunks over 4 shards for half an hour, in the flash
    variant with its crowd moved into the window, and three provisioning
    epochs, so the controller reprovisions twice on merged shard
    statistics.
    """
    config = catalog_config(
        mode=mode, num_channels=8, chunks_per_channel=4, horizon_hours=0.5,
        arrival_rate=3.0, num_shards=4, dt=60.0, interval_minutes=10.0,
        **dict(CATALOG_VARIANTS["flash"], flash_hour=0.25),
    )
    with open_run(EngineConfig(spec=config, workers=1)) as run:
        result = run.result()
    return {
        "scenario": {"mode": mode, "variant": "flash", "num_channels": 8,
                     "num_shards": 4, "horizon_hours": 0.5},
        "arrivals": int(result.arrivals),
        "departures": int(result.departures),
        "final_population": int(result.final_population),
        "peak_population": int(result.peak_population),
        "total_retrievals": int(result.total_retrievals),
        "unsmooth_retrievals": int(result.unsmooth_retrievals),
        "mean_sojourn": float(result.mean_sojourn),
        "steps": int(result.steps),
        "peak_step_events": int(result.peak_step_events),
        "times": [float(x) for x in result.times],
        "cloud_used": [float(x) for x in result.cloud_used],
        "peer_used": [float(x) for x in result.peer_used],
        "provisioned": [float(x) for x in result.provisioned],
        "shortfall": [float(x) for x in result.shortfall],
        "populations": [int(x) for x in result.populations],
        "quality_times": [float(x) for x in result.quality_times],
        "quality": [float(x) for x in result.quality],
        "epoch_times": [float(x) for x in result.epoch_times],
        "vm_cost_series": [float(x) for x in result.vm_cost_series],
        "decision_capacities": [
            {str(c): [float(x) for x in cap]
             for c, cap in sorted(d.per_channel_capacity.items())}
            for d in result.decisions
        ],
        "channel_populations": {
            str(c): int(n) for c, n in sorted(
                result.channel_populations.items()
            )
        },
    }


def controller_cells() -> dict:
    """Every ``ablation-controllers`` cell's metrics at the registry
    defaults, seed 2011: each provisioning policy on each catalog shape
    (single-region zipf and flash, multi-region geo), keyed
    ``"<controller>/<catalog>"``."""
    spec = registry.get("ablation-controllers")
    return {
        f"{params['controller']}/{params['catalog']}": spec.run_cell(
            params, seed=2011
        )
        for params in spec.grid_points()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=GOLDEN_DIR,
                        help=f"output directory (default {GOLDEN_DIR}); "
                             "CI records into a scratch dir and diffs")
    args = parser.parse_args(argv)
    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    fixtures = {
        "kernel_client_server.json": kernel_trajectory("client-server"),
        "kernel_p2p.json": kernel_trajectory("p2p"),
        "closed_loop_client_server.json": closed_loop_trajectory(
            "client-server"
        ),
        "closed_loop_p2p.json": closed_loop_trajectory("p2p"),
        "catalog_client_server.json": catalog_trajectory("client-server"),
        "catalog_p2p.json": catalog_trajectory("p2p"),
    }
    for name, payload in fixtures.items():
        path = out_dir / name
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print(
            f"wrote {path} (arrivals={payload['arrivals']}, "
            f"departures={payload['departures']}, "
            f"retrievals={payload['total_retrievals']})"
        )
    cells = controller_cells()
    path = out_dir / "controllers.json"
    path.write_text(json.dumps(cells, indent=1) + "\n")
    print(f"wrote {path} ({len(cells)} controller cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

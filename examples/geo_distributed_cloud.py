#!/usr/bin/env python
"""Geo-distributed clouds — the paper's Section VII future work, built out.

Three regions (us-east, eu-west, ap-south) each host a Table II-style
cluster trio at regionally tinted prices. Viewer demand follows each
region's evening (time zones shift the flash crowds), so regions peak at
different wall-clock hours — exactly the situation where serving a peak
region from an off-peak region's idle VMs is attractive, if the latency
(utility) and egress (cost) penalties allow it.

The example sweeps one UTC day hour by hour, solving the multi-region
allocation each hour, and reports how much traffic crosses regions and
what the latency/egress tradeoff costs.  It closes with the same
economics in the *closed loop*: the multi-region catalog engine driven
through ``repro.api`` — streamed epoch by epoch, checkpointed at the
midpoint and resumed byte-identically under a different worker count.

Run:  python examples/geo_distributed_cloud.py
"""

import numpy as np

from repro.cloud.cluster import VirtualClusterSpec
from repro.experiments.config import PAPER, paper_capacity_model
from repro.experiments.reporting import format_table
from repro.geo.allocation import GeoVMProblem, greedy_geo_allocation, lp_geo_allocation
from repro.geo.region import GeoTopology, RegionSpec
from repro.queueing.capacity import solve_channel_capacity
from repro.vod.channel import default_behaviour_matrix
from repro.workload.diurnal import DiurnalPattern

R = PAPER.vm_bandwidth


def region_clusters(price_factor: float):
    rows = [("standard", 0.6, 0.45), ("medium", 0.8, 0.70), ("advanced", 1.0, 0.80)]
    return tuple(
        VirtualClusterSpec(name, utility, price * price_factor, 10, R)
        for name, utility, price in rows
    )


def build_topology() -> GeoTopology:
    regions = [
        RegionSpec("us-east", region_clusters(1.00)),
        RegionSpec("eu-west", region_clusters(1.10)),
        RegionSpec("ap-south", region_clusters(0.85)),
    ]
    latency = {
        ("us-east", "eu-west"): 80.0,
        ("us-east", "ap-south"): 220.0,
        ("eu-west", "ap-south"): 150.0,
    }
    egress = {
        ("us-east", "eu-west"): 0.02,
        ("us-east", "ap-south"): 0.05,
        ("eu-west", "ap-south"): 0.04,
    }
    return GeoTopology(regions, latency, egress, latency_halflife_ms=200.0)


def regional_demand(hour_utc: float, tz_offset: float, base_rate: float, model, behaviour):
    """Per-chunk cloud demand of one region at a UTC hour."""
    local = DiurnalPattern()
    factor = local.factor(((hour_utc + tz_offset) % 24) * 3600.0)
    result = solve_channel_capacity(model, behaviour, base_rate * factor, alpha=0.8)
    return result.cloud_demand


def geo_problem(topo, demands) -> GeoVMProblem:
    """The allocation problem over per-region demand arrays (chunk i of
    each region keyed ``i``)."""
    return GeoVMProblem(
        topology=topo,
        chunks={region: range(d.size) for region, d in demands.items()},
        demands=demands,
        vm_bandwidth=R,
        budget_per_hour=150.0,
    )


def main() -> None:
    topo = build_topology()
    model = paper_capacity_model()
    behaviour = default_behaviour_matrix(10)
    offsets = {"us-east": -5.0, "eu-west": 1.0, "ap-south": 5.5}
    base_rate = 0.15  # users/second per region at the daily mean

    rows = []
    remote_fractions = []
    for hour in range(0, 24, 2):
        demands = {
            region: regional_demand(hour, off, base_rate, model, behaviour)
            for region, off in offsets.items()
        }
        plan = greedy_geo_allocation(geo_problem(topo, demands))
        remote_fractions.append(plan.remote_fraction())
        rows.append(
            [
                hour,
                f"{sum(sum(d.tolist()) for d in demands.values()) * 8 / 1e6 / 10:.0f}",
                f"{plan.cost_per_hour:.1f}",
                f"{100 * plan.remote_fraction():.0f}%",
                "yes" if plan.feasible else "NO",
            ]
        )
    print(format_table(
        ["UTC hour", "demand (VMs)", "cost ($/h)", "served remotely", "feasible"],
        rows,
        title="One UTC day, three regions with shifted flash crowds",
    ))

    # A single peak hour, greedy vs LP.
    demands = {
        region: regional_demand(20, off, base_rate, model, behaviour)
        for region, off in offsets.items()
    }
    problem = geo_problem(topo, demands)
    greedy = greedy_geo_allocation(problem)
    lp = lp_geo_allocation(problem)
    print("\nPeak hour, greedy vs LP optimum:")
    print(format_table(
        ["solver", "objective", "cost ($/h)", "remote share"],
        [
            ["greedy", greedy.objective, greedy.cost_per_hour,
             f"{100 * greedy.remote_fraction():.0f}%"],
            ["LP", lp.objective, lp.cost_per_hour,
             f"{100 * lp.remote_fraction():.0f}%"],
        ],
    ))
    print(
        f"\nAcross the day, {100 * float(np.mean(remote_fractions)):.1f}% of "
        "VM-hours were served cross-region (peaking at "
        f"{100 * float(np.max(remote_fractions)):.0f}% during flash crowds) — "
        "idle off-peak capacity absorbing the rotating demand. The LP shows "
        "the headroom a smarter-than-greedy policy could exploit."
    )

    # ------------------------------------------------------------------
    # The same economics, closed loop: the multi-region catalog engine
    # through repro.api — streamed, checkpointed at the midpoint, and
    # resumed byte-identically (the long-horizon-run workflow).
    # ------------------------------------------------------------------
    import tempfile
    from pathlib import Path

    from repro.api import EngineConfig, open_run, resume
    from repro.sim.shard import summarize_catalog
    from repro.workload.catalog import geo_catalog_config

    config = geo_catalog_config(
        topology="us-eu", num_channels=6, chunks_per_channel=4,
        horizon_hours=0.5, arrival_rate=0.5, num_shards=3, dt=60.0,
        interval_minutes=10.0,
    )
    print("\nClosed-loop geo catalog (us-eu, CI scale) via repro.api:")
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "midpoint.ckpt"
        with open_run(EngineConfig(spec=config, workers=2)) as run:
            for epoch in run.epochs():
                print(f"  epoch {epoch.index}/{epoch.epochs_total}: "
                      f"{epoch.population} viewers, "
                      f"vm ${epoch.vm_cost_per_hour:.2f}/h")
                if epoch.index == run.epochs_total // 2:
                    run.checkpoint(ckpt)
                    print(f"  checkpointed at epoch {epoch.index} "
                          f"({ckpt.stat().st_size / 1e6:.1f} MB)")
            finished = summarize_catalog(run.result())
        with resume(ckpt, workers=1) as tail:  # other worker count: same bytes
            resumed = summarize_catalog(tail.result())
    assert resumed == finished, "resume must be byte-identical"
    print(
        f"  -> resumed run matches: remote fraction "
        f"{finished['mean_remote_fraction']:.3f}, egress "
        f"${finished['egress_cost_per_hour']:.2f}/h, latency-adjusted "
        f"quality {finished['latency_adjusted_quality']:.3f}"
    )


if __name__ == "__main__":
    main()

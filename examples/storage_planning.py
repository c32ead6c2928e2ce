#!/usr/bin/env python
"""Storage and VM rental planning on the paper's full catalogue.

Builds the complete paper-scale demand profile (20 channels x 20 chunks,
Zipf popularity, Section IV analysis), then solves both Section V
optimization problems with the paper's heuristics and compares them
against the LP bounds:

* storage rental (Eqn (6)) over the Table III NFS clusters under B_S = $1/h;
* VM configuration (Eqn (7)) over the Table II virtual clusters under
  B_M = $100/h, including the consecutive-chunk VM packing.

Run:  python examples/storage_planning.py
"""

import numpy as np

from repro.core.packing import pack_allocations
from repro.core.storage_rental import (
    StorageProblem,
    greedy_storage_rental,
    lp_storage_bound,
)
from repro.experiments.config import (
    PAPER,
    paper_capacity_model,
    paper_nfs_clusters,
    paper_vm_clusters,
)
from repro.experiments.reporting import format_table, mbps
from repro.geo.allocation import GeoVMProblem, greedy_geo_allocation, lp_geo_allocation
from repro.geo.region import GeoTopology, RegionSpec
from repro.p2p.contribution import solve_p2p_channel_capacity
from repro.queueing.capacity import solve_channel_capacity
from repro.vod.channel import default_behaviour_matrix
from repro.workload.zipf import assign_channel_rates


def build_demands(
    total_rate: float = 0.4,
    mode: str = "client-server",
    num_channels: int = PAPER.num_channels,
):
    """Per-chunk cloud demand for a catalogue of paper-style channels."""
    model = paper_capacity_model()
    behaviour = default_behaviour_matrix(PAPER.chunks_per_channel)
    rates = assign_channel_rates(total_rate, num_channels, 0.8)
    demands = {}
    for channel, rate in enumerate(rates):
        if mode == "p2p":
            result = solve_p2p_channel_capacity(
                model, behaviour, float(rate),
                peer_upload=0.9 * model.streaming_rate, alpha=0.8,
            )
            deltas = result.cloud_demand
        else:
            deltas = solve_channel_capacity(
                model, behaviour, float(rate), alpha=0.8
            ).cloud_demand
        for i, delta in enumerate(deltas):
            demands[(channel, i)] = float(delta)
    return model, demands


def main() -> None:
    model, demands = build_demands()
    total = sum(demands.values())
    print(
        f"catalogue: {PAPER.num_channels} channels x "
        f"{PAPER.chunks_per_channel} chunks, total cloud demand "
        f"{mbps(total):.0f} Mbps\n"
    )

    # ------------------------------------------------------------------
    # Storage rental.
    # ------------------------------------------------------------------
    storage_problem = StorageProblem(
        demands=demands,
        chunk_size_bytes=model.chunk_size_bytes,
        clusters=paper_nfs_clusters(),
        budget_per_hour=PAPER.storage_budget_per_hour,
    )
    plan = greedy_storage_rental(storage_problem)
    bound = lp_storage_bound(storage_problem)
    print("Storage rental (Eqn (6)) — greedy heuristic vs LP bound")
    print(
        format_table(
            ["quantity", "value"],
            [
                ["chunks placed", len(plan.placement)],
                ["feasible", plan.feasible],
                ["objective (u_f * Delta)", plan.objective],
                ["LP relaxation bound", bound],
                ["optimality gap", f"{100 * (1 - plan.objective / bound):.2f}%"],
                ["cost ($/h)", f"{plan.cost_per_hour:.5f}"],
                ["cost ($/day)", f"{24 * plan.cost_per_hour:.4f}"],
            ],
        )
    )
    loads = plan.cluster_loads()
    print(f"  placement: {loads}")
    print(
        "  note: with Table III prices the 'standard' cluster dominates on "
        "utility-per-dollar,\n  so the paper's u/p-sorted heuristic fills it "
        "first even though the budget is slack —\n  the LP bound shows the "
        "~20% utility left on the table (see `repro sweep micro-heuristics`).\n"
    )

    # ------------------------------------------------------------------
    # VM configuration + packing. P2P demands over a 6-channel slice are
    # used here because their Delta_i are genuinely fractional in VM
    # units (client-server demands are exact multiples of R), which is
    # what exercises VM sharing. The full 20-channel client-server
    # catalogue needs >= one VM per chunk (400 VMs) and is *infeasible*
    # against Table II's 150 — the paper's "budget should be increased"
    # signal, which the plan's feasible flag reports.
    # ------------------------------------------------------------------
    _, p2p_demands = build_demands(
        total_rate=0.3, mode="p2p", num_channels=6
    )
    # Eqn (7) is the one-region geo problem; at zero local latency its
    # objective is the undiscounted sum u~_v * z.
    vm_problem = GeoVMProblem(
        topology=GeoTopology(
            [RegionSpec("local", tuple(paper_vm_clusters()))], {}, {},
            local_latency_ms=0.0,
        ),
        chunks={"local": list(p2p_demands)},
        demands={"local": list(p2p_demands.values())},
        vm_bandwidth=model.vm_bandwidth,
        budget_per_hour=PAPER.vm_budget_per_hour,
    )
    vm_plan = greedy_geo_allocation(vm_problem)
    lp_plan = lp_geo_allocation(vm_problem)
    packing = pack_allocations({
        (vm_problem.keys[chunk], vm_plan.clusters[cluster][1]): z
        for chunk, cluster, z in zip(
            vm_plan.chunk.tolist(), vm_plan.cluster.tolist(),
            vm_plan.z.tolist(),
        )
    })
    print("VM configuration (Eqn (7)) — greedy heuristic vs LP optimum")
    print(
        format_table(
            ["quantity", "greedy", "LP optimum"],
            [
                ["feasible", vm_plan.feasible, lp_plan.feasible],
                ["objective (u~_v * z)", vm_plan.objective, lp_plan.objective],
                ["cost ($/h)", vm_plan.cost_per_hour, lp_plan.cost_per_hour],
                [
                    "VMs rented",
                    int(np.ceil(vm_plan.cluster_totals() - 1e-9).sum()),
                    int(np.ceil(lp_plan.cluster_totals() - 1e-9).sum()),
                ],
            ],
        )
    )
    print(
        f"\n  packing: {packing.total_vms} VMs, {packing.shared_vms} shared, "
        f"{packing.cross_channel_vms} serving multiple channels "
        f"(mean load {packing.mean_load:.2f})"
    )
    print(
        "  shared VMs carry consecutive chunks of one channel whenever "
        "possible, minimizing VM switches during playback (footnote 3)."
    )

    # ------------------------------------------------------------------
    # The same optimizers inside the closed loop: stream a small catalog
    # run through repro.api and watch each epoch's VM plan go by.
    # ------------------------------------------------------------------
    from repro.api import EngineConfig, open_run
    from repro.workload.catalog import catalog_config

    config = catalog_config(
        num_channels=8, chunks_per_channel=4, horizon_hours=0.5,
        arrival_rate=0.5, num_shards=4, dt=60.0, interval_minutes=10.0,
    )
    print("\nLive rental planning (8-channel catalog, repro.api stream):")
    with open_run(EngineConfig(spec=config)) as run:
        for epoch in run.epochs():
            decided = ("replanned" if epoch.decision is not None
                       and epoch.decision.storage_plan is not None
                       else "kept")
            print(f"  epoch {epoch.index}/{epoch.epochs_total}: "
                  f"{epoch.provisioned_mbps:.0f} Mbps reserved, "
                  f"vm ${epoch.vm_cost_per_hour:.2f}/h, "
                  f"storage plan {decided}")
        result = run.result()
    report = result.cost_report
    print(f"  -> billed: ${report.hourly_vm_cost:.2f}/h VMs, "
          f"${report.hourly_storage_cost * 24:.4f}/day storage")


if __name__ == "__main__":
    main()

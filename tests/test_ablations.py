"""The registry's ablation and extension cells: the direction each one
must show.

* ``ablation-chunk-size`` — the paper's footnote-3 chunk-size trade-off;
* ``micro-heuristics`` — the paper's greedy heuristics (Eqns (6), (7))
  against LP optima and an exact storage oracle;
* ``ablation-predictors`` — every arrival-rate predictor keeps quality;
* ``geo`` — pooling regions (Section VII's future work) against the LP.

The start-up delay extension is checked with the Section IV validator
(``test_queue_sim_validation.py``).
"""

import numpy as np
import pytest

from helpers import plan_allocations, serves_consecutive_run
from repro.cloud.cluster import NFSClusterSpec
from repro.core.packing import pack_allocations
from repro.core.storage_rental import (
    StorageProblem,
    exhaustive_storage_rental,
    greedy_storage_rental,
)
from repro.experiments.config import PAPER, paper_capacity_model, paper_vm_clusters
from repro.experiments.registry import (
    chunk_count_for,
    chunk_size_behaviour,
    geo_demand_at,
    geo_topology,
    get,
)
from repro.experiments.reporting import mbps
from repro.geo.allocation import GeoVMProblem, greedy_geo_allocation, lp_geo_allocation
from repro.geo.region import GeoTopology, RegionSpec
from repro.queueing.capacity import CapacityModel, solve_channel_capacity
from repro.vod.channel import default_behaviour_matrix

CHUNK = 15e6


def test_chunk_size_tradeoff():
    """Reserved capacity and VM switches fall with T0, the download
    wasted per VCR jump rises (the paper picked T0 = 5 min at the knee)."""
    reserved, switches, waste = [], [], []
    for t0_minutes in sorted(get("ablation-chunk-size").grid["t0_minutes"]):
        num_chunks = chunk_count_for(t0_minutes)
        model = CapacityModel(
            streaming_rate=PAPER.streaming_rate,
            chunk_duration=t0_minutes * 60.0,
            vm_bandwidth=PAPER.vm_bandwidth,
        )
        capacity = solve_channel_capacity(
            model, chunk_size_behaviour(num_chunks), 0.2, alpha=0.8
        )
        # Eqn (7): one region at zero latency.
        problem = GeoVMProblem(
            topology=GeoTopology(
                [RegionSpec("local", tuple(paper_vm_clusters()))], {}, {},
                local_latency_ms=0.0,
            ),
            chunks={"local": [(0, i) for i in range(capacity.cloud_demand.size)]},
            demands={"local": capacity.cloud_demand},
            vm_bandwidth=PAPER.vm_bandwidth,
            budget_per_hour=PAPER.vm_budget_per_hour,
        )
        plan = greedy_geo_allocation(problem)
        # A viewer crosses 60/T0 chunk boundaries per hour; each crossing
        # switches VM unless the packing co-locates the next chunk.
        shared_pairs = sum(
            len(vm.shares) - 1
            for vm in pack_allocations(plan_allocations(plan)).vms
            if serves_consecutive_run(vm) and len(vm.shares) > 1
        )
        total_pairs = max(1, num_chunks - 1)
        reserved.append(mbps(capacity.total_bandwidth))
        switches.append((60.0 / t0_minutes) * (1.0 - shared_pairs / total_pairs))
        # Half a chunk is fetched and abandoned per jump, in expectation.
        waste.append(0.5 * model.chunk_size_bytes / 1e6)
    assert reserved[0] >= reserved[-1]
    assert switches[0] >= switches[-1]
    assert waste == sorted(waste)


def test_vm_heuristic_never_beats_lp():
    gaps = [
        get("micro-heuristics").run_cell({}, seed=seed)["vm_gap"]
        for seed in range(5)
    ]
    assert all(g >= -1e-9 for g in gaps)
    assert np.mean(gaps) < 0.5


def test_storage_heuristic_vs_exact_oracle():
    """On a tight instance (2 + 2 slots for 4 chunks) the u/p ordering
    puts the hot chunks on the cheap cluster (b: 0.7/1e-4 beats a:
    1.0/2e-4 on u/p) although the objective rewards only u:
    greedy = 0.7*(4+3) + 1.0*(2+1) = 7.9 < 9.1 = 1.0*(4+3) + 0.7*(2+1)."""
    small = StorageProblem(
        demands={("c", i): float(i + 1) for i in range(4)},
        chunk_size_bytes=CHUNK,
        clusters=[
            NFSClusterSpec("a", 1.0, 2e-4, 2 * CHUNK),
            NFSClusterSpec("b", 0.7, 1e-4, 2 * CHUNK),
        ],
        budget_per_hour=1.0,
    )
    greedy = greedy_storage_rental(small)
    exact = exhaustive_storage_rental(small)
    assert greedy.objective <= exact.objective + 1e-9
    assert greedy.objective == pytest.approx(7.9)
    assert exact.objective == pytest.approx(9.1)


def test_every_predictor_keeps_quality():
    spec = get("ablation-predictors")
    qualities = [
        spec.run_cell({"predictor": key})["average_quality"]
        for key in spec.grid["predictor"]
    ]
    assert all(q >= 0.85 for q in qualities)


def test_geo_pooling_serves_remotely_and_lp_dominates_greedy():
    topology = geo_topology()
    model = paper_capacity_model()
    behaviour = default_behaviour_matrix(10)

    def problem(hour):
        demands = geo_demand_at(hour, model, behaviour)
        return GeoVMProblem(
            topology=topology,
            chunks={region: range(d.size) for region, d in demands.items()},
            demands=demands,
            vm_bandwidth=PAPER.vm_bandwidth,
            budget_per_hour=200.0,
        )

    remote = [
        greedy_geo_allocation(problem(hour)).remote_fraction()
        for hour in range(0, 24, 2)
    ]
    assert max(remote) > 0.0
    peak = problem(18)
    assert lp_geo_allocation(peak).objective >= (
        greedy_geo_allocation(peak).objective - 1e-6
    )

"""Differential tests: the block-vectorised geo greedy and the columnar
plan against the cell-by-cell greedy and the dict plan they replaced.

The oracle below is the multi-region greedy as it stood before it was
vectorised: cells sorted by ``(-Delta, viewer, repr(chunk))``, each
walking its viewer's options best utility-per-dollar first, with the
allocation kept as a dict keyed ``(viewer, chunk, serving, cluster)``
and every reduction a Python loop over that dict.  Two lines differ.
The old cell sort keyed on the need Delta / R, which can round two
demands one ulp apart to one need; here, as in the new code and the
paper's "decreasing demand", it keys on Delta.  And the old option sort
divided utility by price unguarded, so a free local
option raised ``ZeroDivisionError`` (``VirtualClusterSpec`` rejects
price <= 0, so no real topology reached it); here, as in the new code,
a free option ranks first.  Free clusters are drawn from duck-typed
specs to exercise the unlimited-budget branch.

The dense-matrix LP is kept too: the sparse LP must hand HiGHS the same
problem and return the same plan.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import repro.geo.allocation as allocation
from repro.cloud.cluster import VirtualClusterSpec
from repro.geo.allocation import (
    GeoVMProblem,
    greedy_geo_allocation,
    lp_geo_allocation,
)
from repro.geo.region import GeoTopology, RegionSpec

R = 10e6 / 8.0


# ----------------------------------------------------------------------
# The scalar oracle
# ----------------------------------------------------------------------
def oracle_options(topology, viewer, vm_bandwidth):
    options = []
    for serving, region in topology.regions.items():
        for cluster in region.clusters:
            utility = cluster.utility * topology.utility_discount(serving, viewer)
            price = cluster.price_per_hour + topology.egress_cost_per_vm_hour(
                serving, viewer, vm_bandwidth
            )
            options.append((serving, cluster.name, utility, price))
    options.sort(key=lambda o: (
        -(o[2] / o[3] if o[3] > 0 else float("inf")), o[0], o[1]
    ))
    return options


def oracle_greedy(topology, demands, vm_bandwidth, budget_per_hour):
    """``demands`` is ``{region: {chunk: Delta}}``; returns the dict plan
    as ``(allocations, objective, cost, feasible, unserved)``."""
    remaining = {}
    for name, region in topology.regions.items():
        for cluster in region.clusters:
            remaining[(name, cluster.name)] = float(cluster.max_vms)
    cells = [
        (viewer, chunk, float(demands[viewer][chunk]))
        for viewer, chunks in demands.items()
        for chunk in chunks
    ]
    cells.sort(key=lambda c: (-c[2], c[0], repr(c[1])))

    options_cache = {}
    allocations = {}
    cost = 0.0
    objective = 0.0
    unserved = 0.0
    for viewer, chunk, delta in cells:
        need = delta / vm_bandwidth
        if viewer not in options_cache:
            options_cache[viewer] = oracle_options(topology, viewer, vm_bandwidth)
        for serving, cluster, utility, price in options_cache[viewer]:
            if need <= 1e-12:
                break
            capacity = remaining[(serving, cluster)]
            if capacity <= 1e-12:
                continue
            affordable = (
                (budget_per_hour - cost) / price if price > 0 else float("inf")
            )
            take = min(need, capacity, max(0.0, affordable))
            if take <= 1e-12:
                continue
            key = (viewer, chunk, serving, cluster)
            allocations[key] = allocations.get(key, 0.0) + take
            remaining[(serving, cluster)] -= take
            cost += take * price
            objective += take * utility
            need -= take
        if need > 1e-9:
            unserved += need
    return allocations, objective, cost, unserved <= 1e-9, unserved


def oracle_lp(topology, demands, vm_bandwidth, budget_per_hour):
    """The dense-matrix LP; returns the dict plan like the greedy."""
    viewers = sorted(demands)
    cells = [
        (viewer, chunk)
        for viewer in viewers
        for chunk in sorted(demands[viewer], key=repr)
    ]
    capacity_keys = [
        (name, cluster.name)
        for name in sorted(topology.regions)
        for cluster in topology.regions[name].clusters
    ]
    specs = {
        (name, cluster.name): cluster
        for name, region in topology.regions.items()
        for cluster in region.clusters
    }
    var_meta = []
    for cell_idx, (viewer, _chunk) in enumerate(cells):
        for serving, cluster in capacity_keys:
            spec = specs[(serving, cluster)]
            utility = spec.utility * topology.utility_discount(serving, viewer)
            price = spec.price_per_hour + topology.egress_cost_per_vm_hour(
                serving, viewer, vm_bandwidth
            )
            var_meta.append((cell_idx, serving, cluster, utility, price))
    n_vars = len(var_meta)
    if n_vars == 0:
        return {}, 0.0, 0.0, True, 0.0
    needs = np.array([float(demands[v][ch]) / vm_bandwidth for v, ch in cells])
    a_eq = np.zeros((len(cells), n_vars))
    a_ub = np.zeros((len(capacity_keys) + 1, n_vars))
    for j, meta in enumerate(var_meta):
        a_eq[meta[0], j] = 1.0
        a_ub[capacity_keys.index((meta[1], meta[2])), j] = 1.0
        a_ub[-1, j] = meta[4]
    b_ub = np.array(
        [float(specs[key].max_vms) for key in capacity_keys] + [budget_per_hour]
    )
    res = linprog(
        np.array([-meta[3] for meta in var_meta]),
        A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=needs,
        bounds=[(0.0, None)] * n_vars, method="highs",
    )
    if not res.success:
        return {}, 0.0, 0.0, False, float(needs.sum())
    allocations = {}
    cost = objective = 0.0
    for j, (cell_idx, serving, cluster, utility, price) in enumerate(var_meta):
        z = float(res.x[j])
        if z <= 1e-9:
            continue
        viewer, chunk = cells[cell_idx]
        allocations[(viewer, chunk, serving, cluster)] = z
        cost += z * price
        objective += z * utility
    return allocations, objective, cost, True, 0.0


def oracle_cluster_totals(allocations):
    totals = {}
    for (_, _, serving, cluster), z in allocations.items():
        totals[(serving, cluster)] = totals.get((serving, cluster), 0.0) + z
    return totals


def oracle_service_matrix(allocations):
    matrix = {}
    for (viewer, _, serving, _), z in allocations.items():
        matrix[(viewer, serving)] = matrix.get((viewer, serving), 0.0) + z
    return matrix


def oracle_remote_fraction(allocations):
    total = sum(allocations.values())
    if total <= 0:
        return 0.0
    return sum(
        z for (viewer, _, serving, _), z in allocations.items()
        if viewer != serving
    ) / total


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
#: Slot ids crossing 9/10 and 99/100, where repr order leaves numeric
#: order: "(100, 1)" < "(12, 3)" < "(120, 3)".
SLOT_IDS = [1, 2, 8, 9, 10, 11, 12, 19, 98, 99, 100, 101, 120]
#: A few needs, so most cells tie and the tie-break decides the order.
NEED_LEVELS = [0.0, 1e-13, 0.25, 0.5, 1.0, 2.0]


@st.composite
def clusters(draw, region):
    names = draw(st.lists(
        st.sampled_from(["std", "big", "eco"]), min_size=1, max_size=3,
        unique=True,
    ))
    specs = []
    for name in names:
        utility = draw(st.sampled_from([0.3, 0.6, 1.0, 1.2]))
        max_vms = draw(st.integers(0, 12))
        if draw(st.integers(0, 7)) == 0:
            # VirtualClusterSpec rejects a free cluster; duck-type one.
            specs.append(SimpleNamespace(
                name=name, utility=utility, price_per_hour=0.0,
                max_vms=max_vms,
            ))
        else:
            price = draw(st.sampled_from([0.1, 0.45, 0.45, 0.9]))
            specs.append(VirtualClusterSpec(name, utility, price, max_vms, R))
    return RegionSpec(region, tuple(specs))


@st.composite
def problems(draw, max_slots=8):
    names = draw(st.permutations(["us", "eu", "ap"]))[:draw(st.integers(1, 3))]
    regions = [draw(clusters(name)) for name in names]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    topology = GeoTopology(
        regions,
        latency_ms={p: draw(st.sampled_from([20.0, 80.0, 150.0])) for p in pairs},
        egress_price_per_gb={
            p: draw(st.sampled_from([0.0, 0.02, 0.09])) for p in pairs
        },
    )
    slots = draw(st.lists(
        st.sampled_from(SLOT_IDS), min_size=1, max_size=max_slots, unique=True
    ))
    chunks = {name: [] for name in names}
    demands = {name: [] for name in names}
    for slot in slots:
        region = draw(st.sampled_from(names))
        for i in range(draw(st.integers(1, 12))):
            chunks[region].append((slot, i))
            if draw(st.integers(0, 9)) == 0:
                need = draw(st.floats(0.0, 4.0))
            else:
                need = draw(st.sampled_from(NEED_LEVELS))
            demands[region].append(need * R)
    if draw(st.booleans()):
        # A region may also be absent from the problem altogether.
        idle = [name for name in names if not chunks[name]]
        for name in idle[:1]:
            del chunks[name], demands[name]
    budget = draw(st.sampled_from([0.0, 0.7, 3.0, 12.0, 1e6]))
    return topology, chunks, demands, budget


def dict_demands(chunks, demands):
    return {
        region: dict(zip(chunks[region], demands[region]))
        for region in demands
    }


def bits(x):
    return np.float64(x).tobytes()


def plan_items(problem, plan):
    return [
        ((plan.regions[v], problem.keys[c], *plan.clusters[k]), bits(z))
        for v, c, k, z in zip(
            plan.viewer.tolist(), plan.chunk.tolist(),
            plan.cluster.tolist(), plan.z.tolist(),
        )
    ]


def assert_plan_matches(problem, plan, oracle):
    allocations, objective, cost, feasible, unserved = oracle
    assert plan_items(problem, plan) == [
        (key, bits(z)) for key, z in allocations.items()
    ]
    assert bits(plan.objective) == bits(objective)
    assert bits(plan.cost_per_hour) == bits(cost)
    assert bits(plan.unserved_vms) == bits(unserved)
    assert plan.feasible is feasible
    totals = oracle_cluster_totals(allocations)
    for key, total in zip(plan.clusters, plan.cluster_totals().tolist()):
        assert bits(total) == bits(totals.get(key, 0.0))
    assert [
        (key, bits(z)) for key, z in plan.region_service_matrix().items()
    ] == [(key, bits(z)) for key, z in oracle_service_matrix(allocations).items()]
    assert bits(plan.remote_fraction()) == bits(
        oracle_remote_fraction(allocations)
    )


# ----------------------------------------------------------------------
# The differential tests
# ----------------------------------------------------------------------
class TestGreedyDifferential:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(problems(), st.sampled_from([1, 3, 16, allocation._BLOCK]))
    def test_bitwise_equal_to_scalar_greedy(self, drawn, block):
        topology, chunks, demands, budget = drawn
        problem = GeoVMProblem(
            topology=topology, chunks=chunks, demands=demands,
            vm_bandwidth=R, budget_per_hour=budget,
        )
        saved = allocation._BLOCK
        allocation._BLOCK = block
        try:
            plan = greedy_geo_allocation(problem)
        finally:
            allocation._BLOCK = saved
        oracle = oracle_greedy(topology, dict_demands(chunks, demands), R, budget)
        event(f"feasible={oracle[3]}")
        event(f"rows={'0' if not oracle[0] else '1-9' if len(oracle[0]) < 10 else '10+'}")
        assert_plan_matches(problem, plan, oracle)

    def test_blocks_cross_windows(self):
        """A catalog-sized draw: thousands of tied cells over several
        windows, clusters exhausting mid-block and a binding budget."""
        rng = np.random.default_rng(7)
        names = ["us", "eu", "ap"]
        topology = GeoTopology(
            [RegionSpec(name, (
                VirtualClusterSpec("std", 0.6, 0.45, 300, R),
                VirtualClusterSpec("big", 1.0, 0.9, 200, R),
            )) for name in names],
            latency_ms={("us", "eu"): 80.0, ("us", "ap"): 150.0,
                        ("eu", "ap"): 120.0},
            egress_price_per_gb={("us", "eu"): 0.02, ("us", "ap"): 0.09,
                                 ("eu", "ap"): 0.05},
        )
        chunks = {name: [] for name in names}
        demands = {name: [] for name in names}
        for slot in range(600):
            region = names[slot % 3]
            for i in range(12):
                chunks[region].append((slot, i))
                demands[region].append(
                    float(rng.choice([0.0, R / 8, R / 8, R / 8, 2 * R]))
                )
        for budget in (1e6, 400.0):
            problem = GeoVMProblem(
                topology=topology, chunks=chunks, demands=demands,
                vm_bandwidth=R, budget_per_hour=budget,
            )
            oracle = oracle_greedy(
                topology, dict_demands(chunks, demands), R, budget
            )
            assert_plan_matches(problem, greedy_geo_allocation(problem), oracle)


class TestLPDifferential:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(problems(max_slots=3))
    def test_sparse_lp_equals_dense_lp(self, drawn):
        topology, chunks, demands, budget = drawn
        problem = GeoVMProblem(
            topology=topology, chunks=chunks, demands=demands,
            vm_bandwidth=R, budget_per_hour=budget,
        )
        oracle = oracle_lp(topology, dict_demands(chunks, demands), R, budget)
        event(f"feasible={oracle[3]}")
        assert_plan_matches(problem, lp_geo_allocation(problem), oracle)


class TestRejections:
    TOPOLOGY = GeoTopology([RegionSpec("us", (
        VirtualClusterSpec("std", 0.6, 0.45, 10, R),))], {}, {})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_demand(self, bad):
        with pytest.raises(ValueError):
            GeoVMProblem(topology=self.TOPOLOGY, chunks={"us": [(1, 0), (1, 1)]},
                         demands={"us": [R, bad]}, vm_bandwidth=R,
                         budget_per_hour=1.0)

    def test_duplicate_or_mismatched_keys(self):
        topology = self.TOPOLOGY
        with pytest.raises(ValueError, match="unique"):
            GeoVMProblem(topology=topology, chunks={"us": [(1, 0), (1, 0)]},
                         demands={"us": [R, R]}, vm_bandwidth=R,
                         budget_per_hour=1.0)
        with pytest.raises(ValueError, match="chunks"):
            GeoVMProblem(topology=topology, chunks={"us": [(1, 0)]},
                         demands={"us": [R, R]}, vm_bandwidth=R,
                         budget_per_hour=1.0)
        with pytest.raises(ValueError, match="same regions"):
            GeoVMProblem(topology=topology, chunks={}, demands={"us": [R]},
                         vm_bandwidth=R, budget_per_hour=1.0)

"""Tests for the paper's Eqn (7) solvers: the one-region, zero-latency
:class:`repro.geo.allocation.GeoVMProblem` (every discount 1.0, no
egress), solved by ``greedy_geo_allocation`` / ``lp_geo_allocation``.

``TestGreedyMatchesScalarOracle`` keeps the dict-keyed single-region
greedy the controller solved with before, verbatim, as the oracle.
"""

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from helpers import plan_allocations
from repro.cloud.cluster import VirtualClusterSpec
from repro.geo.allocation import GeoVMProblem, greedy_geo_allocation, lp_geo_allocation
from repro.geo.region import GeoTopology, RegionSpec

R = 10e6 / 8.0


def cluster(name, utility, price, max_vms):
    return VirtualClusterSpec(name, utility, price, max_vms, R)


def paper_clusters(scale=1.0):
    return [
        cluster("standard", 0.6, 0.45, int(75 * scale)),
        cluster("medium", 0.8, 0.70, int(30 * scale)),
        cluster("advanced", 1.0, 0.80, int(45 * scale)),
    ]


def problem(demands, clusters=None, budget=100.0, vm_bandwidth=R):
    """Eqn (7) over ``{chunk: Delta}``: one region at zero latency."""
    topology = GeoTopology(
        [RegionSpec("local", tuple(clusters or paper_clusters()))], {}, {},
        local_latency_ms=0.0,
    )
    return GeoVMProblem(
        topology=topology,
        chunks={"local": list(demands)},
        demands={"local": list(demands.values())},
        vm_bandwidth=vm_bandwidth,
        budget_per_hour=budget,
    )


def allocations(prob, plan):
    return plan_allocations(plan, prob.keys)


def integer_vm_counts(plan):
    return {
        name: int(np.ceil(total - 1e-9))
        for (_, name), total in zip(plan.clusters, plan.cluster_totals())
    }


class TestGreedy:
    def test_demand_covered_exactly(self):
        demands = {("c", 0): 3.5 * R, ("c", 1): 1.2 * R}
        prob = problem(demands)
        plan = greedy_geo_allocation(prob)
        assert plan.feasible
        totals = {}
        for (chunk, _), z in allocations(prob, plan).items():
            totals[chunk] = totals.get(chunk, 0.0) + z
        assert totals[("c", 0)] == pytest.approx(3.5)
        assert totals[("c", 1)] == pytest.approx(1.2)

    def test_best_marginal_utility_first(self):
        # standard 0.6/0.45 = 1.333 > advanced 1.0/0.80 = 1.25 >
        # medium 0.8/0.70 = 1.143 -> standard first.
        demands = {("c", 0): 2.0 * R}
        prob = problem(demands)
        plan = greedy_geo_allocation(prob)
        assert allocations(prob, plan)[(("c", 0), "standard")] == \
            pytest.approx(2.0)

    def test_spillover_to_second_cluster(self):
        clusters = [
            cluster("best", 1.0, 0.5, 2),  # ratio 2.0, only 2 VMs
            cluster("next", 0.8, 0.5, 10),  # ratio 1.6
        ]
        prob = problem({("c", 0): 5.0 * R}, clusters)
        plan = allocations(prob, greedy_geo_allocation(prob))
        assert plan[(("c", 0), "best")] == pytest.approx(2.0)
        assert plan[(("c", 0), "next")] == pytest.approx(3.0)

    def test_budget_exhaustion_partial_plan(self):
        clusters = [cluster("only", 1.0, 1.0, 100)]
        plan = greedy_geo_allocation(
            problem({("c", 0): 10.0 * R}, clusters, budget=4.0)
        )
        assert not plan.feasible
        assert plan.unserved_vms == pytest.approx(6.0)
        assert plan.cost_per_hour <= 4.0 + 1e-9

    def test_capacity_exhaustion_partial_plan(self):
        clusters = [cluster("small", 1.0, 0.1, 3)]
        plan = greedy_geo_allocation(problem({("c", 0): 5.0 * R}, clusters))
        assert not plan.feasible
        assert plan.unserved_vms == pytest.approx(2.0)

    def test_zero_demand_feasible_and_free(self):
        plan = greedy_geo_allocation(problem({("c", 0): 0.0}))
        assert plan.feasible
        assert plan.cost_per_hour == 0.0
        assert plan.z.size == 0
        assert not plan.cluster_totals().any()

    def test_integer_vm_counts_ceil(self):
        demands = {("c", 0): 1.4 * R, ("c", 1): 1.4 * R}
        plan = greedy_geo_allocation(problem(demands))
        counts = integer_vm_counts(plan)
        assert counts["standard"] == 3  # ceil(2.8)

    def test_paper_budget_supports_paper_scale(self):
        """BM=$100/h must cover the Table II fleet used at once."""
        # All 150 VMs: 75*0.45 + 30*0.70 + 45*0.80 = 90.75 <= 100.
        demands = {("c", i): R for i in range(150)}
        plan = greedy_geo_allocation(problem(demands, budget=100.0))
        assert plan.feasible
        assert plan.cost_per_hour == pytest.approx(90.75)


class TestAgainstLP:
    def test_lp_matches_greedy_when_unconstrained(self):
        demands = {("c", 0): 2.0 * R, ("c", 1): 3.0 * R}
        greedy = greedy_geo_allocation(problem(demands))
        lp = lp_geo_allocation(problem(demands))
        assert lp.feasible
        # Both fully cover demand; LP objective >= greedy objective.
        assert lp.objective >= greedy.objective - 1e-6

    def test_lp_dominates_greedy_objective(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            demands = {
                ("c", i): float(rng.uniform(0, 4)) * R for i in range(6)
            }
            prob = problem(demands, paper_clusters(scale=0.1), budget=10.0)
            greedy = greedy_geo_allocation(prob)
            lp = lp_geo_allocation(prob)
            if greedy.feasible and lp.feasible:
                assert lp.objective >= greedy.objective - 1e-6

    def test_lp_detects_infeasibility(self):
        clusters = [cluster("small", 1.0, 0.1, 2)]
        lp = lp_geo_allocation(problem({("c", 0): 5.0 * R}, clusters))
        assert not lp.feasible
        assert lp.unserved_vms > 0

    def test_empty_problem(self):
        lp = lp_geo_allocation(problem({}))
        assert lp.feasible
        assert lp.objective == 0.0


class TestInvariants:
    @given(
        n=st.integers(min_value=1, max_value=8),
        scale=st.floats(min_value=0.0, max_value=5.0),
        budget=st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_greedy_constraints_always_hold(self, n, scale, budget):
        rng = np.random.default_rng(n)
        demands = {("c", i): float(rng.uniform(0, scale)) * R for i in range(n)}
        clusters = paper_clusters(scale=0.1)
        prob = problem(demands, clusters, budget)
        plan = greedy_geo_allocation(prob)
        # Cluster capacity.
        caps = {c.name: c.max_vms for c in clusters}
        for (_, name), used in zip(plan.clusters, plan.cluster_totals()):
            assert used <= caps[name] + 1e-9
        # Budget.
        assert plan.cost_per_hour <= budget + 1e-9
        # No chunk over-served.
        served = {}
        for (chunk, _), z in allocations(prob, plan).items():
            served[chunk] = served.get(chunk, 0.0) + z
        for chunk, z in served.items():
            assert z <= demands[chunk] / R + 1e-9
        # Nonnegative allocations.
        assert (plan.z >= 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            problem({}, vm_bandwidth=0.0)
        with pytest.raises(ValueError):
            problem({("c", 0): -1.0})
        with pytest.raises(ValueError):
            RegionSpec("local", ())
        with pytest.raises(ValueError, match="duplicate"):
            RegionSpec("local", (cluster("a", 1.0, 0.5, 1),
                                 cluster("a", 0.6, 0.4, 2)))

    @pytest.mark.parametrize("field", ["demand", "vm_bandwidth", "budget"])
    def test_nan_rejected(self, field):
        """A NaN passes every ``< 0`` / ``<= 0`` check, and the greedy
        would then emit NaN allocations; each field rejects it."""
        args = {"demand": 1.0, "vm_bandwidth": R, "budget": 1.0}
        args[field] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            problem({("c", 0): args["demand"]}, paper_clusters(),
                    args["budget"], vm_bandwidth=args["vm_bandwidth"])


# ----------------------------------------------------------------------
# The scalar oracle: the single-region problem, plan and greedy as they
# stood before the controller solved the one-region GeoVMProblem.
# ----------------------------------------------------------------------
ChunkKey = Hashable


@dataclass(frozen=True)
class VMProblem:
    demands: Mapping[ChunkKey, float]
    vm_bandwidth: float
    clusters: Sequence[VirtualClusterSpec]
    budget_per_hour: float

    def vm_need(self, chunk: ChunkKey) -> float:
        """Delta_i / R: (fractional) VMs needed to serve the chunk."""
        return float(self.demands[chunk]) / self.vm_bandwidth


@dataclass(frozen=True)
class VMAllocationPlan:
    allocations: Dict[Tuple[ChunkKey, str], float]  # (chunk, cluster) -> z_iv
    objective: float  # sum u~_v z_iv
    cost_per_hour: float
    feasible: bool  # True iff every chunk's demand is fully covered
    unserved_vms: float = 0.0  # total VM-equivalents of uncovered demand

    def cluster_totals(self) -> Dict[str, float]:
        """Fractional VM totals per cluster: sum_i z_iv."""
        totals: Dict[str, float] = {}
        for (_, cluster), z in self.allocations.items():
            totals[cluster] = totals.get(cluster, 0.0) + z
        return totals


def greedy_vm_allocation(problem: VMProblem) -> VMAllocationPlan:
    """The paper's VM configuration heuristic (Section V-A2).

    Clusters sorted by decreasing u~_v / p~_v; chunks processed in
    decreasing demand (deterministic; the paper does not fix an order).
    Each chunk draws as much as possible from the best cluster with
    remaining VMs, spilling to the next, while the running cost stays
    within B_M.
    """
    clusters = sorted(
        problem.clusters,
        key=lambda c: (-c.marginal_utility_per_dollar, c.name),
    )
    remaining = {c.name: float(c.max_vms) for c in clusters}
    budget = problem.budget_per_hour
    cost = 0.0
    objective = 0.0
    allocations: Dict[Tuple[ChunkKey, str], float] = {}
    unserved = 0.0

    chunks = sorted(
        problem.demands.keys(), key=lambda k: (-problem.demands[k], repr(k))
    )
    for chunk in chunks:
        need = problem.vm_need(chunk)
        for cluster in clusters:
            if need <= 1e-12:
                break
            if remaining[cluster.name] <= 1e-12:
                continue
            affordable = (
                (budget - cost) / cluster.price_per_hour
                if cluster.price_per_hour > 0
                else float("inf")
            )
            take = min(need, remaining[cluster.name], max(0.0, affordable))
            if take <= 1e-12:
                continue
            allocations[(chunk, cluster.name)] = (
                allocations.get((chunk, cluster.name), 0.0) + take
            )
            remaining[cluster.name] -= take
            cost += take * cluster.price_per_hour
            objective += take * cluster.utility
            need -= take
        if need > 1e-9:
            unserved += need

    return VMAllocationPlan(
        allocations=allocations,
        objective=objective,
        cost_per_hour=cost,
        feasible=unserved <= 1e-9,
        unserved_vms=unserved,
    )


def bits(x):
    return np.float64(x).tobytes()


def assert_matches_oracle(demands, clusters, budget):
    prob = problem(demands, clusters, budget)
    plan = greedy_geo_allocation(prob)
    oracle = greedy_vm_allocation(VMProblem(demands, R, clusters, budget))
    assert [(key, bits(z)) for key, z in allocations(prob, plan).items()] == \
        [(key, bits(z)) for key, z in oracle.allocations.items()]
    assert bits(plan.objective) == bits(oracle.objective)
    assert bits(plan.cost_per_hour) == bits(oracle.cost_per_hour)
    assert bits(plan.unserved_vms) == bits(oracle.unserved_vms)
    assert plan.feasible is oracle.feasible
    totals = oracle.cluster_totals()
    for (_, name), total in zip(plan.clusters, plan.cluster_totals().tolist()):
        assert bits(total) == bits(totals.get(name, 0.0))
    return plan, oracle


#: Channel ids crossing 9/10 and 99/100, where repr order leaves numeric
#: order: "(100, 1)" < "(12, 3)".
CHANNELS = [1, 4, 6, 9, 10, 12, 99, 100]
#: A few demand levels, so many cells tie exactly.
LEVELS = [0.0, 1e-13 * R, 0.25 * R, R, 2.6745729787921046 * R, 3343216.2234901306]


@st.composite
def instances(draw):
    names = draw(st.lists(
        st.sampled_from(["standard", "medium", "advanced", "eco"]),
        min_size=1, max_size=4, unique=True,
    ))
    clusters = [
        cluster(
            name,
            draw(st.sampled_from([0.3, 0.6, 0.8, 1.0])),
            draw(st.sampled_from([0.1, 0.45, 0.7, 0.8])),
            draw(st.integers(0, 12)),
        )
        for name in names
    ]
    keys = draw(st.lists(
        st.tuples(st.sampled_from(CHANNELS), st.integers(0, 12)),
        max_size=14, unique=True,
    ))
    demands = {}
    for key in keys:
        kind = draw(st.integers(0, 3))
        if kind == 0:
            delta = draw(st.floats(0.0, 4.0 * R))
        else:
            delta = draw(st.sampled_from(LEVELS))
        if kind == 3:
            # One ulp away from a level another chunk may hold.
            delta = float(np.nextafter(delta, draw(st.sampled_from(
                [0.0, math.inf]))))
        demands[key] = delta
    budget = draw(st.sampled_from([0.0, 0.7, 3.0, 12.0, 100.0, 1e6]))
    return demands, clusters, budget


class TestGreedyMatchesScalarOracle:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(instances())
    def test_bitwise_equal_to_scalar_greedy(self, drawn):
        demands, clusters, budget = drawn
        needs = [delta / R for delta in demands.values()]
        event(f"needs tie across distinct demands="
              f"{len(set(needs)) < len(set(demands.values()))}")
        _, oracle = assert_matches_oracle(demands, clusters, budget)
        event(f"feasible={oracle.feasible}")

    def test_demands_one_ulp_apart_keep_their_order(self):
        """Delta/R rounds these two demands to one need; the larger
        demand still goes first, as in the scalar greedy."""
        low, high = 3343216.2234901306, 3343216.223490131
        assert low < high and low / R == high / R
        plan, _ = assert_matches_oracle(
            {(4, 3): low, (6, 3): high}, paper_clusters(), 100.0
        )
        assert plan.chunk.tolist() == [1, 0]  # (6, 3) first
        assert plan.feasible

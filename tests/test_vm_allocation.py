"""Tests for repro.core.vm_allocation: Eqn (7) solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.cluster import VirtualClusterSpec
from repro.core.vm_allocation import (
    VMProblem,
    greedy_vm_allocation,
    lp_vm_allocation,
)

R = 10e6 / 8.0


def cluster(name, utility, price, max_vms):
    return VirtualClusterSpec(name, utility, price, max_vms, R)


def paper_clusters(scale=1.0):
    return [
        cluster("standard", 0.6, 0.45, int(75 * scale)),
        cluster("medium", 0.8, 0.70, int(30 * scale)),
        cluster("advanced", 1.0, 0.80, int(45 * scale)),
    ]


def problem(demands, clusters=None, budget=100.0):
    return VMProblem(
        demands=demands,
        vm_bandwidth=R,
        clusters=clusters or paper_clusters(),
        budget_per_hour=budget,
    )


class TestGreedy:
    def test_demand_covered_exactly(self):
        demands = {("c", 0): 3.5 * R, ("c", 1): 1.2 * R}
        plan = greedy_vm_allocation(problem(demands))
        assert plan.feasible
        totals = {}
        for (chunk, _), z in plan.allocations.items():
            totals[chunk] = totals.get(chunk, 0.0) + z
        assert totals[("c", 0)] == pytest.approx(3.5)
        assert totals[("c", 1)] == pytest.approx(1.2)

    def test_best_marginal_utility_first(self):
        # advanced: 1.0/0.80 = 1.25 > standard 0.6/0.45 = 1.333... wait:
        # standard 1.333, advanced 1.25, medium 1.143 -> standard first.
        demands = {("c", 0): 2.0 * R}
        plan = greedy_vm_allocation(problem(demands))
        assert plan.allocations[(("c", 0), "standard")] == pytest.approx(2.0)

    def test_spillover_to_second_cluster(self):
        clusters = [
            cluster("best", 1.0, 0.5, 2),  # ratio 2.0, only 2 VMs
            cluster("next", 0.8, 0.5, 10),  # ratio 1.6
        ]
        plan = greedy_vm_allocation(problem({("c", 0): 5.0 * R}, clusters))
        assert plan.allocations[(("c", 0), "best")] == pytest.approx(2.0)
        assert plan.allocations[(("c", 0), "next")] == pytest.approx(3.0)

    def test_budget_exhaustion_partial_plan(self):
        clusters = [cluster("only", 1.0, 1.0, 100)]
        plan = greedy_vm_allocation(
            problem({("c", 0): 10.0 * R}, clusters, budget=4.0)
        )
        assert not plan.feasible
        assert plan.unserved_vms == pytest.approx(6.0)
        assert plan.cost_per_hour <= 4.0 + 1e-9

    def test_capacity_exhaustion_partial_plan(self):
        clusters = [cluster("small", 1.0, 0.1, 3)]
        plan = greedy_vm_allocation(problem({("c", 0): 5.0 * R}, clusters))
        assert not plan.feasible
        assert plan.unserved_vms == pytest.approx(2.0)

    def test_zero_demand_feasible_and_free(self):
        plan = greedy_vm_allocation(problem({("c", 0): 0.0}))
        assert plan.feasible
        assert plan.cost_per_hour == 0.0
        assert plan.cluster_totals() == {}

    def test_integer_vm_counts_ceil(self):
        demands = {("c", 0): 1.4 * R, ("c", 1): 1.4 * R}
        plan = greedy_vm_allocation(problem(demands))
        counts = plan.integer_vm_counts()
        assert counts["standard"] == 3  # ceil(2.8)

    def test_paper_budget_supports_paper_scale(self):
        """BM=$100/h must cover the Table II fleet used at once."""
        # All 150 VMs: 75*0.45 + 30*0.70 + 45*0.80 = 90.75 <= 100.
        demands = {("c", i): R for i in range(150)}
        plan = greedy_vm_allocation(problem(demands, budget=100.0))
        assert plan.feasible
        assert plan.cost_per_hour == pytest.approx(90.75)


class TestAgainstLP:
    def test_lp_matches_greedy_when_unconstrained(self):
        demands = {("c", 0): 2.0 * R, ("c", 1): 3.0 * R}
        greedy = greedy_vm_allocation(problem(demands))
        lp = lp_vm_allocation(problem(demands))
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
            greedy = greedy_vm_allocation(prob)
            lp = lp_vm_allocation(prob)
            if greedy.feasible and lp.feasible:
                assert lp.objective >= greedy.objective - 1e-6

    def test_lp_detects_infeasibility(self):
        clusters = [cluster("small", 1.0, 0.1, 2)]
        lp = lp_vm_allocation(problem({("c", 0): 5.0 * R}, clusters))
        assert not lp.feasible
        assert lp.unserved_vms > 0

    def test_lp_best_effort_on_infeasible(self):
        clusters = [cluster("small", 1.0, 0.1, 2)]
        lp = lp_vm_allocation(problem({("c", 0): 5.0 * R}, clusters))
        # Still allocates what it can.
        assert sum(lp.allocations.values()) == pytest.approx(2.0, abs=1e-6)

    def test_empty_problem(self):
        lp = lp_vm_allocation(problem({}))
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
        plan = greedy_vm_allocation(problem(demands, clusters, budget))
        # Cluster capacity.
        totals = plan.cluster_totals()
        caps = {c.name: c.max_vms for c in clusters}
        for name, used in totals.items():
            assert used <= caps[name] + 1e-9
        # Budget.
        assert plan.cost_per_hour <= budget + 1e-9
        # No chunk over-served.
        served = {}
        for (chunk, _), z in plan.allocations.items():
            served[chunk] = served.get(chunk, 0.0) + z
        for chunk, z in served.items():
            assert z <= demands[chunk] / R + 1e-9
        # Nonnegative allocations.
        assert all(z >= 0 for z in plan.allocations.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            VMProblem({}, 0.0, paper_clusters(), 1.0)
        with pytest.raises(ValueError):
            VMProblem({("c", 0): -1.0}, R, paper_clusters(), 1.0)
        with pytest.raises(ValueError):
            VMProblem({}, R, [], 1.0)

    @pytest.mark.parametrize("field", ["demand", "vm_bandwidth", "budget"])
    def test_nan_rejected(self, field):
        """A NaN passes every ``< 0`` / ``<= 0`` check, and the greedy
        would then emit NaN allocations; each field rejects it."""
        args = {"demand": 1.0, "vm_bandwidth": R, "budget": 1.0}
        args[field] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            VMProblem({("c", 0): args["demand"]}, args["vm_bandwidth"],
                      paper_clusters(), args["budget"])

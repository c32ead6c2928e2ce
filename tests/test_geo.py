"""Tests for the geo-distributed extension (repro.geo)."""

import tracemalloc

import numpy as np
import pytest

from repro.cloud.cluster import VirtualClusterSpec
from repro.geo.allocation import (
    GeoVMProblem,
    greedy_geo_allocation,
    lp_geo_allocation,
)
from repro.geo.region import GeoTopology, RegionSpec

R = 10e6 / 8.0


def cluster(name, utility=0.6, price=0.45, max_vms=20):
    return VirtualClusterSpec(name, utility, price, max_vms, R)


def two_region_topology(
    east_vms=20, west_vms=20, latency=80.0, egress=0.02, halflife=150.0
):
    east = RegionSpec("east", (cluster("std", max_vms=east_vms),))
    west = RegionSpec("west", (cluster("std", max_vms=west_vms),))
    return GeoTopology(
        [east, west],
        latency_ms={("east", "west"): latency},
        egress_price_per_gb={("east", "west"): egress},
        latency_halflife_ms=halflife,
    )


class TestTopology:
    def test_symmetric_fill(self):
        topo = two_region_topology()
        assert topo.latency("east", "west") == topo.latency("west", "east")
        assert topo.egress_price("west", "east") == 0.02

    def test_local_defaults(self):
        topo = two_region_topology()
        assert topo.latency("east", "east") == 5.0
        assert topo.egress_price("east", "east") == 0.0

    def test_utility_discount(self):
        topo = two_region_topology(latency=150.0, halflife=150.0)
        assert topo.utility_discount("east", "west") == pytest.approx(0.5)
        assert topo.utility_discount("east", "east") > 0.9

    def test_egress_cost_per_vm_hour(self):
        topo = two_region_topology(egress=0.02)
        # 10 Mbps for an hour = 4.5 GB; at $0.02/GB -> $0.09.
        cost = topo.egress_cost_per_vm_hour("east", "west", R)
        assert cost == pytest.approx(0.02 * R * 3600 / 1e9)

    def test_missing_latency_rejected(self):
        east = RegionSpec("east", (cluster("std"),))
        west = RegionSpec("west", (cluster("std"),))
        with pytest.raises(ValueError, match="latency"):
            GeoTopology([east, west], {}, {("east", "west"): 0.01})

    def test_unknown_region_rejected(self):
        topo = two_region_topology()
        with pytest.raises(KeyError):
            topo.latency("east", "mars")

    def test_duplicate_regions_rejected(self):
        east = RegionSpec("east", (cluster("std"),))
        with pytest.raises(ValueError):
            GeoTopology([east, east], {}, {})

    def test_asymmetric_overrides_both_honored(self):
        """Explicit (a, b) and (b, a) entries are both kept verbatim —
        neither direction silently mirrors the other."""
        east = RegionSpec("east", (cluster("std"),))
        west = RegionSpec("west", (cluster("std"),))
        topo = GeoTopology(
            [east, west],
            latency_ms={("east", "west"): 80.0, ("west", "east"): 120.0},
            egress_price_per_gb={
                ("east", "west"): 0.02, ("west", "east"): 0.07,
            },
        )
        assert topo.latency("east", "west") == 80.0
        assert topo.latency("west", "east") == 120.0
        assert topo.egress_price("east", "west") == 0.02
        assert topo.egress_price("west", "east") == 0.07

    def test_diagonal_latency_override_rejected(self):
        """An explicit (a, a) latency conflicting with local_latency_ms
        must not silently win."""
        east = RegionSpec("east", (cluster("std"),))
        west = RegionSpec("west", (cluster("std"),))
        with pytest.raises(ValueError, match="local_latency_ms"):
            GeoTopology(
                [east, west],
                latency_ms={("east", "west"): 80.0, ("east", "east"): 50.0},
                egress_price_per_gb={("east", "west"): 0.02},
            )
        # A diagonal entry that *matches* the default is tolerated.
        topo = GeoTopology(
            [east, west],
            latency_ms={("east", "west"): 80.0, ("east", "east"): 5.0},
            egress_price_per_gb={("east", "west"): 0.02},
        )
        assert topo.latency("east", "east") == 5.0

    def test_diagonal_egress_override_rejected(self):
        """Intra-region traffic is free by contract; a nonzero (a, a)
        egress price contradicts it."""
        east = RegionSpec("east", (cluster("std"),))
        west = RegionSpec("west", (cluster("std"),))
        with pytest.raises(ValueError, match="free-intra-region"):
            GeoTopology(
                [east, west],
                latency_ms={("east", "west"): 80.0},
                egress_price_per_gb={
                    ("east", "west"): 0.02, ("west", "west"): 0.01,
                },
            )
        topo = GeoTopology(
            [east, west],
            latency_ms={("east", "west"): 80.0},
            egress_price_per_gb={
                ("east", "west"): 0.02, ("west", "west"): 0.0,
            },
        )
        assert topo.egress_price("west", "west") == 0.0


class TestGreedyGeo:
    def test_local_serving_preferred(self):
        """With capacity at home, demand stays in-region (local utility is
        undiscounted and egress-free)."""
        topo = two_region_topology()
        problem = GeoVMProblem(
            topology=topo,
            chunks={"east": [("c", 0)], "west": [("c", 1)]},
            demands={"east": [5 * R], "west": [5 * R]},
            vm_bandwidth=R,
            budget_per_hour=100.0,
        )
        plan = greedy_geo_allocation(problem)
        assert plan.feasible
        assert plan.remote_fraction() == pytest.approx(0.0)

    def test_spillover_to_remote_region(self):
        """When the home region is full, demand spills across the link."""
        topo = two_region_topology(east_vms=3, west_vms=20)
        problem = GeoVMProblem(
            topology=topo,
            chunks={"east": [("c", 0)]},
            demands={"east": [8 * R]},
            vm_bandwidth=R,
            budget_per_hour=100.0,
        )
        plan = greedy_geo_allocation(problem)
        assert plan.feasible
        matrix = plan.region_service_matrix()
        assert matrix[("east", "east")] == pytest.approx(3.0)
        assert matrix[("east", "west")] == pytest.approx(5.0)
        assert plan.remote_fraction() == pytest.approx(5.0 / 8.0)

    def test_latency_discount_in_objective(self):
        topo = two_region_topology(east_vms=0, west_vms=10, latency=150.0)
        problem = GeoVMProblem(
            topology=topo,
            chunks={"east": [("c", 0)]},
            demands={"east": [4 * R]},
            vm_bandwidth=R,
            budget_per_hour=100.0,
        )
        plan = greedy_geo_allocation(problem)
        # All remote at half utility: 4 VMs * 0.6 * 0.5.
        assert plan.objective == pytest.approx(4 * 0.6 * 0.5)

    def test_egress_priced_into_cost(self):
        topo = two_region_topology(east_vms=0, west_vms=10, egress=0.02)
        problem = GeoVMProblem(
            topology=topo,
            chunks={"east": [("c", 0)]},
            demands={"east": [2 * R]},
            vm_bandwidth=R,
            budget_per_hour=100.0,
        )
        plan = greedy_geo_allocation(problem)
        egress = topo.egress_cost_per_vm_hour("west", "east", R)
        assert plan.cost_per_hour == pytest.approx(2 * (0.45 + egress))

    def test_budget_exhaustion_reported(self):
        topo = two_region_topology()
        problem = GeoVMProblem(
            topology=topo,
            chunks={"east": [("c", 0)]},
            demands={"east": [10 * R]},
            vm_bandwidth=R,
            budget_per_hour=1.0,
        )
        plan = greedy_geo_allocation(problem)
        assert not plan.feasible
        assert plan.unserved_vms > 0
        assert plan.cost_per_hour <= 1.0 + 1e-9

    def test_capacity_exhaustion_reported(self):
        topo = two_region_topology(east_vms=2, west_vms=2)
        problem = GeoVMProblem(
            topology=topo,
            chunks={"east": [("c", 0)]},
            demands={"east": [10 * R]},
            vm_bandwidth=R,
            budget_per_hour=100.0,
        )
        plan = greedy_geo_allocation(problem)
        assert not plan.feasible
        assert plan.unserved_vms == pytest.approx(6.0)


class TestLPGeo:
    def test_lp_dominates_greedy(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            topo = two_region_topology(
                east_vms=int(rng.integers(2, 10)),
                west_vms=int(rng.integers(2, 10)),
                latency=float(rng.uniform(20, 200)),
                egress=float(rng.uniform(0.0, 0.05)),
            )
            problem = GeoVMProblem(
                topology=topo,
                chunks={"east": [("c", i) for i in range(3)],
                        "west": [("d", i) for i in range(3)]},
                demands={"east": rng.uniform(0, 3, 3) * R,
                         "west": rng.uniform(0, 3, 3) * R},
                vm_bandwidth=R,
                budget_per_hour=50.0,
            )
            greedy = greedy_geo_allocation(problem)
            lp = lp_geo_allocation(problem)
            if greedy.feasible and lp.feasible:
                assert lp.objective >= greedy.objective - 1e-6

    def test_lp_matches_greedy_on_local_case(self):
        topo = two_region_topology()
        problem = GeoVMProblem(
            topology=topo,
            chunks={"east": [("c", 0)]},
            demands={"east": [4 * R]},
            vm_bandwidth=R,
            budget_per_hour=100.0,
        )
        greedy = greedy_geo_allocation(problem)
        lp = lp_geo_allocation(problem)
        assert lp.objective == pytest.approx(greedy.objective)

    def test_lp_infeasible_reported(self):
        topo = two_region_topology(east_vms=1, west_vms=1)
        problem = GeoVMProblem(
            topology=topo,
            chunks={"east": [("c", 0)]},
            demands={"east": [10 * R]},
            vm_bandwidth=R,
            budget_per_hour=100.0,
        )
        lp = lp_geo_allocation(problem)
        assert not lp.feasible

    def test_large_lp_builds_sparse_constraints(self):
        """A 2,400-cell LP (4,800 variables): dense constraint matrices
        would hold 2,400 x 4,800 doubles (92 MB) for the demand rows
        alone; the sparse ones hold three entries per variable."""
        n = 1200
        problem = GeoVMProblem(
            topology=two_region_topology(east_vms=2000, west_vms=2000),
            chunks={"east": [("c", i) for i in range(n)],
                    "west": [("d", i) for i in range(n)]},
            demands={"east": np.full(n, 0.5 * R), "west": np.full(n, 0.75 * R)},
            vm_bandwidth=R,
            budget_per_hour=1e4,
        )
        tracemalloc.start()
        try:
            plan = lp_geo_allocation(problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan.feasible
        assert plan.z.sum() == pytest.approx(n * 1.25)
        assert peak < 16e6

    def test_empty_problem(self):
        topo = two_region_topology()
        problem = GeoVMProblem(
            topology=topo, chunks={}, demands={}, vm_bandwidth=R,
            budget_per_hour=1.0,
        )
        assert lp_geo_allocation(problem).feasible
        assert greedy_geo_allocation(problem).feasible


class TestValidation:
    def test_negative_demand_rejected(self):
        topo = two_region_topology()
        with pytest.raises(ValueError):
            GeoVMProblem(
                topology=topo,
                chunks={"east": [("c", 0)]},
                demands={"east": [-1.0]},
                vm_bandwidth=R,
                budget_per_hour=1.0,
            )

    def test_unknown_demand_region_rejected(self):
        topo = two_region_topology()
        with pytest.raises(KeyError):
            GeoVMProblem(
                topology=topo,
                chunks={"mars": [("c", 0)]},
                demands={"mars": [1.0]},
                vm_bandwidth=R,
                budget_per_hour=1.0,
            )

    @pytest.mark.parametrize("field", ["demand", "vm_bandwidth", "budget"])
    def test_nan_rejected(self, field):
        """A NaN passes every ``< 0`` / ``<= 0`` check, and the greedy
        would then emit NaN allocations; each field rejects it."""
        args = {"demand": 1.0, "vm_bandwidth": R, "budget": 1.0}
        args[field] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            GeoVMProblem(
                topology=two_region_topology(),
                chunks={"east": [("c", 0)]},
                demands={"east": [args["demand"]]},
                vm_bandwidth=args["vm_bandwidth"],
                budget_per_hour=args["budget"],
            )

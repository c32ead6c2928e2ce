"""Optimal VM configuration (paper Eqn (7)) and its solvers.

Decide how many VMs z_iv (fractional allowed) each chunk requests from each
virtual cluster, maximizing  sum u~_v * z_iv  subject to

* demand cover  sum_v z_iv = Delta_i / R      per chunk,
* capacity      sum_i z_iv <= N_v             per cluster,
* budget        sum p~_v * z_iv <= B_M.

Since z is continuous this is a transportation-style LP; the paper solves
it with a greedy heuristic and we additionally provide the exact LP optimum
(:func:`lp_vm_allocation`) for the ablation benches. Infeasibility (budget
or capacity exhausted before all demand is served) is reported on the plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.cloud.cluster import VirtualClusterSpec

__all__ = ["VMProblem", "VMAllocationPlan", "greedy_vm_allocation",
           "lp_vm_allocation"]

ChunkKey = Hashable


@dataclass(frozen=True)
class VMProblem:
    """One instance of the VM configuration problem.

    Attributes
    ----------
    demands:
        ``{chunk_key: Delta_i}`` cloud demand per chunk, bytes/second.
    vm_bandwidth:
        R, bytes/second per VM (identical across clusters per the model).
    clusters:
        Virtual cluster specs.
    budget_per_hour:
        B_M, dollars per hour.
    """

    demands: Mapping[ChunkKey, float]
    vm_bandwidth: float
    clusters: Sequence[VirtualClusterSpec]
    budget_per_hour: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.vm_bandwidth) or self.vm_bandwidth <= 0:
            raise ValueError("VM bandwidth must be finite and > 0")
        if not math.isfinite(self.budget_per_hour) or self.budget_per_hour < 0:
            raise ValueError("budget must be finite and >= 0")
        if not self.clusters:
            raise ValueError("need at least one virtual cluster")
        names = [c.name for c in self.clusters]
        if len(set(names)) != len(names):
            raise ValueError("cluster names must be unique")
        if not all(0.0 <= d < math.inf for d in self.demands.values()):
            raise ValueError("demands must be finite and nonnegative")

    def vm_need(self, chunk: ChunkKey) -> float:
        """Delta_i / R: (fractional) VMs needed to serve the chunk."""
        return float(self.demands[chunk]) / self.vm_bandwidth

    @property
    def total_vm_need(self) -> float:
        return float(sum(self.demands.values())) / self.vm_bandwidth


@dataclass(frozen=True)
class VMAllocationPlan:
    """A (possibly partial) solution to a :class:`VMProblem`."""

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

    def integer_vm_counts(self) -> Dict[str, int]:
        """VMs to actually rent: ceil of each cluster's fractional total."""
        return {
            cluster: int(np.ceil(total - 1e-9))
            for cluster, total in self.cluster_totals().items()
        }


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


def lp_vm_allocation(problem: VMProblem) -> VMAllocationPlan:
    """Exact LP optimum of Eqn (7) via scipy's HiGHS solver.

    When the instance is infeasible (demand cannot be covered within
    capacity and budget), the equality constraints are relaxed to
    "<= demand" and the objective augmented with a large cover reward so
    the LP returns a best-effort allocation, mirroring the heuristic's
    partial plans; the plan is then marked infeasible.
    """
    chunks = [k for k in problem.demands.keys()]
    clusters = list(problem.clusters)
    n, v = len(chunks), len(clusters)
    if n == 0:
        return VMAllocationPlan({}, 0.0, 0.0, True)

    def var(i: int, j: int) -> int:
        return i * v + j

    needs = np.array([problem.vm_need(c) for c in chunks])

    def solve(equality: bool) -> Tuple[bool, np.ndarray]:
        c_obj = np.zeros(n * v)
        for i in range(n):
            for j, cluster in enumerate(clusters):
                reward = cluster.utility + (0.0 if equality else 1e4)
                c_obj[var(i, j)] = -reward
        a_ub_rows: List[np.ndarray] = []
        b_ub_vals: List[float] = []
        for j, cluster in enumerate(clusters):
            row = np.zeros(n * v)
            for i in range(n):
                row[var(i, j)] = 1.0
            a_ub_rows.append(row)
            b_ub_vals.append(float(cluster.max_vms))
        budget_row = np.zeros(n * v)
        for i in range(n):
            for j, cluster in enumerate(clusters):
                budget_row[var(i, j)] = cluster.price_per_hour
        a_ub_rows.append(budget_row)
        b_ub_vals.append(problem.budget_per_hour)

        a_eq = None
        b_eq = None
        if equality:
            a_eq = np.zeros((n, n * v))
            for i in range(n):
                for j in range(v):
                    a_eq[i, var(i, j)] = 1.0
            b_eq = needs
        else:
            for i in range(n):
                row = np.zeros(n * v)
                for j in range(v):
                    row[var(i, j)] = 1.0
                a_ub_rows.append(row)
                b_ub_vals.append(float(needs[i]))

        res = linprog(
            c_obj,
            A_ub=np.vstack(a_ub_rows),
            b_ub=np.asarray(b_ub_vals),
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=[(0.0, None)] * (n * v),
            method="highs",
        )
        if not res.success:
            return False, np.zeros(n * v)
        return True, res.x

    ok, x = solve(equality=True)
    feasible = ok
    if not ok:
        ok2, x = solve(equality=False)
        if not ok2:
            return VMAllocationPlan(
                {}, 0.0, 0.0, False, unserved_vms=float(needs.sum())
            )

    allocations: Dict[Tuple[ChunkKey, str], float] = {}
    objective = 0.0
    cost = 0.0
    served = np.zeros(n)
    for i, chunk in enumerate(chunks):
        for j, cluster in enumerate(clusters):
            z = float(x[var(i, j)])
            if z <= 1e-9:
                continue
            allocations[(chunk, cluster.name)] = z
            objective += z * cluster.utility
            cost += z * cluster.price_per_hour
            served[i] += z
    unserved = float(np.maximum(0.0, needs - served).sum())
    return VMAllocationPlan(
        allocations=allocations,
        objective=objective,
        cost_per_hour=cost,
        feasible=feasible and unserved <= 1e-6,
        unserved_vms=unserved,
    )

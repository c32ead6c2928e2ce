"""Optimal storage rental (paper Eqn (6)) and its solvers.

Decide which NFS cluster each chunk is deployed on, maximizing the
aggregate retrieval performance  sum u_f * Delta_i * x_if  subject to

* exactly one copy of every chunk,
* per-cluster capacity  sum_i x_if <= S_f / (r T0),
* storage budget        sum p_f * (r T0) * x_if <= B_S.

Three solvers:

* :func:`greedy_storage_rental` — the paper's heuristic: chunks by
  decreasing demand, clusters by decreasing marginal utility per dollar.
* :func:`exhaustive_storage_rental` — exact enumeration for tiny instances
  (test oracle).
* :func:`lp_storage_bound` — LP relaxation upper bound via scipy, used by
  the ablation bench to measure the heuristic's optimality gap.

Infeasibility (budget or capacity cannot host all chunks) is reported, not
raised: the paper treats it as a signal that the provider's budget "should
be increased".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.cluster import NFSClusterSpec

__all__ = [
    "StorageProblem",
    "StoragePlan",
    "greedy_storage_rental",
    "exhaustive_storage_rental",
    "lp_storage_bound",
]

ChunkKey = Hashable


@dataclass(frozen=True)
class StorageProblem:
    """One instance of the storage rental problem.

    Attributes
    ----------
    demands:
        ``{chunk_key: Delta_i}`` cloud upload demand per chunk (bytes/s).
        Every chunk in the catalogue must appear (zero-demand chunks too:
        the constraint says one copy of *each* chunk).
    chunk_size_bytes:
        r * T0, identical for all chunks per the paper's model.
    clusters:
        NFS cluster specs, in a stable order.
    budget_per_hour:
        B_S, dollars per hour.
    """

    demands: Mapping[ChunkKey, float]
    chunk_size_bytes: float
    clusters: Sequence[NFSClusterSpec]
    budget_per_hour: float

    def __post_init__(self) -> None:
        if self.chunk_size_bytes <= 0:
            raise ValueError("chunk size must be > 0")
        if self.budget_per_hour < 0:
            raise ValueError("budget must be >= 0")
        if not self.clusters:
            raise ValueError("need at least one NFS cluster")
        names = [c.name for c in self.clusters]
        if len(set(names)) != len(names):
            raise ValueError("cluster names must be unique")
        if any(d < 0 for d in self.demands.values()):
            raise ValueError("demands must be nonnegative")

    def chunk_cost_per_hour(self, cluster: NFSClusterSpec) -> float:
        """Hourly cost of storing one chunk on ``cluster``: p_f * r * T0."""
        return cluster.price_per_byte_hour * self.chunk_size_bytes

    def cluster_slots(self, cluster: NFSClusterSpec) -> int:
        return cluster.chunk_slots(self.chunk_size_bytes)


@dataclass(frozen=True)
class StoragePlan:
    """A (possibly partial) solution to a :class:`StorageProblem`."""

    placement: Dict[ChunkKey, str]  # chunk -> cluster name
    objective: float  # sum u_f * Delta_i over placed chunks
    cost_per_hour: float
    feasible: bool  # True iff every chunk was placed within budget
    unplaced: Tuple[ChunkKey, ...] = field(default_factory=tuple)

    def cluster_loads(self) -> Dict[str, int]:
        loads: Dict[str, int] = {}
        for cluster in self.placement.values():
            loads[cluster] = loads.get(cluster, 0) + 1
        return loads

    def to_facility_placement(
        self, chunk_size_bytes: float
    ) -> Dict[ChunkKey, Tuple[str, float]]:
        """Convert to the ``{chunk: (cluster, bytes)}`` scheduler format."""
        return {
            chunk: (cluster, chunk_size_bytes)
            for chunk, cluster in self.placement.items()
        }


def _sorted_chunks(problem: StorageProblem) -> List[ChunkKey]:
    """Chunks by decreasing demand; key string breaks ties deterministically."""
    return sorted(
        problem.demands.keys(),
        key=lambda k: (-problem.demands[k], repr(k)),
    )


def greedy_storage_rental(problem: StorageProblem) -> StoragePlan:
    """The paper's storage rental heuristic (Section V-A1).

    Chunks in decreasing Delta_i; clusters in decreasing u_f / p_f. Each
    chunk goes to the best cluster with a free slot, provided the running
    budget allows it; otherwise the plan is marked infeasible and the
    remaining chunks stay unplaced.
    """
    clusters = sorted(
        problem.clusters,
        key=lambda c: (-c.marginal_utility_per_dollar, c.name),
    )
    free_slots = {c.name: problem.cluster_slots(c) for c in clusters}
    placement: Dict[ChunkKey, str] = {}
    objective = 0.0
    cost = 0.0
    unplaced: List[ChunkKey] = []

    for chunk in _sorted_chunks(problem):
        placed = False
        for cluster in clusters:
            if free_slots[cluster.name] <= 0:
                continue
            chunk_cost = problem.chunk_cost_per_hour(cluster)
            if cost + chunk_cost > problem.budget_per_hour + 1e-12:
                continue  # try a cheaper cluster before giving up
            free_slots[cluster.name] -= 1
            placement[chunk] = cluster.name
            objective += cluster.utility * problem.demands[chunk]
            cost += chunk_cost
            placed = True
            break
        if not placed:
            unplaced.append(chunk)

    return StoragePlan(
        placement=placement,
        objective=objective,
        cost_per_hour=cost,
        feasible=not unplaced,
        unplaced=tuple(unplaced),
    )


def exhaustive_storage_rental(problem: StorageProblem) -> StoragePlan:
    """Exact optimum by enumeration; only for tiny instances (test oracle).

    Raises ``ValueError`` when the search space exceeds ~2 million
    assignments.
    """
    chunks = list(problem.demands.keys())
    clusters = list(problem.clusters)
    space = len(clusters) ** len(chunks)
    if space > 2_000_000:
        raise ValueError(f"instance too large for enumeration ({space} assignments)")

    slots = [problem.cluster_slots(c) for c in clusters]
    costs = [problem.chunk_cost_per_hour(c) for c in clusters]
    best: Optional[Tuple[float, Dict[ChunkKey, str], float]] = None
    for assignment in itertools.product(range(len(clusters)), repeat=len(chunks)):
        loads = [0] * len(clusters)
        total_cost = 0.0
        objective = 0.0
        ok = True
        for chunk, cluster_idx in zip(chunks, assignment):
            loads[cluster_idx] += 1
            if loads[cluster_idx] > slots[cluster_idx]:
                ok = False
                break
            total_cost += costs[cluster_idx]
            objective += clusters[cluster_idx].utility * problem.demands[chunk]
        if not ok or total_cost > problem.budget_per_hour + 1e-12:
            continue
        if best is None or objective > best[0] + 1e-15:
            best = (
                objective,
                {c: clusters[i].name for c, i in zip(chunks, assignment)},
                total_cost,
            )
    if best is None:
        return StoragePlan(
            placement={},
            objective=0.0,
            cost_per_hour=0.0,
            feasible=False,
            unplaced=tuple(chunks),
        )
    objective, placement, total_cost = best
    return StoragePlan(
        placement=placement,
        objective=objective,
        cost_per_hour=total_cost,
        feasible=True,
    )


def lp_storage_bound(problem: StorageProblem) -> float:
    """LP-relaxation upper bound on the Eqn (6) objective.

    Variables x_if in [0, 1]; equality per chunk, capacity per cluster,
    and the budget row. Returns +inf objective bound as NaN when even the
    relaxation is infeasible.
    """
    # scipy loads here, not at module import: only an LP run pays for it.
    from scipy.optimize import linprog

    chunks = list(problem.demands.keys())
    clusters = list(problem.clusters)
    n, f = len(chunks), len(clusters)
    if n == 0:
        return 0.0

    def var(i: int, j: int) -> int:
        return i * f + j

    c_obj = np.zeros(n * f)
    for i, chunk in enumerate(chunks):
        for j, cluster in enumerate(clusters):
            c_obj[var(i, j)] = -cluster.utility * problem.demands[chunk]

    a_eq = np.zeros((n, n * f))
    for i in range(n):
        for j in range(f):
            a_eq[i, var(i, j)] = 1.0
    b_eq = np.ones(n)

    a_ub = np.zeros((f + 1, n * f))
    b_ub = np.zeros(f + 1)
    for j, cluster in enumerate(clusters):
        for i in range(n):
            a_ub[j, var(i, j)] = 1.0
        b_ub[j] = problem.cluster_slots(cluster)
    for i in range(n):
        for j, cluster in enumerate(clusters):
            a_ub[f, var(i, j)] = problem.chunk_cost_per_hour(cluster)
    b_ub[f] = problem.budget_per_hour

    res = linprog(
        c_obj,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, 1.0)] * (n * f),
        method="highs",
    )
    if not res.success:
        return float("nan")
    return float(-res.fun)

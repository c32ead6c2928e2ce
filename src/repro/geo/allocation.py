"""Multi-region VM allocation (the geo extension's Eqn (7) analogue).

Per-region demand (one array of Delta per viewer region, with its chunk
keys) may be served from any region's clusters. Serving region g's
viewers from region s uses an *effective* utility
``u~_v * discount(s, g)`` (latency degrades streaming quality) and an
*effective* price ``p~_v + egress(s, g, R)`` (cross-region traffic is
billed per GB). Subject to per-cluster capacity and one global hourly
budget, maximize the total effective utility while covering all demand.

With one region at zero local latency (every discount 1.0, no egress)
this is the paper's Eqn (7) itself, and these are its only solvers: a
greedy in the paper's utility-per-dollar style, and the exact LP optimum
via scipy.  Both work on flat arrays over the problem's *cells* (one per
viewer-region chunk) and return their allocation as columns
(:class:`GeoAllocationPlan`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.geo.region import GeoTopology

__all__ = ["GeoVMProblem", "GeoAllocationPlan", "greedy_geo_allocation",
           "lp_geo_allocation"]

ChunkKey = Hashable

#: A take at or below this many VMs is no take (and a need at or below
#: it is met).
_TAKE_EPS = 1e-12
#: A cell's leftover need above this many VMs counts as unserved.
_UNSERVED_EPS = 1e-9
#: Cells the greedy commits per vectorised block at most.
_BLOCK = 1024


@lru_cache(maxsize=32)
def _repr_ranks(keys: Tuple[ChunkKey, ...]) -> np.ndarray:
    """Each key's position in ``repr`` order (stable), read-only.

    ``repr`` order is not numeric order — ``"(100, 1)" < "(12, 3)"`` —
    and it depends only on the keys, so one key set is ranked once and
    reused by every problem over it.
    """
    if len(set(keys)) != len(keys):
        raise ValueError("chunk keys must be unique within a region")
    reprs = [repr(key) for key in keys]
    ranks = np.empty(len(keys), dtype=np.intp)
    ranks[sorted(range(len(keys)), key=reprs.__getitem__)] = np.arange(len(keys))
    ranks.flags.writeable = False
    return ranks


def _sequential_sum(values: np.ndarray, start: float = 0.0) -> float:
    """``start + v0 + v1 + ...`` left to right, the order a Python loop
    adds in (``np.sum`` adds pairwise, which can round differently)."""
    return float(np.add.accumulate(np.concatenate(([start], values)))[-1])


def _cluster_layout(
    topology: GeoTopology,
) -> Tuple[Tuple[Tuple[str, str], ...], List[object], np.ndarray]:
    """Every cluster in topology order: ``(region, name)`` keys, specs,
    and each one's region index."""
    names = topology.region_names()
    pairs = [
        (g, spec) for g, name in enumerate(names)
        for spec in topology.regions[name].clusters
    ]
    keys = tuple((names[g], spec.name) for g, spec in pairs)
    return keys, [spec for _, spec in pairs], np.array(
        [g for g, _ in pairs], dtype=np.intp
    )


@dataclass(frozen=True, eq=False)
class GeoVMProblem:
    """One instance of the multi-region VM configuration problem.

    ``demands[region]`` is a viewer region's cloud demand Delta in
    bytes/s, one array in slot order, and ``chunks[region]`` names its
    entries (one hashable key each, unique within the region).  Both
    name the same regions; cells follow ``demands`` order.

    The flattened cells are ``keys`` (chunk keys), ``viewer`` (topology
    index of each cell's viewer region), ``delta`` (Delta, bytes/s),
    ``need`` (Delta / R, VMs) and ``rank`` (each cell's position in
    ``(viewer name, repr(chunk))`` order, the order both solvers break
    ties in).
    """

    topology: GeoTopology
    chunks: Mapping[str, Sequence[ChunkKey]]
    demands: Mapping[str, Sequence[float]]
    vm_bandwidth: float
    budget_per_hour: float
    keys: Tuple[ChunkKey, ...] = field(init=False, repr=False)
    viewer: np.ndarray = field(init=False, repr=False)
    delta: np.ndarray = field(init=False, repr=False)
    need: np.ndarray = field(init=False, repr=False)
    rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.vm_bandwidth) or self.vm_bandwidth <= 0:
            raise ValueError("VM bandwidth must be finite and > 0")
        if not math.isfinite(self.budget_per_hour) or self.budget_per_hour < 0:
            raise ValueError("budget must be finite and >= 0")
        if set(self.chunks) != set(self.demands):
            raise ValueError("chunks and demands must name the same regions")
        region_index = {
            name: g for g, name in enumerate(self.topology.region_names())
        }
        by_name = {name: g for g, name in enumerate(sorted(self.demands))}
        chunks: Dict[str, Tuple[ChunkKey, ...]] = {}
        demands: Dict[str, np.ndarray] = {}
        for region, values in self.demands.items():
            if region not in region_index:
                raise KeyError(f"unknown demand region {region!r}")
            keys = tuple(self.chunks[region])
            delta = np.array(values, dtype=float)
            if delta.ndim != 1 or delta.size != len(keys):
                raise ValueError(
                    f"region {region!r} has {delta.size} demands for "
                    f"{len(keys)} chunks"
                )
            if not np.isfinite(delta).all():
                raise ValueError(f"non-finite demand in region {region!r}")
            if (delta < 0).any():
                raise ValueError(f"negative demand in region {region!r}")
            delta.flags.writeable = False
            chunks[region] = keys
            demands[region] = delta
        sizes = [len(keys) for keys in chunks.values()]
        viewer = np.repeat(
            np.array([region_index[r] for r in demands], dtype=np.intp), sizes
        )
        by_viewer = np.repeat(
            np.array([by_name[r] for r in demands], dtype=np.intp), sizes
        )
        by_repr = np.concatenate(
            [_repr_ranks(keys) for keys in chunks.values()]
            or [np.empty(0, dtype=np.intp)]
        )
        rank = np.empty(viewer.size, dtype=np.intp)
        rank[np.lexsort((by_repr, by_viewer))] = np.arange(viewer.size)
        flat = np.concatenate(list(demands.values()) or [np.empty(0)])
        object.__setattr__(self, "chunks", chunks)
        object.__setattr__(self, "demands", demands)
        object.__setattr__(self, "keys", tuple(chain.from_iterable(chunks.values())))
        object.__setattr__(self, "viewer", viewer)
        object.__setattr__(self, "delta", flat)
        object.__setattr__(self, "need", flat / self.vm_bandwidth)
        object.__setattr__(self, "rank", rank)

    def _options(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Effective ``(utility, price)`` of every cluster for every viewer
        region, each ``(regions, clusters)`` in topology order, plus the
        cluster capacities."""
        topology = self.topology
        names = topology.region_names()
        _, specs, serving = _cluster_layout(topology)
        utility = np.array([
            [spec.utility * topology.utility_discount(names[s], viewer)
             for spec, s in zip(specs, serving.tolist())]
            for viewer in names
        ]).reshape(len(names), len(specs))
        price = np.array([
            [spec.price_per_hour + topology.egress_cost_per_vm_hour(
                names[s], viewer, self.vm_bandwidth)
             for spec, s in zip(specs, serving.tolist())]
            for viewer in names
        ]).reshape(len(names), len(specs))
        capacity = np.array([float(spec.max_vms) for spec in specs])
        return utility, price, capacity

    def _plan(
        self, chunk: np.ndarray, cluster: np.ndarray, z: np.ndarray, *,
        objective: float, cost_per_hour: float, feasible: bool,
        unserved_vms: float = 0.0,
    ) -> "GeoAllocationPlan":
        """The plan with allocation rows ``(chunk, cluster, z)``."""
        chunk = np.asarray(chunk, dtype=np.intp)
        return GeoAllocationPlan(
            regions=tuple(self.topology.region_names()),
            clusters=_cluster_layout(self.topology)[0],
            keys=self.keys,
            viewer=self.viewer[chunk],
            chunk=chunk,
            cluster=np.asarray(cluster, dtype=np.intp),
            z=np.asarray(z, dtype=float),
            objective=objective,
            cost_per_hour=cost_per_hour,
            feasible=feasible,
            unserved_vms=unserved_vms,
        )


@dataclass(frozen=True, eq=False)
class GeoAllocationPlan:
    """A (possibly partial) multi-region allocation, as columns.

    Row ``a`` gives cell ``chunk[a]`` (an index into ``keys``, the
    problem's chunk keys, whose viewer region is ``regions[viewer[a]]``)
    ``z[a]`` fractional VMs of cluster ``clusters[cluster[a]]``, a
    ``(serving region, cluster name)`` pair.  Rows are in the order the
    solver committed them; every reduction below adds in that order.
    """

    regions: Tuple[str, ...]
    clusters: Tuple[Tuple[str, str], ...]
    keys: Tuple[ChunkKey, ...]
    viewer: np.ndarray
    chunk: np.ndarray
    cluster: np.ndarray
    z: np.ndarray
    objective: float
    cost_per_hour: float
    feasible: bool
    unserved_vms: float = 0.0

    @property
    def serving(self) -> np.ndarray:
        """The serving region index of every row."""
        index = {name: g for g, name in enumerate(self.regions)}
        cluster_region = np.array(
            [index[region] for region, _ in self.clusters], dtype=np.intp
        )
        return cluster_region[self.cluster]

    def cluster_totals(self) -> np.ndarray:
        """Fractional VM totals per cluster, aligned with ``clusters``."""
        return np.bincount(
            self.cluster, weights=self.z, minlength=len(self.clusters)
        )

    def remote_fraction(self) -> float:
        """Fraction of VM-hours served across regions."""
        total = _sequential_sum(self.z)
        if total <= 0:
            return 0.0
        return _sequential_sum(self.z[self.viewer != self.serving]) / total

    def region_service_matrix(self) -> Dict[Tuple[str, str], float]:
        """``{(viewer_region, serving_region): fractional VMs}``, pairs in
        the order their first row appears."""
        size = len(self.regions)
        pair = self.viewer * size + self.serving
        totals = np.bincount(pair, weights=self.z, minlength=size * size)
        seen, first = np.unique(pair, return_index=True)
        return {
            (self.regions[p // size], self.regions[p % size]): float(totals[p])
            for p in seen[np.argsort(first)].tolist()
        }


def greedy_geo_allocation(problem: GeoVMProblem) -> GeoAllocationPlan:
    """Greedy in the paper's style, extended across regions.

    Demand cells (viewer region, chunk) are processed in decreasing
    demand Delta (not Delta / R, which can round two demands one ulp
    apart to one need), ties broken by viewer name then ``repr(chunk)``;
    each draws from its viewer's best effective-utility-per-dollar
    option with remaining capacity, spilling across clusters *and
    regions*, while the global budget lasts.

    The cells are committed in blocks: every cell of a block takes its
    whole need from its viewer's first open option, so the block's
    takes, running cost and objective and each cluster's remaining
    capacity are prefix sums, computed left to right
    (``np.add.accumulate`` / ``np.subtract.accumulate``) in the order a
    cell-by-cell loop adds in.  A block ends at the first cell where a
    cluster or the budget would bind; that cell takes the cell-by-cell
    step, spilling to later options.
    """
    utility, price, remaining = problem._options()
    # Each viewer's options, best utility per dollar first (a free option
    # is the best buy), then by serving region and cluster name.
    clusters = _cluster_layout(problem.topology)[0]
    ratio = np.divide(
        utility, price, out=np.full(price.shape, np.inf), where=price > 0
    )
    choice = np.array([
        sorted(range(len(clusters)),
               key=lambda k: (-ratio[v, k], *clusters[k]))
        for v in range(price.shape[0])
    ], dtype=np.intp).reshape(price.shape)
    option_utility = np.take_along_axis(utility, choice, axis=1)
    option_price = np.take_along_axis(price, choice, axis=1)
    free = option_price <= 0

    need, viewer = problem.need, problem.viewer
    order = np.lexsort((problem.rank, -problem.delta))
    # A cell needing at most _TAKE_EPS takes nothing and is never unserved.
    order = order[need[order] > _TAKE_EPS]

    budget = float(problem.budget_per_hour)
    cost = objective = unserved = 0.0
    rows_chunk: List[np.ndarray] = []
    rows_cluster: List[np.ndarray] = []
    rows_z: List[np.ndarray] = []
    start = 0
    while start < order.size:
        block = order[start:start + _BLOCK]
        # Each viewer's first open option as the block starts.  Capacity
        # only falls and spend only rises, so a closed option stays
        # closed; one that closes mid-block stops the block below.
        affordable = np.divide(
            budget - cost, option_price,
            out=np.full(option_price.shape, np.inf), where=~free,
        )
        is_open = (remaining[choice] > _TAKE_EPS) & (affordable > _TAKE_EPS)
        first = is_open.argmax(axis=1)
        has_option = is_open[np.arange(first.size), first]

        v = viewer[block]
        j = first[v]
        take = need[block]
        served = has_option[v]
        k = choice[v, j]
        p = option_price[v, j]
        # Capacity left in each cell's cluster before its take.
        left = np.full(block.size, np.inf)
        runs = {}
        for c in np.unique(k[served]).tolist():
            idx = np.flatnonzero(served & (k == c))
            run = np.subtract.accumulate(
                np.concatenate(([remaining[c]], take[idx]))
            )
            left[idx] = run[:-1]
            runs[c] = (idx, run)
        binds = served & (take > left)
        # Spend before each served cell's take, and what it can afford.
        paid = np.flatnonzero(served)
        spend = np.add.accumulate(
            np.concatenate(([cost], take[paid] * p[paid]))
        )
        priced = p[paid] > 0
        can_afford = (budget - spend[:-1][priced]) / p[paid[priced]]
        binds[paid[priced]] |= ~(take[paid[priced]] <= can_afford)
        stop = int(binds.argmax()) if binds.any() else block.size

        done = np.flatnonzero(served[:stop])
        if done.size:
            rows_chunk.append(block[done])
            rows_cluster.append(k[done])
            rows_z.append(take[done])
            cost = float(spend[done.size])
            objective = _sequential_sum(
                take[done] * option_utility[v[done], j[done]], objective
            )
            for c, (idx, run) in runs.items():
                remaining[c] = run[np.searchsorted(idx, stop)]
        lost = np.flatnonzero(~served[:stop])
        lost = lost[take[lost] > _UNSERVED_EPS]
        if lost.size:
            unserved = _sequential_sum(take[lost], unserved)
        if stop == block.size:
            start += block.size
            continue

        # The binding cell, option by option.
        cell = int(block[stop])
        row = int(v[stop])
        left_need = float(take[stop])
        for option in range(choice.shape[1]):
            if left_need <= _TAKE_EPS:
                break
            c = int(choice[row, option])
            capacity = float(remaining[c])
            if capacity <= _TAKE_EPS:
                continue
            unit = float(option_price[row, option])
            affordable_vms = (budget - cost) / unit if unit > 0 else math.inf
            got = min(left_need, capacity, max(0.0, affordable_vms))
            if got <= _TAKE_EPS:
                continue
            rows_chunk.append(np.array([cell]))
            rows_cluster.append(np.array([c]))
            rows_z.append(np.array([got]))
            remaining[c] = capacity - got
            cost += got * unit
            objective += got * float(option_utility[row, option])
            left_need -= got
        if left_need > _UNSERVED_EPS:
            unserved += left_need
        start += stop + 1

    def column(parts, dtype):
        return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

    return problem._plan(
        column(rows_chunk, np.intp),
        column(rows_cluster, np.intp),
        column(rows_z, float),
        objective=objective,
        cost_per_hour=cost,
        feasible=unserved <= _UNSERVED_EPS,
        unserved_vms=unserved,
    )


def lp_geo_allocation(problem: GeoVMProblem) -> GeoAllocationPlan:
    """Exact LP optimum of the multi-region problem via scipy HiGHS.

    One variable per (cell, cluster): cells in ``(viewer name,
    repr(chunk))`` order, clusters by region name then declaration
    order.  The constraint matrices are sparse — a variable sits in one
    demand row, one capacity row and the budget row — so the LP scales
    with the number of variables, not cells times variables.
    """
    # scipy loads here, not at module import: only an LP run pays for it.
    from scipy.optimize import linprog
    from scipy.sparse import csc_array

    utility, price, capacity = problem._options()
    cells = np.argsort(problem.rank)
    names = problem.topology.region_names()
    serving = _cluster_layout(problem.topology)[2]
    by_name = np.argsort(np.array(names, dtype=object)[serving], kind="stable")
    n_cells, n_clusters = cells.size, by_name.size
    n_vars = n_cells * n_clusters
    needs = problem.need[cells]
    if n_vars == 0:
        return problem._plan([], [], [], objective=0.0, cost_per_hour=0.0,
                             feasible=True)

    # Variable j is (cells[j // n_clusters], by_name[j % n_clusters]).
    var_cell = np.repeat(np.arange(n_cells), n_clusters)
    var_cluster = np.tile(np.arange(n_clusters), n_cells)
    var_viewer = problem.viewer[cells][var_cell]
    var_utility = utility[var_viewer, by_name[var_cluster]]
    var_price = price[var_viewer, by_name[var_cluster]]

    # Capacity rows (one per cluster) and the budget row; no explicit zeros.
    priced = var_price != 0
    rows = np.stack([var_cluster, np.full(n_vars, n_clusters)], axis=1)
    data = np.stack([np.ones(n_vars), var_price], axis=1)
    keep = np.stack([np.ones(n_vars, dtype=bool), priced], axis=1)
    a_ub = csc_array(
        (data[keep], rows[keep],
         np.concatenate(([0], np.cumsum(keep.sum(axis=1))))),
        shape=(n_clusters + 1, n_vars),
    )
    b_ub = np.concatenate((capacity[by_name], [problem.budget_per_hour]))
    a_eq = csc_array(
        (np.ones(n_vars), var_cell, np.arange(n_vars + 1)),
        shape=(n_cells, n_vars),
    )

    res = linprog(
        -var_utility,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=needs,
        bounds=(0.0, None),
        method="highs",
    )
    if not res.success:
        return problem._plan([], [], [], objective=0.0, cost_per_hour=0.0,
                             feasible=False, unserved_vms=float(needs.sum()))

    kept = np.flatnonzero(res.x > 1e-9)
    z = res.x[kept]
    return problem._plan(
        cells[var_cell[kept]],
        by_name[var_cluster[kept]],
        z,
        objective=_sequential_sum(z * var_utility[kept]),
        cost_per_hour=_sequential_sum(z * var_price[kept]),
        feasible=True,
    )

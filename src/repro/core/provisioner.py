"""The dynamic cloud provisioning controller (paper Section V-B, Fig. 3).

Every interval T the controller:

1. closes the tracker's statistics interval (arrival rates, viewing
   patterns, peer upload capacities);
2. feeds the observed rates to its predictor (the paper's last-interval
   rule by default) and runs the Section IV analysis to get per-chunk
   cloud demands Delta_i^(c);
3. solves the VM configuration problem (Eqn (7) heuristic) and, when the
   demand profile shifted enough (or videos were added), the storage
   rental problem (Eqn (6) heuristic);
4. submits the change request to the cloud broker under its SLA terms;
5. publishes the granted per-chunk capacities for the VoD system to use
   in the next interval.

The initial deployment (the paper's "based on the application's empirical
user scale and viewing pattern information") is :meth:`bootstrap`, which
runs the same pipeline on operator-supplied expected rates instead of
tracker measurements.

Steps 1-2, the request of step 4 and the grants of step 5 are the
shared loop in :class:`repro.core.controller.ProvisioningControllerBase`,
which also holds the controller's provisioning policy
(``repro.core.controller`` documents the policies); this module owns the
single-region optimization pipeline (step 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cloud.broker import SLAAgreement
from repro.core.controller import ProvisioningControllerBase, chunk_offsets
from repro.core.demand import ChannelDemand, aggregate_demand
from repro.core.packing import PackingResult, pack_allocations
from repro.core.storage_rental import StoragePlan, StorageProblem, greedy_storage_rental
from repro.core.vm_allocation import VMAllocationPlan, VMProblem, greedy_vm_allocation

__all__ = [
    "ProvisioningDecision",
    "ProvisioningController",
]


@dataclass
class ProvisioningDecision:
    """Everything the controller decided for one interval."""

    time: float
    demands: List[ChannelDemand]
    vm_plan: VMAllocationPlan
    storage_plan: Optional[StoragePlan]
    packing: PackingResult
    agreement: Optional[SLAAgreement]
    per_channel_capacity: Dict[int, np.ndarray] = field(default_factory=dict)
    rejected: Optional[str] = None
    cluster_utilities: Dict[str, float] = field(default_factory=dict)
    nfs_utilities: Dict[str, float] = field(default_factory=dict)

    @property
    def total_cloud_demand(self) -> float:
        return float(sum(d.total_cloud_demand for d in self.demands))

    @property
    def vm_counts(self) -> Dict[str, int]:
        return self.vm_plan.integer_vm_counts()

    @property
    def hourly_vm_cost(self) -> float:
        return self.agreement.hourly_vm_cost if self.agreement else 0.0

    def aggregate_vm_utility(self, channel_id: Optional[int] = None) -> float:
        """sum u~_v z_iv, optionally restricted to one channel (Fig 9)."""
        total = 0.0
        for (chunk, cluster), z in self.vm_plan.allocations.items():
            if channel_id is not None and chunk[0] != channel_id:
                continue
            total += self.cluster_utilities[cluster] * z
        return total

    def aggregate_storage_utility(
        self, channel_id: Optional[int] = None
    ) -> float:
        """sum u_f Delta_i x_if over the storage placement (Fig 8).

        Uses this decision's demand vector and its storage plan (or 0.0
        when storage was not replanned this interval).
        """
        if self.storage_plan is None:
            return 0.0
        demand_by_chunk = aggregate_demand(self.demands)
        total = 0.0
        for chunk, cluster in self.storage_plan.placement.items():
            if channel_id is not None and chunk[0] != channel_id:
                continue
            total += self.nfs_utilities[cluster] * demand_by_chunk.get(chunk, 0.0)
        return total


class ProvisioningController(ProvisioningControllerBase):
    """Closes the provisioning loop between tracker, analysis and cloud.

    The observe/predict/analyze loop and the policy live in
    :class:`~repro.core.controller.ProvisioningControllerBase`; this
    class supplies the single-region optimization pipeline.  Its
    ``topology`` is one ``"local"`` region over the facility's VM
    clusters, the problem the MPC policy's inner solve sees.
    """

    decisions: List[ProvisioningDecision]

    def __init__(self, estimator, tracker, broker, terms, **kwargs) -> None:
        super().__init__(estimator, tracker, broker, terms, **kwargs)
        # Lazy import: the geo package imports the core one at init.
        from repro.geo.region import GeoTopology, RegionSpec

        self.topology = GeoTopology(
            [RegionSpec("local", tuple(broker.facility.vm_specs.values()))],
            {},
            {},
        )

    def _viewer_region(self, channel_id: int) -> str:
        return "local"

    # ------------------------------------------------------------------
    # Decision pipeline (shared by bootstrap and periodic runs)
    # ------------------------------------------------------------------
    def provision(
        self,
        now: float,
        demands: List[ChannelDemand],
    ) -> ProvisioningDecision:
        """Optimize, negotiate and apply a set of channel demands."""
        chunk_demand = aggregate_demand(demands)

        # --- VM configuration (every interval) --------------------------
        vm_specs = list(self.broker.facility.vm_specs.values())
        vm_problem = VMProblem(
            demands=chunk_demand,
            vm_bandwidth=self.vm_bandwidth,
            clusters=vm_specs,
            budget_per_hour=self.terms.vm_budget_per_hour,
        )
        vm_plan = greedy_vm_allocation(vm_problem)
        packing = pack_allocations(vm_plan.allocations)

        # --- Storage rental (on significant change) ----------------------
        storage_plan: Optional[StoragePlan] = None
        nfs_specs = list(self.broker.facility.nfs_specs.values())
        if self._should_replan_storage(chunk_demand):
            storage_problem = StorageProblem(
                demands=chunk_demand,
                chunk_size_bytes=self.chunk_size_bytes,
                clusters=nfs_specs,
                budget_per_hour=self.terms.storage_budget_per_hour,
            )
            storage_plan = greedy_storage_rental(storage_problem)

        # --- Request to the cloud -----------------------------------------
        vm_targets = {spec.name: 0 for spec in vm_specs}
        vm_targets.update(vm_plan.integer_vm_counts())
        agreement, rejected = self._rent(vm_targets, storage_plan, chunk_demand)
        offsets = chunk_offsets(demands)
        cells = list(vm_plan.allocations.items())
        decision = ProvisioningDecision(
            time=now,
            demands=demands,
            vm_plan=vm_plan,
            storage_plan=storage_plan,
            packing=packing,
            agreement=agreement,
            per_channel_capacity=self._channel_capacities(
                demands,
                np.array(
                    [offsets[c] + i for ((c, i), _), _ in cells], dtype=np.intp
                ),
                np.array([z for _, z in cells]),
            ),
            rejected=rejected,
            cluster_utilities={spec.name: spec.utility for spec in vm_specs},
            nfs_utilities={spec.name: spec.utility for spec in nfs_specs},
        )
        self.decisions.append(decision)
        return decision

"""The dynamic cloud provisioning controller (paper Section V-B, Fig. 3).

Every interval T the controller:

1. closes the tracker's statistics interval (arrival rates, viewing
   patterns, peer upload capacities);
2. feeds the observed rates to its predictor (the paper's last-interval
   rule by default) and runs the Section IV analysis to get per-chunk
   cloud demands Delta_i^(c);
3. solves the VM configuration problem (Eqn (7),
   :class:`repro.geo.allocation.GeoVMProblem` over the controller's
   region graph) and, when the demand profile shifted enough (or videos
   were added), the storage rental problem (Eqn (6) heuristic).  The
   packing of the fractional VM shares onto concrete VMs (Section V-A2)
   is not part of the replan: nothing the controller rents depends on
   it, so a decision packs on the first read of
   :attr:`ProvisioningDecision.packing`;
4. submits the change request to the cloud broker under its SLA terms,
   and meters the plan's cross-region egress;
5. publishes the granted per-chunk capacities for the VoD system to use
   in the next interval.

The initial deployment (the paper's "based on the application's empirical
user scale and viewing pattern information") is :meth:`bootstrap`, which
runs the same pipeline on operator-supplied expected rates instead of
tracker measurements.

There is one controller for every engine.  What differs between the
paper's single-region system and the geo extension (Section VII) is
data, handed to the constructor: the region graph (a
:class:`~repro.geo.region.GeoTopology` whose cluster names are the
broker's), each slot's viewer region and catalog channel, and whether
to solve exactly.  The single-region engines pass one ``"local"``
region over the facility's clusters (:func:`local_topology`) and the
identity slot maps (:func:`local_region`, :func:`own_channel`); there,
every egress rate is 0 and every plan row is served locally.

Steps 1-2, the VM solve of step 3, the request of step 4 and the grants
of step 5 are the loop in
:class:`repro.core.controller.ProvisioningControllerBase`, which also
holds the controller's provisioning policy (``repro.core.controller``
documents the policies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.broker import SLAAgreement
from repro.core.controller import ProvisioningControllerBase
from repro.core.demand import ChannelDemand
from repro.core.packing import PackingResult, pack_allocations
from repro.core.storage_rental import StoragePlan, StorageProblem, greedy_storage_rental
from repro.geo.allocation import (
    GeoAllocationPlan,
    greedy_geo_allocation,
    lp_geo_allocation,
)
from repro.geo.region import GeoTopology, RegionSpec
from repro.vod.delivery import sequential_sum

__all__ = [
    "ProvisioningDecision",
    "ProvisioningController",
    "local_topology",
    "local_region",
    "own_channel",
]

# perfbench's layer wiring wraps this name; a benchmark change drops the
# alias together with that wrap.
greedy_vm_allocation = greedy_geo_allocation

#: The one region of a single-region graph.
LOCAL = "local"


def local_topology(vm_specs) -> GeoTopology:
    """One ``"local"`` region over ``vm_specs`` (plain cluster names, the
    default local latency): the single-region engines' region graph."""
    return GeoTopology([RegionSpec(LOCAL, tuple(vm_specs))], {}, {})


def local_region(slot: int) -> str:
    """A single-region graph's viewer region: every slot is local."""
    return LOCAL


def own_channel(slot: int) -> int:
    """A single-region graph's catalog channel: every slot is its own."""
    return slot


@dataclass
class ProvisioningDecision:
    """Everything the controller decided for one interval.

    ``plan`` is the Eqn (7) plan; its cells are keyed ``(slot, chunk)``
    and its clusters carry the broker's names, so :attr:`packing` and
    :meth:`aggregate_vm_utility` keep two regions' same-named clusters
    apart.  :attr:`packing` is computed on its first read and cached on
    the decision; a replan does not pack.
    """

    time: float
    demands: List[ChannelDemand]
    plan: GeoAllocationPlan
    #: The Eqn (6) storage rental, replanned on significant demand shift
    #: (``None`` when the previous placement was kept).  Storage is
    #: placed at *channel* granularity: one copy of each chunk in the
    #: global NFS estate serves every region's slots.
    storage_plan: Optional[StoragePlan]
    agreement: Optional[SLAAgreement]
    per_channel_capacity: Dict[int, np.ndarray] = field(default_factory=dict)
    rejected: Optional[str] = None
    cluster_utilities: Dict[str, float] = field(default_factory=dict)
    nfs_utilities: Dict[str, float] = field(default_factory=dict)
    #: $/hour of cross-region transfer implied by the plan.
    egress_rate_per_hour: float = 0.0
    #: Viewer region -> capacity-weighted latency utility discount in
    #: (0, 1]; 1.0 when the region is idle.
    region_discounts: Dict[str, float] = field(default_factory=dict)
    #: Fraction of allocated VM-hours served across regions.
    remote_fraction: float = 0.0
    #: The plan's ``{(viewer_region, serving_region): fractional VMs}``.
    region_service: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def _rows(self) -> List[Tuple[Tuple[Hashable, str], float]]:
        """Each plan row as ``((chunk key, cluster name), z)``, in row
        order."""
        keys = self.plan.keys
        names = [name for _, name in self.plan.clusters]
        return [
            ((keys[chunk], names[cluster]), z)
            for chunk, cluster, z in zip(
                self.plan.chunk.tolist(), self.plan.cluster.tolist(),
                self.plan.z.tolist(),
            )
        ]

    @cached_property
    def packing(self) -> PackingResult:
        """The VM plan's shares packed onto concrete VMs (Section V-A2)."""
        return pack_allocations(dict(self._rows()))

    def __getstate__(self):
        # The cached packing is derived: a pickle (a checkpoint) must not
        # depend on whether anything read it.
        state = dict(self.__dict__)
        state.pop("packing", None)
        return state

    @property
    def total_cloud_demand(self) -> float:
        return float(sequential_sum(d.total_cloud_demand for d in self.demands))

    @property
    def hourly_vm_cost(self) -> float:
        return self.agreement.hourly_vm_cost if self.agreement else 0.0

    def aggregate_vm_utility(self, channel_id: Optional[int] = None) -> float:
        """sum u~_v z_iv, optionally restricted to one channel (Fig 9)."""
        total = 0.0
        for ((channel, _), cluster), z in self._rows():
            if channel_id is not None and channel != channel_id:
                continue
            total += self.cluster_utilities[cluster] * z
        return total

    def mean_discount(self) -> float:
        """Capacity-weighted discount across all viewer regions."""
        weights = self.region_service
        total = sequential_sum(weights.values())
        if total <= 0:
            return 1.0
        acc = 0.0
        for (viewer, _serving), z in weights.items():
            acc += z * self.region_discounts.get(viewer, 1.0)
        return acc / total

    def epoch_telemetry(self) -> Dict[str, float]:
        """The per-epoch geo series entries this decision contributes
        (consumed by the geo engine's result assembly and by
        :class:`repro.api.EpochSnapshot` streaming consumers)."""
        return {
            "discount": float(self.mean_discount()),
            "remote_fraction": float(self.remote_fraction),
            "egress_rate_per_hour": float(self.egress_rate_per_hour),
        }


class ProvisioningController(ProvisioningControllerBase):
    """Closes the provisioning loop between tracker, analysis and cloud.

    The constructor, the observe/predict/analyze loop, the VM solve and
    the policy live in
    :class:`~repro.core.controller.ProvisioningControllerBase`; this
    class adds :meth:`provision`.  Any region's clusters may serve any
    region's viewers, at a latency-discounted utility and an
    egress-inflated price, under one global hourly budget.  The
    single-region ``"local"`` topology keeps the default local latency,
    so a plan's ``objective`` is in latency-discounted utility (nothing
    reads it; :meth:`ProvisioningDecision.aggregate_vm_utility` uses the
    raw u~_v).
    """

    decisions: List[ProvisioningDecision]

    def _channel_chunk_demand(
        self, demands: Sequence[ChannelDemand]
    ) -> Dict[object, float]:
        """Slot demands pooled to ``{(channel, chunk): Delta}``.

        One stored copy serves every region, so the storage optimizer
        sees the catalog's channel-chunk space, not the slot space.
        Each channel's slot arrays are summed in slot order (fixed), for
        determinism.
        """
        pooled: Dict[int, np.ndarray] = {}
        for demand in demands:
            channel = self.slot_channel(demand.channel_id)
            pooled[channel] = pooled.get(channel, 0.0) + demand.cloud_demand
        return {
            (channel, i): delta
            for channel, deltas in pooled.items()
            for i, delta in enumerate(deltas.tolist())
        }

    def _egress_rate(self, plan: GeoAllocationPlan) -> float:
        """$/hour of cross-region transfer the plan implies, summed in
        plan row order (local rows add an exact 0.0)."""
        names = plan.regions
        per_vm = np.array([
            [self.topology.egress_cost_per_vm_hour(
                serving, viewer, self.vm_bandwidth)
             for serving in names]
            for viewer in names
        ]).reshape(len(names), len(names))
        return float(np.bincount(
            np.zeros_like(plan.chunk),
            weights=plan.z * per_vm[plan.viewer, plan.serving],
            minlength=1,
        )[0])

    def _region_discounts(
        self, service: Dict[Tuple[str, str], float]
    ) -> Dict[str, float]:
        """Capacity-weighted latency discount per viewer region, from the
        plan's region service matrix."""
        weighted: Dict[str, float] = {}
        totals: Dict[str, float] = {}
        for (viewer, serving), z in service.items():
            weighted[viewer] = weighted.get(viewer, 0.0) + z * \
                self.topology.utility_discount(serving, viewer)
            totals[viewer] = totals.get(viewer, 0.0) + z
        return {
            name: (weighted[name] / totals[name] if totals.get(name) else 1.0)
            for name in self.topology.region_names()
        }

    # ------------------------------------------------------------------
    # Decision pipeline (shared by bootstrap and periodic runs)
    # ------------------------------------------------------------------
    def provision(
        self, now: float, demands: List[ChannelDemand]
    ) -> ProvisioningDecision:
        """Optimize, negotiate and apply one set of slot demands."""
        plan, vm_targets, grants = self._allocate(
            demands, lp_geo_allocation if self.exact else greedy_vm_allocation
        )

        # --- Storage rental (on significant change), per channel chunk --
        chunk_demand = self._channel_chunk_demand(demands)
        storage_plan: Optional[StoragePlan] = None
        facility = self.broker.facility
        nfs_specs = list(facility.nfs_specs.values())
        if nfs_specs and self._should_replan_storage(chunk_demand):
            storage_plan = greedy_storage_rental(StorageProblem(
                demands=chunk_demand,
                chunk_size_bytes=self.chunk_size_bytes,
                clusters=nfs_specs,
                budget_per_hour=self.terms.storage_budget_per_hour,
            ))

        # --- Request to the cloud -----------------------------------------
        agreement, rejected = self._rent(vm_targets, storage_plan, chunk_demand)

        # On rejection the facility keeps its previous VM allocation, so
        # the previous egress level keeps accruing too: metering the
        # rejected plan's rate would bill remote capacity that was never
        # deployed.  The rate takes effect when the broker billed the
        # grant, on the facility's clock.
        egress_rate = self._egress_rate(plan) if agreement else 0.0
        if agreement:
            facility.billing.record_egress_rate(facility.now(), egress_rate)

        service = plan.region_service_matrix()
        decision = ProvisioningDecision(
            time=now,
            demands=demands,
            plan=plan,
            storage_plan=storage_plan,
            agreement=agreement,
            per_channel_capacity=grants,
            rejected=rejected,
            cluster_utilities={
                spec.name: spec.utility for spec in facility.vm_specs.values()
            },
            nfs_utilities={spec.name: spec.utility for spec in nfs_specs},
            egress_rate_per_hour=egress_rate,
            region_discounts=self._region_discounts(service),
            remote_fraction=plan.remote_fraction(),
            region_service=service,
        )
        self.decisions.append(decision)
        return decision

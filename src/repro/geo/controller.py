"""The multi-region provisioning controller (geo extension, Section VII).

The single-region controller (:mod:`repro.core.provisioner`) solves the
paper's Eqn (7) VM configuration per interval over one region.  This
controller runs the same tracker → predictor → Section IV analysis
front-end per channel *slot* (a (viewer-region, channel) pair), then
groups the resulting per-chunk cloud demands by viewer region and
solves the multi-region problem (:mod:`repro.geo.allocation`): any
region's clusters may serve any region's viewers, at a
latency-discounted utility and an egress-inflated price, under one
global hourly budget.

Each decision yields

* per-slot granted capacity arrays (the sum over serving cells, exactly
  like the single-region grants),
* integer VM targets per ``<region>:<cluster>`` plus the Eqn (6)
  storage placement (one stored copy per *channel* chunk in the global
  NFS estate serves every region), submitted through the broker,
* the plan's aggregate cross-region egress spend rate, metered by
  :meth:`repro.cloud.billing.BillingMeter.record_egress_rate`, and
* per-viewer-region capacity-weighted latency utility discounts, which
  the engine folds into the quality metrics
  (:func:`repro.vod.metrics.latency_adjusted_quality`).

The observe/predict/analyze loop, the Eqn (7) solve, the broker request
and the capacity floor are
:class:`repro.core.controller.ProvisioningControllerBase` — shared with
the single-region controller, which solves the same problem over one
region, so the geo loop is the same loop over a wider topology, not a
fork — and it holds any provisioning policy the same way
(``repro.core.controller`` documents the policies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.broker import Broker, SLAAgreement
from repro.core.controller import ProvisioningControllerBase
from repro.core.demand import ChannelDemand, DemandEstimator
from repro.core.predictor import ArrivalRatePredictor
from repro.core.sla import SLATerms
from repro.core.storage_rental import StoragePlan, StorageProblem, greedy_storage_rental
from repro.geo.allocation import (
    GeoAllocationPlan,
    greedy_geo_allocation,
    lp_geo_allocation,
)
from repro.geo.region import GeoTopology
from repro.vod.delivery import sequential_sum
from repro.vod.tracker import TrackingServer

__all__ = [
    "GeoProvisioningDecision",
    "GeoProvisioningController",
]


@dataclass
class GeoProvisioningDecision:
    """Everything the geo controller decided for one interval."""

    time: float
    demands: List[ChannelDemand]
    plan: GeoAllocationPlan
    agreement: Optional[SLAAgreement]
    per_channel_capacity: Dict[int, np.ndarray] = field(default_factory=dict)
    #: The Eqn (6) storage rental, replanned on significant demand shift
    #: (``None`` when the previous placement was kept).  Storage is
    #: placed at *channel* granularity: one copy of each chunk in the
    #: global NFS estate serves every region's slots.
    storage_plan: Optional[StoragePlan] = None
    rejected: Optional[str] = None
    #: $/hour of cross-region transfer implied by the plan.
    egress_rate_per_hour: float = 0.0
    #: Viewer region -> capacity-weighted latency utility discount in
    #: (0, 1]; 1.0 when the region is fully served locally (or idle).
    region_discounts: Dict[str, float] = field(default_factory=dict)
    #: Fraction of allocated VM-hours served across regions.
    remote_fraction: float = 0.0
    #: The plan's ``{(viewer_region, serving_region): fractional VMs}``.
    region_service: Dict[Tuple[str, str], float] = field(default_factory=dict)

    @property
    def hourly_vm_cost(self) -> float:
        return self.agreement.hourly_vm_cost if self.agreement else 0.0

    @property
    def total_cloud_demand(self) -> float:
        return float(sequential_sum(d.total_cloud_demand for d in self.demands))

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
        (consumed by the engine's result assembly and by
        :class:`repro.api.EpochSnapshot` streaming consumers)."""
        return {
            "discount": float(self.mean_discount()),
            "remote_fraction": float(self.remote_fraction),
            "egress_rate_per_hour": float(self.egress_rate_per_hour),
        }


class GeoProvisioningController(ProvisioningControllerBase):
    """Closes the provisioning loop across regions.

    Parameters
    ----------
    estimator / tracker / broker / terms / predictor / policy:
        Same roles as in the single-region controller; the tracker and
        predictor are keyed by slot id.
    topology:
        The solver-facing region graph (unprefixed cluster names; the
        broker-facing names are ``<region>:<cluster>``).
    slot_region:
        Maps a slot id to its viewer region name.
    slot_channel:
        Maps a slot id to its catalog channel — the storage rental
        places one copy per *channel* chunk (the NFS estate is global),
        so regional slots of a channel pool their demand.
    exact:
        Use the LP optimum instead of the greedy each interval.
    min_capacity_per_chunk:
        Same floor semantics as the single-region controller.
    """

    decisions: List[GeoProvisioningDecision]

    def __init__(
        self,
        estimator: DemandEstimator,
        tracker: TrackingServer,
        broker: Broker,
        topology: GeoTopology,
        terms: SLATerms,
        slot_region: Callable[[int], str],
        slot_channel: Callable[[int], int],
        *,
        predictor: Optional[ArrivalRatePredictor] = None,
        policy=None,
        exact: bool = False,
        min_capacity_per_chunk: float = 0.0,
    ) -> None:
        super().__init__(
            estimator,
            tracker,
            broker,
            terms,
            predictor=predictor,
            policy=policy,
            min_capacity_per_chunk=min_capacity_per_chunk,
        )
        self.topology = topology
        self.slot_region = slot_region
        self.slot_channel = slot_channel
        self.exact = bool(exact)

    # ------------------------------------------------------------------
    def _viewer_region(self, channel_id: int) -> str:
        return self.slot_region(channel_id)

    def _broker_cluster(self, region: str, cluster: str) -> str:
        return f"{region}:{cluster}"

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
    def provision(
        self, now: float, demands: List[ChannelDemand]
    ) -> GeoProvisioningDecision:
        """Optimize, negotiate and apply one set of slot demands."""
        plan, vm_targets, grants = self._allocate(
            demands, lp_geo_allocation if self.exact else greedy_geo_allocation
        )

        # Storage rental (Eqn (6)) on significant demand shift, exactly
        # like the single-region controller — at channel granularity.
        chunk_demand = self._channel_chunk_demand(demands)
        storage_plan: Optional[StoragePlan] = None
        nfs_specs = list(self.broker.facility.nfs_specs.values())
        if nfs_specs and self._should_replan_storage(chunk_demand):
            storage_plan = greedy_storage_rental(StorageProblem(
                demands=chunk_demand,
                chunk_size_bytes=self.chunk_size_bytes,
                clusters=nfs_specs,
                budget_per_hour=self.terms.storage_budget_per_hour,
            ))

        agreement, rejected = self._rent(vm_targets, storage_plan, chunk_demand)

        # On rejection the facility keeps its previous VM allocation, so
        # the previous egress level keeps accruing too — metering the
        # rejected plan's rate would bill remote capacity that was never
        # deployed (the single-region analogue records $0 VM rate on
        # rejection for the same reason).
        egress_rate = self._egress_rate(plan) if agreement else 0.0
        if agreement:
            self.broker.facility.billing.record_egress_rate(
                now, egress_rate
            )

        service = plan.region_service_matrix()
        decision = GeoProvisioningDecision(
            time=now,
            demands=demands,
            plan=plan,
            agreement=agreement,
            per_channel_capacity=grants,
            storage_plan=storage_plan,
            rejected=rejected,
            egress_rate_per_hour=egress_rate,
            region_discounts=self._region_discounts(service),
            remote_fraction=plan.remote_fraction(),
            region_service=service,
        )
        self.decisions.append(decision)
        return decision

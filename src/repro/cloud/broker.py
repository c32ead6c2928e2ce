"""The cloud facility and its broker (paper Section III-A, Fig. 1).

The consumer (the VoD provider's controller) talks to the cloud only through
the broker.  :meth:`Broker.request` negotiates a :class:`ResourceRequest`
against the provider's prices and availability — each VM target clamped to
its cluster's size, each NFS cluster's placement checked against its
capacity, the quoted rate against the consumer's budget — and then either
raises :class:`NegotiationError`, changing nothing, or applies the grant to
the :class:`CloudFacility` and returns an :class:`SLAAgreement`.

This mirrors the paper's separation between *deciding* an allocation (done
by the consumer, Section V) and *applying* it (done by the provider).  The
facility holds only what the engines read: the active VMs per virtual
cluster, the stored bytes per NFS cluster, and the billing meter that
integrates both over the engine's clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.cloud.billing import BillingMeter
from repro.cloud.cluster import NFSClusterSpec, VirtualClusterSpec

__all__ = ["CloudFacility", "ResourceRequest", "SLAAgreement", "Broker",
           "NegotiationError"]

ChunkKey = Hashable  # typically a (channel_id, chunk_index) tuple


class NegotiationError(RuntimeError):
    """Raised when the broker rejects a request."""


class CloudFacility:
    """The cloud provider's state: per-cluster levels and their meter.

    Parameters
    ----------
    vm_clusters / nfs_clusters:
        Cluster descriptions in declaration order (order matters only for
        deterministic reporting).
    clock:
        Returns the current simulated time (the engines pass their
        :class:`~repro.sim.loop.EpochClock`); every applied grant is
        billed from that instant on.
    """

    def __init__(
        self,
        vm_clusters: Sequence[VirtualClusterSpec],
        nfs_clusters: Sequence[NFSClusterSpec],
        clock: Callable[[], float],
    ) -> None:
        names = [spec.name for spec in vm_clusters]
        if len(set(names)) != len(names):
            raise ValueError("virtual cluster names must be unique")
        nfs_names = [spec.name for spec in nfs_clusters]
        if len(set(nfs_names)) != len(nfs_names):
            raise ValueError("NFS cluster names must be unique")

        self.clock = clock
        self.vm_specs: Dict[str, VirtualClusterSpec] = {
            spec.name: spec for spec in vm_clusters
        }
        self.nfs_specs: Dict[str, NFSClusterSpec] = {
            spec.name: spec for spec in nfs_clusters
        }
        #: Active (billed) VMs per virtual cluster.
        self.active_vms: Dict[str, int] = {name: 0 for name in self.vm_specs}
        #: Stored bytes per NFS cluster under the current placement.
        self.stored_bytes: Dict[str, float] = {
            name: 0.0 for name in self.nfs_specs
        }
        self.billing = BillingMeter(
            self.vm_specs, self.nfs_specs, start_time=self.now()
        )

    def now(self) -> float:
        return float(self.clock())

    def total_active_vms(self) -> int:
        return sum(self.active_vms.values())


@dataclass(frozen=True)
class ResourceRequest:
    """A consumer's change request for the next charging interval.

    Attributes
    ----------
    vm_targets:
        Desired number of active VMs per virtual cluster; clusters left
        out keep their current count.
    storage_placement:
        Desired chunk placement ``{chunk: (nfs_cluster, size_bytes)}``,
        replacing the whole current placement; ``None`` keeps it.
    max_hourly_budget:
        Optional consumer-side cap; the broker rejects agreements whose
        quoted price rate exceeds it.
    """

    vm_targets: Mapping[str, int]
    storage_placement: Optional[Mapping[ChunkKey, Tuple[str, float]]] = None
    max_hourly_budget: Optional[float] = None


@dataclass(frozen=True)
class SLAAgreement:
    """A negotiated agreement: the granted allocation and its price rate."""

    request_id: int
    vm_grants: Dict[str, int]
    hourly_vm_cost: float
    hourly_storage_cost: float
    storage_accepted: bool

    @property
    def hourly_cost(self) -> float:
        return self.hourly_vm_cost + self.hourly_storage_cost


class Broker:
    """The consumer-facing interface: submit a request, get it applied."""

    def __init__(self, facility: CloudFacility) -> None:
        self.facility = facility
        self.agreements: List[SLAAgreement] = []
        self._submitted = 0  # request ids count rejected requests too

    def request(self, request: ResourceRequest) -> SLAAgreement:
        """Negotiate ``request`` and apply the grant.

        Raises :class:`NegotiationError`, leaving the facility and its
        billing untouched, for an unknown cluster, a negative VM target or
        chunk size, a placement over an NFS cluster's capacity, or a
        quoted rate over ``max_hourly_budget``.
        """
        self._submitted += 1
        facility = self.facility
        grants: Dict[str, int] = {}
        vm_cost = 0.0
        for name, target in request.vm_targets.items():
            spec = facility.vm_specs.get(name)
            if spec is None:
                raise NegotiationError(f"no such virtual cluster: {name!r}")
            if target < 0:
                raise NegotiationError(f"negative VM target for {name!r}")
            granted = min(int(target), spec.max_vms)
            grants[name] = granted
            vm_cost += granted * spec.price_per_hour

        storage_cost = 0.0
        stored: Optional[Dict[str, float]] = None
        if request.storage_placement is not None:
            sizes: Dict[str, List[float]] = {}
            for chunk, (cluster, size) in request.storage_placement.items():
                if cluster not in facility.nfs_specs:
                    raise NegotiationError(f"no such NFS cluster: {cluster!r}")
                if size < 0:
                    raise NegotiationError(f"negative size for chunk {chunk!r}")
                sizes.setdefault(cluster, []).append(float(size))
            stored = dict.fromkeys(facility.nfs_specs, 0.0)
            for cluster, placed in sizes.items():
                spec = facility.nfs_specs[cluster]
                total = stored[cluster] = float(sum(placed))
                if total > spec.capacity_bytes + 1e-6:
                    raise NegotiationError(
                        f"placement exceeds capacity of {cluster!r}"
                    )
                storage_cost += total * spec.price_per_byte_hour

        if (
            request.max_hourly_budget is not None
            and vm_cost + storage_cost > request.max_hourly_budget + 1e-9
        ):
            raise NegotiationError(
                f"quoted rate ${vm_cost + storage_cost:.2f}/h exceeds consumer "
                f"budget ${request.max_hourly_budget:.2f}/h"
            )

        now = facility.now()
        facility.active_vms.update(grants)
        facility.billing.record_vm_usage(now, facility.active_vms)
        if stored is not None:
            facility.stored_bytes = stored
            facility.billing.record_storage_usage(now, stored)
        agreement = SLAAgreement(
            request_id=self._submitted,
            vm_grants=grants,
            hourly_vm_cost=vm_cost,
            hourly_storage_cost=storage_cost,
            storage_accepted=stored is not None,
        )
        self.agreements.append(agreement)
        return agreement

    @property
    def last_agreement(self) -> Optional[SLAAgreement]:
        return self.agreements[-1] if self.agreements else None

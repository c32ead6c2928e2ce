"""Usage metering and cost accounting (paper Section III-A charging model).

Three charges are levied on the consumer, all per unit time:

* VM rental — each active VM of cluster v costs p~_v per hour;
* NFS storage — each stored byte on cluster f costs p_f per hour;
* cross-region egress — the geo extension's per-GB transfer pricing,
  metered as a piecewise-constant dollars-per-hour rate (each remote
  VM-allocation streams at the VM bandwidth, so the controller reports
  the plan's aggregate egress rate; intra-region traffic is free).

The meter integrates piecewise-constant usage over simulated time, so
changing the allocation mid-hour bills each sub-interval at its own level,
matching the fine-grained usage-time charging the paper assumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.cloud.cluster import NFSClusterSpec, VirtualClusterSpec

__all__ = ["BillingMeter", "CostReport"]

_SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class CostReport:
    """Aggregated charges over a metering window."""

    window_seconds: float
    vm_cost: float
    storage_cost: float
    vm_hours: Mapping[str, float]
    stored_byte_hours: Mapping[str, float]
    egress_cost: float = 0.0

    @property
    def total_cost(self) -> float:
        return self.vm_cost + self.storage_cost + self.egress_cost

    @property
    def hourly_vm_cost(self) -> float:
        """Average VM cost per hour over the window (Fig 10's y-axis)."""
        hours = self.window_seconds / _SECONDS_PER_HOUR
        return self.vm_cost / hours if hours > 0 else 0.0

    @property
    def hourly_storage_cost(self) -> float:
        hours = self.window_seconds / _SECONDS_PER_HOUR
        return self.storage_cost / hours if hours > 0 else 0.0

    @property
    def hourly_egress_cost(self) -> float:
        hours = self.window_seconds / _SECONDS_PER_HOUR
        return self.egress_cost / hours if hours > 0 else 0.0


class BillingMeter:
    """Integrates VM counts and stored bytes into dollar charges.

    Usage is reported through :meth:`record_vm_usage` /
    :meth:`record_storage_usage` as *levels* effective from the given time
    onward; the meter accrues cost between consecutive reports.
    """

    def __init__(
        self,
        vm_clusters: Mapping[str, VirtualClusterSpec],
        nfs_clusters: Mapping[str, NFSClusterSpec],
        start_time: float = 0.0,
    ) -> None:
        self.vm_clusters = dict(vm_clusters)
        self.nfs_clusters = dict(nfs_clusters)
        self._vm_levels: Dict[str, float] = {name: 0.0 for name in vm_clusters}
        self._storage_levels: Dict[str, float] = {name: 0.0 for name in nfs_clusters}
        self._last_time = float(start_time)
        self._start_time = float(start_time)
        self._vm_hours: Dict[str, float] = {name: 0.0 for name in vm_clusters}
        self._byte_hours: Dict[str, float] = {name: 0.0 for name in nfs_clusters}
        self._egress_rate = 0.0  # $/hour, piecewise constant
        self._egress_cost = 0.0  # accrued dollars
        # (time, hourly_vm_cost_rate) samples for time series reporting.
        self._rate_history: List[Tuple[float, float]] = []

    # ------------------------------------------------------------------
    # Level updates
    # ------------------------------------------------------------------
    def _accrue(self, now: float) -> None:
        if now < self._last_time:
            raise ValueError(
                f"billing time went backwards: {now} < {self._last_time}"
            )
        hours = (now - self._last_time) / _SECONDS_PER_HOUR
        if hours > 0:
            for name, level in self._vm_levels.items():
                self._vm_hours[name] += level * hours
            for name, level in self._storage_levels.items():
                self._byte_hours[name] += level * hours
            self._egress_cost += self._egress_rate * hours
        self._last_time = now

    def record_vm_usage(self, now: float, active_vms: Mapping[str, int]) -> None:
        """Set the number of billable VMs per cluster, effective at ``now``."""
        self._accrue(now)
        for name, count in active_vms.items():
            if name not in self._vm_levels:
                raise KeyError(f"unknown VM cluster {name!r}")
            if count < 0:
                raise ValueError(f"negative VM count for {name!r}")
            self._vm_levels[name] = float(count)
        self._rate_history.append((now, self.current_vm_cost_rate()))

    def record_storage_usage(self, now: float, stored_bytes: Mapping[str, float]) -> None:
        """Set the stored bytes per NFS cluster, effective at ``now``."""
        self._accrue(now)
        for name, level in stored_bytes.items():
            if name not in self._storage_levels:
                raise KeyError(f"unknown NFS cluster {name!r}")
            if level < 0:
                raise ValueError(f"negative storage level for {name!r}")
            self._storage_levels[name] = float(level)

    def record_egress_rate(self, now: float, dollars_per_hour: float) -> None:
        """Set the cross-region egress spend rate, effective at ``now``.

        The geo controller derives the rate from its allocation plan
        (each remote fractional VM streams at the VM bandwidth across a
        priced link); the meter integrates it exactly like the VM and
        storage levels.
        """
        if dollars_per_hour < 0:
            raise ValueError("egress rate must be >= 0")
        self._accrue(now)
        self._egress_rate = float(dollars_per_hour)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def current_vm_cost_rate(self) -> float:
        """Instantaneous VM spend in dollars/hour at current levels."""
        return sum(
            level * self.vm_clusters[name].price_per_hour
            for name, level in self._vm_levels.items()
        )

    def current_egress_cost_rate(self) -> float:
        """Instantaneous cross-region egress spend, dollars/hour."""
        return self._egress_rate

    def vm_cost_rate_history(self) -> List[Tuple[float, float]]:
        """(time, $/hour) samples recorded at each VM level change."""
        return list(self._rate_history)

    def report(self, now: float) -> CostReport:
        """Close the books through ``now`` and return aggregate charges."""
        self._accrue(now)
        vm_cost = sum(
            hours * self.vm_clusters[name].price_per_hour
            for name, hours in self._vm_hours.items()
        )
        storage_cost = sum(
            byte_hours * self.nfs_clusters[name].price_per_byte_hour
            for name, byte_hours in self._byte_hours.items()
        )
        return CostReport(
            window_seconds=now - self._start_time,
            vm_cost=vm_cost,
            storage_cost=storage_cost,
            vm_hours=dict(self._vm_hours),
            stored_byte_hours=dict(self._byte_hours),
            egress_cost=self._egress_cost,
        )

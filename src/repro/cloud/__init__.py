"""IaaS cloud substrate (paper Section III-A, Fig. 1).

The paper evaluates on a home-built cloud of 100+ machines; this package is
the simulated equivalent, with the same functional modules:

* :mod:`repro.cloud.cluster` — virtual-cluster and NFS-cluster descriptions
  (Tables II and III).
* :mod:`repro.cloud.vm` — VM lifecycle state machine (OFF -> BOOTING ->
  RUNNING -> SHUTTING_DOWN -> OFF) with the measured ~25 s boot latency,
  and per-cluster VM pools.
* :mod:`repro.cloud.scheduler` — the VM scheduler and NFS scheduler that
  apply allocation decisions.
* :mod:`repro.cloud.broker` — broker, request monitor and SLA negotiator:
  the consumer-facing request path.
* :mod:`repro.cloud.billing` — usage metering and cost accounting under the
  per-time-unit charging model.
* :mod:`repro.cloud.monitor` — VM monitor collecting utilization samples.
"""

from repro.cloud.billing import BillingMeter, CostReport
from repro.cloud.broker import (
    Broker,
    RequestMonitor,
    ResourceRequest,
    SLAAgreement,
    SLANegotiator,
)
from repro.cloud.cluster import NFSClusterSpec, VirtualClusterSpec
from repro.cloud.monitor import VMMonitor
from repro.cloud.scheduler import CloudFacility, NFSScheduler, VMScheduler
from repro.cloud.vm import VM, VMPool, VMState

__all__ = [
    "BillingMeter",
    "CostReport",
    "Broker",
    "RequestMonitor",
    "ResourceRequest",
    "SLAAgreement",
    "SLANegotiator",
    "NFSClusterSpec",
    "VirtualClusterSpec",
    "VMMonitor",
    "CloudFacility",
    "NFSScheduler",
    "VMScheduler",
    "VM",
    "VMPool",
    "VMState",
]

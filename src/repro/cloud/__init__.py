"""IaaS cloud substrate (paper Section III-A, Fig. 1).

The paper evaluates on a home-built cloud of 100+ machines; this package is
the consumer's view of it — what the provisioning controller negotiates
and pays for:

* :mod:`repro.cloud.cluster` — virtual-cluster and NFS-cluster descriptions
  (Tables II and III).
* :mod:`repro.cloud.broker` — the broker, which negotiates VM and NFS
  rentals (clamping, pricing, budget check) and applies each grant to the
  :class:`CloudFacility`: active VMs per virtual cluster, stored bytes per
  NFS cluster, and the billing meter.
* :mod:`repro.cloud.billing` — usage metering and cost accounting under the
  per-time-unit charging model.
"""

from repro.cloud.billing import BillingMeter, CostReport
from repro.cloud.broker import (
    Broker,
    CloudFacility,
    NegotiationError,
    ResourceRequest,
    SLAAgreement,
)
from repro.cloud.cluster import NFSClusterSpec, VirtualClusterSpec

__all__ = [
    "BillingMeter",
    "CostReport",
    "Broker",
    "CloudFacility",
    "NegotiationError",
    "ResourceRequest",
    "SLAAgreement",
    "NFSClusterSpec",
    "VirtualClusterSpec",
]

"""Geo-distributed cloud extension (paper Section VII future work).

The paper closes with: "In our ongoing work, we are expanding to cloud
systems spanning different geographic locations." This package implements
that extension on top of the reproduction's substrates:

* :mod:`repro.geo.region` — region descriptions: a full set of virtual
  clusters per region, inter-region latency, and egress pricing.
* :mod:`repro.geo.allocation` — the multi-region VM configuration
  problem: per-region viewer demand may be served from any region, with
  latency-discounted utility and egress-inflated cost; solved with the
  same greedy style as Eqn (7) plus an LP optimum for comparison.

The provisioning controller is the paper's own
(:class:`repro.core.provisioner.ProvisioningController`), built with a
multi-region topology: the geo catalog engine
(:class:`repro.sim.shard.GeoShardedSimulator`) hands it the regions,
each slot's viewer region and catalog channel, and it meters the plan's
cross-region egress and latency discounts.
"""

from repro.geo.allocation import (
    GeoAllocationPlan,
    GeoVMProblem,
    greedy_geo_allocation,
    lp_geo_allocation,
)
from repro.geo.region import GeoTopology, RegionSpec

__all__ = [
    "GeoAllocationPlan",
    "GeoVMProblem",
    "greedy_geo_allocation",
    "lp_geo_allocation",
    "GeoTopology",
    "RegionSpec",
]

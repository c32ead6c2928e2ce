"""Names kept for perfbench's layer wiring.

The multi-region provisioning loop is the one controller,
:class:`repro.core.provisioner.ProvisioningController`, built with the
geo catalog's region graph (:class:`repro.sim.shard.GeoShardedSimulator`).
perfbench wraps this module's ``greedy_geo_allocation`` and
``greedy_storage_rental``; a benchmark change drops the module together
with those wraps.
"""

from repro.core.storage_rental import greedy_storage_rental
from repro.geo.allocation import greedy_geo_allocation

__all__ = ["greedy_geo_allocation", "greedy_storage_rental"]

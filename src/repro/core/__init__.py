"""CloudMedia's core: demand estimation, rental optimization, provisioning.

This package implements the paper's primary contribution (Section V):

* :mod:`repro.core.demand` — turns tracker statistics into per-chunk cloud
  capacity demands Delta_i^(c) via the Section IV analysis.
* :mod:`repro.core.storage_rental` — the optimal storage rental problem
  (Eqn (6)): greedy heuristic, exact solver for small instances, and an LP
  relaxation bound.
* :mod:`repro.core.packing` — maps fractional VM shares onto concrete VMs,
  co-locating consecutive chunks of a channel on shared VMs.
* :mod:`repro.core.predictor` — demand predictors: the paper's
  last-interval rule plus moving-average and EWMA extensions.
* :mod:`repro.core.controller` — the provisioning-controller protocol,
  the shared observe/predict/analyze/rent loop, the provisioning
  policies (the paper's and the reactive, Adapt, PID and MPC rivals)
  and the policy registry.
* :mod:`repro.core.provisioner` — the dynamic cloud provisioning controller
  that closes the loop every interval T.  Its VM configuration (Eqn (7))
  is the one-region :class:`repro.geo.allocation.GeoVMProblem`, solved by
  :func:`repro.geo.allocation.greedy_geo_allocation` (the exact LP
  optimum is :func:`repro.geo.allocation.lp_geo_allocation`).
* :mod:`repro.core.sla` — consumer-side SLA terms and the SLA penalty
  model scored by the controller ablation.
"""

from repro.core.controller import (
    CONTROLLERS,
    AdaptEstimator,
    Controller,
    PIDLoop,
    ProvisioningControllerBase,
    ReactiveScaler,
    controller_names,
)
from repro.core.demand import ChannelDemand, DemandEstimator, aggregate_demand
from repro.core.packing import PackedVM, PackingResult, pack_allocations
from repro.core.predictor import (
    EWMAPredictor,
    LastIntervalPredictor,
    MovingAveragePredictor,
)
from repro.core.provisioner import ProvisioningController, ProvisioningDecision
from repro.core.sla import SLAPenaltyModel, SLATerms
from repro.core.storage_rental import (
    StoragePlan,
    StorageProblem,
    exhaustive_storage_rental,
    greedy_storage_rental,
    lp_storage_bound,
)

__all__ = [
    "CONTROLLERS",
    "AdaptEstimator",
    "Controller",
    "PIDLoop",
    "ProvisioningControllerBase",
    "ReactiveScaler",
    "controller_names",
    "ChannelDemand",
    "DemandEstimator",
    "aggregate_demand",
    "PackedVM",
    "PackingResult",
    "pack_allocations",
    "EWMAPredictor",
    "LastIntervalPredictor",
    "MovingAveragePredictor",
    "ProvisioningController",
    "ProvisioningDecision",
    "SLAPenaltyModel",
    "SLATerms",
    "StoragePlan",
    "StorageProblem",
    "exhaustive_storage_rental",
    "greedy_storage_rental",
    "lp_storage_bound",
]

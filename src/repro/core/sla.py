"""Consumer-side SLA terms and the SLA penalty model (paper Sections III, V).

The VoD provider negotiates with the cloud under two per-unit-time budgets
(B_M for VMs, B_S for storage). :class:`SLATerms` carries those terms plus
the provisioning interval; what each interval actually spent, and whether
its plan was feasible, is on the controller's decisions.

:class:`SLAPenaltyModel` turns a run's per-epoch quality and VM-cost
series into violation counts and a dollar penalty — the common yardstick
the ``ablation-controllers`` scenarios use to score rival provisioning
policies head-to-head (a policy that saves rental dollars by letting
quality slip below the target pays for it here, and so does one that
buys quality by blowing through B_M).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

__all__ = ["SLATerms", "SLAPenaltyModel"]


@dataclass(frozen=True)
class SLATerms:
    """The consumer's standing agreement parameters.

    Attributes
    ----------
    vm_budget_per_hour:
        B_M, dollars per hour for VM rental (paper default: $100/h).
    storage_budget_per_hour:
        B_S, dollars per hour for NFS storage (paper default: $1/h).
    interval_seconds:
        Provisioning interval T (paper default: one hour).
    """

    vm_budget_per_hour: float = 100.0
    storage_budget_per_hour: float = 1.0
    interval_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.vm_budget_per_hour < 0:
            raise ValueError("VM budget must be >= 0")
        if self.storage_budget_per_hour < 0:
            raise ValueError("storage budget must be >= 0")
        if self.interval_seconds <= 0:
            raise ValueError("interval must be > 0")

    @property
    def total_budget_per_hour(self) -> float:
        return self.vm_budget_per_hour + self.storage_budget_per_hour


@dataclass(frozen=True)
class SLAPenaltyModel:
    """Dollar penalties for missing the service-level targets.

    Two violation classes, assessed per provisioning epoch:

    * **quality** — the epoch's streaming quality (fraction of demand
      served, in [0, 1]) fell below ``quality_target``; each such epoch
      costs ``quality_penalty`` dollars.
    * **budget** — the epoch's VM spend rate exceeded the agreement's
      B_M; each such epoch costs ``budget_penalty`` dollars.

    The model is deliberately linear-per-epoch: it ranks controllers by
    how *often* they violate, not by excursion depth, which keeps the
    score robust to a single catastrophic epoch dominating the table.
    """

    quality_target: float = 0.98
    quality_penalty: float = 10.0
    budget_penalty: float = 25.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.quality_target <= 1.0:
            raise ValueError("quality target must be in [0, 1]")
        if self.quality_penalty < 0 or self.budget_penalty < 0:
            raise ValueError("penalties must be >= 0")

    def assess(
        self,
        terms: SLATerms,
        epoch_quality: Sequence[float],
        vm_cost_series: Sequence[float],
    ) -> Dict[str, float]:
        """Score one run: violation counts and the total dollar penalty.

        ``epoch_quality`` and ``vm_cost_series`` are the engines'
        per-epoch series (they may differ in length by the bootstrap
        epoch; each is scanned independently).
        """
        quality_violations = sum(
            1 for q in epoch_quality if q < self.quality_target - 1e-12
        )
        budget_limit = terms.vm_budget_per_hour + 1e-9
        budget_violations = sum(
            1 for c in vm_cost_series if c > budget_limit
        )
        penalty = (
            quality_violations * self.quality_penalty
            + budget_violations * self.budget_penalty
        )
        return {
            "sla_quality_target": float(self.quality_target),
            "sla_quality_violations": int(quality_violations),
            "sla_budget_violations": int(budget_violations),
            "sla_penalty_dollars": float(penalty),
        }

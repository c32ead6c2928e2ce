"""Consumer-side SLA terms and budget accounting (paper Sections III, V).

The VoD provider negotiates with the cloud under two per-unit-time budgets
(B_M for VMs, B_S for storage). :class:`SLATerms` carries those terms plus
the provisioning interval; :class:`BudgetLedger` tracks realized spending
against them so experiments can report budget adherence and the controller
can detect sustained infeasibility (the paper's "budget... should be
increased" signal).

:class:`SLAPenaltyModel` turns a run's per-epoch quality and VM-cost
series into violation counts and a dollar penalty — the common yardstick
the ``ablation-controllers`` scenarios use to score rival provisioning
policies head-to-head (a policy that saves rental dollars by letting
quality slip below the target pays for it here, and so does one that
buys quality by blowing through B_M).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = ["SLATerms", "BudgetLedger", "SLAPenaltyModel"]


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


class BudgetLedger:
    """Per-interval spending record against the SLA budgets."""

    def __init__(self, terms: SLATerms) -> None:
        self.terms = terms
        self.entries: List[Tuple[float, float, float]] = []  # (t, vm$, storage$)
        self.infeasible_intervals = 0

    def record(
        self,
        time: float,
        vm_rate: float,
        storage_rate: float,
        *,
        feasible: bool = True,
    ) -> None:
        """Record one interval's hourly spend rates (dollars/hour)."""
        if vm_rate < 0 or storage_rate < 0:
            raise ValueError("spend rates must be >= 0")
        self.entries.append((time, vm_rate, storage_rate))
        if not feasible:
            self.infeasible_intervals += 1

    @property
    def intervals(self) -> int:
        return len(self.entries)

    def mean_vm_rate(self) -> float:
        if not self.entries:
            return 0.0
        return sum(e[1] for e in self.entries) / len(self.entries)

    def mean_storage_rate(self) -> float:
        if not self.entries:
            return 0.0
        return sum(e[2] for e in self.entries) / len(self.entries)

    def peak_vm_rate(self) -> float:
        return max((e[1] for e in self.entries), default=0.0)

    def vm_budget_violations(self) -> int:
        """Intervals whose VM spend rate exceeded B_M (should be zero)."""
        limit = self.terms.vm_budget_per_hour + 1e-9
        return sum(1 for e in self.entries if e[1] > limit)

    def series(self) -> List[Tuple[float, float]]:
        """(time, vm $/hour) points — the Fig 10 series."""
        return [(t, vm) for t, vm, _ in self.entries]


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

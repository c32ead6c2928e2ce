"""Per-figure series generators (paper Section VI).

Every public function is a view over already-computed
:class:`ClosedLoopResult` objects (the ``paper-closed-loop`` and ``fig11``
cells, so callers share expensive runs) and returns plain dicts of numpy
series shaped like the corresponding paper figure.
:mod:`repro.experiments.claims` measures the paper's claims through these
views; EXPERIMENTS.md records the paper-vs-measured comparison.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.demand import aggregate_demand
from repro.experiments.reporting import mbps
from repro.experiments.runner import ClosedLoopResult

__all__ = [
    "fig4_capacity_provisioning",
    "fig5_streaming_quality",
    "fig6_quality_vs_channel_size",
    "fig7_bandwidth_vs_channel_size",
    "fig8_storage_utility",
    "fig9_vm_utility",
    "fig10_vm_cost",
    "fig11_quality_by_peer_bandwidth",
]


def fig4_capacity_provisioning(
    cs: ClosedLoopResult, p2p: ClosedLoopResult
) -> Dict[str, np.ndarray]:
    """Fig 4: provisioned vs used cloud bandwidth over time (Mbps)."""
    return {
        "hours": np.asarray(cs.interval_times) / 3600.0,
        "cs_reserved_mbps": cs.provisioned_mbps(),
        "cs_used_mbps": cs.used_mbps(),
        "p2p_reserved_mbps": p2p.provisioned_mbps(),
        "p2p_used_mbps": p2p.used_mbps(),
    }


def fig5_streaming_quality(
    cs: ClosedLoopResult, p2p: ClosedLoopResult
) -> Dict[str, np.ndarray]:
    """Fig 5: average streaming quality over time for both modes."""
    cs_t, cs_q = cs.simulation.quality.quality_series()
    p2p_t, p2p_q = p2p.simulation.quality.quality_series()
    return {
        "cs_hours": cs_t / 3600.0,
        "cs_quality": cs_q,
        "cs_average": np.asarray(cs.average_quality),
        "p2p_hours": p2p_t / 3600.0,
        "p2p_quality": p2p_q,
        "p2p_average": np.asarray(p2p.average_quality),
    }


def fig6_quality_vs_channel_size(
    result: ClosedLoopResult, *, min_users: int = 1
) -> Dict[str, np.ndarray]:
    """Fig 6: per-channel streaming quality vs channel size scatter."""
    points = result.simulation.quality.channel_size_quality_points(min_users)
    sizes = np.asarray([p[0] for p in points], dtype=float)
    quality = np.asarray([p[1] for p in points], dtype=float)
    return {"channel_size": sizes, "quality": quality}


def fig7_bandwidth_vs_channel_size(
    result: ClosedLoopResult,
) -> Dict[str, np.ndarray]:
    """Fig 7: per-channel provisioned cloud bandwidth vs channel size.

    Pairs each interval's provisioning decision with the channel sizes
    measured at the end of that interval.
    """
    sizes: List[float] = []
    bandwidth: List[float] = []
    # decisions[k] governs interval k (bootstrap governs interval 1);
    # channel_population_series[k] is measured at the end of interval k+1.
    for decision, populations in zip(
        result.decisions, result.channel_population_series
    ):
        for channel_id, capacity in decision.per_channel_capacity.items():
            size = populations.get(channel_id, 0)
            if size <= 0:
                continue
            sizes.append(float(size))
            bandwidth.append(mbps(float(capacity.sum())))
    return {
        "channel_size": np.asarray(sizes),
        "bandwidth_mbps": np.asarray(bandwidth),
    }


def _storage_utility_series(
    result: ClosedLoopResult, channel_id: int
) -> np.ndarray:
    """Aggregate storage utility per interval for one channel (Fig 8).

    Intervals without a storage replan reuse the most recent placement,
    priced against the interval's demand vector — exactly what the paper's
    system does (the placement persists; popularity moves).
    """
    utilities: List[float] = []
    last_placement: Optional[Dict] = None
    last_nfs_utilities: Dict[str, float] = {}
    for decision in result.decisions:
        if decision.storage_plan is not None:
            last_placement = decision.storage_plan.placement
            last_nfs_utilities = decision.nfs_utilities
        if last_placement is None:
            utilities.append(0.0)
            continue
        demand = aggregate_demand(decision.demands)
        total = 0.0
        for chunk, cluster in last_placement.items():
            if chunk[0] != channel_id:
                continue
            total += last_nfs_utilities[cluster] * demand.get(chunk, 0.0)
        utilities.append(total)
    return np.asarray(utilities)


def fig8_storage_utility(
    result: ClosedLoopResult, channel_ids: Sequence[int]
) -> Dict[str, np.ndarray]:
    """Fig 8: evolution of aggregate storage utility for chosen channels.

    Utilities are reported in the paper's unit (u_f times demand expressed
    in multiples of the streaming rate) so magnitudes are comparable
    across scales.
    """
    r = result.scenario.constants.streaming_rate
    out: Dict[str, np.ndarray] = {
        "hours": np.asarray([d.time for d in result.decisions]) / 3600.0
    }
    for channel_id in channel_ids:
        out[f"channel_{channel_id}"] = _storage_utility_series(result, channel_id) / r
    return out


def fig9_vm_utility(
    result: ClosedLoopResult, channel_ids: Sequence[int]
) -> Dict[str, np.ndarray]:
    """Fig 9: evolution of aggregate VM utility for chosen channels."""
    out: Dict[str, np.ndarray] = {
        "hours": np.asarray([d.time for d in result.decisions]) / 3600.0
    }
    for channel_id in channel_ids:
        out[f"channel_{channel_id}"] = np.asarray(
            [d.aggregate_vm_utility(channel_id) for d in result.decisions]
        )
    return out


def fig10_vm_cost(
    cs: ClosedLoopResult, p2p: ClosedLoopResult
) -> Dict[str, object]:
    """Fig 10: overall VM rental cost over time, plus the averages and the
    (negligible) storage cost the paper quotes in the text."""
    cs_series = [(d.time / 3600.0, d.hourly_vm_cost) for d in cs.decisions]
    p2p_series = [(d.time / 3600.0, d.hourly_vm_cost) for d in p2p.decisions]
    return {
        "cs_hours": np.asarray([t for t, _ in cs_series]),
        "cs_cost_per_hour": np.asarray([c for _, c in cs_series]),
        "p2p_hours": np.asarray([t for t, _ in p2p_series]),
        "p2p_cost_per_hour": np.asarray([c for _, c in p2p_series]),
        "cs_average": float(np.mean([c for _, c in cs_series])) if cs_series else 0.0,
        "p2p_average": float(np.mean([c for _, c in p2p_series])) if p2p_series else 0.0,
        "cs_storage_cost_per_day": cs.cost_report.hourly_storage_cost * 24.0,
        "p2p_storage_cost_per_day": p2p.cost_report.hourly_storage_cost * 24.0,
    }


def fig11_quality_by_peer_bandwidth(
    results_by_ratio: Dict[float, ClosedLoopResult],
) -> Dict[float, Dict[str, np.ndarray]]:
    """Fig 11: P2P quality series at each peer-upload/streaming-rate ratio."""
    out: Dict[float, Dict[str, np.ndarray]] = {}
    for ratio, result in sorted(results_by_ratio.items()):
        times, quality = result.simulation.quality.quality_series()
        out[ratio] = {
            "days": times / 86400.0,
            "quality": quality,
            "average": np.asarray(result.average_quality),
        }
    return out

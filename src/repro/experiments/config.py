"""Paper parameters and scenario presets (Section VI-A, Tables II/III).

All constants below are taken verbatim from the paper:

* streaming rate r = 50 KB/s (400 kbps); chunk playback T0 = 5 min, so a
  chunk is 15 MB; videos are 100 minutes = 20 chunks;
* every VM gets R = 10 Mbps;
* 20 channels, Zipf popularity, ~2500 concurrent users;
* Table II virtual clusters and Table III NFS clusters;
* budgets B_M = $100/h, B_S = $1/h; provisioning interval T = 1 h.

:func:`small_scenario` scales the channel count / population down so the
closed loop runs in seconds; :func:`paper_scenario` is the Section VI-A
sizing that ``repro claims`` checks against the paper (EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cloud.cluster import NFSClusterSpec, VirtualClusterSpec
from repro.core.sla import SLATerms
from repro.queueing.capacity import CapacityModel
from repro.queueing.jackson import external_arrival_vector, solve_traffic_equations
from repro.vod.channel import ChannelSpec, default_behaviour_matrix, make_uniform_channels
from repro.workload.pareto import BoundedPareto
from repro.workload.trace import TraceConfig, reject_non_finite

__all__ = [
    "PaperConstants",
    "PAPER",
    "paper_capacity_model",
    "paper_vm_clusters",
    "paper_nfs_clusters",
    "paper_sla_terms",
    "arrival_rate_for_population",
    "ScenarioConfig",
    "small_scenario",
    "paper_scenario",
]


@dataclass(frozen=True)
class PaperConstants:
    """The paper's physical constants."""

    streaming_rate: float = 50_000.0  # r: 50 KB/s = 400 kbps
    chunk_duration: float = 300.0  # T0: 5 minutes
    vm_bandwidth: float = 10e6 / 8.0  # R: 10 Mbps in bytes/second
    video_minutes: float = 100.0
    num_channels: int = 20
    target_population: int = 2500
    vm_budget_per_hour: float = 100.0
    storage_budget_per_hour: float = 1.0
    interval_seconds: float = 3600.0

    def __post_init__(self) -> None:
        reject_non_finite(self)

    @property
    def chunks_per_channel(self) -> int:
        return int(self.video_minutes * 60 / self.chunk_duration)

    @property
    def chunk_size_bytes(self) -> float:
        return self.streaming_rate * self.chunk_duration  # 15 MB


PAPER = PaperConstants()


def paper_capacity_model(constants: PaperConstants = PAPER) -> CapacityModel:
    """The (r, T0, R) capacity model of Section VI-A."""
    return CapacityModel(
        streaming_rate=constants.streaming_rate,
        chunk_duration=constants.chunk_duration,
        vm_bandwidth=constants.vm_bandwidth,
    )


def paper_vm_clusters(
    constants: PaperConstants = PAPER, *, scale: float = 1.0
) -> List[VirtualClusterSpec]:
    """Table II: the three virtual clusters.

    ``scale`` multiplies the per-cluster VM counts for scaled scenarios
    (at least 1 VM per cluster is kept).
    """
    rows = [
        ("standard", 0.6, 0.450, 75, 128),
        ("medium", 0.8, 0.700, 30, 192),
        ("advanced", 1.0, 0.800, 45, 256),
    ]
    return [
        VirtualClusterSpec(
            name=name,
            utility=utility,
            price_per_hour=price,
            max_vms=max(1, int(round(count * scale))),
            vm_bandwidth=constants.vm_bandwidth,
            memory_mb=memory,
            cpu_mhz=500,
            disk_gb=5,
        )
        for name, utility, price, count, memory in rows
    ]


def paper_nfs_clusters(*, scale: float = 1.0) -> List[NFSClusterSpec]:
    """Table III: the two NFS clusters (20 GB each)."""
    gib = float(1024**3)
    rows = [
        ("standard", 0.8, 1.11e-4, 20.0, 7200),
        ("high", 1.0, 2.08e-4, 20.0, 10800),
    ]
    return [
        NFSClusterSpec(
            name=name,
            utility=utility,
            price_per_gb_hour=price,
            capacity_bytes=capacity_gb * gib * max(scale, 1e-6),
            rotation_rpm=rpm,
        )
        for name, utility, price, capacity_gb, rpm in rows
    ]


def paper_sla_terms(constants: PaperConstants = PAPER) -> SLATerms:
    """B_M = $100/h, B_S = $1/h, T = 1 h."""
    return SLATerms(
        vm_budget_per_hour=constants.vm_budget_per_hour,
        storage_budget_per_hour=constants.storage_budget_per_hour,
        interval_seconds=constants.interval_seconds,
    )


def arrival_rate_for_population(
    target_population: float,
    behaviour: np.ndarray,
    chunk_duration: float,
    *,
    alpha: float = 0.8,
) -> float:
    """Total arrival rate giving roughly the target concurrent population.

    In equilibrium, N ~= Lambda * E[downloads per session] * T0 (each queue
    visit lasts about the chunk playback time when capacity is sized per
    Section IV). E[downloads per session] is the sum of visit ratios from
    the traffic equations.
    """
    if target_population <= 0:
        raise ValueError("population must be > 0")
    j = behaviour.shape[0]
    ext = external_arrival_vector(j, 1.0, alpha)
    solution = solve_traffic_equations(behaviour, ext)
    visits_per_session = float(solution.arrival_rates.sum())
    return target_population / (visits_per_session * chunk_duration)


@dataclass(frozen=True)
class ScenarioConfig:
    """One end-to-end experiment scenario."""

    name: str
    constants: PaperConstants
    num_channels: int
    chunks_per_channel: int
    horizon_seconds: float
    target_population: int
    mode: str = "p2p"  # "client-server" or "p2p"
    dt: float = 10.0
    seed: int = 2011
    zipf_exponent: float = 0.8
    alpha: float = 0.8
    cluster_scale: float = 1.0
    peer_upload_mean: Optional[float] = None  # None keeps the paper Pareto

    def __post_init__(self) -> None:
        reject_non_finite(self)
        if self.mode not in ("client-server", "p2p"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.num_channels <= 0 or self.chunks_per_channel <= 0:
            raise ValueError("need at least one channel and one chunk")
        if self.horizon_seconds <= 0:
            raise ValueError("horizon must be > 0")
        if self.target_population <= 0:
            raise ValueError("target population must be > 0")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0 (got {self.seed})")

    # What the sharded engine reads from its spec: a scenario runs as one
    # shard over all its channels, each channel its own slot.
    @property
    def interval_seconds(self) -> float:
        return self.constants.interval_seconds

    @property
    def channel_slots(self) -> int:
        return self.num_channels

    @property
    def effective_shards(self) -> int:
        return 1

    def channel_rates(self) -> np.ndarray:
        """Mean per-channel arrival rates (Zipf by rank), users/second."""
        return self.trace_config().channel_rates()

    def capacity_model(self) -> CapacityModel:
        return paper_capacity_model(self.constants)

    def behaviour_matrix(self) -> np.ndarray:
        return default_behaviour_matrix(self.chunks_per_channel)

    def channels(self) -> List[ChannelSpec]:
        return make_uniform_channels(
            self.num_channels,
            self.chunks_per_channel,
            self.constants.streaming_rate,
            self.constants.chunk_duration,
            behaviour=self.behaviour_matrix(),
        )

    def total_arrival_rate(self) -> float:
        return arrival_rate_for_population(
            self.target_population,
            self.behaviour_matrix(),
            self.constants.chunk_duration,
            alpha=self.alpha,
        )

    def upload_distribution(self) -> BoundedPareto:
        dist = BoundedPareto()
        if self.peer_upload_mean is not None:
            dist = dist.scaled_to_mean(self.peer_upload_mean)
        return dist

    def trace_config(self) -> TraceConfig:
        return TraceConfig(
            num_channels=self.num_channels,
            chunks_per_channel=self.chunks_per_channel,
            horizon_seconds=self.horizon_seconds,
            mean_total_arrival_rate=self.total_arrival_rate(),
            zipf_exponent=self.zipf_exponent,
            alpha=self.alpha,
            seed=self.seed,
            upload_distribution=self.upload_distribution(),
        )

    def vm_clusters(self) -> List[VirtualClusterSpec]:
        return paper_vm_clusters(self.constants, scale=self.cluster_scale)

    def nfs_clusters(self) -> List[NFSClusterSpec]:
        return paper_nfs_clusters(scale=max(1.0, self.cluster_scale))

    def sla_terms(self) -> SLATerms:
        terms = paper_sla_terms(self.constants)
        if self.cluster_scale != 1.0:
            terms = SLATerms(
                vm_budget_per_hour=terms.vm_budget_per_hour * self.cluster_scale,
                storage_budget_per_hour=terms.storage_budget_per_hour,
                interval_seconds=terms.interval_seconds,
            )
        return terms


def small_scenario(
    mode: str = "p2p",
    *,
    name: str = "small",
    horizon_hours: float = 12.0,
    num_channels: int = 4,
    chunks_per_channel: int = 8,
    target_population: int = 240,
    seed: int = 2011,
    peer_upload_mean: Optional[float] = None,
) -> ScenarioConfig:
    """A CI-sized scenario that runs the full closed loop in seconds."""
    return ScenarioConfig(
        name=name,
        constants=PAPER,
        num_channels=num_channels,
        chunks_per_channel=chunks_per_channel,
        horizon_seconds=horizon_hours * 3600.0,
        target_population=target_population,
        mode=mode,
        dt=15.0,
        seed=seed,
        cluster_scale=0.35,
        peer_upload_mean=peer_upload_mean,
    )


def paper_scenario(
    mode: str = "p2p",
    *,
    horizon_hours: float = 100.0,
    seed: int = 2011,
    peer_upload_mean: Optional[float] = None,
) -> ScenarioConfig:
    """The paper-scale scenario (Fig 4: ~100 hours, 20 channels, ~2500
    users). Expect minutes of wall-clock time per run.

    Note on cluster_scale=3: the queueing analysis requires at least one
    VM-equivalent per populated chunk, i.e. >= 400 VMs for the full
    catalogue in client-server mode, while Table II lists only 150 VMs —
    the paper's own Fig 4 likewise reserves ~2200 Mbps (~220 VMs), more
    than Table II can provision. We scale the cluster capacities and the
    VM budget x3 so the paper-scale run is feasible. EXPERIMENTS.md
    (``repro claims``) compares this preset's runs with the paper's
    numbers.
    """
    return ScenarioConfig(
        name="paper",
        constants=PAPER,
        num_channels=PAPER.num_channels,
        chunks_per_channel=PAPER.chunks_per_channel,
        horizon_seconds=horizon_hours * 3600.0,
        target_population=PAPER.target_population,
        mode=mode,
        dt=30.0,
        seed=seed,
        cluster_scale=3.0,
        peer_upload_mean=peer_upload_mean,
    )

"""Catalog workloads: hundreds of channels under one provisioning loop.

The paper provisions for a *catalog* of channels whose aggregate demand
the cloud must track.  A :class:`CatalogConfig` describes such a catalog:
``num_channels`` videos with Zipf popularity ranks, each channel with its
own arrival process — the shared diurnal pattern shifted by a per-channel
phase offset, optionally hit by one *correlated* flash-crowd event (a
global surge at the same wall-clock time across a random subset of
channels, the "everyone tunes in" case that stresses the provisioner
hardest).

Every stochastic quantity of channel ``c`` is drawn from a stream keyed
by the stable spawn key ``("catalog", ..., "channel-<c>")``, so a
channel's shape parameters and its full arrival trace are byte-identical
no matter how the catalog is partitioned into shards or how many worker
processes execute it (the determinism contract of
:mod:`repro.sim.shard`).

Arrivals are sampled by the one Lewis–Shedler thinning sampler,
:func:`repro.workload.arrivals.nonhomogeneous_poisson_times` (one
batched candidate draw + one batched accept draw per channel).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: The ``catalog-*`` scenario family's shape presets, shared by the
#: registry, the ``repro catalog`` CLI and the perf harness.
#:
#: ``zipf``
#:     Stationary popularity skew only: every channel follows the shared
#:     diurnal pattern in phase.
#: ``diurnal``
#:     Per-channel phase offsets (±9 h) — a geographically spread
#:     audience whose peaks do not line up, flattening aggregate demand.
#: ``flash``
#:     A correlated flash crowd: ~30% of channels surge together one
#:     hour in (5x at the peak), the hardest case for the last-interval
#:     predictor.
#:
#: Deliberately defined BEFORE the repro imports below: the experiment
#: layer imports this module while itself being imported by the config
#: import that follows, and the registry needs this constant to already
#: exist at that point (no other attribute of this module may be
#: imported at another module's top level).
CATALOG_VARIANTS = {
    "zipf": {},
    "diurnal": {"phase_jitter_hours": 9.0},
    "flash": {
        "flash_fraction": 0.3,
        "flash_hour": 1.0,
        "flash_width_hours": 0.5,
        "flash_amplitude": 5.0,
    },
}

#: Named geo topologies for the multi-region catalog engine (the
#: ``catalog-geo-*`` scenarios and ``repro catalog --topology``).  Each
#: preset fixes the viewer/serving regions, their time zones (diurnal
#: peaks shift accordingly), per-region VM price factors on the Table II
#: clusters, and the pairwise latency / egress pricing the geo allocator
#: optimizes against.  Defined before the repro imports below for the
#: same import-cycle reason as CATALOG_VARIANTS.
GEO_TOPOLOGIES = {
    "us-eu-ap": {
        "regions": ("us-east", "eu-west", "ap-south"),
        "utc_offset_hours": (-5.0, 1.0, 5.5),
        "price_factors": (1.00, 1.10, 0.85),
        "latency_ms": {
            ("us-east", "eu-west"): 80.0,
            ("us-east", "ap-south"): 220.0,
            ("eu-west", "ap-south"): 150.0,
        },
        "egress_price_per_gb": {
            ("us-east", "eu-west"): 0.02,
            ("us-east", "ap-south"): 0.05,
            ("eu-west", "ap-south"): 0.04,
        },
        "latency_halflife_ms": 200.0,
    },
    "us-eu": {
        "regions": ("us-east", "eu-west"),
        "utc_offset_hours": (-5.0, 1.0),
        "price_factors": (1.00, 1.10),
        "latency_ms": {("us-east", "eu-west"): 80.0},
        "egress_price_per_gb": {("us-east", "eu-west"): 0.02},
        "latency_halflife_ms": 200.0,
    },
}

from repro.cloud.cluster import NFSClusterSpec, VirtualClusterSpec
from repro.core.sla import SLATerms
from repro.experiments.config import (
    PAPER,
    PaperConstants,
    paper_capacity_model,
    paper_nfs_clusters,
    paper_sla_terms,
    paper_vm_clusters,
)
from repro.geo.region import GeoTopology, RegionSpec
from repro.queueing.capacity import CapacityModel
from repro.queueing.jackson import external_arrival_vector, solve_traffic_equations
from repro.sim.rng import make_rng
from repro.vod.channel import ChannelSpec, default_behaviour_matrix, make_uniform_channels
from repro.workload.arrivals import nonhomogeneous_poisson_times
from repro.workload.diurnal import DiurnalPattern
from repro.workload.pareto import BoundedPareto
from repro.workload.trace import ShardTraceArrays, reject_non_finite
from repro.workload.zipf import assign_channel_rates

__all__ = [
    "ChannelShape",
    "CatalogConfig",
    "GeoCatalogConfig",
    "CATALOG_VARIANTS",
    "GEO_TOPOLOGIES",
    "catalog_config",
    "geo_catalog_config",
    "channel_shapes",
    "channel_sessions",
    "shard_channel_ids",
    "ShardTraceArrays",
    "build_shard_trace_arrays",
]


@dataclass(frozen=True)
class ChannelShape:
    """Per-channel arrival-process parameters, derived deterministically.

    Attributes
    ----------
    channel_id:
        Global channel id (== popularity rank, 0 = most popular).
    mean_rate:
        The channel's Zipf share of the catalog arrival rate, users/s.
    phase_seconds:
        Diurnal phase offset applied to this channel's daily pattern.
    flash_amplitude:
        Extra rate multiplier at the flash-crowd peak (0 = not hit).
    """

    channel_id: int
    mean_rate: float
    phase_seconds: float
    flash_amplitude: float


@dataclass(frozen=True)
class CatalogConfig:
    """A multi-channel catalog scenario for the sharded engine.

    All fields are plain scalars so a config pickles cheaply across the
    shard worker boundary; derived objects (channels, behaviour matrix,
    cluster specs) are rebuilt on demand from the fields.

    Attributes
    ----------
    mean_arrival_rate:
        Aggregate external arrival rate across the whole catalog,
        users/second, before diurnal/flash modulation (both have unit
        mean / are additive surges, so this is also roughly the realized
        mean baseline rate).
    num_shards:
        Fixed shard count the catalog is partitioned into.  This is part
        of the scenario identity — results are byte-identical for any
        worker count (``jobs``) given the same shard count.
    interval_seconds:
        Provisioning epoch T: shards advance in lock-step epochs of this
        length and the controller re-provisions between epochs.
    phase_jitter_hours:
        Per-channel diurnal phase offsets are uniform in ±jitter.
    flash_fraction / flash_hour / flash_width_hours / flash_amplitude:
        The correlated flash crowd: each channel is hit independently
        with probability ``flash_fraction``; hit channels surge together
        around ``flash_hour`` (Gaussian bump of the given width), with
        per-channel amplitude jittered in [0.75, 1.25] x the base value.
    cluster_scale:
        Table II/III capacity (and VM budget) multiplier; ``None``
        auto-sizes it from the catalog's expected peak demand.
    """

    name: str = "catalog"
    num_channels: int = 24
    chunks_per_channel: int = 8
    horizon_seconds: float = 2 * 3600.0
    mean_arrival_rate: float = 1.0
    mode: str = "client-server"
    dt: float = 30.0
    seed: int = 2011
    zipf_exponent: float = 0.8
    alpha: float = 0.8
    interval_seconds: float = 900.0
    num_shards: int = 6
    phase_jitter_hours: float = 0.0
    flash_fraction: float = 0.0
    flash_hour: float = 1.0
    flash_width_hours: float = 0.5
    flash_amplitude: float = 4.0
    cluster_scale: Optional[float] = None
    constants: PaperConstants = PAPER

    def __post_init__(self) -> None:
        reject_non_finite(self)
        if self.mode not in ("client-server", "p2p"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.num_channels <= 0 or self.chunks_per_channel <= 0:
            raise ValueError("need at least one channel and one chunk")
        if self.horizon_seconds <= 0 or self.dt <= 0:
            raise ValueError("horizon and dt must be > 0")
        if self.mean_arrival_rate < 0:
            raise ValueError("arrival rate must be >= 0")
        if self.interval_seconds <= 0:
            raise ValueError("interval must be > 0")
        if self.num_shards <= 0:
            raise ValueError("need at least one shard")
        if not 0.0 <= self.flash_fraction <= 1.0:
            raise ValueError("flash fraction must be in [0, 1]")
        if self.flash_width_hours <= 0:
            raise ValueError("flash width must be > 0")
        if self.flash_amplitude < 0:
            raise ValueError("flash amplitude must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0 (got {self.seed})")

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    @property
    def channel_slots(self) -> int:
        """Size of the engine's channel-id space.

        The single-region catalog simulates one instance per channel;
        the geo catalog simulates one instance per (region, channel)
        pair and overrides this.  All engine-side partitioning, tracker
        sizing and capacity broadcasting runs over slots.
        """
        return self.num_channels

    @property
    def effective_shards(self) -> int:
        """Shard count clamped so every shard owns >= 1 channel slot."""
        return min(self.num_shards, self.channel_slots)

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

    def capacity_model(self) -> CapacityModel:
        return paper_capacity_model(self.constants)

    def channel_rates(self) -> np.ndarray:
        """Mean per-channel arrival rates (Zipf by rank), users/second."""
        return assign_channel_rates(
            self.mean_arrival_rate, self.num_channels, self.zipf_exponent
        )

    def upload_distribution(self) -> BoundedPareto:
        return BoundedPareto()

    def visits_per_session(self) -> float:
        """Expected chunk downloads per session under the behaviour model."""
        behaviour = self.behaviour_matrix()
        ext = external_arrival_vector(behaviour.shape[0], 1.0, self.alpha)
        solution = solve_traffic_equations(behaviour, ext)
        return float(solution.arrival_rates.sum())

    def expected_peak_population(self) -> float:
        """Rough aggregate concurrency bound used for cluster auto-sizing.

        Population ramps at the arrival rate until a session length (or
        the horizon) has passed; the flash crowd piles its surge on top.
        """
        session = self.visits_per_session() * self.constants.chunk_duration
        base = self.mean_arrival_rate * min(self.horizon_seconds, session)
        surge = 1.0 + self.flash_fraction * self.flash_amplitude * 0.5
        return base * surge

    def _resolved_cluster_scale(self) -> float:
        if self.cluster_scale is not None:
            return float(self.cluster_scale)
        demand = self.expected_peak_population() * self.constants.streaming_rate
        table_bw = sum(
            spec.max_vms * spec.vm_bandwidth for spec in paper_vm_clusters(self.constants)
        )
        return max(1.0, 1.6 * demand / table_bw)

    def vm_clusters(self) -> List[VirtualClusterSpec]:
        return paper_vm_clusters(self.constants, scale=self._resolved_cluster_scale())

    def nfs_clusters(self) -> List[NFSClusterSpec]:
        catalog_bytes = (
            self.num_channels
            * self.chunks_per_channel
            * self.constants.chunk_size_bytes
        )
        base = paper_nfs_clusters()
        total = sum(spec.capacity_bytes for spec in base)
        scale = max(
            self._resolved_cluster_scale(), 1.2 * catalog_bytes / total, 1.0
        )
        return paper_nfs_clusters(scale=scale)

    def sla_terms(self) -> SLATerms:
        terms = paper_sla_terms(self.constants)
        scale = self._resolved_cluster_scale()
        return SLATerms(
            vm_budget_per_hour=terms.vm_budget_per_hour * scale,
            storage_budget_per_hour=terms.storage_budget_per_hour * scale,
            interval_seconds=self.interval_seconds,
        )


def catalog_config(
    *,
    seed: int = 2011,
    mode: str = "client-server",
    num_channels: int = 24,
    chunks_per_channel: int = 8,
    horizon_hours: float = 2.0,
    arrival_rate: float = 1.0,
    target_population: Optional[int] = None,
    dt: float = 30.0,
    interval_minutes: float = 15.0,
    num_shards: int = 6,
    phase_jitter_hours: float = 0.0,
    flash_fraction: float = 0.0,
    flash_hour: float = 1.0,
    flash_width_hours: float = 0.5,
    flash_amplitude: float = 4.0,
    zipf_exponent: float = 0.8,
    cluster_scale: Optional[float] = None,
    name: str = "catalog",
) -> CatalogConfig:
    """The one :class:`CatalogConfig` factory behind the ``catalog-*``
    scenarios and the ``repro catalog`` CLI.

    ``target_population`` optionally overrides ``arrival_rate`` with the
    rate whose steady-state aggregate concurrency is the target (the same
    Little's-law sizing the closed-loop scenarios use).
    """
    config = CatalogConfig(
        name=name,
        num_channels=int(num_channels),
        chunks_per_channel=int(chunks_per_channel),
        horizon_seconds=float(horizon_hours) * 3600.0,
        mean_arrival_rate=float(arrival_rate),
        mode=mode,
        dt=float(dt),
        seed=int(seed),
        zipf_exponent=float(zipf_exponent),
        interval_seconds=float(interval_minutes) * 60.0,
        num_shards=int(num_shards),
        phase_jitter_hours=float(phase_jitter_hours),
        flash_fraction=float(flash_fraction),
        flash_hour=float(flash_hour),
        flash_width_hours=float(flash_width_hours),
        flash_amplitude=float(flash_amplitude),
        cluster_scale=cluster_scale,
    )
    if target_population is not None:
        session = config.visits_per_session() * config.constants.chunk_duration
        config = replace(
            config, mean_arrival_rate=float(target_population) / session
        )
    return config


# ----------------------------------------------------------------------
# The geo catalog: a viewer-region dimension on the slot space
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GeoCatalogConfig(CatalogConfig):
    """A catalog whose viewers are spread over the regions of a
    :data:`GEO_TOPOLOGIES` preset.

    Every (region, channel) pair becomes one engine *slot* — its own
    arrival trace, tracker row and capacity array — with slot id
    ``region_index * num_channels + channel``, so sorting by slot id is
    exactly the fixed region-then-channel merge order the determinism
    contract requires.  A channel's catalog-wide Zipf rate is split
    across regions by weights drawn from the channel's stable spawn key
    (``seed/"geo"/"split"/"channel-<c>"``): neither the shard partition
    nor the worker count perturbs any split, so traces stay byte-stable.
    Each region's diurnal pattern is shifted by its UTC offset on top of
    the per-channel phase jitter; a flash crowd stays a *global* event —
    a hit channel surges in every region at the same wall-clock time.

    Attributes
    ----------
    topology:
        Key into :data:`GEO_TOPOLOGIES`.
    exact:
        Solve each epoch's multi-region VM configuration with the exact
        LP (:func:`repro.geo.allocation.lp_geo_allocation`) instead of
        the paper-style greedy.  The LP has one variable per (cell,
        cluster) — fine for CI-sized catalogs, slow at acceptance
        scale.
    """

    topology: str = "us-eu-ap"
    exact: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.topology not in GEO_TOPOLOGIES:
            raise ValueError(
                f"unknown geo topology {self.topology!r} "
                f"(presets: {', '.join(sorted(GEO_TOPOLOGIES))})"
            )

    # -- slot space ----------------------------------------------------
    @property
    def preset(self) -> dict:
        return GEO_TOPOLOGIES[self.topology]

    @property
    def region_names(self) -> Tuple[str, ...]:
        return tuple(self.preset["regions"])

    @property
    def num_regions(self) -> int:
        return len(self.region_names)

    @property
    def channel_slots(self) -> int:
        return self.num_regions * self.num_channels

    def slot_id(self, region_index: int, channel: int) -> int:
        return region_index * self.num_channels + channel

    def slot_region_index(self, slot: int) -> int:
        return slot // self.num_channels

    def slot_region(self, slot: int) -> str:
        return self.region_names[self.slot_region_index(slot)]

    def slot_channel(self, slot: int) -> int:
        return slot % self.num_channels

    # -- demand structure ----------------------------------------------
    def catalog_channel_rates(self) -> np.ndarray:
        """Catalog-wide per-channel Zipf rates (before the region split)."""
        return assign_channel_rates(
            self.mean_arrival_rate, self.num_channels, self.zipf_exponent
        )

    def region_splits(self) -> np.ndarray:
        """``(num_regions, num_channels)`` demand weights, columns sum 1
        (read-only: the table is drawn once per seed and shape, and both
        the bootstrap's rates and the shards' shapes read it).

        Channel ``c``'s split is drawn from its own stream (stable spawn
        key), jittered around uniform so regional audiences differ per
        channel — the imbalance the cross-region allocator exists for.
        """
        return _region_splits(self.seed, self.num_regions, self.num_channels)

    def channel_rates(self) -> np.ndarray:
        """Mean per-*slot* arrival rates, slot-id order, users/second."""
        splits = self.region_splits()
        return (splits * self.catalog_channel_rates()[None, :]).reshape(-1)

    def channels(self) -> List[ChannelSpec]:
        return make_uniform_channels(
            self.channel_slots,
            self.chunks_per_channel,
            self.constants.streaming_rate,
            self.constants.chunk_duration,
            behaviour=self.behaviour_matrix(),
        )

    # -- cloud substrate -----------------------------------------------
    def region_cluster_scale(self) -> float:
        """Table II multiplier per region: the catalog-wide auto-size
        split evenly, so regional demand imbalance *requires* the
        cross-region spill the geo allocator provides."""
        return max(1.0, self._resolved_cluster_scale() / self.num_regions)

    def geo_topology(self) -> GeoTopology:
        """The region graph: per-region Table II clusters at the preset's
        price factors, plus the priced cross links.  Cluster names are
        prefixed ``<region>:<cluster>``, the broker's and the meter's
        one flat unique namespace, so a plan's cluster is rented under
        its own name."""
        preset = self.preset
        scale = self.region_cluster_scale()
        regions = []
        for name, factor in zip(preset["regions"], preset["price_factors"]):
            clusters = tuple(
                replace(
                    spec,
                    name=f"{name}:{spec.name}",
                    price_per_hour=spec.price_per_hour * factor,
                )
                for spec in paper_vm_clusters(self.constants, scale=scale)
            )
            regions.append(RegionSpec(name, clusters))
        return GeoTopology(
            regions,
            latency_ms=dict(preset["latency_ms"]),
            egress_price_per_gb=dict(preset["egress_price_per_gb"]),
            latency_halflife_ms=float(preset["latency_halflife_ms"]),
        )

    def vm_clusters(self) -> List[VirtualClusterSpec]:
        """The facility/billing view: every region's clusters, in region
        order."""
        topology = self.geo_topology()
        return [
            spec
            for region_name in self.region_names
            for spec in topology.regions[region_name].clusters
        ]


@lru_cache(maxsize=8)
def _region_splits(seed: int, num_regions: int, num_channels: int) -> np.ndarray:
    weights = np.empty((num_regions, num_channels))
    for c in range(num_channels):
        rng = make_rng(seed, "geo", "split", f"channel-{c}")
        draw = 0.5 + rng.random(num_regions)
        weights[:, c] = draw / draw.sum()
    weights.flags.writeable = False
    return weights


def geo_catalog_config(
    *,
    topology: str = "us-eu-ap",
    exact: bool = False,
    seed: int = 2011,
    mode: str = "client-server",
    num_channels: int = 24,
    chunks_per_channel: int = 8,
    horizon_hours: float = 2.0,
    arrival_rate: float = 1.0,
    target_population: Optional[int] = None,
    dt: float = 30.0,
    interval_minutes: float = 15.0,
    num_shards: int = 6,
    phase_jitter_hours: float = 0.0,
    flash_fraction: float = 0.0,
    flash_hour: float = 1.0,
    flash_width_hours: float = 0.5,
    flash_amplitude: float = 4.0,
    zipf_exponent: float = 0.8,
    cluster_scale: Optional[float] = None,
    name: str = "catalog-geo",
) -> GeoCatalogConfig:
    """The :class:`GeoCatalogConfig` factory behind the ``catalog-geo-*``
    scenarios and ``repro catalog --topology`` / ``repro geo``."""
    config = GeoCatalogConfig(
        name=name,
        topology=topology,
        exact=bool(exact),
        num_channels=int(num_channels),
        chunks_per_channel=int(chunks_per_channel),
        horizon_seconds=float(horizon_hours) * 3600.0,
        mean_arrival_rate=float(arrival_rate),
        mode=mode,
        dt=float(dt),
        seed=int(seed),
        zipf_exponent=float(zipf_exponent),
        interval_seconds=float(interval_minutes) * 60.0,
        num_shards=int(num_shards),
        phase_jitter_hours=float(phase_jitter_hours),
        flash_fraction=float(flash_fraction),
        flash_hour=float(flash_hour),
        flash_width_hours=float(flash_width_hours),
        flash_amplitude=float(flash_amplitude),
        cluster_scale=cluster_scale,
    )
    if target_population is not None:
        session = config.visits_per_session() * config.constants.chunk_duration
        config = replace(
            config, mean_arrival_rate=float(target_population) / session
        )
    return config


# ----------------------------------------------------------------------
# Per-channel shapes and traces (stable spawn keys)
# ----------------------------------------------------------------------

def _channel_shape(config: CatalogConfig, channel_id: int,
                   mean_rate: float) -> ChannelShape:
    """Draw one channel's shape parameters from its dedicated stream.

    The stream key depends only on (seed, channel id): neither the shard
    partition nor the worker count perturbs any channel's draws.
    """
    rng = make_rng(config.seed, "catalog", "shape", f"channel-{channel_id}")
    phase = config.phase_jitter_hours * (2.0 * rng.random() - 1.0) * 3600.0
    hit = rng.random() < config.flash_fraction
    amplitude = (
        config.flash_amplitude * (0.75 + 0.5 * rng.random()) if hit else 0.0
    )
    return ChannelShape(
        channel_id=channel_id,
        mean_rate=float(mean_rate),
        phase_seconds=float(phase),
        flash_amplitude=float(amplitude),
    )


def channel_shapes(config: CatalogConfig) -> List[ChannelShape]:
    """Every channel slot's arrival-process shape, in slot-id order.

    For a plain catalog, slots are channels and each shape is drawn from
    the channel's own stream.  For a :class:`GeoCatalogConfig`, the
    *channel-level* draws (phase jitter, flash hit/amplitude) come from
    the same per-channel streams — so a channel behaves identically in
    every region — and are then expanded per region: rate × region
    split, phase + region UTC offset.
    """
    if isinstance(config, GeoCatalogConfig):
        base = [
            _channel_shape(config, channel, rate)
            for channel, rate in enumerate(config.catalog_channel_rates())
        ]
        splits = config.region_splits()
        offsets = config.preset["utc_offset_hours"]
        return [
            ChannelShape(
                channel_id=config.slot_id(r, c),
                mean_rate=float(shape.mean_rate * splits[r, c]),
                phase_seconds=float(
                    shape.phase_seconds + offsets[r] * 3600.0
                ),
                flash_amplitude=shape.flash_amplitude,
            )
            for r in range(config.num_regions)
            for c, shape in enumerate(base)
        ]
    rates = config.channel_rates()
    return [
        _channel_shape(config, channel_id, rate)
        for channel_id, rate in enumerate(rates)
    ]


def _flash_factor(config: CatalogConfig, shape: ChannelShape,
                  times: np.ndarray) -> np.ndarray:
    """Multiplier 1 + A * exp(-(t - t_flash)^2 / 2 sigma^2) (one event)."""
    center = config.flash_hour * 3600.0
    sigma = config.flash_width_hours * 3600.0
    return 1.0 + shape.flash_amplitude * np.exp(
        -((times - center) ** 2) / (2.0 * sigma**2)
    )


def channel_sessions(
    config: CatalogConfig, shape: ChannelShape,
    diurnal: Optional[DiurnalPattern] = None,
    uploads: Optional[BoundedPareto] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One channel's arrivals: (times, start_chunks, upload_capacities).

    Thinning against the channel's rate ceiling, then the alpha-split
    start chunks and Pareto uploads, all from the channel's own trace
    stream (key: seed + "catalog/trace/channel-<c>").  ``diurnal`` and
    ``uploads`` let a shard build both once for all its channels.

    The thinning rate is evaluated per channel, on that channel's
    candidates only: one batch over a whole shard's candidates measured
    slower, its temporaries no longer fitting in cache.  A channel the
    flash crowd misses skips the flash factor, whose value there is 1.0
    (an exact ``x * 1.0 == x``).
    """
    diurnal = diurnal or DiurnalPattern()
    rng = make_rng(config.seed, "catalog", "trace",
                   f"channel-{shape.channel_id}")
    if shape.mean_rate <= 0:
        empty = np.empty(0)
        return empty, empty.astype(np.int64), empty.copy()
    ceiling = (
        shape.mean_rate
        * diurnal.peak_factor()
        * (1.0 + shape.flash_amplitude)
        * 1.001
    )

    def rate(t: np.ndarray) -> np.ndarray:
        base = shape.mean_rate * diurnal.factors(t + shape.phase_seconds)
        if shape.flash_amplitude <= 0:
            return base
        return base * _flash_factor(config, shape, t)

    times = nonhomogeneous_poisson_times(
        rng, rate, config.horizon_seconds, rate_ceiling=ceiling,
    )
    n = times.size
    j = config.chunks_per_channel
    from_start = rng.random(n) < config.alpha
    if j > 1:
        jumps = rng.integers(1, j, size=n)
    else:
        jumps = np.zeros(n, dtype=np.int64)
    starts = np.where(from_start, 0, jumps).astype(np.int64)
    uploads = uploads or config.upload_distribution()
    return times, starts, uploads.sample(rng, n)


def shard_channel_ids(config: CatalogConfig, shard_index: int) -> List[int]:
    """The channel slots owned by one shard (round-robin over slot id).

    Round-robin balances load: slot ``s`` goes to shard
    ``s % effective_shards``, so every shard gets a slice of both head
    and tail popularity (and, in the geo catalog, of every region —
    slots are region-major, so consecutive ids cycle through channels
    within a region).  The partition depends only on the config, never
    on the worker count.
    """
    shards = config.effective_shards
    if not 0 <= shard_index < shards:
        raise ValueError(
            f"shard index {shard_index} out of range [0, {shards})"
        )
    return [
        c for c in range(config.channel_slots) if c % shards == shard_index
    ]


def build_shard_trace_arrays(
    config: CatalogConfig, channel_ids: Sequence[int],
    shapes: Optional[Sequence[ChannelShape]] = None,
) -> ShardTraceArrays:
    """Assemble one shard's trace as sorted parallel arrays.

    Channel streams are sampled independently (stable keys), then merged
    into one trace sorted by (arrival time, channel id).
    """
    diurnal = DiurnalPattern()
    uploads = config.upload_distribution()
    if shapes is None:
        all_shapes = channel_shapes(config)
        shapes = [all_shapes[c] for c in channel_ids]
    return ShardTraceArrays.merge([
        (shape.channel_id, *channel_sessions(config, shape, diurnal, uploads))
        for shape in shapes
    ])

"""Scenario registry: every experiment the repo can run, by name.

Each paper figure, ablation and extension is registered here as a
:class:`ScenarioSpec` — a factory that builds a
:class:`~repro.experiments.config.ScenarioConfig` (or runs an analytic
computation directly) plus a default parameter grid.  The registry is the
single execution path shared by

* the sweep orchestrator (:mod:`repro.experiments.sweep`, CLI
  ``repro sweep <name>``),
* the CLI scenario browser (``repro scenarios``), and
* the paper's claims ledger (:mod:`repro.experiments.claims`, CLI
  ``repro claims``), which runs ``paper-closed-loop`` and ``fig11``
  cells through :func:`get`.

A *cell* is one (scenario, grid-point, seed) triple; ``run_cell`` executes
it and returns a flat JSON-serializable metrics dict, which the sweep
layer hashes and caches.  Registering a new workload means writing one
``register(ScenarioSpec(...))`` call — every later PR adds scenarios here
rather than new hand-rolled scripts.
"""

from __future__ import annotations

import difflib
import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.cluster import VirtualClusterSpec
from repro.core.controller import controller_names
from repro.core.predictor import (
    ArrivalRatePredictor,
    EWMAPredictor,
    LastIntervalPredictor,
    MovingAveragePredictor,
    SeasonalPredictor,
)
from repro.experiments.config import (
    PAPER,
    ScenarioConfig,
    paper_capacity_model,
    paper_scenario,
    small_scenario,
)
from repro.experiments.reporting import mbps
from repro.experiments.runner import ClosedLoopResult
from repro.geo.allocation import GeoVMProblem, greedy_geo_allocation, lp_geo_allocation
from repro.geo.region import GeoTopology, RegionSpec
from repro.queueing.capacity import CapacityModel, solve_channel_capacity
from repro.sim.rng import make_rng
from repro.queueing.transitions import mixture_matrix, sequential_matrix, uniform_jump_matrix
from repro.vod.channel import default_behaviour_matrix
# Only CATALOG_VARIANTS and GEO_TOPOLOGIES may be imported from
# repro.workload.catalog at module level (they are defined before that
# module's own experiment-layer imports); everything else from the
# catalog/shard layer is imported lazily inside _run_catalog_cell to
# keep the import graph acyclic.
from repro.workload.catalog import CATALOG_VARIANTS, GEO_TOPOLOGIES
from repro.workload.diurnal import DiurnalPattern

__all__ = [
    "ScenarioSpec",
    "UnknownScenarioError",
    "register",
    "get",
    "names",
    "specs",
    "make_predictor",
    "summarize_closed_loop",
    "closed_loop_config",
    "heuristic_demands",
    "chunk_size_behaviour",
    "chunk_count_for",
    "geo_topology",
    "geo_demand_at",
    "PREDICTORS",
    "GEO_REGION_OFFSETS",
]


class UnknownScenarioError(KeyError):
    """Raised for a scenario name that is not registered."""

    def __init__(self, name: str, known: Sequence[str]):
        suggestions = difflib.get_close_matches(name, known, n=3, cutoff=0.4)
        hint = f"; did you mean {', '.join(suggestions)}?" if suggestions else ""
        super().__init__(
            f"unknown scenario {name!r}{hint} "
            f"(run `repro scenarios` for the full list)"
        )
        self.name = name
        self.suggestions = suggestions


@dataclass(frozen=True)
class ScenarioSpec:
    """One named experiment: how to build it, run it, and sweep it.

    Parameters
    ----------
    name:
        Registry key (``repro sweep <name>``).
    title:
        One-line human description.
    paper_ref:
        The paper figure/section/claim this reproduces.
    grid:
        Default sweep grid: parameter name -> tuple of candidate values.
        Values must be JSON-serializable (the sweep hashes them).
    defaults:
        Non-grid parameters with their default values; CLI ``--set`` and
        test overrides replace them per sweep.
    build:
        ``build(seed=..., **params) -> ScenarioConfig`` for closed-loop
        scenarios; ``None`` for analytic scenarios that only define
        ``run``.
    run:
        ``run(seed=..., **params) -> dict`` returning flat metrics.
        When ``None``, the default is the closed-loop path:
        ``summarize_closed_loop(open_run(build(...)).result())``.
    expected_seconds:
        Rough wall-clock per cell at the default (CI-sized) scale — shown
        by ``repro scenarios`` and documented in docs/scenarios.md.
    tags:
        Free-form labels (``figure``, ``ablation``, ``extension``).
    """

    name: str
    title: str
    paper_ref: str
    grid: Mapping[str, Tuple] = field(default_factory=dict)
    defaults: Mapping[str, object] = field(default_factory=dict)
    build: Optional[Callable[..., ScenarioConfig]] = None
    run: Optional[Callable[..., Dict[str, float]]] = None
    expected_seconds: float = 1.0
    tags: Tuple[str, ...] = ()

    def full_params(self, params: Optional[Mapping] = None) -> Dict[str, object]:
        """Defaults + first grid value for every parameter not given."""
        merged: Dict[str, object] = {k: v[0] for k, v in self.grid.items()}
        merged.update(self.defaults)
        merged.update(params or {})
        return merged

    def config(self, seed: int = 2011, **params) -> ScenarioConfig:
        """Build the scenario's :class:`ScenarioConfig` (closed-loop only)."""
        if self.build is None:
            raise ValueError(
                f"scenario {self.name!r} is analytic and has no ScenarioConfig"
            )
        return self.build(seed=seed, **self.full_params(params))

    def run_cell(self, params: Optional[Mapping] = None, seed: int = 2011
                 ) -> Dict[str, float]:
        """Execute one cell and return its flat metrics dict.

        Closed-loop cells execute through :mod:`repro.api` (imported
        lazily — the api sits above the experiment layer), whose
        monolithic ``result()`` is byte-identical to the historical
        runner's.
        """
        full = self.full_params(params)
        if self.run is not None:
            return self.run(seed=seed, **full)
        from repro.api import open_run

        with open_run(self.build(seed=seed, **full)) as run:
            return summarize_closed_loop(run.result())

    def grid_points(
        self, overrides: Optional[Mapping[str, object]] = None
    ) -> List[Dict[str, object]]:
        """Cartesian product of the grid, with overrides applied.

        An override whose value is a list/tuple replaces that axis of the
        grid; a scalar pins the parameter to one value (also allowed for
        non-grid ``defaults`` parameters, which adds them to every point).
        """
        axes: Dict[str, Tuple] = {k: tuple(v) for k, v in self.grid.items()}
        pinned: Dict[str, object] = dict(self.defaults)
        for key, value in (overrides or {}).items():
            if key not in axes and key not in pinned:
                known = sorted(set(axes) | set(pinned))
                raise KeyError(
                    f"scenario {self.name!r} has no parameter {key!r} "
                    f"(knobs: {', '.join(known) or 'none'})"
                )
            if isinstance(value, (list, tuple)):
                axes[key] = tuple(value)
                pinned.pop(key, None)
            elif key in axes:
                axes[key] = (value,)
            else:
                pinned[key] = value
        keys = sorted(axes)
        points = []
        for combo in itertools.product(*(axes[k] for k in keys)):
            point = dict(pinned)
            point.update(dict(zip(keys, combo)))
            points.append(point)
        return points


_REGISTRY: Dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a scenario to the registry (name must be unique)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ScenarioSpec:
    """Look a scenario up by name, with did-you-mean on failure."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownScenarioError(name, list(_REGISTRY)) from None


def names() -> List[str]:
    return sorted(_REGISTRY)


def specs() -> List[ScenarioSpec]:
    return [_REGISTRY[n] for n in sorted(_REGISTRY)]


# ----------------------------------------------------------------------
# Shared building blocks.
# ----------------------------------------------------------------------

PREDICTORS: Dict[str, Callable[[], ArrivalRatePredictor]] = {
    "last-interval": LastIntervalPredictor,
    "moving-average": lambda: MovingAveragePredictor(window=3),
    "ewma": lambda: EWMAPredictor(beta=0.5),
    "seasonal": lambda: SeasonalPredictor(period=24, blend=0.5),
}


def make_predictor(key: str) -> ArrivalRatePredictor:
    """Instantiate a predictor by its registry key (ablation knob)."""
    try:
        factory = PREDICTORS[key]
    except KeyError:
        raise KeyError(
            f"unknown predictor {key!r} (choices: {', '.join(PREDICTORS)})"
        ) from None
    return factory()


def summarize_closed_loop(result: ClosedLoopResult) -> Dict[str, float]:
    """Flatten a closed-loop run into the sweep's JSON metrics schema.

    Every value is a plain int/float so artifacts are directly
    JSON-serializable and comparable across runs (see docs/scenarios.md
    for the field glossary).
    """
    sim = result.simulation
    reserved = np.asarray(result.provisioned_mbps(), dtype=float)
    used = np.asarray(result.used_mbps(), dtype=float)
    peer = np.asarray(result.peer_series, dtype=float) * 8.0 / 1e6
    shortfalls = sim.bandwidth.shortfall
    coverage = float(np.mean(reserved >= used)) if reserved.size else 0.0
    return {
        "arrivals": int(sim.arrivals),
        "final_population": int(sim.final_population),
        "average_quality": float(result.average_quality),
        "mean_reserved_mbps": float(reserved.mean()) if reserved.size else 0.0,
        "mean_used_mbps": float(used.mean()) if used.size else 0.0,
        "mean_peer_mbps": float(peer.mean()) if peer.size else 0.0,
        "coverage_fraction": coverage,
        "mean_shortfall_mbps": (
            float(shortfalls.mean()) * 8.0 / 1e6 if shortfalls.size else 0.0
        ),
        "vm_cost_per_hour": float(result.mean_vm_cost_per_hour),
        "storage_cost_per_day": float(
            result.cost_report.hourly_storage_cost * 24.0
        ),
        "intervals": int(len(result.interval_times)),
        # Run-shape metrics (sweep artifact schema 2): how much work the
        # cell did and how bursty it was.
        "steps": int(sim.steps),
        "peak_step_events": int(sim.peak_step_events),
        "peak_population": (
            int(max(result.population_series))
            if result.population_series else 0
        ),
    }


def closed_loop_config(
    *,
    seed: int = 2011,
    mode: str = "p2p",
    horizon_hours: float = 12.0,
    scale: str = "small",
    upload_ratio: Optional[float] = None,
    num_channels: Optional[int] = None,
    chunks_per_channel: Optional[int] = None,
    target_population: Optional[int] = None,
) -> ScenarioConfig:
    """The one closed-loop ScenarioConfig factory behind every figure.

    ``upload_ratio`` is the Fig 11 knob: mean peer upload expressed as a
    multiple of the streaming rate.  ``scale`` selects the CI-sized preset
    or the paper-scale one (channels/population/clusters per Section
    VI-A); the size knobs default to the selected preset's values
    (``None``) and override either preset when set, so a sweep's recorded
    parameters always reflect the run.
    """
    upload_mean = (
        None if upload_ratio is None
        else float(upload_ratio) * PAPER.streaming_rate
    )
    if scale == "paper":
        config = paper_scenario(
            mode,
            horizon_hours=float(horizon_hours),
            seed=int(seed),
            peer_upload_mean=upload_mean,
        )
    elif scale == "small":
        config = small_scenario(
            mode,
            horizon_hours=float(horizon_hours),
            seed=int(seed),
            peer_upload_mean=upload_mean,
        )
    else:
        raise ValueError(f"unknown scale {scale!r} (small or paper)")
    sizes: Dict[str, int] = {}
    if num_channels is not None:
        sizes["num_channels"] = int(num_channels)
    if chunks_per_channel is not None:
        sizes["chunks_per_channel"] = int(chunks_per_channel)
    if target_population is not None:
        sizes["target_population"] = int(target_population)
    return replace(config, **sizes) if sizes else config


def _run_with_predictor(*, seed: int, predictor: str = "last-interval",
                        **params) -> Dict[str, float]:
    """Closed-loop run with the predictor ablation knob applied."""
    from repro.api import EngineConfig, open_run

    config = closed_loop_config(seed=seed, **params)
    with open_run(EngineConfig(spec=config, predictor=predictor)) as run:
        return summarize_closed_loop(run.result())


# ----------------------------------------------------------------------
# Chunk-size ablation (paper footnote 3) — analytic, no simulation.
# ----------------------------------------------------------------------

_VIDEO_MINUTES = 100.0
_JUMP_EVERY_MINUTES = 15.0  # paper: exponential seeks, 15-minute mean


def chunk_count_for(t0_minutes: float) -> int:
    """Chunks in the ablation's 100-minute video at one chunk duration."""
    return max(1, int(round(_VIDEO_MINUTES / float(t0_minutes))))


def chunk_size_behaviour(num_chunks: int) -> np.ndarray:
    """Viewing behaviour with the *same physical* VCR rate regardless of
    chunking: jump probability per chunk = T0 / 15 min (capped)."""
    t0_minutes = _VIDEO_MINUTES / num_chunks
    jump = min(0.45, t0_minutes / _JUMP_EVERY_MINUTES)
    cont = min(0.9, 0.95 - jump)
    seq = sequential_matrix(num_chunks, continue_prob=min(0.95, cont + jump))
    vcr = uniform_jump_matrix(num_chunks, continue_prob=cont, jump_prob=jump)
    return mixture_matrix([seq, vcr], [0.35, 0.65])


def _run_chunk_size(*, seed: int, t0_minutes: float = 5.0,
                    arrival_rate: float = 0.2) -> Dict[str, float]:
    """Capacity analysis for one chunk duration (seed-free, analytic)."""
    del seed  # analytic: same answer for every seed
    t0 = float(t0_minutes) * 60.0
    num_chunks = chunk_count_for(t0_minutes)
    model = CapacityModel(
        streaming_rate=PAPER.streaming_rate,
        chunk_duration=t0,
        vm_bandwidth=PAPER.vm_bandwidth,
    )
    capacity = solve_channel_capacity(
        model, chunk_size_behaviour(num_chunks), float(arrival_rate), alpha=0.8
    )
    return {
        "num_chunks": int(num_chunks),
        "provisioned_mbps": mbps(float(np.sum(capacity.cloud_demand))),
        "servers": int(np.sum(capacity.servers)),
        "expected_population": float(capacity.expected_population),
        "chunk_crossings_per_hour": 3600.0 / t0,
        "wasted_mb_per_jump": PAPER.streaming_rate * t0 / 2.0 / 1e6,
    }


# ----------------------------------------------------------------------
# Micro-benchmark scenarios: the optimizer, queueing and cloud-substrate
# kernels.  Registering them makes `repro sweep micro-*` the canonical
# execution path; the tier-1 tests check them through these cells.
# ----------------------------------------------------------------------


def heuristic_demands(
    num_chunks: int, seed: int, scale: float = 2.0
) -> Dict[Tuple[int, int], float]:
    """Random per-chunk bandwidth demands for the heuristic micro-bench.

    The draws come from a named, seed-derived stream (the repo-wide
    determinism contract), so the micro-bench cells hash and replay
    like every other experiment.
    """
    rng = make_rng(seed, "experiments", "heuristic-demands")
    rate = PAPER.vm_bandwidth
    return {
        (c // 20, c % 20): float(rng.uniform(0.0, scale)) * rate
        for c in range(num_chunks)
    }


def _run_micro_heuristics(
    *,
    seed: int,
    num_chunks: int = 80,
    vm_budget_per_hour: float = 100.0,
    storage_chunks: int = 60,
    storage_budget_per_hour: float = 1.0,
) -> Dict[str, float]:
    """Greedy-vs-LP optimality gaps of the paper's Eqn (6)/(7) heuristics.

    Eqn (7) is the one-region geo problem at zero local latency, so its
    objective is the undiscounted sum u~_v z_iv.  An infeasible LP
    reports an empty plan (objective 0, so ``vm_gap`` 0).
    """
    from repro.core.storage_rental import StorageProblem, \
        greedy_storage_rental, lp_storage_bound
    from repro.experiments.config import paper_nfs_clusters, paper_vm_clusters

    demands = heuristic_demands(int(num_chunks), seed)
    vm_problem = GeoVMProblem(
        topology=GeoTopology(
            [RegionSpec("local", tuple(paper_vm_clusters()))], {}, {},
            local_latency_ms=0.0,
        ),
        chunks={"local": list(demands)},
        demands={"local": list(demands.values())},
        vm_bandwidth=PAPER.vm_bandwidth,
        budget_per_hour=float(vm_budget_per_hour),
    )
    greedy_vm = greedy_geo_allocation(vm_problem)
    lp_vm = lp_geo_allocation(vm_problem)
    vm_gap = 1.0 - greedy_vm.objective / lp_vm.objective \
        if lp_vm.objective else 0.0

    storage_problem = StorageProblem(
        demands=heuristic_demands(int(storage_chunks), seed, scale=1.0),
        chunk_size_bytes=PAPER.chunk_size_bytes,
        clusters=paper_nfs_clusters(),
        budget_per_hour=float(storage_budget_per_hour),
    )
    greedy_storage = greedy_storage_rental(storage_problem)
    storage_bound = lp_storage_bound(storage_problem)
    storage_gap = 1.0 - greedy_storage.objective / storage_bound \
        if storage_bound else 0.0
    return {
        "vm_greedy_objective": float(greedy_vm.objective),
        "vm_lp_objective": float(lp_vm.objective),
        "vm_gap": float(vm_gap),
        "vm_greedy_cost_per_hour": float(greedy_vm.cost_per_hour),
        "vm_lp_cost_per_hour": float(lp_vm.cost_per_hour),
        "storage_greedy_objective": float(greedy_storage.objective),
        "storage_lp_bound": float(storage_bound),
        "storage_gap": float(storage_gap),
    }


def _run_micro_startup(
    *, seed: int, arrival_rate: float = 0.5, alpha: float = 0.8,
    chunks: int = 10,
) -> Dict[str, float]:
    """Start-up delay implied by the solved capacity plan (analytic)."""
    del seed  # analytic: same answer for every seed
    from repro.queueing.startup import channel_startup_delay

    behaviour = uniform_jump_matrix(int(chunks), 0.6, 0.2)
    capacity = solve_channel_capacity(
        paper_capacity_model(), behaviour, float(arrival_rate),
        alpha=float(alpha),
    )
    startup = channel_startup_delay(capacity)
    return {
        "servers_first_chunk": int(capacity.servers[0]),
        "wait_probability": float(startup.wait_probability),
        "mean_startup_seconds": float(startup.mean),
        "p95_startup_seconds": float(startup.quantile(0.95)),
        "p99_startup_seconds": float(startup.quantile(0.99)),
    }


# ----------------------------------------------------------------------
# Catalog scenarios: hundreds of channels through the sharded engine
# (repro.sim.shard) under one provisioning loop.
# ----------------------------------------------------------------------

#: Worker parallelism for catalog cells stays *outside* the cell
#: identity: the engine is byte-deterministic in the worker count, so
#: sweep artifacts are directly comparable no matter how a run was
#: parallelized.  Cells execute through :mod:`repro.api` serially
#: (``workers=None``); the sweep parallelizes across cells.
def _run_catalog_cell(*, seed: int, variant: str = "zipf",
                      **params) -> Dict[str, float]:
    # Imported lazily: repro.api builds on the sim/workload/cloud/core
    # layers, so a module-level import here would close an import cycle
    # whichever side loads first.
    from repro.api import open_run
    from repro.sim.shard import summarize_catalog
    from repro.workload.catalog import catalog_config

    overrides = dict(CATALOG_VARIANTS[variant])
    overrides.update(params)
    config = catalog_config(seed=seed, name=f"catalog-{variant}", **overrides)
    with open_run(config) as run:
        return summarize_catalog(run.result())


#: Size/shape knobs shared by the catalog scenarios.  CI-sized defaults;
#: the million-user acceptance run overrides them, e.g.
#: ``repro sweep catalog-flash --set num_channels=200
#: --set arrival_rate=170 --set chunks_per_channel=12
#: --set num_shards=8 --set horizon_hours=1.0``.
_CATALOG_DEFAULTS = {
    "num_channels": 24,
    "chunks_per_channel": 8,
    "horizon_hours": 2.0,
    "arrival_rate": 1.0,
    "dt": 30.0,
    "interval_minutes": 15.0,
    "num_shards": 6,
    "zipf_exponent": 0.8,
}


def _run_geo_catalog_cell(*, seed: int, variant: str = "zipf",
                          **params) -> Dict[str, float]:
    """A multi-region catalog cell: the sharded engine under the geo
    control plane (lazy imports for the same cycle reason as above)."""
    from repro.api import open_run
    from repro.sim.shard import summarize_catalog
    from repro.workload.catalog import geo_catalog_config

    overrides = dict(CATALOG_VARIANTS[variant])
    overrides.update(params)
    config = geo_catalog_config(
        seed=seed, name=f"catalog-geo-{variant}", **overrides
    )
    with open_run(config) as run:
        return summarize_catalog(run.result())


#: The geo catalog's extra knobs on top of the shared catalog sizing:
#: the topology preset (regions, latency, egress pricing) and the exact
#: LP toggle (CI-sized catalogs only; the greedy scales).
_GEO_CATALOG_DEFAULTS = {
    **_CATALOG_DEFAULTS,
    "topology": "us-eu-ap",
    "exact": False,
}


# ----------------------------------------------------------------------
# Geo extension (paper Section VII) — three regions, shifted flash crowds.
# ----------------------------------------------------------------------

_GEO_PRESET = GEO_TOPOLOGIES["us-eu-ap"]

#: Viewer region -> UTC offset (hours) of the ``us-eu-ap`` preset.
GEO_REGION_OFFSETS: Dict[str, float] = dict(
    zip(_GEO_PRESET["regions"], _GEO_PRESET["utc_offset_hours"])
)


def geo_topology(vms_per_cluster: int = 10) -> GeoTopology:
    """The ``us-eu-ap`` preset's three regions with Table II-style
    clusters and priced cross links."""
    def clusters(price_factor: float) -> Tuple[VirtualClusterSpec, ...]:
        rows = [("standard", 0.6, 0.45), ("medium", 0.8, 0.70),
                ("advanced", 1.0, 0.80)]
        return tuple(
            VirtualClusterSpec(
                n, u, p * price_factor, int(vms_per_cluster),
                PAPER.vm_bandwidth,
            )
            for n, u, p in rows
        )

    return GeoTopology(
        [
            RegionSpec(name, clusters(factor))
            for name, factor in zip(
                _GEO_PRESET["regions"], _GEO_PRESET["price_factors"]
            )
        ],
        latency_ms=dict(_GEO_PRESET["latency_ms"]),
        egress_price_per_gb=dict(_GEO_PRESET["egress_price_per_gb"]),
        latency_halflife_ms=float(_GEO_PRESET["latency_halflife_ms"]),
    )


def geo_demand_at(
    hour_utc: float,
    model: CapacityModel,
    behaviour: np.ndarray,
    base_rate: float = 0.18,
) -> Dict[str, np.ndarray]:
    """Per-region cloud demand per chunk at one UTC hour
    (time-zone-shifted crowds)."""
    pattern = DiurnalPattern()
    demands: Dict[str, np.ndarray] = {}
    for region, offset in GEO_REGION_OFFSETS.items():
        factor = pattern.factor(((hour_utc + offset) % 24) * 3600.0)
        demands[region] = solve_channel_capacity(
            model, behaviour, base_rate * factor, alpha=0.8
        ).cloud_demand
    return demands


def _run_geo(*, seed: int, hour_utc: float = 18.0, vms_per_cluster: int = 10,
             budget_per_hour: float = 200.0, base_rate: float = 0.18,
             chunks: int = 10) -> Dict[str, float]:
    """Greedy vs LP geo allocation at one UTC hour (seed-free, analytic)."""
    del seed
    topology = geo_topology(int(vms_per_cluster))
    model = paper_capacity_model()
    behaviour = default_behaviour_matrix(int(chunks))
    demands = geo_demand_at(float(hour_utc), model, behaviour,
                            base_rate=float(base_rate))
    problem = GeoVMProblem(
        topology=topology,
        chunks={region: range(d.size) for region, d in demands.items()},
        demands=demands,
        vm_bandwidth=PAPER.vm_bandwidth,
        budget_per_hour=float(budget_per_hour),
    )
    greedy = greedy_geo_allocation(problem)
    lp = lp_geo_allocation(problem)
    gap = 1.0 - greedy.objective / lp.objective if lp.objective else 0.0
    total_demand = sum(sum(d.tolist()) for d in demands.values())
    return {
        "objective": float(greedy.objective),
        "lp_objective": float(lp.objective),
        "optimality_gap": float(gap),
        "remote_fraction": float(greedy.remote_fraction()),
        "feasible": float(greedy.feasible),
        "total_demand_mbps": mbps(float(total_demand)),
    }


# ----------------------------------------------------------------------
# The registered scenarios.
# ----------------------------------------------------------------------

_MODE_GRID = {"mode": ("client-server", "p2p")}
# None means "use the scale preset's value"; exposed so `--set
# num_channels=8` etc. are accepted as sweep overrides (small scale only).
_CLOSED_LOOP_DEFAULTS = {
    "horizon_hours": 12.0,
    "scale": "small",
    "num_channels": None,
    "chunks_per_channel": None,
    "target_population": None,
}

register(ScenarioSpec(
    name="paper-closed-loop",
    title="The paper's closed loop, C/S vs P2P (every Figs 4-10 series)",
    paper_ref="Figs. 4-10 (Section VI-B/C; checked by `repro claims`)",
    grid=_MODE_GRID,
    defaults=_CLOSED_LOOP_DEFAULTS,
    build=closed_loop_config,
    expected_seconds=1.0,
    tags=("figure",),
))

register(ScenarioSpec(
    name="fig11",
    title="P2P quality vs peer-upload sufficiency ratio",
    paper_ref="Fig. 11 (Section VI-D; paper averages 0.95 / 0.95 / 1.00)",
    grid={"upload_ratio": (0.9, 1.0, 1.2)},
    defaults={**_CLOSED_LOOP_DEFAULTS, "mode": "p2p", "horizon_hours": 8.0},
    build=closed_loop_config,
    expected_seconds=1.0,
    tags=("figure",),
))

register(ScenarioSpec(
    name="ablation-predictors",
    title="Demand predictor ablation on a diurnal flash-crowd day",
    paper_ref="Section V-B (future-work knob: better predictors)",
    grid={"predictor": tuple(PREDICTORS)},
    defaults={"mode": "client-server", **_CLOSED_LOOP_DEFAULTS},
    build=None,
    run=_run_with_predictor,
    expected_seconds=1.0,
    tags=("ablation",),
))

def _run_controller_cell(*, seed: int, **params) -> Dict[str, float]:
    """One (controller, catalog shape) cell of the controller ablation
    (lazy import: the bench builds on repro.api)."""
    from repro.experiments.controllers import run_controller_cell

    return run_controller_cell(seed=seed, **params)


#: CI-sized shapes for the controller head-to-head: small enough that
#: the full 5-policy x 3-catalog grid stays sweepable in CI, big enough
#: that the policies actually diverge (two flash-crowd epochs, a few
#: hundred viewers).
_CONTROLLER_ABLATION_DEFAULTS = {
    "num_channels": 12,
    "chunks_per_channel": 6,
    "horizon_hours": 1.0,
    "arrival_rate": 2.0,
    "dt": 30.0,
    "interval_minutes": 15.0,
    "num_shards": 4,
    "zipf_exponent": 0.8,
    "mode": "client-server",
    "sla_quality_target": 0.98,
}

register(ScenarioSpec(
    name="ablation-controllers",
    title="Provisioning-policy head-to-head: cost vs quality vs SLA",
    paper_ref="Section V-B controller, vs reactive/Adapt/PID/MPC rivals",
    grid={
        "controller": controller_names(),
        "catalog": ("zipf", "flash", "geo"),
    },
    defaults=_CONTROLLER_ABLATION_DEFAULTS,
    build=None,
    run=_run_controller_cell,
    expected_seconds=4.0,
    tags=("ablation", "controllers", "catalog"),
))

register(ScenarioSpec(
    name="ablation-chunk-size",
    title="Chunk duration T0 selection (capacity vs switching vs waste)",
    paper_ref="Footnote 3 (paper picks T0 = 5 minutes)",
    grid={"t0_minutes": (1.0, 2.5, 5.0, 10.0, 25.0)},
    defaults={"arrival_rate": 0.2},
    build=None,
    run=_run_chunk_size,
    expected_seconds=0.5,
    tags=("ablation", "analytic"),
))

register(ScenarioSpec(
    name="flash-crowd",
    title="One-day flash-crowd chase (controller lag vs predictor)",
    paper_ref="Section VI-A workload (two daily flash crowds)",
    grid={"predictor": ("last-interval", "ewma")},
    defaults={
        **_CLOSED_LOOP_DEFAULTS,
        "mode": "client-server",
        "horizon_hours": 24.0,
        "target_population": 300,
    },
    build=None,
    run=_run_with_predictor,
    expected_seconds=2.0,
    tags=("extension",),
))

register(ScenarioSpec(
    name="micro-heuristics",
    title="Greedy utility-per-dollar heuristics vs LP optima",
    paper_ref="Eqns 6-7 (Section V; optimality gap never quantified)",
    defaults={
        "num_chunks": 80,
        "vm_budget_per_hour": 100.0,
        "storage_chunks": 60,
        "storage_budget_per_hour": 1.0,
    },
    build=None,
    run=_run_micro_heuristics,
    expected_seconds=0.5,
    tags=("micro", "ablation"),
))

register(ScenarioSpec(
    name="micro-startup-delay",
    title="Start-up delay distribution under the solved capacity plan",
    paper_ref="Section IV (first-chunk sojourn; related work ref [17])",
    grid={"arrival_rate": (0.02, 0.1, 0.5, 2.0)},
    defaults={"alpha": 0.8, "chunks": 10},
    build=None,
    run=_run_micro_startup,
    expected_seconds=0.5,
    tags=("micro", "analytic"),
))

register(ScenarioSpec(
    name="catalog-zipf",
    title="Sharded catalog: Zipf popularity under one provisioning loop",
    paper_ref="Section III (multi-channel catalog), scaled out",
    grid=_MODE_GRID,
    defaults={"variant": "zipf", **_CATALOG_DEFAULTS},
    build=None,
    run=_run_catalog_cell,
    expected_seconds=8.0,
    tags=("extension", "catalog", "sharded"),
))

register(ScenarioSpec(
    name="catalog-diurnal",
    title="Sharded catalog: per-channel diurnal phase offsets",
    paper_ref="Section VI-A workload, geographically de-phased",
    grid={"phase_jitter_hours": (0.0, 9.0)},
    defaults={"variant": "diurnal", "mode": "client-server",
              **_CATALOG_DEFAULTS},
    build=None,
    run=_run_catalog_cell,
    expected_seconds=8.0,
    tags=("extension", "catalog", "sharded"),
))

register(ScenarioSpec(
    name="catalog-flash",
    title="Sharded catalog: correlated flash crowd across channels",
    paper_ref="Section VI-A flash crowds, correlated catalog-wide",
    grid=_MODE_GRID,
    # The preset values are spread into the defaults (not copied as
    # literals) so the flash knobs are --settable and `repro scenarios`
    # shows them, while CATALOG_VARIANTS stays the single source the CLI
    # and registry both follow.
    defaults={
        "variant": "flash",
        **CATALOG_VARIANTS["flash"],
        **_CATALOG_DEFAULTS,
    },
    build=None,
    run=_run_catalog_cell,
    expected_seconds=10.0,
    tags=("extension", "catalog", "sharded"),
))

register(ScenarioSpec(
    name="catalog-geo-zipf",
    title="Multi-region catalog: Zipf demand split over a geo topology",
    paper_ref="Section VII (geo extension) x Section III catalog, closed loop",
    grid=_MODE_GRID,
    defaults={"variant": "zipf", **_GEO_CATALOG_DEFAULTS},
    build=None,
    run=_run_geo_catalog_cell,
    expected_seconds=10.0,
    tags=("extension", "catalog", "sharded", "geo"),
))

register(ScenarioSpec(
    name="catalog-geo-flash",
    title="Multi-region catalog: correlated flash crowd across regions",
    paper_ref="Section VII x Section VI-A flash crowds, cross-region spill",
    grid=_MODE_GRID,
    defaults={
        "variant": "flash",
        **CATALOG_VARIANTS["flash"],
        **_GEO_CATALOG_DEFAULTS,
    },
    build=None,
    run=_run_geo_catalog_cell,
    expected_seconds=12.0,
    tags=("extension", "catalog", "sharded", "geo"),
))

register(ScenarioSpec(
    name="geo",
    title="Geo-distributed pooling vs isolation (greedy vs LP)",
    paper_ref="Section VII (closing future work, implemented)",
    grid={"hour_utc": (0.0, 6.0, 12.0, 18.0)},
    defaults={
        "vms_per_cluster": 10,
        "budget_per_hour": 200.0,
        "base_rate": 0.18,
        "chunks": 10,
    },
    build=None,
    run=_run_geo,
    expected_seconds=0.5,
    tags=("extension", "analytic"),
))

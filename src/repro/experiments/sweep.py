"""Parallel sweep orchestrator with an incremental on-disk artifact store.

A *sweep* expands one registered scenario (:mod:`repro.experiments.
registry`) into cells — the cartesian product of its parameter grid times
``K`` seeds — and fans the cells across a
:class:`concurrent.futures.ProcessPoolExecutor`.

Every cell is identified by a stable hash of ``(schema, scenario, params,
seed)``; its metrics are written to ``<out>/<scenario>/<hash>.json``
together with run metadata.  Re-running a sweep first consults the store
and only executes cells whose artifacts are missing (or whose identity no
longer matches), so interrupted or extended sweeps are incremental: add
seeds or grid values and only the new cells run.

Only ``(scenario name, params, seed)`` triples cross the process
boundary — each worker re-imports the registry and resolves the scenario
locally, so no callables are pickled and results are deterministic for a
given seed regardless of the number of workers.  Cells themselves
execute their engines through :mod:`repro.api` (see
``ScenarioSpec.run_cell``), so the sweep, the CLI and library callers
all exercise one surface.

Unknown override keys fail fast: :func:`run_sweep` expands and validates
every cell (``ScenarioSpec.grid_points`` raises a :class:`KeyError`
listing the scenario's valid knobs) *before* any cell executes or any
worker process spawns.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import __version__, atomic_write
from repro.experiments import registry

__all__ = [
    "ARTIFACT_SCHEMA",
    "SweepCell",
    "CellOutcome",
    "SweepReport",
    "SweepError",
    "ArtifactStore",
    "cell_hash",
    "expand_cells",
    "run_sweep",
    "seed_list",
]


class SweepError(RuntimeError):
    """One or more cells failed; every *successful* cell was still saved.

    Raised after the whole sweep has drained, so an incremental re-run
    only repeats the failed cells.
    """

    def __init__(self, failures: Sequence[Tuple["SweepCell", BaseException]]):
        self.failures = list(failures)
        lines = [
            f"  [{cell.hash}] seed={cell.seed} "
            f"{dict(cell.params)}: {type(err).__name__}: {err}"
            for cell, err in self.failures[:5]
        ]
        more = len(self.failures) - len(lines)
        if more > 0:
            lines.append(f"  ... and {more} more")
        super().__init__(
            f"{len(self.failures)} sweep cell(s) failed "
            f"(completed cells were saved and will be reused):\n"
            + "\n".join(lines)
        )

#: Bump when the artifact layout or the hashed identity changes; old
#: artifacts then miss the cache instead of being misread.
#: Schema 2: top-level ``wall_seconds`` next to ``metrics``; closed-loop
#: metrics grew ``steps``, ``peak_step_events`` and ``peak_population``.
#: Schema 3: artifacts are **byte-deterministic** — a cell's file is a
#: pure function of (scenario, params, seed, environment), identical
#: for any worker count and across reruns, so artifact trees can be
#: compared by checksum.  The volatile run info (wall clock, creation
#: time) moved to a ``.runinfo/<hash>.json`` sidecar directory that
#: artifact globs never match.
ARTIFACT_SCHEMA = 3


def _canonical(params: Mapping[str, object]) -> Dict[str, object]:
    """Sorted, JSON-round-trippable copy of a cell's parameters."""
    return json.loads(
        json.dumps(dict(params), sort_keys=True, default=_coerce_scalar)
    )


def _coerce_scalar(value: object) -> object:
    """JSON fallback: numpy scalars hash like their Python equivalents.

    Grids built with ``np.arange``/``np.linspace`` leak ``np.int64``/
    ``np.float32``/``np.bool_`` values (``np.float64`` already subclasses
    ``float``); coercing them here keeps a numpy-built grid's cell hashes
    identical to the pure-Python grid's, so artifacts stay cache-hits.
    """
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(
        f"sweep parameters must be JSON-serializable, got {value!r} "
        f"({type(value).__name__})"
    )


def cell_hash(scenario: str, params: Mapping[str, object], seed: int) -> str:
    """Stable identity of one (scenario, grid-point, seed) cell."""
    payload = json.dumps(
        {
            "schema": ARTIFACT_SCHEMA,
            "scenario": scenario,
            "params": _canonical(params),
            "seed": int(seed),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class SweepCell:
    """One executable unit of a sweep."""

    scenario: str
    params: Tuple[Tuple[str, object], ...]
    seed: int

    @classmethod
    def make(cls, scenario: str, params: Mapping[str, object],
             seed: int) -> "SweepCell":
        canonical = _canonical(params)
        return cls(
            scenario=scenario,
            params=tuple(sorted(canonical.items())),
            seed=int(seed),
        )

    @property
    def params_dict(self) -> Dict[str, object]:
        return dict(self.params)

    @property
    def hash(self) -> str:
        return cell_hash(self.scenario, self.params_dict, self.seed)


@dataclass
class CellOutcome:
    """What happened to one cell during a sweep."""

    cell: SweepCell
    metrics: Dict[str, float]
    path: Path
    cached: bool
    duration_seconds: float


@dataclass
class SweepReport:
    """Summary of one ``run_sweep`` invocation."""

    scenario: str
    out_dir: Path
    outcomes: List[CellOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    jobs: int = 1

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def ran(self) -> int:
        return self.total - self.cached

    def metric_names(self) -> List[str]:
        seen: Dict[str, None] = {}
        for outcome in self.outcomes:
            for key in outcome.metrics:
                seen.setdefault(key)
        return list(seen)


class ArtifactStore:
    """``<root>/<scenario>/<hash>.json`` artifact files, written atomically.

    An artifact records the cell's full identity next to its metrics, so a
    hash collision or a hand-edited file is detected (identity mismatch ->
    treated as a cache miss) rather than silently trusted.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)

    def path(self, cell: SweepCell) -> Path:
        return self.root / cell.scenario / f"{cell.hash}.json"

    def load(self, cell: SweepCell) -> Optional[Dict[str, object]]:
        """The cell's artifact payload, or ``None`` on any mismatch."""
        path = self.path(cell)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (
            payload.get("schema") != ARTIFACT_SCHEMA
            or payload.get("scenario") != cell.scenario
            or payload.get("params") != cell.params_dict
            or payload.get("seed") != cell.seed
            or not isinstance(payload.get("metrics"), dict)
        ):
            return None
        return payload

    def _run_info_path(self, cell: SweepCell) -> Path:
        # Tucked in a dot-directory so ``*.json`` globs (and checksum
        # sweeps over the artifact tree) never see it.
        return self.root / cell.scenario / ".runinfo" / f"{cell.hash}.json"

    def run_info(self, cell: SweepCell) -> Dict[str, float]:
        """The cell's volatile run sidecar ({} when absent/corrupt)."""
        try:
            payload = json.loads(self._run_info_path(cell).read_text())
        except (OSError, ValueError):
            return {}
        return payload if isinstance(payload, dict) else {}

    def save(self, cell: SweepCell, metrics: Mapping[str, float],
             duration_seconds: float) -> Path:
        path = self.path(cell)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Every field below is deterministic for a fixed environment —
        # the schema-3 contract that identical cells produce identical
        # bytes.  Wall-clock values go in the sidecar only.
        payload = {
            "schema": ARTIFACT_SCHEMA,
            "scenario": cell.scenario,
            "cell_hash": cell.hash,
            "params": cell.params_dict,
            "seed": cell.seed,
            "metrics": dict(metrics),
            "meta": {
                "repro_version": __version__,
                "python": platform.python_version(),
            },
        }
        atomic_write(
            path,
            (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(),
        )
        run_info = self._run_info_path(cell)
        run_info.parent.mkdir(parents=True, exist_ok=True)
        run_info.write_text(json.dumps({
            "created_unix": time.time(),
            "duration_seconds": duration_seconds,
        }, indent=2, sort_keys=True) + "\n")
        return path


def seed_list(count: int, base: int = 2011) -> List[int]:
    """The deterministic seed ladder used by ``repro sweep --seeds K``."""
    if count <= 0:
        raise ValueError("need at least one seed")
    return [base + i for i in range(count)]


def expand_cells(
    scenario: str,
    *,
    seeds: Sequence[int],
    overrides: Optional[Mapping[str, object]] = None,
) -> List[SweepCell]:
    """All (grid-point x seed) cells of a scenario, overrides applied."""
    spec = registry.get(scenario)
    points = spec.grid_points(overrides)
    return [
        SweepCell.make(scenario, point, seed)
        for point in points
        for seed in seeds
    ]


def _execute_cell(scenario: str, params: Dict[str, object],
                  seed: int) -> Tuple[Dict[str, float], float]:
    """Worker entry point: resolve the scenario locally and run one cell."""
    started = time.perf_counter()
    metrics = registry.get(scenario).run_cell(params, seed=seed)
    return dict(metrics), time.perf_counter() - started


def run_sweep(
    scenario: str,
    *,
    jobs: int = 1,
    seeds: Sequence[int] = (2011,),
    out_dir: os.PathLike = "results",
    overrides: Optional[Mapping[str, object]] = None,
    force: bool = False,
    progress: Optional[Callable[[CellOutcome], None]] = None,
) -> SweepReport:
    """Run (or incrementally resume) one scenario sweep.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` runs every cell in-process (no pool).
    seeds:
        Explicit seed values (use :func:`seed_list` for the CLI ladder).
    out_dir:
        Artifact store root; cells found there are *not* re-executed.
    overrides:
        Grid/parameter overrides, as accepted by
        :meth:`ScenarioSpec.grid_points`.
    force:
        Re-execute and overwrite even cached cells.
    progress:
        Optional callback invoked once per finished cell.
    """
    started = time.perf_counter()
    store = ArtifactStore(out_dir)
    cells = expand_cells(scenario, seeds=seeds, overrides=overrides)
    report = SweepReport(scenario=scenario, out_dir=store.root, jobs=jobs)

    def finish(outcome: CellOutcome) -> None:
        report.outcomes.append(outcome)
        if progress is not None:
            progress(outcome)

    pending: List[SweepCell] = []
    for cell in cells:
        payload = None if force else store.load(cell)
        if payload is not None:
            finish(CellOutcome(
                cell=cell,
                metrics=dict(payload["metrics"]),  # type: ignore[arg-type]
                path=store.path(cell),
                cached=True,
                duration_seconds=float(
                    store.run_info(cell).get("duration_seconds", 0.0)
                ),
            ))
        else:
            pending.append(cell)

    failures: List[Tuple[SweepCell, BaseException]] = []
    if len(pending) <= 1 or jobs <= 1:
        for cell in pending:
            try:
                metrics, duration = _execute_cell(
                    cell.scenario, cell.params_dict, cell.seed
                )
            except Exception as err:
                failures.append((cell, err))
                continue
            path = store.save(cell, metrics, duration)
            finish(CellOutcome(cell, metrics, path, False, duration))
    else:
        workers = min(jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(
                    _execute_cell, cell.scenario, cell.params_dict, cell.seed
                ): cell
                for cell in pending
            }
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    cell = futures[future]
                    try:
                        metrics, duration = future.result()
                    except Exception as err:
                        failures.append((cell, err))
                        continue
                    path = store.save(cell, metrics, duration)
                    finish(CellOutcome(cell, metrics, path, False, duration))

    report.wall_seconds = time.perf_counter() - started
    if failures:
        raise SweepError(failures)
    return report

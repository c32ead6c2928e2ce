"""`repro.api`: the one session-style surface over every engine.

The closed loop (predict -> provision -> serve -> observe) is an
*online* controller, and this module exposes it that way, uniformly for
all three engines the repo grew — the single-region closed loop
(:mod:`repro.experiments.runner`, the sharded engine over one
in-process shard), the sharded catalog and the multi-region geo catalog
(:mod:`repro.sim.shard`), each built by
:func:`repro.sim.shard.make_engine`:

* :class:`EngineConfig` — one typed config: the scenario/catalog spec
  plus ``workers`` as a first-class field (validated by
  :func:`resolve_workers`, the single validation path).
* :func:`open_run` — returns a :class:`Run` handle.  ``run.epochs()``
  streams one :class:`EpochSnapshot` per provisioning epoch *as it
  completes* (demand, grants, provisioning decision, quality, cost);
  ``run.result()`` drains the remainder and returns the exact
  monolithic artifact the historical entry points produced
  (``ClosedLoopResult`` / ``CatalogResult`` / ``GeoCatalogResult``).
* :meth:`Run.checkpoint` / :func:`resume` — persist a mid-run engine
  and continue it later (or in another process, with a different
  worker count): the continuation is byte-identical to an
  uninterrupted run, for any ``workers`` on either side.

Quickstart::

    from repro.api import EngineConfig, open_run
    from repro.workload.catalog import catalog_config

    cfg = EngineConfig(spec=catalog_config(num_channels=24), workers=4)
    with open_run(cfg) as run:
        for epoch in run.epochs():          # streams as epochs complete
            print(epoch.index, epoch.population, epoch.vm_cost_per_hour)
            if epoch.index == run.epochs_total // 2:
                run.checkpoint("halfway.ckpt")
        result = run.result()               # == the monolithic artifact

    resumed = resume("halfway.ckpt", workers=1)   # byte-identical tail
    tail_result = resumed.result()

Checkpoints are Python pickles of live engine state: load them only
from paths you wrote yourself (the standard pickle trust model).
"""

from __future__ import annotations

import operator
import os
import pickle
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

import numpy as np

# make_engine builds a ScenarioConfig's engine from the runner module;
# loading it with the api keeps a first closed-loop run free of imports.
import repro.experiments.runner  # noqa: F401
from repro import __version__, atomic_write
from repro.experiments.config import PaperConstants, ScenarioConfig
from repro.sim.shard import make_engine
from repro.workload.catalog import CatalogConfig, GeoCatalogConfig

__all__ = [
    "CHECKPOINT_SCHEMA",
    "EngineConfig",
    "EpochSnapshot",
    "Run",
    "open_run",
    "resume",
    "resolve_workers",
]

#: Bump when the checkpoint payload layout changes; old checkpoints then
#: fail loudly instead of being misread.  Schema 2 added
#: :attr:`EngineConfig.controller`; schema 3 is the pickled graph of one
#: shared epoch driver (one run-state record, one clock); schema 4
#: pickles every engine's data plane as the one simulation kernel,
#: :class:`repro.vod.multi.MultiChannelSimulator`;
#: schema 5 pickles one controller class per region shape, holding its
#: provisioning policy as an object (``repro.core.controller``); schema 6
#: pickles the cloud facility as per-cluster counts
#: (``repro.cloud.broker.CloudFacility``), with no per-VM objects;
#: schema 7 pickles the kernel config without its quality-window and
#: sojourn-slack fields, and a controller without a budget ledger;
#: schema 8 pickles geo decisions holding columnar allocation plans
#: (``repro.geo.allocation.GeoAllocationPlan``) and their region
#: service matrix; schema 9 pickles the kernel's row table with a cell
#: column (spill cell and ``+inf`` hold sentinels) in place of the chunk
#: column, and its running per-cell downloader counts; schema 10 pickles
#: single-region decisions without a packing field (the packing of
#: ``repro.core.provisioner.ProvisioningDecision`` is computed on read);
#: schema 11 pickles single-region decisions holding the one-region
#: columnar plan (``ProvisioningDecision.plan``, a
#: ``repro.geo.allocation.GeoAllocationPlan``) in place of ``vm_plan``;
#: schema 12 pickles the one controller class for every engine, holding
#: its region graph (topology, slot maps, ``exact``), one decision type
#: with the geo telemetry, plans carrying their cell keys, and a broker
#: and billing meter without their agreement and rate histories;
#: schema 13 pickles epoch records without tracker statistics (the
#: tracker absorbed them) and a kernel whose trace channel/start and
#: hold next/from columns are narrow integer dtypes; schema 14 pickles a
#: kernel whose row channel and cell columns are narrow unsigned dtypes,
#: with an upload column in P2P mode only, and only the unconsumed
#: suffix of its trace; schema 15 pickles the closed loop as the sharded
#: engine's data plane (its one shard under ``shards`` and the bootstrap
#: mean upload under ``peer_upload``) in place of its own simulator and
#: cursor; schema 16 pickles shards that keep their own epoch counters
#: (no cursor object), epoch records of one class, no separate
#: estimator entry, and kernels holding only their live rows; schema 17
#: pickles a kernel whose per-channel capacity sums are one array (its
#: capacity matrix's row sums) in place of an id-keyed dict.
CHECKPOINT_SCHEMA = 17


def resolve_workers(workers: Optional[int] = None) -> int:
    """The one shared worker-count validation path.

    ``workers`` must be integral and is clamped to at least 1 (engine
    results are worker-invariant, so serial is always a correct
    interpretation of "0 workers"); ``None`` means serial.
    """
    if workers is None:
        return 1
    try:
        # operator.index accepts any integral type but rejects floats,
        # so workers=2.9 errors instead of truncating to 2 (strings
        # still parse).
        count = int(workers) if isinstance(workers, str) \
            else operator.index(workers)
    except (TypeError, ValueError):
        raise ValueError(
            f"workers must be an integer worker count, got {workers!r}"
        ) from None
    return max(1, count)


#: Any spec the engines understand (GeoCatalogConfig is a CatalogConfig).
EngineSpec = Union[ScenarioConfig, CatalogConfig]

#: ``kind`` tag -> spec class, the discriminator of the JSON wire format
#: (``GeoCatalogConfig`` must be matched before its ``CatalogConfig``
#: base, which :attr:`EngineConfig.kind` already guarantees).
_SPEC_CLASSES = {
    "closed-loop": ScenarioConfig,
    "catalog": CatalogConfig,
    "geo-catalog": GeoCatalogConfig,
}


def _plain(value):
    """Coerce numpy scalars to plain JSON-serializable values."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def _spec_to_dict(spec: EngineSpec) -> Dict[str, Any]:
    """One spec dataclass as a JSON-serializable field dict."""
    out: Dict[str, Any] = {}
    for spec_field in fields(spec):
        value = getattr(spec, spec_field.name)
        if spec_field.name == "constants":
            value = {
                f.name: _plain(getattr(value, f.name))
                for f in fields(PaperConstants)
            }
        out[spec_field.name] = _plain(value)
    return out


def _constants_from_dict(data: Any) -> PaperConstants:
    if not isinstance(data, dict):
        raise ValueError(
            "'constants' must be a dict of PaperConstants fields, "
            f"got {type(data).__name__}"
        )
    allowed = {f.name for f in fields(PaperConstants)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(
            f"unknown PaperConstants keys: {', '.join(unknown)}"
        )
    return PaperConstants(**data)


def _spec_from_dict(kind: str, data: Any) -> EngineSpec:
    """Strictly rebuild the spec a ``kind``-tagged field dict describes."""
    spec_cls = _SPEC_CLASSES[kind]
    if not isinstance(data, dict):
        raise ValueError(
            f"'spec' must be a dict of {spec_cls.__name__} fields, "
            f"got {type(data).__name__}"
        )
    allowed = {f.name for f in fields(spec_cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(
            f"unknown {spec_cls.__name__} keys: {', '.join(unknown)}"
        )
    kwargs = dict(data)
    if kwargs.get("constants") is not None:
        kwargs["constants"] = _constants_from_dict(kwargs["constants"])
    return spec_cls(**kwargs)


@dataclass(frozen=True)
class EngineConfig:
    """One typed configuration for :func:`open_run`.

    Attributes
    ----------
    spec:
        What to simulate: a :class:`~repro.experiments.config.
        ScenarioConfig` (single-region closed loop), a
        :class:`~repro.workload.catalog.CatalogConfig` (sharded
        catalog) or a :class:`~repro.workload.catalog.GeoCatalogConfig`
        (multi-region catalog).  The engine is chosen from the spec's
        type — see :attr:`kind`.
    workers:
        Worker processes for the sharded engines; results are
        byte-identical for any value.  ``None`` means 1.  The closed
        loop is single-process: ``workers`` > 1 there is a configuration
        error.
    predictor:
        Optional arrival-rate predictor registry key (e.g. ``"ewma"``;
        see ``repro.experiments.registry.PREDICTORS``).  ``None`` keeps
        the paper's last-interval rule.  The ``reactive`` and ``adapt``
        controllers form their own rate estimate, so naming a predictor
        with either is a configuration error.
    controller:
        Optional provisioning-policy registry key (e.g. ``"mpc"``; see
        ``repro.core.controller.CONTROLLERS``).  ``None`` keeps the
        paper controller.
    """

    spec: EngineSpec
    workers: Optional[int] = None
    predictor: Optional[str] = None
    controller: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.spec, (ScenarioConfig, CatalogConfig)):
            raise TypeError(
                "EngineConfig.spec must be a ScenarioConfig, CatalogConfig "
                f"or GeoCatalogConfig, got {type(self.spec).__name__}"
            )
        if self.workers is not None:
            count = resolve_workers(self.workers)
            if self.kind == "closed-loop" and count > 1:
                raise ValueError(
                    "the closed-loop engine is single-process; "
                    "workers must be 1 (or None) for a ScenarioConfig spec"
                )
        if self.predictor is not None:
            from repro.experiments.registry import PREDICTORS

            if self.predictor not in PREDICTORS:
                raise ValueError(
                    f"unknown predictor {self.predictor!r} "
                    f"(registered: {', '.join(PREDICTORS)})"
                )
        if self.controller is not None:
            from repro.core.controller import CONTROLLERS

            if self.controller not in CONTROLLERS:
                raise ValueError(
                    f"unknown controller {self.controller!r} "
                    f"(registered: {', '.join(CONTROLLERS)})"
                )
            if (
                self.predictor is not None
                and not CONTROLLERS[self.controller].uses_predictor
            ):
                raise ValueError(
                    f"controller {self.controller!r} never consults a "
                    f"predictor; drop predictor={self.predictor!r}"
                )

    @property
    def kind(self) -> str:
        """``"closed-loop"``, ``"catalog"`` or ``"geo-catalog"``."""
        if isinstance(self.spec, GeoCatalogConfig):
            return "geo-catalog"
        if isinstance(self.spec, CatalogConfig):
            return "catalog"
        return "closed-loop"

    def resolved_workers(self) -> int:
        """The effective worker count (validated)."""
        return resolve_workers(self.workers)

    # -- JSON wire format (POST /runs and standalone persistence) -------
    def to_dict(self) -> Dict[str, Any]:
        """The config as one JSON-serializable dict.

        The spec class is encoded as the ``kind`` tag; every spec field
        (including ``constants``) is carried so the dict is
        self-contained.  Numpy scalars are coerced to plain Python, and
        :meth:`from_dict` round-trips the result exactly.
        """
        return {
            "kind": self.kind,
            "spec": _spec_to_dict(self.spec),
            "workers": _plain(self.workers),
            "predictor": self.predictor,
            "controller": self.controller,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "EngineConfig":
        """Strictly rebuild a config from :meth:`to_dict` output.

        Unknown keys — at the top level, in ``spec`` and in
        ``constants`` — fail fast with a :class:`ValueError` naming
        them, so a typoed field can never silently fall back to a
        default on the far side of an HTTP submission.
        """
        if not isinstance(data, dict):
            raise TypeError(
                "EngineConfig.from_dict needs a dict, "
                f"got {type(data).__name__}"
            )
        data = dict(data)
        kind = data.pop("kind", None)
        if kind not in _SPEC_CLASSES:
            raise ValueError(
                f"unknown engine kind {kind!r} "
                f"(expected one of: {', '.join(_SPEC_CLASSES)})"
            )
        spec_data = data.pop("spec", None)
        workers = data.pop("workers", None)
        predictor = data.pop("predictor", None)
        controller = data.pop("controller", None)
        if data:
            raise ValueError(
                f"unknown EngineConfig keys: {', '.join(sorted(data))}"
            )
        return cls(
            spec=_spec_from_dict(kind, spec_data),
            workers=workers,
            predictor=predictor,
            controller=controller,
        )


@dataclass(frozen=True)
class EpochSnapshot:
    """One provisioning epoch's report, streamed as the epoch completes.

    Bandwidth figures are means over the epoch's simulation steps, in
    Mbps.  ``vm_cost_per_hour`` is the hourly cost of the plan decided
    *at this epoch's boundary* (0.0 for the final epoch, where no
    further plan is made); ``decision`` is the full
    ``repro.core.provisioner.ProvisioningDecision`` behind it (every
    engine's controller makes the one type) — per-chunk capacity grants,
    the VM plan, storage plan, SLA agreement and the geo telemetry —
    or ``None`` at the final boundary.
    """

    index: int  # 1-based epoch number
    epochs_total: int
    t_end: float  # simulated seconds
    arrivals: int  # this epoch
    departures: int
    population: int  # at the epoch boundary
    peak_population: int  # within the epoch
    used_mbps: float
    peer_mbps: float
    provisioned_mbps: float
    shortfall_mbps: float
    quality: float  # mean streaming quality over the epoch's samples
    vm_cost_per_hour: float
    decision: Optional[object] = field(default=None, compare=False)

    @property
    def is_final(self) -> bool:
        return self.index >= self.epochs_total

    # -- JSON wire format (the SSE event payload) ------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The snapshot as one JSON-serializable dict.

        Every scalar field is carried (numpy scalars coerced to plain
        Python); ``decision`` — the full provisioning-decision object —
        has no JSON form and is dropped.  :meth:`from_dict` round-trips
        the rest exactly.
        """
        return {
            "index": int(self.index),
            "epochs_total": int(self.epochs_total),
            "t_end": float(self.t_end),
            "arrivals": int(self.arrivals),
            "departures": int(self.departures),
            "population": int(self.population),
            "peak_population": int(self.peak_population),
            "used_mbps": float(self.used_mbps),
            "peer_mbps": float(self.peer_mbps),
            "provisioned_mbps": float(self.provisioned_mbps),
            "shortfall_mbps": float(self.shortfall_mbps),
            "quality": float(self.quality),
            "vm_cost_per_hour": float(self.vm_cost_per_hour),
        }

    @classmethod
    def from_dict(cls, data: Any) -> "EpochSnapshot":
        """Strictly rebuild a snapshot from :meth:`to_dict` output
        (``decision`` is ``None``; unknown or missing keys fail fast)."""
        if not isinstance(data, dict):
            raise TypeError(
                "EpochSnapshot.from_dict needs a dict, "
                f"got {type(data).__name__}"
            )
        data = dict(data)
        kwargs = {}
        for snap_field in fields(cls):
            if snap_field.name == "decision":
                continue
            if snap_field.name not in data:
                raise ValueError(
                    f"missing EpochSnapshot key {snap_field.name!r}"
                )
            kwargs[snap_field.name] = data.pop(snap_field.name)
        if data:
            raise ValueError(
                f"unknown EpochSnapshot keys: {', '.join(sorted(data))}"
            )
        return cls(**kwargs)


def _build_engine(config: EngineConfig):
    """Construct the engine a config describes (no bootstrap yet)."""
    predictor = None
    if config.predictor is not None:
        from repro.experiments.registry import make_predictor

        predictor = make_predictor(config.predictor)
    return make_engine(
        config.spec,
        jobs=config.resolved_workers(),
        predictor=predictor,
        controller=config.controller,
    )


class Run:
    """A session-style handle over one engine run.

    Iterate :meth:`epochs` to stream per-epoch reports; call
    :meth:`result` for the monolithic artifact (draining any epochs not
    yet consumed); :meth:`checkpoint` persists the live state at any
    point between epochs.  The handle is a context manager; closing it
    tears down worker processes.

    Every engine behind :func:`open_run` is a
    :class:`repro.sim.shard.ShardedSimulator`, the one engine class,
    which provides this protocol (the run's ``kind`` is its config's,
    :attr:`EngineConfig.kind`):

    * ``epoch`` / ``epochs_total`` / ``done`` — progress.
    * ``start()`` — idempotent bootstrap (initial deployment).
    * ``advance_epoch()`` — run one provisioning epoch, returning the
      flat payload dict :class:`EpochSnapshot` is built from, or
      ``None`` once the horizon is reached.
    * ``result()`` — the monolithic artifact of a drained run.
    * ``snapshot_state()`` / ``restore_state(state)`` — one picklable
      object graph for checkpoint/resume.
    * ``close()`` / ``suspend()`` — release worker processes
      (idempotent); ``suspend()`` parks in-process shards too.
    """

    def __init__(self, engine, config: EngineConfig) -> None:
        self._engine = engine
        self.config = config

    # -- progress ------------------------------------------------------
    @property
    def kind(self) -> str:
        return self.config.kind

    @property
    def epoch(self) -> int:
        """Completed epochs so far."""
        return self._engine.epoch

    @property
    def epochs_total(self) -> int:
        return self._engine.epochs_total

    @property
    def done(self) -> bool:
        return self._engine.done

    # -- execution -----------------------------------------------------
    def advance(self) -> Optional[EpochSnapshot]:
        """Run exactly one epoch; ``None`` once the horizon is reached.

        The step-wise face of :meth:`epochs`, for callers that need to
        interleave other work between epochs (the service host pushes
        each ``advance()`` through a worker thread so its event loop
        never blocks on a provisioning epoch).
        """
        payload = self._engine.advance_epoch()
        if payload is None:
            return None
        payload = dict(payload)
        index = payload.pop("epoch")
        return EpochSnapshot(
            index=index, epochs_total=self.epochs_total, **payload
        )

    def epochs(self) -> Iterator[EpochSnapshot]:
        """Stream the remaining epochs as they complete.

        The iterator is resumable: breaking out and calling
        :meth:`epochs` again continues from the next unconsumed epoch
        (the cursor lives in the engine, not the iterator).
        """
        while True:
            snapshot = self.advance()
            if snapshot is None:
                return
            yield snapshot

    def result(self):
        """Drain any remaining epochs and return the monolithic artifact.

        Byte-identical to the historical ``run_closed_loop`` /
        ``run_catalog`` results for the same spec, whether or not (and
        however) the run was streamed, checkpointed or resumed.
        """
        while not self._engine.done:
            if self._engine.advance_epoch() is None:
                break
        return self._engine.result()

    # -- checkpointing -------------------------------------------------
    def checkpoint(self, path: Union[str, os.PathLike]) -> Path:
        """Persist the live run to ``path`` (atomically; pickle format).

        Valid at any epoch boundary — including before the first epoch
        (the bootstrap runs first if it has not yet) and after the last.
        The in-memory run is unaffected and can keep going.
        """
        path = Path(path)
        payload = {
            "format": "repro-checkpoint",
            "schema": CHECKPOINT_SCHEMA,
            "repro_version": __version__,
            "kind": self.kind,
            "epoch": self.epoch,
            "config": self.config,
            "state": self._engine.snapshot_state(),
        }
        atomic_write(
            path, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )
        return path

    # -- lifecycle -----------------------------------------------------
    def suspend(self) -> None:
        """Park the run between epochs, releasing worker processes.

        Every engine gathers its live shard state into the parent and
        tears down its workers (an in-process engine, such as the closed
        loop, just parks its shards); the next :meth:`advance`
        transparently respawns them and results stay byte-identical.  A
        host pausing a run indefinitely calls this so paused runs hold
        no processes.
        """
        self._engine.suspend()

    def close(self) -> None:
        self._engine.close()

    def __enter__(self) -> "Run":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Run(kind={self.kind!r}, epoch={self.epoch}/"
            f"{self.epochs_total}, done={self.done})"
        )


def open_run(
    config: Union[EngineConfig, EngineSpec],
    *,
    workers: Optional[int] = None,
    predictor: Optional[str] = None,
    controller: Optional[str] = None,
) -> Run:
    """Open a run for a config (the engine is chosen from the spec type).

    A bare :class:`~repro.experiments.config.ScenarioConfig` /
    :class:`~repro.workload.catalog.CatalogConfig` is accepted and
    wrapped, with ``workers`` / ``predictor`` / ``controller`` as the
    remaining :class:`EngineConfig` fields.  The engine bootstraps
    lazily on the first epoch, so opening a run is cheap.
    """
    if not isinstance(config, EngineConfig):
        config = EngineConfig(
            spec=config,
            workers=workers,
            predictor=predictor,
            controller=controller,
        )
    elif workers is not None or predictor is not None \
            or controller is not None:
        raise TypeError(
            "pass workers/predictor/controller inside the EngineConfig, "
            "not alongside it"
        )
    return Run(_build_engine(config), config)


def resume(
    path: Union[str, os.PathLike],
    *,
    workers: Optional[int] = None,
) -> Run:
    """Reopen a checkpointed run and continue it.

    ``workers`` optionally overrides the checkpoint's worker count —
    legal because engine results are byte-identical for any value; a
    checkpoint written under ``workers=4`` resumes identically under
    ``workers=1`` and vice versa.  Checkpoints are pickles: only load
    files you (or something you trust) wrote.
    """
    with open(path, "rb") as handle:
        try:
            payload = pickle.load(handle)
        except (ImportError, AttributeError, pickle.UnpicklingError,
                EOFError) as exc:
            # A checkpoint from another version can name classes that no
            # longer exist; that is an unknown schema, not a crash.
            raise ValueError(
                f"{path} is not a checkpoint this version can read: {exc}"
            ) from exc
    if not isinstance(payload, dict) or \
            payload.get("format") != "repro-checkpoint":
        raise ValueError(f"{path} is not a repro checkpoint")
    if payload.get("schema") != CHECKPOINT_SCHEMA:
        raise ValueError(
            f"checkpoint schema {payload.get('schema')!r} is not "
            f"supported (this version reads schema {CHECKPOINT_SCHEMA})"
        )
    config: EngineConfig = payload["config"]
    if workers is not None:
        config = replace(config, workers=workers)
    engine = _build_engine(config)
    engine.restore_state(payload["state"])
    return Run(engine, config)

"""CloudMedia reproduction: cloud provisioning for Video-on-Demand.

A from-scratch Python implementation of

    Wu, Wu, Li, Qiu, Lau — "CloudMedia: When Cloud on Demand Meets Video
    on Demand", ICDCS 2011.

Packages
--------
``repro.queueing``
    Jackson network / M/M/m capacity analysis (Section IV).
``repro.p2p``
    Chunk ownership propagation and rarest-first peer contribution
    (Section IV-C).
``repro.core``
    Demand estimation, storage/VM rental optimizers, and the dynamic
    provisioning controller (Section V).
``repro.cloud``
    The consumer's side of the IaaS cloud: clusters, the broker that
    negotiates and applies VM/NFS rentals, billing (Section III-A).
``repro.vod``
    The multi-channel VoD substrate: users, tracker, delivery models,
    the fluid simulation kernel, and the event-driven Section IV
    validator on its own private event heap (Sections III-B, IV, VI).
``repro.workload``
    Synthetic workload generation matching the paper's trace (Section
    VI-A).
``repro.sim``
    Seeded RNG streams, the one epoch driver every engine runs on, and
    the sharded catalog data planes with their fixed-layout epoch blocks.
    There is no discrete-event engine.
``repro.geo``
    Geo-distributed extension: regions, latency/egress-priced topology and
    the multi-region allocation optimizers (Section VII future work).
``repro.experiments``
    Paper parameter presets, the closed-loop engine, per-figure series
    generators, the scenario registry and the parallel sweep orchestrator
    (Section VI; ``repro scenarios`` / ``repro sweep``).
``repro.api``
    The one session-style surface over every engine: ``EngineConfig`` ->
    ``open_run`` -> a ``Run`` handle that streams per-epoch reports,
    checkpoints mid-run and resumes byte-identically (docs/api.md).
``repro.service``
    The async multi-run host over ``repro.api``: concurrent runs behind
    one HTTP port with SSE epoch streams, checkpoint persistence, crash
    recovery and a live dashboard (``repro serve`` / ``repro submit``;
    docs/service.md).
``repro.analysis``
    The determinism lint engine behind ``repro lint`` (rule pack +
    baseline gating; docs/static-analysis.md).

Quickstart
----------
>>> from repro.api import open_run
>>> from repro.experiments import small_scenario
>>> with open_run(small_scenario("p2p", horizon_hours=2)) as run:
...     result = run.result()
>>> 0.0 <= result.average_quality <= 1.0
True
"""

import os
from typing import Union

__version__ = "1.3.0"

__all__ = ["__version__", "atomic_write"]


def atomic_write(path: Union[str, os.PathLike], data: bytes) -> None:
    """Replace ``path`` with ``data`` so that a crash leaves either the
    old file or the new one, never a torn mix.

    The bytes go to ``<path>.tmp`` first and are fsynced before the
    rename, so the rename cannot land ahead of the data it publishes.
    """
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)

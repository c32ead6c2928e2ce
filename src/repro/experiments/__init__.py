"""Experiment harness reproducing the paper's evaluation (Section VI).

* :mod:`repro.experiments.config` — the paper's parameters: Tables II/III
  cluster configurations, streaming/chunking constants, budgets, and
  scenario presets (CI-sized ``small`` and Section VI-A ``paper`` scale).
* :mod:`repro.experiments.runner` — the closed loop (trace -> simulator
  -> tracker -> controller -> cloud): the sharded engine over one
  in-process shard.
* :mod:`repro.experiments.figures` — one generator per paper figure,
  returning printable series.
* :mod:`repro.experiments.claims` — the paper's quantitative claims as a
  checked ledger (``repro claims`` prints ``EXPERIMENTS.md``).
* :mod:`repro.experiments.reporting` — plain-text table rendering shared
  by the benches.
* :mod:`repro.experiments.registry` — the scenario registry: every
  figure/ablation/extension as a named :class:`ScenarioSpec` with a
  default parameter grid (``repro scenarios``).
* :mod:`repro.experiments.sweep` — the parallel sweep orchestrator with
  per-cell hashing and an incremental on-disk artifact store
  (``repro sweep <name> --jobs N --seeds K``).
"""

import importlib

from repro.experiments.config import (
    PAPER,
    PaperConstants,
    ScenarioConfig,
    arrival_rate_for_population,
    paper_capacity_model,
    paper_nfs_clusters,
    paper_sla_terms,
    paper_vm_clusters,
    small_scenario,
)

#: Lazily re-exported, by submodule: the runner subclasses the sharded
#: engine, whose catalog specs import :mod:`repro.experiments.config`
#: (and so this package), and the registry and sweep import the runner —
#: importing them eagerly here would close an import cycle.
_LAZY_EXPORTS = {
    "registry": ("ScenarioSpec", "UnknownScenarioError", "summarize_closed_loop"),
    "runner": ("ClosedLoopEngine", "ClosedLoopResult"),
    "sweep": ("ArtifactStore", "SweepCell", "SweepError", "SweepReport",
              "cell_hash", "run_sweep", "seed_list"),
}


def __getattr__(name: str):
    for module, names in _LAZY_EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "PAPER",
    "PaperConstants",
    "ScenarioConfig",
    "arrival_rate_for_population",
    "paper_capacity_model",
    "paper_nfs_clusters",
    "paper_sla_terms",
    "paper_vm_clusters",
    "small_scenario",
    "ClosedLoopEngine",
    "ClosedLoopResult",
    "ScenarioSpec",
    "UnknownScenarioError",
    "summarize_closed_loop",
    "ArtifactStore",
    "SweepCell",
    "SweepError",
    "SweepReport",
    "cell_hash",
    "run_sweep",
    "seed_list",
]

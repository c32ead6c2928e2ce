"""Experiment harness reproducing the paper's evaluation (Section VI).

* :mod:`repro.experiments.config` — the paper's parameters: Tables II/III
  cluster configurations, streaming/chunking constants, budgets, and
  scenario presets (CI-sized ``small`` and Section VI-A ``paper`` scale).
* :mod:`repro.experiments.runner` — the closed-loop runner wiring trace ->
  simulator -> tracker -> controller -> cloud.
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
from repro.experiments.registry import (
    ScenarioSpec,
    UnknownScenarioError,
    summarize_closed_loop,
)
from repro.experiments.runner import ClosedLoopEngine, ClosedLoopResult
from repro.experiments.sweep import (
    ArtifactStore,
    SweepCell,
    SweepError,
    SweepReport,
    cell_hash,
    run_sweep,
    seed_list,
)

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

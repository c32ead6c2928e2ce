"""`repro.analysis`: the repository's determinism lint engine.

Every headline guarantee the repo makes — golden parity, jobs-1-vs-N
byte-identity, sha256-identical sweep artifacts, checkpoint/resume
equivalence — is enforced *dynamically*, by running engines and diffing
outputs.  This package is the static half of that contract: a custom
AST-based analysis over ``src/`` that catches the bug classes which
break those guarantees *at review time*, before they cost a bisect.

The rule pack (each rule has an ID, docs, fixture tests and a fix hint):

* :data:`~repro.analysis.rules.DET001` — raw RNG construction outside
  ``sim/rng.py`` (all draws must route through ``make_rng`` /
  ``RandomStreams`` named streams).
* :data:`~repro.analysis.taint.DET002` — wall-clock reads
  (``time.time``/``perf_counter``/``datetime.now``/…) reachable from
  artifact-producing entry points (``advance_epoch``, ``result``,
  ``run_cell``), found by a module-level call-graph taint pass.
* :data:`~repro.analysis.taint.DET003` — unordered ``set`` iteration /
  reduction in the same artifact-reachable paths.
* :data:`~repro.analysis.rules.DET004` — environment reads anywhere in
  the package (configuration flows through explicit config objects).
* :data:`~repro.analysis.rules.RES001` — ``SharedMemory`` lifecycle:
  creates paired with unlinks, workers never unlink (the ``sim/shm.py``
  contract).
* :data:`~repro.analysis.rules.CKP001` — unpicklable attributes
  (lambdas, local closures) assigned on checkpoint-state classes.

Surfaces: the ``repro lint`` CLI subcommand (gating in CI against the
committed ``lint_baseline.json``) and :func:`run_lint` for tests and
scripts.  A finding on a sanctioned line is suppressed with an inline
pragma — ``# lint: allow[<rule>] <reason>`` — while known debt lives in
the baseline and burns down (``scripts/lint_baseline.py --update``).
See ``docs/static-analysis.md`` for the catalog and workflows.
"""

from repro.analysis.baseline import Baseline, find_baseline
from repro.analysis.engine import LintResult, default_target, run_lint, update_baseline
from repro.analysis.model import Finding, Rule
from repro.analysis.report import render_text, result_payload

__all__ = [
    "Baseline",
    "Finding",
    "LintResult",
    "Rule",
    "default_target",
    "find_baseline",
    "render_text",
    "result_payload",
    "run_lint",
    "update_baseline",
]

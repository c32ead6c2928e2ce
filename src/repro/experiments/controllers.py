"""The ``ablation-controllers`` head-to-head bench: policies vs SLA.

One cell = one (controller, catalog shape) pair run end to end through
:mod:`repro.api`, scored on the three axes a provisioning policy trades
between:

* **cost** — mean hourly VM spend (``vm_cost_per_hour``),
* **quality** — mean streaming quality over the run
  (``average_quality``),
* **SLA violations** — epochs below the quality target or above the VM
  budget, priced by :class:`repro.core.sla.SLAPenaltyModel`
  (``sla_penalty_dollars`` and the two violation counts).

:func:`run_controller_cell` is the registry's cell runner;
:func:`write_controller_summary` folds a finished sweep's outcomes into
one deterministic ``summary.json`` comparison table — the artifact the
acceptance criteria (and the CI gating smoke) assert on.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import atomic_write
from repro.core.sla import SLAPenaltyModel

__all__ = [
    "CONTROLLER_SUMMARY_SCHEMA",
    "SUMMARY_METRICS",
    "run_controller_cell",
    "write_controller_summary",
    "summary_table",
]

#: Bump when the summary artifact layout changes.
CONTROLLER_SUMMARY_SCHEMA = 1

#: The comparison columns, in table order (each a mean over seeds).
SUMMARY_METRICS: Tuple[str, ...] = (
    "vm_cost_per_hour",
    "average_quality",
    "sla_penalty_dollars",
    "sla_quality_violations",
    "sla_budget_violations",
)

#: Catalog shapes the ablation runs each policy against.  ``geo`` is the
#: Zipf workload split over the default three-region topology (the
#: multi-region engine); the others use the single-region engine.
CATALOG_SHAPES: Tuple[str, ...] = ("zipf", "flash", "geo")


def run_controller_cell(
    *,
    seed: int,
    controller: str = "paper",
    catalog: str = "zipf",
    sla_quality_target: float = 0.98,
    **params,
) -> Dict[str, float]:
    """Run one (controller, catalog) cell and return its flat metrics.

    The catalog engines' summary metrics are extended with the SLA
    penalty accounting; the controller/catalog identity itself lives in
    the recorded cell params, not the metrics.
    """
    # Imported lazily: repro.api builds on the sim/workload/cloud/core
    # layers, so a module-level import here would close an import cycle
    # whichever side loads first.
    from repro.api import open_run
    from repro.sim.shard import summarize_catalog
    from repro.workload.catalog import (
        CATALOG_VARIANTS,
        catalog_config,
        geo_catalog_config,
    )

    if catalog not in CATALOG_SHAPES:
        raise ValueError(
            f"unknown catalog shape {catalog!r} "
            f"(choices: {', '.join(CATALOG_SHAPES)})"
        )
    topology = params.pop("topology", "us-eu-ap")
    if catalog == "geo":
        overrides = dict(CATALOG_VARIANTS["zipf"])
        overrides.update(params)
        config = geo_catalog_config(
            seed=seed,
            name="controllers-geo",
            topology=topology,
            **overrides,
        )
    else:
        overrides = dict(CATALOG_VARIANTS[catalog])
        overrides.update(params)
        config = catalog_config(
            seed=seed, name=f"controllers-{catalog}", **overrides
        )

    epoch_quality: List[float] = []
    vm_cost_series: List[float] = []
    with open_run(config, controller=controller) as run:
        for snap in run.epochs():
            epoch_quality.append(float(snap.quality))
            vm_cost_series.append(float(snap.vm_cost_per_hour))
        result = run.result()

    metrics = dict(summarize_catalog(result))
    penalty = SLAPenaltyModel(quality_target=sla_quality_target)
    metrics.update(
        penalty.assess(config.sla_terms(), epoch_quality, vm_cost_series)
    )
    return metrics


def _mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def write_controller_summary(
    report,
    out_dir: Optional[Union[str, os.PathLike]] = None,
) -> Path:
    """Fold a finished controller sweep into ``summary.json``.

    One row per (catalog, controller) pair, each column the mean over
    that pair's seeds; rows sorted by catalog then controller, keys
    sorted — byte-deterministic for a deterministic sweep, so the
    artifact can be diffed across refactors like any other.

    ``report`` is the sweep's :class:`~repro.experiments.sweep.
    SweepReport`; the file lands next to the sweep's cell artifacts
    (``<out>/<scenario>/summary.json``) unless ``out_dir`` overrides the
    directory.
    """
    groups: Dict[Tuple[str, str], List[Dict[str, float]]] = {}
    for outcome in report.outcomes:
        params = dict(outcome.cell.params)
        key = (
            str(params.get("catalog", "zipf")),
            str(params.get("controller", "paper")),
        )
        groups.setdefault(key, []).append(outcome.metrics)

    rows = []
    for (catalog, controller) in sorted(groups):
        cells = groups[(catalog, controller)]
        row: Dict[str, object] = {
            "catalog": catalog,
            "controller": controller,
            "seeds": len(cells),
        }
        for name in SUMMARY_METRICS:
            row[name] = _mean(
                [float(m[name]) for m in cells if name in m]
            )
        rows.append(row)

    payload = {
        "format": "repro-controller-summary",
        "schema": CONTROLLER_SUMMARY_SCHEMA,
        "scenario": report.scenario,
        "metrics": list(SUMMARY_METRICS),
        "rows": rows,
    }
    directory = (
        Path(out_dir) if out_dir is not None
        else Path(report.out_dir) / report.scenario
    )
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "summary.json"
    atomic_write(
        path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    )
    return path


def summary_table(payload: Dict) -> Tuple[List[str], List[List[str]]]:
    """Render a summary payload as (headers, rows) for tabular printing."""
    headers = ["catalog", "controller"] + [
        name for name in payload["metrics"]
    ]
    rows = []
    for row in payload["rows"]:
        rendered = [str(row["catalog"]), str(row["controller"])]
        for name in payload["metrics"]:
            value = row.get(name, 0.0)
            rendered.append(
                f"{value:.3f}" if isinstance(value, float) else str(value)
            )
        rows.append(rendered)
    return headers, rows

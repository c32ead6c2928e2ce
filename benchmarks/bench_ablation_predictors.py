"""Ablation: demand predictors (paper Section V-B's future-work knob).

The paper provisions from last-interval statistics and notes that "more
accurate prediction methods based on historical data ... can be applied
for better performance". This bench runs the same diurnal flash-crowd day
under the last-interval rule, a 3-interval moving average, and an EWMA,
and compares quality and cost.

Timed kernel: a predictor sweep over a day of observations.
"""

import numpy as np
import pytest

from repro.experiments.registry import get, make_predictor
from repro.experiments.reporting import format_table

# The ``ablation-predictors`` registry entry: one cell per predictor
# (``repro sweep ablation-predictors`` runs the same matrix).
SPEC = get("ablation-predictors")


@pytest.fixture(scope="module")
def predictor_results():
    return {
        key: SPEC.run_cell({"predictor": key})
        for key in SPEC.grid["predictor"]
    }


def test_predictor_ablation(benchmark, predictor_results, emit):
    rows = [
        [
            name,
            f"{metrics['average_quality']:.3f}",
            f"{metrics['vm_cost_per_hour']:.2f}",
            f"{metrics['mean_reserved_mbps']:.0f}",
            f"{metrics['mean_shortfall_mbps']:.1f}",
        ]
        for name, metrics in predictor_results.items()
    ]
    table = format_table(
        ["predictor", "quality", "VM $/h", "reserved Mbps", "shortfall Mbps"],
        rows,
        title="Ablation — arrival-rate predictors on the diurnal workload",
    )
    emit("ablation_predictors", table)

    qualities = [m["average_quality"] for m in predictor_results.values()]
    assert all(q >= 0.85 for q in qualities)

    # Timed kernel: a predictor update/predict sweep.
    observations = np.abs(np.sin(np.linspace(0, 6.28, 24))) + 0.1

    def sweep():
        predictor = make_predictor("ewma")
        total = 0.0
        for channel in range(20):
            for rate in observations:
                predictor.observe(channel, float(rate))
                total += predictor.predict(channel)
        return total

    benchmark(sweep)

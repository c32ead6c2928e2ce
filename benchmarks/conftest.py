"""Shared fixtures for the ablation and extension benches.

Each bench builds its cells through the scenario registry
(:mod:`repro.experiments.registry`), prints its table (run pytest with
``-s`` to see it inline) and writes it to ``benchmarks/results/``. The
paper's figure claims are checked by ``repro claims`` (EXPERIMENTS.md),
not here.
"""

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def emit(results_dir, capsys):
    """Print a figure report and persist it under benchmarks/results/."""

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _emit

"""What a run loads: scipy only for an LP, and nothing inside a run.

scipy is ~49 MB of resident memory, and only the exact geo LP
(``lp_geo_allocation``) and ``lp_storage_bound`` call it, so both
import it in their bodies.  numpy loads ``numpy.random`` and
``numpy.ma`` lazily; ``repro.sim.rng`` loads them at import, so no run
pays for a first import inside its timed setup or first epoch.

Each check runs in a fresh interpreter: ``sys.modules`` of the test
process already holds whatever earlier tests imported.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: The package's entry modules.
_ENTRY = """
import sys
import repro, repro.api, repro.cli, repro.service.host
"""

#: The default tiny runs: both closed-loop modes, the catalog in and out
#: of process, and the geo catalog (greedy geo allocation).
_RUNS = """
from repro.api import EngineConfig, open_run
from repro.experiments.config import small_scenario
from repro.workload.catalog import catalog_config, geo_catalog_config

catalog = dict(num_channels=6, chunks_per_channel=4, horizon_hours=0.5,
               arrival_rate=0.5, num_shards=4, dt=60.0, interval_minutes=10.0)
geo = dict(topology="us-eu", num_channels=4, chunks_per_channel=3,
           horizon_hours=0.5, arrival_rate=0.4, num_shards=4, dt=60.0,
           interval_minutes=10.0)
RUNS = [
    ("closed-loop p2p", EngineConfig(spec=small_scenario("p2p"))),
    ("closed-loop client-server",
     EngineConfig(spec=small_scenario("client-server"))),
    ("catalog workers=1",
     EngineConfig(spec=catalog_config(**catalog), workers=1)),
    ("catalog workers=2",
     EngineConfig(spec=catalog_config(**catalog), workers=2)),
    ("geo", EngineConfig(spec=geo_catalog_config(**geo), workers=1)),
]
"""


def run_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout


def scipy_loaded_after(code: str) -> bool:
    out = run_python(code + "print('scipy' in sys.modules)\n")
    return out.strip().splitlines()[-1] == "True"


def test_package_imports_do_not_load_scipy():
    assert not scipy_loaded_after(_ENTRY)


def test_default_runs_load_neither_scipy_nor_any_module():
    """After the package's entry modules are imported, a default run of
    every engine imports nothing new between ``open_run`` and
    ``result()``.  The one exception is the standard library's process
    start module (``multiprocessing.popen_*``), which the first worker
    start loads for whatever start method the platform uses."""
    out = run_python(_ENTRY + _RUNS + """
for name, config in RUNS:
    before = set(sys.modules)
    with open_run(config) as run:
        run.result()
    new = sorted(
        m for m in set(sys.modules) - before
        if not m.startswith("multiprocessing.popen_")
    )
    print(name, "|", ",".join(new))
print("scipy" in sys.modules)
""")
    lines = out.strip().splitlines()
    assert lines[-1] == "False"
    runs = dict(line.split(" |", 1) for line in lines[:-1])
    assert len(runs) == 5
    assert runs == {name: " " for name in runs}, runs


def test_exact_geo_run_loads_scipy_and_solves():
    assert scipy_loaded_after(_ENTRY + _RUNS + """
config = EngineConfig(spec=geo_catalog_config(**geo, exact=True))
assert "scipy" not in sys.modules
with open_run(config) as run:
    result = run.result()
assert result.vm_cost_series
assert all(decision.plan.feasible for decision in result.decisions)
""")


def test_lp_storage_bound_loads_scipy_and_solves():
    assert scipy_loaded_after("""
import math
import sys
from repro.cloud.cluster import NFSClusterSpec
from repro.core.storage_rental import StorageProblem, lp_storage_bound
assert "scipy" not in sys.modules
problem = StorageProblem(
    demands={(0, 0): 3.0, (0, 1): 1.0},
    chunk_size_bytes=1e6,
    clusters=[NFSClusterSpec("a", 1.0, 0.1, 1e12),
              NFSClusterSpec("b", 0.5, 0.1, 1e12)],
    budget_per_hour=1e6,
)
assert math.isclose(lp_storage_bound(problem), 4.0)
""")

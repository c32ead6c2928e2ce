"""Smoke test of ``scripts/mem_breakdown.py`` on tiny specs."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "mem_breakdown.py"


def run_script(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True, timeout=300, env=env,
    )


def test_catalog_breakdown_prints_rss_per_epoch_and_sites():
    proc = run_script(
        "catalog", "--set", "num_channels=6", "--set", "chunks_per_channel=4",
        "--set", "horizon_hours=0.5", "--set", "arrival_rate=0.5",
        "--set", "num_shards=2", "--set", "dt=60",
        "--set", "interval_minutes=10", "--workers", "2", "--top", "5",
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    rss_lines = out.split("pickled run record", 1)[0]
    whens = re.findall(r"^\s+[\d.]+\s+[\d.]+  (.+)$", rss_lines,
                       re.MULTILINE)
    assert whens == ["imported", "open", "start", "epoch 1 t=600",
                     "epoch 2 t=1200", "epoch 3 t=1800", "result"]
    assert "kernel rows: in worker processes (run --workers 1)" in out
    assert re.search(r"pickled run record at epoch 3: [\d,]+ bytes", out)
    state = re.search(r"pickled engine state at epoch 3: ([\d,]+) bytes",
                      out)
    assert state is not None
    # The engine state holds the run record and the kernels of both
    # workers' shards.
    record = re.search(r"pickled run record at epoch 3: ([\d,]+)", out)
    assert int(state[1].replace(",", "")) > int(record[1].replace(",", ""))
    table = out.split("tracemalloc: ", 1)[1]
    sites = re.findall(r"^\s+[\d.]+\s+\d+  (\S.*)$", table, re.MULTILINE)
    assert len(sites) == 5
    assert "peak RSS:" in out


def test_closed_loop_without_tracemalloc():
    proc = run_script("closed-loop", "--set", "horizon_hours=1",
                      "--no-tracemalloc")
    assert proc.returncode == 0, proc.stderr
    assert "epoch 1 t=3600" in proc.stdout
    rows = re.search(
        r"^kernel rows \(in-process kernels: 1\): ([\d,]+) allocated, "
        r"([\d,]+) in use, ([\d,]+) live$", proc.stdout, re.MULTILINE,
    )
    assert rows is not None
    allocated, in_use, live = (int(g.replace(",", "")) for g in rows.groups())
    assert allocated >= in_use >= live > 0
    assert re.search(r"pickled engine state at epoch 1: [\d,]+ bytes",
                     proc.stdout)
    assert "tracemalloc" not in proc.stdout


def test_unknown_knob_is_a_usage_error():
    proc = run_script("geo", "--set", "bogus=1")
    assert proc.returncode == 2
    assert "bogus" in proc.stderr

"""Where a run's memory goes: RSS per epoch, then live bytes by site.

Runs one closed-loop, catalog or geo-catalog spec, built by its config
factory (``closed_loop_config``, ``catalog_config`` or
``geo_catalog_config``) with ``--set KEY=VALUE`` overrides (values are
JSON-parsed; bare words stay strings), and prints

* the resident set size (current and high-water) when the run is
  opened, when it has started (bootstrap, shard build and, for
  ``--workers`` above 1, worker spawn) and at every epoch boundary;
* the row tables of the engine's kernels after ``result()``, summed
  over the in-process shards: rows allocated, rows in use (live plus
  dead rows awaiting compaction) and live rows (kernels in worker
  processes are not visible from the parent: run ``--workers 1``);
* the sizes of the pickled run record (``EpochRun``) and of the pickled
  engine state (``snapshot_state()``, which holds the kernels and the
  run record: what ``Run.checkpoint`` writes) at the last epoch;
* the live bytes ``tracemalloc`` attributes to each allocation site at
  the end of the run, before the run is closed (numpy reports its array
  buffers to ``tracemalloc``), largest first.

``tracemalloc`` starts before the package is imported, so import-time
allocations are attributed too.  It slows the run down, and its own
bookkeeping inflates the RSS lines; ``--no-tracemalloc`` prints the
RSS lines only, as the run uses memory without it.  Workers of a
catalog run are separate processes: their memory shows only in the
children's high-water mark printed at the end.  The breakdown of
perfbench's geo-replan workload at seed 2011:

    PYTHONPATH=src python scripts/mem_breakdown.py geo \\
        --set topology=us-eu-ap --set num_channels=200 \\
        --set chunks_per_channel=12 --set arrival_rate=170 \\
        --set num_shards=8 --set dt=60 --set interval_minutes=5 \\
        --set phase_jitter_hours=9 --workers 1
"""

from __future__ import annotations

import argparse
import pickle
import resource
import sys
import tracemalloc
from typing import List, Optional

KINDS = ("closed-loop", "catalog", "geo")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="RSS per epoch and live bytes by allocation site "
                    "for one run"
    )
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("--set", action="append", default=[],
                        dest="overrides", metavar="KEY=VALUE",
                        help="a knob of the kind's config factory")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--top", type=int, default=15,
                        help="allocation sites to print")
    parser.add_argument("--no-tracemalloc", action="store_true")
    return parser.parse_args(argv)


def build_spec(kind: str, knobs: dict):
    if kind == "closed-loop":
        from repro.experiments.registry import closed_loop_config as factory
    elif kind == "catalog":
        from repro.workload.catalog import catalog_config as factory
    else:
        from repro.workload.catalog import geo_catalog_config as factory
    try:
        return factory(**knobs)
    except (TypeError, ValueError) as exc:  # unknown knob or bad value
        print(f"mem_breakdown.py: error: {kind}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def rss_mb() -> float:
    """Current resident set size (Linux ``/proc``; NaN elsewhere)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return float("nan")


def peak_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def report(when: str) -> None:
    print(f"{rss_mb():9.1f} {peak_mb():9.1f}  {when}", flush=True)


def breakdown(snapshot, top: int) -> None:
    stats = snapshot.statistics("lineno")
    total = sum(stat.size for stat in stats)
    print(f"\ntracemalloc: {total / 2**20:.1f} MB live in {len(stats)} "
          f"sites; top {min(top, len(stats))} by size")
    print(f"{'MB':>9} {'blocks':>9}  site")
    for stat in stats[:top]:
        frame = stat.traceback[0]
        print(f"{stat.size / 2**20:9.2f} {stat.count:9d}  "
              f"{frame.filename}:{frame.lineno}")


def kernel_rows(engine) -> str:
    """One line summing the in-process kernels' row tables."""
    shards = engine._shards
    if shards is None:
        return "kernel rows: in worker processes (run --workers 1)"
    sims = [shard.sim for shard in shards]
    allocated = sum(sim._row_alive.size for sim in sims)
    in_use = sum(sim._n for sim in sims)
    live = sum(sim._total_active for sim in sims)
    return (f"kernel rows (in-process kernels: {len(sims)}): "
            f"{allocated:,} allocated, {in_use:,} in use, {live:,} live")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not args.no_tracemalloc:
        tracemalloc.start()
    from repro.api import EngineConfig, open_run
    from repro.cli import _parse_overrides

    spec = build_spec(args.kind, _parse_overrides(args.overrides))
    config = EngineConfig(spec=spec, workers=args.workers)
    print(f"{'rss MB':>9} {'peak MB':>9}  when")
    report("imported")
    run = open_run(config)
    try:
        report("open")
        run._engine.start()
        run._engine._start()  # shard build and worker spawn
        report("start")
        while True:
            snap = run.advance()
            if snap is None:
                break
            report(f"epoch {snap.index} t={snap.t_end:g}")
        run.result()
        report("result")
        print(f"\n{kernel_rows(run._engine)}")
        # Snapshot before pickling, so the pickle is not among the sites.
        snapshot = None if args.no_tracemalloc else tracemalloc.take_snapshot()
        record = pickle.dumps(run._engine._run, pickle.HIGHEST_PROTOCOL)
        print(f"\npickled run record at epoch {run.epoch}: "
              f"{len(record):,} bytes")
        state = pickle.dumps(run._engine.snapshot_state(),
                             pickle.HIGHEST_PROTOCOL)
        print(f"pickled engine state at epoch {run.epoch}: "
              f"{len(state):,} bytes")
        if snapshot is not None:
            breakdown(snapshot, args.top)
    finally:
        run.close()
    children = peak_mb(resource.RUSAGE_CHILDREN)
    print(f"\npeak RSS: {peak_mb():.1f} MB (this process), "
          f"{children:.1f} MB (largest child process)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

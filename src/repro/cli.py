"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``analyze``
    Run the Section IV capacity analysis for one channel and print the
    per-chunk arrival rates, server counts and cloud demand.
``trace``
    Generate a synthetic workload trace (Section VI-A) and write it to
    JSON.
``run``
    Run a closed-loop scenario end to end and print the summary.
``info``
    Print the paper's configuration (Tables II/III, constants, budgets).
``scenarios``
    List the scenario registry, or describe one scenario's knobs and grid.
``sweep``
    Fan a scenario's (grid x seeds) cells across worker processes, with
    cached JSON artifacts (see :mod:`repro.experiments.sweep`).
``claims``
    Run the paper's claims ledger (:mod:`repro.experiments.claims`) at
    paper scale and print ``EXPERIMENTS.md``; exit 1 when a row's
    measurement contradicts its recorded status.
``catalog``
    Run a multi-channel catalog through the sharded engine
    (:mod:`repro.sim.shard`): hundreds of channels partitioned across
    worker processes, advanced in lock-step provisioning epochs.
    Byte-deterministic for a fixed seed regardless of ``--jobs``.
    ``--topology <preset>`` switches to the multi-region engine: viewer
    demand splits across the preset's regions and every epoch is
    provisioned by the geo allocator (latency-discounted utility,
    per-GB egress pricing; ``--exact`` solves the LP optimum).
``geo``
    The multi-region catalog engine with geo-flavored defaults — the
    same engine as ``catalog --topology``, defaulting to the three-
    region preset and reporting the region-level economics (remote
    fraction, egress spend, latency-adjusted quality).
``lint``
    Run the determinism lint engine (:mod:`repro.analysis`) — the
    static rule pack (DET001–DET004, RES001, CKP001) over the package
    source, gated against the committed ``lint_baseline.json``.
    Non-zero exit on any non-baselined finding; ``--check`` (the CI
    mode) also fails on stale baseline entries so debt burns down.
``serve``
    Start the run service (:mod:`repro.service`): a bounded pool of
    concurrent hosted runs behind one HTTP port — submit over
    ``POST /runs``, stream epochs over Server-Sent Events, pause /
    resume / checkpoint live, watch the dashboard on ``GET /``.  With
    ``--state-dir`` runs auto-checkpoint and a restarted server
    re-adopts them (crash recovery); see ``docs/service.md``.
``submit``
    Submit a catalog run to a ``repro serve`` instance (the same knobs
    as ``catalog``/``geo``); ``--stream`` follows the SSE epoch feed,
    ``--wait`` blocks for the canonical result artifact.

Every engine-backed command (``run``, ``catalog``, ``geo``, and sweep
cells) executes through :mod:`repro.api` — one `EngineConfig` ->
`open_run` surface; ``catalog``/``geo`` can stream per-epoch reports
live with ``--stream`` and accept ``--set KEY=VALUE`` overrides for any
catalog knob (unknown keys fail fast, listing the valid ones).
``repro --version`` prints the package version.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.experiments.config import (
    PAPER,
    paper_capacity_model,
    paper_nfs_clusters,
    paper_scenario,
    paper_vm_clusters,
    small_scenario,
)
from repro.experiments.reporting import format_table, mbps
from repro.p2p.contribution import solve_p2p_channel_capacity
from repro.queueing.capacity import solve_channel_capacity
from repro.vod.channel import default_behaviour_matrix
from repro.workload.trace import TraceConfig, generate_trace

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__
    from repro.core.controller import controller_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="CloudMedia (ICDCS 2011) reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="one-channel capacity analysis")
    analyze.add_argument("--chunks", type=int, default=20)
    analyze.add_argument("--rate", type=float, default=0.1,
                         help="channel arrival rate, users/second")
    analyze.add_argument("--alpha", type=float, default=0.8)
    analyze.add_argument("--mode", choices=["client-server", "p2p"],
                         default="client-server")
    analyze.add_argument("--peer-upload-ratio", type=float, default=0.9,
                         help="mean peer upload / streaming rate (p2p mode)")

    trace = sub.add_parser("trace", help="generate a synthetic trace")
    trace.add_argument("output", help="output JSON path")
    trace.add_argument("--channels", type=int, default=20)
    trace.add_argument("--chunks", type=int, default=20)
    trace.add_argument("--hours", type=float, default=24.0)
    trace.add_argument("--rate", type=float, default=1.0,
                       help="mean total arrival rate, users/second")
    trace.add_argument("--seed", type=int, default=2011)

    run = sub.add_parser("run", help="run a closed-loop scenario")
    run.add_argument("--mode", choices=["client-server", "p2p"], default="p2p")
    run.add_argument("--hours", type=float, default=12.0)
    run.add_argument("--scale", choices=["small", "paper"], default="small")
    run.add_argument("--seed", type=int, default=2011)
    run.add_argument("--controller", choices=list(controller_names()),
                     default="paper",
                     help="provisioning policy (default: the paper's)")

    sub.add_parser("info", help="print the paper's configuration")

    scenarios = sub.add_parser(
        "scenarios", help="list or describe registered scenarios"
    )
    scenarios.add_argument("name", nargs="?", default=None,
                           help="describe one scenario instead of listing")
    scenarios.add_argument("--json", action="store_true", dest="as_json",
                           help="machine-readable output")

    sweep = sub.add_parser(
        "sweep", help="run a scenario's (grid x seeds) sweep in parallel"
    )
    sweep.add_argument("name", help="registered scenario name")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = in-process)")
    sweep.add_argument("--seeds", type=int, default=1,
                       help="number of seeds (base 2011, consecutive)")
    sweep.add_argument("--seed-base", type=int, default=2011,
                       help="first seed of the ladder")
    sweep.add_argument("--out", default="results",
                       help="artifact store root (default: results/)")
    sweep.add_argument("--force", action="store_true",
                       help="re-run cells even when cached artifacts exist")
    sweep.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="KEY=VALUE",
                       help="override a grid axis or default parameter "
                            "(repeatable; VALUE is parsed as JSON, e.g. "
                            "--set mode=p2p --set 'upload_ratio=[0.9,1.2]')")

    sub.add_parser(
        "claims",
        help="check the paper's claims ledger and print EXPERIMENTS.md",
    )

    catalog = sub.add_parser(
        "catalog",
        help="run a multi-channel catalog through the sharded engine",
    )
    _add_catalog_args(catalog, default_topology=None)

    geo = sub.add_parser(
        "geo",
        help="run the multi-region catalog engine (geo extension)",
    )
    _add_catalog_args(geo, default_topology="us-eu-ap")

    lint = sub.add_parser(
        "lint",
        help="run the determinism lint rule pack (repro.analysis)",
    )
    lint.add_argument("paths", nargs="*", default=[],
                      help="files/directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--baseline", default=None,
                      help="baseline file (default: lint_baseline.json "
                           "discovered above the lint target)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore any baseline (every finding is new)")
    lint.add_argument("--check", action="store_true",
                      help="CI mode: also fail on stale baseline "
                           "entries (debt must burn down)")
    lint.add_argument("--json", dest="json_out", default=None,
                      metavar="PATH",
                      help="write the machine-readable findings report")
    lint.add_argument("--verbose", action="store_true",
                      help="list baselined findings individually")
    lint.add_argument("--rules", action="store_true", dest="list_rules",
                      help="print the rule catalog and exit")

    serve = sub.add_parser(
        "serve",
        help="host concurrent runs behind HTTP + SSE (repro.service)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8352,
                       help="bind port (0 = ephemeral; printed on start)")
    serve.add_argument("--state-dir", default=None,
                       help="checkpoint/artifact directory; enables "
                            "crash recovery and run re-adoption")
    serve.add_argument("--max-runs", type=int, default=4,
                       help="runs executing concurrently (default: 4)")
    serve.add_argument("--queue-limit", type=int, default=16,
                       help="admitted-but-waiting runs before POST /runs "
                            "answers 503 (default: 16)")
    serve.add_argument("--checkpoint-every", type=int, default=0,
                       help="auto-checkpoint period in epochs "
                            "(0 = only on pause/request; needs "
                            "--state-dir)")

    submit = sub.add_parser(
        "submit",
        help="submit a catalog run to a repro serve instance",
    )
    submit.add_argument("--url", default="http://127.0.0.1:8352",
                        help="service base URL (default: "
                             "http://127.0.0.1:8352)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the run finishes and print the "
                             "summary (with --out: save the canonical "
                             "artifact JSON)")
    _add_catalog_args(submit, default_topology=None)
    return parser


def _add_catalog_args(parser: argparse.ArgumentParser,
                      *, default_topology: Optional[str]) -> None:
    """Shared knobs of ``repro catalog`` and ``repro geo``."""
    parser.add_argument("--variant", choices=["zipf", "diurnal", "flash"],
                        default="flash",
                        help="arrival-shape preset (default: flash)")
    parser.add_argument("--channels", type=int, default=24)
    parser.add_argument("--chunks", type=int, default=8,
                        help="chunks per channel")
    parser.add_argument("--hours", type=float, default=2.0)
    parser.add_argument("--rate", type=float, default=1.0,
                        help="aggregate arrival rate, users/second")
    parser.add_argument("--mode", choices=["client-server", "p2p"],
                        default="client-server")
    parser.add_argument("--dt", type=float, default=30.0)
    parser.add_argument("--interval-minutes", type=float, default=15.0,
                        help="provisioning epoch length")
    parser.add_argument("--shards", type=int, default=6,
                        help="fixed shard count (part of the scenario "
                             "identity)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (results are identical "
                             "for any value)")
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--topology", default=default_topology,
                        help="geo topology preset; switches to the "
                             "multi-region engine"
                        + ("" if default_topology is None
                           else f" (default: {default_topology})"))
    parser.add_argument("--exact", action="store_true",
                        help="solve each epoch's geo allocation as an "
                             "exact LP instead of the greedy "
                             "(CI-sized catalogs only)")
    from repro.core.controller import controller_names
    parser.add_argument("--controller", choices=list(controller_names()),
                        default="paper",
                        help="provisioning policy (default: the paper's)")
    parser.add_argument("--set", action="append", default=[],
                        dest="overrides", metavar="KEY=VALUE",
                        help="override any catalog config knob by its "
                             "factory name (repeatable; VALUE parsed as "
                             "JSON, e.g. --set zipf_exponent=1.1); "
                             "unknown keys fail fast listing the valid "
                             "ones, and --set wins over the flags")
    parser.add_argument("--stream", action="store_true",
                        help="print one line per provisioning epoch as "
                             "it completes (the repro.api epoch stream)")
    parser.add_argument("--out", default=None,
                        help="optional path for the JSON metrics")


def _parse_overrides(pairs: List[str]) -> dict:
    import json

    overrides = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--set expects KEY=VALUE, got {pair!r}")
        try:
            overrides[key] = json.loads(raw)
        except ValueError:
            overrides[key] = raw  # bare strings like p2p
    return overrides


def _usage_error(exc: Exception) -> int:
    """Report a value the analysis or a config dataclass rejected as the
    usage error it is (message on stderr, exit 2), not a traceback."""
    print(exc.args[0], file=sys.stderr)
    return 2


def _cmd_analyze(args: argparse.Namespace) -> int:
    model = paper_capacity_model()
    try:
        behaviour = default_behaviour_matrix(args.chunks)
        if args.mode == "p2p":
            result = solve_p2p_channel_capacity(
                model,
                behaviour,
                args.rate,
                peer_upload=args.peer_upload_ratio * model.streaming_rate,
                alpha=args.alpha,
            )
        else:
            cs = solve_channel_capacity(model, behaviour, args.rate,
                                        alpha=args.alpha)
    except ValueError as exc:
        return _usage_error(exc)
    if args.mode == "p2p":
        servers = result.servers
        demand = result.cloud_demand
        extra = (
            f"peer offload {100 * result.peer_offload_ratio:.0f}%, "
            f"peer bandwidth {mbps(result.total_peer_bandwidth):.1f} Mbps"
        )
        rates = result.capacity.traffic.arrival_rates
    else:
        servers, demand, rates = cs.servers, cs.cloud_demand, \
            cs.traffic.arrival_rates
        extra = f"expected population {cs.expected_population:.0f}"
    rows = [
        [i, f"{lam:.4f}", int(m), f"{mbps(d):.1f}"]
        for i, (lam, m, d) in enumerate(zip(rates, servers, demand))
    ]
    print(format_table(
        ["chunk", "lambda (1/s)", "m_i", "cloud Delta (Mbps)"], rows,
        title=f"{args.mode} capacity analysis "
              f"(rate={args.rate}/s, {args.chunks} chunks)",
    ))
    print(f"total cloud demand: {mbps(float(np.sum(demand))):.1f} Mbps; {extra}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        config = TraceConfig(
            num_channels=args.channels,
            chunks_per_channel=args.chunks,
            horizon_seconds=args.hours * 3600.0,
            mean_total_arrival_rate=args.rate,
            seed=args.seed,
        )
    except ValueError as exc:
        return _usage_error(exc)
    trace = generate_trace(config)
    summary = {
        "num_channels": config.num_channels,
        "chunks_per_channel": config.chunks_per_channel,
        "horizon_seconds": config.horizon_seconds,
        "mean_total_arrival_rate": config.mean_total_arrival_rate,
        "zipf_exponent": config.zipf_exponent,
        "alpha": config.alpha,
        "seed": config.seed,
        "num_sessions": trace.num_sessions,
    }
    rows = [
        {"arrival_time": t, "channel": c, "start_chunk": s,
         "upload_capacity": u}
        for t, c, s, u in zip(
            trace.times.tolist(), trace.channels.tolist(),
            trace.start_chunks.tolist(), trace.upload_capacities.tolist(),
        )
    ]
    Path(args.output).write_text(
        json.dumps({"config": summary, "sessions": rows})
    )
    print(f"wrote {trace.num_sessions} sessions over {args.hours:.0f} h "
          f"({args.channels} channels) to {args.output}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import open_run  # heavy import

    factory = paper_scenario if args.scale == "paper" else small_scenario
    try:
        scenario = factory(args.mode, horizon_hours=args.hours, seed=args.seed)
    except ValueError as exc:
        return _usage_error(exc)
    with open_run(scenario, controller=args.controller) as run:
        result = run.result()
    print(format_table(
        ["metric", "value"],
        [
            ["mode", args.mode],
            ["simulated hours", f"{args.hours:.0f}"],
            ["arrivals", result.simulation.arrivals],
            ["final population", result.simulation.final_population],
            ["avg streaming quality", f"{result.average_quality:.3f}"],
            ["mean reserved (Mbps)", f"{np.mean(result.provisioned_mbps()):.0f}"],
            ["mean used (Mbps)", f"{np.mean(result.used_mbps()):.0f}"],
            ["VM cost ($/h)", f"{result.mean_vm_cost_per_hour:.2f}"],
            ["storage cost ($/day)",
             f"{result.cost_report.hourly_storage_cost * 24:.4f}"],
        ],
        title="closed-loop run summary",
    ))
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    print(format_table(
        ["constant", "value"],
        [
            ["streaming rate r", "50 KB/s (400 kbps)"],
            ["chunk playback T0", "300 s (chunk = 15 MB)"],
            ["VM bandwidth R", "10 Mbps"],
            ["channels", PAPER.num_channels],
            ["chunks per channel", PAPER.chunks_per_channel],
            ["target population", PAPER.target_population],
            ["VM budget B_M", f"${PAPER.vm_budget_per_hour}/h"],
            ["storage budget B_S", f"${PAPER.storage_budget_per_hour}/h"],
            ["interval T", f"{PAPER.interval_seconds:.0f} s"],
        ],
        title="paper constants (Section VI-A)",
    ))
    print()
    print(format_table(
        ["cluster", "utility", "price/h", "max VMs"],
        [[c.name, c.utility, c.price_per_hour, c.max_vms]
         for c in paper_vm_clusters()],
        title="Table II — virtual clusters",
    ))
    print()
    print(format_table(
        ["cluster", "utility", "price/GB/h", "capacity"],
        [[c.name, c.utility, f"{c.price_per_gb_hour:.2e}",
          f"{c.capacity_bytes / 1024**3:.0f} GB"]
         for c in paper_nfs_clusters()],
        title="Table III — NFS clusters",
    ))
    return 0


def _spec_json(spec) -> dict:
    if "controller" in spec.grid:
        controller = list(spec.grid["controller"])
    else:
        controller = spec.defaults.get("controller", "paper")
    return {
        "name": spec.name,
        "title": spec.title,
        "paper_ref": spec.paper_ref,
        "grid": {k: list(v) for k, v in spec.grid.items()},
        "defaults": dict(spec.defaults),
        "controller": controller,
        "tags": list(spec.tags),
        "expected_seconds_per_cell": spec.expected_seconds,
        "closed_loop": spec.build is not None,
    }


def _cmd_scenarios(args: argparse.Namespace) -> int:
    import json

    from repro.experiments import registry

    if args.name is None:
        if args.as_json:
            print(json.dumps(
                [_spec_json(spec) for spec in registry.specs()], indent=2
            ))
            return 0
        rows = []
        for spec in registry.specs():
            cells = 1
            for values in spec.grid.values():
                cells *= len(values)
            rows.append([
                spec.name,
                spec.paper_ref.split(" (")[0],
                cells,
                ",".join(spec.tags),
                spec.title,
            ])
        print(format_table(
            ["scenario", "paper", "grid cells", "tags", "description"],
            rows,
            title="registered scenarios (repro sweep <name>)",
        ))
        return 0

    try:
        spec = registry.get(args.name)
    except registry.UnknownScenarioError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(_spec_json(spec), indent=2))
        return 0
    rows = [["title", spec.title], ["paper", spec.paper_ref],
            ["tags", ", ".join(spec.tags) or "-"],
            ["kind", "closed-loop" if spec.build is not None else "analytic"],
            ["~s / cell", f"{spec.expected_seconds:g}"]]
    for key, values in spec.grid.items():
        rows.append([f"grid: {key}", ", ".join(str(v) for v in values)])
    for key, value in spec.defaults.items():
        rows.append([f"default: {key}", value])
    print(format_table(["field", "value"], rows,
                       title=f"scenario {spec.name!r}"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import registry
    from repro.experiments.sweep import SweepError, run_sweep, seed_list

    try:
        spec = registry.get(args.name)
        overrides = _parse_overrides(args.overrides)
        # Fail fast on unknown --set keys (the KeyError lists the
        # scenario's valid knobs) before any cell runs or worker spawns.
        spec.grid_points(overrides)
        seeds = seed_list(args.seeds, base=args.seed_base)
    except (registry.UnknownScenarioError, KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    def progress(outcome) -> None:
        params = " ".join(
            f"{k}={v}" for k, v in outcome.cell.params
        )
        state = "cached" if outcome.cached else \
            f"ran in {outcome.duration_seconds:.1f}s"
        print(f"  [{outcome.cell.hash}] seed={outcome.cell.seed} "
              f"{params}: {state}")

    try:
        report = run_sweep(
            args.name,
            jobs=args.jobs,
            seeds=seeds,
            out_dir=args.out,
            overrides=overrides,
            force=args.force,
            progress=progress,
        )
    except KeyError as exc:  # unknown --set parameter
        print(exc.args[0], file=sys.stderr)
        return 2
    except (SweepError, ValueError) as exc:
        # Failed cells (bad --set values surface here too); completed
        # cells were saved and a re-run will reuse them.
        print(exc.args[0], file=sys.stderr)
        return 1

    metric_names = report.metric_names()[:5]
    rows = []
    for outcome in report.outcomes:
        wall = f"{outcome.duration_seconds:.1f}s"
        if outcome.cached:
            wall += "*"  # recorded when the cached artifact was created
        rows.append(
            [outcome.cell.hash, outcome.cell.seed,
             " ".join(f"{k}={v}" for k, v in outcome.cell.params), wall]
            + [f"{outcome.metrics.get(name, float('nan')):.3f}"
               if isinstance(outcome.metrics.get(name), float)
               else str(outcome.metrics.get(name, "-"))
               for name in metric_names]
        )
    print()
    print(format_table(
        ["cell", "seed", "params", "time"] + metric_names,
        rows,
        title=f"sweep {args.name!r}: {report.total} cells "
              f"({report.ran} ran, {report.cached} cached) "
              f"in {report.wall_seconds:.1f}s with {args.jobs} job(s) "
              f"[* = cached]",
    ))
    if "controllers" in spec.tags:
        import json

        from repro.experiments.controllers import (
            summary_table,
            write_controller_summary,
        )

        summary_path = write_controller_summary(report)
        with open(summary_path) as handle:
            headers, table_rows = summary_table(json.load(handle))
        print()
        print(format_table(
            headers, table_rows,
            title="controller ablation: cost vs quality vs SLA",
        ))
        print(f"controller summary: {summary_path}")
    print(f"artifacts: {report.out_dir / args.name}/")
    return 0


def _cmd_claims(_args: argparse.Namespace) -> int:
    from repro.experiments import claims

    measured = claims.measure_all()
    print(claims.render(measured), end="")
    problems = claims.failures(measured)
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


def _catalog_knob_names(factory) -> List[str]:
    """The --set vocabulary of a catalog config factory (its kwargs)."""
    import inspect

    return [name for name in inspect.signature(factory).parameters
            if name != "name"]


def _catalog_config_from_args(args: argparse.Namespace):
    """Build the catalog/geo spec from the shared CLI knobs.

    The shared front half of ``catalog``, ``geo`` and ``submit``.
    Usage errors (unknown --set keys, values the config dataclasses
    reject) print to stderr and return ``None``; callers exit 2.
    """
    from repro.workload.catalog import (
        CATALOG_VARIANTS,
        catalog_config,
        geo_catalog_config,
    )

    knobs = dict(
        seed=args.seed,
        mode=args.mode,
        num_channels=args.channels,
        chunks_per_channel=args.chunks,
        horizon_hours=args.hours,
        arrival_rate=args.rate,
        dt=args.dt,
        interval_minutes=args.interval_minutes,
        num_shards=args.shards,
        **CATALOG_VARIANTS[args.variant],
    )
    if args.topology is None and args.exact:
        print("--exact selects the geo LP solver and needs --topology "
              "(or use `repro geo`)", file=sys.stderr)
        return None

    factory = geo_catalog_config if args.topology is not None \
        else catalog_config
    overrides = _parse_overrides(args.overrides)
    valid = _catalog_knob_names(factory)
    unknown = sorted(set(overrides) - set(valid))
    if unknown:
        # Fail fast before any engine work, naming the valid knobs.
        print(f"unknown --set key(s) {', '.join(unknown)} "
              f"(valid: {', '.join(valid)})", file=sys.stderr)
        return None
    if args.topology is not None:
        knobs.update(topology=args.topology, exact=args.exact)
        knobs.update(overrides)
        knobs["name"] = f"catalog-geo-{args.variant}"
    else:
        knobs.update(overrides)
        knobs["name"] = f"catalog-{args.variant}"
    try:
        # The config dataclasses validate every knob (including a --set
        # or --topology value the flags let through, e.g. an unknown
        # topology preset) with a precise message — surface it as the
        # usage error it is, not a traceback.
        return factory(**knobs)
    except (TypeError, ValueError) as exc:
        # TypeError covers --set values of the wrong JSON container
        # type (e.g. --set 'num_shards=[2]'); both are usage errors.
        print(exc.args[0], file=sys.stderr)
        return None


def _cmd_catalog(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.api import EngineConfig, open_run
    from repro.sim.shard import summarize_catalog

    config = _catalog_config_from_args(args)
    if config is None:
        return 2

    started = time.perf_counter()
    engine_config = EngineConfig(
        spec=config, workers=args.jobs, controller=args.controller
    )
    with open_run(engine_config) as run:
        if args.stream:
            for snap in run.epochs():
                print(f"  epoch {snap.index:>3}/{snap.epochs_total} "
                      f"t={snap.t_end / 3600:.2f}h "
                      f"pop={snap.population} "
                      f"used={snap.used_mbps:.0f} Mbps "
                      f"quality={snap.quality:.3f} "
                      f"vm=${snap.vm_cost_per_hour:.2f}/h")
        result = run.result()
    wall = time.perf_counter() - started
    metrics = summarize_catalog(result)
    steps_per_sec = result.steps / wall if wall > 0 else float("inf")
    rows = [
        ["variant", args.variant],
        ["channels x chunks",
         f"{args.channels} x {args.chunks}"],
        ["shards (workers)",
         f"{config.effective_shards} ({args.jobs})"],
        ["simulated hours", f"{args.hours:g}"],
        ["arrivals", metrics["arrivals"]],
        ["peak population", metrics["peak_population"]],
        ["final population", metrics["final_population"]],
        ["avg streaming quality", f"{metrics['average_quality']:.3f}"],
        ["mean reserved (Mbps)",
         f"{metrics['mean_reserved_mbps']:.0f}"],
        ["mean used (Mbps)", f"{metrics['mean_used_mbps']:.0f}"],
        ["VM cost ($/h)", f"{metrics['vm_cost_per_hour']:.2f}"],
    ]
    if args.topology is not None:
        solver = "LP (exact)" if config.exact else "greedy"
        rows += [
            ["regions (topology)",
             f"{metrics['num_regions']} ({config.topology}, {solver})"],
            ["mean remote fraction",
             f"{metrics['mean_remote_fraction']:.3f}"],
            ["egress cost ($/h)",
             f"{metrics['egress_cost_per_hour']:.2f}"],
            ["latency-adj quality",
             f"{metrics['latency_adjusted_quality']:.3f}"],
        ]
    rows += [
        ["steps/s", f"{steps_per_sec:.1f}"],
        ["wall seconds", f"{wall:.1f}"],
    ]
    print(format_table(
        ["metric", "value"],
        rows,
        title=f"sharded catalog run ({config.name}, seed {args.seed})",
    ))
    if args.out is not None:
        payload = {
            "variant": args.variant,
            "topology": getattr(config, "topology", None),
            "seed": config.seed,
            "jobs": args.jobs,
            "wall_seconds": wall,
            "steps_per_sec": steps_per_sec,
            "metrics": metrics,
        }
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service import RunHost, ServiceServer

    async def serve() -> int:
        host = RunHost(
            max_concurrent=args.max_runs,
            queue_limit=args.queue_limit,
            state_dir=args.state_dir,
            checkpoint_every=args.checkpoint_every,
        )
        server = ServiceServer(host, bind=args.host, port=args.port)
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        state = f" state-dir={args.state_dir}" if args.state_dir else ""
        # The exact line the smoke scripts and tests wait for.
        print(f"repro-service listening on "
              f"http://{args.host}:{server.port}{state}", flush=True)
        await stop.wait()
        print("repro-service draining (checkpointing live runs)",
              flush=True)
        await server.close()
        return 0

    return asyncio.run(serve())


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.api import EngineConfig
    from repro.service import ServiceClient, ServiceError

    config = _catalog_config_from_args(args)
    if config is None:
        return 2
    engine_config = EngineConfig(
        spec=config, workers=args.jobs, controller=args.controller
    )
    client = ServiceClient(args.url)
    try:
        run_id = client.submit(engine_config)
        print(f"submitted {run_id} ({engine_config.kind} "
              f"{config.name!r}) to {args.url}")
        if args.stream:
            for event in client.events(run_id):
                if event["event"] != "epoch":
                    continue
                snap = event["data"]
                print(f"  epoch {snap['index']:>3}/{snap['epochs_total']} "
                      f"t={snap['t_end'] / 3600:.2f}h "
                      f"pop={snap['population']} "
                      f"used={snap['used_mbps']:.0f} Mbps "
                      f"quality={snap['quality']:.3f} "
                      f"vm=${snap['vm_cost_per_hour']:.2f}/h")
        if not (args.wait or args.stream):
            return 0
        info = client.wait(run_id)
        if info["state"] != "done":
            print(f"run {run_id} ended {info['state']}: "
                  f"{info.get('error') or 'cancelled'}", file=sys.stderr)
            return 1
        data = client.result_bytes(run_id)
        if args.out is not None:
            with open(args.out, "wb") as handle:
                handle.write(data)
            print(f"wrote {args.out}")
        import hashlib
        import json

        summary = json.loads(data.decode("utf-8"))["summary"]
        print(format_table(
            ["metric", "value"],
            [[key, f"{value:.4f}" if isinstance(value, float) else value]
             for key, value in sorted(summary.items())],
            title=f"run {run_id} summary "
                  f"(sha256 {hashlib.sha256(data).hexdigest()[:16]}…)",
        ))
        return 0
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ConnectionError as exc:
        print(f"cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import render_text, run_lint
    from repro.analysis.engine import all_rules
    from repro.analysis.report import write_json

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.title}")
            print(f"    {rule.doc}")
            print(f"    fix: {rule.hint}")
        return 0
    baseline = False if args.no_baseline else args.baseline
    result = run_lint(args.paths or None, baseline=baseline)
    print(render_text(result, verbose=args.verbose))
    if args.json_out is not None:
        write_json(result, args.json_out)
        print(f"wrote {args.json_out}")
    if result.parse_errors:
        return 2
    return 1 if result.gate_failures(strict=args.check) else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "trace": _cmd_trace,
        "run": _cmd_run,
        "info": _cmd_info,
        "scenarios": _cmd_scenarios,
        "sweep": _cmd_sweep,
        "claims": _cmd_claims,
        "catalog": _cmd_catalog,
        "geo": _cmd_catalog,  # same engine, geo-flavored defaults
        "lint": _cmd_lint,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

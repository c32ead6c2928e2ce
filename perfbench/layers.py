"""The calls a traced run wraps in each layer, and the per-layer metrics.

Everything here is wired from outside: :func:`install` patches public
entry points (and the fused kernel's step phases) of the modules under
``src/repro`` with :class:`tracing.Tracer` wrappers; :func:`metrics`
turns the recorded spans and counters into the named per-layer metrics.
Times are self times in seconds unless the name says otherwise.
"""

from __future__ import annotations

import time
from typing import Dict, List

from tracing import Tracer, reconcile

#: shm block fields filled only up to the epoch's step / quality-sample count.
_STEP_FIELDS = ("step_times", "cloud_used", "peer_used", "provisioned",
                "shortfall", "populations")
_QUALITY_FIELDS = ("quality_times", "quality_smooth", "quality_users")


class _ShardClock:
    """Per-epoch, per-worker kernel seconds of the shards.

    Shard 0 opens an epoch (shards advance and report in index order),
    and shard ``i`` runs on worker ``i % jobs`` — the engine's
    round-robin assignment.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self.epochs: List[List[float]] = []

    def add(self, shard_index: int, seconds: float) -> None:
        if shard_index == 0:
            self.epochs.append([0.0] * self.jobs)
        self.epochs[-1][shard_index % self.jobs] += seconds


def install(tracer: Tracer, jobs: int) -> _ShardClock:
    """Wrap every layer's calls; returns the shard-kernel clock."""
    from repro import api
    from repro.cloud.broker import Broker
    from repro.core import provisioner
    from repro.core.controller import ProvisioningControllerBase
    from repro.core.demand import DemandEstimator
    from repro.experiments import runner
    from repro.geo import controller as geo_controller
    from repro.sim import shard
    from repro.vod.delivery import P2PDelivery
    from repro.vod.multi import MultiChannelSimulator
    from repro.vod.simulator import VoDSimulator
    from repro.vod.tracker import TrackingServer

    counts = tracer.counts
    clock = _ShardClock(jobs)
    wrap = tracer.wrap

    def counter(key, value=lambda token, args, out: 1):
        def after(token, args, out):
            counts[key] += value(token, args, out)
        return after

    # workload: trace construction (shard traces are built in the parent)
    for owner, attr in ((shard, "build_shard_trace_arrays"),
                        (shard, "build_shard_trace"),
                        (runner, "generate_trace")):
        wrap(owner, attr, "workload.trace", after=counter(
            "workload.sessions",
            lambda token, args, out: out.num_sessions
            if hasattr(out, "num_sessions") else len(out),
        ))

    # sim.shard / sim.shm: the sharded engine, parent side
    wrap(shard.ChannelShard, "__init__", "sim.shard.build")
    wrap(shard.ShardedSimulator, "_start", "sim.shard.start")
    wrap(shard.ShardedSimulator, "_advance_all", "sim.shard.roundtrip")
    wrap(shard.ShardedSimulator, "advance_epoch", "sim.shard.epoch")
    wrap(shard, "merge_epoch_reports", "sim.shard.merge")

    def shard_cpu(token, args, out):
        clock.add(args[0].shard_index, time.process_time() - token)

    wrap(shard.ChannelShard, "advance_epoch", "sim.shard.advance",
         before=lambda args: time.process_time(), after=shard_cpu)

    def shm_read(token, args, out):
        views, index = args[0], args[1]
        clock.add(index, float(views["kernel_seconds"][0]))
        n, nq = out.step_times.size, len(out.quality_samples)
        counts["sim.shm.bytes"] += sum(
            view[:n].nbytes if key in _STEP_FIELDS
            else view[:nq].nbytes if key in _QUALITY_FIELDS
            else view.nbytes
            for key, view in views.items()
        )

    wrap(shard, "report_from_views", "sim.shm.read", after=shm_read)

    # vod.multi: the fused kernel's step and its phases
    multi = MultiChannelSimulator

    def multi_step(token, args, out):
        counts["vod.multi.steps"] += 1
        counts["vod.multi.user_steps"] += args[0]._total_active

    def live_rows(args):
        counts["vod.multi.live_rows"] += args[0]._total_active
        counts["vod.multi.table_rows"] += args[0]._n

    wrap(multi, "step", "vod.multi.step", after=multi_step)
    wrap(multi, "_admit_arrivals", "vod.multi.admit")
    wrap(multi, "_release_holds", "vod.multi.hold")
    wrap(multi, "_deliver_and_complete", "vod.multi.deliver",
         before=live_rows)
    wrap(multi, "_sample_quality", "vod.multi.quality")
    wrap(multi, "_compact", "vod.multi.compact",
         before=lambda args: args[0]._n,
         after=counter("vod.multi.rows_compacted",
                       lambda token, args, out: token - args[0]._n))
    wrap(multi, "close_interval", "vod.multi.close_interval")

    # vod.simulator: the per-channel kernel (closed loop)
    wrap(VoDSimulator, "advance_to", "vod.simulator.advance")
    wrap(VoDSimulator, "step", "vod.simulator.step",
         after=counter("vod.simulator.steps"))
    wrap(P2PDelivery, "allocate", "vod.delivery.allocate")

    # core.controller / cloud: the control plane
    def rejected(token, args, out):
        counts["core.controller.rejected"] += out.rejected is not None

    def replanned(token, args, out):
        counts["core.controller.replans"] += 1
        rejected(token, args, out)

    base = ProvisioningControllerBase
    wrap(base, "bootstrap", "core.controller.bootstrap", after=rejected)
    wrap(base, "run_interval", "core.controller.replan", after=replanned)
    wrap(DemandEstimator, "estimate_all", "core.demand.estimate")
    wrap(provisioner, "greedy_vm_allocation", "core.alloc")
    wrap(geo_controller, "greedy_geo_allocation", "core.alloc")
    wrap(provisioner, "pack_allocations", "core.packing.pack")
    for owner in (provisioner, geo_controller):
        wrap(owner, "greedy_storage_rental", "core.storage_rental.plan",
             after=counter("core.controller.storage_replans"))

    def vm_targets(args):
        counts["cloud.vm_requested"] += sum(args[1].vm_targets.values())

    wrap(Broker, "request", "cloud.broker.request", before=vm_targets)

    # vod.tracker, experiments.runner, api
    wrap(TrackingServer, "absorb", "vod.tracker.absorb")
    wrap(TrackingServer, "close_interval", "vod.tracker.close")
    wrap(runner.ClosedLoopEngine, "advance_epoch", "experiments.runner.epoch")
    wrap(api.Run, "advance", "api.advance")
    wrap(api.Run, "result", "api.result")
    return clock


def metrics(
    tracer: Tracer, clock: _ShardClock, wall: float, user_steps: int
) -> Dict[str, float]:
    """The per-layer metrics of one traced run (plus its top-level
    groups as ``group.*``).

    ``user_steps`` is the closed loop's per-step population sum, which
    the repetition counts itself (the per-channel kernel keeps no
    per-step population).
    """
    own = tracer.self_times()
    counts = tracer.counts

    def self_s(*names: str) -> float:
        return sum(own.get(name, 0.0) for name in names)

    epochs = clock.epochs
    critical = [max(epoch) for epoch in epochs]
    roundtrips = tracer.totals("sim.shard.roundtrip")
    sharded_workers = clock.jobs > 1 and bool(epochs)
    user_steps_multi = counts["vod.multi.user_steps"]
    deliver = self_s("vod.multi.deliver")
    out = {
        "workload.trace_s": self_s("workload.trace"),
        "workload.sessions": counts["workload.sessions"],
        "sim.shard.build_s": self_s("sim.shard.build"),
        "sim.shard.spawn_s": self_s("sim.shard.start"),
        "sim.shard.advance_cpu_s": sum(sum(epoch) for epoch in epochs),
        "sim.shard.critical_s": sum(critical),
        "sim.shard.merge_s": self_s("sim.shard.merge"),
        "sim.shm.wait_s": (
            sum(rt - cp for rt, cp in zip(roundtrips, critical))
            if sharded_workers else 0.0
        ),
        "sim.shm.bytes_per_epoch": (
            counts["sim.shm.bytes"] / len(epochs) if sharded_workers else 0.0
        ),
        "vod.multi.step_s": self_s("vod.multi.step"),
        "vod.multi.admit_s": self_s("vod.multi.admit"),
        "vod.multi.hold_s": self_s("vod.multi.hold"),
        "vod.multi.deliver_s": deliver,
        "vod.multi.quality_s": self_s("vod.multi.quality"),
        "vod.multi.compact_s": self_s("vod.multi.compact"),
        "vod.multi.close_interval_s": self_s("vod.multi.close_interval"),
        "vod.multi.steps": counts["vod.multi.steps"],
        "vod.multi.user_steps": user_steps_multi,
        "vod.multi.rows_compacted": counts["vod.multi.rows_compacted"],
        "vod.multi.live_row_frac": (
            counts["vod.multi.live_rows"] / counts["vod.multi.table_rows"]
            if counts["vod.multi.table_rows"] else 0.0
        ),
        "vod.multi.deliver_ns_per_user_step": (
            deliver * 1e9 / user_steps_multi if user_steps_multi else 0.0
        ),
        "vod.simulator.step_s": self_s(
            "vod.simulator.step", "vod.simulator.advance"
        ),
        "vod.delivery.allocate_s": self_s("vod.delivery.allocate"),
        "vod.simulator.steps": counts["vod.simulator.steps"],
        "vod.simulator.user_steps": (
            user_steps if counts["vod.simulator.steps"] else 0
        ),
        "core.controller.bootstrap_s": self_s("core.controller.bootstrap"),
        "core.controller.replan_s": self_s("core.controller.replan"),
        "core.demand.estimate_s": self_s("core.demand.estimate"),
        "core.alloc_s": self_s("core.alloc"),
        "core.packing.pack_s": self_s("core.packing.pack"),
        "core.storage_rental.plan_s": self_s("core.storage_rental.plan"),
        "core.controller.replans": counts["core.controller.replans"],
        "core.controller.storage_replans":
            counts["core.controller.storage_replans"],
        "core.controller.rejected": counts["core.controller.rejected"],
        "cloud.broker.request_s": self_s("cloud.broker.request"),
        "cloud.vm_requested": counts["cloud.vm_requested"],
        "vod.tracker.absorb_s": self_s("vod.tracker.absorb"),
        "vod.tracker.close_s": self_s("vod.tracker.close"),
        "experiments.runner.self_s": self_s("experiments.runner.epoch"),
        "api.self_s": self_s("api.advance"),
        "api.result_s": sum(tracer.totals("api.result")),
    }
    out.update(reconcile(tracer, wall))
    return out

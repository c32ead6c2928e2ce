"""Discrete-event simulation substrate.

This package provides the minimal, dependency-free event-driven machinery
used by the stochastic validation simulators (:mod:`repro.vod.queue_sim`)
and by the cloud substrate for timed VM lifecycle transitions:

* :mod:`repro.sim.rng` — deterministic, per-component random streams.
* :mod:`repro.sim.events` — event records and the event priority queue.
* :mod:`repro.sim.engine` — the simulation clock and run loop.
* :mod:`repro.sim.loop` — :class:`EpochLoop`, the one epoch driver
  every engine subclasses, and :class:`EpochClock`, its billing clock.
* :mod:`repro.sim.shard` — sharded multi-channel catalog execution:
  channel shards advanced in lock-step epochs across worker processes
  under one provisioning loop, byte-deterministic for any worker count.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event, EventQueue
from repro.sim.rng import RandomStreams, make_rng

#: Lazily re-exported from :mod:`repro.sim.loop` and
#: :mod:`repro.sim.shard`. Both depend on the cloud/core layers, which
#: themselves import :mod:`repro.sim.engine` — importing them eagerly
#: here would close an import cycle, so resolution is deferred to first
#: attribute access.
_LOOP_EXPORTS = ("EpochClock", "EpochLoop")
_SHARD_EXPORTS = (
    "CatalogResult",
    "ChannelShard",
    "EpochReport",
    "GeoCatalogResult",
    "GeoShardedSimulator",
    "MergedEpoch",
    "ShardedSimulator",
    "ShardEngineError",
    "make_engine",
    "merge_epoch_reports",
    "summarize_catalog",
)


def __getattr__(name: str):
    if name in _LOOP_EXPORTS:
        from repro.sim import loop

        return getattr(loop, name)
    if name in _SHARD_EXPORTS:
        from repro.sim import shard

        return getattr(shard, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Simulator",
    "Event",
    "EventQueue",
    "RandomStreams",
    "make_rng",
    "CatalogResult",
    "ChannelShard",
    "EpochClock",
    "EpochLoop",
    "EpochReport",
    "GeoCatalogResult",
    "GeoShardedSimulator",
    "MergedEpoch",
    "ShardedSimulator",
    "ShardEngineError",
    "make_engine",
    "merge_epoch_reports",
    "summarize_catalog",
]

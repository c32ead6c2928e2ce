"""Simulation substrate: random streams, the epoch driver and its shards.

There is no discrete-event engine: the Section IV validator
(:mod:`repro.vod.queue_sim`) keeps its own private event heap.

* :mod:`repro.sim.rng` — deterministic, per-component random streams.
* :mod:`repro.sim.loop` — the epoch loop's records: :class:`EpochClock`,
  its billing clock, and the run-state record.
* :mod:`repro.sim.shard` — :class:`ShardedSimulator`, the one engine
  class: channel shards advanced in lock-step epochs across worker
  processes under one provisioning loop, byte-deterministic for any
  worker count.
"""

from repro.sim.rng import RandomStreams, make_rng

#: Lazily re-exported from :mod:`repro.sim.loop` and
#: :mod:`repro.sim.shard`. Both depend on :mod:`repro.vod` (the shard
#: module through :mod:`repro.core` too), whose kernel imports
#: :mod:`repro.sim.rng` — importing them eagerly here would close an
#: import cycle, so resolution is deferred to first attribute access.
_LOOP_EXPORTS = ("EpochClock",)
_SHARD_EXPORTS = (
    "CatalogResult",
    "ChannelShard",
    "EpochReport",
    "GeoCatalogResult",
    "GeoShardedSimulator",
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
    "RandomStreams",
    "make_rng",
    "CatalogResult",
    "ChannelShard",
    "EpochClock",
    "EpochReport",
    "GeoCatalogResult",
    "GeoShardedSimulator",
    "ShardedSimulator",
    "ShardEngineError",
    "make_engine",
    "merge_epoch_reports",
    "summarize_catalog",
]

"""Synthetic VoD workload generation (paper Section VI-A).

The paper drives its testbed with a synthetic trace matching measured
PPLive-VoD characteristics; this package regenerates an equivalent trace:

* :mod:`repro.workload.zipf` — Zipf-like channel popularity.
* :mod:`repro.workload.diurnal` — daily arrival-rate pattern with two flash
  crowds (around noon and in the evening).
* :mod:`repro.workload.pareto` — bounded Pareto peer upload capacities
  ([180 kbps, 10 Mbps], shape k = 3).
* :mod:`repro.workload.arrivals` — (non-)homogeneous Poisson arrival
  sampling.
* :mod:`repro.workload.trace` — assembled traces: arrival-sorted
  parallel arrays of arrival time, channel, start chunk and upload
  capacity.
"""

from repro.workload.arrivals import (
    interval_rates,
    nonhomogeneous_poisson_times,
    poisson_arrival_times,
)
from repro.workload.diurnal import DiurnalPattern
from repro.workload.pareto import BoundedPareto
from repro.workload.trace import ShardTraceArrays, TraceConfig, generate_trace
from repro.workload.zipf import assign_channel_rates, zipf_weights

#: Lazily re-exported from :mod:`repro.workload.catalog`, which reuses
#: the paper constants/cluster presets from :mod:`repro.experiments.
#: config` — a layer that itself imports this package.  Deferring the
#: import to first attribute access keeps the package import acyclic.
_CATALOG_EXPORTS = (
    "CatalogConfig",
    "ChannelShape",
    "build_shard_trace_arrays",
    "catalog_config",
    "channel_sessions",
    "channel_shapes",
    "shard_channel_ids",
)


def __getattr__(name: str):
    if name in _CATALOG_EXPORTS:
        from repro.workload import catalog

        return getattr(catalog, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "poisson_arrival_times",
    "nonhomogeneous_poisson_times",
    "interval_rates",
    "DiurnalPattern",
    "BoundedPareto",
    "ShardTraceArrays",
    "TraceConfig",
    "generate_trace",
    "zipf_weights",
    "assign_channel_rates",
    *_CATALOG_EXPORTS,
]

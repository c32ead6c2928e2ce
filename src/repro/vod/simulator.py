"""The time-stepped fluid VoD simulator (the paper's testbed, in simulation).

``VoDSimulator`` is the historical name of the one simulation kernel,
:class:`repro.vod.multi.MultiChannelSimulator` — the same class object,
so code written against either name drives (and patches) the same
kernel.  The simulator's configuration and result types live with the
kernel and are re-exported here.
"""

from __future__ import annotations

from repro.vod.multi import (
    BandwidthLog,
    BandwidthSample,
    MultiChannelSimulator,
    SimulationResult,
    VoDSystemConfig,
)

__all__ = [
    "VoDSystemConfig",
    "VoDSimulator",
    "SimulationResult",
    "BandwidthSample",
    "BandwidthLog",
]

VoDSimulator = MultiChannelSimulator

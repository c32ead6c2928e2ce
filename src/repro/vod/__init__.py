"""Multi-channel VoD application substrate (paper Sections III-B and VI).

The paper's evaluation runs a real VoD prototype over a home-built cloud;
this package is the simulated equivalent:

* :mod:`repro.vod.channel` — channel descriptions (chunking, behaviour).
* :mod:`repro.vod.multi` — the simulation kernel: every user of every
  channel in one structure-of-arrays row table, stepped in fixed ``dt``
  (:mod:`repro.vod.simulator` keeps its historical ``VoDSimulator``
  name).
* :mod:`repro.vod.delivery` — P2P rarest-first bandwidth allocation.
* :mod:`repro.vod.tracker` — the tracking server: per-interval
  arrival/transition statistics for the controller.
* :mod:`repro.vod.metrics` — the smooth-playback streaming-quality
  metric.
* :mod:`repro.vod.queue_sim` — an event-driven Jackson-network simulator
  (on a private event heap) used to validate the Section IV analysis
  against stochastic sample paths.
"""

from repro.vod.channel import ChannelSpec, make_uniform_channels
from repro.vod.delivery import P2PDelivery
from repro.vod.metrics import QualityTracker
from repro.vod.multi import (
    MultiChannelSimulator,
    SimulationResult,
    VoDSystemConfig,
)
from repro.vod.simulator import VoDSimulator
from repro.vod.tracker import IntervalStats, TrackingServer

__all__ = [
    "ChannelSpec",
    "make_uniform_channels",
    "P2PDelivery",
    "QualityTracker",
    "MultiChannelSimulator",
    "SimulationResult",
    "VoDSimulator",
    "VoDSystemConfig",
    "IntervalStats",
    "TrackingServer",
]

"""Assembled synthetic traces (paper Section VI-A).

A trace is a list of user sessions: (arrival time, channel, start chunk,
upload capacity). Viewing behaviour *within* a session (chunk-to-chunk
movement, seeks with 15-minute mean intervals, departure) is governed by
the channel's transition matrix at simulation time, so the trace stays
decoupled from the behaviour model.

Traces serialize to JSON for reuse across experiments.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.sim.rng import make_rng
from repro.workload.arrivals import nonhomogeneous_poisson_times
from repro.workload.diurnal import DiurnalPattern
from repro.workload.pareto import BoundedPareto
from repro.workload.zipf import assign_channel_rates

__all__ = [
    "TraceConfig", "Session", "Trace", "ShardTraceArrays", "generate_trace",
]


@dataclass(frozen=True)
class TraceConfig:
    """Parameters of a synthetic workload.

    Defaults encode the paper's setup: 20 channels, Zipf popularity,
    ~2500 concurrent users at steady state, diurnal pattern with two flash
    crowds, alpha = 0.8 of users starting from the beginning, Pareto upload
    capacities.
    """

    num_channels: int = 20
    chunks_per_channel: int = 20
    horizon_seconds: float = 7 * 24 * 3600.0
    mean_total_arrival_rate: float = 2.0  # users/second across all channels
    zipf_exponent: float = 0.8
    alpha: float = 0.8  # fraction starting at chunk 1
    seed: int = 2011
    diurnal: DiurnalPattern = field(default_factory=DiurnalPattern)
    upload_distribution: BoundedPareto = field(default_factory=BoundedPareto)

    def __post_init__(self) -> None:
        if self.num_channels <= 0:
            raise ValueError("need at least one channel")
        if self.chunks_per_channel <= 0:
            raise ValueError("need at least one chunk per channel")
        if self.horizon_seconds <= 0:
            raise ValueError("horizon must be > 0")
        if self.mean_total_arrival_rate < 0:
            raise ValueError("arrival rate must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")

    def channel_rates(self) -> np.ndarray:
        """Mean per-channel arrival rates (users/second)."""
        return assign_channel_rates(
            self.mean_total_arrival_rate, self.num_channels, self.zipf_exponent
        )


@dataclass(frozen=True)
class Session:
    """One user session entering the system."""

    arrival_time: float
    channel: int
    start_chunk: int
    upload_capacity: float  # bytes/second


@dataclass
class Trace:
    """A generated workload: sessions sorted by arrival time."""

    config_summary: Dict[str, float]
    sessions: List[Session]

    def __len__(self) -> int:
        return len(self.sessions)

    def sessions_for_channel(self, channel: int) -> List[Session]:
        return [s for s in self.sessions if s.channel == channel]

    def arrival_times(self) -> np.ndarray:
        return np.asarray([s.arrival_time for s in self.sessions])

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self, path: Union[str, Path]) -> None:
        """Write the trace as JSON (config summary + session rows)."""
        payload = {
            "config": self.config_summary,
            "sessions": [asdict(s) for s in self.sessions],
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "Trace":
        payload = json.loads(Path(path).read_text())
        sessions = [Session(**row) for row in payload["sessions"]]
        return cls(config_summary=payload["config"], sessions=sessions)


@dataclass(frozen=True)
class ShardTraceArrays:
    """A trace as parallel arrays, sorted by arrival time.

    The structure-of-arrays form the simulation kernel admits from,
    without one :class:`Session` object per arrival.  A catalog shard's
    arrays (:func:`repro.workload.catalog.build_shard_trace_arrays`)
    break time ties by channel id, ``np.lexsort((channels, times))``;
    :meth:`from_trace` keeps the trace's own order on ties.  Either way
    each channel's sessions appear in their arrival order, which is the
    only order the kernel observes.
    """

    times: np.ndarray  # float64, sorted
    channels: np.ndarray  # int64 global channel ids
    start_chunks: np.ndarray  # int64
    upload_capacities: np.ndarray  # float64

    @property
    def num_sessions(self) -> int:
        return int(self.times.size)

    @classmethod
    def from_trace(cls, trace: Trace) -> "ShardTraceArrays":
        """The sessions of ``trace``, stably sorted by arrival time."""
        sessions = trace.sessions
        times = np.asarray([s.arrival_time for s in sessions], dtype=float)
        order = np.argsort(times, kind="stable")
        return cls(
            times=times[order],
            channels=np.asarray(
                [s.channel for s in sessions], dtype=np.int64
            )[order],
            start_chunks=np.asarray(
                [s.start_chunk for s in sessions], dtype=np.int64
            )[order],
            upload_capacities=np.asarray(
                [s.upload_capacity for s in sessions], dtype=float
            )[order],
        )


def _sample_start_chunk(
    rng: np.random.Generator, num_chunks: int, alpha: float
) -> int:
    """Start at chunk 0 w.p. alpha, else uniformly among the others."""
    if num_chunks == 1 or rng.random() < alpha:
        return 0
    return int(rng.integers(1, num_chunks))


def generate_trace(
    config: TraceConfig,
    *,
    channel_rates: Optional[Sequence[float]] = None,
) -> Trace:
    """Generate a synthetic trace from a :class:`TraceConfig`.

    Per channel, arrivals follow a non-homogeneous Poisson process whose
    rate is the channel's Zipf share modulated by the diurnal pattern; each
    arrival receives a start chunk (alpha-split) and a Pareto upload
    capacity. Deterministic given ``config.seed``.
    """
    rates = (
        np.asarray(channel_rates, dtype=float)
        if channel_rates is not None
        else config.channel_rates()
    )
    if rates.shape != (config.num_channels,):
        raise ValueError("channel_rates must have one entry per channel")
    if np.any(rates < 0):
        raise ValueError("channel rates must be nonnegative")

    peak = config.diurnal.peak_factor()
    sessions: List[Session] = []
    for channel, mean_rate in enumerate(rates):
        if mean_rate == 0:
            continue
        rng = make_rng(config.seed, "trace", f"channel-{channel}")
        times = nonhomogeneous_poisson_times(
            rng,
            lambda t, _r=float(mean_rate): _r * config.diurnal.factor(t),
            config.horizon_seconds,
            rate_ceiling=float(mean_rate) * peak * 1.001,
        )
        starts = [
            _sample_start_chunk(rng, config.chunks_per_channel, config.alpha)
            for _ in times
        ]
        uploads = config.upload_distribution.sample(rng, times.size)
        sessions.extend(
            Session(
                arrival_time=float(t),
                channel=channel,
                start_chunk=start,
                upload_capacity=float(up),
            )
            for t, start, up in zip(times, starts, uploads)
        )

    sessions.sort(key=lambda s: s.arrival_time)
    summary = {
        "num_channels": config.num_channels,
        "chunks_per_channel": config.chunks_per_channel,
        "horizon_seconds": config.horizon_seconds,
        "mean_total_arrival_rate": config.mean_total_arrival_rate,
        "zipf_exponent": config.zipf_exponent,
        "alpha": config.alpha,
        "seed": config.seed,
        "num_sessions": len(sessions),
    }
    return Trace(config_summary=summary, sessions=sessions)

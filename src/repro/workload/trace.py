"""Assembled synthetic traces (paper Section VI-A).

A trace is the arrival-sorted set of user sessions as parallel arrays:
arrival time, channel, start chunk and upload capacity. Viewing
behaviour *within* a session (chunk-to-chunk movement, seeks with
15-minute mean intervals, departure) is governed by the channel's
transition matrix at simulation time, so the trace stays decoupled from
the behaviour model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.sim.rng import make_rng
from repro.workload.arrivals import nonhomogeneous_poisson_times
from repro.workload.diurnal import DiurnalPattern
from repro.workload.pareto import BoundedPareto
from repro.workload.zipf import assign_channel_rates

__all__ = [
    "TraceConfig", "ShardTraceArrays", "generate_trace", "reject_non_finite",
]


def reject_non_finite(instance) -> None:
    """Raise ``ValueError`` naming the first non-finite float field of a
    dataclass instance (JSON's ``NaN``/``Infinity`` parse as floats)."""
    for f in fields(instance):
        value = getattr(instance, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


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
        reject_non_finite(self)
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0 (got {self.seed})")

    def channel_rates(self) -> np.ndarray:
        """Mean per-channel arrival rates (users/second)."""
        return assign_channel_rates(
            self.mean_total_arrival_rate, self.num_channels, self.zipf_exponent
        )


@dataclass(frozen=True)
class ShardTraceArrays:
    """A trace as parallel arrays, sorted by arrival time.

    The structure-of-arrays form every engine's simulation kernel admits
    from.  Time ties break by channel id, as ``np.lexsort((channels,
    times))`` would order them (see :meth:`merge`), and each channel's
    sessions appear in their arrival order, which is the only order the
    kernel observes.
    """

    times: np.ndarray  # float64, sorted
    channels: np.ndarray  # int64 global channel ids
    start_chunks: np.ndarray  # int64
    upload_capacities: np.ndarray  # float64

    @property
    def num_sessions(self) -> int:
        return int(self.times.size)

    @classmethod
    def merge(
        cls,
        parts: Sequence[Tuple[int, np.ndarray, np.ndarray, np.ndarray]],
    ) -> "ShardTraceArrays":
        """Merge per-channel ``(channel, times, starts, uploads)`` parts,
        each arrival-sorted, into one trace sorted by (time, channel).

        The parts are laid end to end in ascending channel order (a
        stable sort of the parts, so parts of one channel keep their
        order), and one stable ``argsort`` of the times orders the
        sessions: a time tie keeps the concatenation order, which is
        channel order and then arrival order within a channel, exactly
        the permutation ``np.lexsort((channels, times))`` gives.  The
        channel column is one ``np.repeat`` of the part ids.
        """
        parts = sorted(parts, key=lambda part: part[0])
        sizes = [len(t) for _, t, _, _ in parts]
        n = sum(sizes)
        # The merged columns are allocated before the temporaries they
        # are gathered from, the kept time and upload columns first:
        # the temporaries are freed above what a shard keeps, so the
        # next shard's build reuses their space instead of growing the
        # heap past holes it cannot return.
        merged = cls(
            times=np.empty(n),
            upload_capacities=np.empty(n),
            channels=np.empty(n, dtype=np.int64),
            start_chunks=np.empty(n, dtype=np.int64),
        )
        if not parts:
            return merged
        times = np.concatenate(
            [np.asarray(t, dtype=float) for _, t, _, _ in parts]
        )
        order = np.argsort(times, kind="stable")
        # ``mode="clip"`` (the indices are in range) gathers straight
        # into ``out``; the default mode would buffer a copy.
        np.take(times, order, out=merged.times, mode="clip")
        del times
        columns = (
            (merged.upload_capacities,
             [np.asarray(u, dtype=float) for _, _, _, u in parts]),
            (merged.start_chunks,
             [np.asarray(s, dtype=np.int64) for _, _, s, _ in parts]),
        )
        for out, values in columns:
            np.take(np.concatenate(values), order, out=out, mode="clip")
        ids = np.array([c for c, _, _, _ in parts], dtype=np.int64)
        np.take(np.repeat(ids, sizes), order, out=merged.channels,
                mode="clip")
        return merged


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
) -> ShardTraceArrays:
    """Generate a synthetic trace from a :class:`TraceConfig`.

    Per channel, arrivals follow a non-homogeneous Poisson process whose
    rate is the channel's Zipf share modulated by the diurnal pattern; each
    arrival receives a start chunk (alpha-split) and a Pareto upload
    capacity. Deterministic given ``config.seed``.

    The start chunks are drawn one session at a time: the alpha draw and
    the conditional uniform draw interleave on the channel's stream, so
    batching them would change every later draw.
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
    parts = []
    for channel, mean_rate in enumerate(rates):
        if mean_rate == 0:
            continue
        rng = make_rng(config.seed, "trace", f"channel-{channel}")
        times = nonhomogeneous_poisson_times(
            rng,
            lambda t, _r=float(mean_rate): _r * config.diurnal.factors(t),
            config.horizon_seconds,
            rate_ceiling=float(mean_rate) * peak * 1.001,
        )
        starts = [
            _sample_start_chunk(rng, config.chunks_per_channel, config.alpha)
            for _ in range(times.size)
        ]
        uploads = config.upload_distribution.sample(rng, times.size)
        parts.append((channel, times, starts, uploads))
    return ShardTraceArrays.merge(parts)

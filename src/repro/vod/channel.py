"""Channel descriptions (paper Section III-B).

A channel is one video: a streaming rate r, a chunking into J pieces of T0
seconds each, and a viewing-behaviour model (the chunk-transfer matrix the
simulator samples user movements from).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.queueing.transitions import (
    mixture_matrix,
    sequential_matrix,
    uniform_jump_matrix,
    validate_transition_matrix,
)

__all__ = ["ChannelSpec", "make_uniform_channels", "default_behaviour_matrix"]


def default_behaviour_matrix(
    num_chunks: int,
    *,
    continue_prob: float = 0.72,
    jump_prob: float = 0.2,
    sequential_fraction: float = 0.35,
) -> np.ndarray:
    """The default viewing behaviour used by the evaluation.

    A mixture of strictly sequential viewers and VCR-happy viewers. With
    T0 = 5 min, a jump probability of ~0.2 per chunk reproduces the paper's
    "interval between two playback jumps is exponential with mean 15 min"
    at chunk granularity (a jump roughly every three chunks among the VCR
    population).
    """
    seq = sequential_matrix(num_chunks, continue_prob=min(0.95, continue_prob + jump_prob))
    vcr = uniform_jump_matrix(num_chunks, continue_prob=continue_prob, jump_prob=jump_prob)
    return mixture_matrix([seq, vcr], [sequential_fraction, 1.0 - sequential_fraction])


@dataclass(frozen=True)
class ChannelSpec:
    """One video channel.

    Attributes
    ----------
    channel_id:
        Stable integer identifier (its index in the system).
    num_chunks:
        Number of chunks J^(c) the video is divided into.
    streaming_rate:
        Playback rate r, bytes/second.
    chunk_duration:
        Playback time T0 of one chunk, seconds.
    behaviour:
        Chunk-transfer matrix P^(c) governing simulated user movement.
    name:
        Optional human-readable label.
    """

    channel_id: int
    num_chunks: int
    streaming_rate: float
    chunk_duration: float
    behaviour: np.ndarray = field(repr=False)
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_chunks <= 0:
            raise ValueError("need at least one chunk")
        if self.streaming_rate <= 0:
            raise ValueError("streaming rate must be > 0")
        if self.chunk_duration <= 0:
            raise ValueError("chunk duration must be > 0")
        p = validate_transition_matrix(self.behaviour)
        if p.shape[0] != self.num_chunks:
            raise ValueError(
                f"behaviour matrix is {p.shape[0]}x{p.shape[0]} but channel has "
                f"{self.num_chunks} chunks"
            )

    @property
    def chunk_size_bytes(self) -> float:
        """r * T0 bytes per chunk."""
        return self.streaming_rate * self.chunk_duration


def make_uniform_channels(
    num_channels: int,
    num_chunks: int,
    streaming_rate: float,
    chunk_duration: float,
    *,
    behaviour: Optional[np.ndarray] = None,
) -> List[ChannelSpec]:
    """Create ``num_channels`` identical channels (the paper's setup:
    every video is 100 minutes at 400 kbps, chunked into 5-minute pieces).

    The channels share one behaviour matrix, validated once: channel 0
    is constructed (and checked), and every other channel is a copy of
    it under its own id and name.
    """
    if num_channels <= 0:
        return []
    if behaviour is None:
        behaviour = default_behaviour_matrix(num_chunks)
    first = ChannelSpec(
        channel_id=0,
        num_chunks=num_chunks,
        streaming_rate=streaming_rate,
        chunk_duration=chunk_duration,
        behaviour=behaviour,
        name="channel-0",
    )
    channels = [first]
    for c in range(1, num_channels):
        spec = copy.copy(first)
        # Frozen: set the two differing fields as the generated
        # ``__init__`` does.
        object.__setattr__(spec, "channel_id", c)
        object.__setattr__(spec, "name", f"channel-{c}")
        channels.append(spec)
    return channels

"""Equilibrium server-capacity solver (paper Section IV-B).

Given per-queue arrival rates lambda_i (from the traffic equations) and the
service rate mu = R / (r * T0) of one VM-backed queueing server, find the
minimal integer m_i such that

    m_i > lambda_i / mu          (stability), and
    E[n_i] <= lambda_i * T0      (mean sojourn time <= T0, by Little's law).

``E[n]`` is monotonically decreasing in m for fixed load, so a linear /
doubling search terminates; the paper's iterative procedure ("initialize
m to 1, increase until E(n) equals lambda*T0") is the same computation.

The total upload bandwidth to serve chunk i is then s_i = R * m_i, which in
the client-server mode is exactly the cloud capacity Delta_i to provision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike

from repro.queueing.jackson import (
    TrafficSolution,
    external_arrival_vector,
    solve_validated,
)
from repro.queueing.transitions import validate_transition_matrix

__all__ = ["CapacityModel", "ChannelCapacityResult", "required_servers",
           "size_queues", "solve_channel_capacity"]


@dataclass(frozen=True)
class CapacityModel:
    """Physical parameters tying the queueing model to the cloud.

    Attributes
    ----------
    streaming_rate:
        Playback rate r in bytes/second.
    chunk_duration:
        Playback time T0 of one chunk, seconds. Chunk size is r * T0 bytes.
    vm_bandwidth:
        Bandwidth R of one VM in bytes/second; must exceed ``streaming_rate``
        so a chunk can be fetched within its own playback time.
    """

    streaming_rate: float
    chunk_duration: float
    vm_bandwidth: float

    def __post_init__(self) -> None:
        if self.streaming_rate <= 0:
            raise ValueError(f"streaming rate must be > 0, got {self.streaming_rate}")
        if self.chunk_duration <= 0:
            raise ValueError(f"chunk duration must be > 0, got {self.chunk_duration}")
        if self.vm_bandwidth <= self.streaming_rate:
            raise ValueError(
                "VM bandwidth R must exceed the streaming rate r "
                f"(got R={self.vm_bandwidth}, r={self.streaming_rate})"
            )

    @property
    def chunk_size_bytes(self) -> float:
        """Size of one chunk, r * T0 bytes."""
        return self.streaming_rate * self.chunk_duration

    @property
    def service_rate(self) -> float:
        """mu = R / (r * T0): chunk downloads per second per server."""
        return self.vm_bandwidth / self.chunk_size_bytes


def size_queues(
    arrival_rates: ArrayLike,
    service_rate: float,
    target_sojourn: float,
    *,
    max_servers: int = 10_000_000,
) -> Tuple[np.ndarray, np.ndarray]:
    """Minimal stable M/M/m server counts for an array of queues.

    For every arrival rate lambda_i, finds the least m_i with a stable
    M/M/m queue whose mean sojourn is at most ``target_sojourn``, and
    returns ``(servers, expected_in_system)``: m_i and E[n_i] at that
    m_i, arrays of the rates' shape.  An idle queue (lambda_i = 0) needs
    0 servers and holds E[n] = 0.

    Every queue advances in lock step: step k extends each one's Erlang-B
    recursion B(k, a) from B(k-1, a), and a queue whose k has reached its
    smallest stable count and whose E[n] meets Little's target stops
    there and leaves the active set, so the whole search costs the sum
    of the m_i, not (queues x max m_i).  The element-wise arithmetic is
    the scalar recursion's, in its order, so each m_i and E[n_i] is
    bitwise what a one-queue search (or a fresh
    :func:`~repro.queueing.erlang.mmm_expected_number_in_system` at m_i)
    gives.

    Raises ``ValueError`` on a negative or non-finite rate, a
    non-positive service rate or target, a target below the bare service
    time 1/mu (no server count achieves it) while some queue is busy, or
    when a search exceeds ``max_servers``.
    """
    lam = np.asarray(arrival_rates, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise ValueError(
            f"arrival rate must be finite, got {lam[~np.isfinite(lam)].flat[0]}"
        )
    if np.any(lam < 0):
        raise ValueError(f"arrival rate must be >= 0, got {lam.min()}")
    if service_rate <= 0:
        raise ValueError(f"service rate must be > 0, got {service_rate}")
    if target_sojourn <= 0:
        raise ValueError(f"target sojourn must be > 0, got {target_sojourn}")
    servers = np.zeros(lam.shape, dtype=int)
    in_system = np.zeros(lam.shape, dtype=float)
    busy = np.flatnonzero(lam > 0)
    if busy.size == 0:
        return servers, in_system
    if target_sojourn < 1.0 / service_rate:
        raise ValueError(
            f"target sojourn {target_sojourn} < service time {1.0 / service_rate}; "
            "no server count can achieve it"
        )

    rates = lam.reshape(-1)[busy]
    a = rates / service_rate  # offered load
    # Little's law target, with the search's acceptance slack folded in.
    target = rates * target_sojourn + 1e-12
    stable = np.maximum(np.floor(a) + 1.0, 1.0)  # smallest stable m
    # With infinitely many servers E[n] -> a <= target, so every queue
    # stops.  Below its stable count a queue only carries the recursion;
    # the E[n] lanes computed there are masked out (their m - a <= 0).
    b = np.ones_like(a)
    flat_servers = servers.reshape(-1)
    flat_in_system = in_system.reshape(-1)
    m = 1
    with np.errstate(divide="ignore", invalid="ignore"):
        while busy.size:
            if m > max_servers:
                raise ValueError(
                    f"exceeded max_servers={max_servers} searching for capacity"
                )
            b = a * b / (m + a * b)  # Erlang-B step: B(m, a) from B(m-1, a)
            c = m * b / (m - a * (1.0 - b))  # Erlang-C conversion
            n = a + c * a / (m - a)  # E[n] = a + Lq
            done = (stable <= m) & (n <= target)
            if done.any():
                flat_servers[busy[done]] = m
                flat_in_system[busy[done]] = n[done]
                keep = ~done
                busy, a, b, target, stable = (
                    busy[keep], a[keep], b[keep], target[keep], stable[keep]
                )
            m += 1
    return servers, in_system


def required_servers(
    arrival_rate: float,
    service_rate: float,
    target_sojourn: float,
    *,
    max_servers: int = 10_000_000,
) -> int:
    """Minimal m with a stable M/M/m queue whose mean sojourn <= target.

    The one-queue call of :func:`size_queues`: returns 0 when
    ``arrival_rate`` is 0 (an idle queue needs no capacity) and raises
    ``ValueError`` when the target is infeasible, i.e. smaller than the
    bare service time 1/mu (no number of servers can beat that), or if
    the search exceeds ``max_servers``.
    """
    servers, _ = size_queues(
        arrival_rate, service_rate, target_sojourn, max_servers=max_servers
    )
    return int(servers)


@dataclass(frozen=True)
class ChannelCapacityResult:
    """Equilibrium capacity demand for one channel (client-server mode)."""

    model: CapacityModel
    traffic: TrafficSolution
    servers: np.ndarray = field(repr=False)  # m_i per chunk queue
    expected_in_system: np.ndarray = field(repr=False)  # E[n_i]

    @property
    def arrival_rates(self) -> np.ndarray:
        return self.traffic.arrival_rates

    @property
    def upload_bandwidth(self) -> np.ndarray:
        """s_i = R * m_i, bytes/second per chunk."""
        return self.model.vm_bandwidth * self.servers

    @property
    def cloud_demand(self) -> np.ndarray:
        """Delta_i for the client-server mode (all demand hits the cloud)."""
        return self.upload_bandwidth

    @property
    def total_servers(self) -> int:
        return int(self.servers.sum())

    @property
    def total_bandwidth(self) -> float:
        return float(self.upload_bandwidth.sum())

    @property
    def expected_population(self) -> float:
        """Expected number of concurrent users in the channel."""
        return float(self.expected_in_system.sum())

    @property
    def little_target(self) -> np.ndarray:
        """Per-queue population target lambda_i * T0 (Little's law at the
        design sojourn). With surplus capacity the *downloading* population
        E[n_i] falls below this, but each viewer still occupies the chunk's
        playback slot — so this is the right per-chunk basis for streaming
        demand and for chunk ownership in the P2P analysis."""
        return self.traffic.arrival_rates * self.model.chunk_duration


def solve_channel_capacity(
    model: CapacityModel,
    transition_matrix: np.ndarray,
    external_rate: float,
    *,
    alpha: float = 0.8,
    external_rates: Optional[np.ndarray] = None,
) -> ChannelCapacityResult:
    """End-to-end capacity analysis of one channel (paper Section IV-B).

    Solves the traffic equations for the channel, then sizes every chunk
    queue for a mean sojourn time of T0.

    Parameters
    ----------
    model:
        Physical parameters (r, T0, R).
    transition_matrix:
        Chunk-transfer matrix P^(c).
    external_rate:
        Channel arrival rate Lambda^(c), users/second. Ignored when
        ``external_rates`` is supplied.
    alpha:
        Fraction of arrivals starting at chunk 1.
    external_rates:
        Optional explicit per-chunk external arrival vector; overrides the
        (``external_rate``, ``alpha``) split.
    """
    p = validate_transition_matrix(transition_matrix)
    if external_rates is None:
        ext = external_arrival_vector(p.shape[-1], external_rate, alpha)
    else:
        ext = np.asarray(external_rates, dtype=float)
    return capacity_from_valid(model, p, ext)


def capacity_from_valid(
    model: CapacityModel, p: np.ndarray, external_rates: np.ndarray
) -> ChannelCapacityResult:
    """The Section IV-B pipeline over a validated stack of channels.

    ``p`` is ``(..., J, J)`` as returned by
    :func:`~repro.queueing.transitions.validate_transition_matrix` and
    ``external_rates`` is ``(..., J)``: one stacked traffic solve, then
    one lock-step :func:`size_queues` over every chunk queue.  The
    result's arrays carry the same leading axes.
    :func:`solve_channel_capacity` is its one-channel call.
    """
    traffic = solve_validated(p, external_rates)
    servers, in_system = size_queues(
        traffic.arrival_rates, model.service_rate, model.chunk_duration
    )
    return ChannelCapacityResult(
        model=model, traffic=traffic, servers=servers, expected_in_system=in_system
    )

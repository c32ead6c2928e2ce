"""Event-driven Jackson-network simulator (analysis validation).

Simulates one channel exactly as the Section IV model describes it: Poisson
external arrivals split by alpha, J chunk queues each with m_i servers of
exponential service rate mu, FIFO waiting rooms, and chunk-to-chunk
movement following the transfer matrix P. Peers keep downloaded chunks
until departure, so the simulator also measures the ownership counts
nu_i that Proposition 1 predicts.

This stochastic twin exists to validate the closed-form analysis
(:mod:`repro.queueing`, :mod:`repro.p2p.ownership`) against sample paths;
the production experiments use the faster fluid simulator.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Set, Tuple

import numpy as np

from repro.queueing.jackson import external_arrival_vector
from repro.queueing.transitions import validate_transition_matrix
from repro.sim.rng import make_rng

__all__ = ["JacksonChannelSimulator", "QueueSimResult"]


@dataclass
class _Job:
    job_id: int
    queue: int
    enqueued_at: float
    owned: Set[int] = field(default_factory=set)


@dataclass
class QueueSimResult:
    """Measured equilibrium statistics of one simulated channel."""

    mean_in_system: np.ndarray  # time-average E[n_i]
    mean_sojourn: np.ndarray  # per-queue mean sojourn of completed visits
    mean_owners: np.ndarray  # time-average nu_i (owners outside queue i)
    completed_visits: np.ndarray
    arrivals: int
    departures: int
    horizon: float


class JacksonChannelSimulator:
    """One channel as an open Jackson network of M/M/m_i queues."""

    def __init__(
        self,
        transition_matrix: np.ndarray,
        external_rate: float,
        service_rate: float,
        servers: np.ndarray,
        *,
        alpha: float = 0.8,
        seed: int = 0,
    ) -> None:
        """Create the simulator.

        Every queue visit takes a full service, even when the job already
        owns the chunk: pure Jackson semantics, as Section IV models it.
        """
        self.p = validate_transition_matrix(transition_matrix)
        self.num_queues = self.p.shape[0]
        if external_rate < 0:
            raise ValueError("external rate must be >= 0")
        if not (math.isfinite(service_rate) and service_rate > 0):
            raise ValueError("service rate must be finite and > 0")
        self.servers = np.asarray(servers, dtype=int)
        if self.servers.shape != (self.num_queues,):
            raise ValueError("need one server count per queue")
        if np.any(self.servers < 0):
            raise ValueError("server counts must be >= 0")
        self.external_rate = float(external_rate)
        self.service_rate = float(service_rate)
        self.alpha = alpha
        self.ext = external_arrival_vector(self.num_queues, external_rate, alpha)
        self.rng = make_rng(seed, "queue-sim")
        # The event heap: (time, seq, action); seq breaks time ties in
        # scheduling order, so the run is deterministic.
        self.now = 0.0
        self._events: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._cumulative = np.cumsum(self.p, axis=1)

        self._job_counter = 0
        self.waiting: List[Deque[_Job]] = [deque() for _ in range(self.num_queues)]
        self.in_service: List[Dict[int, _Job]] = [dict() for _ in range(self.num_queues)]
        # Time-integrals for time-average statistics.
        self._area_n = np.zeros(self.num_queues)
        self._area_owners = np.zeros(self.num_queues)
        self._last_stat_time = 0.0
        self._owners_now = np.zeros(self.num_queues)
        # Owners of chunk i currently *inside* queue i (re-downloads);
        # Proposition 1's nu_i excludes them from the supplier count.
        self._inqueue_owners = np.zeros(self.num_queues)
        self._sojourn_sum = np.zeros(self.num_queues)
        self._visits = np.zeros(self.num_queues, dtype=np.int64)
        self.arrivals = 0
        self.departures = 0
        self._warmup_end = 0.0

    # ------------------------------------------------------------------
    def _schedule(self, delay: float, action: Callable[[], None]) -> None:
        heapq.heappush(self._events, (self.now + delay, next(self._seq), action))

    def _accrue(self) -> None:
        now = self.now
        dt = now - self._last_stat_time
        if dt > 0 and now > self._warmup_end:
            effective = min(dt, now - max(self._last_stat_time, self._warmup_end))
            counts = np.array(
                [len(w) + len(s) for w, s in zip(self.waiting, self.in_service)],
                dtype=float,
            )
            self._area_n += counts * effective
            self._area_owners += (
                self._owners_now - self._inqueue_owners
            ) * effective
        self._last_stat_time = now

    # ------------------------------------------------------------------
    def _schedule_external_arrival(self, queue: int) -> None:
        rate = self.ext[queue]
        if rate <= 0:
            return
        delay = self.rng.exponential(1.0 / rate)
        self._schedule(delay, lambda q=queue: self._external_arrival(q))

    def _external_arrival(self, queue: int) -> None:
        self._accrue()
        self.arrivals += 1
        self._job_counter += 1
        job = _Job(self._job_counter, queue, self.now)
        self._enqueue(job, queue)
        self._schedule_external_arrival(queue)

    def _enqueue(self, job: _Job, queue: int) -> None:
        job.queue = queue
        job.enqueued_at = self.now
        if queue in job.owned:  # re-download: an owner temporarily in-queue
            self._inqueue_owners[queue] += 1
        if len(self.in_service[queue]) < self.servers[queue]:
            self._start_service(job, queue)
        else:
            self.waiting[queue].append(job)

    def _start_service(self, job: _Job, queue: int) -> None:
        self.in_service[queue][job.job_id] = job
        delay = self.rng.exponential(1.0 / self.service_rate)
        self._schedule(delay, lambda j=job, q=queue: self._complete_service(j, q))

    def _complete_service(self, job: _Job, queue: int) -> None:
        self._accrue()
        del self.in_service[queue][job.job_id]
        self._sojourn_sum[queue] += self.now - job.enqueued_at
        self._visits[queue] += 1
        # The job now owns the chunk it just downloaded.
        if queue not in job.owned:
            job.owned.add(queue)
            self._owners_now[queue] += 1
        else:  # re-download finished: no longer an in-queue owner
            self._inqueue_owners[queue] -= 1
        # Pull the next waiter into service.
        if self.waiting[queue]:
            self._start_service(self.waiting[queue].popleft(), queue)
        # Route the job.
        cum = self._cumulative[queue]
        u = self.rng.random()
        if u >= cum[-1]:
            self._depart(job)
        else:
            self._enqueue(job, int(np.searchsorted(cum, u, side="right")))

    def _depart(self, job: _Job) -> None:
        self.departures += 1
        for chunk in job.owned:
            self._owners_now[chunk] -= 1

    # ------------------------------------------------------------------
    def run(self, horizon: float, *, warmup: float = 0.0) -> QueueSimResult:
        """Simulate for ``horizon`` seconds (discarding ``warmup``)."""
        if horizon <= warmup:
            raise ValueError("horizon must exceed warmup")
        self._warmup_end = warmup
        for q in range(self.num_queues):
            self._schedule_external_arrival(q)
        events = self._events
        while events and events[0][0] <= horizon:
            self.now, _, action = heapq.heappop(events)
            action()
        self.now = horizon
        self._accrue()
        measured = horizon - warmup
        mean_sojourn = np.divide(
            self._sojourn_sum,
            np.maximum(self._visits, 1),
            out=np.zeros(self.num_queues),
            where=self._visits > 0,
        )
        return QueueSimResult(
            mean_in_system=self._area_n / measured,
            mean_sojourn=mean_sojourn,
            mean_owners=self._area_owners / measured,
            completed_visits=self._visits.copy(),
            arrivals=self.arrivals,
            departures=self.departures,
            horizon=measured,
        )

"""Jackson queueing-network analysis (paper Section IV).

The CloudMedia capacity analysis models every chunk of every channel as an
M/M/m queue inside an open Jackson network:

* :mod:`repro.queueing.erlang` — M/M/m stationary quantities (Erlang B/C,
  queue-length and sojourn-time moments), computed with numerically stable
  recursions.
* :mod:`repro.queueing.jackson` — the traffic equations (paper Eqn (1)):
  per-queue arrival rates from external arrivals and the chunk-transfer
  matrix.
* :mod:`repro.queueing.transitions` — builders and validators for
  chunk-transfer probability matrices P^(c) encoding viewing behaviour.
* :mod:`repro.queueing.capacity` — the equilibrium server-count solver:
  the minimal m_i per queue such that the mean sojourn time is at most the
  chunk playback time T0 (Little's law on paper Eqn (3)).
"""

from repro.queueing.capacity import (
    CapacityModel,
    ChannelCapacityResult,
    required_servers,
    solve_channel_capacity,
)
from repro.queueing.erlang import (
    MMmQueueStats,
    erlang_b,
    erlang_c,
    mmm_expected_number_in_system,
    mmm_expected_sojourn_time,
    mmm_stationary_distribution,
    mmm_stats,
)
from repro.queueing.jackson import (
    TrafficSolution,
    external_arrival_vector,
    solve_traffic_equations,
)
from repro.queueing.startup import StartupDelayModel, channel_startup_delay
from repro.queueing.transitions import (
    empirical_transition_matrix,
    mixture_matrix,
    sequential_matrix,
    uniform_jump_matrix,
    validate_transition_matrix,
)

__all__ = [
    "CapacityModel",
    "ChannelCapacityResult",
    "required_servers",
    "solve_channel_capacity",
    "MMmQueueStats",
    "erlang_b",
    "erlang_c",
    "mmm_expected_number_in_system",
    "mmm_expected_sojourn_time",
    "mmm_stationary_distribution",
    "mmm_stats",
    "TrafficSolution",
    "external_arrival_vector",
    "solve_traffic_equations",
    "StartupDelayModel",
    "channel_startup_delay",
    "empirical_transition_matrix",
    "mixture_matrix",
    "sequential_matrix",
    "uniform_jump_matrix",
    "validate_transition_matrix",
]

"""P2P VoD bandwidth-contribution analysis (paper Section IV-C).

In the P2P mode the upload bandwidth s_i = R * m_i required to serve chunk i
is split between the cloud (Delta_i) and the peers who own the chunk
(Gamma_i):

* :mod:`repro.p2p.ownership` — Proposition 1: the equilibrium distribution
  of chunk-i owners across the chunk queues, and the total owner count
  nu_i.
* :mod:`repro.p2p.contribution` — Eqn (5): peer upload contribution under
  rarest-first scheduling, and the resulting cloud supplement
  Delta_i = R*m_i - Gamma_i read in consistent units (the module
  docstring gives the unit reconciliation). The paper relegates the
  co-ownership probability Psi(pi_j, pi_k) that Eqn (5) deducts with to
  an unavailable technical report; the independence product of the
  ownership fractions stands in for it.

Both run over a stack of channels at once; :func:`solve_ownership` and
:func:`solve_p2p_channel_capacity` are their one-channel calls.
"""

from repro.p2p.contribution import (
    P2PCapacityResult,
    peer_contribution,
    solve_p2p_channel_capacity,
)
from repro.p2p.ownership import OwnershipResult, solve_ownership

__all__ = [
    "P2PCapacityResult",
    "peer_contribution",
    "solve_p2p_channel_capacity",
    "OwnershipResult",
    "solve_ownership",
]

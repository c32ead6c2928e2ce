"""Differential tests: the batched Section IV demand path against the
scalar per-channel one it replaced.

The oracle below is the per-channel analysis as it stood before the
control plane was batched: the scalar M/M/m server search, one
``np.linalg.solve`` per channel, E[n] recomputed from scratch per chunk,
the per-channel ``estimate_channel`` body, and the scalar P2P path: one
``np.linalg.solve`` per chunk for Proposition 1 and the rarest-first
loop of Eqn (5) over a co-ownership callable Psi.  The batched
:meth:`DemandEstimator.estimate_all`, and the stacked
:func:`ownership_from_valid` and :func:`peer_contribution` under it,
must reproduce it bit for bit, and must reject exactly the inputs it
rejects, and one more: a NaN peer upload, which the oracle clamps to 0.0
and :func:`peer_contribution` rejects.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core.demand import ChannelDemand, DemandEstimator
from repro.p2p.contribution import cloud_supplement, peer_contribution
from repro.p2p.ownership import ownership_from_valid
from repro.queueing.capacity import CapacityModel, size_queues
from repro.queueing.erlang import mmm_expected_number_in_system
from repro.queueing.transitions import (
    empirical_transition_matrix,
    validate_transition_matrix,
)
from repro.vod.tracker import IntervalStats

R = 10e6 / 8.0
r = 50_000.0
T0 = 300.0
MODEL = CapacityModel(streaming_rate=r, chunk_duration=T0, vm_bandwidth=R)


# ----------------------------------------------------------------------
# The scalar oracle
# ----------------------------------------------------------------------
def oracle_required_servers(
    arrival_rate, service_rate, target_sojourn, *, max_servers=10_000_000
):
    if arrival_rate < 0:
        raise ValueError(f"arrival rate must be >= 0, got {arrival_rate}")
    if service_rate <= 0:
        raise ValueError(f"service rate must be > 0, got {service_rate}")
    if target_sojourn <= 0:
        raise ValueError(f"target sojourn must be > 0, got {target_sojourn}")
    if arrival_rate == 0.0:
        return 0
    if target_sojourn < 1.0 / service_rate:
        raise ValueError("no server count can achieve the target")
    offered = arrival_rate / service_rate
    target_in_system = arrival_rate * target_sojourn
    m = max(1, math.floor(offered) + 1)
    a = offered
    b = 1.0
    for k in range(1, m):
        b = a * b / (k + a * b)
    while m <= max_servers:
        b = a * b / (m + a * b)
        c = m * b / (m - a * (1.0 - b))
        in_system = a + c * a / (m - a)
        if in_system <= target_in_system + 1e-12:
            return m
        m += 1
    raise ValueError(f"exceeded max_servers={max_servers}")


def oracle_capacity(matrix, rate, alpha):
    """(P, servers, E[n], lambda) of one channel, the scalar way."""
    p = validate_transition_matrix(matrix)
    j = p.shape[0]
    ext = np.zeros(j)
    if j == 1:
        ext[0] = rate
    else:
        ext[0] = alpha * rate
        ext[1:] = (1.0 - alpha) * rate / (j - 1)
    if np.any(ext < 0):
        raise ValueError("negative external rate")
    lam = np.linalg.solve(np.eye(j) - p.T, ext)
    lam = np.where(lam < 0, 0.0, lam)
    mu = MODEL.service_rate
    servers = np.zeros(j, dtype=int)
    in_system = np.zeros(j, dtype=float)
    for i, rate_i in enumerate(lam):
        m = oracle_required_servers(float(rate_i), mu, T0)
        servers[i] = m
        if m > 0 and rate_i > 0:
            in_system[i] = mmm_expected_number_in_system(m, rate_i / mu)
    return p, servers, in_system, lam


def oracle_ownership(p, expected_in_system):
    """(per_queue, owners, population) of one channel: one solve per chunk."""
    n = np.asarray(expected_in_system, dtype=float)
    if n.shape != (p.shape[0],):
        raise ValueError(
            f"expected_in_system shape {n.shape} does not match matrix {p.shape}"
        )
    if np.any(n < 0):
        raise ValueError("expected_in_system must be nonnegative")

    j_total = p.shape[0]
    per_queue = np.zeros((j_total, j_total), dtype=float)

    for i in range(j_total):
        # Unknowns x_j = nu_ij for j != i; x satisfies
        #   x_j = sum_{l != i} x_l P[l, j] + n_i * P[i, j]
        # i.e. (I - P_sub^T) x = n_i * P[i, others]^T where P_sub drops
        # row i and column i.
        others = [j for j in range(j_total) if j != i]
        if not others:
            per_queue[i, i] = n[i]
            continue
        p_sub = p[np.ix_(others, others)]
        rhs = n[i] * p[i, others]
        identity = np.eye(len(others))
        x = np.linalg.solve(identity - p_sub.T, rhs)
        x = np.where(x < 0, 0.0, x)  # clamp numerical noise
        per_queue[i, others] = x
        per_queue[i, i] = n[i]

    owners = per_queue.sum(axis=1) - np.diag(per_queue)
    return per_queue, owners, float(n.sum())


def oracle_independent_coownership(owners, population):
    """Psi(a, b) = f_a * f_b with f the clipped ownership fractions."""
    nu = np.asarray(owners, dtype=float)
    if np.any(nu < 0):
        raise ValueError("owner counts must be nonnegative")
    if population < 0:
        raise ValueError("population must be nonnegative")
    if population == 0:
        fractions = np.zeros_like(nu)
    else:
        fractions = np.clip(nu / population, 0.0, 1.0)

    def psi(chunk_a, chunk_b):
        if chunk_a == chunk_b:
            return float(fractions[chunk_a])
        return float(fractions[chunk_a] * fractions[chunk_b])

    return psi


def oracle_peer_contribution(owners, population, peer_upload, streaming_rate,
                             in_system, coownership=None):
    """Eqn (5) for one channel: the rarest-first loop over a Psi callable."""
    nu = np.asarray(owners, dtype=float)
    if np.any(nu < 0):
        raise ValueError("servers and owners must be nonnegative")
    if peer_upload < 0:
        raise ValueError(f"peer upload must be >= 0, got {peer_upload}")
    if streaming_rate <= 0:
        raise ValueError(f"streaming rate must be > 0, got {streaming_rate}")
    if population < 0:
        raise ValueError("population must be nonnegative")
    n_vec = np.asarray(in_system, dtype=float)
    if n_vec.shape != nu.shape:
        raise ValueError("in_system must match the servers shape")
    if np.any(n_vec < 0):
        raise ValueError("in_system must be nonnegative")

    demands = n_vec * streaming_rate

    if coownership is None:
        coownership = oracle_independent_coownership(nu, population)

    num_chunks = nu.size
    # Rarest-first order: ascending owner count, chunk index breaking ties.
    order = np.lexsort((np.arange(num_chunks), nu))
    gamma = np.zeros(num_chunks, dtype=float)

    for rank, chunk in enumerate(order):
        supply = nu[chunk] * peer_upload
        # Deduct bandwidth that owners of this chunk already committed to
        # every rarer chunk.
        for prev in order[:rank]:
            if gamma[prev] <= 0 or nu[prev] <= 0:
                continue
            both = coownership(int(prev), int(chunk)) * population
            supply -= both * (gamma[prev] / nu[prev])
        gamma[chunk] = min(demands[chunk], max(0.0, supply))
    return gamma


def oracle_estimate_channel(estimator, stats, arrival_rate=None, peer_upload=None):
    rate = stats.arrival_rate if arrival_rate is None else arrival_rate
    matrix = empirical_transition_matrix(
        stats.transition_counts,
        stats.departure_counts,
        prior=estimator.default_prior,
    )
    if rate <= 0:
        j = matrix.shape[0]
        zeros = np.zeros(j)
        return ChannelDemand(stats.channel_id, 0.0, np.zeros(j, dtype=int),
                             zeros, zeros.copy(), zeros.copy())
    p, servers, in_system, lam = oracle_capacity(matrix, rate, stats.observed_alpha)
    if estimator.mode == "client-server":
        cloud = MODEL.vm_bandwidth * servers
        return ChannelDemand(stats.channel_id, rate, servers, cloud,
                             np.zeros_like(cloud), in_system)
    upload = peer_upload if peer_upload is not None else stats.mean_upload_capacity
    populations = lam * T0
    _, owners, population = oracle_ownership(p, populations)
    gamma = oracle_peer_contribution(
        owners, population, max(0.0, upload), MODEL.streaming_rate, populations,
    )
    gamma = estimator.peer_discount * gamma
    delta = cloud_supplement(servers, gamma, MODEL.vm_bandwidth,
                             MODEL.streaming_rate, in_system=populations)
    return ChannelDemand(stats.channel_id, rate, servers, delta, gamma, populations)


def oracle_estimate_all(estimator, interval_stats, arrival_rates=None, peer_upload=None):
    return [
        oracle_estimate_channel(
            estimator, stats,
            arrival_rates.get(stats.channel_id) if arrival_rates is not None else None,
            peer_upload,
        )
        for stats in interval_stats
    ]


def _outcome(call):
    try:
        return call(), None
    except ValueError as exc:
        return None, exc


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
# The bulk arrays come from a drawn seed: fast to generate, and still
# replayable from the failing example.
SEEDS = st.integers(0, 2**32 - 1)
RATES = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=3.0),
)


@st.composite
def prior_matrix(draw, j):
    """A valid prior: the default, a random substochastic one, or a shift
    whose rows sum to 1 (inf-norm 1, so validation takes the eigenvalue
    branch, and accepts: the shift is nilpotent)."""
    kind = draw(st.sampled_from(["default", "random", "shift"]))
    if kind == "default":
        return None
    if kind == "shift":
        return np.eye(j, k=1)
    p = np.random.default_rng(draw(SEEDS)).random((j, j))
    return p / np.maximum(p.sum(axis=1, keepdims=True), 1e-9) * draw(st.floats(0.1, 0.9))


@st.composite
def channel_stats(draw, channel_id, j):
    rng = np.random.default_rng(draw(SEEDS))
    counts = rng.integers(0, 21, (j, j)).astype(float)
    departures = rng.integers(0, 21, j).astype(float)
    if draw(st.booleans()):  # an unobserved row takes the prior verbatim
        row = draw(st.integers(0, j - 1))
        counts[row] = 0.0
        departures[row] = 0.0
    elif draw(st.booleans()):  # an observed row without departures
        departures[draw(st.integers(0, j - 1))] = 0.0
    starts = rng.integers(0, 6, j).astype(float)
    samples = draw(st.integers(0, 5))
    return IntervalStats(
        channel_id=channel_id,
        interval_seconds=300.0,
        arrivals=draw(st.integers(0, 600)),
        transition_counts=counts,
        departure_counts=departures,
        upload_capacity_sum=samples * draw(st.floats(0.0, 3.0)) * r,
        upload_capacity_samples=samples,
        start_chunk_counts=starts,
    )


@st.composite
def scenarios(draw, mode):
    n = draw(st.integers(1, 6))
    # Plant, in one channel, an input both paths must reject.
    fault = draw(st.sampled_from([None] * 4 + ["superstochastic", "cycle", "negative"]))
    prior = None
    if fault in ("superstochastic", "cycle") or draw(st.booleans()):
        # One prior serves every channel, so they share its chunk count.
        chunk_counts = [draw(st.integers(1, 16))] * n
        prior = draw(prior_matrix(chunk_counts[0]))
    else:
        chunk_counts = [draw(st.integers(1, 16)) for _ in range(n)]
    stats = [draw(channel_stats(c, j)) for c, j in enumerate(chunk_counts)]
    if fault is not None:
        victim = draw(st.integers(0, n - 1))
        j = chunk_counts[victim]
        if fault == "negative":
            stats[victim].transition_counts[0, 0] = -1.0
        else:
            # A prior shows through verbatim on rows without observations.
            stats[victim].transition_counts[:] = 0.0
            stats[victim].departure_counts[:] = 0.0
            prior = (
                np.full((j, j), 1.5 / j)
                if fault == "superstochastic"
                else np.roll(np.eye(j), 1, axis=1)  # spectral radius 1
            )
        event(f"fault: {fault}")
    overrides = None
    if draw(st.booleans()):
        overrides = {
            c: draw(RATES) for c in range(n) if draw(st.booleans())
        }
    estimator = DemandEstimator(MODEL, mode, default_prior=prior)
    # A negative override reaches the max(0.0, u) clamp; a NaN one is
    # rejected once a busy channel reaches the rarest-first pass.
    peer_upload = draw(st.one_of(
        st.none(),
        st.floats(0.0, 3.0).map(lambda u: u * r),
        st.sampled_from([-r, float("nan")]),
    ))
    return estimator, stats, overrides, peer_upload


FIELDS = ("servers", "cloud_demand", "peer_bandwidth", "expected_in_system")


def assert_bitwise(batched, oracle):
    assert len(batched) == len(oracle)
    for got, want in zip(batched, oracle):
        assert got.channel_id == want.channel_id
        assert got.arrival_rate == want.arrival_rate
        for name in FIELDS:
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and g.shape == w.shape, name
            assert g.tobytes() == w.tobytes(), name


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
class TestEstimateAllMatchesScalarOracle:
    @pytest.mark.parametrize("mode", ["client-server", "p2p"])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_bitwise_and_error_parity(self, mode, data):
        estimator, stats, overrides, peer_upload = data.draw(scenarios(mode))
        want, want_exc = _outcome(lambda: oracle_estimate_all(
            estimator, stats, overrides, peer_upload))
        got, got_exc = _outcome(lambda: estimator.estimate_all(
            stats, arrival_rates=overrides, peer_upload=peer_upload))
        if (want_exc is None and mode == "p2p" and peer_upload is not None
                and math.isnan(peer_upload)
                and any(d.arrival_rate > 0 for d in want)):
            # The oracle clamps a NaN upload to 0.0; the batch rejects it.
            event("NaN upload rejected")
            assert got_exc is not None and "finite" in str(got_exc)
            return
        event("rejected" if want_exc else "accepted")
        if want_exc is not None:
            assert got_exc is not None, f"oracle rejected: {want_exc}"
            return
        assert got_exc is None, f"batch rejected what the oracle accepts: {got_exc}"
        assert_bitwise(got, want)

    @pytest.mark.parametrize("mode", ["client-server", "p2p"])
    def test_non_finite_rate_rejected_by_both(self, mode):
        estimator = DemandEstimator(MODEL, mode)
        stats = [IntervalStats(0, 300.0, 5, np.zeros((3, 3)), np.zeros(3),
                               start_chunk_counts=np.ones(3))]
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                oracle_estimate_all(estimator, stats, {0: bad})
            with pytest.raises(ValueError, match="finite"):
                estimator.estimate_all(stats, arrival_rates={0: bad})



@st.composite
def p2p_stacks(draw):
    """A validated (C, J, J) stack with populations that exercise the
    rarest-first corners: owner-count ties, all-zero rows, skewed rows
    (nu_i > N, so the fractions clip) and one upload per row."""
    c = draw(st.integers(1, 6))
    j = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(SEEDS))
    p = rng.random((c, j, j)) * (rng.random((c, j, j)) < 0.6)
    p = p / np.maximum(p.sum(axis=-1, keepdims=True), 1e-9)
    p = p * rng.uniform(0.1, 0.9, (c, j, 1))
    populations = rng.uniform(0.0, 40.0, (c, j))
    kind = draw(st.sampled_from(["uniform", "integer", "skewed"]))
    if kind == "integer":  # few distinct values: owner-count ties
        populations = rng.integers(0, 3, (c, j)).astype(float)
    elif kind == "skewed":  # one crowded chunk: owners exceed N elsewhere
        populations *= 1e-3
        populations[:, rng.integers(0, j)] = 100.0
    populations[rng.random((c, j)) < 0.2] = 0.0
    if draw(st.booleans()):
        populations[draw(st.integers(0, c - 1))] = 0.0
    uploads = rng.uniform(0.0, 3.0, c) * r
    uploads[rng.random(c) < 0.25] = 0.0
    servers = rng.integers(0, 6, (c, j))
    return validate_transition_matrix(p), populations, uploads, servers


class TestP2PSplitMatchesScalarOracle:
    @given(stack=p2p_stacks())
    @settings(max_examples=150, deadline=None)
    def test_bitwise(self, stack):
        p, populations, uploads, servers = stack
        ownership = ownership_from_valid(p, populations)
        gamma = peer_contribution(ownership.owners, ownership.population,
                                  uploads, r, in_system=populations)
        delta = cloud_supplement(servers, gamma, R, r, in_system=populations)
        for k in range(p.shape[0]):
            per_queue, owners, population = oracle_ownership(p[k], populations[k])
            want_gamma = oracle_peer_contribution(
                owners, population, float(uploads[k]), r, populations[k])
            want_delta = cloud_supplement(servers[k], want_gamma, R, r,
                                          in_system=populations[k])
            assert ownership.per_queue[k].tobytes() == per_queue.tobytes()
            assert ownership.owners[k].tobytes() == owners.tobytes()
            assert float(ownership.population[k]) == population
            assert gamma[k].tobytes() == want_gamma.tobytes()
            assert delta[k].tobytes() == want_delta.tobytes()
            if len(set(owners.tolist())) < owners.size:
                event("owner-count tie")
            if population == 0:
                event("zero population")
            elif np.any(owners > population):
                event("clipped fraction")
            if uploads[k] == 0:
                event("zero upload")

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_contribution_bitwise_and_error_parity(self, data):
        """Owner counts drawn directly, so ties and nu_i > N are common;
        a planted negative entry must be rejected by both paths."""
        c = data.draw(st.integers(1, 6))
        j = data.draw(st.integers(1, 12))
        rng = np.random.default_rng(data.draw(SEEDS))
        owners = rng.integers(0, 6, (c, j)).astype(float) * data.draw(
            st.sampled_from([1.0, 0.37, 25.0]))
        in_system = rng.uniform(0.0, 10.0, (c, j))
        population = in_system.sum(axis=-1) * rng.choice([0.0, 0.5, 1.0, 4.0], c)
        uploads = rng.choice([0.0, 0.4, 1.0, 2.5], c) * r
        fault = data.draw(st.sampled_from(
            [None] * 3 + ["owners", "in_system", "population", "upload"]))
        if fault is not None:
            k = data.draw(st.integers(0, c - 1))
            if fault == "owners":
                owners[k, data.draw(st.integers(0, j - 1))] = -1.0
            elif fault == "in_system":
                in_system[k, data.draw(st.integers(0, j - 1))] = -1.0
            elif fault == "population":
                population[k] = -1.0
            else:
                uploads[k] = -r
        want, want_exc = _outcome(lambda: [
            oracle_peer_contribution(owners[k], float(population[k]),
                                     float(uploads[k]), r, in_system[k])
            for k in range(c)
        ])
        got, got_exc = _outcome(lambda: peer_contribution(
            owners, population, uploads, r, in_system=in_system))
        event("rejected" if want_exc else "accepted")
        assert (got_exc is None) == (want_exc is None), (got_exc, want_exc)
        if want_exc is None:
            for k in range(c):
                assert got[k].tobytes() == want[k].tobytes()


class TestServerSearchMatchesScalarOracle:
    @given(
        rates=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=40.0)),
            min_size=1, max_size=40,
        ),
        service_rate=st.floats(min_value=0.01, max_value=2.0),
        slack=st.floats(min_value=1.0, max_value=50.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_bitwise(self, rates, service_rate, slack):
        target = slack / service_rate
        servers, in_system = size_queues(np.array(rates), service_rate, target)
        for lam, m, n in zip(rates, servers, in_system):
            assert m == oracle_required_servers(lam, service_rate, target)
            want = mmm_expected_number_in_system(m, lam / service_rate) if m else 0.0
            assert np.float64(n).tobytes() == np.float64(want).tobytes()

    @given(
        rates=st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=1, max_size=8),
        max_servers=st.integers(1, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_max_servers_parity(self, rates, max_servers):
        mu, target = 1.0 / 12.0, 300.0
        rejected = False
        for lam in rates:
            try:
                oracle_required_servers(lam, mu, target, max_servers=max_servers)
            except ValueError:
                rejected = True
        got, exc = _outcome(lambda: size_queues(
            np.array(rates), mu, target, max_servers=max_servers))
        assert (exc is not None) == rejected

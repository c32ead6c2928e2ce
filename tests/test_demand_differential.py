"""Differential tests: the batched Section IV demand path against the
scalar per-channel one it replaced.

The oracle below is the per-channel analysis as it stood before the
control plane was batched: the scalar M/M/m server search, one
``np.linalg.solve`` per channel, E[n] recomputed from scratch per chunk,
and the per-channel ``estimate_channel`` body.  The batched
:meth:`DemandEstimator.estimate_all` must reproduce it bit for bit, and
must reject exactly the inputs it rejects.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core.demand import ChannelDemand, DemandEstimator
from repro.p2p.contribution import cloud_supplement, peer_contribution
from repro.p2p.ownership import solve_ownership
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


def oracle_estimate_channel(estimator, stats, arrival_rate=None, peer_upload=None):
    rate = stats.arrival_rate if arrival_rate is None else arrival_rate
    rate = max(rate, estimator.min_arrival_rate)
    matrix = empirical_transition_matrix(
        stats.transition_counts,
        stats.departure_counts,
        prior=estimator.prior_matrices.get(stats.channel_id, estimator.default_prior),
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
    ownership = solve_ownership(p, populations)
    gamma = peer_contribution(
        servers, ownership.owners, ownership.population, max(0.0, upload),
        MODEL.streaming_rate, in_system=populations,
        coownership=estimator.coownership,
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
    st.just(0.01),  # the min_arrival_rate floor used below
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
    chunk_counts = [draw(st.integers(1, 16)) for _ in range(n)]
    stats = [draw(channel_stats(c, j)) for c, j in enumerate(chunk_counts)]
    priors = {}
    for c, j in enumerate(chunk_counts):
        prior = draw(prior_matrix(j))
        if prior is not None:
            priors[c] = prior
    # Plant, in one channel, an input both paths must reject.
    fault = draw(st.sampled_from([None] * 4 + ["superstochastic", "cycle", "negative"]))
    if fault is not None:
        victim = draw(st.integers(0, n - 1))
        j = chunk_counts[victim]
        if fault == "negative":
            stats[victim].transition_counts[0, 0] = -1.0
        else:
            # A prior shows through verbatim on rows without observations.
            stats[victim].transition_counts[:] = 0.0
            stats[victim].departure_counts[:] = 0.0
            priors[victim] = (
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
    estimator = DemandEstimator(
        MODEL,
        mode,
        prior_matrices=priors,
        min_arrival_rate=draw(st.sampled_from([0.0, 0.01])),
    )
    peer_upload = draw(st.one_of(st.none(), st.floats(0.0, 3.0).map(lambda u: u * r)))
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

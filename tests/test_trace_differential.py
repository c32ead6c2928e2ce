"""Differential tests: the array trace builders against the per-session
and inline-thinning builders they replaced.

The oracles below are the trace paths as they stood before there was one
trace representation: the closed-loop ``generate_trace`` building one
record per session with a scalar ``DiurnalPattern.factor`` callback per
thinning candidate, a stable Python sort and the stable-argsort array
conversion; and the catalog's ``channel_sessions`` with its own inline
copy of the thinning.  The current builders must reproduce both bit for
bit: same draws from the same streams, same merge order, same dtypes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import make_rng
from repro.workload.arrivals import poisson_arrival_times
from repro.workload.catalog import (
    CatalogConfig,
    channel_sessions,
    channel_shapes,
)
from repro.workload.diurnal import DiurnalPattern
from repro.workload.trace import TraceConfig, generate_trace


# ----------------------------------------------------------------------
# The oracles
# ----------------------------------------------------------------------
def oracle_thinning(rng, rate_fn, horizon, rate_ceiling):
    candidates = poisson_arrival_times(rng, rate_ceiling, horizon)
    if candidates.size == 0:
        return candidates
    accept_probs = np.array([rate_fn(t) for t in candidates]) / rate_ceiling
    assert not np.any(accept_probs > 1 + 1e-9)
    keep = rng.random(candidates.size) < accept_probs
    return candidates[keep]


def oracle_start_chunk(rng, num_chunks, alpha):
    if num_chunks == 1 or rng.random() < alpha:
        return 0
    return int(rng.integers(1, num_chunks))


def oracle_generate_trace(config, channel_rates=None):
    """Per-session rows, scalar rate callback, then the array round trip."""
    rates = (
        np.asarray(channel_rates, dtype=float)
        if channel_rates is not None
        else config.channel_rates()
    )
    peak = config.diurnal.peak_factor()
    rows = []
    for channel, mean_rate in enumerate(rates):
        if mean_rate == 0:
            continue
        rng = make_rng(config.seed, "trace", f"channel-{channel}")
        times = oracle_thinning(
            rng,
            lambda t, _r=float(mean_rate): _r * config.diurnal.factor(t),
            config.horizon_seconds,
            rate_ceiling=float(mean_rate) * peak * 1.001,
        )
        starts = [
            oracle_start_chunk(rng, config.chunks_per_channel, config.alpha)
            for _ in times
        ]
        uploads = config.upload_distribution.sample(rng, times.size)
        rows.extend(
            (float(t), channel, start, float(up))
            for t, start, up in zip(times, starts, uploads)
        )
    rows.sort(key=lambda row: row[0])
    times = np.asarray([row[0] for row in rows], dtype=float)
    order = np.argsort(times, kind="stable")
    return (
        times[order],
        np.asarray([row[1] for row in rows], dtype=np.int64)[order],
        np.asarray([row[2] for row in rows], dtype=np.int64)[order],
        np.asarray([row[3] for row in rows], dtype=float)[order],
    )


def oracle_flash_factor(config, shape, times):
    if shape.flash_amplitude <= 0:
        return np.ones_like(times)
    center = config.flash_hour * 3600.0
    sigma = config.flash_width_hours * 3600.0
    return 1.0 + shape.flash_amplitude * np.exp(
        -((times - center) ** 2) / (2.0 * sigma**2)
    )


def oracle_channel_sessions(config, shape):
    """The catalog sampler with its inline vectorized thinning."""
    diurnal = DiurnalPattern()
    rng = make_rng(config.seed, "catalog", "trace",
                   f"channel-{shape.channel_id}")
    if shape.mean_rate <= 0:
        empty = np.empty(0)
        return empty, empty.astype(np.int64), empty.copy()
    ceiling = (
        shape.mean_rate
        * diurnal.peak_factor()
        * (1.0 + shape.flash_amplitude)
        * 1.001
    )
    candidates = poisson_arrival_times(rng, ceiling, config.horizon_seconds)
    if candidates.size:
        rate = (
            shape.mean_rate
            * diurnal.factors(candidates + shape.phase_seconds)
            * oracle_flash_factor(config, shape, candidates)
        )
        keep = rng.random(candidates.size) < rate / ceiling
        times = candidates[keep]
    else:
        times = candidates
    n = times.size
    j = config.chunks_per_channel
    from_start = rng.random(n) < config.alpha
    if j > 1:
        jumps = rng.integers(1, j, size=n)
    else:
        jumps = np.zeros(n, dtype=np.int64)
    starts = np.where(from_start, 0, jumps).astype(np.int64)
    uploads = config.upload_distribution().sample(rng, n)
    return times, starts, uploads


def assert_bitwise(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# Strategies: small workloads, ~1500 expected arrivals at most
# ----------------------------------------------------------------------
alphas = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
horizons = st.floats(60.0, 26 * 3600.0)


@st.composite
def trace_cases(draw):
    num_channels = draw(st.integers(1, 6))
    horizon = draw(horizons)
    expected = draw(st.floats(0.0, 1500.0))
    config = TraceConfig(
        num_channels=num_channels,
        chunks_per_channel=draw(st.integers(1, 8)),
        horizon_seconds=horizon,
        mean_total_arrival_rate=expected / horizon,
        zipf_exponent=draw(st.floats(0.0, 2.0)),
        alpha=draw(alphas),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    rates = None
    if draw(st.booleans()):
        rates = draw(st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 250.0 / horizon)),
            min_size=num_channels, max_size=num_channels,
        ))
    return config, rates


@st.composite
def catalog_cases(draw):
    horizon_hours = draw(st.floats(0.05, 26.0))
    expected = draw(st.floats(0.0, 1500.0))
    config = CatalogConfig(
        num_channels=draw(st.integers(1, 6)),
        chunks_per_channel=draw(st.integers(1, 6)),
        horizon_seconds=horizon_hours * 3600.0,
        mean_arrival_rate=expected / (horizon_hours * 3600.0),
        seed=draw(st.integers(0, 2**32 - 1)),
        zipf_exponent=draw(st.floats(0.0, 2.0)),
        alpha=draw(alphas),
        phase_jitter_hours=draw(st.floats(0.0, 12.0)),
        flash_fraction=draw(st.sampled_from([0.0, 0.3, 1.0])),
        flash_hour=draw(st.floats(0.0, 24.0)),
        flash_width_hours=draw(st.floats(0.1, 3.0)),
        flash_amplitude=draw(st.floats(0.0, 6.0)),
    )
    zeroed = draw(st.sets(st.integers(0, config.num_channels - 1)))
    shapes = [
        replace(shape, mean_rate=0.0) if shape.channel_id in zeroed else shape
        for shape in channel_shapes(config)
    ]
    return config, shapes


# ----------------------------------------------------------------------
# The differential properties
# ----------------------------------------------------------------------
@given(case=trace_cases())
@settings(max_examples=100, deadline=None)
def test_generate_trace_matches_per_session_oracle(case):
    config, rates = case
    trace = generate_trace(config, channel_rates=rates)
    assert_bitwise(
        (trace.times, trace.channels, trace.start_chunks,
         trace.upload_capacities),
        oracle_generate_trace(config, rates),
    )


@given(case=catalog_cases())
@settings(max_examples=100, deadline=None)
def test_channel_sessions_matches_inline_thinning_oracle(case):
    config, shapes = case
    for shape in shapes:
        assert_bitwise(
            channel_sessions(config, shape),
            oracle_channel_sessions(config, shape),
        )

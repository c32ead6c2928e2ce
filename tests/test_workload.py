"""Tests for repro.workload: zipf, diurnal, pareto, arrivals, trace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import make_rng
from repro.workload.arrivals import (
    interval_rates,
    nonhomogeneous_poisson_times,
    poisson_arrival_times,
)
from repro.workload.diurnal import DiurnalPattern
from repro.workload.pareto import BoundedPareto
from repro.workload.trace import TraceConfig, generate_trace
from repro.workload.zipf import assign_channel_rates, zipf_weights


class TestZipf:
    def test_weights_normalized(self):
        w = zipf_weights(20, 0.8)
        assert w.sum() == pytest.approx(1.0)

    def test_weights_decreasing(self):
        w = zipf_weights(10, 0.8)
        assert np.all(np.diff(w) < 0)

    def test_exponent_zero_uniform(self):
        w = zipf_weights(5, 0.0)
        assert np.allclose(w, 0.2)

    def test_rates_sum_to_total(self):
        rates = assign_channel_rates(3.0, 7, 1.0)
        assert rates.sum() == pytest.approx(3.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(5, -1.0)
        with pytest.raises(ValueError):
            assign_channel_rates(-1.0, 5)


class TestDiurnal:
    def test_daily_mean_is_one(self):
        pattern = DiurnalPattern()
        times = np.linspace(0, 86400, 24 * 60, endpoint=False)
        assert np.mean(pattern.factors(times)) == pytest.approx(1.0, rel=1e-3)

    def test_two_flash_crowds(self):
        """The pattern must peak around noon and in the evening."""
        pattern = DiurnalPattern()
        hours = np.arange(0, 24, 0.25)
        values = pattern.factors(hours * 3600.0)
        noon = values[(hours >= 11) & (hours <= 13)].max()
        evening = values[(hours >= 19) & (hours <= 22)].max()
        night = values[(hours >= 2) & (hours <= 5)].max()
        assert noon > 1.2 * night
        assert evening > noon  # the evening crowd is the larger one

    def test_periodicity(self):
        pattern = DiurnalPattern()
        assert pattern.factor(3600.0) == pytest.approx(
            pattern.factor(3600.0 + 86400.0)
        )

    def test_peak_factor(self):
        pattern = DiurnalPattern()
        hours = np.linspace(0, 24, 1440, endpoint=False)
        assert pattern.peak_factor() == pytest.approx(
            pattern.factors(hours * 3600).max(), rel=1e-6
        )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DiurnalPattern(base=-0.1)
        with pytest.raises(ValueError):
            DiurnalPattern(peak_hours=(12.0,), amplitudes=(1.0, 2.0), widths_hours=(1.0,))
        with pytest.raises(ValueError):
            DiurnalPattern(widths_hours=(0.0, 1.0))


class TestPareto:
    def test_samples_in_range(self):
        dist = BoundedPareto()
        samples = dist.sample(make_rng(0, "p"), 5000)
        assert samples.min() >= dist.low
        assert samples.max() <= dist.high

    def test_paper_defaults(self):
        dist = BoundedPareto()
        assert dist.low == pytest.approx(180e3 / 8)
        assert dist.high == pytest.approx(10e6 / 8)
        assert dist.shape == 3.0

    def test_mean_matches_empirical(self):
        dist = BoundedPareto()
        samples = dist.sample(make_rng(0, "p"), 200_000)
        assert samples.mean() == pytest.approx(dist.mean(), rel=0.02)

    def test_scaled_to_mean(self):
        dist = BoundedPareto().scaled_to_mean(50_000.0)
        assert dist.mean() == pytest.approx(50_000.0, rel=1e-9)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BoundedPareto(low=0.0)
        with pytest.raises(ValueError):
            BoundedPareto(low=10.0, high=5.0)
        with pytest.raises(ValueError):
            BoundedPareto().scaled_to_mean(-1.0)


class TestArrivals:
    def test_homogeneous_rate(self):
        rng = make_rng(1, "a")
        times = poisson_arrival_times(rng, rate=2.0, horizon=10_000.0)
        assert len(times) == pytest.approx(20_000, rel=0.05)
        assert np.all(np.diff(times) >= 0)

    def test_zero_rate_empty(self):
        rng = make_rng(1, "a")
        assert poisson_arrival_times(rng, 0.0, 100.0).size == 0

    def test_thinning_matches_mean_rate(self):
        rng = make_rng(2, "a")
        def rate_fn(t):
            return 1.0 + np.sin(2 * np.pi * t / 1000.0) ** 2
        times = nonhomogeneous_poisson_times(rng, rate_fn, 20_000.0, 2.0)
        # Mean of rate_fn is 1.5.
        assert len(times) == pytest.approx(30_000, rel=0.05)

    def test_thinning_rejects_bad_ceiling(self):
        rng = make_rng(3, "a")
        with pytest.raises(ValueError, match="ceiling"):
            nonhomogeneous_poisson_times(rng, lambda t: 5.0, 1000.0, 1.0)

    def test_interval_rates(self):
        times = [0.5, 1.5, 1.6, 2.5]
        rates = interval_rates(times, horizon=3.0, interval=1.0)
        assert rates == pytest.approx([1.0, 2.0, 1.0])

    @given(rate=st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=20, deadline=None)
    def test_interval_rates_average(self, rate):
        rng = make_rng(4, "a")
        horizon = 5000.0
        times = poisson_arrival_times(rng, rate, horizon)
        rates = interval_rates(times, horizon, 500.0)
        assert rates.mean() == pytest.approx(rate, rel=0.25)


class TestTrace:
    def make_config(self, **kw):
        defaults = dict(
            num_channels=4,
            chunks_per_channel=6,
            horizon_seconds=6 * 3600.0,
            mean_total_arrival_rate=0.2,
            seed=11,
        )
        defaults.update(kw)
        return TraceConfig(**defaults)

    def test_deterministic(self):
        a = generate_trace(self.make_config())
        b = generate_trace(self.make_config())
        assert a.num_sessions == b.num_sessions
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.channels, b.channels)

    def test_different_seeds_differ(self):
        a = generate_trace(self.make_config(seed=1))
        b = generate_trace(self.make_config(seed=2))
        assert a.times[:20].tolist() != b.times[:20].tolist()

    def test_sessions_sorted(self):
        trace = generate_trace(self.make_config())
        assert np.all(np.diff(trace.times) >= 0)

    def test_zipf_channel_shares(self):
        trace = generate_trace(
            self.make_config(mean_total_arrival_rate=1.0, horizon_seconds=86400.0)
        )
        counts = np.bincount(trace.channels, minlength=4)
        # Channel 0 is most popular, channel 3 least.
        assert counts[0] > counts[3]

    def test_alpha_start_split(self):
        trace = generate_trace(
            self.make_config(alpha=0.8, mean_total_arrival_rate=1.0)
        )
        starts = trace.start_chunks
        frac0 = np.count_nonzero(starts == 0) / starts.size
        assert frac0 == pytest.approx(0.8 + 0.2 / 6, abs=0.05)

    def test_upload_capacities_in_pareto_range(self):
        trace = generate_trace(self.make_config())
        dist = BoundedPareto()
        for upload in trace.upload_capacities[:200]:
            assert dist.low <= upload <= dist.high

    def test_explicit_channel_rates(self):
        config = self.make_config()
        trace = generate_trace(config, channel_rates=[0.5, 0.0, 0.0, 0.0])
        assert np.all(trace.channels == 0)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            self.make_config(num_channels=0)
        with pytest.raises(ValueError):
            self.make_config(alpha=2.0)
        with pytest.raises(ValueError):
            self.make_config(horizon_seconds=0.0)

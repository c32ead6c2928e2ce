"""Tests for repro.vod.tracker and repro.vod.metrics."""

import pytest

from repro.vod.metrics import QualityTracker
from repro.vod.tracker import TrackingServer


@pytest.fixture
def tracker():
    return TrackingServer(
        num_channels=2, chunks_per_channel=[3, 4], interval_seconds=3600.0
    )


def observe(tracker, channel, *, starts=(), upload=0.0, transitions=(),
            departures=()):
    """Absorb one closed interval of observations for ``channel``:
    arrivals at ``starts`` (each with ``upload``), ``(from, to)`` moves
    and departures from the given chunks."""
    stats = tracker.empty_stats(channel)
    for start in starts:
        stats.arrivals += 1
        stats.start_chunk_counts[start] += 1
        stats.upload_capacity_sum += upload
        stats.upload_capacity_samples += 1
    for src, dst in transitions:
        stats.transition_counts[src, dst] += 1
    for src in departures:
        stats.departure_counts[src] += 1
    tracker.absorb(stats)


class TestTracker:
    def test_arrival_rate(self, tracker):
        observe(tracker, 0, starts=[0] * 36, upload=100.0)
        stats = tracker.close_interval()
        assert stats[0].arrivals == 36
        assert stats[0].arrival_rate == pytest.approx(0.01)
        assert stats[1].arrivals == 0

    def test_transition_counts(self, tracker):
        observe(tracker, 0, transitions=[(0, 1), (0, 1), (1, 2)],
                departures=[2])
        stats = tracker.close_interval()[0]
        assert stats.transition_counts[0, 1] == 2
        assert stats.transition_counts[1, 2] == 1
        assert stats.departure_counts[2] == 1

    def test_interval_reset(self, tracker):
        observe(tracker, 0, starts=[0], upload=1.0)
        tracker.close_interval()
        stats = tracker.close_interval()[0]
        assert stats.arrivals == 0

    def test_mean_upload_capacity(self, tracker):
        observe(tracker, 0, starts=[0], upload=100.0)
        observe(tracker, 0, starts=[1], upload=300.0)
        stats = tracker.close_interval()[0]
        assert stats.mean_upload_capacity == pytest.approx(200.0)

    def test_observed_alpha(self, tracker):
        observe(tracker, 0, starts=[0] * 8 + [2] * 2, upload=1.0)
        stats = tracker.close_interval()[0]
        assert stats.observed_alpha == pytest.approx(0.8)

    def test_empty_stats_has_zero_observations(self, tracker):
        stats = tracker.empty_stats(1)
        assert stats.arrivals == 0
        assert stats.transition_counts.shape == (4, 4)
        assert stats.observed_alpha == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrackingServer(0, [], 3600.0)
        with pytest.raises(ValueError):
            TrackingServer(2, [3], 3600.0)
        with pytest.raises(ValueError):
            TrackingServer(1, [3], 0.0)


class TestQualityTracker:
    def test_sample_quality(self):
        q = QualityTracker()
        sample = q.record_sample(300.0, {0: 8, 1: 9}, {0: 10, 1: 10})
        assert sample.quality == pytest.approx(17 / 20)
        assert sample.per_channel[0] == pytest.approx(0.8)
        assert sample.total_users == 20

    def test_empty_channel_counts_as_smooth(self):
        q = QualityTracker()
        sample = q.record_sample(300.0, {0: 0}, {0: 0})
        assert sample.quality == 1.0
        assert sample.per_channel[0] == 1.0

    def test_average_quality(self):
        q = QualityTracker()
        q.record_sample(300.0, {0: 10}, {0: 10})
        q.record_sample(600.0, {0: 5}, {0: 10})
        assert q.average_quality == pytest.approx(0.75)

    def test_retrieval_aggregates(self):
        """The kernel accumulates the totals; the tracker reports them."""
        q = QualityTracker()
        q.total_retrievals = 2
        q.unsmooth_retrievals = 1
        q.sojourn_sum = 100.0 + 400.0
        assert q.smooth_retrieval_fraction == pytest.approx(0.5)
        assert q.mean_sojourn == pytest.approx(250.0)

    def test_quality_series(self):
        q = QualityTracker()
        q.record_sample(300.0, {0: 1}, {0: 1})
        q.record_sample(600.0, {0: 1}, {0: 2})
        times, quality = q.quality_series()
        assert list(times) == [300.0, 600.0]
        assert quality == pytest.approx([1.0, 0.5])

    def test_channel_size_quality_points(self):
        q = QualityTracker()
        q.record_sample(300.0, {0: 4, 1: 0}, {0: 5, 1: 0})
        points = q.channel_size_quality_points(min_users=1)
        assert points == [(5, 0.8)]

    def test_no_samples_defaults(self):
        q = QualityTracker()
        assert q.average_quality == 1.0
        assert q.smooth_retrieval_fraction == 1.0
        assert q.mean_sojourn == 0.0

"""Tests for the CI gate helpers: the re-recordable golden fixtures and
the tracker's absorb of a kernel's closed interval."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.vod.tracker import IntervalStats, TrackingServer

REPO = Path(__file__).resolve().parent.parent


def _load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO / "scripts" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGoldenRecorder:
    def test_records_into_custom_dir_matching_committed(self, tmp_path):
        """`record_golden --out DIR` is what CI diffs against the
        committed fixtures — the smallest one must round-trip equal."""
        record_golden = _load_script("record_golden")
        payload = record_golden.kernel_trajectory("client-server")
        committed = json.loads(
            (REPO / "tests" / "golden" / "kernel_client_server.json")
            .read_text()
        )
        assert payload["arrivals"] == committed["arrivals"]
        assert payload["cloud_used"] == committed["cloud_used"]


class TestTrackerAbsorb:
    def test_absorb_sums_counts(self):
        source = IntervalStats(
            channel_id=1,
            interval_seconds=600.0,
            arrivals=2,
            transition_counts=np.array(
                [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
            ),
            departure_counts=np.array([0.0, 0.0, 1.0]),
            upload_capacity_sum=150.0,
            upload_capacity_samples=2,
            start_chunk_counts=np.array([1.0, 0.0, 1.0]),
        )
        target = TrackingServer(2, [3, 3], interval_seconds=600.0)
        earlier = target.empty_stats(1)
        earlier.arrivals = 1
        earlier.start_chunk_counts[0] = 1.0
        earlier.upload_capacity_sum = 10.0
        earlier.upload_capacity_samples = 1
        target.absorb(earlier)
        target.absorb(source)
        merged = target.close_interval()[1]
        assert merged.arrivals == 3
        assert merged.upload_capacity_sum == pytest.approx(160.0)
        assert merged.transition_counts[0, 1] == 1.0
        assert merged.departure_counts[2] == 1.0
        assert merged.start_chunk_counts.tolist() == [2.0, 0.0, 1.0]

    def test_absorb_rejects_shape_mismatch(self):
        source = TrackingServer(1, [4], interval_seconds=600.0)
        target = TrackingServer(1, [3], interval_seconds=600.0)
        with pytest.raises(ValueError, match="shape"):
            target.absorb(source.empty_stats(0))

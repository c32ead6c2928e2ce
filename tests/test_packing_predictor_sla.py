"""Tests for repro.core.packing, predictor and sla."""

import pytest

from repro.core.packing import pack_allocations
from repro.core.predictor import (
    EWMAPredictor,
    LastIntervalPredictor,
    MovingAveragePredictor,
)
from repro.core.sla import SLATerms


class TestPacking:
    def test_whole_units_get_dedicated_vms(self):
        result = pack_allocations({((0, 0), "standard"): 2.0})
        assert result.total_vms == 2
        assert all(vm.load == pytest.approx(1.0) for vm in result.vms)

    def test_fraction_opens_shared_vm(self):
        result = pack_allocations(
            {((0, 0), "standard"): 0.4, ((0, 1), "standard"): 0.5}
        )
        assert result.total_vms == 1
        assert result.shared_vms == 1
        vm = result.vms[0]
        assert vm.load == pytest.approx(0.9)
        assert vm.serves_consecutive_run()

    def test_consecutive_chunks_colocated(self):
        """Footnote 3: a shared VM should carry consecutive chunks of one
        channel to minimize VM switching during playback."""
        allocations = {
            ((0, 0), "standard"): 0.3,
            ((0, 1), "standard"): 0.3,
            ((0, 2), "standard"): 0.3,
        }
        result = pack_allocations(allocations)
        assert result.total_vms == 1
        assert result.vms[0].serves_consecutive_run()

    def test_overflow_opens_new_vm(self):
        allocations = {
            ((0, 0), "standard"): 0.7,
            ((0, 1), "standard"): 0.7,
        }
        result = pack_allocations(allocations)
        assert result.total_vms == 2
        assert result.cross_channel_vms == 0

    def test_mixed_whole_and_fraction(self):
        result = pack_allocations({((0, 0), "standard"): 2.3})
        assert result.total_vms == 3
        loads = sorted(vm.load for vm in result.vms)
        assert loads == pytest.approx([0.3, 1.0, 1.0])

    def test_clusters_kept_separate(self):
        result = pack_allocations(
            {((0, 0), "standard"): 0.4, ((0, 1), "advanced"): 0.4}
        )
        assert result.total_vms == 2
        assert result.vm_counts() == {"standard": 1, "advanced": 1}

    def test_cross_channel_sharing_counted(self):
        allocations = {
            ((0, 5), "standard"): 0.4,
            ((1, 0), "standard"): 0.4,
        }
        result = pack_allocations(allocations)
        assert result.total_vms == 1
        assert result.cross_channel_vms == 1

    def test_zero_allocations_dropped(self):
        result = pack_allocations({((0, 0), "standard"): 0.0})
        assert result.total_vms == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pack_allocations({((0, 0), "standard"): -0.1})

    def test_packed_count_matches_ceil_of_totals(self):
        allocations = {
            ((0, 0), "standard"): 1.4,
            ((0, 1), "standard"): 0.9,
            ((0, 2), "standard"): 0.4,
        }
        result = pack_allocations(allocations)
        # total = 2.7 -> at least 3 VMs; first-fit may use at most 4 here.
        assert 3 <= result.total_vms <= 4


class TestPredictors:
    def test_last_interval(self):
        p = LastIntervalPredictor(initial_rate=0.5)
        assert p.predict(0) == 0.5
        p.observe(0, 2.0)
        assert p.predict(0) == 2.0
        p.observe(0, 3.0)
        assert p.predict(0) == 3.0

    def test_last_interval_per_channel(self):
        p = LastIntervalPredictor()
        p.observe(0, 1.0)
        p.observe(1, 9.0)
        assert p.predict(0) == 1.0
        assert p.predict(1) == 9.0

    def test_moving_average(self):
        p = MovingAveragePredictor(window=3)
        for rate in (1.0, 2.0, 3.0, 4.0):
            p.observe(0, rate)
        assert p.predict(0) == pytest.approx(3.0)  # mean of last 3

    def test_moving_average_partial_history(self):
        p = MovingAveragePredictor(window=5)
        p.observe(0, 2.0)
        assert p.predict(0) == 2.0

    def test_ewma(self):
        p = EWMAPredictor(beta=0.5)
        p.observe(0, 4.0)
        p.observe(0, 0.0)
        assert p.predict(0) == pytest.approx(2.0)

    def test_ewma_beta_one_is_last_interval(self):
        p = EWMAPredictor(beta=1.0)
        p.observe(0, 1.0)
        p.observe(0, 7.0)
        assert p.predict(0) == 7.0

    def test_smoothing_dampens_spikes(self):
        """EWMA should react less to one flash crowd than last-interval."""
        last = LastIntervalPredictor()
        ewma = EWMAPredictor(beta=0.3)
        for rate in (1.0, 1.0, 10.0):
            last.observe(0, rate)
            ewma.observe(0, rate)
        assert ewma.predict(0) < last.predict(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MovingAveragePredictor(window=0)
        with pytest.raises(ValueError):
            EWMAPredictor(beta=0.0)
        with pytest.raises(ValueError):
            LastIntervalPredictor(initial_rate=-1.0)
        p = LastIntervalPredictor()
        with pytest.raises(ValueError):
            p.observe(0, -1.0)


class TestSLA:
    def test_paper_defaults(self):
        terms = SLATerms()
        assert terms.vm_budget_per_hour == 100.0
        assert terms.storage_budget_per_hour == 1.0
        assert terms.interval_seconds == 3600.0
        assert terms.total_budget_per_hour == 101.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SLATerms(vm_budget_per_hour=-1.0)
        with pytest.raises(ValueError):
            SLATerms(interval_seconds=0.0)

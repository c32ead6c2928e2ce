"""Tests for repro.cloud.cluster and the facility's per-cluster VM counts."""

import pytest

from repro.cloud.broker import (
    Broker,
    CloudFacility,
    NegotiationError,
    ResourceRequest,
)
from repro.cloud.cluster import NFSClusterSpec, VirtualClusterSpec
from repro.sim.loop import EpochClock


def make_vm_spec(name="standard", max_vms=5, price=0.45, utility=0.6):
    return VirtualClusterSpec(
        name=name,
        utility=utility,
        price_per_hour=price,
        max_vms=max_vms,
        vm_bandwidth=10e6 / 8.0,
    )


def make_nfs_spec(name="standard", utility=0.8, price=1.11e-4, gb=20.0):
    return NFSClusterSpec(
        name=name,
        utility=utility,
        price_per_gb_hour=price,
        capacity_bytes=gb * 1024**3,
    )


class TestSpecs:
    def test_marginal_utility(self):
        spec = make_vm_spec(price=0.5, utility=1.0)
        assert spec.marginal_utility_per_dollar == pytest.approx(2.0)

    def test_paper_table2_ordering(self):
        """With Table II prices, 'standard' has the best utility/dollar."""
        standard = make_vm_spec("standard", price=0.45, utility=0.6)
        medium = make_vm_spec("medium", price=0.70, utility=0.8)
        advanced = make_vm_spec("advanced", price=0.80, utility=1.0)
        ratios = [
            s.marginal_utility_per_dollar for s in (standard, advanced, medium)
        ]
        assert ratios == sorted(ratios, reverse=True)

    def test_nfs_price_per_byte(self):
        spec = make_nfs_spec(price=1.11e-4)
        assert spec.price_per_byte_hour == pytest.approx(1.11e-4 / 1024**3)

    def test_chunk_slots(self):
        spec = make_nfs_spec(gb=20.0)
        # 15 MB chunks in 20 GiB.
        assert spec.chunk_slots(15e6) == int(20 * 1024**3 // 15e6)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            make_vm_spec(price=0.0)
        with pytest.raises(ValueError):
            VirtualClusterSpec("x", 1.0, 1.0, -1, 100.0)
        with pytest.raises(ValueError):
            make_nfs_spec(utility=0.0)
        with pytest.raises(ValueError):
            make_nfs_spec(gb=20.0).chunk_slots(0)


class TestInstantPool:
    """A granted VM target is the cluster's active count at once."""

    def make(self, max_vms):
        facility = CloudFacility(
            [make_vm_spec(max_vms=max_vms)], [make_nfs_spec()], EpochClock()
        )
        broker = Broker(facility)

        def scale_to(target):
            broker.request(ResourceRequest(vm_targets={"standard": target}))
            return facility.active_vms["standard"]

        return scale_to

    def test_launch_instant(self):
        assert self.make(max_vms=3)(2) == 2

    def test_launch_capped_by_capacity(self):
        assert self.make(max_vms=3)(10) == 3

    def test_shutdown(self):
        scale_to = self.make(max_vms=3)
        scale_to(3)
        assert scale_to(1) == 1

    def test_scale_to(self):
        scale_to = self.make(max_vms=10)
        assert scale_to(4) == 4
        assert scale_to(4) == 4
        assert scale_to(1) == 1

    def test_scale_to_clamps_to_capacity(self):
        scale_to = self.make(max_vms=3)
        scale_to(2)
        assert scale_to(100) == 3

    def test_negative_counts_rejected(self):
        scale_to = self.make(max_vms=5)
        with pytest.raises(NegotiationError, match="negative"):
            scale_to(-1)

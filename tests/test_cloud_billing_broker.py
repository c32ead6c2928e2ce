"""Tests for repro.cloud.billing and repro.cloud.broker."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.billing import BillingMeter
from repro.cloud.broker import (
    Broker,
    CloudFacility,
    NegotiationError,
    ResourceRequest,
)
from repro.cloud.cluster import NFSClusterSpec, VirtualClusterSpec
from repro.sim.loop import EpochClock


def vm_specs():
    return [
        VirtualClusterSpec("standard", 0.6, 0.45, 10, 1.25e6),
        VirtualClusterSpec("advanced", 1.0, 0.80, 5, 1.25e6),
    ]


def nfs_specs():
    return [
        NFSClusterSpec("standard", 0.8, 1.11e-4, 1.0 * 1024**3),
        NFSClusterSpec("high", 1.0, 2.08e-4, 1.0 * 1024**3),
    ]


def make_facility(clock=None):
    return CloudFacility(vm_specs(), nfs_specs(), clock or EpochClock())


class TestBillingMeter:
    def test_vm_hours_accrue(self):
        meter = BillingMeter(
            {s.name: s for s in vm_specs()}, {s.name: s for s in nfs_specs()}
        )
        meter.record_vm_usage(0.0, {"standard": 4})
        meter.record_vm_usage(1800.0, {"standard": 2})  # half an hour later
        report = meter.report(3600.0)
        # 4 VMs for 0.5 h + 2 VMs for 0.5 h = 3 VM-hours.
        assert report.vm_hours["standard"] == pytest.approx(3.0)
        assert report.vm_cost == pytest.approx(3.0 * 0.45)

    def test_storage_cost(self):
        meter = BillingMeter(
            {s.name: s for s in vm_specs()}, {s.name: s for s in nfs_specs()}
        )
        gib = 1024**3
        meter.record_storage_usage(0.0, {"high": 0.5 * gib})
        report = meter.report(7200.0)  # 2 hours
        assert report.storage_cost == pytest.approx(0.5 * 2.08e-4 * 2.0)

    def test_hourly_rates(self):
        meter = BillingMeter(
            {s.name: s for s in vm_specs()}, {s.name: s for s in nfs_specs()}
        )
        meter.record_vm_usage(0.0, {"standard": 2, "advanced": 1})
        assert meter.current_vm_cost_rate() == pytest.approx(2 * 0.45 + 0.80)
        report = meter.report(3600.0)
        assert report.hourly_vm_cost == pytest.approx(2 * 0.45 + 0.80)

    def test_time_cannot_go_backwards(self):
        meter = BillingMeter(
            {s.name: s for s in vm_specs()}, {s.name: s for s in nfs_specs()}
        )
        meter.record_vm_usage(100.0, {"standard": 1})
        with pytest.raises(ValueError):
            meter.record_vm_usage(50.0, {"standard": 2})

    def test_unknown_cluster_rejected(self):
        meter = BillingMeter(
            {s.name: s for s in vm_specs()}, {s.name: s for s in nfs_specs()}
        )
        with pytest.raises(KeyError):
            meter.record_vm_usage(0.0, {"nope": 1})

    def test_negative_level_rejected(self):
        meter = BillingMeter(
            {s.name: s for s in vm_specs()}, {s.name: s for s in nfs_specs()}
        )
        with pytest.raises(ValueError):
            meter.record_vm_usage(0.0, {"standard": -1})

    def test_rate_history_recorded(self):
        meter = BillingMeter(
            {s.name: s for s in vm_specs()}, {s.name: s for s in nfs_specs()}
        )
        meter.record_vm_usage(0.0, {"standard": 1})
        meter.record_vm_usage(3600.0, {"standard": 3})
        history = meter.vm_cost_rate_history()
        assert len(history) == 2
        assert history[1][1] == pytest.approx(3 * 0.45)


class TestNFSScheduler:
    """The paper's NFS-scheduler role: the broker applies placements."""

    def test_placement_applied(self):
        facility = make_facility()
        Broker(facility).request(ResourceRequest(
            vm_targets={},
            storage_placement={
                ("c", 0): ("standard", 15e6), ("c", 1): ("high", 15e6)
            },
        ))
        assert facility.stored_bytes["standard"] == pytest.approx(15e6)
        assert facility.stored_bytes["high"] == pytest.approx(15e6)

    def test_capacity_enforced_transactionally(self):
        facility = make_facility()
        broker = Broker(facility)
        broker.request(ResourceRequest(
            vm_targets={}, storage_placement={("c", 0): ("standard", 15e6)}
        ))
        too_big = {("c", i): ("standard", 0.6 * 1024**3) for i in range(2)}
        with pytest.raises(NegotiationError, match="capacity"):
            broker.request(
                ResourceRequest(vm_targets={}, storage_placement=too_big)
            )
        # Original placement intact.
        assert facility.stored_bytes == {"standard": 15e6, "high": 0.0}

    def test_unknown_cluster_rejected(self):
        broker = Broker(make_facility())
        with pytest.raises(NegotiationError):
            broker.request(ResourceRequest(
                vm_targets={}, storage_placement={("c", 0): ("nowhere", 1.0)}
            ))


class TestNegotiator:
    """The paper's SLA-negotiator role: the broker prices and clamps."""

    def test_quote_clamps_to_capacity(self):
        facility = make_facility()
        agreement = Broker(facility).request(
            ResourceRequest(vm_targets={"standard": 100})
        )
        assert agreement.vm_grants["standard"] == 10
        assert agreement.hourly_vm_cost == pytest.approx(10 * 0.45)
        assert facility.active_vms["standard"] == 10

    def test_unknown_cluster_raises(self):
        broker = Broker(make_facility())
        with pytest.raises(NegotiationError):
            broker.request(ResourceRequest(vm_targets={"huge": 1}))

    def test_budget_enforced(self):
        broker = Broker(make_facility())
        request = ResourceRequest(
            vm_targets={"standard": 10}, max_hourly_budget=1.0
        )
        with pytest.raises(NegotiationError, match="budget"):
            broker.request(request)

    def test_storage_capacity_checked(self):
        broker = Broker(make_facility())
        request = ResourceRequest(
            vm_targets={},
            storage_placement={("c", 0): ("standard", 2.0 * 1024**3)},
        )
        with pytest.raises(NegotiationError, match="capacity"):
            broker.request(request)


class TestBroker:
    def test_accepted_request_applied(self):
        facility = make_facility()
        broker = Broker(facility)
        agreement = broker.request(
            ResourceRequest(
                vm_targets={"standard": 3, "advanced": 1},
                storage_placement={("c", 0): ("high", 15e6)},
            )
        )
        assert agreement.vm_grants == {"standard": 3, "advanced": 1}
        assert facility.active_vms["standard"] == 3
        assert facility.stored_bytes["high"] == pytest.approx(15e6)
        assert broker.last_agreement is agreement

    def test_scale_down_via_request(self):
        facility = make_facility()
        broker = Broker(facility)
        broker.request(ResourceRequest(vm_targets={"standard": 5}))
        broker.request(ResourceRequest(vm_targets={"standard": 2}))
        assert facility.active_vms["standard"] == 2

    def test_rejected_request_not_applied(self):
        facility = make_facility()
        broker = Broker(facility)
        with pytest.raises(NegotiationError):
            broker.request(
                ResourceRequest(
                    vm_targets={"standard": 5}, max_hourly_budget=0.01
                )
            )
        assert facility.active_vms["standard"] == 0
        assert broker.last_agreement is None

    def test_request_ids_increment(self):
        broker = Broker(make_facility())
        a = broker.request(ResourceRequest(vm_targets={"standard": 1}))
        b = broker.request(ResourceRequest(vm_targets={"standard": 1}))
        assert b.request_id == a.request_id + 1


class TestFacility:
    def test_billing_tracks_applied_targets(self):
        facility = make_facility()
        Broker(facility).request(ResourceRequest(vm_targets={"standard": 4}))
        assert facility.billing.current_vm_cost_rate() == pytest.approx(4 * 0.45)

    def test_clock_drives_billing(self):
        t = {"now": 0.0}
        facility = make_facility(clock=lambda: t["now"])
        Broker(facility).request(ResourceRequest(vm_targets={"standard": 2}))
        t["now"] = 3600.0
        report = facility.billing.report(t["now"])
        assert report.vm_cost == pytest.approx(2 * 0.45)

    def test_duplicate_cluster_names_rejected(self):
        with pytest.raises(ValueError):
            CloudFacility(
                [
                    VirtualClusterSpec("x", 1.0, 1.0, 1, 1.0),
                    VirtualClusterSpec("x", 1.0, 1.0, 1, 1.0),
                ],
                nfs_specs(),
                EpochClock(),
            )

    def test_pickle_size_scales_with_clusters_not_vms(self):
        facility = CloudFacility(
            [
                VirtualClusterSpec("standard", 0.6, 0.45, 10**6, 1.25e6),
                VirtualClusterSpec("advanced", 1.0, 0.80, 10**6, 1.25e6),
            ],
            nfs_specs(),
            EpochClock(),
        )
        Broker(facility).request(
            ResourceRequest(vm_targets={"standard": 10**6, "advanced": 10**5})
        )
        assert len(pickle.dumps(facility)) < 4096


# ----------------------------------------------------------------------
# Random request sequences against a level x duration integral
# ----------------------------------------------------------------------

_CHUNKS = [("c", i) for i in range(4)]

_requests = st.lists(
    st.tuples(
        st.floats(0.0, 7200.0),  # seconds since the previous request
        st.dictionaries(  # VM targets; some above max_vms, some left out
            st.sampled_from(["standard", "advanced"]),
            st.integers(0, 15),
        ),
        st.one_of(  # storage placement, sometimes over capacity
            st.none(),
            st.dictionaries(
                st.sampled_from(_CHUNKS),
                st.tuples(
                    st.sampled_from(["standard", "high"]),
                    st.floats(0.0, 0.6 * 1024**3),
                ),
            ),
        ),
        st.one_of(st.none(), st.floats(0.0, 20.0)),  # budget, $/h
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(_requests, st.floats(0.0, 7200.0))
def test_billing_integrates_granted_levels(requests, tail):
    clock = EpochClock()
    facility = make_facility(clock=clock)
    broker = Broker(facility)
    specs = {s.name: s for s in vm_specs()}
    nfs = {s.name: s for s in nfs_specs()}
    vms = {name: 0 for name in specs}
    stored = {name: 0.0 for name in nfs}
    vm_hours = {name: 0.0 for name in vms}
    byte_hours = {name: 0.0 for name in stored}

    def advance(seconds):
        for name, level in vms.items():
            vm_hours[name] += level * seconds / 3600.0
        for name, level in stored.items():
            byte_hours[name] += level * seconds / 3600.0
        clock.now += seconds

    for gap, targets, placement, budget in requests:
        advance(gap)
        want_vms = dict(vms)
        want_vms.update(
            {name: min(t, specs[name].max_vms) for name, t in targets.items()}
        )
        want_stored = dict(stored)
        if placement is not None:
            want_stored = {name: 0.0 for name in stored}
            for cluster, size in placement.values():
                want_stored[cluster] += size
        rate = sum(
            min(t, specs[name].max_vms) * specs[name].price_per_hour
            for name, t in targets.items()
        )
        if placement is not None:
            rate += sum(
                level * nfs[name].price_per_byte_hour
                for name, level in want_stored.items()
            )
        over_capacity = any(
            level > nfs[name].capacity_bytes + 1e-6
            for name, level in want_stored.items()
        )
        over_budget = budget is not None and rate > budget + 1e-6
        levels = (dict(facility.active_vms), dict(facility.stored_bytes))
        meter = pickle.dumps(facility.billing)
        try:
            agreement = broker.request(
                ResourceRequest(targets, placement, budget)
            )
        except NegotiationError:
            assert over_capacity or (budget is not None and rate > budget - 1e-6)
            assert (dict(facility.active_vms),
                    dict(facility.stored_bytes)) == levels
            assert pickle.dumps(facility.billing) == meter
            continue
        assert not over_capacity and not over_budget
        assert agreement.hourly_cost == pytest.approx(rate)
        vms, stored = want_vms, want_stored
        assert facility.active_vms == vms
        assert facility.stored_bytes == pytest.approx(stored)

    advance(tail)
    report = facility.billing.report(clock.now)
    # The meter differences clock readings, the test sums gaps: allow
    # their rounding (1e-6 VM-hours or byte-hours) besides the rel 1e-6.
    assert report.window_seconds == pytest.approx(clock.now)
    assert report.vm_hours == pytest.approx(vm_hours, rel=1e-6, abs=1e-6)
    assert report.stored_byte_hours == pytest.approx(byte_hours, rel=1e-6, abs=1e-6)
    assert report.vm_cost == pytest.approx(
        sum(vm_hours[n] * specs[n].price_per_hour for n in specs)
    )

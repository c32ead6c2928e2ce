"""Property-based tests: system-level invariants of the simulator,
billing and optimizers under randomized inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.billing import BillingMeter
from repro.cloud.cluster import NFSClusterSpec, VirtualClusterSpec
from repro.core.packing import pack_allocations
from repro.vod.channel import make_uniform_channels
from repro.vod.simulator import VoDSimulator, VoDSystemConfig
from repro.workload.trace import Session, ShardTraceArrays, Trace

R = 10e6 / 8.0
r = 50_000.0
T0 = 300.0


@st.composite
def random_trace(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    sessions = sorted(
        (
            Session(
                arrival_time=float(rng.uniform(0, 1800)),
                channel=int(rng.integers(0, 2)),
                start_chunk=int(rng.integers(0, 4)),
                upload_capacity=float(rng.uniform(0, 2 * r)),
            )
            for _ in range(n)
        ),
        key=lambda s: s.arrival_time,
    )
    return Trace(config_summary={}, sessions=sessions)


class TestSimulatorInvariants:
    @given(
        trace=random_trace(),
        capacity_scale=st.floats(min_value=0.0, max_value=3.0),
        mode=st.sampled_from(["client-server", "p2p"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_conservation_and_bounds(self, trace, capacity_scale, mode):
        channels = make_uniform_channels(2, 4, r, T0)
        sim = VoDSimulator(
            channels,
            ShardTraceArrays.from_trace(trace),
            VoDSystemConfig(mode=mode, dt=30.0, user_rate_cap=R, seed=5),
        )
        for ch in channels:
            sim.set_cloud_capacity(
                ch.channel_id, np.full(4, capacity_scale * R)
            )
        sim.advance_to(3600.0)
        # User conservation.
        assert sim.population() == sim.arrivals - sim.departures
        assert sim.arrivals == len(trace)
        # Quality in [0, 1] at every sample.
        for sample in sim.quality.samples:
            assert 0.0 <= sample.quality <= 1.0
        # Bandwidth samples nonnegative and cloud bounded by provisioned.
        for s in sim.bandwidth:
            assert s.cloud_used >= 0.0
            assert s.peer_used >= 0.0
            assert s.cloud_used <= s.provisioned + 1e-6
        # Retrieval accounting: every retrieval belongs to a known channel.
        assert sim.quality.total_retrievals >= sim.quality.unsmooth_retrievals


class TestBillingInvariants:
    @given(
        levels=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=3600.0),
                st.integers(min_value=0, max_value=10),
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_piecewise_integral(self, levels):
        """The meter's report must equal the hand-computed piecewise
        integral of the recorded levels."""
        spec = VirtualClusterSpec("only", 1.0, 2.0, 100, R)
        nfs = NFSClusterSpec("only", 1.0, 1e-4, 1e12)
        meter = BillingMeter({"only": spec}, {"only": nfs})
        times = sorted(t for t, _ in levels)
        counts = [c for _, c in levels]
        records = sorted(zip(times, counts))
        clean = []
        last_t = -1.0
        for t, c in records:
            if t > last_t:
                clean.append((t, c))
                last_t = t
        for t, c in clean:
            meter.record_vm_usage(t, {"only": c})
        horizon = clean[-1][0] + 3600.0
        report = meter.report(horizon)
        expected = 0.0
        for (t0, c0), (t1, _) in zip(clean, clean[1:]):
            expected += c0 * (t1 - t0) / 3600.0
        expected += clean[-1][1] * (horizon - clean[-1][0]) / 3600.0
        assert report.vm_hours["only"] == pytest.approx(expected, abs=1e-9)
        assert report.vm_cost == pytest.approx(2.0 * expected, abs=1e-9)


class TestPackingInvariants:
    @given(
        shares=st.lists(
            st.floats(min_value=0.0, max_value=3.0),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_mass_conserved_and_loads_bounded(self, shares):
        allocations = {
            ((0, i), "standard"): z for i, z in enumerate(shares)
        }
        result = pack_allocations(allocations)
        # Every VM's load is in (0, 1].
        for vm in result.vms:
            assert 0.0 < vm.load <= 1.0 + 1e-9
        # Total packed mass equals total allocated mass.
        packed = sum(vm.load for vm in result.vms)
        assert packed == pytest.approx(sum(shares), abs=1e-6)
        # VM count is within the next-fit guarantee: <= 2x optimal + #chunks.
        optimal = int(np.ceil(sum(shares) - 1e-9))
        assert result.total_vms <= 2 * optimal + len(shares)

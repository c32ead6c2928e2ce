"""Differential tests: the closed loop run as a one-shard catalog, against
the closed-loop engine it replaced.

The oracle :class:`OwnDataPlaneEngine` is the earlier
``ClosedLoopEngine``: an :class:`~repro.sim.loop.EpochLoop` with its own
in-process kernel, cursor, bootstrap, re-provisioning, billing clock and
checkpoint layout.  It has two edits, one per seam where the two engines
had different rules; each is marked ``seam`` below and follows the
catalog's rule:

* billing reads the :class:`~repro.sim.loop.EpochClock` at the epoch
  boundary ``t_end``, not the kernel's float clock ``simulator.now``
  (they differ when ``dt`` does not divide the interval);
* an empty P2P system re-provisions with the bootstrap mean upload, not
  0.0.

It builds its demand estimator with ``default_prior``: it passed the
same behaviour matrix for every channel, which is the same prior.

Both engines run drawn small scenarios in both delivery modes, with a
``dt`` that divides the 300 s quality window and one that does not
(7.3 s), populations small enough to empty a P2P system at an epoch
boundary, and the ``paper``, ``mpc`` and ``reactive`` controllers with
or without a predictor key.  The closed-loop artifact bytes, every
decision's hourly VM cost, every quality sample (per channel too) and
the bandwidth log must agree bit for bit.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

import numpy as np
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, open_run
from repro.core.demand import DemandEstimator
from repro.core.provisioner import ProvisioningDecision
from repro.experiments.config import PAPER, small_scenario
from repro.experiments.registry import make_predictor
from repro.experiments.runner import ClosedLoopResult
from repro.service.artifact import artifact_bytes, result_payload
from repro.sim.loop import EpochLoop, KernelCursor, _EpochData
from repro.vod.multi import MultiChannelSimulator, VoDSystemConfig
from repro.vod.tracker import TrackingServer
from repro.workload.trace import generate_trace


# ----------------------------------------------------------------------
# The oracle: the closed loop with its own data plane
# ----------------------------------------------------------------------
class OwnDataPlaneEngine(EpochLoop):
    """The earlier closed-loop engine (see the module doc)."""

    kind = "closed-loop"

    def __init__(self, scenario, *, predictor=None, controller=None) -> None:
        self.scenario = scenario
        self.simulator = None
        self._cursor = KernelCursor()
        self.empty_boundaries = 0
        constants = scenario.constants
        channels = scenario.channels()
        super().__init__(
            scenario,
            constants.interval_seconds,
            tracker=TrackingServer(
                num_channels=scenario.num_channels,
                chunks_per_channel=[ch.num_chunks for ch in channels],
                interval_seconds=constants.interval_seconds,
            ),
            estimator=DemandEstimator(
                scenario.capacity_model(),
                mode=scenario.mode,
                default_prior=scenario.behaviour_matrix(),
            ),
            predictor=predictor,
            controller=controller,
        )

    def _bootstrap(self) -> ProvisioningDecision:
        scenario = self.scenario
        self.simulator = MultiChannelSimulator(
            scenario.channels(),
            generate_trace(scenario.trace_config()),
            VoDSystemConfig(
                mode=scenario.mode,
                dt=scenario.dt,
                user_rate_cap=scenario.constants.vm_bandwidth,
                seed=scenario.seed,
            ),
            interval_seconds=scenario.constants.interval_seconds,
        )
        expected_rates = {
            ch.channel_id: float(rate)
            for ch, rate in zip(
                self.simulator.channels,
                scenario.trace_config().channel_rates(),
            )
        }
        self._upload_mean = scenario.upload_distribution().mean()
        return self.controller.bootstrap(
            0.0, expected_rates, peer_upload=self._upload_mean
        )

    def _advance_data(self, t_end: float, capacities) -> _EpochData:
        simulator = self.simulator
        for channel_id, capacity in capacities.items():
            simulator.set_cloud_capacity(channel_id, capacity)
        deltas = self._cursor.advance(simulator, t_end)
        for stats in simulator.close_interval():
            self.tracker.absorb(stats)
        data = _EpochData(
            stats=[],
            upload_sum=0.0,
            upload_count=0,
            channel_populations=simulator.channel_populations(),
            **deltas,
        )
        # seam: bill at the epoch boundary (was ``simulator.now``).
        self._clock.now = t_end
        return data

    def _reprovision(self, t_end: float, data) -> ProvisioningDecision:
        peer_upload = None
        if self.scenario.mode == "p2p":
            total, count = self.simulator.peer_upload_totals()
            self.empty_boundaries += count == 0
            # seam: an empty system falls back to the bootstrap mean
            # upload (was 0.0).
            peer_upload = total / count if count else self._upload_mean
        return self.controller.run_interval(t_end, peer_upload=peer_upload)

    def _make_result(self) -> ClosedLoopResult:
        run = self._run
        epochs = run.epochs

        def means(series: str) -> List[float]:
            return [
                float(np.mean(getattr(e, series))) if e.step_times.size
                else 0.0
                for e in epochs
            ]

        return ClosedLoopResult(
            scenario=self.scenario,
            simulation=self.simulator.result(),
            decisions=self.controller.decisions,
            cost_report=self.facility.billing.report(self._clock.now),
            interval_times=run.epoch_times,
            provisioned_series=means("provisioned"),
            used_series=means("cloud_used"),
            peer_series=means("peer_used"),
            population_series=[
                sum(e.channel_populations.values()) for e in epochs
            ],
            channel_population_series=[
                e.channel_populations for e in epochs
            ],
            vm_cost_series=run.vm_cost_series,
        )


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _samples(result) -> List[tuple]:
    return [
        (s.time, s.quality, s.total_smooth, sorted(s.per_channel.items()),
         sorted(s.per_channel_users.items()))
        for s in result.simulation.quality.samples
    ]


def _bandwidth(result) -> Dict[str, bytes]:
    log = result.simulation.bandwidth
    return {
        name: getattr(log, name).tobytes()
        for name in ("time", "cloud_used", "peer_used", "provisioned",
                     "shortfall")
    }


def assert_bitwise(got, want) -> None:
    assert artifact_bytes(result_payload("closed-loop", got)) == \
        artifact_bytes(result_payload("closed-loop", want))
    assert [d.hourly_vm_cost for d in got.decisions] == \
        [d.hourly_vm_cost for d in want.decisions]
    assert _samples(got) == _samples(want)
    assert _bandwidth(got) == _bandwidth(want)


def run_both(scenario, controller, predictor):
    oracle = OwnDataPlaneEngine(
        scenario,
        predictor=make_predictor(predictor) if predictor else None,
        controller=controller,
    )
    want = oracle.run()
    config = EngineConfig(
        spec=scenario, predictor=predictor, controller=controller
    )
    with open_run(config) as run:
        got = run.result()
    return got, want, oracle


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
#: Three viewers over 5-minute epochs: the P2P system is empty at some
#: epoch boundaries, and under the ``ewma`` predictor the upload rule
#: there changes the artifact (0.0 would move it).
EMPTYING_P2P = replace(
    small_scenario("p2p", horizon_hours=2.0, num_channels=2,
                   chunks_per_channel=4, target_population=3, seed=0),
    constants=replace(PAPER, interval_seconds=300.0),
)


@st.composite
def cases(draw):
    mode = draw(st.sampled_from(["client-server", "p2p"]))
    dt = draw(st.sampled_from([15.0, 10.0, 7.3]))
    interval = draw(st.sampled_from([300.0, 900.0, 3600.0]))
    scenario = replace(
        small_scenario(
            mode,
            horizon_hours=draw(st.sampled_from([0.5, 1.0, 2.0])),
            num_channels=draw(st.integers(1, 3)),
            chunks_per_channel=draw(st.integers(2, 5)),
            target_population=draw(st.integers(1, 40)),
            seed=draw(st.integers(0, 2**16)),
        ),
        dt=dt,
        constants=replace(PAPER, interval_seconds=interval),
    )
    controller = draw(st.sampled_from(["paper", "mpc", "reactive"]))
    predictor = None
    if controller != "reactive":
        predictor = draw(st.sampled_from([None, "ewma", "seasonal"]))
    event(f"{mode} dt={dt}")
    return scenario, controller, predictor


class TestOneShardCatalogMatchesOwnDataPlane:
    @given(case=cases())
    @example(case=(
        # dt 7.3 s does not divide the interval: the kernel's clock ends
        # past t_end, which only the billing seam reconciles.
        replace(small_scenario("client-server", horizon_hours=2.0), dt=7.3),
        "paper", None,
    ))
    @example(case=(
        replace(small_scenario("p2p", horizon_hours=1.0), dt=7.3),
        "mpc", None,
    ))
    @example(case=(EMPTYING_P2P, "paper", "ewma"))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_bitwise(self, case):
        scenario, controller, predictor = case
        got, want, oracle = run_both(scenario, controller, predictor)
        if oracle.empty_boundaries:
            event("an empty P2P system re-provisioned")
        assert_bitwise(got, want)

    def test_empty_p2p_boundary_is_reached(self):
        """The upload seam is exercised, not just allowed."""
        got, want, oracle = run_both(EMPTYING_P2P, "paper", "ewma")
        assert oracle.empty_boundaries > 0
        assert_bitwise(got, want)

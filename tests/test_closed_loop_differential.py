"""Differential tests: the closed loop run as a one-shard catalog, against
the closed-loop engine it replaced.

The oracle :class:`OwnDataPlaneEngine` is the earlier
``ClosedLoopEngine``: an ``EpochLoop`` with its own in-process kernel,
cursor, bootstrap, re-provisioning, billing clock and checkpoint
layout.  ``EpochLoop`` and ``KernelCursor`` are no longer in the
package, so this module carries them as they were.  The oracle has two
edits, one per seam where the two engines had different rules; each is
marked ``seam`` below and follows the catalog's rule:

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

import math
from dataclasses import replace
from typing import Any, Dict, List, Optional

import numpy as np
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, open_run
from repro.cloud.broker import Broker, CloudFacility
from repro.core.controller import CONTROLLERS
from repro.core.demand import DemandEstimator
from repro.core.provisioner import (
    ProvisioningController,
    ProvisioningDecision,
    local_region,
    local_topology,
    own_channel,
)
from repro.experiments.config import PAPER, small_scenario
from repro.experiments.registry import make_predictor
from repro.experiments.runner import ClosedLoopResult
from repro.service.artifact import artifact_bytes, result_payload
from repro.sim.loop import EpochClock, EpochRun, _EpochData
from repro.vod.multi import MultiChannelSimulator, VoDSystemConfig
from repro.vod.tracker import TrackingServer
from repro.workload.trace import generate_trace


# ----------------------------------------------------------------------
# The oracle's epoch driver and epoch cutter, as they were when the
# oracle was the closed-loop engine (the package now runs both inside
# ShardedSimulator and ChannelShard)
# ----------------------------------------------------------------------
class KernelCursor:
    """The one way to cut an epoch out of the simulation kernel
    (:class:`~repro.vod.multi.MultiChannelSimulator`), one per shard.

    Pickled with the kernel it follows.  ``totals`` are the kernel's cumulative
    (retrievals, unsmooth retrievals, sojourn sum, arrivals,
    departures) at the last epoch boundary.
    """

    def __init__(self) -> None:
        self.quality_samples = 0
        self.totals = (0, 0, 0.0, 0, 0)

    def advance(self, sim, t_end: float) -> Dict[str, Any]:
        """Step ``sim`` to ``t_end``; the epoch's :class:`_EpochData`
        fields except the tracker statistics, the peer-upload totals and
        the channel populations, which the shard adds itself."""
        log_start = len(sim.bandwidth)
        populations: List[int] = []
        while sim.now + 1e-9 < t_end:
            sim.step()
            populations.append(sim.population())
        log = sim.bandwidth
        window = slice(log_start, len(log))

        quality = sim.quality
        samples = [
            (s.time, int(s.total_smooth), int(s.total_users))
            for s in quality.samples[self.quality_samples:]
        ]
        self.quality_samples = len(quality.samples)
        totals = (
            quality.total_retrievals, quality.unsmooth_retrievals,
            quality.sojourn_sum, sim.arrivals, sim.departures,
        )
        retrievals, unsmooth, sojourn_sum, arrivals, departures = (
            now - before for now, before in zip(totals, self.totals)
        )
        self.totals = totals
        return dict(
            t_end=t_end,
            step_times=log.time[window].copy(),
            cloud_used=log.cloud_used[window].copy(),
            peer_used=log.peer_used[window].copy(),
            provisioned=log.provisioned[window].copy(),
            shortfall=log.shortfall[window].copy(),
            populations=np.asarray(populations, dtype=np.int64),
            quality_samples=samples,
            arrivals=arrivals,
            departures=departures,
            retrievals=retrievals,
            unsmooth=unsmooth,
            sojourn_sum=sojourn_sum,
            peak_step_events=sim.peak_step_events,
        )


def _mean_mbps(series: np.ndarray) -> float:
    return float(series.mean()) * 8.0 / 1e6 if series.size else 0.0


class EpochLoop:
    """Serve an epoch, observe, reprovision: the closed loop, one
    provisioning epoch at a time.

    A subclass builds its tracker and demand estimator and passes them
    here with its spec (horizon, clusters, SLA terms, streaming rate),
    its epoch length T and the controller's predictor and policy key;
    this constructor builds the cloud facility (billed on the one
    :class:`EpochClock`), the broker and the controller, whose per-chunk
    capacity floor is one streaming rate (it keeps a just-woken channel
    from starving its first viewers).  Bootstrap is lazy
    (:meth:`start`), so a checkpoint resume adopts restored state
    without paying for it.
    """

    def __init__(
        self,
        spec,
        interval_seconds: float,
        *,
        tracker,
        estimator,
        predictor=None,
        controller: Optional[str] = None,
    ) -> None:
        self._horizon = spec.horizon_seconds
        self._interval = interval_seconds
        self._clock = EpochClock(0.0)
        self._run: Optional[EpochRun] = None
        self.tracker = tracker
        self.facility = CloudFacility(
            spec.vm_clusters(), spec.nfs_clusters(), self._clock
        )
        self.broker = Broker(self.facility)
        self._estimator = estimator
        self.controller = ProvisioningController(
            estimator,
            tracker,
            self.broker,
            spec.sla_terms(),
            **self._region_graph(spec),
            predictor=predictor,
            policy=CONTROLLERS[controller or "paper"](),
            min_capacity_per_chunk=spec.constants.streaming_rate,
        )

    def _region_graph(self, spec) -> Dict[str, Any]:
        """The controller's region data: ``topology``, ``slot_region``,
        ``slot_channel`` and ``exact``.  Here one ``"local"`` region over
        the facility's clusters, each slot its own channel, solved by
        the greedy; the geo engine hands over its regions instead."""
        return dict(
            topology=local_topology(self.facility.vm_specs.values()),
            slot_region=local_region,
            slot_channel=own_channel,
            exact=False,
        )

    # ------------------------------------------------------------------
    # Epoch-wise execution (the repro.api streaming protocol)
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Completed epochs so far (0 before the first)."""
        return self._run.epoch if self._run is not None else 0

    @property
    def epochs_total(self) -> int:
        return int(math.ceil(self._horizon / self._interval))

    @property
    def done(self) -> bool:
        return self._run is not None and self._run.done

    @staticmethod
    def _sorted_capacities(decision) -> Dict[int, np.ndarray]:
        return {
            channel_id: decision.per_channel_capacity[channel_id]
            for channel_id in sorted(decision.per_channel_capacity)
        }

    def start(self) -> None:
        """Bootstrap the run (idempotent; resumes skip the bootstrap)."""
        if self._run is None:
            self._run = EpochRun(
                capacities=self._sorted_capacities(self._bootstrap())
            )

    def advance_epoch(self) -> Optional[Dict[str, Any]]:
        """Run one provisioning epoch; ``None`` once the horizon is reached.

        Returns the epoch's streaming payload (the flat summary
        :mod:`repro.api` wraps into an ``EpochSnapshot``).  A fully
        drained engine's :meth:`result` is byte-identical however the
        run was streamed, checkpointed or resumed.
        """
        self.start()
        run = self._run
        if run.done:
            return None
        k = run.epoch + 1
        t_end = min(k * self._interval, self._horizon)
        data = self._advance_data(t_end, run.capacities)
        run.epoch = k
        run.epoch_times.append(t_end)
        run.epochs.append(data)
        decision = None
        if t_end + 1e-9 >= self._horizon or k >= self.epochs_total:
            run.done = True
        else:
            decision = self._reprovision(t_end, data)
            run.capacities = self._sorted_capacities(decision)
            run.vm_cost_series.append(decision.hourly_vm_cost)
        return self._epoch_payload(k, t_end, data, decision)

    @staticmethod
    def _epoch_payload(
        k: int, t_end: float, data: _EpochData, decision,
    ) -> Dict[str, Any]:
        """Flat per-epoch summary for streaming consumers."""
        ratios = [
            1.0 if users == 0 else smooth / users
            for _, smooth, users in data.quality_samples
        ]
        populations = data.populations
        return {
            "epoch": k,
            "t_end": float(t_end),
            "arrivals": int(data.arrivals),
            "departures": int(data.departures),
            "population": int(populations[-1]) if populations.size else 0,
            "peak_population": (
                int(populations.max()) if populations.size else 0
            ),
            "used_mbps": _mean_mbps(data.cloud_used),
            "peer_mbps": _mean_mbps(data.peer_used),
            "provisioned_mbps": _mean_mbps(data.provisioned),
            "shortfall_mbps": _mean_mbps(data.shortfall),
            "quality": float(np.mean(ratios)) if ratios else 1.0,
            "vm_cost_per_hour": (
                float(decision.hourly_vm_cost) if decision is not None else 0.0
            ),
            "decision": decision,
        }

    def result(self):
        """The monolithic result of the (fully drained) run."""
        if not self.done:
            raise RuntimeError(
                "the run is not finished; drain advance_epoch() (or use "
                "run()) before asking for the result"
            )
        return self._make_result()

    def run(self):
        """Execute the whole horizon and return the monolithic result."""
        while self.advance_epoch() is not None:
            pass
        return self.result()

    # ------------------------------------------------------------------
    # Lifecycle (the sharded engine releases its workers here)
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release worker processes (idempotent)."""

    def suspend(self) -> None:
        """Park the run between epochs, releasing worker processes."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Checkpoint support (repro.api's checkpoint()/resume())
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """One picklable object graph capturing the whole run.

        The control-plane objects go in together so shared references
        (controller -> tracker/broker -> facility -> clock) survive a
        pickle round-trip as one consistent graph.
        """
        self.start()
        return {
            "run": self._run,
            "clock": self._clock,
            "tracker": self.tracker,
            "facility": self.facility,
            "broker": self.broker,
            "estimator": self._estimator,
            "controller": self.controller,
            **self._data_plane_state(),
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Adopt a :meth:`snapshot_state` graph (before any epoch ran)."""
        if self._run is not None:
            raise RuntimeError("can only restore into a fresh engine")
        self._restore_data_plane(state)
        self._run = state["run"]
        self._clock = state["clock"]
        self.tracker = state["tracker"]
        self.facility = state["facility"]
        self.broker = state["broker"]
        self._estimator = state["estimator"]
        self.controller = state["controller"]


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

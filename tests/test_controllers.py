"""Tests for repro.core.controller: the policy protocol and rival zoo.

Four concerns:

* the registry maps every policy key to a policy class that the one
  controller holds in every engine, and unknown keys fail fast;
* the paper controller is *byte-identical* through the protocol refactor
  (controller=None vs controller="paper", all three engines);
* the policy state machines match hand-computed traces (reactive
  hysteresis, Adapt level+trend damping, PID anti-windup and bounded
  actuation, MPC greedy fallback) and single- and multi-region
  controllers record one in-budget decision per interval;
* the ``ablation-controllers`` summary artifact has the promised schema.
"""

import json
import types

import numpy as np
import pytest

from helpers import local_graph
from repro.cloud.broker import Broker, CloudFacility
from repro.cloud.cluster import NFSClusterSpec, VirtualClusterSpec
from repro.core.controller import (
    CONTROLLERS,
    AdaptEstimator,
    MPCPolicy,
    PIDLoop,
    PIDPolicy,
    ReactiveScaler,
    controller_names,
)
from repro.core.demand import DemandEstimator
from repro.core.provisioner import ProvisioningController
from repro.core.sla import SLATerms
from repro.queueing.capacity import CapacityModel
from repro.sim.loop import EpochClock
from repro.vod.tracker import TrackingServer

R = 10e6 / 8.0
r = 50_000.0


def make_facility():
    vm = [
        VirtualClusterSpec("standard", 0.6, 0.45, 30, R),
        VirtualClusterSpec("advanced", 1.0, 0.80, 15, R),
    ]
    nfs = [
        NFSClusterSpec("standard", 0.8, 1.11e-4, 5 * 1024**3),
        NFSClusterSpec("high", 1.0, 2.08e-4, 5 * 1024**3),
    ]
    return CloudFacility(vm, nfs, EpochClock())


def make_controller(policy=None, budget=40.0):
    model = CapacityModel(streaming_rate=r, chunk_duration=300.0,
                          vm_bandwidth=R)
    tracker = TrackingServer(2, [4, 4], interval_seconds=3600.0)
    broker = Broker(make_facility())
    estimator = DemandEstimator(model, "client-server")
    controller = ProvisioningController(
        estimator, tracker, broker, SLATerms(vm_budget_per_hour=budget),
        *local_graph(broker.facility), policy=policy,
    )
    return controller, tracker


def feed_interval(tracker, channel=0, arrivals=360, upload=2 * r):
    """One interval's observations, absorbed the way the engines hand
    a kernel's closed interval to the controller's tracker."""
    stats = tracker.empty_stats(channel)
    stats.arrivals = arrivals
    stats.start_chunk_counts[0] = arrivals
    stats.upload_capacity_sum = arrivals * upload
    stats.upload_capacity_samples = arrivals
    stats.transition_counts[0, 1] = 50
    stats.departure_counts[1] = 50
    tracker.absorb(stats)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_paper_first_then_rivals(self):
        assert controller_names() == (
            "paper", "reactive", "adapt", "pid", "mpc"
        )

    @pytest.mark.parametrize("name", list(CONTROLLERS))
    def test_both_flavors_resolve_and_carry_policy_key(self, name):
        for engine in _engines(name):
            assert type(engine.controller.policy) is CONTROLLERS[name]

    def test_unknown_key_names_registered(self):
        from repro.api import EngineConfig
        from repro.workload.catalog import catalog_config

        with pytest.raises(ValueError, match="registered: paper, reactive"):
            EngineConfig(spec=catalog_config(), controller="nope")

    def test_every_engine_builds_the_one_controller(self):
        from repro.experiments.config import small_scenario
        from repro.experiments.runner import ClosedLoopEngine

        closed = ClosedLoopEngine(small_scenario("p2p", horizon_hours=1))
        single, geo = _engines("paper")
        kinds = {type(e.controller) for e in (closed, single, geo)}
        assert kinds == {ProvisioningController}


def _engines(controller):
    """A single-region and a geo catalog engine (never started) under
    one policy key."""
    from repro.sim.shard import make_engine
    from repro.workload.catalog import catalog_config, geo_catalog_config

    sizes = dict(num_channels=2, chunks_per_channel=2, horizon_hours=0.5,
                 num_shards=1, interval_minutes=10.0)
    engines = []
    for config in (catalog_config(**sizes),
                   geo_catalog_config(topology="us-eu-ap", **sizes)):
        with make_engine(config, controller=controller) as engine:
            engines.append(engine)
    return engines


# ----------------------------------------------------------------------
# Paper-controller byte-parity through the refactor
# ----------------------------------------------------------------------

class TestPaperParity:
    def test_closed_loop_engine(self):
        from repro.experiments.config import small_scenario
        from repro.experiments.runner import ClosedLoopEngine

        scenario = small_scenario("client-server", horizon_hours=2)
        default = ClosedLoopEngine(scenario).run()
        explicit = ClosedLoopEngine(scenario, controller="paper").run()
        assert default.used_series == explicit.used_series
        assert default.provisioned_series == explicit.provisioned_series
        assert default.vm_cost_series == explicit.vm_cost_series
        assert default.average_quality == explicit.average_quality

    def test_catalog_engine(self):
        from repro.sim.shard import ShardedSimulator
        from repro.workload.catalog import catalog_config

        config = catalog_config(
            num_channels=6, chunks_per_channel=4, horizon_hours=0.5,
            arrival_rate=0.5, num_shards=3, dt=60.0, interval_minutes=10.0,
        )
        with ShardedSimulator(config, jobs=1) as engine:
            default = engine.run()
        with ShardedSimulator(config, jobs=1, controller="paper") as engine:
            explicit = engine.run()
        for name in ("times", "cloud_used", "provisioned", "quality"):
            a, b = getattr(default, name), getattr(explicit, name)
            assert a.tobytes() == b.tobytes(), name
        assert default.vm_cost_series == explicit.vm_cost_series

    def test_geo_catalog_engine(self):
        from repro.sim.shard import make_engine
        from repro.workload.catalog import geo_catalog_config

        config = geo_catalog_config(
            num_channels=6, chunks_per_channel=3, horizon_hours=0.5,
            arrival_rate=0.5, num_shards=3, dt=60.0, interval_minutes=10.0,
            topology="us-eu-ap",
        )
        with make_engine(config, jobs=1) as engine:
            default = engine.run()
        with make_engine(config, jobs=1, controller="paper") as engine:
            explicit = engine.run()
        for name in ("times", "cloud_used", "provisioned", "quality"):
            a, b = getattr(default, name), getattr(explicit, name)
            assert a.tobytes() == b.tobytes(), name
        assert default.epoch_remote_fractions == \
            explicit.epoch_remote_fractions


# ----------------------------------------------------------------------
# Policy state machines: hand-computed traces
# ----------------------------------------------------------------------

class TestReactiveScaler:
    def test_holds_inside_band_retargets_on_breach(self):
        scaler = ReactiveScaler(
            up_threshold=1.1, down_threshold=0.7, headroom=0.2
        )
        assert scaler.update("c", 1.0) == pytest.approx(1.2)  # first sight
        # 1.1 is inside [1.2*0.7, 1.2*1.1] = [0.84, 1.32]: hold.
        assert scaler.update("c", 1.1) == pytest.approx(1.2)
        # 2.0 breaks the upper bound: re-target with headroom.
        assert scaler.update("c", 2.0) == pytest.approx(2.4)
        # 1.5 < 2.4*0.7 = 1.68: scale-down breach, re-target.
        assert scaler.update("c", 1.5) == pytest.approx(1.8)

    def test_keys_are_independent(self):
        scaler = ReactiveScaler()
        scaler.update("a", 10.0)
        assert scaler.update("b", 1.0) == pytest.approx(1.2)

    def test_validates_band(self):
        with pytest.raises(ValueError):
            ReactiveScaler(up_threshold=0.9)
        with pytest.raises(ValueError):
            ReactiveScaler(down_threshold=0.0)


class TestAdaptEstimator:
    def test_level_trend_recurrence(self):
        est = AdaptEstimator(weight=0.5, negative_damping=15.0)
        # First observation seeds the level; no trend yet.
        assert est.update("c", 2.0) == pytest.approx(2.0)
        # level = .5*4 + .5*2 = 3; trend = .5*(3-2) = 0.5; predict 3.5.
        assert est.update("c", 4.0) == pytest.approx(3.5)
        # level = .5*1 + .5*3 = 2; trend = .5*(2-3) + .5*0.5 = -0.25;
        # negative trend damped by 15: predict 2 - 0.25/15.
        assert est.update("c", 1.0) == pytest.approx(2.0 - 0.25 / 15.0)

    def test_prediction_never_negative(self):
        est = AdaptEstimator(weight=1.0, negative_damping=1.0)
        est.update("c", 10.0)
        assert est.update("c", 0.0) >= 0.0

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            AdaptEstimator(weight=0.0)
        with pytest.raises(ValueError):
            AdaptEstimator(negative_damping=0.5)


class TestPIDLoop:
    def test_gain_formula_when_unsaturated(self):
        pid = PIDLoop(kp=0.1, ki=0.1, kd=0.0, min_gain=0.5, max_gain=4.0)
        # e=0.5: output = 1 + .05 + .05 = 1.1, inside bounds.
        assert pid.update(0.5) == pytest.approx(1.1)
        assert pid.integral == pytest.approx(0.5)

    def test_actuation_bounded(self):
        pid = PIDLoop(kp=1.0, ki=1.0, kd=1.0, min_gain=0.5, max_gain=2.0)
        for error in (50.0, -50.0, 3.0, -3.0, 0.0):
            gain = pid.update(error)
            assert 0.5 <= gain <= 2.0

    def test_anti_windup_conditional_integration(self):
        """A long saturated excursion must not charge the integrator."""
        pid = PIDLoop(kp=1.0, ki=1.0, kd=0.0, min_gain=0.5, max_gain=2.0)
        for _ in range(10):
            assert pid.update(5.0) == 2.0  # clamped at max_gain
        assert pid.saturated_steps == 10
        assert pid.integral == 0.0  # never committed while saturated
        # Back to zero error: output snaps to ~1 instead of overshooting.
        assert pid.update(0.0) == pytest.approx(1.0)
        assert pid.saturated_steps == 10

    def test_validates_bounds(self):
        with pytest.raises(ValueError):
            PIDLoop(min_gain=0.0)
        with pytest.raises(ValueError):
            PIDLoop(min_gain=2.0, max_gain=1.0)


# ----------------------------------------------------------------------
# Policies composed with the real controller
# ----------------------------------------------------------------------

class TestPoliciesInTheLoop:
    @pytest.mark.parametrize("name", list(CONTROLLERS))
    def test_every_policy_closes_the_loop(self, name):
        controller, tracker = make_controller(CONTROLLERS[name]())
        controller.bootstrap(0.0, {0: 0.1, 1: 0.05})
        feed_interval(tracker, arrivals=360)
        decision = controller.run_interval(3600.0)
        feed_interval(tracker, arrivals=720)
        controller.run_interval(7200.0)
        assert len(controller.decisions) == 3
        assert decision.hourly_vm_cost <= 40.0 + 1e-9

    def test_pid_escalates_under_persistent_underprovisioning(self):
        """With the budget pinning grants far below demand, the PID sees
        utilization error > 0 every interval and scales the request —
        but never past max_gain times the paper's analysis."""
        pid_ctrl, pid_tracker = make_controller(PIDPolicy(), budget=2.0)
        assert pid_ctrl.policy.loop.max_gain == 4.0
        paper_ctrl, paper_tracker = make_controller(budget=2.0)
        for ctrl, tracker in ((pid_ctrl, pid_tracker),
                              (paper_ctrl, paper_tracker)):
            ctrl.bootstrap(0.0, {0: 1.0, 1: 0.0})
            for k in range(1, 4):
                feed_interval(tracker, arrivals=7200)
                ctrl.run_interval(3600.0 * k)
        pid_demand = pid_ctrl.decisions[-1].total_cloud_demand
        paper_demand = paper_ctrl.decisions[-1].total_cloud_demand
        assert pid_demand > paper_demand  # it escalated
        assert pid_demand <= 4.0 * paper_demand + 1e-6  # bounded actuation

    def test_mpc_falls_back_to_greedy_when_lp_infeasible(self):
        """Growing demand under a near-zero budget makes the exact LP
        infeasible; the controller must count the fallback and keep
        producing decisions from the greedy's partial plan."""
        controller, tracker = make_controller(MPCPolicy(), budget=0.001)
        controller.bootstrap(0.0, {0: 0.5, 1: 0.0})
        feed_interval(tracker, arrivals=1800)
        controller.run_interval(3600.0)  # seeds the rate history
        assert controller.policy.lp_fallbacks == 0
        feed_interval(tracker, arrivals=3600)
        decision = controller.run_interval(7200.0)
        assert controller.policy.lp_fallbacks >= 1
        assert decision.total_cloud_demand > 0.0

    def test_mpc_never_shapes_below_the_analysis(self):
        controller, tracker = make_controller(MPCPolicy())
        paper, paper_tracker = make_controller()
        for ctrl, trk in ((controller, tracker), (paper, paper_tracker)):
            ctrl.bootstrap(0.0, {0: 0.5, 1: 0.0})
            feed_interval(trk, arrivals=900)
            ctrl.run_interval(3600.0)
            feed_interval(trk, arrivals=1800)
            ctrl.run_interval(7200.0)
        mpc_demand = controller.decisions[-1].demands[0].cloud_demand
        paper_demand = paper.decisions[-1].demands[0].cloud_demand
        assert np.all(mpc_demand >= paper_demand - 1e-9)


class TestDecisionRecord:
    """Every interval, bootstrap included, is one decision within the VM
    budget, in both region shapes."""

    @pytest.mark.parametrize("geo", [False, True], ids=["single", "geo"])
    def test_one_decision_per_interval(self, geo):
        from repro.sim.shard import make_engine
        from repro.workload.catalog import catalog_config, geo_catalog_config

        make = geo_catalog_config if geo else catalog_config
        extra = {"topology": "us-eu-ap"} if geo else {}
        config = make(
            num_channels=4, chunks_per_channel=3, horizon_hours=0.5,
            arrival_rate=0.5, num_shards=2, dt=60.0, interval_minutes=10.0,
            **extra,
        )
        with make_engine(config, jobs=1) as engine:
            engine.run()
        controller = engine.controller
        assert len(controller.decisions) == 3
        limit = controller.terms.vm_budget_per_hour + 1e-9
        for decision in controller.decisions:
            assert decision.rejected is None
            assert decision.agreement.hourly_vm_cost <= limit


# ----------------------------------------------------------------------
# The ablation summary artifact
# ----------------------------------------------------------------------

def _fake_report(tmp_path):
    def outcome(catalog, controller, seed, cost, quality, penalty):
        return types.SimpleNamespace(
            cell=types.SimpleNamespace(params=(
                ("catalog", catalog), ("controller", controller),
                ("seed", seed),
            )),
            metrics={
                "vm_cost_per_hour": cost,
                "average_quality": quality,
                "sla_penalty_dollars": penalty,
                "sla_quality_violations": 1,
                "sla_budget_violations": 0,
            },
        )

    return types.SimpleNamespace(
        scenario="ablation-controllers",
        out_dir=str(tmp_path),
        outcomes=[
            outcome("zipf", "paper", 1, 10.0, 0.99, 0.0),
            outcome("zipf", "paper", 2, 12.0, 0.97, 10.0),
            outcome("zipf", "pid", 1, 14.0, 0.98, 5.0),
            outcome("geo", "paper", 1, 20.0, 0.95, 30.0),
        ],
    )


class TestControllerSummary:
    def test_schema_and_seed_means(self, tmp_path):
        from repro.experiments.controllers import (
            CONTROLLER_SUMMARY_SCHEMA,
            SUMMARY_METRICS,
            summary_table,
            write_controller_summary,
        )

        path = write_controller_summary(_fake_report(tmp_path))
        assert path == tmp_path / "ablation-controllers" / "summary.json"
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-controller-summary"
        assert payload["schema"] == CONTROLLER_SUMMARY_SCHEMA
        assert payload["metrics"] == list(SUMMARY_METRICS)
        # Rows sorted by (catalog, controller); means over seeds.
        keys = [(row["catalog"], row["controller"])
                for row in payload["rows"]]
        assert keys == [("geo", "paper"), ("zipf", "paper"), ("zipf", "pid")]
        zipf_paper = payload["rows"][1]
        assert zipf_paper["seeds"] == 2
        assert zipf_paper["vm_cost_per_hour"] == pytest.approx(11.0)
        assert zipf_paper["sla_penalty_dollars"] == pytest.approx(5.0)

        headers, rows = summary_table(payload)
        assert headers[:2] == ["catalog", "controller"]
        assert len(rows) == 3 and len(rows[0]) == len(headers)

    def test_cell_runner_scores_sla(self):
        from repro.experiments.controllers import run_controller_cell

        metrics = run_controller_cell(
            seed=7, controller="reactive", catalog="zipf",
            num_channels=4, chunks_per_channel=3, horizon_hours=0.25,
            arrival_rate=0.5, dt=60.0, interval_minutes=10.0, num_shards=2,
            mode="client-server",
        )
        for key in ("average_quality", "vm_cost_per_hour",
                    "sla_penalty_dollars", "sla_quality_violations",
                    "sla_budget_violations"):
            assert key in metrics
        assert metrics["sla_penalty_dollars"] >= 0.0

    def test_cell_runner_rejects_unknown_catalog(self):
        from repro.experiments.controllers import run_controller_cell

        with pytest.raises(ValueError, match="unknown catalog shape"):
            run_controller_cell(seed=1, catalog="weird")


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

class TestCLISurface:
    def test_run_and_catalog_accept_controller(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["run", "--controller", "pid"])
        assert args.controller == "pid"
        args = parser.parse_args(["catalog", "--controller", "mpc"])
        assert args.controller == "mpc"
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--controller", "nope"])

    def test_scenarios_json_reports_controller_knob(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "ablation-controllers", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["controller"] == list(controller_names())
        assert payload["grid"]["catalog"] == ["zipf", "flash", "geo"]

    def test_scenarios_json_defaults_to_paper(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "catalog-zipf", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["controller"] == "paper"

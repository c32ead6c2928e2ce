"""The provisioning-controller protocol and the rival-policy zoo.

The paper has exactly one provisioning loop: observe the closed
interval, predict the next arrival rates, run the Section IV demand
analysis, then optimize, negotiate and rent (Section V-B).  This module
holds that loop once and makes the *policy* a plain object the
controller is handed, not a class it inherits:

* :class:`Controller` — the structural protocol every engine drives
  (``bootstrap`` / ``run_interval`` / ``provision`` / ``decisions``).
* :class:`ProvisioningControllerBase` — the loop, shared by the two
  region shapes, :class:`~repro.core.provisioner.ProvisioningController`
  (single region) and
  :class:`~repro.geo.controller.GeoProvisioningController` (multi
  region).  It also owns the Eqn (7) solve over the flavour's region
  graph, the broker request, the rejection catch, the storage
  bookkeeping and the per-chunk grants with their floor.  A flavour's
  ``provision`` keeps only what differs: the broker's cluster names,
  how storage demand is pooled, egress billing and its decision type.
* Policies — :class:`PaperPolicy` and its rivals :class:`ReactivePolicy`,
  :class:`AdaptPolicy`, :class:`PIDPolicy`, :class:`MPCPolicy`.  The
  controller calls two hooks on its policy, handing itself over:
  ``target_rates(controller, stats)`` (what arrival rates to provision
  for) and ``shape_demands(controller, demands)`` (how to transform the
  analyzed demand vector).  Any policy works with either region shape.
* :data:`CONTROLLERS` — the registry keyed by the ``controller`` knob
  (:class:`repro.api.EngineConfig`, ``repro run/catalog/geo
  --controller``, the ``ablation-controllers`` scenarios), mapping each
  key to its policy class.

The rival policies:

``reactive``
    Threshold scaling with hysteresis: hold the provisioned target rate
    until the observed rate breaks out of a band, then re-target with
    headroom.  The classic rule-based autoscaler baseline.
``adapt``
    An Adapt-style proactive estimator with weighted history (after the
    OpenDC autoscaling prototype): per-channel exponentially weighted
    level + trend, with the characteristic asymmetric damping of
    negative trends (scale-down 15x more cautiously than scale-up).
``pid``
    A PID loop on the demand/grant utilization error, acting as a
    bounded multiplier on the demand vector, with conditional-
    integration anti-windup.
``mpc``
    Receding-horizon model-predictive control: forecast demand growth
    over the horizon, provision for the window's peak, and bound the
    anticipatory demand by solving the *exact*
    :class:`~repro.geo.allocation.GeoVMProblem` LP over the shaped
    demand — falling back to the greedy when the grown demand makes the
    LP infeasible under the budget.

``reactive`` and ``adapt`` form their own rate estimate, so they never
consult the controller's arrival-rate predictor
(``uses_predictor = False``); the others do.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.cloud.broker import NegotiationError, ResourceRequest
from repro.core.demand import ChannelDemand, ChunkKey
from repro.core.predictor import LastIntervalPredictor
from repro.vod.delivery import sequential_sum
from repro.vod.tracker import IntervalStats

__all__ = [
    "Controller",
    "ProvisioningControllerBase",
    "ReactiveScaler",
    "AdaptEstimator",
    "PIDLoop",
    "PaperPolicy",
    "ReactivePolicy",
    "AdaptPolicy",
    "PIDPolicy",
    "MPCPolicy",
    "CONTROLLERS",
    "controller_names",
    "storage_demand_shifted",
    "chunk_offsets",
    "STORAGE_REPLAN_THRESHOLD",
]

#: Relative L1 change in the chunk-demand vector that triggers a storage
#: replan ("if the demand for chunks has changed significantly since
#: last interval", Section V-B).
STORAGE_REPLAN_THRESHOLD = 0.25

#: The PID policy's utilization setpoint (analyzed demand / granted).
PID_SETPOINT = 1.0

#: The MPC policy's horizon (intervals) and per-interval growth clamp.
MPC_HORIZON = 3
MPC_MAX_GROWTH = 3.0


def chunk_offsets(demands: Sequence[ChannelDemand]) -> Dict[int, int]:
    """Each channel's first position in the flat layout of ``demands``
    (every channel's chunks in turn), the layout the grants land in."""
    offsets: Dict[int, int] = {}
    size = 0
    for demand in demands:
        offsets[demand.channel_id] = size
        size += demand.cloud_demand.size
    return offsets


def storage_demand_shifted(
    last: Mapping[ChunkKey, float],
    current: Mapping[ChunkKey, float],
    threshold: float,
) -> bool:
    """Has chunk demand shifted enough to replan storage (Section V-B)?

    True when videos were added/removed (key sets differ) or the
    relative L1 change of the demand vector exceeds ``threshold``.
    """
    if set(current) != set(last):
        return True  # videos added or removed
    baseline = sequential_sum(last.values())
    if baseline <= 0:
        return any(v > 0 for v in current.values())
    shift = sequential_sum(abs(current[k] - last.get(k, 0.0)) for k in current)
    return shift / baseline > threshold


class Controller(Protocol):
    """What every provisioning controller looks like to an engine.

    The engines (:class:`repro.experiments.runner.ClosedLoopEngine`,
    :class:`repro.sim.shard.ShardedSimulator`,
    :class:`repro.sim.shard.GeoShardedSimulator`) only ever call these
    three methods and read ``decisions``; anything satisfying this
    protocol plugs into the closed loop.
    """

    decisions: List[Any]

    def bootstrap(
        self,
        now: float,
        expected_rates: Mapping[int, float],
        *,
        peer_upload: Optional[float] = None,
    ) -> Any:
        """Initial deployment from expected per-channel arrival rates."""
        ...

    def run_interval(
        self,
        now: float,
        *,
        peer_upload: Optional[float] = None,
    ) -> Any:
        """One periodic provisioning round at time ``now``."""
        ...

    def provision(self, now: float, demands: List[ChannelDemand]) -> Any:
        """Optimize, negotiate and apply a set of channel demands."""
        ...


class ProvisioningControllerBase:
    """The shared observe -> predict -> analyze -> provision loop.

    Subclasses provide :meth:`provision`, ``topology`` (the region graph
    every Eqn (7) solve runs over: one ``"local"`` region for the
    single-region controller), ``_viewer_region`` (a channel's viewer
    region, for :meth:`_vm_problem`) and ``_broker_cluster`` (the name
    the broker knows a cluster by); they solve with :meth:`_allocate`
    and finish each decision with :meth:`_rent`.

    ``bootstrap`` never consults the policy: the initial deployment has
    no history for any policy to act on, so it is policy-invariant by
    construction (and byte-identical to the paper's).

    Parameters
    ----------
    predictor:
        Arrival-rate predictor the paper-style policies consult
        (last-interval by default).
    policy:
        The provisioning policy (a :data:`CONTROLLERS` value, built);
        the paper's by default.
    min_capacity_per_chunk:
        Optional floor (bytes/s) on granted capacity for chunks with a
        nonzero expected population; guards the first interval after a
        channel wakes up.
    """

    def __init__(
        self,
        estimator,
        tracker,
        broker,
        terms,
        *,
        predictor=None,
        policy=None,
        min_capacity_per_chunk: float = 0.0,
    ) -> None:
        self.estimator = estimator
        self.tracker = tracker
        self.broker = broker
        self.terms = terms
        self.predictor = predictor or LastIntervalPredictor()
        self.policy = policy if policy is not None else PaperPolicy()
        self.min_capacity_per_chunk = min_capacity_per_chunk
        self.decisions: List[Any] = []
        self._last_chunk_demand: Optional[Dict[Any, float]] = None
        self._storage_planned = False
        self._problem_layout: Optional[tuple] = None

    # ------------------------------------------------------------------
    @property
    def vm_bandwidth(self) -> float:
        return self.estimator.model.vm_bandwidth

    @property
    def chunk_size_bytes(self) -> float:
        return self.estimator.model.chunk_size_bytes

    def _should_replan_storage(
        self, chunk_demand: Mapping[Any, float]
    ) -> bool:
        if not self._storage_planned:
            return True
        return storage_demand_shifted(
            self._last_chunk_demand or {},
            chunk_demand,
            STORAGE_REPLAN_THRESHOLD,
        )

    # ------------------------------------------------------------------
    # The shared tail of every decision
    # ------------------------------------------------------------------
    def _rent(
        self,
        vm_targets: Mapping[str, int],
        storage_plan,
        chunk_demand: Mapping[Any, float],
    ):
        """Request the planned VMs and storage from the broker, then keep
        the storage bookkeeping.

        Returns ``(agreement, rejected)``: the broker's agreement, or the
        reason it refused the request.
        """
        placement = (
            storage_plan.to_facility_placement(self.chunk_size_bytes)
            if storage_plan is not None and storage_plan.feasible
            else None
        )
        request = ResourceRequest(
            vm_targets=vm_targets,
            storage_placement=placement,
            max_hourly_budget=self.terms.total_budget_per_hour,
        )
        agreement = None
        rejected: Optional[str] = None
        try:
            agreement = self.broker.request(request)
        except NegotiationError as exc:
            rejected = str(exc)

        if storage_plan is not None and storage_plan.feasible and agreement:
            self._storage_planned = True
        self._last_chunk_demand = dict(chunk_demand)
        return agreement, rejected

    def _allocate(self, demands: Sequence[ChannelDemand], solve):
        """Solve Eqn (7) over ``demands`` with ``solve`` (a
        :mod:`repro.geo.allocation` solver).

        Returns the plan, the broker's VM targets (each cluster's
        fractional total rounded up, keyed by :meth:`_broker_cluster`)
        and the granted bytes/s per channel chunk.
        """
        problem, positions = self._vm_problem(demands)
        plan = solve(problem)
        targets = {
            self._broker_cluster(region, cluster): int(np.ceil(total - 1e-9))
            for (region, cluster), total in zip(
                plan.clusters, plan.cluster_totals().tolist()
            )
        }
        grants = self._channel_capacities(demands, positions[plan.chunk], plan.z)
        return plan, targets, grants

    def _vm_problem(self, demands: Sequence[ChannelDemand]):
        """The multi-region VM problem over ``demands``, and where each of
        its cells sits in the flat layout of ``demands`` (the grants').

        Viewer regions come in topology order; each region's demand is
        its channels' ``cloud_demand`` arrays concatenated in ``demands``
        order, keyed ``(channel, chunk)``.  The grouping, the keys and
        the positions depend only on the channels and their chunk
        counts, so they are rebuilt only when those change.
        """
        # Lazy import: the geo package imports the core one at init.
        from repro.geo.allocation import GeoVMProblem

        shape = [(d.channel_id, d.cloud_demand.size) for d in demands]
        if self._problem_layout is None or self._problem_layout[0] != shape:
            members: Dict[str, List[int]] = {
                name: [] for name in self.topology.region_names()
            }
            for index, (channel, _) in enumerate(shape):
                members[self._viewer_region(channel)].append(index)
            starts = np.concatenate(([0], np.cumsum([n for _, n in shape])))
            chunks = {
                name: tuple(
                    (shape[i][0], k) for i in idx for k in range(shape[i][1])
                )
                for name, idx in members.items()
            }
            positions = np.concatenate([
                np.arange(starts[i], starts[i + 1])
                for idx in members.values() for i in idx
            ] or [np.empty(0, dtype=np.intp)])
            self._problem_layout = (shape, members, chunks, positions)
        _, members, chunks, positions = self._problem_layout
        problem = GeoVMProblem(
            topology=self.topology,
            chunks=chunks,
            demands={
                name: np.concatenate(
                    [demands[i].cloud_demand for i in idx] or [np.empty(0)]
                )
                for name, idx in members.items()
            },
            vm_bandwidth=self.vm_bandwidth,
            budget_per_hour=self.terms.vm_budget_per_hour,
        )
        return problem, positions

    def _channel_capacities(
        self,
        demands: Sequence[ChannelDemand],
        positions: np.ndarray,
        vms: np.ndarray,
    ) -> Dict[int, np.ndarray]:
        """Granted bytes/s per channel chunk, plus the populated-chunk
        floor.

        Allocation row ``a`` grants ``vms[a]`` VMs to the chunk at flat
        position ``positions[a]`` of the layout of ``demands`` (each
        channel's chunks in turn); a chunk's grant is R times its rows'
        VMs, summed in row order (``np.bincount`` adds sequentially from
        0.0).  Each channel's array is its slice of the flat grants.
        """
        offsets = chunk_offsets(demands)
        flat = np.bincount(
            np.asarray(positions, dtype=np.intp),
            weights=np.asarray(vms, dtype=float) * self.vm_bandwidth,
            minlength=sum(d.cloud_demand.size for d in demands),
        )
        if self.min_capacity_per_chunk > 0 and demands:
            populated = np.concatenate(
                [demand.expected_in_system for demand in demands]
            ) > 0
            flat[populated] = np.maximum(
                flat[populated], self.min_capacity_per_chunk
            )
        return dict(zip(offsets, np.split(flat, list(offsets.values())[1:])))

    # ------------------------------------------------------------------
    # The subclass-provided optimization pipeline
    # ------------------------------------------------------------------
    def provision(self, now: float, demands: List[ChannelDemand]):
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Entry points (shared verbatim by every controller)
    # ------------------------------------------------------------------
    def bootstrap(
        self,
        now: float,
        expected_rates: Mapping[int, float],
        *,
        peer_upload: Optional[float] = None,
    ):
        """Initial deployment from expected per-channel arrival rates.

        Builds synthetic interval statistics (no observations; the
        empirical estimator falls back to the prior viewing pattern) and
        runs the normal decision pipeline. The tracker and predictor are
        untouched.
        """
        synthetic: List[IntervalStats] = [
            self.tracker.empty_stats(channel_id)
            for channel_id in sorted(expected_rates)
        ]
        demands = self.estimator.estimate_all(
            synthetic,
            arrival_rates=dict(expected_rates),
            peer_upload=peer_upload,
        )
        return self.provision(now, demands)

    def run_interval(
        self,
        now: float,
        *,
        peer_upload: Optional[float] = None,
    ):
        """Execute one periodic provisioning round at time ``now``.

        ``peer_upload`` optionally injects the measured mean peer upload
        (e.g. the simulator's live value) instead of the tracker's
        per-interval sample mean.
        """
        interval_stats: List[IntervalStats] = self.tracker.close_interval()
        predicted = self.policy.target_rates(self, interval_stats)
        demands = self.estimator.estimate_all(
            interval_stats, arrival_rates=predicted, peer_upload=peer_upload
        )
        return self.provision(now, self.policy.shape_demands(self, demands))


# ----------------------------------------------------------------------
# Policy state machines (standalone so tests can hand-compute traces)
# ----------------------------------------------------------------------

class ReactiveScaler:
    """Per-key threshold scaling with hysteresis.

    Holds the last provisioned target until the observed rate breaks
    out of the ``[down_threshold, up_threshold]`` band around it, then
    re-targets at ``observed * (1 + headroom)``.  The hold keeps the
    actuator from thrashing on noise; the headroom gives breach
    responses a margin so consecutive intervals of steady growth do not
    each trigger a re-target.
    """

    def __init__(
        self,
        up_threshold: float = 1.1,
        down_threshold: float = 0.7,
        headroom: float = 0.2,
    ) -> None:
        if not 0.0 < down_threshold <= 1.0 <= up_threshold:
            raise ValueError(
                "need down_threshold in (0, 1] and up_threshold >= 1"
            )
        if headroom < 0:
            raise ValueError("headroom must be >= 0")
        self.up_threshold = float(up_threshold)
        self.down_threshold = float(down_threshold)
        self.headroom = float(headroom)
        self._held: Dict[Any, float] = {}

    def update(self, key: Any, observed: float) -> float:
        """Observe one rate; return the (possibly held) target rate."""
        held = self._held.get(key)
        if (
            held is None
            or observed > held * self.up_threshold
            or observed < held * self.down_threshold
        ):
            held = observed * (1.0 + self.headroom)
        self._held[key] = held
        return held


class AdaptEstimator:
    """Weighted level + trend estimator (Adapt-style proactive rule).

    Per key, maintains an exponentially weighted level and trend::

        level' = w * r + (1 - w) * level
        trend' = w * (level' - level) + (1 - w) * trend

    and predicts ``level' + trend'`` — except a *negative* trend is
    divided by ``negative_damping`` first (the OpenDC Adapt prototype's
    R/15 rule): scale down an order of magnitude more cautiously than
    up, because under-provisioning hurts viewers while over-provisioning
    only costs money.
    """

    def __init__(
        self, weight: float = 0.5, negative_damping: float = 15.0
    ) -> None:
        if not 0.0 < weight <= 1.0:
            raise ValueError("weight must be in (0, 1]")
        if negative_damping < 1.0:
            raise ValueError("negative damping must be >= 1")
        self.weight = float(weight)
        self.negative_damping = float(negative_damping)
        self._level: Dict[Any, float] = {}
        self._trend: Dict[Any, float] = {}

    def update(self, key: Any, observed: float) -> float:
        """Observe one rate; return the damped level+trend prediction."""
        prev_level = self._level.get(key)
        if prev_level is None:
            level, trend = float(observed), 0.0
        else:
            w = self.weight
            level = w * float(observed) + (1.0 - w) * prev_level
            trend = w * (level - prev_level) + (1.0 - w) * self._trend[key]
        self._level[key] = level
        self._trend[key] = trend
        step = trend if trend >= 0 else trend / self.negative_damping
        return max(0.0, level + step)


class PIDLoop:
    """A discrete PID loop emitting a clamped multiplicative gain.

    ``update(error)`` returns ``1 + kp*e + ki*sum(e) + kd*de`` clamped
    to ``[min_gain, max_gain]``.  Anti-windup is conditional
    integration: the integral term only absorbs the step's error when
    the *unclamped* output was within the actuation bounds, so a long
    saturated excursion cannot charge up the integrator and overshoot on
    the way back.  ``saturated_steps`` counts the clamped updates.
    """

    def __init__(
        self,
        kp: float = 0.6,
        ki: float = 0.15,
        kd: float = 0.1,
        min_gain: float = 0.5,
        max_gain: float = 4.0,
    ) -> None:
        if min_gain <= 0 or max_gain < min_gain:
            raise ValueError("need 0 < min_gain <= max_gain")
        self.kp = float(kp)
        self.ki = float(ki)
        self.kd = float(kd)
        self.min_gain = float(min_gain)
        self.max_gain = float(max_gain)
        self.integral = 0.0
        self.saturated_steps = 0
        self._last_error: Optional[float] = None

    def update(self, error: float) -> float:
        """One step: the clamped gain for this interval's error."""
        derivative = (
            0.0 if self._last_error is None else error - self._last_error
        )
        self._last_error = float(error)
        candidate = self.integral + float(error)
        output = (
            1.0 + self.kp * error + self.ki * candidate + self.kd * derivative
        )
        gain = min(self.max_gain, max(self.min_gain, output))
        if gain != output:
            self.saturated_steps += 1  # conditional integration: discard
        else:
            self.integral = candidate
        return gain


# ----------------------------------------------------------------------
# Policies (each works with either region shape)
# ----------------------------------------------------------------------

def _scaled_demand(demand: ChannelDemand, gain: float) -> ChannelDemand:
    """A channel demand with its cloud-demand vector scaled by ``gain``
    (``ChannelDemand`` is frozen; the other fields carry over)."""
    return replace(demand, cloud_demand=demand.cloud_demand * float(gain))


class PaperPolicy:
    """Last-interval prediction + threshold replan (Section V-B).

    Every observation goes to the controller's predictor, which then
    answers for the channel; the analyzed demand vector is provisioned
    as is.  The rivals override one of the two hooks.
    """

    #: Does the policy consult the controller's arrival-rate predictor?
    uses_predictor = True

    def target_rates(
        self, controller, interval_stats: Sequence[IntervalStats]
    ) -> Dict[int, float]:
        """Per-channel arrival rates to provision the next interval for."""
        predictor = controller.predictor
        predicted: Dict[int, float] = {}
        for stats in interval_stats:
            predictor.observe(stats.channel_id, stats.arrival_rate)
            predicted[stats.channel_id] = predictor.predict(stats.channel_id)
        return predicted

    def shape_demands(
        self, controller, demands: List[ChannelDemand]
    ) -> List[ChannelDemand]:
        """Transform the analyzed demand vector (identity here)."""
        del controller
        return demands


class _RulePolicy(PaperPolicy):
    """Target rates from a per-channel rule (``self.rule.update``)
    instead of the predictor."""

    uses_predictor = False
    rule: Any

    def target_rates(self, controller, interval_stats):
        del controller
        return {
            stats.channel_id: self.rule.update(
                stats.channel_id, stats.arrival_rate
            )
            for stats in interval_stats
        }


class ReactivePolicy(_RulePolicy):
    """Threshold scaling with hysteresis and headroom
    (:class:`ReactiveScaler`)."""

    def __init__(self) -> None:
        self.rule = ReactiveScaler()


class AdaptPolicy(_RulePolicy):
    """Adapt-style weighted level + trend estimation
    (:class:`AdaptEstimator`, after the OpenDC prototype)."""

    def __init__(self) -> None:
        self.rule = AdaptEstimator()


class PIDPolicy(PaperPolicy):
    """PID on the demand/grant utilization error, shaping the demand.

    The measured signal is the ratio of this interval's analyzed total
    demand to the capacity actually granted last interval; the error is
    its excess over :data:`PID_SETPOINT`.  The loop's clamped gain
    multiplies every channel's demand vector, so persistent
    under-provisioning (ratio > setpoint) escalates the request and
    slack capacity relaxes it — bounded actuation by construction.
    """

    def __init__(self) -> None:
        self.loop = PIDLoop()

    def shape_demands(self, controller, demands):
        total = float(sequential_sum(d.total_cloud_demand for d in demands))
        granted = 0.0
        if controller.decisions:
            last = controller.decisions[-1]
            granted = float(
                sequential_sum(arr.sum() for arr in last.per_channel_capacity.values())
            )
        if granted <= 0.0 or total <= 0.0:
            return demands  # no utilization signal yet
        gain = self.loop.update(total / granted - PID_SETPOINT)
        if gain == 1.0:
            return demands
        return [_scaled_demand(d, gain) for d in demands]


class MPCPolicy(PaperPolicy):
    """Receding-horizon MPC with the exact geo LP as the inner solve.

    Each interval: record the analyzed total demand, estimate the
    per-interval growth factor from the last step, and provision for the
    anticipated *peak* over the next :data:`MPC_HORIZON` intervals
    (``growth ** horizon``, growth clamped to :data:`MPC_MAX_GROWTH`).
    The grown demand is then bounded by reality: the exact
    :class:`~repro.geo.allocation.GeoVMProblem` LP is solved over it
    under the VM budget, on the controller's ``topology`` (one
    ``"local"`` region for the single-region controller), and each
    chunk's anticipatory demand is clipped to the capacity that solve
    could actually place (never below the unshaped analysis).  When the
    grown demand is infeasible under the budget the LP has no solution —
    ``lp_fallbacks`` counts those intervals and the greedy's best-effort
    partial plan bounds the shaping instead.
    """

    def __init__(self) -> None:
        self.lp_fallbacks = 0
        self._rate_history: List[float] = []

    def _solve(self, controller, demands: Sequence[ChannelDemand]):
        """Exact LP over the shaped demand; greedy when infeasible.

        Returns the plan and its cells' positions in the flat layout of
        ``demands``."""
        # Lazy import: the geo package imports the core one at init.
        from repro.geo.allocation import greedy_geo_allocation, lp_geo_allocation

        problem, positions = controller._vm_problem(demands)
        plan = lp_geo_allocation(problem)
        if not plan.feasible:
            self.lp_fallbacks += 1
            plan = greedy_geo_allocation(problem)
        return plan, positions

    def shape_demands(self, controller, demands):
        total = float(sequential_sum(d.total_cloud_demand for d in demands))
        history = self._rate_history
        prev = history[-1] if history else None
        history.append(total)
        if len(history) > MPC_HORIZON + 1:
            del history[: len(history) - (MPC_HORIZON + 1)]
        if prev is None or prev <= 0.0 or total <= 0.0:
            return demands  # no growth signal yet
        growth = min(MPC_MAX_GROWTH, total / prev)
        factor = max(1.0, growth ** MPC_HORIZON)
        shaped = (
            demands
            if factor <= 1.0 + 1e-12
            else [_scaled_demand(d, factor) for d in demands]
        )
        plan, positions = self._solve(controller, shaped)
        served = np.bincount(
            positions[plan.chunk],
            weights=plan.z * controller.vm_bandwidth,
            minlength=positions.size,
        )
        clipped: List[ChannelDemand] = []
        offset = 0
        for base, grown in zip(demands, shaped):
            size = grown.cloud_demand.size
            cap = served[offset:offset + size]
            offset += size
            clipped.append(replace(grown, cloud_demand=np.maximum(
                base.cloud_demand, np.minimum(grown.cloud_demand, cap)
            )))
        return clipped


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------

#: Policy key -> policy class, paper first.
CONTROLLERS: Dict[str, type] = {
    "paper": PaperPolicy,
    "reactive": ReactivePolicy,
    "adapt": AdaptPolicy,
    "pid": PIDPolicy,
    "mpc": MPCPolicy,
}


def controller_names() -> Tuple[str, ...]:
    """The registered policy keys, registry order (paper first)."""
    return tuple(CONTROLLERS)

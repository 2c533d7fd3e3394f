"""The fluid simulation engine.

:class:`ClusterSimulator` advances simulated time from event to event.
Between events the rate of every live flow is constant (computed by the
max-min fair allocator), so per-node CPU utilization — and therefore power —
is piecewise constant and energy integrates exactly.

One event loop, :meth:`ClusterSimulator.run`, serves every run.  Its
events are: a job arriving (its start time), a flow completing, and a
phase barrier releasing the next phase of a job.  Two optional inputs add
event kinds, and cost nothing while absent:

* a dynamic :class:`~repro.policy.policies.ControlPolicy`
  (``run(jobs, policy=...)``) adds periodic *control ticks*, at which the
  policy observes the cluster and may gate or wake nodes or step their
  DVFS factors, and *power-state transitions* (gating -> gated, waking ->
  active) completing.  Nodes then carry a power state — ``active``
  (normal), ``gating``/``waking`` (transitioning: no capacity, near-peak
  transition power), ``gated`` (off: no capacity, standby residual
  power);
* a non-empty :class:`~repro.faults.schedule.FaultSchedule`
  (``run(jobs, faults=...)``) adds fault onsets and offsets — node
  crashes and recoveries, stragglers, network degrades — and the retry
  backoffs of the jobs a crash killed.

A job whose flows demand a node that is not active is *held* at arrival
until every node it needs is active again, so wake-up and recovery
latency show up in its response time exactly where a production cluster
would pay them.  Without a dynamic policy or a fault, every node stays
active and the loop replays the plain max-min fair schedule.

Per-composition memo
--------------------
Between two events the allocation is a pure function of the *live
composition*: the ordered specs of the live flows, every node's effective
DVFS factor, and the network degrade factor.  Trace jobs share interned
:class:`~repro.simulator.jobs.FlowSpec` objects, so compositions repeat
far more often than they change.  ``run`` therefore keeps a memo for the
run, keyed by ``(spec ids in live order, effective factors, network
factor)``, that holds the rates and bottleneck bindings, the per-node CPU
rates (which feed both energy integration and a control tick's loads) and
each node's active-state utilization and watts.  Live order stays in the
key, so every float is computed by the same operations in the same order
as without the memo, and records are bit-identical.  Per event only what
the composition does not fix stays: pricing the non-active nodes by
state, the next-event scan and the volume decrements.  A full memo
(``_MEMO_ENTRIES`` compositions) starts over, which bounds its memory on
traces whose jobs share no specs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import SimulationError
from repro.hardware.cluster import ClusterSpec
from repro.simulator.allocation import max_min_fair_allocation
from repro.simulator.jobs import FlowSpec, Job
from repro.simulator.network import IDEAL_SWITCH, SwitchModel
from repro.simulator.resources import CPU, NETWORK_KINDS, ResourcePool
from repro.telemetry import get_telemetry

__all__ = [
    "ClusterSimulator",
    "SimulationResult",
    "Interval",
    "ACTIVE",
    "GATING",
    "GATED",
    "WAKING",
]

_COMPLETION_EPS = 1e-9
#: most live compositions one run memoizes at a time
_MEMO_ENTRIES = 1024

#: node power states (re-exported by :mod:`repro.policy.policies`)
ACTIVE = "active"
GATING = "gating"
GATED = "gated"
WAKING = "waking"


@dataclass(frozen=True)
class Interval:
    """One piecewise-constant stretch of the simulation."""

    start_s: float
    end_s: float
    node_utilization: tuple[float, ...]
    node_power_w: tuple[float, ...]
    flow_names: tuple[str, ...]
    #: per-flow binding resource (parallel to ``flow_names``): the saturated
    #: resource that capped each flow during this interval
    flow_bindings: tuple[str, ...] = ()
    #: owning job of each flow (parallel to ``flow_names``)
    flow_jobs: tuple[str, ...] = ()

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def cluster_power_w(self) -> float:
        return sum(self.node_power_w)

    @property
    def energy_j(self) -> float:
        return self.cluster_power_w * self.duration_s


@dataclass
class SimulationResult:
    """Outcome of one :meth:`ClusterSimulator.run` call."""

    makespan_s: float
    energy_j: float
    node_energy_j: tuple[float, ...]
    job_start_s: dict[str, float]
    job_completion_s: dict[str, float]
    intervals: list[Interval] = field(repr=False, default_factory=list)
    #: total node-seconds spent gated (0.0 unless a dynamic policy ran)
    gated_node_seconds: float = 0.0
    #: energy saved vs keeping every node active-idle: the integral of
    #: (idle power - actual power) over every non-active node interval —
    #: transition stretches *subtract* (they draw more than idle)
    energy_saved_j: float = 0.0
    #: energy drawn by fault-recovery boot transitions (0.0 without faults)
    recovery_energy_j: float = 0.0
    #: crash-killed jobs re-queued under abort-and-retry, counted per
    #: retry attempt (one job killed twice contributes 2)
    retried_jobs: int = 0
    #: jobs shed under the failure policy: killed past the retry budget,
    #: dropped outright, or stranded by a node that never recovers
    dropped_jobs: int = 0
    #: names of the shed jobs, in the order they were dropped
    dropped_job_names: tuple[str, ...] = ()
    #: fault events whose onset fired before the run completed
    faults_survived: int = 0
    #: grams of CO₂ this run emitted — stamped by a cost-model-bearing
    #: evaluator (time-of-day curves integrate the interval trace), never
    #: computed by the simulator itself; ``None`` without a cost model
    carbon_g: float | None = None
    #: dollars this run cost (capex amortization + energy tariff) —
    #: stamped like ``carbon_g``; ``None`` without a cost model
    price_usd: float | None = None

    def response_time_s(self, job_name: str) -> float:
        """Wall-clock duration of one job."""
        try:
            return self.job_completion_s[job_name] - self.job_start_s[job_name]
        except KeyError:
            raise SimulationError(f"unknown job {job_name!r}") from None

    @property
    def average_power_w(self) -> float:
        """Mean cluster power over the whole run."""
        if self.makespan_s <= 0:
            return 0.0
        return self.energy_j / self.makespan_s

    @property
    def performance(self) -> float:
        """The paper's performance metric: inverse of response time."""
        if self.makespan_s <= 0:
            raise SimulationError("zero-makespan run has no performance")
        return 1.0 / self.makespan_s

    def _require_intervals(self, accessor: str) -> None:
        if not self.intervals:
            raise SimulationError(
                f"{accessor} needs the piecewise interval trace, but this "
                "result has none (the simulator ran with "
                "record_intervals=False)"
            )

    def power_at(self, time_s: float) -> float:
        """Cluster power draw at an instant (step function over intervals)."""
        self._require_intervals("power_at")
        for interval in self.intervals:
            if interval.start_s <= time_s < interval.end_s:
                return interval.cluster_power_w
        if time_s >= self.intervals[-1].end_s:
            return self.intervals[-1].cluster_power_w
        raise SimulationError(f"time {time_s} precedes the simulation")

    def mean_utilization(self, node_id: int) -> float:
        """Time-weighted mean CPU utilization of one node."""
        self._require_intervals("mean_utilization")
        total = sum(i.node_utilization[node_id] * i.duration_s for i in self.intervals)
        duration = sum(i.duration_s for i in self.intervals)
        if duration <= 0:
            return 0.0
        return total / duration


class _LiveFlow:
    __slots__ = (
        "spec",
        "job_index",
        "phase_index",
        "remaining_mb",
        "floor",
        "job_name",
        "cpu",
        "network",
    )

    def __init__(
        self,
        spec: FlowSpec,
        job_index: int,
        phase_index: int,
        job_name: str,
        demands: tuple[tuple[tuple[int, float], ...], bool],
    ):
        self.spec = spec
        self.job_index = job_index
        self.phase_index = phase_index
        self.remaining_mb = spec.volume_mb
        #: the flow is done once ``remaining_mb`` falls to this
        self.floor = _COMPLETION_EPS * max(1.0, spec.volume_mb)
        self.job_name = job_name
        #: ``((node, coef), ...)``: the CPU entries of ``spec.demands``;
        #: whether the flow uses a NIC
        self.cpu, self.network = demands


class _Composition:
    """The memoized allocation state of one live composition."""

    __slots__ = ("rates", "bindings", "cpu_rates", "names", "active", "utils", "powers")

    def __init__(self, rates, bindings, cpu_rates, names, num_nodes: int):
        self.rates = rates
        #: per-flow binding resource, parallel to ``rates``
        self.bindings = bindings
        #: per-node CPU processing rate
        self.cpu_rates = cpu_rates
        #: per-flow spec name, parallel to ``rates``
        self.names = names
        #: per-node ``(utilization, watts)`` while active, filled on first
        #: use (a node's DVFS variant is only built once it is active)
        self.active: list[tuple[float, float] | None] = [None] * num_nodes
        #: per-node utilization and watts with every node active (filled
        #: on first use)
        self.utils: tuple[float, ...] | None = None
        self.powers: tuple[float, ...] | None = None


def _flow_demands(spec: FlowSpec) -> tuple[tuple[tuple[int, float], ...], bool]:
    """``((node, coef), ...)`` for the CPU resources ``spec`` demands, in
    ``spec.demands`` order (so per-node sums keep their float op order),
    and whether ``spec`` demands a network resource."""
    pairs = []
    network = False
    for resource, coef in spec.demands.items():
        kind, _, node = resource.partition(":")
        if kind == CPU:
            pairs.append((int(node), coef))
        elif kind in NETWORK_KINDS:
            network = True
    return tuple(pairs), network


class ClusterSimulator:
    """Simulates jobs on a cluster, producing time and energy.

    Parameters
    ----------
    cluster:
        The cluster design (node specs determine resource capacities and
        power models).
    switch:
        Network contention model; :data:`~repro.simulator.network.IDEAL_SWITCH`
        by default.
    record_intervals:
        Keep the full piecewise trace on the result (needed by the meter
        experiments; can be disabled for large sweeps).
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        switch: SwitchModel = IDEAL_SWITCH,
        record_intervals: bool = True,
    ):
        self.pool = ResourcePool(cluster)
        self.switch = switch
        self.record_intervals = record_intervals

    # ------------------------------------------------------------------ public
    def run(
        self,
        jobs: Sequence[Job],
        max_events: int = 1_000_000,
        policy=None,
        control_interval_s: float = 1.0,
        faults=None,
        failure_policy=None,
        layout=None,
    ) -> SimulationResult:
        """Run ``jobs`` to completion and return timing and energy.

        This is the engine's one event loop.  Each optional input below
        adds its events only when present, so a run without them pays
        nothing for them.

        ``policy`` optionally puts a
        :class:`~repro.policy.policies.ControlPolicy` in charge of node
        power states and per-node DVFS, consulted every
        ``control_interval_s`` simulated seconds.  Node states move
        through the active/gating/gated/waking machine priced by the
        policy's :class:`~repro.hardware.powerstate.PowerStateModel`.
        ``None`` and *static* policies (``policy.is_static``) schedule no
        tick, so their runs equal the uncontrolled one bit for bit.  A
        policy that never wakes the nodes a held job needs stalls the run
        into the ``max_events`` guard.

        ``faults`` optionally injects a
        :class:`~repro.faults.schedule.FaultSchedule`; ``None`` or an
        empty schedule injects nothing, and any other value raises
        :class:`~repro.errors.SimulationError`.

        * a :class:`~repro.faults.schedule.NodeCrash` is a *forced gated
          transition with zero notice* — the node drops to the failure
          policy's standby residual instantly, and every in-flight job
          that owns it is killed and re-queued or shed per
          ``failure_policy`` (a
          :class:`~repro.faults.schedule.FailurePolicy`, abort-and-retry
          by default); recovery is a priced waking transition whose
          energy lands in ``recovery_energy_j``;
        * a :class:`~repro.faults.schedule.Straggler` multiplies the
          node's DVFS factor (capacity *and* power scale, like thermal
          throttling);
        * a :class:`~repro.faults.schedule.NetworkDegrade` scales the
          network capacities in max-min fair allocation.

        Fault node indices wrap modulo the cluster size (ring semantics,
        matching chained declustering), so one scenario spans designs of
        different sizes.  With a ``layout`` (a
        :class:`~repro.pstore.replication.ReplicatedLayout`), a crash
        that strands every copy of a partition raises
        :class:`~repro.errors.SimulationError` — the candidate is
        infeasible under the scenario; without one, jobs stranded by a
        never-recovering node are dropped and the trace continues.  A
        policy can neither gate a crashed node (it is not active) nor
        wake one (rebooting is the fault's call).

        An arriving job is *held* — ``job_start_s`` stays its arrival —
        until every node its flows demand is active, so wake-up and
        outage waits land in its response time.

        With telemetry enabled the run counts ``sim.faulted_runs`` (a
        non-empty schedule), else ``sim.controlled_runs`` (a dynamic
        policy), else ``sim.runs``; plus ``sim.events``, the allocator
        runs (``sim.alloc.calls``, one per distinct live composition), the
        allocations served from the memo (``sim.alloc.memo_hits``), the
        ``sim.control.*`` actions with a dynamic policy and the
        ``sim.faults.*`` accounting with a non-empty schedule.
        """
        # Imported here, not at module top: repro.policy and repro.faults
        # pull in packages that transitively import this module.
        from repro.faults.schedule import (
            FailurePolicy,
            FaultSchedule,
            NetworkDegrade,
            NodeCrash,
            Straggler,
        )
        from repro.policy.policies import (
            ClusterState,
            GateNode,
            SetFrequency,
            UngateNode,
        )

        self._validate(jobs)
        if faults is not None and not isinstance(faults, FaultSchedule):
            raise SimulationError(
                "faults must be a FaultSchedule or None, got "
                f"{type(faults).__name__}"
            )
        dynamic = policy is not None and not policy.is_static
        if dynamic and control_interval_s <= 0:
            raise SimulationError(
                f"control interval must be > 0, got {control_interval_s}"
            )
        model = policy.power_state_model() if dynamic else None
        if failure_policy is None:
            failure_policy = FailurePolicy()
        fault_model = failure_policy.transitions

        num_nodes = self.pool.num_nodes
        specs = [self.pool.node_spec(n) for n in range(num_nodes)]
        roles = tuple(self.pool.node_role(n) for n in range(num_nodes))
        node_state = [ACTIVE] * num_nodes
        transition_end = [math.inf] * num_nodes
        # min(transition_end), refreshed once per event after every change
        next_transition = math.inf
        factors = [1.0] * num_nodes  # policy-set DVFS
        fault_mult = [1.0] * num_nodes  # straggler slowdowns
        effective = [1.0] * num_nodes  # factors * fault_mult, kept in step
        node_energy = [0.0] * num_nodes
        gated_seconds = 0.0
        energy_saved = 0.0
        recovery_energy = 0.0
        intervals: list[Interval] = []

        # The fault timeline: every event contributes its onset (and,
        # where applicable, its offset/recovery) to the event horizon.
        timeline: list[tuple[float, str, object]] = []
        for event in faults.events if faults is not None else ():
            if isinstance(event, NodeCrash):
                timeline.append((event.at_s, "crash", event))
                if math.isfinite(event.recover_at_s):
                    timeline.append((event.recover_at_s, "recover", event))
            elif isinstance(event, Straggler):
                timeline.append((event.at_s, "straggle-on", event))
                timeline.append((event.end_s, "straggle-off", event))
            elif isinstance(event, NetworkDegrade):
                timeline.append((event.at_s, "net-on", event))
                timeline.append((event.end_s, "net-off", event))
            else:
                raise SimulationError(f"unknown fault event: {event!r}")
        timeline.sort(key=lambda entry: entry[0])
        fault_cursor = 0

        crashed: dict[int, float] = {}  # node -> scheduled recovery (inf = never)
        fault_waking: set[int] = set()
        stragglers: dict[int, list] = {}
        degrades: list = []
        net_mult = 1.0
        survived = 0
        retried = 0
        dropped: list[str] = []
        attempts = [0] * len(jobs)
        retry_ready: list[tuple[float, int]] = []

        time_s = 0.0
        job_phase = [0] * len(jobs)
        phase_live_count = [0] * len(jobs)
        job_start: dict[str, float] = {}
        job_completion: dict[str, float] = {}
        # Arrival order over a cursor: pop(0) on a list is O(n) per
        # admission, which turns long traces quadratic.
        order = sorted(range(len(jobs)), key=lambda i: jobs[i].start_time_s)
        cursor = 0
        live: list[_LiveFlow] = []
        held: list[int] = []
        # Trace jobs share phase tuples and flow specs (template
        # interning), so the demanded-node set is computed once per
        # distinct template and the demand facts once per distinct spec.
        node_sets: dict[int, frozenset[int]] = {}
        demand_table: dict[int, tuple[tuple[tuple[int, float], ...], bool]] = {}

        def needed_nodes(index: int) -> frozenset[int]:
            key = id(jobs[index].phases)
            nodes = node_sets.get(key)
            if nodes is None:
                nodes = node_sets[key] = self._job_nodes(jobs[index])
            return nodes

        def advance_job(index: int, phase_index: int) -> None:
            """Admit phases from ``phase_index`` on, skipping all-empty ones."""
            job = jobs[index]
            while phase_index < len(job.phases):
                job_phase[index] = phase_index
                count = 0
                for spec in job.phases[phase_index].flows:
                    if spec.volume_mb > 0:
                        demands = demand_table.get(id(spec))
                        if demands is None:
                            demands = demand_table[id(spec)] = _flow_demands(spec)
                        live.append(
                            _LiveFlow(spec, index, phase_index, job.name, demands)
                        )
                        count += 1
                phase_live_count[index] = count
                if count:
                    return
                phase_index += 1
            job_completion[job.name] = time_s
            job_phase[index] = None

        def drop_job(index: int) -> None:
            dropped.append(jobs[index].name)
            job_phase[index] = None
            phase_live_count[index] = 0

        def cpu_rates_of(rates: Sequence[float]) -> list[float]:
            cpu_rates = [0.0] * num_nodes
            for flow, rate in zip(live, rates):
                for node, coef in flow.cpu:
                    cpu_rates[node] += coef * rate
            return cpu_rates

        # The allocation state of each live composition, memoized for the
        # run (see the module docstring).  The key holds spec ids, which
        # stay valid because ``jobs`` keeps every spec alive until return.
        memo: dict[tuple, _Composition] = {}
        alloc_calls = 0
        memo_hits = 0

        def composition() -> _Composition:
            nonlocal alloc_calls, memo_hits
            key = (tuple([id(flow.spec) for flow in live]), tuple(effective), net_mult)
            entry = memo.get(key)
            if entry is None:
                if len(memo) >= _MEMO_ENTRIES:
                    # Compositions that never repeat (jobs that share no
                    # specs) would otherwise grow the memo every event.
                    memo.clear()
                if live:
                    alloc_calls += 1
                    rates, bindings = self._allocate(live, effective, net_mult)
                else:
                    rates, bindings = [], []
                entry = memo[key] = _Composition(
                    rates,
                    tuple(bindings),
                    cpu_rates_of(rates),
                    tuple(flow.spec.name for flow in live),
                    num_nodes,
                )
            elif live:
                memo_hits += 1
            return entry

        # Watts of the non-active states, per node: fixed for the run by
        # the node's spec and the policy's or failure model's transitions.
        idle_w = [spec.idle_power_w for spec in specs] if dynamic else []
        gated_w = [model.gated_power_w(spec) for spec in specs] if dynamic else []
        switching_w = (
            [model.transition_power_fraction * spec.peak_power_w for spec in specs]
            if dynamic
            else []
        )
        crashed_w = (
            [fault_model.gated_power_w(spec) for spec in specs] if timeline else []
        )
        booting_w = (
            [fault_model.transition_power_fraction * spec.peak_power_w for spec in specs]
            if timeline
            else []
        )

        def active_power(entry: _Composition, node_id: int) -> tuple[float, float]:
            """``(utilization, watts)`` of an active node, memoized in ``entry``."""
            pair = entry.active[node_id]
            if pair is None:
                spec = specs[node_id]
                if effective[node_id] != 1.0:
                    spec = self._dvfs_spec(node_id, effective[node_id])
                util = spec.utilization(entry.cpu_rates[node_id])
                pair = entry.active[node_id] = (util, spec.power_model.power(util))
            return pair

        def integrate(entry: _Composition, dt: float) -> None:
            """Per-state energy; crashes and recoveries price separately."""
            nonlocal gated_seconds, energy_saved, recovery_energy
            if dt <= 0:
                return
            if node_state.count(ACTIVE) == num_nodes:
                # The common case: the composition fixes every node's watts.
                if entry.powers is None:
                    pairs = [active_power(entry, n) for n in range(num_nodes)]
                    entry.utils = tuple(util for util, _ in pairs)
                    entry.powers = tuple(watts for _, watts in pairs)
                utils = entry.utils
                powers = entry.powers
                for node_id, watts in enumerate(powers):
                    node_energy[node_id] += watts * dt
            else:
                utils = []
                powers = []
                for node_id in range(num_nodes):
                    state = node_state[node_id]
                    if state == ACTIVE:
                        util, watts = active_power(entry, node_id)
                    else:
                        util = 0.0
                        if node_id in crashed:
                            # A crashed node draws the failure model's
                            # standby residual.  No savings credit: a crash
                            # is not a policy decision.
                            watts = crashed_w[node_id]
                        elif node_id in fault_waking:
                            watts = booting_w[node_id]
                            recovery_energy += watts * dt
                        elif state == GATED:
                            watts = gated_w[node_id]
                            gated_seconds += dt
                            energy_saved += (idle_w[node_id] - watts) * dt
                        else:  # policy-driven gating or waking
                            watts = switching_w[node_id]
                            energy_saved += (idle_w[node_id] - watts) * dt
                    utils.append(util)
                    powers.append(watts)
                    node_energy[node_id] += watts * dt
                utils = tuple(utils)
                powers = tuple(powers)
            if self.record_intervals:
                intervals.append(
                    Interval(
                        start_s=time_s,
                        end_s=time_s + dt,
                        node_utilization=utils,
                        node_power_w=powers,
                        flow_names=entry.names,
                        flow_bindings=entry.bindings,
                        flow_jobs=tuple(flow.job_name for flow in live),
                    )
                )

        def apply_due_faults() -> None:
            nonlocal fault_cursor, net_mult, survived, retried, live
            while (
                fault_cursor < len(timeline)
                and timeline[fault_cursor][0] <= time_s + _COMPLETION_EPS
            ):
                _, kind, event = timeline[fault_cursor]
                fault_cursor += 1
                if kind == "crash":
                    survived += 1
                    node = event.node % num_nodes
                    prior = crashed.get(node)
                    crashed[node] = (
                        event.recover_at_s
                        if prior is None
                        else max(prior, event.recover_at_s)
                    )
                    # Forced gated transition with zero notice: whatever
                    # state the node was in, it is off *now*.
                    node_state[node] = GATED
                    transition_end[node] = math.inf
                    fault_waking.discard(node)
                    if layout is not None:
                        up = [n for n in range(num_nodes) if n not in crashed]
                        layout.require_coverage(
                            up,
                            context=(
                                f"after node {node} crashed at "
                                f"t={time_s:g}s"
                            ),
                        )
                    # Kill every in-flight job that owns the dead node —
                    # a running job owns every node any of its phases
                    # demands (the barrier rule).
                    victims = sorted(
                        {
                            flow.job_index
                            for flow in live
                            if node in needed_nodes(flow.job_index)
                        }
                    )
                    if victims:
                        victim_set = set(victims)
                        live = [
                            flow
                            for flow in live
                            if flow.job_index not in victim_set
                        ]
                        for index in victims:
                            phase_live_count[index] = 0
                            job_phase[index] = 0  # progress is lost
                            if (
                                failure_policy.retries_enabled
                                and attempts[index] < failure_policy.max_retries
                            ):
                                attempts[index] += 1
                                retried += 1
                                heapq.heappush(
                                    retry_ready,
                                    (
                                        time_s
                                        + failure_policy.backoff_delay_s(
                                            jobs[index].name, attempts[index]
                                        ),
                                        index,
                                    ),
                                )
                            else:
                                drop_job(index)
                elif kind == "recover":
                    node = event.node % num_nodes
                    until = crashed.get(node)
                    # A later crash may have extended the outage; only the
                    # recovery that reaches the scheduled time revives.
                    if until is not None and until <= time_s + _COMPLETION_EPS:
                        del crashed[node]
                        if fault_model.boot_s > 0:
                            node_state[node] = WAKING
                            transition_end[node] = time_s + fault_model.boot_s
                            fault_waking.add(node)
                        else:
                            node_state[node] = ACTIVE
                            transition_end[node] = math.inf
                elif kind == "straggle-on":
                    survived += 1
                    node = event.node % num_nodes
                    stragglers.setdefault(node, []).append(event)
                    fault_mult[node] = math.prod(
                        s.slowdown for s in stragglers[node]
                    )
                    effective[node] = factors[node] * fault_mult[node]
                elif kind == "straggle-off":
                    node = event.node % num_nodes
                    group = stragglers.get(node, [])
                    if event in group:
                        group.remove(event)
                    fault_mult[node] = (
                        math.prod(s.slowdown for s in group) if group else 1.0
                    )
                    effective[node] = factors[node] * fault_mult[node]
                elif kind == "net-on":
                    survived += 1
                    degrades.append(event)
                    net_mult = math.prod(d.factor for d in degrades)
                else:  # net-off
                    if event in degrades:
                        degrades.remove(event)
                    net_mult = (
                        math.prod(d.factor for d in degrades)
                        if degrades
                        else 1.0
                    )

        last_busy_s = 0.0
        next_tick_s = control_interval_s if dynamic else math.inf
        events = 0
        # Telemetry accumulates in locals (plain int adds in the hot loop)
        # and flushes once at the return below.
        ticks = 0
        gate_actions = 0
        ungate_actions = 0
        freq_actions = 0

        while cursor < len(order) or live or held or retry_ready:
            events += 1
            if events > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; simulation stalled?"
                )

            # Complete power-state transitions that are due.
            if next_transition <= time_s + _COMPLETION_EPS:
                for node_id in range(num_nodes):
                    if transition_end[node_id] <= time_s + _COMPLETION_EPS:
                        node_state[node_id] = (
                            GATED if node_state[node_id] == GATING else ACTIVE
                        )
                        transition_end[node_id] = math.inf
                        fault_waking.discard(node_id)

            if fault_cursor < len(timeline):
                apply_due_faults()

            # Retry backoffs that have elapsed re-enter the queue.
            while (
                retry_ready
                and retry_ready[0][0] <= time_s + _COMPLETION_EPS
            ):
                _, index = heapq.heappop(retry_ready)
                held.append(index)

            # Arrivals join the held queue.  The admission window extends
            # _COMPLETION_EPS past now, so clamp: a job must never be
            # recorded as starting before it arrived (that would bias
            # queueing delay negative).
            while (
                cursor < len(order)
                and jobs[order[cursor]].start_time_s <= time_s + _COMPLETION_EPS
            ):
                index = order[cursor]
                cursor += 1
                job_start[jobs[index].name] = max(
                    time_s, jobs[index].start_time_s
                )
                held.append(index)

            # Resolve held jobs: stranded ones (a needed node is down and
            # will never return) are shed; ready ones admit, arrival order.
            if held:
                still_held: list[int] = []
                for index in held:
                    needed = needed_nodes(index)
                    if crashed and any(crashed.get(n) == math.inf for n in needed):
                        drop_job(index)
                    elif all(node_state[n] == ACTIVE for n in needed):
                        advance_job(index, 0)
                    else:
                        still_held.append(index)
                held = still_held

            if live or held:
                last_busy_s = time_s

            # Control tick: the policy observes and acts.  Invalid actions
            # (gating a node that live flows demand, waking a node that is
            # not gated or is crashed) are dropped — the controller races
            # the cluster.
            if next_tick_s <= time_s + _COMPLETION_EPS:
                ticks += 1
                cpu_rates = composition().cpu_rates
                live_jobs = {flow.job_index for flow in live}
                loads = tuple(
                    min(
                        1.0,
                        cpu_rates[n]
                        / (specs[n].cpu_bandwidth_mbps * effective[n]),
                    )
                    if node_state[n] == ACTIVE
                    else 0.0
                    for n in range(num_nodes)
                )
                snapshot = ClusterState(
                    time_s=time_s,
                    node_roles=roles,
                    node_states=tuple(node_state),
                    node_utilization=loads,
                    frequency_factors=tuple(factors),
                    queue_depth=len(live_jobs) + len(held),
                    held_jobs=len(held),
                    idle_s=time_s - last_busy_s,
                )
                # A running job owns every node any of its phases demands —
                # gating one mid-job would strand a later phase.
                demanded = frozenset().union(*map(needed_nodes, live_jobs))
                for action in policy.observe(snapshot):
                    if isinstance(action, GateNode):
                        node_id = action.node_id
                        if (
                            0 <= node_id < num_nodes
                            and node_state[node_id] == ACTIVE
                            and node_id not in demanded
                        ):
                            gate_actions += 1
                            if model.shutdown_s > 0:
                                node_state[node_id] = GATING
                                transition_end[node_id] = (
                                    time_s + model.shutdown_s
                                )
                            else:
                                node_state[node_id] = GATED
                    elif isinstance(action, UngateNode):
                        node_id = action.node_id
                        if (
                            0 <= node_id < num_nodes
                            and node_state[node_id] == GATED
                            and node_id not in crashed
                        ):
                            ungate_actions += 1
                            if model.boot_s > 0:
                                node_state[node_id] = WAKING
                                transition_end[node_id] = time_s + model.boot_s
                            else:
                                node_state[node_id] = ACTIVE
                    elif isinstance(action, SetFrequency):
                        node_id = action.node_id
                        if 0 <= node_id < num_nodes:
                            freq_actions += 1
                            factors[node_id] = action.frequency_factor
                            effective[node_id] = (
                                factors[node_id] * fault_mult[node_id]
                            )
                    else:
                        raise SimulationError(
                            f"unknown control action: {action!r}"
                        )
                while next_tick_s <= time_s + _COMPLETION_EPS:
                    next_tick_s += control_interval_s

            next_transition = min(transition_end)

            if not live:
                if cursor >= len(order) and not held and not retry_ready:
                    break  # trailing transitions and faults don't extend the run
                target = min(next_transition, next_tick_s)
                if cursor < len(order):
                    target = min(target, jobs[order[cursor]].start_time_s)
                if fault_cursor < len(timeline):
                    target = min(target, timeline[fault_cursor][0])
                if retry_ready:
                    target = min(target, retry_ready[0][0])
                if target == math.inf:
                    raise SimulationError(
                        "simulation stalled: jobs are waiting on nodes "
                        "that will never become active"
                    )
                # Idle stretches still draw power, and ticks still fire:
                # that is when gating happens (and how held jobs get their
                # nodes woken).
                integrate(composition(), target - time_s)
                time_s = max(time_s, target)
                continue

            entry = composition()
            rates = entry.rates

            # Next event: the earliest flow completion, arrival, tick,
            # transition end, fault, or retry.
            dt = math.inf
            for flow, rate in zip(live, rates):
                if rate > 0:
                    step = flow.remaining_mb / rate
                    if step < dt:
                        dt = step
            if cursor < len(order):
                dt = min(dt, jobs[order[cursor]].start_time_s - time_s)
            dt = min(dt, next_tick_s - time_s, next_transition - time_s)
            if fault_cursor < len(timeline):
                dt = min(dt, timeline[fault_cursor][0] - time_s)
            if retry_ready:
                dt = min(dt, retry_ready[0][0] - time_s)
            if not math.isfinite(dt) or dt < 0:
                raise SimulationError(
                    "simulation stalled: live flows have zero rate and no "
                    "pending events"
                )

            integrate(entry, dt)
            finished = []
            for flow, rate in zip(live, rates):
                flow.remaining_mb -= rate * dt
                if flow.remaining_mb <= flow.floor:
                    finished.append(flow)
            time_s += dt

            # Retire completed flows and release phase barriers.
            if finished:
                live = [flow for flow in live if not flow.remaining_mb <= flow.floor]
                touched_jobs = set()
                for flow in finished:
                    phase_live_count[flow.job_index] -= 1
                    touched_jobs.add(flow.job_index)
                for index in touched_jobs:
                    if phase_live_count[index] == 0 and job_phase[index] is not None:
                        advance_job(index, job_phase[index] + 1)

        if not job_completion:
            raise SimulationError(
                "no job survived the fault schedule: all "
                f"{len(dropped)} submitted jobs were dropped"
            )
        telemetry = get_telemetry()
        if telemetry.enabled:
            if timeline:
                telemetry.count("sim.faulted_runs")
            elif dynamic:
                telemetry.count("sim.controlled_runs")
            else:
                telemetry.count("sim.runs")
            telemetry.count("sim.events", events)
            telemetry.count("sim.alloc.calls", alloc_calls)
            telemetry.count("sim.alloc.memo_hits", memo_hits)
            if timeline:
                telemetry.count("sim.faults.onsets", survived)
                telemetry.count("sim.faults.retried_jobs", retried)
                telemetry.count("sim.faults.dropped_jobs", len(dropped))
            if dynamic:
                telemetry.count("sim.control.ticks", ticks)
                telemetry.count("sim.control.gate_actions", gate_actions)
                telemetry.count("sim.control.ungate_actions", ungate_actions)
                telemetry.count("sim.control.freq_actions", freq_actions)
        return SimulationResult(
            makespan_s=time_s,
            energy_j=sum(node_energy),
            node_energy_j=tuple(node_energy),
            job_start_s=job_start,
            job_completion_s=job_completion,
            intervals=intervals,
            gated_node_seconds=gated_seconds,
            energy_saved_j=energy_saved,
            recovery_energy_j=recovery_energy,
            retried_jobs=retried,
            dropped_jobs=len(dropped),
            dropped_job_names=tuple(dropped),
            faults_survived=survived,
        )

    # ----------------------------------------------------------------- helpers
    def _job_nodes(self, job: Job) -> frozenset[int]:
        """Every node id any flow of ``job`` demands (any resource kind)."""
        return frozenset(
            int(resource.partition(":")[2])
            for phase in job.phases
            for flow in phase.flows
            for resource in flow.demands
        )

    def _dvfs_spec(self, node_id: int, factor: float):
        """The node's spec at a DVFS factor other than 1.0 (memoized).

        The factor composes with whatever DVFS state the candidate baked
        into the spec: linear CPU-bandwidth scaling, cubic dynamic power
        (:func:`~repro.hardware.dvfs.dvfs_variant`).
        """
        cache = getattr(self, "_dvfs_cache", None)
        if cache is None:
            cache = self._dvfs_cache = {}
        key = (node_id, factor)
        spec = cache.get(key)
        if spec is None:
            from repro.hardware.dvfs import dvfs_variant

            spec = cache[key] = dvfs_variant(self.pool.node_spec(node_id), factor)
        return spec

    def _validate(self, jobs: Sequence[Job]) -> None:
        """Reject an empty job list, duplicate job names, and flows that
        demand a resource the cluster lacks.

        Jobs replayed from a trace share :class:`FlowSpec` objects, so
        each distinct spec is checked against the pool once (the first
        job that carries it is the one an error names).  Both the serial
        loop and :func:`~repro.simulator.multiplex.run_multiplexed` call
        this.
        """
        if not jobs:
            raise SimulationError("no jobs to run")
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate job names: {names}")
        seen: set[int] = set()
        for job in jobs:
            for phase in job.phases:
                for flow in phase.flows:
                    if id(flow) in seen:
                        continue
                    seen.add(id(flow))
                    for resource in flow.demands:
                        if resource not in self.pool:
                            raise SimulationError(
                                f"job {job.name!r} flow {flow.name!r} references "
                                f"unknown resource {resource!r}"
                            )

    def _allocate(
        self,
        live: Sequence[_LiveFlow],
        factors: Sequence[float],
        net_factor: float,
    ) -> tuple[list[float], list[str]]:
        capacities = self.pool.capacities()
        # DVFS (policy-set and straggler): CPU capacity scales linearly.
        for node_id, factor in enumerate(factors):
            if factor != 1.0:
                capacities[f"{CPU}:{node_id}"] *= factor
        network_flows = sum(1 for flow in live if flow.network)
        # Fault-injected degradation composes with switch contention.
        efficiency = self.switch.efficiency(network_flows) * net_factor
        if efficiency < 1.0:
            for name in capacities:
                if self.pool.is_network(name):
                    capacities[name] *= efficiency
        return max_min_fair_allocation(
            [flow.spec.demands for flow in live], capacities
        )

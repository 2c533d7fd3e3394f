"""The three design-space campaigns the benchmark runs.

Every workload is built in two steps, so the runner can time them apart:

* ``prepare(seeds)`` is the set-up: solo-runtime calibration, grid and
  space enumeration, the arrival trace, fault schedule and cost models,
  and engine construction -- the worker pool included where a campaign
  runs at ``workers=2``.  It returns a :class:`Prepared` whose
  ``campaign`` has not touched an evaluator yet.
* ``prepared.campaign()`` is one cold campaign (every engine starts with
  an empty :class:`~repro.search.EvaluationCache`).  It returns the
  records of every sub-campaign plus the design each selection rule
  picked.

At the default seeds every workload reproduces the inputs of the legacy
``benchmarks/test_*.py`` campaign it replaces (see ``README.md``).  Other
seeds perturb those inputs (see :class:`Seeds`); the program only ever
sees the generated inputs.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from typing import Callable

from repro.costmodel import CarbonIntensityCurve, CostModel
from repro.faults import FailurePolicy, FaultSchedule, NodeCrash, Straggler
from repro.hardware.powerstate import PowerStateModel
from repro.hardware.presets import (
    BEEFY_L5630,
    CLUSTER_V_NODE,
    DESKTOP_ATOM,
    LAPTOP_A,
    WIMPY_LAPTOP_B,
    WORKSTATION_B,
)
from repro.policy import PowerGatePolicy
from repro.search import (
    DesignGrid,
    DesignSpaceSearch,
    EvaluationCache,
    ModelEvaluator,
    SearchSpace,
    SimulatorEvaluator,
)
from repro.search.pareto import best_under_degraded_sla, best_under_latency_sla
from repro.study import Study
from repro.workloads.arrivals import diurnal_arrivals
from repro.workloads.protocol import TimedTrace
from repro.workloads.queries import q3_join
from repro.workloads.suite import WorkloadSuite

DEFAULT_SEED = 11
EVENTS = 48
ARRIVAL_JITTER = 0.05
WORKERS = 2

#: the 216-design grid every legacy ``BENCH_*`` script shares
REFERENCE_GRID = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(6, 8, 10, 12, 14, 16),
    frequency_factors=(1.0, 0.8, 0.6),
)
#: the serial-replay grids: small, so that one run holds many campaigns
POLICY_GRID = DesignGrid(
    node_pairs=REFERENCE_GRID.node_pairs, cluster_sizes=(8,), mix_step=4
)
REPLAY_GRID = DesignGrid(
    node_pairs=REFERENCE_GRID.node_pairs, cluster_sizes=(6, 10), mix_step=2
)
MODEL_GRID = DesignGrid(
    node_pairs=(
        (CLUSTER_V_NODE, WIMPY_LAPTOP_B),
        (BEEFY_L5630, LAPTOP_A),
        (WORKSTATION_B, DESKTOP_ATOM),
    ),
    cluster_sizes=tuple(range(4, 33, 4)),
    frequency_factors=(1.0, 0.9, 0.8, 0.7, 0.6),
)
FLAT_COST = CostModel(
    tariff_usd_per_kwh=0.12,
    carbon_g_per_kwh=400.0,
    default_capex_usd_per_node_hour=0.05,
)
THREE_OBJECTIVES = ("time_s", "energy_j", "price_usd")


@dataclass(frozen=True)
class Seeds:
    """The generated-input seeds of one run.

    ``trace`` seeds the diurnal arrival draw.  ``perturb`` moves each
    arrival of that day by a small seeded offset, ``fault`` jitters the
    nemesis scenario; ``None`` leaves each at the reference input of the
    legacy script.  ``optimizer`` seeds successive halving.
    """

    trace: int = DEFAULT_SEED
    perturb: int | None = None
    fault: int | None = None
    optimizer: int = 0

    @classmethod
    def derive(cls, seed, trace=DEFAULT_SEED, fault=None, optimizer=None) -> "Seeds":
        """The seeds one ``--seed`` stands for: the reference inputs at
        the default seed; otherwise the reference day with jittered
        arrivals, a jittered fault scenario and ``seed`` as the optimizer
        seed.  Explicit seeds override."""
        perturb = None if seed == DEFAULT_SEED else seed
        return cls(
            trace=trace,
            perturb=perturb,
            fault=fault if fault is not None else perturb,
            optimizer=optimizer if optimizer is not None else (perturb or 0),
        )

    @property
    def reference(self) -> bool:
        """Whether these are the inputs the committed reference holds."""
        return self == Seeds()


@dataclass
class Outcome:
    """One cold campaign's output: records and picks per sub-campaign."""

    records: dict[str, list] = field(default_factory=dict)
    picks: dict[str, str] = field(default_factory=dict)
    #: optimizer statistics (model-optimize only)
    fresh_evals: int = 0
    evals_to_knee: int = 0

    @property
    def candidates(self) -> int:
        return sum(len(points) for points in self.records.values())


@dataclass
class Prepared:
    """A workload after set-up: engines built, nothing evaluated yet."""

    campaign: Callable[[], Outcome]
    engines: list
    #: what the checks need: ``expected`` record counts per sub-campaign,
    #: ``last_arrival_s`` of a timed trace, the replay sample's inputs
    context: dict = field(default_factory=dict)

    def close(self) -> None:
        for engine in self.engines:
            engine.close()


# ------------------------------------------------------------------ inputs
def solo_runtime() -> float:
    """Solo runtime of the reference join on the reference grid's first
    design: the unit every trace, policy and fault time is given in."""
    return (
        SimulatorEvaluator()
        .evaluate_query(REFERENCE_GRID.candidate_list()[0], q3_join(100, 0.05, 0.05))
        .time_s
    )


def diurnal_trace(solo: float, seeds: Seeds) -> TimedTrace:
    """48 diurnal arrivals of the reference join with quiet troughs.

    The rate crests at 0.5 arrivals per solo runtime and troughs near
    silence over a 55-solo-runtime period.  A ``perturb`` seed moves every
    arrival by up to ``ARRIVAL_JITTER`` solo runtimes, which keeps the
    day's shape (and so the amount of work) while changing every record.
    """
    times = diurnal_arrivals(
        EVENTS,
        base_rate_per_s=0.005 / solo,
        peak_rate_per_s=0.5 / solo,
        period_s=55.0 * solo,
        seed=seeds.trace,
    )
    if seeds.perturb is not None:
        rng = random.Random(seeds.perturb)
        spread = ARRIVAL_JITTER * solo
        times = sorted(max(0.0, t + rng.uniform(-spread, spread)) for t in times)
    return TimedTrace.from_schedule("bench-diurnal", q3_join(100, 0.05, 0.05), times)


def last_arrival(trace: TimedTrace) -> float:
    return max(at_s for _, at_s in trace.schedule())


def gate_policy(solo: float) -> PowerGatePolicy:
    """Power-gate idle wimpy nodes on fast-sleep transition hardware."""
    return PowerGatePolicy(
        utilization_floor=0.05,
        min_idle_s=2.0 * solo,
        transitions=PowerStateModel(
            shutdown_s=0.03 * solo,
            boot_s=0.05 * solo,
            transition_power_fraction=0.5,
            gated_power_fraction=0.05,
        ),
    )


def nemesis(trace: TimedTrace, solo: float, seed: int | None):
    """A crash-and-recover at the diurnal peak plus a straggler, and the
    abort-and-retry policy that handles it.  ``seed=None`` is the exact
    reference scenario; a seed jitters its times and magnitudes."""
    rng = random.Random(seed)

    def jitter(value: float) -> float:
        return value if seed is None else value * rng.uniform(0.9, 1.1)

    times = [at_s for _, at_s in trace.schedule()]
    crash_at = times[len(times) // 3] + jitter(0.02) * solo
    schedule = FaultSchedule(
        events=(
            NodeCrash(node=1, at_s=crash_at, recover_at_s=crash_at + jitter(8.0) * solo),
            Straggler(
                node=2,
                at_s=crash_at + jitter(10.0) * solo,
                slowdown=jitter(0.6),
                duration_s=jitter(6.0) * solo,
            ),
        ),
        name="bench-nemesis",
    )
    policy = FailurePolicy.abort_and_retry(
        backoff_base_s=jitter(0.1) * solo,
        backoff_cap_s=2.0 * solo,
        transitions=PowerStateModel(
            shutdown_s=0.03 * solo,
            boot_s=jitter(0.5) * solo,
            transition_power_fraction=0.8,
            gated_power_fraction=0.05,
        ),
    )
    return schedule, policy


def carbon_model(solo: float) -> CostModel:
    """A flat tariff plus a diurnal carbon curve spanning the trace."""
    return CostModel(
        tariff_usd_per_kwh=0.12,
        carbon_g_per_kwh=CarbonIntensityCurve.diurnal(50.0, 750.0, period_s=55.0 * solo),
        capex_usd_per_node_hour={"cluster-V": 0.80, "wimpy-laptopB": 0.08},
    )


def fanout_suite() -> WorkloadSuite:
    """The first of the three overlapping 4-join suites of
    ``benchmarks/test_query_fanout.py``."""
    return WorkloadSuite.of(
        "mix-0", *(q3_join(100, 0.01 * (i + 1), 0.05) for i in range(4))
    )


def pooled_engine(evaluator) -> DesignSpaceSearch:
    """A ``workers=2`` engine whose pool exists before the first call.

    The engine forks its pool lazily on the first dispatch; forking it
    here keeps pool start-up inside set-up time, where the campaign's
    users pay for it once per engine.
    """
    engine = DesignSpaceSearch(
        evaluator=evaluator, workers=WORKERS, cache=EvaluationCache()
    )
    engine._get_pool()
    return engine


# --------------------------------------------------------------- campaigns
def latency_sla_pick(points) -> tuple[str, str]:
    sla_s = min(p.latency.max_s for p in points if p.feasible) * 1.25
    return "latency_sla", best_under_latency_sla(points, sla_s).label


def prepare_diurnal_static(seeds: Seeds) -> Prepared:
    solo = solo_runtime()
    trace = diurnal_trace(solo, seeds)
    candidates = REFERENCE_GRID.candidate_list()
    evaluator = SimulatorEvaluator()
    engine = pooled_engine(evaluator)

    def campaign() -> Outcome:
        result = engine.search(candidates, trace)
        name, label = latency_sla_pick(result.points)
        return Outcome(
            records={"static": result.points},
            picks={"static.knee": result.knee().label, f"static.{name}": label},
        )

    return Prepared(
        campaign,
        [engine],
        {
            "expected": {"static": len(candidates)},
            "last_arrival_s": last_arrival(trace),
            "trace": trace,
            "evaluator": evaluator,
        },
    )


def prepare_serial_replay(seeds: Seeds) -> Prepared:
    solo = solo_runtime()
    trace = diurnal_trace(solo, seeds)
    gated = SearchSpace.from_grid(
        POLICY_GRID, policies=(gate_policy(solo),), control_interval_s=0.125 * solo
    ).candidate_list()
    replay = REPLAY_GRID.candidate_list()
    schedule, failure_policy = nemesis(trace, solo, seeds.fault)
    faulted = trace.with_faults(schedule, failure_policy)
    engines = {
        "gated": DesignSpaceSearch(evaluator=SimulatorEvaluator()),
        "faulted": DesignSpaceSearch(evaluator=SimulatorEvaluator()),
        "carbon": DesignSpaceSearch(
            evaluator=SimulatorEvaluator(cost_model=carbon_model(solo))
        ),
    }

    def campaign() -> Outcome:
        gate = engines["gated"].search(gated, trace)
        fault = engines["faulted"].search(replay, faulted)
        carbon = engines["carbon"].search(replay, trace)
        name, label = latency_sla_pick(gate.points)
        sla_s = 1.05 * min(
            p.degraded_latency.p99_s for p in fault.points if p.feasible
        )
        return Outcome(
            records={"gated": gate.points, "faulted": fault.points, "carbon": carbon.points},
            picks={
                "gated.knee": gate.knee().label,
                f"gated.{name}": label,
                "faulted.knee": fault.knee().label,
                "faulted.degraded_sla": best_under_degraded_sla(
                    fault.points, sla_s, metric="p99"
                ).label,
                "carbon.knee": carbon.knee().label,
                "carbon.knee3": carbon.knee(
                    objectives=("time_s", "energy_j", "carbon_g")
                ).label,
            },
        )

    return Prepared(
        campaign,
        list(engines.values()),
        {
            "expected": {"gated": len(gated), "faulted": len(replay), "carbon": len(replay)},
            "last_arrival_s": last_arrival(trace),
        },
    )


def evaluations_to_knee(optimized, knee_key) -> int:
    """Fresh evaluations the optimizer had spent when its archive knee
    first became the exhaustive sweep's knee (0 if it never did)."""
    keys = {point.label: point.candidate.key() for point in optimized.points}
    for step in optimized.trajectory:
        if step.knee_label is not None and keys.get(step.knee_label) == knee_key:
            return step.fresh_query_evaluations
    return 0


def prepare_model_optimize(seeds: Seeds) -> Prepared:
    study = Study(
        MODEL_GRID,
        workload=fanout_suite(),
        evaluator=ModelEvaluator(),
        cost_model=FLAT_COST,
        cache=EvaluationCache(),
    )
    engine = study.engine()

    def campaign() -> Outcome:
        optimized = study.optimize(seed=seeds.optimizer, objectives=THREE_OBJECTIVES)
        swept = study.run()
        knee = swept.knee(objectives=THREE_OBJECTIVES)
        budget = statistics.median(p.price_usd for p in swept.feasible_points)
        return Outcome(
            records={"optimize": optimized.points, "sweep": swept.points},
            picks={
                "optimize.knee3": optimized.knee(objectives=THREE_OBJECTIVES).label,
                "sweep.knee3": knee.label,
                "sweep.budget": swept.best_under_budget(budget).label,
            },
            fresh_evals=optimized.fresh_query_evaluations,
            evals_to_knee=evaluations_to_knee(optimized, knee.candidate.key()),
        )

    return Prepared(campaign, [engine], {"expected": {"sweep": len(MODEL_GRID)}})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[Seeds], Prepared]
    workers: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "diurnal-static",
            "216 static designs replayed on the multiplexed fast path at workers=2",
            prepare_diurnal_static,
            WORKERS,
        ),
        Workload(
            "serial-replay",
            "gated, faulted and time-varying-carbon candidates on the per-candidate serial loops",
            prepare_serial_replay,
            1,
        ),
        Workload(
            "model-optimize",
            "analytic model, optimizer and selection on a 2280-design grid, no simulator",
            prepare_model_optimize,
            1,
        ),
    )
}

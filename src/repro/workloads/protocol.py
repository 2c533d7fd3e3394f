"""The first-class ``Workload`` protocol unifying single joins and mixes.

The paper's Section 7 concedes that its single-join results must "expand
the study to include entire workloads".  This module defines the one
interface every evaluation layer — :class:`~repro.search.evaluators
.SearchEvaluator`, :class:`~repro.search.engine.DesignSpaceSearch`,
:class:`~repro.core.design_space.DesignSpaceExplorer`, and the
:class:`~repro.study.Study` facade — accepts:

* ``name`` — a display name;
* ``cache_key()`` — a deterministic, hashable identity used to partition
  the evaluation cache (workload *types* carry distinct tags, so a join,
  a suite, and a trace mix sharing a name can never collide);
* ``weighted_queries()`` / iteration — the workload as weighted
  :class:`WeightedQuery` entries (weights are relative execution
  frequencies; a design's cost is the weight-summed cost of its entries).

Four implementations ship here and in :mod:`repro.workloads.suite`:

* :class:`SingleJoin` — one :class:`~repro.workloads.queries
  .JoinWorkloadSpec` at weight 1 (what every pre-redesign API took);
* :class:`~repro.workloads.suite.WorkloadSuite` — a named, weighted mix;
* :class:`ArrivalMix` — a mix derived from an arrival trace: each
  occurrence of a query in the trace adds one to its weight, so the
  schedules of :mod:`repro.workloads.arrivals` become searchable
  workloads;
* :class:`TimedTrace` — the *timed* sibling of :class:`ArrivalMix`: it
  keeps the ``(query, arrival_time_s)`` events instead of reducing them
  to weights, so stream-capable evaluators can replay the trace through
  :meth:`~repro.pstore.simulated.SimulatedPStore.run_stream`-style
  queueing simulation and score designs on response time, not just total
  cost.  :func:`is_timed` is how the evaluation stack tells the two
  apart.

Plain :class:`JoinWorkloadSpec` objects are accepted everywhere via
:func:`as_workload`, which wraps them in :class:`SingleJoin` — existing
call sites keep working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence, runtime_checkable

from repro.errors import WorkloadError
from repro.workloads.queries import JoinWorkloadSpec

__all__ = [
    "ArrivalMix",
    "SingleJoin",
    "TimedTrace",
    "WeightedQuery",
    "Workload",
    "as_workload",
    "entry_cache_key",
    "is_timed",
    "join_cache_key",
]


def join_cache_key(query: JoinWorkloadSpec) -> tuple:
    """Deterministic identity of one join spec (the cache-key atom).

    Covers every spec field an evaluator can read — including
    ``tuple_bytes``, which custom evaluators may price even though the
    analytical model only reads volumes.
    """
    return (
        query.name,
        query.build_volume_mb,
        query.probe_volume_mb,
        query.build_selectivity,
        query.probe_selectivity,
        query.method.value,
        query.tuple_bytes,
    )


def entry_cache_key(query: JoinWorkloadSpec) -> tuple:
    """The per-entry evaluation-cache identity of one member join.

    This is the unit the search engine memoizes and dispatches at: every
    workload — single join, suite, trace mix — is flattened into its
    ``weighted_queries()`` entries, and each entry is cached under this
    key (weights apply at aggregation time, so the same join at weight 1
    and weight 5 shares one entry).  It deliberately equals
    :meth:`SingleJoin.cache_key`, so a single-join search and a suite
    containing that join read and write the same cache row.
    """
    return ("join", *join_cache_key(query))


@dataclass(frozen=True)
class WeightedQuery:
    """One join of a workload with its relative execution frequency."""

    query: JoinWorkloadSpec
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise WorkloadError(
                f"{self.query.name}: workload weight must be > 0, got {self.weight}"
            )

    def __iter__(self) -> Iterator:
        """Unpack as the ``(spec, weight)`` pair the protocol promises."""
        return iter((self.query, self.weight))


@runtime_checkable
class Workload(Protocol):
    """Anything the evaluation stack can price on a cluster design.

    Structural: any object with ``name``, ``cache_key()`` and
    ``weighted_queries()`` qualifies — :func:`as_workload` checks for
    exactly these three members.
    """

    @property
    def name(self) -> str: ...

    def cache_key(self) -> tuple:
        """Deterministic hashable identity, unique across workload types."""
        ...

    def weighted_queries(self) -> tuple[WeightedQuery, ...]:
        """The workload as weighted join entries, in evaluation order."""
        ...


@dataclass(frozen=True)
class SingleJoin:
    """A lone join as a :class:`Workload` (the pre-redesign default)."""

    query: JoinWorkloadSpec

    @property
    def name(self) -> str:
        return self.query.name

    def cache_key(self) -> tuple:
        return entry_cache_key(self.query)

    def weighted_queries(self) -> tuple[WeightedQuery, ...]:
        return (WeightedQuery(self.query, 1.0),)

    def __iter__(self) -> Iterator[WeightedQuery]:
        return iter(self.weighted_queries())


def _normalized_events(
    name: str,
    events: Sequence[tuple[JoinWorkloadSpec, float]],
    kind: str,
) -> tuple[tuple[JoinWorkloadSpec, float], ...]:
    """Validate and time-sort one trace's ``(query, arrival_time_s)`` events.

    Shared by :meth:`ArrivalMix.from_trace` and :class:`TimedTrace`, so
    the weights-only and the timed view of one trace agree on ordering:
    events sort stably by arrival time (simultaneous arrivals keep their
    given order), and negative times are rejected.
    """
    if not len(events):
        raise WorkloadError(f"{kind} {name!r} needs at least one event")
    normalized = []
    for query, arrival_s in events:
        arrival_s = float(arrival_s)
        if arrival_s < 0:
            raise WorkloadError(
                f"{kind} {name!r}: arrival times must be >= 0, got {arrival_s}"
            )
        normalized.append((query, arrival_s))
    normalized.sort(key=lambda event: event[1])
    return tuple(normalized)


@dataclass(frozen=True)
class ArrivalMix:
    """A workload mix derived from a query arrival trace.

    Each arrival contributes one unit of weight to its query, so a trace
    where a daily report fires five times as often as a weekly rollup
    yields a 5:1 mix.  Build one with :meth:`from_trace` from the
    ``(query, arrival_time_s)`` events an arrival schedule produces
    (:mod:`repro.workloads.arrivals`).
    """

    name: str
    entries: tuple[WeightedQuery, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise WorkloadError(f"arrival mix {self.name!r} has no entries")
        specs = [entry.query for entry in self.entries]
        if len(set(specs)) != len(specs):
            raise WorkloadError(
                f"arrival mix {self.name!r} lists the same query twice"
            )

    @classmethod
    def from_trace(
        cls,
        name: str,
        events: Sequence[tuple[JoinWorkloadSpec, float]],
    ) -> "ArrivalMix":
        """Derive the mix from ``(query, arrival_time_s)`` trace events.

        Events are sorted by arrival time first (stably, so simultaneous
        arrivals keep their given order), then each event adds weight 1
        to its query.  Queries therefore keep *first-arrival* order —
        handing the same events in a different list order yields the
        identical mix.  Arrival times must be non-negative; they fix the
        trace's order but do not affect the weights (use
        :class:`TimedTrace` to keep them for queueing simulation).
        """
        ordered = _normalized_events(name, events, kind="arrival mix")
        counts: dict[JoinWorkloadSpec, int] = {}
        for query, _arrival_s in ordered:
            counts[query] = counts.get(query, 0) + 1
        return cls(
            name=name,
            entries=tuple(
                WeightedQuery(query, float(count)) for query, count in counts.items()
            ),
        )

    @property
    def total_weight(self) -> float:
        return sum(entry.weight for entry in self.entries)

    def cache_key(self) -> tuple:
        return (
            "trace",
            self.name,
            tuple((join_cache_key(e.query), e.weight) for e in self.entries),
        )

    def weighted_queries(self) -> tuple[WeightedQuery, ...]:
        return self.entries

    def __iter__(self) -> Iterator[WeightedQuery]:
        return iter(self.entries)


@dataclass(frozen=True)
class TimedTrace:
    """An arrival trace that *keeps* its times: the timed Workload.

    Where :class:`ArrivalMix` reduces ``(query, arrival_time_s)`` events
    to relative weights, a :class:`TimedTrace` carries the full schedule,
    so a stream-capable evaluator (:class:`~repro.search.evaluators
    .SimulatorEvaluator`) can replay it under queueing — queries arriving
    while earlier ones still run share the cluster, and each job's
    response time includes its contention delay.  Evaluated records then
    carry a :class:`~repro.search.evaluators.LatencyProfile`
    (mean/p95/p99/worst-case response time) next to the usual
    time/energy totals.

    A timed trace still satisfies the plain :class:`Workload` protocol —
    ``weighted_queries()`` derives the same weights its
    :meth:`weights_only` mix would — so optimizer rungs and any
    weights-based consumer keep working.  Its :meth:`cache_key` includes
    the arrival times, so timed evaluations can never collide with (or be
    served from) weights-only cache rows.

    Events sort stably by arrival time at construction; build one with
    :meth:`from_trace` (mixed queries) or :meth:`from_schedule` (one
    query over an arrival-generator schedule).
    """

    name: str
    events: tuple[tuple[JoinWorkloadSpec, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "events", _normalized_events(self.name, self.events, "timed trace")
        )

    @classmethod
    def from_trace(
        cls,
        name: str,
        events: Sequence[tuple[JoinWorkloadSpec, float]],
    ) -> "TimedTrace":
        """Build the trace from ``(query, arrival_time_s)`` events."""
        return cls(name=name, events=tuple(events))

    @classmethod
    def from_schedule(
        cls,
        name: str,
        query: JoinWorkloadSpec,
        arrival_times_s: Sequence[float],
    ) -> "TimedTrace":
        """One query repeated over an arrival schedule.

        Zips directly with the generators of
        :mod:`repro.workloads.arrivals`::

            TimedTrace.from_schedule("burst", q, poisson_arrivals(20, 0.1))
        """
        return cls(name=name, events=tuple((query, t) for t in arrival_times_s))

    def schedule(self) -> tuple[tuple[JoinWorkloadSpec, float], ...]:
        """The ``(query, arrival_time_s)`` events, sorted by arrival time.

        The presence of this accessor is what marks a workload as timed
        (:func:`is_timed`); stream evaluators replay exactly this
        schedule.
        """
        return self.events

    @property
    def span_s(self) -> float:
        """Time of the last arrival (the trace's scheduling horizon)."""
        return self.events[-1][1]

    @property
    def total_weight(self) -> float:
        return float(len(self.events))

    def weights_only(self) -> ArrivalMix:
        """This trace as a weights-only :class:`ArrivalMix`.

        The untimed projection: same queries, same relative frequencies,
        no arrival times — evaluated through the ordinary per-entry
        weighted-aggregation path (and its cache keys).  Built through
        :meth:`ArrivalMix.from_trace` so there is exactly one
        event-counting rule, and the two views can never drift apart.
        """
        return ArrivalMix.from_trace(self.name, self.events)

    def cache_key(self) -> tuple:
        return (
            "timed-trace",
            self.name,
            tuple((join_cache_key(query), time_s) for query, time_s in self.events),
        )

    def with_faults(
        self,
        faults,
        failure_policy=None,
        replication_factor: int | None = None,
        partitions_per_node: int = 2,
    ):
        """This trace under a fault scenario: a
        :class:`~repro.faults.trace.FaultedTrace`.

        ``faults`` is a :class:`~repro.faults.schedule.FaultSchedule`;
        ``failure_policy`` governs jobs a crash kills (default:
        abort-and-retry with capped exponential backoff); a
        ``replication_factor`` additionally sizes a chained-declustering
        layout per candidate, so a crash stranding every copy of a
        partition makes that design infeasible-under-fault.  The result
        stays a timed workload, but its cache key is namespaced by the
        scenario, so degraded evaluations never collide with healthy
        rows.  An empty schedule replays bit-identically to this trace.
        """
        # Deferred: repro.faults imports this module for the type.
        from repro.faults.schedule import FailurePolicy
        from repro.faults.trace import FaultedTrace

        return FaultedTrace(
            trace=self,
            faults=faults,
            failure_policy=(
                failure_policy if failure_policy is not None else FailurePolicy()
            ),
            replication_factor=replication_factor,
            partitions_per_node=partitions_per_node,
        )

    def weighted_queries(self) -> tuple[WeightedQuery, ...]:
        return self.weights_only().entries

    def __iter__(self) -> Iterator[tuple[JoinWorkloadSpec, float]]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


def is_timed(workload) -> bool:
    """Whether a workload carries an arrival schedule (structural check).

    Timed workloads expose a ``schedule()`` accessor returning
    ``(query, arrival_time_s)`` events; the search engine routes them
    through whole-trace stream simulation instead of per-entry weighted
    aggregation.
    """
    return callable(getattr(workload, "schedule", None))


def as_workload(workload: "Workload | JoinWorkloadSpec") -> "Workload":
    """Coerce a bare join spec (or pass through any :class:`Workload`).

    The check is structural, not nominal: suites, trace mixes, and any
    user type exposing ``name``/``cache_key``/``weighted_queries``
    qualify without importing this module.
    """
    if isinstance(workload, JoinWorkloadSpec):
        return SingleJoin(workload)
    if (
        hasattr(workload, "name")
        and callable(getattr(workload, "cache_key", None))
        and callable(getattr(workload, "weighted_queries", None))
    ):
        return workload
    # name the type, not the repr: a swapped-in candidate list reprs to KBs
    got = type(workload).__name__
    if isinstance(workload, (list, tuple)):
        got = f"{got} of {len(workload)} items"
    raise WorkloadError(
        f"not a workload: got a {got} (expected a JoinWorkloadSpec or an "
        "object with name, cache_key() and weighted_queries())"
    )

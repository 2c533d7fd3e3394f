"""Per-layer timing from outside the program.

:class:`LayerTracer` wraps the public calls of each layer -- the names the
program looks them up by, in every module that binds them -- and keeps a
stack of open layer calls per process, so each layer gets

* ``calls`` -- outermost calls into the layer (a layer calling itself,
  like ``knee_nd`` calling ``frontier_nd``, counts once);
* ``busy_s`` -- time inside those calls;
* ``self_s`` -- ``busy_s`` minus the time of other wrapped layers nested
  inside the same interval.

Totals accumulate in the tracer and are flushed into the active
:mod:`repro.telemetry` registry as ``layer.<name>.<stat>`` counters each
time the stack empties.  That is what makes worker processes visible:
the engine runs every pool chunk inside :func:`repro.telemetry.capture`
when the parent registry is enabled, and ships the chunk's counters back
with its records, so a layer timed in a worker lands in the parent's
registry like one timed in the parent.  Pools must be forked after
:meth:`LayerTracer.install` for the workers to carry the wrappers.
"""

from __future__ import annotations

import sys
from time import perf_counter

from repro.costmodel.model import CostModel
from repro.policy import policies
from repro.pstore.planner import plan_join
from repro.pstore.simulated import trace_jobs
from repro.search import objectives, pareto
from repro.search.cache import EvaluationCache
from repro.search.engine import DesignSpaceSearch
from repro.search.evaluators import ModelEvaluator, SearchEvaluator, SimulatorEvaluator
from repro.search.optimize import OptimizationLoop
from repro.simulator.allocation import max_min_fair_allocation, max_min_fair_rates_flat
from repro.simulator.engine import ClusterSimulator
from repro.simulator.multiplex import run_multiplexed
from repro.telemetry import get_telemetry

#: layer -> module-level functions timed as that layer
FUNCTIONS = {
    "simulator.multiplex": (run_multiplexed,),
    "simulator.allocation.flat": (max_min_fair_rates_flat,),
    "simulator.allocation.scalar": (max_min_fair_allocation,),
    "pstore.plan": (plan_join,),
    "pstore.trace_jobs": (trace_jobs,),
    "search.selection": (
        objectives.frontier_nd,
        objectives.knee_nd,
        objectives.best_under_budget,
        objectives.best_under_carbon,
        pareto.pareto_frontier,
        pareto.knee_point,
        pareto.best_under_sla,
        pareto.best_under_latency_sla,
        pareto.best_under_degraded_sla,
    ),
}

#: layer -> (class, method name) pairs timed as that layer
METHODS = {
    "search.engine": (
        (DesignSpaceSearch, "search"),
        (DesignSpaceSearch, "evaluate_batch"),
    ),
    # the parent blocked on pool chunks (the engine's only dispatch path)
    "search.engine.dispatch": ((DesignSpaceSearch, "_map_with_retry"),),
    "search.evaluators": (
        (SearchEvaluator, "evaluate_query_batch"),
        (SearchEvaluator, "evaluate_trace_batch"),
        (SimulatorEvaluator, "evaluate_query_batch"),
        (SimulatorEvaluator, "evaluate_trace_batch"),
    ),
    "search.cache": ((EvaluationCache, "get"), (EvaluationCache, "put")),
    "core.model": ((ModelEvaluator, "evaluate_query"),),
    "search.optimize": ((OptimizationLoop, "run"),),
    "costmodel.carbon_timed": ((CostModel, "carbon_g_timed"),),
    "policy.observe": tuple(
        (cls, "observe")
        for cls in vars(policies).values()
        if isinstance(cls, type)
        and issubclass(cls, policies.ControlPolicy)
        and "observe" in vars(cls)
        and not getattr(vars(cls)["observe"], "__isabstractmethod__", False)
    ),
}

ENGINE_RUNS = ("plain", "controlled", "faulted")


def engine_run_kind(args, kwargs) -> str:
    """Which serial loop ``ClusterSimulator.run`` dispatches to."""
    faults = kwargs.get("faults", args[4] if len(args) > 4 else None)
    if faults is not None and getattr(faults, "events", ()):
        return "faulted"
    policy = kwargs.get("policy", args[2] if len(args) > 2 else None)
    if policy is not None and not policy.is_static:
        return "controlled"
    return "plain"


class LayerTracer:
    """Installs, and removes again, the layer wrappers of one process."""

    def __init__(self):
        # each open frame is [layer, start, time of nested layers]
        self._stack: list[list] = []
        self._open: dict[str, int] = {}
        self._pending: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording
    def _add(self, name: str, value: float) -> None:
        self._pending[name] = self._pending.get(name, 0) + value

    def _call(self, layer: str, fn, args, kwargs, points: bool = False):
        if self._open.get(layer):
            return fn(*args, **kwargs)  # re-entry: timed by the outer call
        events = get_telemetry().counter("sim.events") if layer.startswith(
            "simulator.engine."
        ) else None
        frame = [layer, perf_counter(), 0.0]
        self._stack.append(frame)
        self._open[layer] = 1
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - frame[1]
            self._stack.pop()
            self._open[layer] = 0
            self._add(f"layer.{layer}.calls", 1)
            self._add(f"layer.{layer}.busy_s", elapsed)
            self._add(f"layer.{layer}.self_s", elapsed - frame[2])
            if points and args:
                self._add(f"layer.{layer}.points_in", len(args[0]))
            if events is not None:
                self._add(
                    f"layer.{layer}.events",
                    get_telemetry().counter("sim.events") - events,
                )
            if self._stack:
                self._stack[-1][2] += elapsed
            else:
                self.flush()

    def flush(self) -> None:
        """Move the accumulated totals into the active registry."""
        telemetry = get_telemetry()
        for name, value in self._pending.items():
            telemetry.count(name, value)
        self._pending.clear()

    # ------------------------------------------------------------ wrappers
    def _function(self, layer: str, fn):
        call = self._call
        points = layer == "search.selection"

        def timed(*args, **kwargs):
            return call(layer, fn, args, kwargs, points)

        timed.__wrapped__ = fn
        return timed

    def _engine_run(self, fn):
        call = self._call

        def timed(simulator, *args, **kwargs):
            layer = "simulator.engine." + engine_run_kind(args, kwargs)
            return call(layer, fn, (simulator, *args), kwargs)

        timed.__wrapped__ = fn
        return timed

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every layer's public calls where they are looked up."""
        if self._undo:
            return
        me = sys.modules[__name__]
        for layer, functions in FUNCTIONS.items():
            for fn in functions:
                timed = self._function(layer, fn)
                for module in list(sys.modules.values()):
                    if module is not me and getattr(module, fn.__name__, None) is fn:
                        self._patch(module, fn.__name__, timed)
        for layer, methods in METHODS.items():
            for cls, name in methods:
                self._patch(cls, name, self._function(layer, vars(cls)[name]))
        self._patch(ClusterSimulator, "run", self._engine_run(ClusterSimulator.run))

    def uninstall(self) -> None:
        """Restore every original binding."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


# ------------------------------------------------------------------ metrics
def per_layer(counters: dict, chunk_s: float, outcome, workers: int) -> dict:
    """The per-layer metrics of one traced campaign, name -> (value, unit).

    ``counters`` is the campaign's telemetry registry content (the
    program's own counters plus the tracer's ``layer.*`` totals),
    ``chunk_s`` the summed ``worker.chunk`` span time, ``outcome`` the
    campaign's :class:`~workloads.Outcome`.
    """

    def c(name: str) -> float:
        return counters.get(name, 0)

    def layer(name: str, stat: str) -> float:
        return c(f"layer.{name}.{stat}")

    def per(total_s: float, count: float) -> float:
        return total_s / count * 1e6 if count else 0.0

    m: dict[str, tuple[float, str]] = {}
    busy = layer("simulator.multiplex", "busy_s")
    m["simulator.multiplex.busy_s"] = (busy, "s")
    m["simulator.multiplex.self_s"] = (layer("simulator.multiplex", "self_s"), "s")
    for stat in ("runs", "iterations", "lanes", "flow_steps"):
        m[f"simulator.multiplex.{stat}"] = (c(f"sim.multiplex.{stat}"), "count")
    m["simulator.multiplex.us_per_flow_step"] = (
        per(busy, c("sim.multiplex.flow_steps")),
        "us",
    )
    for kind in ("flat", "scalar"):
        m[f"simulator.allocation.{kind}.calls"] = (
            layer(f"simulator.allocation.{kind}", "calls"),
            "count",
        )
        m[f"simulator.allocation.{kind}.busy_s"] = (
            layer(f"simulator.allocation.{kind}", "busy_s"),
            "s",
        )
    engine_busy = events = 0.0
    for kind in ENGINE_RUNS:
        name = f"simulator.engine.{kind}"
        m[f"{name}.runs"] = (layer(name, "calls"), "count")
        m[f"{name}.busy_s"] = (layer(name, "busy_s"), "s")
        m[f"{name}.self_s"] = (layer(name, "self_s"), "s")
        engine_busy += layer(name, "busy_s")
        events += layer(name, "events")
    m["simulator.engine.events"] = (events, "count")
    m["simulator.engine.us_per_event"] = (per(engine_busy, events), "us")
    timed = c("evaluator.trace_evals")
    m["search.evaluators.fast_path_ratio"] = (
        c("sim.multiplex.lanes") / timed if timed else 0.0,
        "ratio",
    )
    m["search.evaluators.multiplex_fallbacks"] = (
        c("evaluator.multiplex_fallbacks"),
        "count",
    )
    m["search.evaluators.self_s"] = (layer("search.evaluators", "self_s"), "s")
    m["pstore.plan.busy_s"] = (layer("pstore.plan", "busy_s"), "s")
    m["pstore.trace_jobs.busy_s"] = (layer("pstore.trace_jobs", "busy_s"), "s")
    wait = layer("search.engine.dispatch", "busy_s")
    m["search.engine.self_s"] = (layer("search.engine", "self_s"), "s")
    m["search.engine.dispatch.chunks"] = (c("search.dispatch.chunks"), "count")
    m["search.engine.dispatch.wait_s"] = (wait, "s")
    m["search.engine.worker_busy_frac"] = (
        chunk_s / (workers * wait) if wait else 0.0,
        "ratio",
    )
    hits, misses = c("cache.hit"), c("cache.miss")
    m["search.cache.hits"] = (hits, "count")
    m["search.cache.misses"] = (misses, "count")
    m["search.cache.inserts"] = (c("cache.insert"), "count")
    m["search.cache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0,
        "ratio",
    )
    m["search.cache.busy_s"] = (layer("search.cache", "busy_s"), "s")
    model_calls = layer("core.model", "calls")
    m["core.model.calls"] = (model_calls, "count")
    m["core.model.busy_s"] = (layer("core.model", "busy_s"), "s")
    m["core.model.us_per_point"] = (
        per(layer("core.model", "busy_s"), model_calls),
        "us",
    )
    m["search.selection.calls"] = (layer("search.selection", "calls"), "count")
    m["search.selection.busy_s"] = (layer("search.selection", "busy_s"), "s")
    m["search.selection.points_in"] = (
        layer("search.selection", "points_in"),
        "count",
    )
    m["search.optimize.self_s"] = (layer("search.optimize", "self_s"), "s")
    m["search.optimize.fresh_evals"] = (outcome.fresh_evals, "count")
    m["search.optimize.evals_to_knee"] = (outcome.evals_to_knee, "count")
    m["costmodel.carbon_timed.calls"] = (
        layer("costmodel.carbon_timed", "calls"),
        "count",
    )
    m["costmodel.carbon_timed.busy_s"] = (
        layer("costmodel.carbon_timed", "busy_s"),
        "s",
    )
    m["policy.observe.calls"] = (layer("policy.observe", "calls"), "count")
    m["policy.observe.busy_s"] = (layer("policy.observe", "busy_s"), "s")
    m["policy.control_ticks"] = (c("sim.control.ticks"), "count")
    for stat in ("onsets", "retried_jobs", "dropped_jobs"):
        m[f"faults.{stat}"] = (c(f"sim.faults.{stat}"), "count")
    return m


#: per-layer metrics that are exact counts: they must repeat run to run
COUNTS = (
    "simulator.multiplex.runs",
    "simulator.multiplex.iterations",
    "simulator.multiplex.lanes",
    "simulator.multiplex.flow_steps",
    "simulator.allocation.flat.calls",
    "simulator.allocation.scalar.calls",
    "simulator.engine.plain.runs",
    "simulator.engine.controlled.runs",
    "simulator.engine.faulted.runs",
    "simulator.engine.events",
    "search.evaluators.fast_path_ratio",
    "search.evaluators.multiplex_fallbacks",
    "search.engine.dispatch.chunks",
    "search.cache.hits",
    "search.cache.misses",
    "search.cache.inserts",
    "core.model.calls",
    "search.selection.calls",
    "search.selection.points_in",
    "search.optimize.fresh_evals",
    "search.optimize.evals_to_knee",
    "costmodel.carbon_timed.calls",
    "policy.observe.calls",
    "policy.control_ticks",
    "faults.onsets",
    "faults.retried_jobs",
    "faults.dropped_jobs",
)

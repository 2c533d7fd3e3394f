"""The serial loop's telemetry counters: the names the benchmark tracer
and ``Study.report()`` read.

Each run counts exactly one of ``sim.runs`` (plain), ``sim.controlled_runs``
(dynamic policy) and ``sim.faulted_runs`` (non-empty fault schedule, with
or without a policy), plus ``sim.events`` and the allocation memo's
``sim.alloc.calls`` / ``sim.alloc.memo_hits``; ``sim.control.*`` appears
only with a dynamic policy and ``sim.faults.*`` only with a non-empty
schedule.
"""

import pytest

from repro.faults import FaultSchedule
from repro.hardware.cluster import ClusterSpec
from repro.hardware.presets import CLUSTER_V_NODE
from repro.policy import StaticPolicy
from repro.simulator import engine
from repro.simulator.engine import ClusterSimulator
from repro.simulator.jobs import FlowSpec, Job, Phase
from repro.simulator.network import SMC_GS5_SWITCH
from repro.simulator.resources import cpu, disk, nic_in, nic_out
from repro.telemetry import capture
from tests.simulator.make_serial_golden import CASES

RUN_COUNTERS = ("sim.runs", "sim.controlled_runs", "sim.faulted_runs")
CONTROL = (
    "sim.control.ticks",
    "sim.control.gate_actions",
    "sim.control.ungate_actions",
    "sim.control.freq_actions",
)
FAULTS = ("sim.faults.onsets", "sim.faults.retried_jobs", "sim.faults.dropped_jobs")


def traced(case, **overrides):
    """``(result, counters, run kwargs)`` of one golden case."""
    sim, jobs, kwargs = CASES[case]()
    kwargs = {**kwargs, **overrides}
    with capture() as local:
        result = sim.run(jobs, **kwargs)
    return result, local.counters, kwargs


@pytest.mark.parametrize(
    "case, overrides, kind",
    [
        ("mixed-s1-rec", {}, "sim.runs"),
        ("mixed-s1-rec", {"policy": StaticPolicy()}, "sim.runs"),
        ("mixed-s1-rec", {"faults": FaultSchedule()}, "sim.runs"),
        ("gate", {}, "sim.controlled_runs"),
        ("dvfs", {}, "sim.controlled_runs"),
        ("faults-retry", {}, "sim.faulted_runs"),
        ("faults-retry-gate", {}, "sim.faulted_runs"),
        ("faults-retry-gate", {"policy": StaticPolicy()}, "sim.faulted_runs"),
    ],
)
def test_each_run_counts_exactly_one_run_counter(case, overrides, kind):
    result, counters, kwargs = traced(case, **overrides)
    assert {name: counters.get(name, 0) for name in RUN_COUNTERS} == {
        name: int(name == kind) for name in RUN_COUNTERS
    }
    assert counters["sim.events"] > 0
    assert 0 < counters["sim.alloc.calls"] <= counters["sim.events"]
    assert "sim.alloc.memo_hits" in counters
    policy = kwargs.get("policy")
    dynamic = policy is not None and not policy.is_static
    assert all((name in counters) == dynamic for name in CONTROL)
    faulted = kind == "sim.faulted_runs"
    assert all((name in counters) == faulted for name in FAULTS)
    if faulted:
        assert counters["sim.faults.onsets"] == result.faults_survived
        assert counters["sim.faults.retried_jobs"] == result.retried_jobs
        assert counters["sim.faults.dropped_jobs"] == result.dropped_jobs


def test_dynamic_runs_count_their_ticks_and_actions():
    _, counters, _ = traced("gate")
    assert counters["sim.control.ticks"] > 0
    assert counters["sim.control.gate_actions"] > 0
    assert counters["sim.control.ungate_actions"] > 0
    _, counters, _ = traced("dvfs")
    assert counters["sim.control.freq_actions"] > 0


def test_events_count_is_the_same_with_or_without_a_static_policy():
    _, plain, _ = traced("mixed-s2-rec")
    _, static, _ = traced("mixed-s2-rec", policy=StaticPolicy())
    assert plain == static


def test_disabled_telemetry_records_nothing():
    sim, jobs, kwargs = CASES["faults-retry-gate"]()
    with capture(enabled=False) as local:
        sim.run(jobs, **kwargs)
    assert local.counters == {}


def shared_template_jobs(count: int = 16) -> list[Job]:
    """Overlapping two-phase jobs that all share one template (one phase
    tuple, one FlowSpec per phase), as trace replay builds them."""
    scan = FlowSpec("scan", 60.0, {cpu(0): 1.0, disk(0): 1.0, nic_out(0): 0.5})
    probe = FlowSpec("probe", 30.0, {nic_in(1): 0.5, cpu(1): 2.0})
    phases = (Phase("scan", (scan,)), Phase("probe", (probe,)))
    return [Job(f"q{i}", phases, start_time_s=0.37 * i) for i in range(count)]


def test_allocator_runs_once_per_distinct_composition():
    sim = ClusterSimulator(
        ClusterSpec.homogeneous(CLUSTER_V_NODE, 2), switch=SMC_GS5_SWITCH
    )
    with capture() as local:
        result = sim.run(shared_template_jobs())
    counters = local.counters
    busy = [i.flow_names for i in result.intervals if i.flow_names]
    # Without a policy or faults every node keeps factor 1.0, so a
    # composition is its ordered tuple of live flow specs; here every
    # allocation is followed by a recorded interval.
    assert counters["sim.alloc.calls"] == len(set(busy))
    assert counters["sim.alloc.calls"] + counters["sim.alloc.memo_hits"] == len(busy)
    assert counters["sim.alloc.calls"] < counters["sim.events"]
    assert counters["sim.alloc.memo_hits"] > counters["sim.alloc.calls"]


def test_a_full_memo_starts_over_without_changing_the_records(monkeypatch):
    sim = ClusterSimulator(
        ClusterSpec.homogeneous(CLUSTER_V_NODE, 2), switch=SMC_GS5_SWITCH
    )
    jobs = shared_template_jobs()
    with capture() as unbounded:
        expected = sim.run(jobs)
    monkeypatch.setattr(engine, "_MEMO_ENTRIES", 1)
    with capture() as bounded:
        got = sim.run(jobs)
    assert got == expected
    assert bounded.counters["sim.alloc.calls"] > unbounded.counters["sim.alloc.calls"]

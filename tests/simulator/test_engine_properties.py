"""Property-based invariants of the fluid simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.faults import FailurePolicy, FaultSchedule, NetworkDegrade, NodeCrash, Straggler
from repro.hardware.cluster import ClusterSpec
from repro.hardware.node import NodeSpec
from repro.hardware.power import PowerLawModel
from repro.hardware.powerstate import PowerStateModel
from repro.policy import DvfsLadderPolicy, PowerGatePolicy, StaticPolicy
from repro.simulator.engine import ClusterSimulator
from repro.simulator.jobs import FlowSpec, Job, Phase
from repro.simulator.resources import cpu, disk, nic_in, nic_out

NODE = NodeSpec(
    name="p",
    cpu_bandwidth_mbps=1000.0,
    memory_mb=1000.0,
    disk_bandwidth_mbps=250.0,
    nic_bandwidth_mbps=100.0,
    power_model=PowerLawModel(80.0, 0.3),
    engine_base_utilization=0.1,
)


def job(name, volume, node=0, start=0.0):
    return Job(
        name=name,
        phases=(
            Phase("p", (FlowSpec(f"{name}-f", volume, {disk(node): 1.0, cpu(node): 1.0}),)),
        ),
        start_time_s=start,
    )


@given(st.lists(st.floats(1.0, 500.0), min_size=1, max_size=5))
def test_makespan_independent_of_job_order(volumes):
    """Admission order of simultaneous jobs must not change the outcome."""
    cluster = ClusterSpec.homogeneous(NODE, 1)
    jobs_fwd = [job(f"j{i}", v) for i, v in enumerate(volumes)]
    jobs_rev = list(reversed(jobs_fwd))
    a = ClusterSimulator(cluster, record_intervals=False).run(jobs_fwd)
    b = ClusterSimulator(cluster, record_intervals=False).run(jobs_rev)
    assert a.makespan_s == pytest.approx(b.makespan_s)
    assert a.energy_j == pytest.approx(b.energy_j)


@given(st.floats(1.0, 400.0), st.floats(0.0, 50.0))
def test_time_shift_invariance(volume, offset):
    """Delaying a lone job shifts completion, not duration."""
    cluster = ClusterSpec.homogeneous(NODE, 1)
    base = ClusterSimulator(cluster, record_intervals=False).run([job("j", volume)])
    shifted = ClusterSimulator(cluster, record_intervals=False).run(
        [job("j", volume, start=offset)]
    )
    assert shifted.response_time_s("j") == pytest.approx(base.response_time_s("j"))
    assert shifted.makespan_s == pytest.approx(base.makespan_s + offset)


@given(st.lists(st.floats(10.0, 300.0), min_size=2, max_size=4))
def test_work_conservation(volumes):
    """Total served volume / makespan never exceeds the disk capacity."""
    cluster = ClusterSpec.homogeneous(NODE, 1)
    jobs = [job(f"j{i}", v) for i, v in enumerate(volumes)]
    result = ClusterSimulator(cluster, record_intervals=False).run(jobs)
    throughput = sum(volumes) / result.makespan_s
    assert throughput <= NODE.disk_bandwidth_mbps * (1 + 1e-6)
    # ...and the disk is actually saturated while work remains
    assert throughput == pytest.approx(NODE.disk_bandwidth_mbps)


@given(st.floats(10.0, 300.0), st.integers(1, 4))
def test_energy_scales_with_idle_nodes(volume, extra_nodes):
    """Adding idle nodes adds exactly their idle energy."""
    small = ClusterSimulator(
        ClusterSpec.homogeneous(NODE, 1), record_intervals=False
    ).run([job("j", volume)])
    big = ClusterSimulator(
        ClusterSpec.homogeneous(NODE, 1 + extra_nodes), record_intervals=False
    ).run([job("j", volume)])
    idle_power = NODE.power_model.power(NODE.utilization(0.0))
    expected = small.energy_j + extra_nodes * idle_power * small.makespan_s
    assert big.energy_j == pytest.approx(expected)
    assert big.makespan_s == pytest.approx(small.makespan_s)


# ------------------------------------------- physical invariants, any input
WIMPY_NODE = NodeSpec(
    name="pw",
    cpu_bandwidth_mbps=400.0,
    memory_mb=500.0,
    disk_bandwidth_mbps=150.0,
    nic_bandwidth_mbps=100.0,
    power_model=PowerLawModel(25.0, 0.3),
    engine_base_utilization=0.08,
)
TRANSITIONS = PowerStateModel(shutdown_s=0.2, boot_s=0.3)
POLICIES = (
    None,
    StaticPolicy(),
    PowerGatePolicy(utilization_floor=0.3, transitions=TRANSITIONS),
    DvfsLadderPolicy(ladder=((0, 0.5), (2, 1.0))),
)
FAILURE_POLICIES = (
    FailurePolicy.abort_and_retry(backoff_base_s=0.2, transitions=TRANSITIONS),
    FailurePolicy.drop(transitions=TRANSITIONS),
)
times = st.floats(0.0, 3.0)
spans = st.floats(0.1, 2.0)
fractions = st.floats(0.2, 0.9)
nodes = st.integers(0, 5)
fault_events = st.one_of(
    st.builds(NodeCrash, node=nodes, at_s=times),  # never recovers
    st.builds(
        lambda node, at, span: NodeCrash(node=node, at_s=at, recover_at_s=at + span),
        nodes, times, spans,
    ),
    st.builds(Straggler, node=nodes, at_s=times, slowdown=fractions, duration_s=spans),
    st.builds(NetworkDegrade, factor=fractions, at_s=times, duration_s=spans),
)


@st.composite
def scenarios(draw):
    num_beefy = draw(st.integers(0, 2))
    cluster = ClusterSpec.beefy_wimpy(
        NODE, num_beefy, WIMPY_NODE, draw(st.integers(1 if num_beefy == 0 else 0, 3))
    )
    n = cluster.num_nodes
    jobs = []
    for j in range(draw(st.integers(1, 4))):
        phases = []
        for p in range(draw(st.integers(1, 2))):
            flows = []
            for f in range(draw(st.integers(1, 2))):
                src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
                demands = {cpu(src): draw(st.floats(0.2, 1.0)), disk(src): 1.0}
                if dst != src:
                    demands[nic_out(src)] = demands[nic_in(dst)] = draw(
                        st.floats(0.05, 0.5)
                    )
                flows.append(FlowSpec(f"j{j}p{p}f{f}", draw(st.floats(1.0, 300.0)), demands))
            phases.append(Phase(f"p{p}", tuple(flows)))
        jobs.append(Job(f"j{j}", tuple(phases), start_time_s=draw(times)))
    faults = draw(st.one_of(st.none(), st.lists(fault_events, min_size=1, max_size=3)))
    kwargs = {
        "policy": draw(st.sampled_from(POLICIES)),
        "control_interval_s": 0.25,
        "faults": None if faults is None else FaultSchedule(events=tuple(faults)),
        "failure_policy": draw(st.sampled_from(FAILURE_POLICIES)),
    }
    return ClusterSimulator(cluster, record_intervals=True), jobs, kwargs


@settings(max_examples=150)
@given(scenarios())
def test_physical_invariants_hold_on_every_run(scenario):
    """Energy is integrated power, time is contiguous, and every job
    completes or is dropped exactly once -- whatever policy and faults."""
    sim, jobs, kwargs = scenario
    try:
        result = sim.run(jobs, **kwargs)
    except SimulationError as error:
        # every job dropped by the fault schedule: nothing left to check
        assert "no job survived" in str(error)
        return
    assert result.energy_j == sum(result.node_energy_j)
    interval_energy = sum(interval.energy_j for interval in result.intervals)
    assert interval_energy == pytest.approx(result.energy_j, rel=1e-9)
    assert result.intervals[0].start_s == 0.0
    for before, after in zip(result.intervals, result.intervals[1:]):
        assert before.end_s == after.start_s
    assert result.intervals[-1].end_s == result.makespan_s
    names = [job.name for job in jobs]
    assert sorted([*result.job_completion_s, *result.dropped_job_names]) == sorted(names)
    assert set(result.job_start_s) == set(names)
    for name, done in result.job_completion_s.items():
        assert done >= result.job_start_s[name]

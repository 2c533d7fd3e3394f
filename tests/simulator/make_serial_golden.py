"""Golden records of the serial simulator, and the script that writes them.

``serial_golden.json`` next to this file holds, for every case in
:data:`CASES`, the complete :class:`~repro.simulator.engine.SimulationResult`
of one ``ClusterSimulator.run`` call: every field, floats as
``float.hex``, the interval trace field by field.  The fixture was written
when ``run`` still had three event loops (plain, policy-controlled and
faulted), so ``tests/simulator/test_serial_golden.py`` holds the single
loop to the records of all three.

The cases cover seeded mixed beefy/wimpy clusters with staggered
multi-phase jobs behind a contended switch (intervals recorded and not),
power gating with non-zero shutdown and boot times, a DVFS ladder, and
crashes (recovering and not), a straggler and a network degrade, with
retries on and off, with and without a dynamic policy, plus a job
stranded by a node that never recovers.

Regenerate only from a commit whose records are known to be right::

    PYTHONPATH=src python tests/simulator/make_serial_golden.py
"""

from __future__ import annotations

import json
import random
from dataclasses import fields
from pathlib import Path

from repro.faults import FailurePolicy, FaultSchedule, NetworkDegrade, NodeCrash, Straggler
from repro.hardware.cluster import ClusterSpec
from repro.hardware.node import NodeSpec
from repro.hardware.power import PowerLawModel
from repro.hardware.powerstate import PowerStateModel
from repro.policy import DvfsLadderPolicy, PowerGatePolicy
from repro.simulator.engine import ClusterSimulator, Interval, SimulationResult
from repro.simulator.jobs import FlowSpec, Job, Phase
from repro.simulator.network import SMC_GS5_SWITCH
from repro.simulator.resources import cpu, disk, nic_in, nic_out

FIXTURE = Path(__file__).with_name("serial_golden.json")

BEEFY = NodeSpec(
    name="golden-beefy",
    cpu_bandwidth_mbps=1600.0,
    memory_mb=8000.0,
    disk_bandwidth_mbps=400.0,
    nic_bandwidth_mbps=110.0,
    power_model=PowerLawModel(130.0, 0.35),
    engine_base_utilization=0.12,
)
WIMPY = NodeSpec(
    name="golden-wimpy",
    cpu_bandwidth_mbps=500.0,
    memory_mb=2000.0,
    disk_bandwidth_mbps=180.0,
    nic_bandwidth_mbps=110.0,
    power_model=PowerLawModel(28.0, 0.3),
    engine_base_utilization=0.08,
)

#: non-zero shutdown and boot, so gating and waking take simulated time
GATE = PowerGatePolicy(
    utilization_floor=0.2,
    transitions=PowerStateModel(shutdown_s=0.3, boot_s=0.5),
)
DVFS = DvfsLadderPolicy(ladder=((0, 0.5), (2, 0.8), (4, 1.0)))
RECOVERY = PowerStateModel(shutdown_s=0.0, boot_s=0.4, gated_power_fraction=0.05)
RETRY = FailurePolicy.abort_and_retry(
    max_retries=2, backoff_base_s=0.3, jitter=0.5, seed=7, transitions=RECOVERY
)
DROP = FailurePolicy.drop(transitions=RECOVERY)
NEMESIS = FaultSchedule(
    events=(
        NodeCrash(node=2, at_s=0.4, recover_at_s=1.6),
        Straggler(node=0, at_s=0.2, slowdown=0.6, duration_s=1.5),
        NetworkDegrade(factor=0.5, at_s=0.5, duration_s=1.0),
        NodeCrash(node=3, at_s=1.1, recover_at_s=2.0),
    ),
    name="nemesis",
)
NEVER_BACK = FaultSchedule(
    events=(
        NodeCrash(node=2, at_s=1.2),
        Straggler(node=1, at_s=0.1, slowdown=0.5, duration_s=2.0),
    ),
    name="never-back",
)


def mixed_cluster(seed: int) -> ClusterSpec:
    rng = random.Random(seed)
    return ClusterSpec.beefy_wimpy(BEEFY, rng.randint(1, 2), WIMPY, rng.randint(2, 3))


def mixed_jobs(seed: int, num_nodes: int, count: int = 6, late_s: float = 4.0) -> list[Job]:
    """Staggered multi-phase jobs; the last one arrives after an idle gap."""
    rng = random.Random(1000 + seed)
    jobs = []
    for j in range(count):
        phases = []
        for p in range(rng.randint(1, 3)):
            flows = []
            for f in range(rng.randint(1, 3)):
                src = rng.randrange(num_nodes)
                dst = rng.randrange(num_nodes)
                demands = {cpu(src): rng.uniform(0.3, 1.0), disk(src): rng.uniform(0.5, 1.0)}
                if dst != src:
                    sel = rng.uniform(0.05, 0.4)
                    demands[nic_out(src)] = sel
                    demands[nic_in(dst)] = sel
                volume = rng.uniform(20.0, 150.0)
                flows.append(FlowSpec(f"j{j}p{p}f{f}", volume, demands))
            phases.append(Phase(f"p{p}", tuple(flows)))
        start = late_s if j == count - 1 else rng.uniform(0.0, 1.2)
        jobs.append(Job(f"j{j}", tuple(phases), start_time_s=start))
    return jobs


def _case(seed, record=True, late_s=4.0, **run_kwargs):
    def build():
        cluster = mixed_cluster(seed)
        sim = ClusterSimulator(cluster, switch=SMC_GS5_SWITCH, record_intervals=record)
        return sim, mixed_jobs(seed, cluster.num_nodes, late_s=late_s), run_kwargs

    return build


def _stranded():
    """A job arriving after its node crashed for good is dropped."""
    cluster = ClusterSpec.beefy_wimpy(BEEFY, 1, WIMPY, 2)
    sim = ClusterSimulator(cluster, switch=SMC_GS5_SWITCH)
    jobs = mixed_jobs(3, cluster.num_nodes, count=4, late_s=1.5)
    late = Job(
        "stranded",
        (Phase("p0", (FlowSpec("stranded-f", 80.0, {cpu(2): 1.0, disk(2): 1.0}),)),),
        start_time_s=1.0,
    )
    crash = FaultSchedule(events=(NodeCrash(node=2, at_s=0.2),), name="lost-node")
    return sim, jobs + [late], {"faults": crash, "failure_policy": RETRY}


#: case name -> builder of ``(simulator, jobs, run keyword arguments)``
CASES = {
    **{
        f"mixed-s{seed}-{'rec' if record else 'norec'}": _case(seed, record)
        for seed in (1, 2, 3)
        for record in (True, False)
    },
    "gate": _case(4, policy=GATE, control_interval_s=0.25),
    "gate-norec": _case(4, record=False, policy=GATE, control_interval_s=0.25),
    "dvfs": _case(5, late_s=2.5, policy=DVFS, control_interval_s=0.2),
    "faults-retry": _case(6, late_s=2.5, faults=NEMESIS, failure_policy=RETRY),
    "faults-drop": _case(6, late_s=2.5, faults=NEMESIS, failure_policy=DROP),
    "faults-retry-gate": _case(
        10, late_s=3.0, faults=NEMESIS, failure_policy=RETRY,
        policy=GATE, control_interval_s=0.25,
    ),
    "faults-drop-dvfs": _case(
        7, late_s=3.0, faults=NEMESIS, failure_policy=DROP,
        policy=DVFS, control_interval_s=0.2,
    ),
    "faults-never-back": _case(9, late_s=2.0, faults=NEVER_BACK, failure_policy=RETRY),
    "faults-stranded": _stranded,
}


def run_case(name: str) -> SimulationResult:
    sim, jobs, kwargs = CASES[name]()
    return sim.run(jobs, **kwargs)


# ------------------------------------------------------------ exact codec
def _encode(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Interval):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(Interval)}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    return value  # int, str, None


def encode_result(result: SimulationResult) -> dict:
    """Every field of ``result``; floats as ``float.hex``."""
    return {f.name: _encode(getattr(result, f.name)) for f in fields(SimulationResult)}


def _floats(values) -> tuple[float, ...]:
    return tuple(float.fromhex(v) for v in values)


def _interval(data: dict) -> Interval:
    return Interval(
        start_s=float.fromhex(data["start_s"]),
        end_s=float.fromhex(data["end_s"]),
        node_utilization=_floats(data["node_utilization"]),
        node_power_w=_floats(data["node_power_w"]),
        flow_names=tuple(data["flow_names"]),
        flow_bindings=tuple(data["flow_bindings"]),
        flow_jobs=tuple(data["flow_jobs"]),
    )


def decode_result(data: dict) -> SimulationResult:
    """The exact inverse of :func:`encode_result`."""

    def number(key):
        value = data[key]
        return None if value is None else float.fromhex(value)

    return SimulationResult(
        makespan_s=number("makespan_s"),
        energy_j=number("energy_j"),
        node_energy_j=_floats(data["node_energy_j"]),
        job_start_s={k: float.fromhex(v) for k, v in data["job_start_s"].items()},
        job_completion_s={k: float.fromhex(v) for k, v in data["job_completion_s"].items()},
        intervals=[_interval(item) for item in data["intervals"]],
        gated_node_seconds=number("gated_node_seconds"),
        energy_saved_j=number("energy_saved_j"),
        recovery_energy_j=number("recovery_energy_j"),
        retried_jobs=data["retried_jobs"],
        dropped_jobs=data["dropped_jobs"],
        dropped_job_names=tuple(data["dropped_job_names"]),
        faults_survived=data["faults_survived"],
        carbon_g=number("carbon_g"),
        price_usd=number("price_usd"),
    )


def main() -> None:
    golden = {name: encode_result(run_case(name)) for name in CASES}
    FIXTURE.write_text(json.dumps(golden, indent=None, separators=(",", ":")) + "\n")
    for name, data in golden.items():
        print(
            f"{name:20s} intervals={len(data['intervals']):4d} "
            f"retried={data['retried_jobs']} dropped={data['dropped_jobs']} "
            f"survived={data['faults_survived']}"
        )
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
